/**
 * @file
 * Platform characterization: measured peak compute and peak bandwidth —
 * the ceilings of the roofline plot.
 *
 * Following the methodology, neither number is taken from a datasheet:
 *   - Peak compute is measured by a register-resident chain-free FMA
 *     loop (the paper's runtime-generated assembly benchmark) per
 *     scenario (width x FMA x core set).
 *   - Peak bandwidth is measured as the best of several streaming probes
 *     (read / copy / scale / triad / nt-set) over a buffer twice the
 *     total LLC, with traffic read from the IMC counters, so the beta
 *     used for the roof is consistent with the Q used for kernel points.
 *
 * A scenario's ceiling set is a fixed list of independent parts (see
 * ceilingParts()): each compute peak and each bandwidth probe measures
 * on a reset machine and depends on no other part, so the parts may run
 * in any order, each on its own Machine, and assembleCeilings() merges
 * their values into the same model characterize() builds serially.
 */

#ifndef RFL_ROOFLINE_PLATFORM_HH
#define RFL_ROOFLINE_PLATFORM_HH

#include <string>
#include <vector>

#include "pmu/sim_backend.hh"
#include "roofline/model.hh"
#include "sim/machine.hh"

namespace rfl::roofline
{

/** Streaming-probe flavors for the bandwidth measurement. */
enum class BwProbe
{
    Read,  ///< sum reduction: pure read stream
    Copy,  ///< a[i] = b[i] (write-allocate stores)
    Scale, ///< a[i] = s*b[i]
    Triad, ///< a[i] = b[i] + s*c[i]
    NtSet, ///< a[i] = s with non-temporal stores (memset-style)
};

/** @return probe name, e.g. "triad". */
const char *bwProbeName(BwProbe probe);

/** All probes in a fixed order. */
std::vector<BwProbe> allBwProbes();

/** Result of one bandwidth probe. */
struct BandwidthResult
{
    BwProbe probe = BwProbe::Read;
    double bytesPerSec = 0.0;     ///< IMC bytes / modeled time
    double usefulBytesPerSec = 0.0; ///< application bytes / time
};

/** One independently measured value of a scenario's ceiling set. */
struct CeilingPart
{
    bool compute = false;          ///< compute peak, else bandwidth probe
    int lanes = 1;                 ///< compute: vector width in doubles
    bool fma = false;              ///< compute: FMA issue
    BwProbe probe = BwProbe::Read; ///< bandwidth: probe flavor
    std::string name;              ///< e.g. "scalar+FMA", "AVX", "triad"
};

/**
 * The fixed part list of a scenario on @p core: the compute peaks
 * scalar, scalar+FMA, full width, full width+FMA (FMA parts only when
 * the core has FMA, full-width parts only when it is wider than
 * scalar), then every bandwidth probe in allBwProbes() order.
 */
std::vector<CeilingPart> ceilingParts(const sim::CoreConfig &core);

/**
 * Merge part values (flops/s or IMC bytes/s, indexed like @p parts)
 * into a model in list order: every compute peak, then the read
 * bandwidth, then the best probe if it is not read (strictly greater
 * wins; on a tie the earlier probe stays best).
 */
RooflineModel assembleCeilings(const std::vector<CeilingPart> &parts,
                               const std::vector<double> &values);

/**
 * Measures ceilings on a simulated machine. The machine is reset between
 * probes; prefetcher setting is preserved.
 */
class PlatformProbe
{
  public:
    explicit PlatformProbe(sim::Machine &machine);

    /**
     * Measured peak compute in flops/s for the given core set, vector
     * width (0 = machine max) and FMA setting. Register-resident: no
     * memory traffic.
     */
    double computePeak(const std::vector<int> &cores, int lanes = 0,
                       bool fma = true);

    /**
     * Measured peak bandwidth for one probe flavor over @p buf_doubles
     * doubles (0 = 2x the total LLC capacity). Cold caches. The probe
     * streams over simulated address ranges only: it allocates and
     * touches no host buffer.
     */
    BandwidthResult bandwidthPeak(const std::vector<int> &cores,
                                  BwProbe probe, size_t buf_doubles = 0);

    /** Measure one part: flops/s for a compute peak, IMC bytes/s for a
     *  bandwidth probe. */
    double measurePart(const std::vector<int> &cores,
                       const CeilingPart &part);

    /**
     * Standard ceiling set for a scenario: every ceilingParts() part
     * measured in list order on this machine, then assembleCeilings().
     */
    RooflineModel characterize(const std::vector<int> &cores);

    sim::Machine &machine() { return machine_; }

  private:
    sim::Machine &machine_;
    pmu::SimBackend backend_;
};

/** @return {0}: the single-thread scenario of the paper. */
std::vector<int> singleThreadCores(const sim::Machine &machine);

/** @return all cores of socket 0. */
std::vector<int> oneSocketCores(const sim::Machine &machine);

/** @return every core of every socket. */
std::vector<int> allCores(const sim::Machine &machine);

/** @return scenario label: "single core" / "single socket" / "N sockets".*/
std::string scenarioName(const sim::Machine &machine,
                         const std::vector<int> &cores);

} // namespace rfl::roofline

#endif // RFL_ROOFLINE_PLATFORM_HH
