/**
 * @file
 * CampaignSpec: a declarative description of a grid of experiments.
 *
 * A campaign is machines x kernels x variants. Each *machine* is a full
 * simulated-platform configuration, each *kernel* a registry spec string
 * ("triad:n=4194304"), and each *variant* the run options of one
 * scenario: the measurement protocol plus the machine-level knobs the
 * paper varies (core set, prefetchers on/off, NUMA placement policy).
 *
 * Specs are built programmatically (the builder methods chain) or parsed
 * from a small text format mirroring the machine-config files:
 *
 *   name = overview
 *   machine = default                 # preset: default | small | scalar
 *   machine = @my-box.cfg             # or a sim/config_io file
 *   timeout = 2.5                     # run wall budget, seconds
 *   kernel = sum:n=1048576
 *   kernel = triad:n=4194304
 *   trace = daxpy:n=65536             # record once, replay per variant
 *   phase = fft:n=65536 period=4096   # phase-resolved sampling
 *   variant = cold-1c: protocol=cold cores=0 reps=1
 *   variant = warm-1s: protocol=warm cores=0-3 numa=local prefetch=off
 *   backend = sim                     # measurement plane(s); repeatable
 *   backend = perf                    # adds hardware rows via perf_event
 *
 * `machine = @file` names a machine-config file relative to the
 * campaign file's own directory. Only loadCampaignSpec() resolves it;
 * parseCampaignSpec() rejects it without touching the path, so text a
 * client submits can never make the service read a server file.
 *
 * A *backend* entry selects a measurement plane. The default (`sim`)
 * runs every kernel x variant on the simulated machines. Adding `perf`
 * appends one NativeMeasure job per (machine, kernel, variant) that
 * runs the kernel natively on the host CPU with perf_event counters —
 * the paper's actual methodology — producing rows tagged
 * backend="perf" next to the sim rows. On hosts where perf_event_open
 * is denied the perf rows complete as unavailable placeholders (never
 * failures), so the same spec is portable into CI containers.
 *
 * A *trace* entry names a kernel whose access stream is recorded once
 * per machine (trace-record job) into a content-addressed trace file,
 * then replayed as a TraceKernel measurement under every variant
 * (trace-replay jobs) — see job_graph.hh and trace/trace_kernel.hh.
 *
 * A *phase* entry names a kernel to run once per (machine, variant)
 * with the simulator's interval sampler enabled (phase-sample jobs):
 * the result is a PhaseTrajectory — the kernel's per-interval (I, P)
 * path through roofline space — consumed by the analysis subsystem
 * (analysis/phase.hh). `period` is the sampling period in demand
 * accesses (default 8192).
 *
 * The campaign layer expands the grid into a JobGraph (job_graph.hh)
 * where every (machine, variant) core-set gets one ceiling-
 * characterization job that its measurement jobs depend on.
 */

#ifndef RFL_CAMPAIGN_SPEC_HH
#define RFL_CAMPAIGN_SPEC_HH

#include <string>
#include <vector>

#include "roofline/measurement.hh"
#include "sim/config.hh"
#include "sim/machine.hh"

namespace rfl::campaign
{

/**
 * Everything that can differ between two runs of the same kernel on the
 * same machine config: the measurement options plus the machine-level
 * knobs (NUMA policy, prefetch enable) a scenario sets before running.
 */
struct RunOptions
{
    roofline::MeasureOptions measure;
    sim::MemPolicy memPolicy = sim::MemPolicy::LocalToAccessor;
    bool prefetchEnabled = true;

    /**
     * Canonical text rendering of every field, used in cache keys; two
     * RunOptions produce the same key iff they describe the same run.
     */
    std::string canonicalKey() const;
};

/** One platform of the campaign grid. */
struct MachineEntry
{
    std::string label;
    sim::MachineConfig config;
};

/** One scenario of the campaign grid. */
struct Variant
{
    std::string label;
    RunOptions opts;
};

/** One phase-resolved kernel entry (see file comment). */
struct PhaseEntry
{
    std::string spec;       ///< kernel registry spec
    uint64_t period = 8192; ///< sampling period in demand accesses
};

/** See file comment. */
class CampaignSpec
{
  public:
    explicit CampaignSpec(std::string name = "campaign");

    /** @name Builder interface (all methods chain). */
    ///@{
    CampaignSpec &addMachine(const std::string &label,
                             const sim::MachineConfig &config);
    /** Label defaults to the config's name. */
    CampaignSpec &addMachine(const sim::MachineConfig &config);
    CampaignSpec &addKernel(const std::string &spec);
    CampaignSpec &addKernels(const std::vector<std::string> &specs);
    /** Record @p kernelSpec's access stream and replay per variant. */
    CampaignSpec &addTrace(const std::string &kernelSpec);
    /** Phase-sample @p kernelSpec under every (machine, variant). */
    CampaignSpec &addPhase(const std::string &kernelSpec,
                           uint64_t period = 8192);
    CampaignSpec &addVariant(const std::string &label,
                             const RunOptions &opts);
    /** Variant with default machine-level knobs. */
    CampaignSpec &addVariant(const std::string &label,
                             const roofline::MeasureOptions &measure);
    /** Wall-clock budget for the whole run, seconds; 0 disables (the
     *  default). A run exceeding it is cancelled at the next batch-
     *  drain boundary and fails with TimedOutError (support/cancel.hh);
     *  the service surfaces that as the TimedOut job state. */
    CampaignSpec &setTimeout(double seconds);
    /** Add a measurement plane: "sim" or "perf" (see file comment).
     *  Duplicates are ignored; the default is {"sim"}. */
    CampaignSpec &addBackend(const std::string &backend);
    ///@}

    const std::string &name() const { return name_; }
    const std::vector<MachineEntry> &machines() const { return machines_; }
    const std::vector<std::string> &kernels() const { return kernels_; }
    const std::vector<std::string> &traces() const { return traces_; }
    const std::vector<PhaseEntry> &phases() const { return phases_; }
    const std::vector<Variant> &variants() const { return variants_; }
    double timeoutSeconds() const { return timeoutSeconds_; }
    /** Measurement planes, in addition order; always non-empty. */
    const std::vector<std::string> &backends() const { return backends_; }
    /** @return whether @p backend is among backends(). */
    bool hasBackend(const std::string &backend) const;

    /** Number of measurement runs the grid expands to (trace-replay
     *  and phase-sample runs included). */
    size_t gridSize() const
    {
        return machines_.size() *
               (kernels_.size() + traces_.size() + phases_.size()) *
               variants_.size();
    }

    /**
     * Check the spec is runnable: at least one machine, kernel and
     * variant; distinct labels; every variant's core set valid on every
     * machine; every kernel spec accepted by the kernel catalogue
     * (kernels/registry.hh), which builds no kernel. fatal() on
     * violation (user error).
     */
    void validate() const;

    /**
     * Stable (process-independent) hash over everything that shapes the
     * campaign's results and artifacts: name, machine labels + config
     * hashes, kernel/trace specs, phase entries, variant labels +
     * canonical run options. Two specs hash equal iff a run of either
     * produces byte-identical artifacts — the service job queue
     * deduplicates concurrent submissions by this value, and it is the
     * natural ticket id for a submitted campaign.
     */
    uint64_t stableHash() const;

  private:
    std::string name_;
    std::vector<MachineEntry> machines_;
    std::vector<std::string> kernels_;
    /** Kernel specs to record and replay (see file comment). */
    std::vector<std::string> traces_;
    /** Kernel specs to phase-sample (see file comment). */
    std::vector<PhaseEntry> phases_;
    std::vector<Variant> variants_;
    /** Measurement planes; default {"sim"} (see addBackend). */
    std::vector<std::string> backends_ = {"sim"};
    /** Whether addBackend() replaced the implicit default yet. */
    bool backendsExplicit_ = false;
    /** Run wall budget in seconds; 0 = unlimited. */
    double timeoutSeconds_ = 0.0;
};

/** Parse the text format (see file comment); fatal() on errors,
 *  including any `machine = @file` line. */
CampaignSpec parseCampaignSpec(const std::string &text);

/** Load and parse a campaign file, resolving `machine = @file`
 *  against the file's directory; fatal() on errors. */
CampaignSpec loadCampaignSpec(const std::string &path);

/**
 * Parse a core-set string: "0", "0,2,5", "0-3" or combinations
 * ("0-1,4-5"); fatal() on malformed input.
 */
std::vector<int> parseCoreSet(const std::string &text);

/** @return canonical core-set rendering, e.g. "0,1,2,3". */
std::string formatCoreSet(const std::vector<int> &cores);

} // namespace rfl::campaign

#endif // RFL_CAMPAIGN_SPEC_HH
