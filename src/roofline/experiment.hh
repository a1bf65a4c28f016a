/**
 * @file
 * Experiment: one simulated machine with its ceiling probe and
 * measurer.
 *
 * Examples and the bench programs that read counters a campaign row
 * does not carry use it directly; a campaign Measure job measures the
 * way measureSpec does, on the machine of its scenario. Ceilings are
 * characterized once per core set and cached in the instance.
 */

#ifndef RFL_ROOFLINE_EXPERIMENT_HH
#define RFL_ROOFLINE_EXPERIMENT_HH

#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "roofline/measurement.hh"
#include "roofline/model.hh"
#include "roofline/platform.hh"
#include "sim/machine.hh"

namespace rfl::roofline
{

/** A machine + probe + measurer with scenario helpers. */
class Experiment
{
  public:
    /** Build around the default simulated platform. */
    Experiment();

    /** Build around a specific machine configuration. */
    explicit Experiment(const sim::MachineConfig &config);

    sim::Machine &machine() { return *machine_; }
    PlatformProbe &probe() { return *probe_; }
    Measurer &measurer() { return *measurer_; }

    /** Configuration the machine was built from. */
    const sim::MachineConfig &config() const { return machine_->config(); }

    /**
     * Ceilings for a core set (characterized once, then cached in this
     * instance; Experiments share no state, so independent instances can
     * run on concurrent host threads).
     */
    const RooflineModel &modelFor(const std::vector<int> &cores);

    /**
     * Measure one kernel spec (see kernels/registry.hh) under @p opts.
     */
    Measurement measureSpec(const std::string &spec,
                            const MeasureOptions &opts = {});

  private:
    struct CachedModel
    {
        std::vector<int> cores;
        RooflineModel model;
    };

    std::unique_ptr<sim::Machine> machine_;
    std::unique_ptr<PlatformProbe> probe_;
    std::unique_ptr<Measurer> measurer_;
    /**
     * Deque, not vector: modelFor() hands out references to cached
     * models, and growing a vector would invalidate every reference
     * returned earlier (use-after-free for callers holding one across
     * a later characterization).
     */
    std::deque<CachedModel> models_;
};

} // namespace rfl::roofline

#endif // RFL_ROOFLINE_EXPERIMENT_HH
