#include "roofline/experiment.hh"

#include "kernels/registry.hh"
#include "support/address_arena.hh"

namespace rfl::roofline
{

Experiment::Experiment() : Experiment(sim::MachineConfig::defaultPlatform())
{
}

Experiment::Experiment(const sim::MachineConfig &config)
    : machine_(std::make_unique<sim::Machine>(config)),
      probe_(std::make_unique<PlatformProbe>(*machine_)),
      measurer_(std::make_unique<Measurer>(*machine_))
{
}

const RooflineModel &
Experiment::modelFor(const std::vector<int> &cores)
{
    for (const CachedModel &cm : models_)
        if (cm.cores == cores)
            return cm.model;
    models_.push_back({cores, probe_->characterize(cores)});
    return models_.back().model;
}

Measurement
Experiment::measureSpec(const std::string &spec,
                        const MeasureOptions &opts)
{
    // Scope the kernel's operands to a canonical simulated address
    // space so the measurement is reproducible across processes, heap
    // states and host threads (see support/address_arena.hh).
    AddressArena::Scope addresses;
    const std::unique_ptr<kernels::Kernel> kernel =
        kernels::createKernel(spec);
    return measurer_->measure(*kernel, opts);
}

} // namespace rfl::roofline
