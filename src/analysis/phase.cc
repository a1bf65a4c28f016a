#include "analysis/phase.hh"

#include <cmath>
#include <limits>

#include "kernels/engine.hh"
#include "kernels/registry.hh"
#include "support/address_arena.hh"
#include "support/logging.hh"

namespace rfl::analysis
{

namespace
{

double
intervalOi(double flops, double bytes)
{
    if (bytes <= 0.0)
        return std::numeric_limits<double>::infinity();
    return flops / bytes;
}

} // namespace

double
PhaseTrajectory::oi() const
{
    return intervalOi(totalFlops, totalTrafficBytes);
}

double
PhaseTrajectory::perf() const
{
    return totalSeconds > 0 ? totalFlops / totalSeconds : 0.0;
}

PhaseTrajectory
samplePhases(sim::Machine &machine, kernels::Kernel &kernel,
             const roofline::MeasureOptions &opts, uint64_t period)
{
    RFL_ASSERT(period > 0);
    RFL_ASSERT(!opts.cores.empty());
    using roofline::CacheProtocol;

    const int lanes = opts.lanes == 0
                          ? machine.config().core.maxVectorDoubles
                          : opts.lanes;
    const bool cold = opts.protocol == CacheProtocol::Cold;
    const int nparts = static_cast<int>(opts.cores.size());
    if (nparts > 1 && !kernel.parallelizable()) {
        fatal("phase sampling: kernel '%s' does not support multi-core "
              "execution",
              kernel.name().c_str());
    }

    machine.setDependentAccesses(kernel.dependentAccesses());
    kernel.setLlcHintBytes(machine.config().l3.sizeBytes);
    kernel.init(opts.seed);
    machine.reset();

    auto run_once = [&] {
        for (int part = 0; part < nparts; ++part) {
            kernels::SimEngine engine(
                machine, opts.cores[static_cast<size_t>(part)], lanes,
                opts.useFma);
            kernel.run(engine, part, nparts);
        }
    };

    if (!cold) {
        for (int i = 0; i < opts.warmupRuns; ++i)
            run_once();
    }
    if (cold)
        machine.flushAllCaches();

    machine.clearSamples();
    machine.setSamplePeriod(period);
    const sim::Machine::Snapshot start = machine.snapshot();

    run_once();
    if (cold && opts.flushAfter)
        machine.flushAllCaches(opts.cores);

    const sim::Machine::Snapshot end = machine.snapshot();
    machine.setSamplePeriod(0);

    PhaseTrajectory traj;
    traj.kernel = kernel.name();
    traj.sizeLabel = kernel.sizeLabel();
    traj.protocol = roofline::protocolName(opts.protocol);
    traj.period = period;

    const uint32_t line = machine.config().l1.lineBytes;
    const sim::Machine::Snapshot *prev = &start;
    auto push_interval = [&](const sim::Machine::Snapshot &s) {
        const sim::Machine::Snapshot d = s - *prev;
        PhasePoint p;
        p.flops = static_cast<double>(d.totalFlops());
        p.trafficBytes =
            static_cast<double>(d.totalImc().totalBytes(line));
        p.seconds = machine.regionSeconds(d);
        p.oi = intervalOi(p.flops, p.trafficBytes);
        p.perf = p.seconds > 0 ? p.flops / p.seconds : 0.0;
        // Skip all-zero intervals (a drain boundary can land exactly on
        // the region edge); real intervals always moved a counter.
        if (p.flops > 0 || p.trafficBytes > 0 || p.seconds > 0)
            traj.points.push_back(p);
        prev = &s;
    };
    for (const sim::Machine::Snapshot &s : machine.samples())
        push_interval(s);
    push_interval(end); // tail: last sample -> region end

    const sim::Machine::Snapshot total = end - start;
    traj.totalFlops = static_cast<double>(total.totalFlops());
    traj.totalTrafficBytes =
        static_cast<double>(total.totalImc().totalBytes(line));
    traj.totalSeconds = machine.regionSeconds(total);

    machine.clearSamples();
    machine.setDependentAccesses(false);
    return traj;
}

PhaseTrajectory
samplePhasesSpec(sim::Machine &machine, const std::string &spec,
                 const roofline::MeasureOptions &opts, uint64_t period)
{
    AddressArena::Scope addresses;
    const std::unique_ptr<kernels::Kernel> kernel =
        kernels::createKernel(spec);
    return samplePhases(machine, *kernel, opts, period);
}

} // namespace rfl::analysis
