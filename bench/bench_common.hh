/**
 * @file
 * Shared scaffolding for the bench programs that measure outside the
 * campaign grid.
 *
 * Most figures and tables of Ofenbeck et al., "Applying the Roofline
 * Model" (ISPASS 2014) are spec files run by bench/reproduce. The
 * programs that include this header read counters a campaign row does
 * not carry (DESIGN.md §4 says which and why). They run standalone with
 * no arguments, print their tables to stdout, and write .dat/.gp
 * artifacts to the output directory ($RFL_OUT_DIR or ./out).
 */

#ifndef RFL_BENCH_COMMON_HH
#define RFL_BENCH_COMMON_HH

#include <cstdio>
#include <iostream>
#include <string>

#include "kernels/engine.hh"
#include "kernels/registry.hh"
#include "pmu/sim_backend.hh"
#include "roofline/experiment.hh"
#include "roofline/plot.hh"
#include "support/address_arena.hh"
#include "support/cli.hh"

namespace rfl::bench
{

/** Print the standard experiment banner. */
inline void
banner(const char *id, const char *what)
{
    std::printf("==============================================================\n");
    std::printf("%s — %s\n", id, what);
    std::printf("reproduces: Ofenbeck et al., \"Applying the Roofline "
                "Model\", ISPASS 2014\n");
    std::printf("==============================================================\n\n");
}

/** One instrumented run: its measurement and every raw counter. */
struct KernelCounts
{
    /** Labels, analytic Q, and the run's W, Q (IMC) and T. */
    roofline::Measurement m;
    pmu::Counts counts;
};

/**
 * Run @p spec once from cold caches on core 0 of @p machine (4 lanes,
 * FMA) and return every counter of the region, closing flush included:
 * L2/L3 demand misses and IMC prefetch reads too, which a Measurement
 * drops. The machine's own statistics (e.g. TLB walks) stay readable
 * afterwards. The operands live in a fresh AddressArena scope, so the
 * counters do not depend on the host heap layout (DESIGN.md §5).
 */
inline KernelCounts
instrumentedRun(sim::Machine &machine, const std::string &spec)
{
    AddressArena::Scope addresses;
    const std::unique_ptr<kernels::Kernel> kernel =
        kernels::createKernel(spec);
    kernel->setLlcHintBytes(machine.config().l3.sizeBytes);
    kernel->init(42);
    machine.reset();
    machine.flushAllCaches();
    pmu::SimBackend backend(machine);
    backend.begin();
    kernels::SimEngine e(machine, 0, 4, true);
    kernel->run(e, 0, 1);
    machine.flushAllCaches({0});

    KernelCounts run;
    run.counts = backend.end();
    run.m.kernel = kernel->name();
    run.m.sizeLabel = kernel->sizeLabel();
    run.m.protocol = "cold";
    run.m.expectedTrafficBytes = kernel->expectedColdTrafficBytes();
    run.m.flops = run.counts.flops();
    run.m.trafficBytes = run.counts.trafficBytes(64);
    run.m.seconds = run.counts.seconds();
    return run;
}

/** Print @p plot (ASCII + point table) and write its .dat/.gp as
 *  @p name under the output directory. */
inline void
emitPlot(const roofline::RooflinePlot &plot, const std::string &name)
{
    std::cout << plot.renderAscii() << "\n";
    plot.pointTable().print(std::cout);
    std::cout << "\nwrote "
              << plot.writeGnuplot(outputDirectory(), name) << "\n";
}

} // namespace rfl::bench

#endif // RFL_BENCH_COMMON_HH
