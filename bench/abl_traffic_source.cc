/**
 * @file
 * A2 (ablation) — where should Q be measured?
 *
 * The paper's methodological pivot: it first tried LLC-miss-based
 * traffic counting, found it under-reports in the presence of hardware
 * prefetching, and settled on the IMC CAS counters. This ablation
 * reproduces that decision quantitatively across three candidate
 * traffic sources:
 *   (a) L2 demand misses x 64 B  (core-side, one level up)
 *   (b) L3 demand misses x 64 B  (core-side, what [13] first tried)
 *   (c) IMC CAS reads+writes x 64 B (uncore; the paper's final choice)
 * against the analytic model, with the prefetcher on and off.
 */

#include <cstdio>
#include <iostream>

#include "bench_common.hh"
#include "support/table.hh"
#include "support/units.hh"

int
main()
{
    using namespace rfl;
    using namespace rfl::roofline;

    rfl::bench::banner("A2", "ablation: traffic-measurement source");

    Experiment exp;

    const std::vector<std::string> specs = {
        "daxpy:n=1048576",
        "stencil3:n=1048576",
        "fft:n=262144",
    };

    Table t({"kernel", "pf", "model", "L2-miss est.", "L3-miss est.",
             "IMC", "IMC err %"});

    for (const std::string &spec : specs) {
        for (bool pf : {false, true}) {
            exp.machine().setPrefetchEnabled(pf);
            const rfl::bench::KernelCounts run =
                rfl::bench::instrumentedRun(exp.machine(), spec);
            const pmu::Counts &c = run.counts;

            const double model = run.m.expectedTrafficBytes;
            const double l2est =
                64.0 * static_cast<double>(c.get(pmu::EventId::L2Misses));
            const double l3est =
                64.0 * static_cast<double>(c.get(pmu::EventId::L3Misses));
            const double imc = c.trafficBytes(64);
            t.addRow({run.m.kernel, pf ? "on" : "off",
                      formatBytes(model), formatBytes(l2est),
                      formatBytes(l3est), formatBytes(imc),
                      formatSig(100.0 * relativeError(imc, model), 3)});
        }
    }
    exp.machine().setPrefetchEnabled(true);

    t.print(std::cout);
    std::printf(
        "\nconclusions: with prefetching off all three sources agree\n"
        "with the model (writes aside); with prefetching on the\n"
        "core-side miss estimates collapse (prefetched lines never\n"
        "demand-miss) while the IMC keeps matching — the reason the\n"
        "methodology reads Q at the memory controller.\n");
    return 0;
}
