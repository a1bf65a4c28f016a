/**
 * @file
 * F10 (extension) — stride sweep: where the roofline needs footnotes.
 *
 * The strided-sum kernel is swept across strides at constant element
 * count. Three regimes appear, matching the paper lineage's discussion
 * of prefetcher- and TLB-limited kernels:
 *   stride <= 4 lines: the streamer tracks the pattern, points sit on
 *                      the bandwidth roof;
 *   larger strides:    prefetch coverage collapses, DRAM latency is
 *                      exposed, points fall below the roof at the SAME
 *                      intensity — un-explainable by the roofline alone;
 *   stride >= page:    DTLB walks stack on top.
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

    rfl::bench::banner("F10", "stride sweep: prefetch and TLB regimes");

    Experiment exp;
    const RooflineModel &model = exp.modelFor({0});

    // Strides in doubles: 8 = one line, 512 = one page.
    const std::vector<size_t> strides = {1, 8, 16, 32, 64,
                                         128, 512, 1024};
    const size_t touches = 1 << 17;

    Table t({"stride [dbl]", "Q", "eff. BW [GB/s]", "P [Mflop/s]",
             "pf reads %", "TLB walks", "RC %"});
    RooflinePlot plot("strided-sum stride sweep, single core", model);

    for (size_t stride : strides) {
        const std::string spec = "strided-sum:n=" +
                                 std::to_string(touches) +
                                 ",stride=" + std::to_string(stride);
        // The raw counters and machine stats also give the prefetch
        // share and TLB walks, which Measurement does not carry.
        const rfl::bench::KernelCounts run =
            rfl::bench::instrumentedRun(exp.machine(), spec);
        const pmu::Counts &c = run.counts;
        const Measurement &m = run.m;
        const auto delta_walks = exp.machine().tlb(0).stats().walks;

        plot.addPoint("stride=" + std::to_string(stride), m.oi(),
                      m.perf());

        const double pf_share =
            100.0 *
            static_cast<double>(c.get(pmu::EventId::ImcPrefetchReads)) /
            static_cast<double>(c.get(pmu::EventId::ImcCasReads));
        const double rc = 100.0 * m.perf() / model.attainable(m.oi());
        t.addRow({std::to_string(stride), formatBytes(m.trafficBytes),
                  formatSig(m.trafficBytes / m.seconds / 1e9, 4),
                  formatSig(m.perf() / 1e6, 4), formatSig(pf_share, 3),
                  std::to_string(delta_walks), formatSig(rc, 3)});
    }

    t.print(std::cout);
    std::printf(
        "\nreading: prefetch coverage (pf reads %%) collapses once the\n"
        "stride exceeds the streamer's window; runtime-compute %% falls\n"
        "with it although intensity is constant from stride >= 8 — the\n"
        "latency wall the roofline cannot draw. Page strides add TLB\n"
        "walks on top.\n\n");
    rfl::bench::emitPlot(plot, "fig_stride");
    return 0;
}
