/**
 * @file
 * Example: comparing platforms with rooflines.
 *
 * One of the four roofline uses the paper lists is platform comparison.
 * This example characterizes three machine configurations — a scalar
 * single-core box, the default AVX 2-socket platform, and a widened
 * AVX-512 variant with faster memory — and shows how the same two
 * kernels land on each machine's roofline: the memory-bound kernel
 * follows the bandwidth differences, the compute-bound kernel follows
 * the SIMD width.
 */

#include <cstdio>
#include <iostream>

#include "roofline/experiment.hh"
#include "roofline/plot.hh"
#include "support/table.hh"
#include "support/units.hh"

namespace
{

rfl::sim::MachineConfig
avx512Platform()
{
    using namespace rfl::sim;
    MachineConfig cfg = MachineConfig::defaultPlatform();
    cfg.name = "sim-xeon-avx512";
    cfg.core.maxVectorDoubles = 8;
    cfg.socketDramGBs = 76.8;
    cfg.perCoreDramGBs = 20.0;
    cfg.l3.sizeBytes = 20 * 1024 * 1024;
    cfg.validate();
    return cfg;
}

} // namespace

int
main()
{
    using namespace rfl;
    using namespace rfl::roofline;

    const sim::MachineConfig configs[] = {
        sim::MachineConfig::scalarMachine(),
        sim::MachineConfig::defaultPlatform(),
        avx512Platform(),
    };

    Table t({"platform", "peak pi", "peak beta", "ridge",
             "daxpy P [GF/s]", "dgemm P [GF/s]", "dgemm RC %"});

    for (const sim::MachineConfig &cfg : configs) {
        Experiment exp(cfg);
        const std::vector<int> cores = singleThreadCores(exp.machine());
        const RooflineModel &model = exp.modelFor(cores);

        MeasureOptions opts;
        opts.cores = cores;
        opts.repetitions = 1;
        const Measurement daxpy =
            exp.measureSpec("daxpy:n=1048576", opts);
        const Measurement dgemm = exp.measureSpec("dgemm-opt:n=192", opts);

        t.addRow({cfg.name, formatFlopRate(model.peakCompute()),
                  formatByteRate(model.peakBandwidth()),
                  formatSig(model.ridgePoint(), 3),
                  formatSig(daxpy.perf() / 1e9, 4),
                  formatSig(dgemm.perf() / 1e9, 4),
                  formatSig(100.0 * dgemm.perf() /
                                model.attainable(dgemm.oi()),
                            3)});

        RooflinePlot plot(cfg.name + " (single core)", model);
        plot.addMeasurement(daxpy);
        plot.addMeasurement(dgemm);
        std::cout << plot.renderAscii() << "\n";
    }

    std::printf("cross-platform summary (single core each):\n");
    t.print(std::cout);
    std::printf(
        "\nreading: daxpy scales with memory bandwidth across machines\n"
        "while dgemm scales with SIMD width — the roofline separates\n"
        "the two effects without profiling detail.\n");
    return 0;
}
