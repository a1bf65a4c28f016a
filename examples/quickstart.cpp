/**
 * @file
 * Quickstart: measure one kernel and draw its roofline.
 *
 * Demonstrates the five-line happy path of the library:
 *   1. build an Experiment (simulated platform + probe + measurer),
 *   2. characterize the machine's ceilings for a scenario,
 *   3. measure a kernel (work W from FP counters, traffic Q from the
 *      IMC, runtime T from the timing model, overhead-subtracted),
 *   4. place the point on the roofline,
 *   5. render.
 */

#include <iostream>
#include <memory>

#include "kernels/daxpy.hh"
#include "kernels/dgemm.hh"
#include "roofline/experiment.hh"
#include "roofline/plot.hh"
#include "support/cli.hh"
#include "support/units.hh"

int
main()
{
    using namespace rfl;
    using namespace rfl::roofline;

    Experiment exp; // default 2-socket simulated platform

    // Scenario: the paper's single-thread case.
    const std::vector<int> cores = singleThreadCores(exp.machine());
    const RooflineModel &model = exp.modelFor(cores);

    std::cout << "platform: " << exp.machine().config().name << "\n";
    std::cout << "peak compute:   " << formatFlopRate(model.peakCompute())
              << "\n";
    std::cout << "peak bandwidth: "
              << formatByteRate(model.peakBandwidth()) << "\n";
    std::cout << "ridge point:    " << formatSig(model.ridgePoint(), 3)
              << " flops/byte\n\n";

    // Measure a memory-bound and a compute-bound kernel, cold caches.
    MeasureOptions opts;
    opts.cores = cores;

    kernels::Daxpy daxpy(1 << 20);
    const Measurement m1 = exp.measurer().measure(daxpy, opts);

    kernels::DgemmBlocked dgemm(192);
    const Measurement m2 = exp.measurer().measure(dgemm, opts);

    RooflinePlot plot("quickstart: daxpy vs dgemm (" +
                          scenarioName(exp.machine(), cores) + ")",
                      model);
    plot.addMeasurement(m1);
    plot.addMeasurement(m2);

    std::cout << plot.renderAscii() << "\n";
    plot.pointTable().print(std::cout);
    std::cout << "\nwrote "
              << plot.writeGnuplot(outputDirectory(), "quickstart")
              << "\n";

    std::cout << "daxpy measured W = " << formatFlops(m1.flops)
              << " (expected " << formatFlops(m1.expectedFlops) << ")\n";
    std::cout << "daxpy measured Q = " << formatBytes(m1.trafficBytes)
              << " (expected " << formatBytes(m1.expectedTrafficBytes)
              << ")\n";
    return 0;
}
