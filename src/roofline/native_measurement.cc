#include "roofline/native_measurement.hh"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <thread>
#include <vector>

#include "support/logging.hh"

namespace rfl::roofline
{

namespace
{

double
nowSeconds()
{
    using clock = std::chrono::steady_clock;
    return std::chrono::duration<double>(clock::now().time_since_epoch())
        .count();
}

} // namespace

NativeMeasurer::NativeMeasurer()
{
    if (pmu::PerfEventBackend::available())
        perf_ = std::make_unique<pmu::PerfEventBackend>();
}

NativeMeasurer::~NativeMeasurer() = default;

void
NativeMeasurer::evictCaches(size_t bytes)
{
    const size_t doubles = bytes / 8;
    if (evictBuffer_.size() < doubles)
        evictBuffer_.reset(doubles);
    // Write (not just read) so dirty kernel lines are displaced too.
    volatile double sink = 0.0;
    for (size_t i = 0; i < doubles; i += 8) {
        evictBuffer_[i] += 1.0;
        sink = evictBuffer_[i];
    }
    (void)sink;
}

void
NativeMeasurer::runOnce(kernels::Kernel &kernel,
                        const NativeMeasureOptions &opts,
                        sim::CoreCounters &total)
{
    const int nparts = opts.threads;
    if (nparts == 1) {
        kernels::NativeEngine engine(opts.lanes, opts.useFma);
        kernel.run(engine, 0, 1);
        total = engine.counters();
        return;
    }
    std::vector<sim::CoreCounters> parts(static_cast<size_t>(nparts));
    std::vector<std::thread> threads;
    threads.reserve(static_cast<size_t>(nparts));
    for (int p = 0; p < nparts; ++p) {
        threads.emplace_back([&, p]() {
            kernels::NativeEngine engine(opts.lanes, opts.useFma);
            kernel.run(engine, p, nparts);
            parts[static_cast<size_t>(p)] = engine.counters();
        });
    }
    for (std::thread &t : threads)
        t.join();
    total = sim::CoreCounters{};
    for (const sim::CoreCounters &c : parts)
        total += c;
}

NativeMeasurement
NativeMeasurer::measure(kernels::Kernel &kernel,
                        const NativeMeasureOptions &opts)
{
    RFL_ASSERT(opts.repetitions >= 1);
    RFL_ASSERT(opts.threads >= 1);
    if (opts.threads > 1 && !kernel.parallelizable()) {
        fatal("kernel '%s' does not support multi-threaded execution",
              kernel.name().c_str());
    }

    const bool cold = opts.protocol == CacheProtocol::Cold;
    kernel.setLlcHintBytes(opts.llcBytes);

    NativeMeasurement nm;
    Measurement &m = nm.base;
    m.backend = "perf";
    m.kernel = kernel.name();
    m.sizeLabel = kernel.sizeLabel();
    m.protocol = protocolName(opts.protocol);
    m.cores = opts.threads;
    m.lanes = opts.lanes;
    m.expectedFlops = kernel.expectedFlops();
    m.expectedTrafficBytes =
        cold ? kernel.expectedColdTrafficBytes()
             : kernel.expectedWarmTrafficBytes(opts.llcBytes);

    kernel.init(opts.seed);
    if (!cold) {
        sim::CoreCounters ignore;
        for (int i = 0; i < opts.warmupRuns; ++i)
            runOnce(kernel, opts, ignore);
    }

    const bool use_perf = opts.usePerf && perf_ != nullptr;
    Sample perf_cycles, perf_llc;

    for (int rep = 0; rep < opts.repetitions; ++rep) {
        if (cold)
            evictCaches(opts.flushBufferBytes);

        sim::CoreCounters counters;
        if (use_perf)
            perf_->begin();
        const double t0 = nowSeconds();
        runOnce(kernel, opts, counters);
        const double t1 = nowSeconds();
        if (use_perf) {
            const pmu::Counts pc = perf_->end();
            // The row's quality is the worst multiplex fraction any
            // contributing counter saw across all repetitions.
            m.quality = std::min(m.quality, pc.minQuality());
            if (pc.supported(pmu::EventId::Cycles)) {
                perf_cycles.add(
                    static_cast<double>(pc.get(pmu::EventId::Cycles)));
            }
            if (pc.supported(pmu::EventId::L3Misses)) {
                perf_llc.add(64.0 * static_cast<double>(
                                        pc.get(pmu::EventId::L3Misses)));
            }
        }

        m.secondsSample.add(t1 - t0);
        m.flopsSample.add(static_cast<double>(counters.flops()));
    }

    m.flops = m.flopsSample.median();
    m.seconds = m.secondsSample.median();
    // Q is the analytic model on the native path (see file comment).
    m.trafficBytes = std::isnan(m.expectedTrafficBytes)
                         ? 0.0
                         : m.expectedTrafficBytes;
    for (size_t i = 0; i < m.secondsSample.count(); ++i)
        m.trafficSample.add(m.trafficBytes);

    nm.perfLive = use_perf && !perf_cycles.empty();
    if (nm.perfLive) {
        nm.perfCycles = static_cast<uint64_t>(perf_cycles.median());
        nm.perfLlcBytes = perf_llc.median();
    }
    return nm;
}

} // namespace rfl::roofline
