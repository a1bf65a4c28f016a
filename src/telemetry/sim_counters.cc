#include "telemetry/sim_counters.hh"

#include <mutex>

namespace rfl::telemetry
{

std::atomic<bool> g_simTelemetryEnabled{false};

SimCounters &
simCounters()
{
    static SimCounters counters;
    return counters;
}

void
setSimTelemetryEnabled(bool enabled)
{
    g_simTelemetryEnabled.store(enabled, std::memory_order_relaxed);
}

Registry::CollectorHandle
registerSimCollector(Registry &registry)
{
    Counter &drains = registry.counter(
        "rfl_sim_drains_total",
        "observation-point drains of attached batch sources");
    Counter &drainBatches = registry.counter(
        "rfl_sim_batches_total",
        "access-stream batches consumed by flush cause",
        {{"cause", "drain"}});
    Counter &capacityBatches = registry.counter(
        "rfl_sim_batches_total",
        "access-stream batches consumed by flush cause",
        {{"cause", "capacity"}});
    Counter &records = registry.counter(
        "rfl_sim_records_total",
        "access-stream records consumed by simulateBatch");
    Counter &runs = registry.counter(
        "rfl_sim_coalesced_runs_total",
        "same-line runs collapsed into bulk counter updates");
    Counter &runRecords = registry.counter(
        "rfl_sim_coalesced_records_total",
        "records retired inside coalesced runs");
    return registry.addCollector([&] {
        const SimCounters &sc = simCounters();
        drains.mirror(sc.drains.load(std::memory_order_relaxed));
        drainBatches.mirror(
            sc.drainFlushBatches.load(std::memory_order_relaxed));
        capacityBatches.mirror(
            sc.capacityFlushBatches.load(std::memory_order_relaxed));
        records.mirror(sc.records.load(std::memory_order_relaxed));
        runs.mirror(sc.coalescedRuns.load(std::memory_order_relaxed));
        runRecords.mirror(
            sc.coalescedRecords.load(std::memory_order_relaxed));
    });
}

void
ensureGlobalSimCollector()
{
    // The handle is intentionally leaked: the global registry and the
    // global counters both live forever, so the collector can too.
    static std::once_flag once;
    std::call_once(once, [] {
        static Registry::CollectorHandle handle =
            registerSimCollector(Registry::global());
    });
}

} // namespace rfl::telemetry
