#include "roofline/platform.hh"

#include "kernels/engine.hh"
#include "kernels/kernel.hh"
#include "support/address_arena.hh"
#include "support/logging.hh"

namespace rfl::roofline
{

const char *
bwProbeName(BwProbe probe)
{
    switch (probe) {
      case BwProbe::Read: return "read";
      case BwProbe::Copy: return "copy";
      case BwProbe::Scale: return "scale";
      case BwProbe::Triad: return "triad";
      case BwProbe::NtSet: return "nt-set";
    }
    return "?";
}

std::vector<BwProbe>
allBwProbes()
{
    return {BwProbe::Read, BwProbe::Copy, BwProbe::Scale, BwProbe::Triad,
            BwProbe::NtSet};
}

PlatformProbe::PlatformProbe(sim::Machine &machine)
    : machine_(machine), backend_(machine)
{
}

double
PlatformProbe::computePeak(const std::vector<int> &cores, int lanes,
                           bool fma)
{
    RFL_ASSERT(!cores.empty());
    const sim::CoreConfig &cc = machine_.config().core;
    if (lanes == 0)
        lanes = cc.maxVectorDoubles;
    fma = fma && cc.hasFma;

    machine_.reset();
    constexpr uint64_t iters = 4000;
    constexpr int accs = 8; // enough independent chains to fill the pipes

    backend_.begin();
    double sink = 0.0;
    for (int core : cores) {
        kernels::SimEngine e(machine_, core, lanes, fma);
        if (lanes == 1) {
            double acc[accs];
            for (double &a : acc)
                a = 0.0;
            for (uint64_t i = 0; i < iters; ++i)
                for (double &a : acc)
                    a = e.fmadd(a, 1.0000001, 1e-9);
            for (double a : acc)
                sink += a;
        } else {
            kernels::Vec acc[accs];
            for (kernels::Vec &a : acc)
                a = e.vbroadcast(0.0);
            const kernels::Vec x = e.vbroadcast(1.0000001);
            const kernels::Vec y = e.vbroadcast(1e-9);
            for (uint64_t i = 0; i < iters; ++i)
                for (kernels::Vec &a : acc)
                    a = e.vfmadd(a, x, y);
            for (kernels::Vec &a : acc)
                sink += a[0];
        }
        e.loop(iters);
    }
    const pmu::Counts counts = backend_.end();
    RFL_ASSERT(counts.seconds() > 0);
    (void)sink;
    return counts.flops() / counts.seconds();
}

BandwidthResult
PlatformProbe::bandwidthPeak(const std::vector<int> &cores, BwProbe probe,
                             size_t buf_doubles)
{
    RFL_ASSERT(!cores.empty());
    const sim::MachineConfig &cfg = machine_.config();
    if (buf_doubles == 0) {
        const uint64_t llc_total =
            cfg.l3.sizeBytes * static_cast<uint64_t>(cfg.sockets);
        buf_doubles = static_cast<size_t>(2 * llc_total / 8);
    }

    // The probes need an address stream, not data: a, b and c are
    // canonical simulated regions with no host memory behind them
    // (support/address_arena.hh). Their order and sizes are fixed: a
    // even for read, which touches only b; no b for nt-set; c only for
    // triad. Each region's base is part of the stream the ceiling
    // values depend on, and test_probe_golden pins those values.
    const size_t bytes = buf_doubles * sizeof(double);
    AddressArena addresses;
    const uint64_t a = addresses.reserveRegion(bytes);
    const uint64_t b =
        probe == BwProbe::NtSet ? 0 : addresses.reserveRegion(bytes);
    const uint64_t c =
        probe == BwProbe::Triad ? addresses.reserveRegion(bytes) : 0;

    machine_.reset();
    machine_.flushAllCaches();
    machine_.resetStats();

    const int nparts = static_cast<int>(cores.size());

    backend_.begin();
    for (int part = 0; part < nparts; ++part) {
        kernels::SimEngine e(machine_, cores[static_cast<size_t>(part)],
                             cfg.core.maxVectorDoubles, true);
        const auto [lo, hi] =
            kernels::partitionRange(buf_doubles, part, nparts);
        const size_t w = static_cast<size_t>(e.lanes());
        const uint32_t vec = static_cast<uint32_t>(w * sizeof(double));
        // Each step retires what a vload/vstore kernel body would: the
        // same memory records, and the FP op on register values.
        const kernels::Vec vs = e.vbroadcast(1.5);
        kernels::Vec acc = e.vbroadcast(0.0);
        for (size_t i = lo; i + w <= hi; i += w) {
            const uint64_t off = i * sizeof(double);
            switch (probe) {
              case BwProbe::Read:
                e.loadAt(b + off, vec);
                acc = e.vadd(acc, vs);
                break;
              case BwProbe::Copy:
                e.loadAt(b + off, vec);
                e.storeAt(a + off, vec);
                break;
              case BwProbe::Scale:
                e.loadAt(b + off, vec);
                e.vmul(vs, vs);
                e.storeAt(a + off, vec);
                break;
              case BwProbe::Triad:
                e.loadAt(b + off, vec);
                e.loadAt(c + off, vec);
                e.vfmadd(vs, vs, vs);
                e.storeAt(a + off, vec);
                break;
              case BwProbe::NtSet:
                e.storeNTAt(a + off, vec);
                break;
            }
        }
        e.vreduce(acc);
        e.loop((hi - lo) / w);
    }
    machine_.flushAllCaches(cores); // charge trailing writebacks
    const pmu::Counts counts = backend_.end();

    double useful_per_elem = 8.0;
    switch (probe) {
      case BwProbe::Read: useful_per_elem = 8.0; break;
      case BwProbe::Copy: useful_per_elem = 16.0; break;
      case BwProbe::Scale: useful_per_elem = 16.0; break;
      case BwProbe::Triad: useful_per_elem = 24.0; break;
      case BwProbe::NtSet: useful_per_elem = 8.0; break;
    }

    BandwidthResult r;
    r.probe = probe;
    RFL_ASSERT(counts.seconds() > 0);
    r.bytesPerSec =
        counts.trafficBytes(cfg.l1.lineBytes) / counts.seconds();
    r.usefulBytesPerSec =
        useful_per_elem * static_cast<double>(buf_doubles) /
        counts.seconds();
    return r;
}

double
PlatformProbe::measurePart(const std::vector<int> &cores,
                           const CeilingPart &part)
{
    if (part.compute)
        return computePeak(cores, part.lanes, part.fma);
    return bandwidthPeak(cores, part.probe).bytesPerSec;
}

RooflineModel
PlatformProbe::characterize(const std::vector<int> &cores)
{
    const std::vector<CeilingPart> parts =
        ceilingParts(machine_.config().core);
    std::vector<double> values;
    values.reserve(parts.size());
    for (const CeilingPart &part : parts)
        values.push_back(measurePart(cores, part));
    return assembleCeilings(parts, values);
}

std::vector<CeilingPart>
ceilingParts(const sim::CoreConfig &core)
{
    auto width_name = [](int lanes) -> std::string {
        switch (lanes) {
          case 1: return "scalar";
          case 2: return "SSE";
          case 4: return "AVX";
          case 8: return "AVX-512";
        }
        return std::string("w").append(std::to_string(lanes));
    };

    std::vector<CeilingPart> parts;
    std::vector<int> widths = {1};
    if (core.maxVectorDoubles > 1)
        widths.push_back(core.maxVectorDoubles);
    for (int lanes : widths) {
        parts.push_back({true, lanes, false, BwProbe::Read,
                         width_name(lanes)});
        if (core.hasFma) {
            parts.push_back({true, lanes, true, BwProbe::Read,
                             width_name(lanes) + "+FMA"});
        }
    }
    for (BwProbe probe : allBwProbes())
        parts.push_back({false, 1, false, probe, bwProbeName(probe)});
    return parts;
}

RooflineModel
assembleCeilings(const std::vector<CeilingPart> &parts,
                 const std::vector<double> &values)
{
    RFL_ASSERT(parts.size() == values.size());
    RooflineModel model;
    const CeilingPart *best = nullptr;
    double bestValue = 0.0;
    for (size_t i = 0; i < parts.size(); ++i) {
        const CeilingPart &part = parts[i];
        if (part.compute) {
            model.addComputeCeiling(part.name, values[i]);
            continue;
        }
        if (part.probe == BwProbe::Read)
            model.addBandwidthCeiling(part.name, values[i]);
        if (values[i] > bestValue) {
            best = &part;
            bestValue = values[i];
        }
    }
    if (best && best->probe != BwProbe::Read)
        model.addBandwidthCeiling(best->name, bestValue);
    return model;
}

std::vector<int>
singleThreadCores(const sim::Machine &machine)
{
    (void)machine;
    return {0};
}

std::vector<int>
oneSocketCores(const sim::Machine &machine)
{
    std::vector<int> cores;
    for (int c = 0; c < machine.config().coresPerSocket; ++c)
        cores.push_back(c);
    return cores;
}

std::vector<int>
allCores(const sim::Machine &machine)
{
    std::vector<int> cores;
    for (int c = 0; c < machine.numCores(); ++c)
        cores.push_back(c);
    return cores;
}

std::string
scenarioName(const sim::Machine &machine, const std::vector<int> &cores)
{
    if (cores.size() == 1)
        return "single core";
    if (cores.size() ==
        static_cast<size_t>(machine.config().coresPerSocket)) {
        bool same_socket = true;
        for (int c : cores)
            same_socket &= machine.socketOf(c) == machine.socketOf(
                                                      cores.front());
        if (same_socket)
            return "single socket";
    }
    if (cores.size() == static_cast<size_t>(machine.numCores()))
        return std::to_string(machine.numSockets()) + " sockets";
    return std::to_string(cores.size()) + " cores";
}

} // namespace rfl::roofline
