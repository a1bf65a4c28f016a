/**
 * @file
 * Pins every bandwidth probe's two results to exact doubles, and the
 * load, store and other uops it leaves in the machine's counters (the
 * bandwidths do not see the probes' loop() uop count; these do).
 *
 * The probes' values depend only on the simulated address stream they
 * emit (record kinds, addresses, widths, order) and the machine model.
 * `PlatformParts.*` compares the probes with themselves; this table
 * fails when the stream's effect on any value changes, and a TLB check
 * pins where the probes' regions sit. The values were measured with
 * probes that streamed through real host buffers, so they also pin
 * that emitting simulated addresses directly changed nothing. Update
 * them only with a deliberate change of the probes or of the
 * simulator, and record it with the change.
 */

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "kernels/kernel.hh"
#include "roofline/platform.hh"
#include "sim/machine.hh"
#include "support/address_arena.hh"

namespace
{

using namespace rfl;
using namespace rfl::roofline;

struct Pinned
{
    const char *machine;
    int cores; ///< cores 0 .. cores-1
    BwProbe probe;
    double bytesPerSec;
    double usefulBytesPerSec;
    /** Post-probe uop counts summed over every core: the loads, stores
     *  and loop overhead the probe retired. */
    uint64_t loadUops;
    uint64_t storeUops;
    uint64_t otherUops;
};

// clang-format off
const Pinned kPinned[] = {
    {"default", 1, BwProbe::Read, 13241280991.8232, 13241119357.065422,
     1310720, 0, 2621440},
    {"default", 1, BwProbe::Copy, 13484879834.491909, 8989846730.1012955,
     1310720, 1310720, 2621440},
    {"default", 1, BwProbe::Scale, 13484879834.491909, 8989846730.1012955,
     1310720, 1310720, 2621440},
    {"default", 1, BwProbe::Triad, 13423143507.693062, 10067265462.201721,
     2621440, 1310720, 2621440},
    {"default", 1, BwProbe::NtSet, 14000000000, 14000000000,
     0, 1310720, 2621440},
    {"default", 4, BwProbe::Read, 38400000000, 38399531255.721977,
     1310720, 0, 2621440},
    {"default", 4, BwProbe::Copy, 38400000000, 25599791668.362072,
     1310720, 1310720, 2621440},
    {"default", 4, BwProbe::Scale, 38400000000, 25599791668.362072,
     1310720, 1310720, 2621440},
    {"default", 4, BwProbe::Triad, 38399999999.999992, 28799736330.53896,
     2621440, 1310720, 2621440},
    {"default", 4, BwProbe::NtSet, 38400000000, 38400000000,
     0, 1310720, 2621440},
    {"default", 8, BwProbe::Read, 76800000000, 76798125045.775238,
     1310720, 0, 2621440},
    {"default", 8, BwProbe::Copy, 76799999999.999985, 51199166680.229805,
     1310720, 1310720, 2621440},
    {"default", 8, BwProbe::Scale, 76799999999.999985, 51199166680.229805,
     1310720, 1310720, 2621440},
    {"default", 8, BwProbe::Triad, 76799999999.999985, 57598945331.811546,
     2621440, 1310720, 2621440},
    {"default", 8, BwProbe::NtSet, 76800000000, 76800000000,
     0, 1310720, 2621440},
    {"small", 1, BwProbe::Read, 13018597997.138769, 12818311874.105865,
     1024, 0, 2048},
    {"small", 1, BwProbe::Copy, 13326790971.540726, 8792934249.2639847,
     1024, 1024, 2048},
    {"small", 1, BwProbe::Scale, 13326790971.540726, 8792934249.2639847,
     1024, 1024, 2048},
    {"small", 1, BwProbe::Triad, 11956774510.873253, 8850894288.530756,
     2048, 1024, 2048},
    {"small", 1, BwProbe::NtSet, 14000000000, 14000000000,
     0, 1024, 2048},
    {"small", 2, BwProbe::Read, 25230907862.131107, 24842740048.86755,
     1024, 0, 2048},
    {"small", 2, BwProbe::Copy, 25454843660.305298, 16794948394.428238,
     1024, 1024, 2048},
    {"small", 2, BwProbe::Scale, 25454843660.305298, 16794948394.428238,
     1024, 1024, 2048},
    {"small", 2, BwProbe::Triad, 23731624329.612244, 17567120467.606941,
     2048, 1024, 2048},
    {"small", 2, BwProbe::NtSet, 28000000000, 28000000000,
     0, 1024, 2048},
    {"scalar", 1, BwProbe::Read, 13241101146.489065, 13240777885.310225,
     2621440, 0, 5242880},
    {"scalar", 1, BwProbe::Copy, 13484753465.189243, 8989689326.9014397,
     2621440, 2621440, 5242880},
    {"scalar", 1, BwProbe::Scale, 13484753465.189243, 8989689326.9014397,
     2621440, 2621440, 5242880},
    {"scalar", 1, BwProbe::Triad, 13423003204.016516, 10067068069.490606,
     5242880, 2621440, 5242880},
    {"scalar", 1, BwProbe::NtSet, 14000000000, 14000000000,
     0, 2621440, 5242880},
};
// clang-format on

sim::MachineConfig
configNamed(const std::string &name)
{
    if (name == "default")
        return sim::MachineConfig::defaultPlatform();
    if (name == "small")
        return sim::MachineConfig::smallTestMachine();
    return sim::MachineConfig::scalarMachine();
}

/**
 * Where the probe's regions sit. bandwidthPeak reserves a, then b
 * (except for nt-set), then c (triad only), each at the next
 * AddressArena region from baseAddress, whichever of them the probe
 * touches. The probe's last flush empties the caches but not the TLBs,
 * so each core's L1 DTLB still holds the last page its part touched in
 * every region it loads from or stores to normally (nt-set's stores
 * bypass the TLB). A layout with a region missing or moved fails here,
 * even where the pinned values cannot see it.
 */
void
expectLastPagesInTlb(const sim::Machine &machine, const Pinned &row)
{
    const sim::MachineConfig &cfg = machine.config();
    const size_t doubles = static_cast<size_t>(
        2 * cfg.l3.sizeBytes * static_cast<uint64_t>(cfg.sockets) / 8);
    const uint64_t stride =
        (doubles * 8 + AddressArena::regionAlign - 1) /
        AddressArena::regionAlign * AddressArena::regionAlign;
    const uint64_t a = AddressArena::baseAddress;
    const uint64_t b = a + stride;
    const uint64_t c = b + stride;
    std::vector<uint64_t> touched;
    switch (row.probe) {
      case BwProbe::Read: touched = {b}; break;
      case BwProbe::Copy:
      case BwProbe::Scale: touched = {a, b}; break;
      case BwProbe::Triad: touched = {a, b, c}; break;
      case BwProbe::NtSet: break;
    }
    const size_t w = static_cast<size_t>(cfg.core.maxVectorDoubles);
    for (int part = 0; part < row.cores; ++part) {
        const auto [lo, hi] =
            kernels::partitionRange(doubles, part, row.cores);
        ASSERT_GE(hi - lo, w);
        const size_t last = lo + ((hi - lo) / w - 1) * w;
        for (uint64_t region : touched) {
            sim::Tlb tlb = machine.tlb(part); // translate() updates LRU
            EXPECT_EQ(tlb.translate(region + last * 8), 0.0)
                << row.machine << " " << row.cores << "c "
                << bwProbeName(row.probe) << ": core " << part
                << " never touched the last page at 0x" << std::hex
                << region + last * 8 << std::dec;
        }
    }
}

TEST(ProbeGolden, BandwidthProbesMatchPinnedValues)
{
    for (const Pinned &row : kPinned) {
        sim::Machine machine(configNamed(row.machine));
        std::vector<int> cores;
        for (int c = 0; c < row.cores; ++c)
            cores.push_back(c);
        const BandwidthResult r =
            PlatformProbe(machine).bandwidthPeak(cores, row.probe);
        EXPECT_EQ(r.bytesPerSec, row.bytesPerSec)
            << row.machine << " " << row.cores << "c "
            << bwProbeName(row.probe);
        EXPECT_EQ(r.usefulBytesPerSec, row.usefulBytesPerSec)
            << row.machine << " " << row.cores << "c "
            << bwProbeName(row.probe);
        uint64_t loads = 0, stores = 0, other = 0;
        for (const sim::CoreCounters &c : machine.snapshot().cores) {
            loads += c.loadUops;
            stores += c.storeUops;
            other += c.otherUops;
        }
        EXPECT_EQ(loads, row.loadUops)
            << row.machine << " " << row.cores << "c "
            << bwProbeName(row.probe);
        EXPECT_EQ(stores, row.storeUops)
            << row.machine << " " << row.cores << "c "
            << bwProbeName(row.probe);
        EXPECT_EQ(other, row.otherUops)
            << row.machine << " " << row.cores << "c "
            << bwProbeName(row.probe);
        expectLastPagesInTlb(machine, row);
    }
}

} // namespace
