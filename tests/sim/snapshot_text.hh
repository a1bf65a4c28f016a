/**
 * @file
 * Every counter of a Machine::Snapshot as labelled text, one per line,
 * so a test can compare two runs with one EXPECT_EQ and get a line diff
 * of exactly the counters that differ.
 */

#ifndef RFL_TESTS_SIM_SNAPSHOT_TEXT_HH
#define RFL_TESTS_SIM_SNAPSHOT_TEXT_HH

#include <functional>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "sim/machine.hh"

namespace rfl::sim::testing
{

inline std::string
snapshotText(const Machine::Snapshot &s)
{
    std::ostringstream os;
    os.precision(17);
    auto cache = [&](const char *level, size_t i, const CacheStats &c) {
        os << level << i << " hits r/w " << c.readHits << " "
           << c.writeHits << " misses r/w " << c.readMisses << " "
           << c.writeMisses << " wb " << c.writebacks << " pf fills "
           << c.prefetchFills << " pf hits " << c.prefetchHits << "\n";
    };
    auto pf = [&](const char *level, size_t i, const PrefetcherStats &p) {
        os << level << "pf" << i << " observed " << p.observed
           << " issued " << p.issued << " streams " << p.streamsAllocated
           << "\n";
    };
    for (size_t i = 0; i < s.cores.size(); ++i) {
        const CoreCounters &c = s.cores[i];
        os << "core" << i << " fp " << c.fpRetired[0] << " "
           << c.fpRetired[1] << " " << c.fpRetired[2] << " "
           << c.fpRetired[3] << " fpUops " << c.fpUops << " ld "
           << c.loadUops << " st " << c.storeUops << " other "
           << c.otherUops << "\n";
        os << "core" << i << " fill l2/l3/dram " << c.l2FillBytes << " "
           << c.l3FillBytes << " " << c.dramFillBytes << " nt "
           << c.ntStoreBytes << " wb " << c.dramWritebackBytes
           << " latency " << c.latencyCycles << "\n";
        cache("l1-", i, s.l1[i]);
        cache("l2-", i, s.l2[i]);
        const TlbStats &t = s.tlbs[i];
        os << "tlb" << i << " accesses " << t.accesses << " l1Misses "
           << t.l1Misses << " walks " << t.walks << "\n";
        pf("l1", i, s.l1pf[i]);
        pf("l2", i, s.l2pf[i]);
    }
    for (size_t i = 0; i < s.l3.size(); ++i) {
        cache("l3-", i, s.l3[i]);
        const ImcStats &m = s.imcs[i];
        os << "imc" << i << " cas r/w " << m.casReads << " "
           << m.casWrites << " pf " << m.prefetchReads << " nt "
           << m.ntWrites << "\n";
    }
    return os.str();
}

/**
 * Run @p body on a fast-path machine and on a reference one
 * (setFastPath(false)) built from @p cfg, and expect every Snapshot
 * counter to agree. @return the fast machine's counters.
 */
inline Machine::Snapshot
expectMatchesReference(const MachineConfig &cfg,
                       const std::function<void(Machine &)> &body)
{
    Machine fast(cfg);
    Machine ref(cfg);
    ref.setFastPath(false);
    body(fast);
    body(ref);
    const Machine::Snapshot got = fast.snapshot();
    EXPECT_EQ(snapshotText(got), snapshotText(ref.snapshot()));
    return got;
}

} // namespace rfl::sim::testing

#endif // RFL_TESTS_SIM_SNAPSHOT_TEXT_HH
