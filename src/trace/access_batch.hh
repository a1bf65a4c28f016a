/**
 * @file
 * The access-stream IR: a fixed-capacity, structure-of-arrays batch of
 * simulated events.
 *
 * One AccessBatch carries an ordered slice of the event stream a kernel
 * presents to the simulated machine — demand loads/stores, non-temporal
 * stores, FP retirements and non-FP uop retirements — decoupled from
 * both the kernel that produced it and the machine that will consume it.
 * SimEngine fills batches and hands them to sim::Machine::simulateBatch
 * (the batched hot path), the trace writer serializes them to disk, and
 * the trace reader decodes them back for replay. Replaying a batch
 * through simulateBatch produces exactly the counters the original
 * per-access calls would have: the IR is a faithful reordering-free
 * buffer, never a lossy summary.
 *
 * Layout is SoA (one plane per field) so the consume loop streams
 * sequentially through small homogeneous arrays and the producer's
 * append is a handful of independent stores. Planes are deliberately
 * NOT zero-initialized: only the first n entries are meaningful.
 *
 * This header is the bottom of the trace module's layering: it must not
 * include anything from sim/ or kernels/ (both include it).
 */

#ifndef RFL_TRACE_ACCESS_BATCH_HH
#define RFL_TRACE_ACCESS_BATCH_HH

#include <array>
#include <cstdint>

namespace rfl::trace
{

/**
 * Event flavor of one IR record.
 *
 * Value assignment is load-bearing for the consume loop: Load/Store
 * differ only in bit 0 (write bit), and every kind value that may
 * *continue* a coalesced same-line run — Fp, Other, and Load/Store
 * carrying kindFlagSameLine — compares >= Fp, so the run scan is a
 * single byte comparison (see Machine::simulateBatchSpan).
 */
enum class AccessKind : uint8_t
{
    Load = 0,    ///< demand load (addr, size)
    Store = 1,   ///< demand store (addr, size)
    StoreNT = 2, ///< non-temporal store (addr, size)
    Fp = 3,      ///< FP retirement (width plane, count in addr plane)
    Other = 4,   ///< non-FP/non-memory uops (count in addr plane)
};

/** Number of distinct AccessKind values (serializer bound checks). */
constexpr int accessKindCount = 5;

/**
 * Kind-plane hint bit, set by the producer on a Load/Store record that
 * stays within one cache line AND touches the same line as the stream's
 * previous memory record. Purely derivable metadata — the consume loop
 * uses it to extend same-line runs with one compare instead of
 * re-deriving line membership per record; the trace serializer strips
 * it (canonical kinds on disk, machine-line-size independent).
 */
constexpr uint8_t kindFlagSameLine = 0x10;
/** Mask extracting the AccessKind value from a kind-plane byte. */
constexpr uint8_t kindValueMask = 0x0f;

/** See file comment. */
struct AccessBatch
{
    /** Records per batch: 64 KiB of planes, small enough to stay
     *  cache-resident between producer and consumer. */
    static constexpr uint32_t capacity = 4096;

    /** Set on the width plane of an Fp record retired as an FMA. */
    static constexpr uint8_t fpFmaFlag = 0x80;
    /** Mask extracting the VecWidth index from the width plane. */
    static constexpr uint8_t fpWidthMask = 0x7f;

    uint32_t n = 0; ///< live records (planes beyond n are garbage)

    /**
     * Producer hint: the batch belongs to a dependent-chain access
     * stream (Machine::setDependentAccesses was on when it was filled).
     * The consume loop routes such batches through the direct
     * no-coalescing loop — a pointer chase has no same-line runs worth
     * mining, so the run scan is pure overhead there.
     * Derivable metadata like kindFlagSameLine: not serialized; the
     * trace reader leaves it false and the machine-level knob governs
     * replay.
     */
    bool dependent = false;

    std::array<uint8_t, capacity> kind;
    /** Fp records: VecWidth index (0..3) | fpFmaFlag. Others: 0. */
    std::array<uint8_t, capacity> width;
    std::array<uint16_t, capacity> core;
    /** Memory records: access bytes (> 0). Others: 0. */
    std::array<uint32_t, capacity> size;
    /** Memory records: simulated byte address. Fp/Other: op count. */
    std::array<uint64_t, capacity> addr;

    bool empty() const { return n == 0; }
    bool full() const { return n == capacity; }
    void
    clear()
    {
        n = 0;
        dependent = false;
    }

    // The push helpers write only the planes their kind defines (a
    // memory record's width plane and an Fp record's size plane stay
    // garbage): the producer runs inside kernel hot loops, and no
    // consumer — simulateBatch or the trace writer — reads a plane its
    // record kind does not define.

    /**
     * Append a memory record; caller guarantees !full() and bytes>0.
     * @param same_line sets kindFlagSameLine (see its comment); pass
     * false when the relation to the previous record is unknown.
     */
    void
    pushMem(AccessKind k, int c, uint64_t byte_addr, uint32_t bytes,
            bool same_line = false)
    {
        const uint32_t i = n;
        kind[i] = static_cast<uint8_t>(k) |
                  (same_line ? kindFlagSameLine : 0);
        core[i] = static_cast<uint16_t>(c);
        size[i] = bytes;
        addr[i] = byte_addr;
        n = i + 1;
    }

    /** Append an FP-retirement record; caller guarantees !full(). */
    void
    pushFp(int c, int width_index, bool fma, uint64_t count)
    {
        const uint32_t i = n;
        kind[i] = static_cast<uint8_t>(AccessKind::Fp);
        width[i] = static_cast<uint8_t>(width_index) |
                   (fma ? fpFmaFlag : 0);
        core[i] = static_cast<uint16_t>(c);
        addr[i] = count;
        n = i + 1;
    }

    /** Append a non-FP uop record; caller guarantees !full(). */
    void
    pushOther(int c, uint64_t uops)
    {
        const uint32_t i = n;
        kind[i] = static_cast<uint8_t>(AccessKind::Other);
        core[i] = static_cast<uint16_t>(c);
        addr[i] = uops;
        n = i + 1;
    }
};

} // namespace rfl::trace

#endif // RFL_TRACE_ACCESS_BATCH_HH
