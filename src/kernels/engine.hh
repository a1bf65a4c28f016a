/**
 * @file
 * Execution engines: the instrumentation seam between kernels and
 * machines.
 *
 * Every kernel is written once, as the member template `runT` over an
 * engine E of a class derived from KernelOf (kernels/kernel.hh), which
 * instantiates it for both engines:
 *   - on the host CPU via NativeEngine (real arithmetic, software op
 *     counts, wall-clock timing outside the engine), and
 *   - on the simulated machine via SimEngine (same arithmetic, plus every
 *     load/store routed through the cache hierarchy and every FP op
 *     retired into the simulated core PMU).
 *
 * The engine exposes scalar ops and variable-width vector ops (a `Vec` of
 * up to 8 doubles). A kernel compiled "for AVX" is simply the same source
 * run with an engine whose lanes() == 4; this is how the paper's
 * scalar/SSE/AVX ceiling comparison is reproduced without multiple kernel
 * bodies.
 *
 * FP counting convention (both engines, hardware-faithful): each op
 * retires one event of its width class; an FMA retires TWO events of its
 * width class. Total flops are later derived as sum(count * lanes).
 */

#ifndef RFL_KERNELS_ENGINE_HH
#define RFL_KERNELS_ENGINE_HH

#include <array>
#include <bit>
#include <cstdint>

#include "sim/core.hh"
#include "sim/machine.hh"
#include "support/address_arena.hh"
#include "support/logging.hh"
#include "trace/access_batch.hh"

namespace rfl::trace
{
class TraceWriter;
}

namespace rfl::kernels
{

/** Fixed-capacity vector of doubles with runtime width (1..8 lanes). */
struct Vec
{
    std::array<double, 8> v{};
    int w = 1;

    double &operator[](int i) { return v[static_cast<size_t>(i)]; }
    double operator[](int i) const { return v[static_cast<size_t>(i)]; }
};

/** Software op counters kept by NativeEngine (mirrors sim CoreCounters).*/
struct NativeCounters
{
    /** FP retirements by width class; FMA counted twice. */
    std::array<uint64_t, 4> fpRetired{};
    uint64_t loads = 0;
    uint64_t stores = 0;
    uint64_t otherUops = 0;

    /** @return width-weighted flops (same formula as the PMU layer). */
    uint64_t
    flops() const
    {
        uint64_t total = 0;
        for (int i = 0; i < 4; ++i) {
            total += fpRetired[static_cast<size_t>(i)] *
                     static_cast<uint64_t>(
                         sim::vecLanes(static_cast<sim::VecWidth>(i)));
        }
        return total;
    }
};

/**
 * Engine running on the host CPU.
 *
 * All instrumentation is plain counter increments so the native path
 * stays fast enough for real peak/bandwidth probing.
 */
class NativeEngine
{
  public:
    /**
     * @param lanes    vector width in doubles (1, 2, 4 or 8)
     * @param use_fma  whether fmadd() fuses (1 uop, 2 ops retired) or
     *                 splits into mul+add
     */
    explicit NativeEngine(int lanes = 1, bool use_fma = true)
        : lanes_(lanes), fma_(use_fma)
    {
        RFL_ASSERT(lanes == 1 || lanes == 2 || lanes == 4 || lanes == 8);
    }

    int lanes() const { return lanes_; }
    bool fmaEnabled() const { return fma_; }

    const NativeCounters &counters() const { return counters_; }

    // --- scalar ---
    double
    load(const double *p)
    {
        ++counters_.loads;
        return *p;
    }

    void
    store(double *p, double x)
    {
        ++counters_.stores;
        *p = x;
    }

    /** Non-temporal store; identical to store() on the native path. */
    void
    storeNT(double *p, double x)
    {
        ++counters_.stores;
        *p = x;
    }

    /**
     * Count a non-FP load of @p bytes (index arrays, pointer chasing).
     * The caller dereferences the pointer itself.
     */
    void
    loadRaw(const void *p, uint32_t bytes)
    {
        (void)p;
        (void)bytes;
        ++counters_.loads;
    }

    double
    add(double a, double b)
    {
        countFp(1, false);
        return a + b;
    }

    double
    sub(double a, double b)
    {
        countFp(1, false);
        return a - b;
    }

    double
    mul(double a, double b)
    {
        countFp(1, false);
        return a * b;
    }

    double
    div(double a, double b)
    {
        countFp(1, false);
        return a / b;
    }

    /** a*b + c. Retires 2 ops (fused) or a mul + an add when !fma. */
    double
    fmadd(double a, double b, double c)
    {
        if (fma_) {
            countFp(1, true);
        } else {
            countFp(1, false);
            countFp(1, false);
        }
        return a * b + c;
    }

    // --- vector (width = lanes()) ---
    Vec
    vload(const double *p)
    {
        ++counters_.loads;
        Vec r;
        r.w = lanes_;
        for (int i = 0; i < lanes_; ++i)
            r[i] = p[i];
        return r;
    }

    void
    vstore(double *p, const Vec &x)
    {
        ++counters_.stores;
        for (int i = 0; i < lanes_; ++i)
            p[i] = x[i];
    }

    void
    vstoreNT(double *p, const Vec &x)
    {
        vstore(p, x);
    }

    Vec
    vbroadcast(double s) const
    {
        Vec r;
        r.w = lanes_;
        for (int i = 0; i < lanes_; ++i)
            r[i] = s;
        return r;
    }

    Vec
    vadd(const Vec &a, const Vec &b)
    {
        countFp(lanes_, false);
        Vec r;
        r.w = lanes_;
        for (int i = 0; i < lanes_; ++i)
            r[i] = a[i] + b[i];
        return r;
    }

    Vec
    vmul(const Vec &a, const Vec &b)
    {
        countFp(lanes_, false);
        Vec r;
        r.w = lanes_;
        for (int i = 0; i < lanes_; ++i)
            r[i] = a[i] * b[i];
        return r;
    }

    Vec
    vfmadd(const Vec &a, const Vec &b, const Vec &c)
    {
        if (fma_) {
            countFp(lanes_, true);
        } else {
            countFp(lanes_, false);
            countFp(lanes_, false);
        }
        Vec r;
        r.w = lanes_;
        for (int i = 0; i < lanes_; ++i)
            r[i] = a[i] * b[i] + c[i];
        return r;
    }

    /** Horizontal sum; retires lanes-1 scalar adds. */
    double
    vreduce(const Vec &a)
    {
        double s = a[0];
        for (int i = 1; i < lanes_; ++i)
            s += a[i];
        if (lanes_ > 1) {
            counters_.fpRetired[0] +=
                static_cast<uint64_t>(lanes_ - 1);
        }
        return s;
    }

    /** Account @p iters loop iterations of @p uops_per_iter integer work.*/
    void
    loop(uint64_t iters, uint64_t uops_per_iter = 2)
    {
        counters_.otherUops += iters * uops_per_iter;
    }

  private:
    void
    countFp(int width_lanes, bool fma)
    {
        const auto w =
            static_cast<size_t>(sim::widthForLanes(width_lanes));
        counters_.fpRetired[w] += fma ? 2 : 1;
    }

    int lanes_;
    bool fma_;
    NativeCounters counters_;
};

/**
 * Engine driving the simulated machine on behalf of one simulated core.
 *
 * Performs the same arithmetic as NativeEngine (results stay verifiable)
 * while routing every memory access through the cache hierarchy and
 * retiring every FP op into the simulated core's counters.
 *
 * Dispatch: by default the engine does not call into the machine per
 * access. It appends each event to an AccessBatch (the access-stream IR,
 * trace/access_batch.hh) and hands full batches to
 * Machine::simulateBatch(), whose tight consume loop coalesces same-line
 * runs into bulk counter updates. The machine drains pending batches at
 * every observation point (it attaches the engine as a BatchSource), so
 * buffering is invisible: counters read through any machine API are
 * always complete, and destruction flushes the rest. Dispatch::Direct
 * selects the per-access calls instead — the reference the golden
 * equivalence test compares against, and the PR 2 fast path the
 * throughput benchmark tracks.
 *
 * Recording: with a TraceWriter attached (batched dispatch only), every
 * flushed batch is also serialized, so a kernel run produces an on-disk
 * trace as a byproduct of normal simulation (see trace/trace_file.hh).
 *
 * Memory entry points are batch-friendly: a vector access enters the
 * stream exactly once with its full byte count (one IR record; the
 * machine splits into lines with one shift), never once per lane, so
 * the simulated-access rate of a vectorized kernel is bounded by lines
 * touched, not elements moved (see DESIGN.md §7–8).
 */
class SimEngine : public sim::Machine::BatchSource
{
  public:
    /** How simulated events reach the machine. */
    enum class Dispatch
    {
        /** Buffer into the IR; bulk-consumed by simulateBatch(). */
        Batched,
        /** Call the machine per access (reference / PR 2 fast path). */
        Direct,
    };

    /**
     * @param machine  simulated platform (must outlive the engine)
     * @param core     simulated core executing this engine's stream
     * @param lanes    vector width in doubles; must not exceed the
     *                 machine's maxVectorDoubles
     * @param use_fma  use FMA when the machine has it
     * @param dispatch batched (default) or per-access delivery
     */
    SimEngine(sim::Machine &machine, int core, int lanes, bool use_fma,
              Dispatch dispatch = Dispatch::Batched)
        : machine_(machine), core_(core), lanes_(lanes),
          fma_(use_fma && machine.config().core.hasFma),
          dispatch_(dispatch),
          lineShift_(static_cast<uint32_t>(
              std::countr_zero(machine.config().l1.lineBytes)))
    {
        RFL_ASSERT(lanes == 1 || lanes == 2 || lanes == 4 || lanes == 8);
        if (lanes > machine.config().core.maxVectorDoubles) {
            fatal("SimEngine: %d lanes exceeds machine vector width %d",
                  lanes, machine.config().core.maxVectorDoubles);
        }
        if (dispatch_ == Dispatch::Batched)
            machine_.attachBatchSource(*this);
    }

    ~SimEngine() override
    {
        if (dispatch_ == Dispatch::Batched) {
            flush();
            machine_.detachBatchSource(*this);
        }
    }

    SimEngine(const SimEngine &) = delete;
    SimEngine &operator=(const SimEngine &) = delete;

    int lanes() const { return lanes_; }
    bool fmaEnabled() const { return fma_; }
    sim::Machine &machine() { return machine_; }

    /**
     * Simulate (and, when recording, serialize) every buffered record.
     * Idempotent; called automatically when the batch fills, when the
     * machine drains its sources, and on destruction.
     */
    void flush();

    /** BatchSource: the machine's drain calls back into flush(). */
    void flushPendingBatch() override { flush(); }

    /**
     * Cap the number of buffered records per flush (1..capacity).
     * Equivalence tests sweep this to prove batch boundaries are
     * invisible; production code leaves it at capacity.
     */
    void
    setBatchLimit(uint32_t limit)
    {
        RFL_ASSERT(limit >= 1 && limit <= trace::AccessBatch::capacity);
        flush();
        batchLimit_ = limit;
    }

    /**
     * Record every subsequently flushed batch to @p writer (nullptr
     * stops recording). Batched dispatch only: the direct path has no
     * IR to serialize.
     */
    void
    setTraceWriter(trace::TraceWriter *writer)
    {
        RFL_ASSERT(writer == nullptr ||
                   dispatch_ == Dispatch::Batched);
        flush();
        writer_ = writer;
    }

    /** @name Raw IR emission (pre-translated simulated addresses).
     * Used by trace replay (TraceKernel) to feed a recorded stream back
     * through the engine; the instrumented load()/store()/... methods
     * below funnel into these. */
    ///@{
    void
    emitLoad(uint64_t addr, uint32_t bytes)
    {
        if (dispatch_ == Dispatch::Direct) {
            machine_.load(core_, addr, bytes);
            return;
        }
        if (bypassBatching()) {
            machine_.load(core_, addr, bytes);
            return;
        }
        if (batch_.n >= batchLimit_)
            flush();
        batch_.pushMem(trace::AccessKind::Load, core_, addr, bytes,
                       noteLine(addr, bytes));
    }

    void
    emitStore(uint64_t addr, uint32_t bytes)
    {
        if (dispatch_ == Dispatch::Direct) {
            machine_.store(core_, addr, bytes);
            return;
        }
        if (bypassBatching()) {
            machine_.store(core_, addr, bytes);
            return;
        }
        if (batch_.n >= batchLimit_)
            flush();
        batch_.pushMem(trace::AccessKind::Store, core_, addr, bytes,
                       noteLine(addr, bytes));
    }

    void
    emitStoreNT(uint64_t addr, uint32_t bytes)
    {
        if (dispatch_ == Dispatch::Direct) {
            machine_.storeNT(core_, addr, bytes);
            return;
        }
        if (bypassBatching()) {
            machine_.storeNT(core_, addr, bytes);
            return;
        }
        if (batch_.n >= batchLimit_)
            flush();
        prevLine_ = ~0ull; // NT stores never extend a same-line run
        batch_.pushMem(trace::AccessKind::StoreNT, core_, addr, bytes);
    }

    void
    emitFp(sim::VecWidth w, bool fma, uint64_t count = 1)
    {
        if (dispatch_ == Dispatch::Direct) {
            machine_.retireFp(core_, w, fma, count);
            return;
        }
        // FP retirement touches only the core's own additive counters —
        // nothing in the machine reads them mid-stream — so retirements
        // commute with every other record and accumulate here instead
        // of occupying IR slots. flush() materializes the totals as one
        // Fp record per (width, fma) class, so traces and the consume
        // loop see at most eight FP records per flush however
        // FP-dense the kernel is.
        pendingFp_[(static_cast<size_t>(w) << 1) | (fma ? 1 : 0)] +=
            count;
    }

    void
    emitOther(uint64_t uops)
    {
        if (dispatch_ == Dispatch::Direct) {
            machine_.retireOther(core_, uops);
            return;
        }
        // Commutes exactly like FP retirement (see emitFp).
        pendingOther_ += uops;
    }

    /**
     * Replay a whole decoded batch: flushes buffered records first
     * (stream order), then records/simulates @p b with every record
     * remapped onto this engine's core.
     */
    void emitBatch(const trace::AccessBatch &b);
    ///@}

    // --- scalar ---
    double
    load(const double *p)
    {
        emitLoad(AddressArena::translate(p), 8);
        return *p;
    }

    void
    store(double *p, double x)
    {
        emitStore(AddressArena::translate(p), 8);
        *p = x;
    }

    void
    storeNT(double *p, double x)
    {
        emitStoreNT(AddressArena::translate(p), 8);
        *p = x;
    }

    /** Non-FP load of @p bytes routed through the hierarchy. */
    void
    loadRaw(const void *p, uint32_t bytes)
    {
        emitLoad(AddressArena::translate(p), bytes);
    }

    double
    add(double a, double b)
    {
        emitFp(sim::VecWidth::Scalar, false);
        return a + b;
    }

    double
    sub(double a, double b)
    {
        emitFp(sim::VecWidth::Scalar, false);
        return a - b;
    }

    double
    mul(double a, double b)
    {
        emitFp(sim::VecWidth::Scalar, false);
        return a * b;
    }

    double
    div(double a, double b)
    {
        emitFp(sim::VecWidth::Scalar, false);
        return a / b;
    }

    double
    fmadd(double a, double b, double c)
    {
        if (fma_) {
            emitFp(sim::VecWidth::Scalar, true);
        } else {
            emitFp(sim::VecWidth::Scalar, false);
            emitFp(sim::VecWidth::Scalar, false);
        }
        return a * b + c;
    }

    // --- vector (one IR record per operation) ---
    Vec
    vload(const double *p)
    {
        emitLoad(AddressArena::translate(p),
                 static_cast<uint32_t>(8 * lanes_));
        Vec r;
        r.w = lanes_;
        for (int i = 0; i < lanes_; ++i)
            r[i] = p[i];
        return r;
    }

    void
    vstore(double *p, const Vec &x)
    {
        emitStore(AddressArena::translate(p),
                  static_cast<uint32_t>(8 * lanes_));
        for (int i = 0; i < lanes_; ++i)
            p[i] = x[i];
    }

    void
    vstoreNT(double *p, const Vec &x)
    {
        emitStoreNT(AddressArena::translate(p),
                    static_cast<uint32_t>(8 * lanes_));
        for (int i = 0; i < lanes_; ++i)
            p[i] = x[i];
    }

    Vec
    vbroadcast(double s) const
    {
        Vec r;
        r.w = lanes_;
        for (int i = 0; i < lanes_; ++i)
            r[i] = s;
        return r;
    }

    Vec
    vadd(const Vec &a, const Vec &b)
    {
        emitFp(sim::widthForLanes(lanes_), false);
        Vec r;
        r.w = lanes_;
        for (int i = 0; i < lanes_; ++i)
            r[i] = a[i] + b[i];
        return r;
    }

    Vec
    vmul(const Vec &a, const Vec &b)
    {
        emitFp(sim::widthForLanes(lanes_), false);
        Vec r;
        r.w = lanes_;
        for (int i = 0; i < lanes_; ++i)
            r[i] = a[i] * b[i];
        return r;
    }

    Vec
    vfmadd(const Vec &a, const Vec &b, const Vec &c)
    {
        if (fma_) {
            emitFp(sim::widthForLanes(lanes_), true);
        } else {
            emitFp(sim::widthForLanes(lanes_), false);
            emitFp(sim::widthForLanes(lanes_), false);
        }
        Vec r;
        r.w = lanes_;
        for (int i = 0; i < lanes_; ++i)
            r[i] = a[i] * b[i] + c[i];
        return r;
    }

    double
    vreduce(const Vec &a)
    {
        double s = a[0];
        for (int i = 1; i < lanes_; ++i)
            s += a[i];
        if (lanes_ > 1) {
            emitFp(sim::VecWidth::Scalar, false,
                   static_cast<uint64_t>(lanes_ - 1));
        }
        return s;
    }

    void
    loop(uint64_t iters, uint64_t uops_per_iter = 2)
    {
        emitOther(iters * uops_per_iter);
    }

  private:
    /** Move accumulated FP/uop retirements into batch_ as records. */
    void materializePending();

    /**
     * Latency fast path: when the machine is in dependent-access mode
     * (pointer chasing), each access's latency is the quantity being
     * modeled, and coalescing never applies — buffering records only to
     * have the consume loop deliver them one by one is pure overhead.
     * Route memory records straight to the machine instead. Safe
     * because setDependentAccesses() drains attached sources before
     * toggling, so the buffer is empty whenever the mode flips; FP and
     * uop retirements keep accumulating (they commute with every
     * memory access, see emitFp). Disabled while recording: a trace
     * must contain every record. prevLine_ is cleared so a stale
     * same-line hint can never leak across a bypass period.
     */
    bool
    bypassBatching()
    {
        if (!machine_.dependentAccesses() || writer_ != nullptr)
            [[likely]] {
            return false;
        }
        prevLine_ = ~0ull;
        return true;
    }

    /**
     * Track the line of the memory record being appended.
     * @return whether it is single-line and extends the previous memory
     * record's line — the producer-side same-line hint the consume
     * loop's run scan keys on (trace::kindFlagSameLine).
     */
    bool
    noteLine(uint64_t addr, uint32_t bytes)
    {
        const uint64_t line = addr >> lineShift_;
        if (((addr + bytes - 1) >> lineShift_) != line) {
            prevLine_ = ~0ull; // multi-line: no run through it
            return false;
        }
        const bool same = line == prevLine_;
        prevLine_ = line;
        return same;
    }

    sim::Machine &machine_;
    int core_;
    int lanes_;
    bool fma_;
    Dispatch dispatch_;
    uint32_t lineShift_;
    /** Line of the last appended memory record (~0 = none/multi-line).*/
    uint64_t prevLine_ = ~0ull;
    uint32_t batchLimit_ = trace::AccessBatch::capacity;
    trace::TraceWriter *writer_ = nullptr;
    /** Deferred FP retirements, indexed (VecWidth << 1) | fma. */
    std::array<uint64_t, 8> pendingFp_{};
    /** Deferred non-FP uop retirements. */
    uint64_t pendingOther_ = 0;
    trace::AccessBatch batch_;
};

} // namespace rfl::kernels

#endif // RFL_KERNELS_ENGINE_HH
