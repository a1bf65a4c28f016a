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
 * The op set itself is written once too: both engines derive from
 * EngineOps<E> (CRTP), which does the arithmetic of every op and reports
 * what it retired through five private hooks (onLoad, onStore,
 * onStoreNT, onFp, onOther). NativeEngine's hooks increment a
 * sim::CoreCounters; SimEngine's hooks translate, batch and deliver to
 * the machine.
 *
 * The engine exposes scalar ops and variable-width vector ops (a `Vec` of
 * up to 8 doubles). A kernel compiled "for AVX" is simply the same source
 * run with an engine whose lanes() == 4; this is how the paper's
 * scalar/SSE/AVX ceiling comparison is reproduced without multiple kernel
 * bodies.
 *
 * FP counting convention (both engines, hardware-faithful, kept in one
 * place: sim::CoreCounters::retireFp): each op retires one event of its
 * width class; an FMA retires TWO events of its width class. Total flops
 * are later derived as sum(count * lanes).
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

/** Fixed-capacity vector of doubles; an engine uses its first lanes().*/
struct Vec
{
    std::array<double, 8> v{};

    double &operator[](int i) { return v[static_cast<size_t>(i)]; }
    double operator[](int i) const { return v[static_cast<size_t>(i)]; }
};

/**
 * The kernel-facing op set, written once for both engines (CRTP).
 *
 * Every op does its arithmetic here and reports what it retired through
 * one of five private hooks of the engine E:
 *   - onLoad(p, bytes), onStore(p, bytes), onStoreNT(p, bytes): one
 *     memory uop of @p bytes at host pointer @p p (a vector access is
 *     one call with its full width, never one per lane);
 *   - onFp(w, fma, count): @p count FP ops of width class @p w
 *     (sim::CoreCounters::retireFp holds the counting convention);
 *   - onOther(uops): non-FP, non-memory uops (loop overhead).
 * The hooks run before the op touches memory, so E sees every access
 * in program order.
 */
template <typename E>
class EngineOps
{
  public:
    int lanes() const { return lanes_; }
    bool fmaEnabled() const { return fma_; }

    // --- scalar ---
    double
    load(const double *p)
    {
        self().onLoad(p, 8);
        return *p;
    }

    void
    store(double *p, double x)
    {
        self().onStore(p, 8);
        *p = x;
    }

    /** Non-temporal store (bypasses the caches on the simulator). */
    void
    storeNT(double *p, double x)
    {
        self().onStoreNT(p, 8);
        *p = x;
    }

    /**
     * Count a non-FP load of @p bytes (index arrays, pointer chasing).
     * The caller dereferences the pointer itself.
     */
    void loadRaw(const void *p, uint32_t bytes) { self().onLoad(p, bytes); }

    double
    add(double a, double b)
    {
        scalarFp();
        return a + b;
    }

    double
    sub(double a, double b)
    {
        scalarFp();
        return a - b;
    }

    double
    mul(double a, double b)
    {
        scalarFp();
        return a * b;
    }

    double
    div(double a, double b)
    {
        scalarFp();
        return a / b;
    }

    /** a*b + c. Retires 2 ops (fused) or a mul + an add when !fma. */
    double
    fmadd(double a, double b, double c)
    {
        fusedFp(sim::VecWidth::Scalar);
        return a * b + c;
    }

    // --- vector (width = lanes()) ---
    Vec
    vload(const double *p)
    {
        self().onLoad(p, vecBytes());
        Vec r;
        for (int i = 0; i < lanes_; ++i)
            r[i] = p[i];
        return r;
    }

    void
    vstore(double *p, const Vec &x)
    {
        self().onStore(p, vecBytes());
        for (int i = 0; i < lanes_; ++i)
            p[i] = x[i];
    }

    void
    vstoreNT(double *p, const Vec &x)
    {
        self().onStoreNT(p, vecBytes());
        for (int i = 0; i < lanes_; ++i)
            p[i] = x[i];
    }

    Vec
    vbroadcast(double s) const
    {
        Vec r;
        for (int i = 0; i < lanes_; ++i)
            r[i] = s;
        return r;
    }

    Vec
    vadd(const Vec &a, const Vec &b)
    {
        self().onFp(width_, false, 1);
        Vec r;
        for (int i = 0; i < lanes_; ++i)
            r[i] = a[i] + b[i];
        return r;
    }

    Vec
    vmul(const Vec &a, const Vec &b)
    {
        self().onFp(width_, false, 1);
        Vec r;
        for (int i = 0; i < lanes_; ++i)
            r[i] = a[i] * b[i];
        return r;
    }

    Vec
    vfmadd(const Vec &a, const Vec &b, const Vec &c)
    {
        fusedFp(width_);
        Vec r;
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
            self().onFp(sim::VecWidth::Scalar, false,
                        static_cast<uint64_t>(lanes_ - 1));
        }
        return s;
    }

    /** Account @p iters loop iterations of @p uops_per_iter integer work.*/
    void
    loop(uint64_t iters, uint64_t uops_per_iter = 2)
    {
        self().onOther(iters * uops_per_iter);
    }

  protected:
    /**
     * @param lanes    vector width in doubles (1, 2, 4 or 8; anything
     *                 else panics in sim::widthForLanes)
     * @param use_fma  whether fmadd()/vfmadd() fuse (1 uop, 2 ops
     *                 retired) or split into mul + add
     */
    EngineOps(int lanes, bool use_fma)
        : lanes_(lanes), fma_(use_fma), width_(sim::widthForLanes(lanes))
    {
    }

  private:
    E &self() { return static_cast<E &>(*this); }

    uint32_t vecBytes() const { return static_cast<uint32_t>(8 * lanes_); }

    void scalarFp() { self().onFp(sim::VecWidth::Scalar, false, 1); }

    void
    fusedFp(sim::VecWidth w)
    {
        if (fma_)
            self().onFp(w, true, 1);
        else
            self().onFp(w, false, 2); // a mul and an add
    }

    int lanes_;
    bool fma_;
    sim::VecWidth width_;
};

/**
 * Engine running on the host CPU.
 *
 * All instrumentation is plain counter increments into a
 * sim::CoreCounters (the same fields the simulated core fills), so the
 * native path stays fast enough for real peak/bandwidth probing.
 */
class NativeEngine : public EngineOps<NativeEngine>
{
  public:
    explicit NativeEngine(int lanes = 1, bool use_fma = true)
        : EngineOps(lanes, use_fma)
    {
    }

    /** @return ops retired so far; the traffic fields stay zero. */
    const sim::CoreCounters &counters() const { return counters_; }

  private:
    friend EngineOps;

    void onLoad(const void *, uint32_t) { ++counters_.loadUops; }
    void onStore(const void *, uint32_t) { ++counters_.storeUops; }
    void onStoreNT(const void *, uint32_t) { ++counters_.storeUops; }

    void
    onFp(sim::VecWidth w, bool fma, uint64_t count)
    {
        counters_.retireFp(w, fma, count);
    }

    void onOther(uint64_t uops) { counters_.otherUops += uops; }

    sim::CoreCounters counters_;
};

/**
 * Engine driving the simulated machine on behalf of one simulated core.
 *
 * Performs the same arithmetic as NativeEngine (the shared EngineOps)
 * while routing every memory access through the cache hierarchy and
 * retiring every FP op into the simulated core's counters. Host
 * pointers are translated through the active AddressArena first.
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
 * A vector access enters the stream exactly once with its full byte
 * count (one IR record; the machine splits into lines with one shift),
 * so the simulated-access rate of a vectorized kernel is bounded by
 * lines touched, not elements moved (see DESIGN.md §7–8).
 */
class SimEngine : public EngineOps<SimEngine>,
                  public sim::Machine::BatchSource
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
        : EngineOps(lanes, use_fma && machine.config().core.hasFma),
          machine_(machine), core_(core), dispatch_(dispatch),
          lineShift_(static_cast<uint32_t>(
              std::countr_zero(machine.config().l1.lineBytes)))
    {
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

    /**
     * Replay a whole decoded batch (pre-translated simulated
     * addresses): flushes buffered records first (stream order), then
     * records/simulates @p b with every record remapped onto this
     * engine's core. Trace replay (TraceKernel) feeds a recorded stream
     * back through the engine this way.
     */
    void emitBatch(const trace::AccessBatch &b);

    /**
     * One memory uop of @p bytes at simulated address @p addr, with no
     * host access and no translation: the same record a vload/vstore/
     * vstoreNT of a host pointer that translates to @p addr produces.
     * For address streams with no host data behind them (the
     * bandwidth probes over AddressArena::reserveRegion()).
     */
    void
    loadAt(uint64_t addr, uint32_t bytes)
    {
        emitMem(trace::AccessKind::Load, addr, bytes);
    }

    void
    storeAt(uint64_t addr, uint32_t bytes)
    {
        emitMem(trace::AccessKind::Store, addr, bytes);
    }

    void
    storeNTAt(uint64_t addr, uint32_t bytes)
    {
        emitMem(trace::AccessKind::StoreNT, addr, bytes);
    }

  private:
    friend EngineOps;

    // --- EngineOps hooks ---
    void
    onLoad(const void *p, uint32_t bytes)
    {
        emitMem(trace::AccessKind::Load, AddressArena::translate(p),
                bytes);
    }

    void
    onStore(const void *p, uint32_t bytes)
    {
        emitMem(trace::AccessKind::Store, AddressArena::translate(p),
                bytes);
    }

    void
    onStoreNT(const void *p, uint32_t bytes)
    {
        emitMem(trace::AccessKind::StoreNT, AddressArena::translate(p),
                bytes);
    }

    void
    onFp(sim::VecWidth w, bool fma, uint64_t count)
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
    onOther(uint64_t uops)
    {
        if (dispatch_ == Dispatch::Direct) {
            machine_.retireOther(core_, uops);
            return;
        }
        // Commutes exactly like FP retirement (see onFp).
        pendingOther_ += uops;
    }

    /**
     * Deliver one memory access at simulated address @p addr: straight
     * to the machine (Direct dispatch or bypassBatching()), else into
     * the batch. @p kind is a constant at every call site, so each hook
     * inlines to its own branch.
     */
    void
    emitMem(trace::AccessKind kind, uint64_t addr, uint32_t bytes)
    {
        if (dispatch_ == Dispatch::Direct || bypassBatching()) {
            switch (kind) {
              case trace::AccessKind::Load:
                machine_.load(core_, addr, bytes);
                break;
              case trace::AccessKind::Store:
                machine_.store(core_, addr, bytes);
                break;
              default:
                machine_.storeNT(core_, addr, bytes);
                break;
            }
            return;
        }
        if (batch_.n >= batchLimit_)
            flush();
        if (kind == trace::AccessKind::StoreNT) {
            prevLine_ = ~0ull; // NT stores never extend a same-line run
            batch_.pushMem(kind, core_, addr, bytes);
        } else {
            batch_.pushMem(kind, core_, addr, bytes,
                           noteLine(addr, bytes));
        }
    }

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
     * memory access, see onFp). Disabled while recording: a trace
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
