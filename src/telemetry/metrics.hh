/**
 * @file
 * Lock-cheap metrics registry: the process-wide observability spine.
 *
 * Three metric kinds, all built on std::atomic so the hot paths that
 * bump them never take a lock:
 *   - Counter:   monotonic uint64 (events since process start);
 *   - Gauge:     double with last-write-wins set() (levels: queue
 *                depth, hit rates);
 *   - Histogram: fixed-bucket latency/size distribution with exact
 *                atomic per-bucket counts and derived p50/p90/p99.
 *
 * Metrics are registered once (idempotent by name+labels; the returned
 * reference is stable for the registry's lifetime) and exported two
 * ways from the same storage:
 *   - renderPrometheus(): Prometheus text exposition format 0.0.4
 *     (served by GET /metricsz, scrapable by any Prometheus agent);
 *   - renderJsonGrouped(): a strict-JSON snapshot grouped by the
 *     naming convention "rfl_<group>_<rest>" -> {"<group>":{"<rest>":
 *     value}}, with the "_total" counter suffix stripped — exactly the
 *     shape /statsz has always served, now derived from the registry.
 *
 * Registration takes a mutex; reads of the metric maps at render time
 * take the same mutex. Collectors — callbacks that refresh pull-style
 * values (e.g. mirroring a subsystem's internal struct counters into
 * the registry) — run at the start of every render and are removable,
 * so an object whose lifetime is shorter than the registry can
 * register one safely (see CollectorHandle).
 *
 * Registry::global() is the process registry every layer reports
 * through; unit tests construct private Registry instances.
 */

#ifndef RFL_TELEMETRY_METRICS_HH
#define RFL_TELEMETRY_METRICS_HH

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace rfl::telemetry
{

/** Metric label set (Prometheus dimensions), e.g. {{"kind","measure"}}. */
using Labels = std::vector<std::pair<std::string, std::string>>;

/** {a="x",b="y"} ("" for none), values Prometheus-escaped: the label
 *  part of registry names and time-series ids. */
std::string labelSuffix(const Labels &labels);

/** Monotonic event counter. inc() is one relaxed atomic add. */
class Counter
{
  public:
    void
    inc(uint64_t n = 1)
    {
        value_.fetch_add(n, std::memory_order_relaxed);
    }

    /**
     * Overwrite with an externally-maintained running total (collector
     * mirroring of a subsystem's own struct counter). Never use for
     * event-time accounting — that is inc()'s job.
     */
    void
    mirror(uint64_t total)
    {
        value_.store(total, std::memory_order_relaxed);
    }

    uint64_t
    value() const
    {
        return value_.load(std::memory_order_relaxed);
    }

  private:
    std::atomic<uint64_t> value_{0};
};

/** Last-write-wins level. */
class Gauge
{
  public:
    void
    set(double v)
    {
        value_.store(v, std::memory_order_relaxed);
    }

    void
    add(double delta)
    {
        double cur = value_.load(std::memory_order_relaxed);
        while (!value_.compare_exchange_weak(cur, cur + delta,
                                             std::memory_order_relaxed)) {
        }
    }

    double
    value() const
    {
        return value_.load(std::memory_order_relaxed);
    }

  private:
    std::atomic<double> value_{0.0};
};

/**
 * Fixed-bucket histogram. Buckets are cumulative-upper-bound style
 * (Prometheus "le"): bucket i counts observations <= bounds[i], plus
 * one implicit +Inf overflow bucket. observe() is a short branchless
 * scan plus one relaxed add — no locks, and concurrent observers sum
 * exactly (each observation lands in exactly one bucket).
 */
class Histogram
{
  public:
    /** @p bounds must be strictly increasing and non-empty. */
    explicit Histogram(std::vector<double> bounds);

    /** Default log-spaced latency bounds, 1 us .. 60 s. */
    static const std::vector<double> &defaultLatencyBounds();

    void observe(double v);

    uint64_t count() const;
    double sum() const;
    const std::vector<double> &bounds() const { return bounds_; }
    /** Count of bucket @p i (i == bounds().size() is the +Inf bucket). */
    uint64_t bucketCount(size_t i) const;

    /**
     * Quantile estimate from the bucket counts. The target rank is
     * r = max(1, ceil(q * count)); the answer interpolates linearly
     * inside the bucket holding rank r (lower edge 0 for the first
     * bucket). Values landing in the +Inf bucket report the highest
     * finite bound — a floor, not an estimate. Returns 0 when empty.
     */
    double quantile(double q) const;

  private:
    std::vector<double> bounds_;
    /** bounds_.size() + 1 entries; last is the +Inf overflow bucket. */
    std::unique_ptr<std::atomic<uint64_t>[]> counts_;
    std::atomic<uint64_t> count_{0};
    /** Bit-cast accumulation: CAS loop over the double's bits. */
    std::atomic<uint64_t> sumBits_{0};
};

/** See file comment. */
class Registry
{
  public:
    Registry() = default;
    Registry(const Registry &) = delete;
    Registry &operator=(const Registry &) = delete;

    /** The process-wide registry (created on first use, never dies). */
    static Registry &global();

    /**
     * @name Registration (idempotent).
     * The first registration of a (name, labels) pair creates the
     * metric; later calls return the same instance (help text of the
     * first call wins). Registering the same name with a different
     * kind panics — one name, one kind, like Prometheus requires.
     */
    ///@{
    Counter &counter(const std::string &name, const std::string &help,
                     const Labels &labels = {});
    Gauge &gauge(const std::string &name, const std::string &help,
                 const Labels &labels = {});
    Histogram &histogram(const std::string &name,
                         const std::string &help,
                         const Labels &labels = {},
                         const std::vector<double> &bounds =
                             Histogram::defaultLatencyBounds());
    ///@}

    /**
     * Register @p fn to run before every render/snapshot (under the
     * registry mutex — keep it cheap and lock-ordered: collectors may
     * take subsystem locks, subsystems must never render while holding
     * theirs). @return a handle; destroying it deregisters, so the
     * captured object may die before the registry.
     */
    class CollectorHandle
    {
      public:
        CollectorHandle() = default;
        CollectorHandle(Registry *owner, uint64_t id)
            : owner_(owner), id_(id)
        {
        }
        CollectorHandle(CollectorHandle &&rhs) noexcept { swap(rhs); }
        CollectorHandle &
        operator=(CollectorHandle &&rhs) noexcept
        {
            reset();
            swap(rhs);
            return *this;
        }
        ~CollectorHandle() { reset(); }
        void reset();

      private:
        void
        swap(CollectorHandle &rhs)
        {
            std::swap(owner_, rhs.owner_);
            std::swap(id_, rhs.id_);
        }
        Registry *owner_ = nullptr;
        uint64_t id_ = 0;
    };

    [[nodiscard]] CollectorHandle
    addCollector(std::function<void()> fn);

    /**
     * One metric's current value, as captured by snapshot(). Counters
     * fill @c value with the running total; gauges with the level;
     * histograms fill @c count / @c sum / @c p50 / @c p99 instead.
     */
    struct Sample
    {
        enum class Kind { Counter, Gauge, Histogram };
        Kind kind = Kind::Counter;
        std::string name;
        Labels labels;
        double value = 0.0; ///< counter total or gauge level
        uint64_t count = 0; ///< histogram only
        double sum = 0.0;   ///< histogram only
        double p50 = 0.0;   ///< histogram only
        double p99 = 0.0;   ///< histogram only
    };

    /**
     * Capture every registered metric's current value (collectors run
     * first, like the renderers). Family-sorted, same order as the
     * exports — the time-series sampler scrapes this instead of
     * parsing its own exposition text.
     */
    std::vector<Sample> snapshot();

    /** Prometheus text exposition (format 0.0.4), families sorted. */
    std::string renderPrometheus();

    /**
     * Strict-JSON snapshot grouped by naming convention (see file
     * comment). Histograms render as
     * {"count":N,"sum":S,"p50":x,"p90":x,"p99":x}.
     */
    std::string renderJsonGrouped();

    /** metrics.json of `roofline_campaign --telemetry-dir`: the
     *  grouped snapshot in a kind/schema/campaign envelope. */
    std::string renderMetricsJson(const std::string &campaign);

  private:
    friend class CollectorHandle;

    enum class Kind { Counter, Gauge, Histogram };

    struct Entry
    {
        Kind kind;
        std::string name;
        Labels labels;
        std::string help;
        std::unique_ptr<Counter> counter;
        std::unique_ptr<Gauge> gauge;
        std::unique_ptr<Histogram> histogram;
    };

    Entry &findOrCreate(Kind kind, const std::string &name,
                        const Labels &labels, const std::string &help,
                        const std::vector<double> *bounds);
    void removeCollector(uint64_t id);
    void runCollectorsLocked();

    mutable std::mutex mutex_;
    /** Keyed by name + '\0' + serialized labels: family-sorted. */
    std::map<std::string, Entry> metrics_;
    std::vector<std::pair<uint64_t, std::function<void()>>> collectors_;
    uint64_t nextCollectorId_ = 1;
};

} // namespace rfl::telemetry

#endif // RFL_TELEMETRY_METRICS_HH
