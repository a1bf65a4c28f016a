#include "telemetry/metrics.hh"

#include <algorithm>
#include <bit>
#include <cmath>
#include <optional>

#include "support/json.hh"
#include "support/logging.hh"
#include "support/number_format.hh"

namespace rfl::telemetry
{

namespace
{

/** Like labelSuffix but with extra label(s) appended (histogram le). */
std::string
labelSuffixWith(const Labels &labels, const std::string &key,
                const std::string &value)
{
    Labels all = labels;
    all.emplace_back(key, value);
    return labelSuffix(all);
}

/** Prometheus float: "+Inf" for infinity, round-trip digits otherwise. */
std::string
promNumber(double v)
{
    if (std::isinf(v))
        return v > 0 ? "+Inf" : "-Inf";
    std::string out;
    appendSig(out, v, kRoundTripDigits);
    return out;
}

} // namespace

std::string
labelSuffix(const Labels &labels)
{
    if (labels.empty())
        return "";
    std::string out = "{";
    for (const auto &[name, value] : labels) {
        if (out.size() > 1)
            out += ',';
        out.append(name).append("=\"");
        for (char c : value) {
            if (c == '\\' || c == '"')
                out += '\\';
            if (c == '\n')
                out += "\\n";
            else
                out += c;
        }
        out += '"';
    }
    out += '}';
    return out;
}

// ------------------------------------------------------------ Histogram

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds))
{
    RFL_ASSERT(!bounds_.empty());
    for (size_t i = 1; i < bounds_.size(); ++i)
        RFL_ASSERT(bounds_[i] > bounds_[i - 1]);
    counts_ =
        std::make_unique<std::atomic<uint64_t>[]>(bounds_.size() + 1);
    for (size_t i = 0; i <= bounds_.size(); ++i)
        counts_[i].store(0, std::memory_order_relaxed);
}

const std::vector<double> &
Histogram::defaultLatencyBounds()
{
    static const std::vector<double> bounds = {
        1e-6,   2.5e-6, 5e-6,  1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4,
        5e-4,   1e-3,   2.5e-3, 5e-3, 1e-2,  2.5e-2, 5e-2, 0.1,
        0.25,   0.5,    1.0,   2.5,  5.0,   10.0, 30.0, 60.0,
    };
    return bounds;
}

void
Histogram::observe(double v)
{
    const auto it =
        std::lower_bound(bounds_.begin(), bounds_.end(), v);
    const size_t idx = static_cast<size_t>(it - bounds_.begin());
    counts_[idx].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    uint64_t cur = sumBits_.load(std::memory_order_relaxed);
    for (;;) {
        const uint64_t next =
            std::bit_cast<uint64_t>(std::bit_cast<double>(cur) + v);
        if (sumBits_.compare_exchange_weak(cur, next,
                                           std::memory_order_relaxed))
            break;
    }
}

uint64_t
Histogram::count() const
{
    return count_.load(std::memory_order_relaxed);
}

double
Histogram::sum() const
{
    return std::bit_cast<double>(
        sumBits_.load(std::memory_order_relaxed));
}

uint64_t
Histogram::bucketCount(size_t i) const
{
    RFL_ASSERT(i <= bounds_.size());
    return counts_[i].load(std::memory_order_relaxed);
}

double
Histogram::quantile(double q) const
{
    const uint64_t n = count();
    if (n == 0)
        return 0.0;
    q = std::min(1.0, std::max(0.0, q));
    const uint64_t rank = std::max<uint64_t>(
        1, static_cast<uint64_t>(std::ceil(q * static_cast<double>(n))));
    uint64_t cum = 0;
    for (size_t i = 0; i <= bounds_.size(); ++i) {
        const uint64_t c = counts_[i].load(std::memory_order_relaxed);
        if (cum + c < rank) {
            cum += c;
            continue;
        }
        if (i == bounds_.size())
            return bounds_.back(); // +Inf bucket: floor, not estimate
        const double lower = i == 0 ? 0.0 : bounds_[i - 1];
        const double upper = bounds_[i];
        const double within =
            static_cast<double>(rank - cum) / static_cast<double>(c);
        return lower + (upper - lower) * within;
    }
    return bounds_.back(); // unreachable: ranks <= n by construction
}

// ------------------------------------------------------------- Registry

Registry &
Registry::global()
{
    // Leaked on purpose: metrics are referenced from destructors of
    // static and thread-local objects; the registry must outlive all.
    static Registry *const instance = new Registry();
    return *instance;
}

Registry::Entry &
Registry::findOrCreate(Kind kind, const std::string &name,
                       const Labels &labels, const std::string &help,
                       const std::vector<double> *bounds)
{
    std::string key = name;
    key += '\0';
    key += labelSuffix(labels);

    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = metrics_.find(key);
    if (it != metrics_.end()) {
        if (it->second.kind != kind) {
            panic("telemetry: metric '%s' re-registered with a "
                  "different kind",
                  name.c_str());
        }
        return it->second;
    }
    Entry entry;
    entry.kind = kind;
    entry.name = name;
    entry.labels = labels;
    entry.help = help;
    switch (kind) {
      case Kind::Counter:
        entry.counter = std::make_unique<Counter>();
        break;
      case Kind::Gauge:
        entry.gauge = std::make_unique<Gauge>();
        break;
      case Kind::Histogram:
        entry.histogram = std::make_unique<Histogram>(*bounds);
        break;
    }
    return metrics_.emplace(std::move(key), std::move(entry))
        .first->second;
}

Counter &
Registry::counter(const std::string &name, const std::string &help,
                  const Labels &labels)
{
    return *findOrCreate(Kind::Counter, name, labels, help, nullptr)
                .counter;
}

Gauge &
Registry::gauge(const std::string &name, const std::string &help,
                const Labels &labels)
{
    return *findOrCreate(Kind::Gauge, name, labels, help, nullptr)
                .gauge;
}

Histogram &
Registry::histogram(const std::string &name, const std::string &help,
                    const Labels &labels,
                    const std::vector<double> &bounds)
{
    return *findOrCreate(Kind::Histogram, name, labels, help, &bounds)
                .histogram;
}

Registry::CollectorHandle
Registry::addCollector(std::function<void()> fn)
{
    std::lock_guard<std::mutex> lock(mutex_);
    const uint64_t id = nextCollectorId_++;
    collectors_.emplace_back(id, std::move(fn));
    return CollectorHandle(this, id);
}

void
Registry::removeCollector(uint64_t id)
{
    std::lock_guard<std::mutex> lock(mutex_);
    collectors_.erase(
        std::remove_if(collectors_.begin(), collectors_.end(),
                       [id](const auto &c) { return c.first == id; }),
        collectors_.end());
}

void
Registry::CollectorHandle::reset()
{
    if (owner_)
        owner_->removeCollector(id_);
    owner_ = nullptr;
    id_ = 0;
}

void
Registry::runCollectorsLocked()
{
    for (const auto &[id, fn] : collectors_)
        fn();
}

std::vector<Registry::Sample>
Registry::snapshot()
{
    std::lock_guard<std::mutex> lock(mutex_);
    runCollectorsLocked();

    std::vector<Sample> out;
    out.reserve(metrics_.size());
    for (const auto &[key, e] : metrics_) {
        Sample s;
        s.name = e.name;
        s.labels = e.labels;
        switch (e.kind) {
          case Kind::Counter:
            s.kind = Sample::Kind::Counter;
            s.value = static_cast<double>(e.counter->value());
            break;
          case Kind::Gauge:
            s.kind = Sample::Kind::Gauge;
            s.value = e.gauge->value();
            break;
          case Kind::Histogram:
            s.kind = Sample::Kind::Histogram;
            s.count = e.histogram->count();
            s.sum = e.histogram->sum();
            s.p50 = e.histogram->quantile(0.5);
            s.p99 = e.histogram->quantile(0.99);
            break;
        }
        out.push_back(std::move(s));
    }
    return out;
}

std::string
Registry::renderPrometheus()
{
    std::lock_guard<std::mutex> lock(mutex_);
    runCollectorsLocked();

    std::string out;
    std::string lastFamily;
    for (const auto &[key, e] : metrics_) {
        if (e.name != lastFamily) {
            lastFamily = e.name;
            if (!e.help.empty())
                out.append("# HELP ").append(e.name).append(" ")
                    .append(e.help).append("\n");
            out.append("# TYPE ").append(e.name).append(" ")
                .append(e.kind == Kind::Counter
                            ? "counter"
                            : e.kind == Kind::Gauge ? "gauge"
                                                    : "histogram")
                .append("\n");
        }
        const std::string labels = labelSuffix(e.labels);
        switch (e.kind) {
          case Kind::Counter:
            out.append(e.name).append(labels).append(" ")
                .append(std::to_string(e.counter->value())).append("\n");
            break;
          case Kind::Gauge:
            out.append(e.name).append(labels).append(" ")
                .append(promNumber(e.gauge->value())).append("\n");
            break;
          case Kind::Histogram: {
            const Histogram &h = *e.histogram;
            uint64_t cum = 0;
            for (size_t i = 0; i < h.bounds().size(); ++i) {
                cum += h.bucketCount(i);
                out.append(e.name).append("_bucket")
                    .append(labelSuffixWith(e.labels, "le",
                                            promNumber(h.bounds()[i])))
                    .append(" ").append(std::to_string(cum)).append("\n");
            }
            out.append(e.name).append("_bucket")
                .append(labelSuffixWith(e.labels, "le", "+Inf"))
                .append(" ").append(std::to_string(h.count()))
                .append("\n");
            out.append(e.name).append("_sum").append(labels).append(" ")
                .append(promNumber(h.sum())).append("\n");
            out.append(e.name).append("_count").append(labels)
                .append(" ").append(std::to_string(h.count()))
                .append("\n");
            break;
          }
        }
    }
    return out;
}

std::string
Registry::renderJsonGrouped()
{
    std::lock_guard<std::mutex> lock(mutex_);
    runCollectorsLocked();

    // Group by the naming convention "rfl_<group>_<rest>"; metrics not
    // matching it land in a group named by their first token.
    std::string out;
    JsonWriter w(out);
    w.beginObject();
    std::optional<std::string> openGroup;
    for (const auto &[key, e] : metrics_) {
        std::string name = e.name;
        if (name.rfind("rfl_", 0) == 0)
            name = name.substr(4);
        const size_t underscore = name.find('_');
        std::string group = name.substr(0, underscore);
        std::string member = underscore == std::string::npos
                                 ? name
                                 : name.substr(underscore + 1);
        if (e.kind == Kind::Counter &&
            member.size() > 6 &&
            member.compare(member.size() - 6, 6, "_total") == 0)
            member.resize(member.size() - 6);
        if (!e.labels.empty())
            member += labelSuffix(e.labels);

        if (openGroup != group) {
            if (openGroup)
                w.endObject();
            w.key(group).beginObject();
            openGroup = std::move(group);
        }
        w.key(member);
        switch (e.kind) {
          case Kind::Counter:
            w.integer(e.counter->value());
            break;
          case Kind::Gauge:
            w.strictNumber(e.gauge->value());
            break;
          case Kind::Histogram: {
            const Histogram &h = *e.histogram;
            w.beginObject().key("count").integer(h.count())
                .key("sum").strictNumber(h.sum())
                .key("p50").strictNumber(h.quantile(0.5))
                .key("p90").strictNumber(h.quantile(0.9))
                .key("p99").strictNumber(h.quantile(0.99)).endObject();
            break;
          }
        }
    }
    if (openGroup)
        w.endObject();
    w.endObject();
    return out;
}

std::string
Registry::renderMetricsJson(const std::string &campaign)
{
    std::string out;
    JsonWriter(out).beginObject().key("kind").string("rfl-metrics")
        .key("schema_version").integer(1)
        .key("campaign").string(campaign)
        .key("metrics").raw(renderJsonGrouped()).endObject();
    return out;
}

} // namespace rfl::telemetry
