#include "telemetry/metrics.hh"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <sstream>

#include "support/escape.hh"
#include "support/logging.hh"

namespace rfl::telemetry
{

namespace
{

/** %.17g like Json::dump (support/json): shortest round-trippable. */
std::string
formatNumber(double v)
{
    if (!std::isfinite(v))
        return "null"; // strict JSON; callers avoid non-finite values
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

/** Prometheus label-value escaping: backslash, quote, newline. */
std::string
escapeLabelValue(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        if (c == '\\')
            out += "\\\\";
        else if (c == '"')
            out += "\\\"";
        else if (c == '\n')
            out += "\\n";
        else
            out += c;
    }
    return out;
}

/** {a="x",b="y"} (empty string for no labels). */
std::string
labelSuffix(const Labels &labels)
{
    if (labels.empty())
        return "";
    std::string out = "{";
    for (size_t i = 0; i < labels.size(); ++i) {
        if (i)
            out += ",";
        out += labels[i].first + "=\"" +
               escapeLabelValue(labels[i].second) + "\"";
    }
    out += "}";
    return out;
}

/** Like labelSuffix but with extra label(s) appended (histogram le). */
std::string
labelSuffixWith(const Labels &labels, const std::string &key,
                const std::string &value)
{
    Labels all = labels;
    all.emplace_back(key, value);
    return labelSuffix(all);
}

/** Prometheus float: "+Inf" for infinity, %.17g otherwise. */
std::string
promNumber(double v)
{
    if (std::isinf(v))
        return v > 0 ? "+Inf" : "-Inf";
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

} // namespace

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

    std::ostringstream out;
    std::string lastFamily;
    for (const auto &[key, e] : metrics_) {
        if (e.name != lastFamily) {
            lastFamily = e.name;
            if (!e.help.empty())
                out << "# HELP " << e.name << " " << e.help << "\n";
            out << "# TYPE " << e.name << " "
                << (e.kind == Kind::Counter
                        ? "counter"
                        : e.kind == Kind::Gauge ? "gauge"
                                                : "histogram")
                << "\n";
        }
        const std::string labels = labelSuffix(e.labels);
        switch (e.kind) {
          case Kind::Counter:
            out << e.name << labels << " " << e.counter->value()
                << "\n";
            break;
          case Kind::Gauge:
            out << e.name << labels << " "
                << promNumber(e.gauge->value()) << "\n";
            break;
          case Kind::Histogram: {
            const Histogram &h = *e.histogram;
            uint64_t cum = 0;
            for (size_t i = 0; i < h.bounds().size(); ++i) {
                cum += h.bucketCount(i);
                out << e.name << "_bucket"
                    << labelSuffixWith(e.labels, "le",
                                       promNumber(h.bounds()[i]))
                    << " " << cum << "\n";
            }
            out << e.name << "_bucket"
                << labelSuffixWith(e.labels, "le", "+Inf") << " "
                << h.count() << "\n";
            out << e.name << "_sum" << labels << " "
                << promNumber(h.sum()) << "\n";
            out << e.name << "_count" << labels << " " << h.count()
                << "\n";
            break;
          }
        }
    }
    return out.str();
}

std::string
Registry::renderJsonGrouped()
{
    std::lock_guard<std::mutex> lock(mutex_);
    runCollectorsLocked();

    // Group by the naming convention "rfl_<group>_<rest>"; metrics not
    // matching it land in a group named by their first token.
    std::ostringstream out;
    out << "{";
    std::string openGroup;
    bool firstGroup = true;
    bool firstMember = true;
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

        if (group != openGroup) {
            if (!openGroup.empty())
                out << "}";
            if (!firstGroup)
                out << ",";
            firstGroup = false;
            out << "\"" << escapeJson(group) << "\":{";
            openGroup = group;
            firstMember = true;
        }
        if (!firstMember)
            out << ",";
        firstMember = false;
        out << "\"" << escapeJson(member) << "\":";
        switch (e.kind) {
          case Kind::Counter:
            out << e.counter->value();
            break;
          case Kind::Gauge:
            out << formatNumber(e.gauge->value());
            break;
          case Kind::Histogram: {
            const Histogram &h = *e.histogram;
            out << "{\"count\":" << h.count()
                << ",\"sum\":" << formatNumber(h.sum())
                << ",\"p50\":" << formatNumber(h.quantile(0.5))
                << ",\"p90\":" << formatNumber(h.quantile(0.9))
                << ",\"p99\":" << formatNumber(h.quantile(0.99))
                << "}";
            break;
          }
        }
    }
    if (!openGroup.empty())
        out << "}";
    out << "}";
    return out.str();
}

} // namespace rfl::telemetry
