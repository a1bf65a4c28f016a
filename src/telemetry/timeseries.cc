#include "telemetry/timeseries.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>

#include "support/escape.hh"
#include "support/logging.hh"

namespace rfl::telemetry
{

namespace
{

/** Strict-JSON number: non-finite encodes as null. */
std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.9g", v);
    return buf;
}

/** {a="x",b="y"} (empty for no labels) — same shape as the registry. */
std::string
labelSuffix(const Labels &labels)
{
    if (labels.empty())
        return "";
    std::string out = "{";
    for (size_t i = 0; i < labels.size(); ++i) {
        if (i)
            out += ",";
        out += labels[i].first + "=\"" + labels[i].second + "\"";
    }
    out += "}";
    return out;
}

/** Human display value: SI-suffixed for magnitude, %.3g otherwise. */
std::string
displayNumber(double v)
{
    if (!std::isfinite(v))
        return "-";
    const double a = std::fabs(v);
    char buf[48];
    if (a >= 1e9)
        std::snprintf(buf, sizeof(buf), "%.2fG", v / 1e9);
    else if (a >= 1e6)
        std::snprintf(buf, sizeof(buf), "%.2fM", v / 1e6);
    else if (a >= 1e4)
        std::snprintf(buf, sizeof(buf), "%.1fk", v / 1e3);
    else
        std::snprintf(buf, sizeof(buf), "%.4g", v);
    return buf;
}

/**
 * One inline SVG sparkline: a 2px polyline over an area fill, scaled
 * to the series' own [min, max] with 5% headroom. Pure presentation —
 * colors come from CSS custom properties so the same markup follows
 * the page's light/dark scheme.
 */
std::string
sparklineSvg(const std::vector<float> &pts, int width, int height)
{
    std::ostringstream svg;
    svg << "<svg viewBox=\"0 0 " << width << " " << height
        << "\" width=\"" << width << "\" height=\"" << height
        << "\" role=\"img\" preserveAspectRatio=\"none\">";
    if (pts.size() >= 2) {
        float lo = pts[0], hi = pts[0];
        for (float v : pts) {
            lo = std::min(lo, v);
            hi = std::max(hi, v);
        }
        float span = hi - lo;
        if (span <= 0.0f)
            span = std::max(1e-6f, std::fabs(hi)) * 0.1f;
        const float pad = span * 0.05f;
        lo -= pad;
        span += 2 * pad;
        std::ostringstream line;
        for (size_t i = 0; i < pts.size(); ++i) {
            const double x = static_cast<double>(i) /
                             static_cast<double>(pts.size() - 1) *
                             width;
            const double y =
                height - (pts[i] - lo) / span * (height - 4) - 2;
            char buf[40];
            std::snprintf(buf, sizeof(buf), "%.1f,%.1f ", x, y);
            line << buf;
        }
        const std::string path = line.str();
        // Area fill closes to the bottom edge; the stroke reads the
        // trend, the fill anchors it to the baseline.
        svg << "<polygon fill=\"var(--accent)\" opacity=\"0.12\" "
            << "points=\"0," << height << " " << path << width << ","
            << height << "\"/>";
        svg << "<polyline fill=\"none\" stroke=\"var(--accent)\" "
            << "stroke-width=\"2\" stroke-linejoin=\"round\" "
            << "points=\"" << path << "\"/>";
    } else {
        svg << "<line x1=\"0\" y1=\"" << height / 2 << "\" x2=\""
            << width << "\" y2=\"" << height / 2
            << "\" stroke=\"var(--grid)\" stroke-width=\"1\" "
            << "stroke-dasharray=\"3 3\"/>";
    }
    svg << "</svg>";
    return svg.str();
}

} // namespace

// ------------------------------------------------------- Series (ring)

void
TimeSeriesSampler::Series::push(float v, size_t capacity)
{
    if (ring.size() < capacity) {
        // Grow-once warm-up: the ring reaches `capacity` floats and
        // never grows again.
        ring.push_back(v);
        head = ring.size() % capacity;
    } else {
        ring[head] = v;
        head = (head + 1) % capacity;
    }
    count = std::min(count + 1, capacity);
    last = v;
}

std::vector<float>
TimeSeriesSampler::Series::ordered() const
{
    std::vector<float> out;
    out.reserve(count);
    if (count < ring.size() || ring.empty()) {
        // Ring not yet wrapped: points sit at [0, count).
        out.assign(ring.begin(), ring.begin() + count);
        return out;
    }
    for (size_t i = 0; i < ring.size(); ++i)
        out.push_back(ring[(head + i) % ring.size()]);
    return out;
}

// ----------------------------------------------------- TimeSeriesSampler

TimeSeriesSampler::TimeSeriesSampler(Registry &registry,
                                     TimeSeriesOptions opts)
    : registry_(registry), opts_(opts),
      droppedSeries_(registry.counter(
          "rfl_series_dropped_total",
          "time series not materialized (sampler maxSeries cap)"))
{
    RFL_ASSERT(opts_.capacity >= 2);
    RFL_ASSERT(opts_.intervalSeconds > 0.0);
}

TimeSeriesSampler::~TimeSeriesSampler()
{
    stop();
}

void
TimeSeriesSampler::start()
{
    std::lock_guard<std::mutex> lock(threadMutex_);
    if (thread_.joinable())
        return;
    stopping_ = false;
    thread_ = std::thread([this] { threadLoop(); });
}

void
TimeSeriesSampler::stop()
{
    {
        std::lock_guard<std::mutex> lock(threadMutex_);
        if (!thread_.joinable())
            return;
        stopping_ = true;
    }
    threadCv_.notify_all();
    thread_.join();
    stopping_ = false;
}

void
TimeSeriesSampler::threadLoop()
{
    std::unique_lock<std::mutex> lock(threadMutex_);
    for (;;) {
        // Sample first so a freshly-started sampler has points before
        // the first full interval elapses.
        lock.unlock();
        sampleNow();
        lock.lock();
        if (threadCv_.wait_for(
                lock,
                std::chrono::duration<double>(opts_.intervalSeconds),
                [this] { return stopping_; }))
            return;
    }
}

TimeSeriesSampler::Series *
TimeSeriesSampler::findOrCreateLocked(const std::string &id,
                                      const std::string &unit)
{
    const auto it = series_.find(id);
    if (it != series_.end())
        return &it->second;
    if (series_.size() >= opts_.maxSeries) {
        droppedSeries_.inc();
        return nullptr;
    }
    Series s;
    s.id = id;
    s.unit = unit;
    s.ring.reserve(opts_.capacity);
    return &series_.emplace(id, std::move(s)).first->second;
}

void
TimeSeriesSampler::appendLocked(const std::string &id,
                                const std::string &unit, double derived)
{
    if (Series *s = findOrCreateLocked(id, unit))
        s->push(static_cast<float>(derived), opts_.capacity);
}

void
TimeSeriesSampler::appendCounterLocked(const std::string &id,
                                       double total, double dt)
{
    Series *s = findOrCreateLocked(id, "rate");
    if (!s)
        return;
    if (!s->seeded) {
        // First sighting establishes the baseline; a counter's first
        // point is the rate across the *next* interval, never the
        // whole process history compressed into one dt.
        s->seeded = true;
        s->prevRaw = total;
        return;
    }
    // Mirrored counters may be reset by a new subsystem instance
    // (tests rebuilding queues); clamp instead of emitting a huge
    // negative rate.
    const double delta = std::max(0.0, total - s->prevRaw);
    s->prevRaw = total;
    s->push(static_cast<float>(dt > 1e-9 ? delta / dt : 0.0),
            opts_.capacity);
}

void
TimeSeriesSampler::sampleNow(double dtOverrideSeconds)
{
    // Scrape outside our own lock: Registry::snapshot() runs the
    // collectors under the registry mutex; holding the sampler mutex
    // across it would order the two locks both ways around.
    const std::vector<Registry::Sample> snap = registry_.snapshot();
    const auto now = std::chrono::steady_clock::now();

    std::lock_guard<std::mutex> lock(mutex_);
    double dt = opts_.intervalSeconds;
    if (dtOverrideSeconds > 0.0)
        dt = dtOverrideSeconds;
    else if (haveLastSample_)
        dt = std::chrono::duration<double>(now - lastSampleAt_).count();
    lastSampleAt_ = now;
    haveLastSample_ = true;
    ++samples_;

    for (const Registry::Sample &m : snap) {
        const std::string base = m.name + labelSuffix(m.labels);
        switch (m.kind) {
          case Registry::Sample::Kind::Counter:
            appendCounterLocked(base + ":rate", m.value, dt);
            break;
          case Registry::Sample::Kind::Gauge:
            appendLocked(base, "value", m.value);
            break;
          case Registry::Sample::Kind::Histogram:
            appendLocked(base + ":p50", "p50", m.p50);
            appendLocked(base + ":p99", "p99", m.p99);
            break;
        }
    }
}

size_t
TimeSeriesSampler::seriesCount() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return series_.size();
}

uint64_t
TimeSeriesSampler::samplesTaken() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return samples_;
}

std::vector<float>
TimeSeriesSampler::points(const std::string &id) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = series_.find(id);
    return it == series_.end() ? std::vector<float>{}
                               : it->second.ordered();
}

std::string
TimeSeriesSampler::renderSeriesJson() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::ostringstream out;
    out << "{\"kind\":\"rfl-series\",\"schema_version\":1"
        << ",\"interval_seconds\":" << jsonNumber(opts_.intervalSeconds)
        << ",\"capacity\":" << opts_.capacity
        << ",\"samples\":" << samples_
        << ",\"series\":[";
    bool first = true;
    for (const auto &[id, s] : series_) {
        if (!first)
            out << ",";
        first = false;
        out << "{\"name\":\"" << escapeJson(id) << "\",\"unit\":\""
            << escapeJson(s.unit) << "\",\"last\":"
            << jsonNumber(s.last) << ",\"points\":[";
        const std::vector<float> pts = s.ordered();
        for (size_t i = 0; i < pts.size(); ++i) {
            if (i)
                out << ",";
            out << jsonNumber(pts[i]);
        }
        out << "]}";
    }
    out << "]}";
    return out.str();
}

std::string
TimeSeriesSampler::renderDashHtml() const
{
    // Headline panels: the series an operator reaches for first. Each
    // is one single-series sparkline, so the accent hue carries no
    // identity — the panel title does.
    struct Panel
    {
        const char *title;
        const char *id;
    };
    static const Panel kHeadline[] = {
        {"Queue depth", "rfl_queue_depth"},
        {"Campaigns running", "rfl_queue_running"},
        {"Requests / s", "rfl_http_requests_total:rate"},
        {"Cache hit ratio", "rfl_cache_hit_rate"},
        {"Drain records / s", "rfl_sim_records_total:rate"},
        {"Request p99 (s)",
         "rfl_http_request_seconds{endpoint=\"/v1/campaigns/{id}\"}"
         ":p99"},
    };

    std::lock_guard<std::mutex> lock(mutex_);

    const int refresh = std::max(
        1, static_cast<int>(std::ceil(opts_.intervalSeconds)));

    std::ostringstream out;
    out << "<!DOCTYPE html>\n<html lang=\"en\"><head>"
        << "<meta charset=\"utf-8\">"
        << "<meta http-equiv=\"refresh\" content=\"" << refresh
        << "\">"
        << "<title>rfl /dashz</title><style>\n"
        << ":root{color-scheme:light;--surface:#fcfcfb;"
        << "--panel:#ffffff;--text:#0b0b0b;--text-2:#52514e;"
        << "--accent:#2a78d6;--grid:#d9d8d4;}\n"
        << "@media (prefers-color-scheme:dark){:root{"
        << "color-scheme:dark;--surface:#1a1a19;--panel:#232322;"
        << "--text:#ffffff;--text-2:#c3c2b7;--accent:#3987e5;"
        << "--grid:#41403d;}}\n"
        << "body{background:var(--surface);color:var(--text);"
        << "font:14px/1.4 system-ui,sans-serif;margin:16px;}\n"
        << "h1{font-size:16px;font-weight:600;margin:0 0 2px;}\n"
        << ".sub{color:var(--text-2);font-size:12px;margin:0 0 14px;}\n"
        << ".grid{display:grid;"
        << "grid-template-columns:repeat(auto-fill,minmax(250px,1fr));"
        << "gap:10px;}\n"
        << ".panel{background:var(--panel);border:1px solid "
        << "var(--grid);border-radius:6px;padding:10px 12px;}\n"
        << ".panel h2{font-size:12px;font-weight:500;"
        << "color:var(--text-2);margin:0;white-space:nowrap;"
        << "overflow:hidden;text-overflow:ellipsis;}\n"
        << ".val{font-size:22px;font-weight:600;margin:2px 0 6px;"
        << "font-variant-numeric:tabular-nums;}\n"
        << ".mm{color:var(--text-2);font-size:11px;margin-top:4px;"
        << "font-variant-numeric:tabular-nums;}\n"
        << "h3{font-size:13px;font-weight:600;margin:18px 0 8px;}\n"
        << "svg{display:block;width:100%;}\n"
        << "</style></head><body>\n"
        << "<h1>rfl &mdash; live series</h1>\n"
        << "<p class=\"sub\">" << series_.size() << " series &middot; "
        << samples_ << " samples &middot; scrape every "
        << displayNumber(opts_.intervalSeconds) << "s &middot; ring "
        << opts_.capacity << " points &middot; <a href=\"/seriesz\">"
        << "JSON</a> &middot; <a href=\"/metricsz\">metricsz</a></p>\n";

    auto panelHtml = [&](const std::string &title, const Series &s) {
        const std::vector<float> pts = s.ordered();
        float lo = 0.0f, hi = 0.0f;
        if (!pts.empty()) {
            lo = hi = pts[0];
            for (float v : pts) {
                lo = std::min(lo, v);
                hi = std::max(hi, v);
            }
        }
        out << "<div class=\"panel\"><h2 title=\""
            << escapeXml(title) << "\">" << escapeXml(title)
            << "</h2><div class=\"val\">" << displayNumber(s.last)
            << "</div>" << sparklineSvg(pts, 240, 48)
            << "<div class=\"mm\">min " << displayNumber(lo)
            << " &middot; max " << displayNumber(hi) << " &middot; "
            << pts.size() << " pts</div></div>\n";
    };

    out << "<div class=\"grid\">\n";
    std::vector<std::string> shown;
    for (const Panel &p : kHeadline) {
        const auto it = series_.find(p.id);
        if (it == series_.end())
            continue;
        panelHtml(p.title, it->second);
        shown.push_back(p.id);
    }
    out << "</div>\n<h3>All series</h3>\n<div class=\"grid\">\n";
    for (const auto &[id, s] : series_) {
        if (std::find(shown.begin(), shown.end(), id) != shown.end())
            continue;
        panelHtml(id, s);
    }
    out << "</div>\n</body></html>\n";
    return out.str();
}

} // namespace rfl::telemetry
