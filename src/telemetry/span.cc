#include "telemetry/span.hh"

#include <ostream>

#include "support/json.hh"
#include "telemetry/metrics.hh"

namespace rfl::telemetry
{

namespace
{

thread_local TraceScope *tl_scope = nullptr;

/** Scope buffers flush once they hold this many finished spans. */
constexpr size_t kFlushThreshold = 1024;

/** Write one chrome trace "complete" (ph=X) event object. */
void
writeEvent(JsonWriter &w, const SpanRecord &s)
{
    w.beginObject();
    w.key("name").string(s.name);
    w.key("ph").string("X");
    w.key("pid").integer(1);
    w.key("tid").integer(s.tid);
    w.key("ts").integer(s.startUs);
    w.key("dur").integer(s.durUs);
    w.key("args").beginObject();
    w.key("id").integer(s.id);
    w.key("parent").integer(s.parent);
    for (const auto &[k, v] : s.attrs)
        w.key(k).string(v);
    w.endObject().endObject();
}

} // namespace

// --------------------------------------------------------------- Tracer

Tracer::Tracer(size_t maxSpans)
    : epoch_(std::chrono::steady_clock::now()), maxSpans_(maxSpans)
{
}

uint64_t
Tracer::nowUs() const
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - epoch_)
            .count());
}

uint32_t
Tracer::tidForThisThread()
{
    std::lock_guard<std::mutex> lock(mutex_);
    const auto [it, fresh] = tids_.try_emplace(
        std::this_thread::get_id(),
        static_cast<uint32_t>(tids_.size()));
    (void)fresh;
    return it->second;
}

uint64_t
Tracer::nextSpanId()
{
    std::lock_guard<std::mutex> lock(mutex_);
    return nextId_++;
}

void
Tracer::record(std::vector<SpanRecord> &&spans)
{
    uint64_t droppedHere = 0;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        for (SpanRecord &s : spans) {
            if (spans_.size() >= maxSpans_) {
                // Keep the oldest: early spans hold the trace's roots
                // and the campaign's structure; the tail of a runaway
                // trace is the repetitive part.
                ++droppedHere;
                continue;
            }
            spans_.push_back(std::move(s));
        }
        dropped_ += droppedHere;
    }
    spans.clear();
    if (droppedHere) {
        Registry::global()
            .counter("rfl_trace_dropped_spans_total",
                     "spans dropped because a tracer hit its cap")
            .inc(droppedHere);
    }
}

std::vector<SpanRecord>
Tracer::spans() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_;
}

size_t
Tracer::size() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_.size();
}

uint64_t
Tracer::droppedSpans() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return dropped_;
}

std::string
Tracer::renderChromeTrace() const
{
    std::string out;
    JsonWriter w(out);
    w.beginObject().key("traceEvents").beginArray();
    std::lock_guard<std::mutex> lock(mutex_);
    for (const SpanRecord &s : spans_)
        writeEvent(w, s);
    w.endArray().endObject();
    return out;
}

void
Tracer::writeTraceJsonl(std::ostream &os) const
{
    std::string out = "[\n";
    {
        std::lock_guard<std::mutex> lock(mutex_);
        for (size_t i = 0; i < spans_.size(); ++i) {
            JsonWriter w(out);
            writeEvent(w, spans_[i]);
            out += i + 1 < spans_.size() ? ",\n" : "\n";
        }
    }
    out += "]\n";
    os << out;
}

// ----------------------------------------------------------- TraceScope

TraceScope::TraceScope(Tracer *tracer)
    : tracer_(tracer), prev_(tl_scope)
{
    if (tracer_)
        tid_ = tracer_->tidForThisThread();
    // A scope with no tracer still pushes itself so current() keeps
    // resolving to the *innermost* binding: an outer traced scope must
    // not capture spans from a region that explicitly disabled tracing.
    tl_scope = this;
}

TraceScope::~TraceScope()
{
    flush();
    tl_scope = prev_;
}

TraceScope *
TraceScope::current()
{
    return tl_scope;
}

void
TraceScope::add(SpanRecord &&rec)
{
    buffer_.push_back(std::move(rec));
    if (buffer_.size() >= kFlushThreshold)
        flush();
}

void
TraceScope::flush()
{
    if (tracer_ && !buffer_.empty())
        tracer_->record(std::move(buffer_));
    buffer_.clear();
}

// ----------------------------------------------------------------- Span

Span::Span(std::string name)
    : scope_(tl_scope && tl_scope->tracer() ? tl_scope : nullptr)
{
    if (!scope_)
        return;
    rec_.name = std::move(name);
    rec_.tid = scope_->tid_;
    rec_.id = scope_->tracer()->nextSpanId();
    rec_.parent = scope_->openSpan_;
    scope_->openSpan_ = rec_.id;
    rec_.startUs = scope_->tracer()->nowUs();
}

Span::~Span()
{
    if (!scope_)
        return;
    rec_.durUs = scope_->tracer()->nowUs() - rec_.startUs;
    scope_->openSpan_ = rec_.parent;
    scope_->add(std::move(rec_));
}

void
Span::attr(std::string key, std::string value)
{
    if (!scope_)
        return;
    rec_.attrs.emplace_back(std::move(key), std::move(value));
}

} // namespace rfl::telemetry
