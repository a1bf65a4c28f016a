#include "telemetry/profiler.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <map>
#include <mutex>
#include <sstream>

#if RFL_PROFILER_ENABLED
#include <cxxabi.h>
#include <dlfcn.h>
#include <execinfo.h>
#include <signal.h>
#include <sys/time.h>
#include <time.h>
#endif

#include "support/escape.hh"
#include "support/json.hh"
#include "support/logging.hh"
#include "support/number_format.hh"

namespace rfl::telemetry
{

namespace
{

#if RFL_PROFILER_ENABLED

/**
 * Everything SIGPROF touches. Allocated and fully initialized before
 * the timer is armed; the handler only claims slots and writes into
 * preallocated memory.
 */
struct SamplerState
{
    std::vector<void *> frames;    ///< maxSamples x maxDepth slots
    std::vector<uint16_t> depths;  ///< frames captured per slot
    std::atomic<uint64_t> next{0}; ///< slot claim cursor
    std::atomic<uint64_t> dropped{0};
    size_t maxSamples = 0;
    size_t maxDepth = 0;
    std::atomic<bool> armed{false};
};

std::mutex g_mutex;
SamplerState *g_state = nullptr; ///< published before the timer arms
bool g_running = false;
ProfilerOptions g_opts;
std::chrono::steady_clock::time_point g_startedAt;
double g_startedCpu = 0.0;

/** CPU seconds consumed so far by every thread of the process. */
double
processCpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

extern "C" void
rflProfilerSignalHandler(int)
{
    SamplerState *s = g_state;
    if (!s || !s->armed.load(std::memory_order_acquire))
        return;
    const uint64_t slot = s->next.fetch_add(1, std::memory_order_relaxed);
    if (slot >= s->maxSamples) {
        s->dropped.fetch_add(1, std::memory_order_relaxed);
        return;
    }
    // backtrace() writes straight into this slot's frame run — no
    // allocation, no locks. Primed in start() so libgcc is already
    // resident.
    void **dst = s->frames.data() + slot * s->maxDepth;
    const int n = backtrace(dst, static_cast<int>(s->maxDepth));
    s->depths[slot] = static_cast<uint16_t>(n > 0 ? n : 0);
}

/** Best-effort symbol name for one return address (not in a handler). */
std::string
symbolFor(void *addr)
{
    Dl_info info;
    if (dladdr(addr, &info) && info.dli_sname) {
        int status = 0;
        char *demangled = abi::__cxa_demangle(info.dli_sname, nullptr,
                                              nullptr, &status);
        if (status == 0 && demangled) {
            std::string out(demangled);
            free(demangled);
            return out;
        }
        return info.dli_sname;
    }
    if (dladdr(addr, &info) && info.dli_fname) {
        const char *base = std::strrchr(info.dli_fname, '/');
        base = base ? base + 1 : info.dli_fname;
        char buf[128];
        std::snprintf(buf, sizeof(buf), "%s+%p", base,
                      reinterpret_cast<void *>(
                          reinterpret_cast<char *>(addr) -
                          reinterpret_cast<char *>(info.dli_fbase)));
        return buf;
    }
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%p", addr);
    return buf;
}

#endif // RFL_PROFILER_ENABLED

} // namespace

// ------------------------------------------------------------- Profiler

Profiler &
Profiler::instance()
{
    static Profiler p;
    return p;
}

bool
Profiler::compiledIn()
{
#if RFL_PROFILER_ENABLED
    return true;
#else
    return false;
#endif
}

#if RFL_PROFILER_ENABLED

bool
Profiler::start(ProfilerOptions opts)
{
    RFL_ASSERT(opts.hz > 0 && opts.maxSamples > 0 && opts.maxDepth > 0);
    std::lock_guard<std::mutex> lock(g_mutex);
    if (g_running)
        return false;

    // Prime backtrace(): its first call may dlopen libgcc, which is
    // not async-signal-safe — force that to happen here, not in the
    // handler.
    void *prime[2];
    backtrace(prime, 2);

    auto *state = new SamplerState;
    state->maxSamples = opts.maxSamples;
    state->maxDepth = opts.maxDepth;
    state->frames.assign(opts.maxSamples * opts.maxDepth, nullptr);
    state->depths.assign(opts.maxSamples, 0);
    state->armed.store(true, std::memory_order_release);
    g_state = state;
    g_opts = opts;
    g_startedAt = std::chrono::steady_clock::now();
    g_startedCpu = processCpuSeconds();

    struct sigaction sa;
    std::memset(&sa, 0, sizeof(sa));
    sa.sa_handler = rflProfilerSignalHandler;
    sa.sa_flags = SA_RESTART;
    sigemptyset(&sa.sa_mask);
    sigaction(SIGPROF, &sa, nullptr);

    itimerval timer;
    timer.it_interval.tv_sec = 0;
    timer.it_interval.tv_usec =
        static_cast<suseconds_t>(1000000 / opts.hz);
    timer.it_value = timer.it_interval;
    setitimer(ITIMER_PROF, &timer, nullptr);

    g_running = true;
    return true;
}

Profile
Profiler::stop(const std::string &label)
{
    std::lock_guard<std::mutex> lock(g_mutex);
    Profile profile;
    profile.label = label;
    if (!g_running)
        return profile;

    itimerval off;
    std::memset(&off, 0, sizeof(off));
    setitimer(ITIMER_PROF, &off, nullptr);
    profile.cpuSeconds = processCpuSeconds() - g_startedCpu;
    g_state->armed.store(false, std::memory_order_release);
    signal(SIGPROF, SIG_IGN);

    // The timer is disarmed and the armed flag is down; any handler
    // already past the flag check writes into preallocated slots, so
    // reading the arrays now is safe (worst case we miss its depths
    // store — one sample, not corruption).
    SamplerState *state = g_state;
    profile.hz = g_opts.hz;
    profile.seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      g_startedAt)
            .count();
    const uint64_t taken = std::min<uint64_t>(
        state->next.load(std::memory_order_relaxed), state->maxSamples);
    profile.samples = taken;
    profile.dropped = state->dropped.load(std::memory_order_relaxed);

    // Symbolize with a per-address cache: a profile has thousands of
    // frames but few distinct addresses.
    std::map<void *, std::string> names;
    auto nameFor = [&names](void *addr) -> const std::string & {
        auto it = names.find(addr);
        if (it == names.end())
            it = names.emplace(addr, symbolFor(addr)).first;
        return it->second;
    };

    std::vector<std::vector<std::string>> raw;
    raw.reserve(taken);
    for (uint64_t i = 0; i < taken; ++i) {
        void **fr = state->frames.data() + i * state->maxDepth;
        const size_t depth = state->depths[i];
        // Leading frames are the signal path: the handler, then the
        // kernel's signal-return trampoline. Cut through the handler
        // by name and the trampoline by position (glibc does not
        // export its name, so dladdr renders it as "libc.so.6+0x…"),
        // leaving the interrupted function as the leaf.
        size_t start = 0;
        for (size_t f = 0; f < depth; ++f) {
            const std::string &sym = nameFor(fr[f]);
            if (sym.find("rflProfilerSignalHandler") !=
                std::string::npos) {
                start = f + 2;
                break;
            }
        }
        if (start >= depth)
            continue;
        std::vector<std::string> stack;
        stack.reserve(depth - start);
        // backtrace() is leaf-first; collapsed stacks are root-first.
        for (size_t f = depth; f > start; --f)
            stack.push_back(nameFor(fr[f - 1]));
        raw.push_back(std::move(stack));
    }
    profile.stacks = collapseStacks(raw);

    delete state;
    g_state = nullptr;
    g_running = false;
    return profile;
}

bool
Profiler::running() const
{
    std::lock_guard<std::mutex> lock(g_mutex);
    return g_running;
}

#else // !RFL_PROFILER_ENABLED

bool
Profiler::start(ProfilerOptions)
{
    return false;
}

Profile
Profiler::stop(const std::string &label)
{
    Profile profile;
    profile.label = label;
    return profile;
}

bool
Profiler::running() const
{
    return false;
}

#endif // RFL_PROFILER_ENABLED

// --------------------------------------------------- pure aggregation

std::vector<CollapsedStack>
collapseStacks(const std::vector<std::vector<std::string>> &stacks)
{
    std::map<std::string, uint64_t> agg;
    for (const std::vector<std::string> &stack : stacks) {
        if (stack.empty())
            continue;
        std::string key;
        for (size_t i = 0; i < stack.size(); ++i) {
            if (i)
                key += ';';
            key += stack[i];
        }
        agg[key] += 1;
    }
    std::vector<CollapsedStack> out;
    out.reserve(agg.size());
    for (const auto &[stack, count] : agg)
        out.push_back({stack, count});
    std::sort(out.begin(), out.end(),
              [](const CollapsedStack &a, const CollapsedStack &b) {
                  if (a.count != b.count)
                      return a.count > b.count;
                  return a.stack < b.stack;
              });
    return out;
}

std::string
renderProfileJson(const Profile &profile)
{
    std::string out;
    JsonWriter w(out);
    w.beginObject();
    w.key("kind").string("rfl-profile");
    w.key("schema_version").integer(1);
    w.key("label").string(profile.label);
    w.key("hz").integer(profile.hz);
    w.key("seconds").raw(fixedText(profile.seconds, 6));
    w.key("cpu_seconds").raw(fixedText(profile.cpuSeconds, 6));
    w.key("effective_hz").raw(fixedText(profile.effectiveHz(), 3));
    w.key("samples").integer(profile.samples);
    w.key("dropped").integer(profile.dropped);
    w.key("stacks").beginArray();
    for (const CollapsedStack &st : profile.stacks)
        w.beginObject().key("stack").string(st.stack)
            .key("count").integer(st.count).endObject();
    w.endArray().endObject();
    return out;
}

// ------------------------------------------------------ flamegraph SVG

namespace
{

/** Frame trie node; inclusive count = sum of inserted stack counts. */
struct FlameNode
{
    uint64_t total = 0;
    std::map<std::string, FlameNode> kids;
};

/** Deterministic warm fill per frame name (classic flame look). */
const char *
flameColor(const std::string &name)
{
    static const char *kWarm[] = {"#e34948", "#eb6834", "#f08a3c",
                                  "#eda100", "#d95926", "#e66767"};
    uint64_t h = 1469598103934665603ull;
    for (char c : name)
        h = (h ^ static_cast<unsigned char>(c)) * 1099511628211ull;
    return kWarm[h % (sizeof(kWarm) / sizeof(kWarm[0]))];
}

size_t
flameDepth(const FlameNode &node)
{
    size_t deepest = 0;
    for (const auto &[name, kid] : node.kids)
        deepest = std::max(deepest, flameDepth(kid));
    return deepest + 1;
}

void
emitFlameRow(std::ostringstream &svg, const FlameNode &node,
             const std::string &name, double x, double scale,
             size_t depth, double bottomY, uint64_t rootTotal)
{
    constexpr double kRowH = 17.0;
    const double w = node.total * scale;
    const double y = bottomY - (depth + 1) * kRowH;
    if (w >= 0.5 && depth > 0) { // depth 0 is the synthetic root
        char rect[256];
        std::snprintf(rect, sizeof(rect),
                      "<rect x=\"%.1f\" y=\"%.1f\" width=\"%.1f\" "
                      "height=\"%.0f\" rx=\"1\" fill=\"%s\" "
                      "stroke=\"#fcfcfb\" stroke-width=\"0.5\">",
                      x, y, w, kRowH - 1.0, flameColor(name));
        svg << rect << "<title>" << escapeXml(name) << " — "
            << node.total << " samples ("
            << (rootTotal ? 100.0 * node.total / rootTotal : 0.0)
            << "%)</title></rect>";
        if (w >= 40.0) {
            const size_t fit = static_cast<size_t>((w - 6) / 6.5);
            std::string text = name.size() > fit
                                   ? name.substr(0, fit > 2 ? fit - 2 : 0) + ".."
                                   : name;
            char tx[128];
            std::snprintf(tx, sizeof(tx),
                          "<text x=\"%.1f\" y=\"%.1f\" "
                          "font-size=\"11\" fill=\"#0b0b0b\">",
                          x + 3, y + kRowH - 5);
            svg << tx << escapeXml(text) << "</text>";
        }
    }
    double childX = x;
    for (const auto &[kidName, kid] : node.kids) {
        emitFlameRow(svg, kid, kidName, childX, scale, depth + 1,
                     bottomY, rootTotal);
        childX += kid.total * scale;
    }
}

} // namespace

std::string
renderFlamegraphSvg(const std::vector<CollapsedStack> &stacks,
                    const std::string &title)
{
    FlameNode root;
    for (const CollapsedStack &cs : stacks) {
        root.total += cs.count;
        FlameNode *node = &root;
        size_t pos = 0;
        while (pos <= cs.stack.size()) {
            const size_t sep = cs.stack.find(';', pos);
            const std::string frame = cs.stack.substr(
                pos, sep == std::string::npos ? std::string::npos
                                              : sep - pos);
            node = &node->kids[frame];
            node->total += cs.count;
            if (sep == std::string::npos)
                break;
            pos = sep + 1;
        }
    }

    constexpr double kWidth = 1200.0;
    constexpr double kRowH = 17.0;
    constexpr double kHeader = 28.0;
    const size_t depth = root.kids.empty() ? 1 : flameDepth(root) - 1;
    const double height = kHeader + depth * kRowH + 8.0;
    const double scale = root.total ? (kWidth - 20.0) / root.total : 0.0;

    std::ostringstream svg;
    svg << "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\""
        << kWidth << "\" height=\"" << height << "\" viewBox=\"0 0 "
        << kWidth << " " << height << "\" font-family=\"monospace\">"
        << "<rect width=\"100%\" height=\"100%\" fill=\"#fcfcfb\"/>"
        << "<text x=\"10\" y=\"18\" font-size=\"13\" fill=\"#0b0b0b\" "
        << "font-weight=\"bold\">" << escapeXml(title) << " — "
        << root.total << " samples</text>";
    emitFlameRow(svg, root, "", 10.0, scale, 0, height - 4.0,
                 root.total);
    svg << "</svg>";
    return svg.str();
}

} // namespace rfl::telemetry
