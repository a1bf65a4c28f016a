#include "telemetry/resource.hh"

#include <algorithm>
#include <cstring>
#include <ctime>
#include <sys/resource.h>

#include "support/number_format.hh"

namespace rfl::telemetry
{

namespace
{

double
timevalSeconds(const timeval &tv)
{
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
}

#ifdef RUSAGE_THREAD
constexpr int kWho = RUSAGE_THREAD;
#else
// Portability fallback (non-Linux): process scope. Deltas are then
// upper bounds when jobs overlap; Linux — the target — has the real
// thing.
constexpr int kWho = RUSAGE_SELF;
#endif

} // namespace

ThreadUsage
ThreadUsage::now()
{
    rusage ru;
    std::memset(&ru, 0, sizeof(ru));
    getrusage(kWho, &ru);
    ThreadUsage u;
    u.utimeSeconds = timevalSeconds(ru.ru_utime);
    u.stimeSeconds = timevalSeconds(ru.ru_stime);
    // ru_maxrss is kilobytes on Linux.
    u.maxrssBytes = static_cast<uint64_t>(ru.ru_maxrss) * 1024;
    u.minorFaults = static_cast<uint64_t>(ru.ru_minflt);
    u.majorFaults = static_cast<uint64_t>(ru.ru_majflt);
    timespec cpu{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &cpu);
    u.cpuSeconds = static_cast<double>(cpu.tv_sec) +
                   static_cast<double>(cpu.tv_nsec) * 1e-9;
    return u;
}

void
ResourceDelta::add(const ResourceDelta &other)
{
    cpuUserSeconds += other.cpuUserSeconds;
    cpuSystemSeconds += other.cpuSystemSeconds;
    maxrssBytes = std::max(maxrssBytes, other.maxrssBytes);
    minorFaults += other.minorFaults;
    majorFaults += other.majorFaults;
}

ResourceDelta
ScopedThreadUsage::delta() const
{
    const ThreadUsage end = ThreadUsage::now();
    ResourceDelta d;
    const double cpu = std::max(0.0, end.cpuSeconds - start_.cpuSeconds);
    const double user =
        std::max(0.0, end.utimeSeconds - start_.utimeSeconds);
    const double system =
        std::max(0.0, end.stimeSeconds - start_.stimeSeconds);
    d.cpuUserSeconds =
        user + system > 0.0 ? cpu * user / (user + system) : cpu;
    d.cpuSystemSeconds = std::max(0.0, cpu - d.cpuUserSeconds);
    d.maxrssBytes = end.maxrssBytes;
    d.minorFaults = end.minorFaults >= start_.minorFaults
                        ? end.minorFaults - start_.minorFaults
                        : 0;
    d.majorFaults = end.majorFaults >= start_.majorFaults
                        ? end.majorFaults - start_.majorFaults
                        : 0;
    return d;
}

StageSpan::~StageSpan()
{
    if (!span_.active())
        return;
    const ResourceDelta d = usage_.delta();
    span_.attr("cpu_s", fixedText(d.cpuSeconds(), 6));
    span_.attr("maj_faults", std::to_string(d.majorFaults));
    span_.attr("min_faults", std::to_string(d.minorFaults));
}

} // namespace rfl::telemetry
