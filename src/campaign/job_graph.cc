#include "campaign/job_graph.hh"

#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>

#include "support/hash.hh"
#include "support/logging.hh"
#include "trace/trace_file.hh"

namespace rfl::campaign
{

namespace
{

/** The part of RunOptions a ceiling characterization is sensitive to. */
std::string
ceilingSignature(const RunOptions &opts)
{
    std::ostringstream out;
    out << "cores=" << formatCoreSet(opts.measure.cores)
        << ",numa=" << sim::memPolicyName(opts.memPolicy)
        << ",prefetch=" << (opts.prefetchEnabled ? 1 : 0);
    return out.str();
}

} // namespace

const char *
jobKindName(JobKind kind)
{
    switch (kind) {
      case JobKind::Ceiling: return "ceiling";
      case JobKind::Measure: return "measure";
      case JobKind::TraceRecord: return "trace-record";
      case JobKind::TraceReplay: return "trace-replay";
      case JobKind::PhaseSample: return "phase";
      case JobKind::NativeMeasure: return "native-measure";
    }
    return "?";
}

bool
yieldsMeasurement(JobKind kind)
{
    return kind == JobKind::Measure || kind == JobKind::TraceReplay ||
           kind == JobKind::NativeMeasure;
}

std::string
Job::describe(const CampaignSpec &spec) const
{
    std::ostringstream out;
    out << jobKindName(kind) << " #" << id << " machine="
        << spec.machines()[machineIndex].label;
    if (kind != JobKind::TraceRecord)
        out << " variant=" << spec.variants()[variantIndex].label;
    if (kind == JobKind::Measure || kind == JobKind::NativeMeasure)
        out << " kernel=" << spec.kernels()[kernelIndex];
    else if (kind == JobKind::TraceRecord ||
             kind == JobKind::TraceReplay)
        out << " trace=" << spec.traces()[kernelIndex];
    else if (kind == JobKind::PhaseSample)
        out << " phase=" << spec.phases()[kernelIndex].spec;
    return out.str();
}

std::string
ceilingCacheKey(const sim::MachineConfig &config, const RunOptions &opts)
{
    return "ceiling|" + hashToHex(config.stableHash()) + "|" +
           ceilingSignature(opts);
}

std::string
measureCacheKey(const sim::MachineConfig &config,
                const std::string &kernelSpec, const RunOptions &opts)
{
    std::string key = "measure|" + hashToHex(config.stableHash()) + "|" +
                      kernelSpec + "|" + opts.canonicalKey();
    // A trace-replay kernel's spec names a file, not a workload: the
    // measurement is determined by the file's *content*, so fold its
    // stable stream hash into the key — regenerating the file must not
    // hit the stale entry. (An unreadable file is left to
    // parseKernelSpec to report; the key just stays content-free.)
    if (kernelSpec.rfind("trace:file=", 0) == 0) {
        trace::TraceReader reader;
        if (reader.open(kernelSpec.substr(11)))
            key += "|content=" + hashToHex(reader.stableHash());
    }
    return key;
}

TraceRecordParams
traceRecordParams(const sim::MachineConfig &config)
{
    TraceRecordParams params;
    params.lanes = config.core.maxVectorDoubles;
    return params;
}

namespace
{

std::string
traceSignature(const sim::MachineConfig &config,
               const std::string &kernelSpec)
{
    const TraceRecordParams params = traceRecordParams(config);
    return hashToHex(config.stableHash()) + "|" + kernelSpec +
           "|lanes=" + std::to_string(params.lanes) +
           ",seed=" + std::to_string(params.seed);
}

} // namespace

std::string
traceRecordCacheKey(const sim::MachineConfig &config,
                    const std::string &kernelSpec)
{
    return "trace|" + traceSignature(config, kernelSpec);
}

std::string
traceReplayCacheKey(const sim::MachineConfig &config,
                    const std::string &kernelSpec,
                    const RunOptions &opts)
{
    return "replay|" + traceSignature(config, kernelSpec) + "|" +
           opts.canonicalKey();
}

std::string
phaseSampleCacheKey(const sim::MachineConfig &config,
                    const PhaseEntry &phase, const RunOptions &opts)
{
    return "phase|" + hashToHex(config.stableHash()) + "|" +
           phase.spec + "|period=" + std::to_string(phase.period) +
           "|" + opts.canonicalKey();
}

std::string
hostIdentityHash()
{
    static const std::string cached = [] {
        Fnv1a h;
        // "model name" and "flags" of the first processor entry: the
        // microarchitecture plus the ISA features visible to kernels.
        std::ifstream in("/proc/cpuinfo");
        std::string line;
        bool model = false, flags = false;
        while ((!model || !flags) && std::getline(in, line)) {
            if (!model && line.rfind("model name", 0) == 0) {
                h.mix(line);
                model = true;
            } else if (!flags && line.rfind("flags", 0) == 0) {
                h.mix(line);
                flags = true;
            }
        }
        // The event map shapes what a hardware row contains: remapping
        // an event must miss the old cache entries.
        const char *events = std::getenv("RFL_PERF_EVENTS");
        h.mix(std::string(events ? events : ""));
        return hashToHex(h.value());
    }();
    return cached;
}

std::string
nativeMeasureCacheKey(const std::string &kernelSpec,
                      const RunOptions &opts)
{
    return "native|" + hostIdentityHash() + "|" + kernelSpec + "|" +
           opts.canonicalKey();
}

JobGraph
JobGraph::expand(const CampaignSpec &spec)
{
    spec.validate();

    JobGraph graph;
    std::vector<Job> &jobs = graph.jobs_;
    const auto addJob = [&jobs](JobKind kind, size_t mi, size_t xi,
                                size_t vi, std::string key) -> Job & {
        Job &job = jobs.emplace_back();
        job.id = jobs.size() - 1;
        job.kind = kind;
        job.machineIndex = mi;
        job.kernelIndex = xi;
        job.variantIndex = vi;
        job.cacheKey = std::move(key);
        return job;
    };

    // Ceiling jobs first, in spec order, so job ids are deterministic.
    // (machine, ceiling signature) -> ceiling job id.
    std::map<std::pair<size_t, std::string>, size_t> ceilings;
    for (size_t mi = 0; mi < spec.machines().size(); ++mi) {
        for (size_t vi = 0; vi < spec.variants().size(); ++vi) {
            const RunOptions &opts = spec.variants()[vi].opts;
            const auto [it, inserted] =
                ceilings.emplace(std::make_pair(mi, ceilingSignature(opts)),
                                 jobs.size());
            if (inserted)
                addJob(JobKind::Ceiling, mi, 0, vi,
                       ceilingCacheKey(spec.machines()[mi].config, opts));
        }
    }
    graph.ceilingJobs_ = jobs.size();

    // One job per (machine, entry, variant) for entries [0, entries),
    // depending first on its scenario's ceiling job — ceilingJobFor
    // follows deps.front(). @return the id of the first job added.
    const auto addGrid = [&](JobKind kind, size_t entries,
                             const auto &cacheKey) {
        const size_t first = jobs.size();
        for (size_t mi = 0; mi < spec.machines().size(); ++mi) {
            for (size_t xi = 0; xi < entries; ++xi) {
                for (size_t vi = 0; vi < spec.variants().size(); ++vi) {
                    const RunOptions &opts = spec.variants()[vi].opts;
                    addJob(kind, mi, xi, vi,
                           cacheKey(spec.machines()[mi].config, xi, opts))
                        .deps.push_back(
                            ceilings.at({mi, ceilingSignature(opts)}));
                }
            }
        }
        return first;
    };

    // Measure jobs, skipped when the spec selects hardware rows only
    // (backend = perf without sim).
    addGrid(JobKind::Measure,
            spec.hasBackend("sim") ? spec.kernels().size() : 0,
            [&](const sim::MachineConfig &config, size_t ki,
                const RunOptions &opts) {
                return measureCacheKey(config, spec.kernels()[ki], opts);
            });

    // Trace-record jobs: one per (machine, trace). The recorded stream
    // is variant-independent (see traceRecordParams), so variants share
    // the recording the way they share ceiling characterizations.
    std::map<std::pair<size_t, size_t>, size_t> records;
    for (size_t mi = 0; mi < spec.machines().size(); ++mi) {
        for (size_t ti = 0; ti < spec.traces().size(); ++ti) {
            records.emplace(std::make_pair(mi, ti), jobs.size());
            // Variant 0 is unused: recording has no variant.
            addJob(JobKind::TraceRecord, mi, ti, 0,
                   traceRecordCacheKey(spec.machines()[mi].config,
                                       spec.traces()[ti]));
        }
    }

    // Trace-replay jobs depend on the ceiling first, then on the
    // recording that supplies the trace file.
    const size_t replays = addGrid(
        JobKind::TraceReplay, spec.traces().size(),
        [&](const sim::MachineConfig &config, size_t ti,
            const RunOptions &opts) {
            return traceReplayCacheKey(config, spec.traces()[ti], opts);
        });
    for (size_t id = replays; id < jobs.size(); ++id)
        jobs[id].deps.push_back(
            records.at({jobs[id].machineIndex, jobs[id].kernelIndex}));

    addGrid(JobKind::PhaseSample, spec.phases().size(),
            [&](const sim::MachineConfig &config, size_t pi,
                const RunOptions &opts) {
                return phaseSampleCacheKey(config, spec.phases()[pi], opts);
            });

    // NativeMeasure jobs last (backend = perf), appended after every
    // sim job so sim job ids — and with them every pre-existing cached
    // artifact — are unchanged by the presence of hardware rows.
    if (spec.hasBackend("perf")) {
        const size_t natives = addGrid(
            JobKind::NativeMeasure, spec.kernels().size(),
            [&](const sim::MachineConfig &, size_t ki,
                const RunOptions &opts) {
                return nativeMeasureCacheKey(spec.kernels()[ki], opts);
            });
        // The cache key deliberately ignores the machine index (the
        // row measures the host, not the simulated machine), so a
        // multi-machine spec repeats keys. Chain each duplicate behind
        // the first job with its key: one native run happens, the rest
        // replay it from the cache instead of racing it cold.
        std::map<std::string, size_t> firstByKey;
        for (size_t id = natives; id < jobs.size(); ++id) {
            const auto [it, inserted] =
                firstByKey.emplace(jobs[id].cacheKey, id);
            if (!inserted)
                jobs[id].deps.push_back(it->second);
        }
    }
    return graph;
}

size_t
JobGraph::ceilingJobFor(const Job &job) const
{
    if (job.kind == JobKind::Ceiling)
        return job.id;
    if (job.kind == JobKind::TraceRecord)
        panic("trace-record job #%zu has no ceiling job", job.id);
    RFL_ASSERT(!job.deps.empty());
    return job.deps.front();
}

} // namespace rfl::campaign
