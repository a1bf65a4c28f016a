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
    out << "cores=" << formatCoreSet(opts.measure.cores) << ",numa=";
    switch (opts.memPolicy) {
      case sim::MemPolicy::Socket0: out << "socket0"; break;
      case sim::MemPolicy::LocalToAccessor: out << "local"; break;
      case sim::MemPolicy::Interleave: out << "interleave"; break;
    }
    out << ",prefetch=" << (opts.prefetchEnabled ? 1 : 0);
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
    // (machine, ceiling signature) -> ceiling job id.
    std::map<std::pair<size_t, std::string>, size_t> ceilings;

    // Ceiling jobs first, in spec order, so job ids are deterministic.
    for (size_t mi = 0; mi < spec.machines().size(); ++mi) {
        for (size_t vi = 0; vi < spec.variants().size(); ++vi) {
            const Variant &v = spec.variants()[vi];
            const std::string sig = ceilingSignature(v.opts);
            const auto key = std::make_pair(mi, sig);
            if (ceilings.count(key))
                continue;
            Job job;
            job.id = graph.jobs_.size();
            job.kind = JobKind::Ceiling;
            job.machineIndex = mi;
            job.variantIndex = vi;
            job.cacheKey =
                ceilingCacheKey(spec.machines()[mi].config, v.opts);
            ceilings.emplace(key, job.id);
            graph.jobs_.push_back(std::move(job));
        }
    }
    graph.ceilingJobs_ = graph.jobs_.size();

    // Measure jobs: machines x kernels x variants, each depending on its
    // scenario's ceiling job. Skipped when the spec selects hardware
    // rows only (backend = perf without sim).
    const size_t simKernels =
        spec.hasBackend("sim") ? spec.kernels().size() : 0;
    for (size_t mi = 0; mi < spec.machines().size(); ++mi) {
        for (size_t ki = 0; ki < simKernels; ++ki) {
            for (size_t vi = 0; vi < spec.variants().size(); ++vi) {
                const Variant &v = spec.variants()[vi];
                Job job;
                job.id = graph.jobs_.size();
                job.kind = JobKind::Measure;
                job.machineIndex = mi;
                job.kernelIndex = ki;
                job.variantIndex = vi;
                job.cacheKey = measureCacheKey(
                    spec.machines()[mi].config, spec.kernels()[ki],
                    v.opts);
                job.deps.push_back(
                    ceilings.at({mi, ceilingSignature(v.opts)}));
                graph.jobs_.push_back(std::move(job));
            }
        }
    }

    // Trace-record jobs: one per (machine, trace). The recorded stream
    // is variant-independent (see traceRecordParams), so variants share
    // the recording the way they share ceiling characterizations.
    std::map<std::pair<size_t, size_t>, size_t> records;
    for (size_t mi = 0; mi < spec.machines().size(); ++mi) {
        for (size_t ti = 0; ti < spec.traces().size(); ++ti) {
            Job job;
            job.id = graph.jobs_.size();
            job.kind = JobKind::TraceRecord;
            job.machineIndex = mi;
            job.kernelIndex = ti;
            job.variantIndex = 0; // unused; recording has no variant
            job.cacheKey = traceRecordCacheKey(
                spec.machines()[mi].config, spec.traces()[ti]);
            records.emplace(std::make_pair(mi, ti), job.id);
            graph.jobs_.push_back(std::move(job));
        }
    }

    // Trace-replay jobs: machines x traces x variants. Dep order is
    // load-bearing: ceiling first (ceilingJobFor follows deps.front()),
    // then the recording that supplies the trace file.
    for (size_t mi = 0; mi < spec.machines().size(); ++mi) {
        for (size_t ti = 0; ti < spec.traces().size(); ++ti) {
            for (size_t vi = 0; vi < spec.variants().size(); ++vi) {
                const Variant &v = spec.variants()[vi];
                Job job;
                job.id = graph.jobs_.size();
                job.kind = JobKind::TraceReplay;
                job.machineIndex = mi;
                job.kernelIndex = ti;
                job.variantIndex = vi;
                job.cacheKey = traceReplayCacheKey(
                    spec.machines()[mi].config, spec.traces()[ti],
                    v.opts);
                job.deps.push_back(
                    ceilings.at({mi, ceilingSignature(v.opts)}));
                job.deps.push_back(records.at({mi, ti}));
                graph.jobs_.push_back(std::move(job));
            }
        }
    }

    // Phase-sample jobs: machines x phases x variants, each depending
    // on its scenario's ceiling job (like Measure jobs).
    for (size_t mi = 0; mi < spec.machines().size(); ++mi) {
        for (size_t pi = 0; pi < spec.phases().size(); ++pi) {
            for (size_t vi = 0; vi < spec.variants().size(); ++vi) {
                const Variant &v = spec.variants()[vi];
                Job job;
                job.id = graph.jobs_.size();
                job.kind = JobKind::PhaseSample;
                job.machineIndex = mi;
                job.kernelIndex = pi;
                job.variantIndex = vi;
                job.cacheKey = phaseSampleCacheKey(
                    spec.machines()[mi].config, spec.phases()[pi],
                    v.opts);
                job.deps.push_back(
                    ceilings.at({mi, ceilingSignature(v.opts)}));
                graph.jobs_.push_back(std::move(job));
            }
        }
    }

    // NativeMeasure jobs last (backend = perf): machines x kernels x
    // variants, appended after every sim job so sim job ids — and with
    // them every pre-existing cached artifact — are unchanged by the
    // presence of hardware rows.
    if (spec.hasBackend("perf")) {
        // The cache key deliberately ignores the machine index (the
        // row measures the host, not the simulated machine), so a
        // multi-machine spec repeats keys. Chain each duplicate behind
        // the first job with its key: one native run happens, the rest
        // replay it from the cache instead of racing it cold.
        std::map<std::string, size_t> firstByKey;
        for (size_t mi = 0; mi < spec.machines().size(); ++mi) {
            for (size_t ki = 0; ki < spec.kernels().size(); ++ki) {
                for (size_t vi = 0; vi < spec.variants().size(); ++vi) {
                    const Variant &v = spec.variants()[vi];
                    Job job;
                    job.id = graph.jobs_.size();
                    job.kind = JobKind::NativeMeasure;
                    job.machineIndex = mi;
                    job.kernelIndex = ki;
                    job.variantIndex = vi;
                    job.cacheKey = nativeMeasureCacheKey(
                        spec.kernels()[ki], v.opts);
                    // Ceiling first: ceilingJobFor follows deps.front().
                    job.deps.push_back(
                        ceilings.at({mi, ceilingSignature(v.opts)}));
                    const auto [it, inserted] =
                        firstByKey.emplace(job.cacheKey, job.id);
                    if (!inserted)
                        job.deps.push_back(it->second);
                    graph.jobs_.push_back(std::move(job));
                }
            }
        }
    }
    return graph;
}

size_t
JobGraph::ceilingJobFor(const Job &job) const
{
    switch (job.kind) {
      case JobKind::Ceiling:
        return job.id;
      case JobKind::TraceRecord:
        panic("trace-record job #%zu has no ceiling job", job.id);
      case JobKind::Measure:
      case JobKind::TraceReplay:
      case JobKind::PhaseSample:
      case JobKind::NativeMeasure:
        break;
    }
    RFL_ASSERT(!job.deps.empty());
    return job.deps.front();
}

} // namespace rfl::campaign
