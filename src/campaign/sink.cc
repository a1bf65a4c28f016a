#include "campaign/sink.hh"

#include <ostream>

#include "analysis/report.hh"
#include "roofline/plot.hh"
#include "support/csv.hh"
#include "support/units.hh"

namespace rfl::campaign
{

std::string
writeCampaignCsv(const CampaignRun &run, const std::string &dir,
                 const std::string &name)
{
    ensureDirectory(dir);
    const std::string path = dir + "/" + name + ".csv";
    CsvWriter csv(path,
                  {"machine", "variant", "kernel", "size", "protocol",
                   "cores", "lanes", "flops", "traffic_bytes", "seconds",
                   "oi", "flops_per_sec", "expected_flops",
                   "expected_traffic_bytes", "work_err", "traffic_err",
                   "backend", "quality"});
    // Trace-replay jobs produce ordinary measurements; they appear as
    // rows alongside direct kernel measurements (kernel column reads
    // "trace(<spec>)"). Hardware (NativeMeasure) rows join the same
    // table with backend=perf; unavailable placeholders are skipped —
    // a CSV of zeros is worse than an absent row the report names.
    for (const Job &job : run.jobs) {
        if (!yieldsMeasurement(job.kind))
            continue;
        const roofline::Measurement &m = run.results[job.id].measurement;
        if (!m.available)
            continue;
        csv.addRow({run.spec.machines()[job.machineIndex].label,
                    run.spec.variants()[job.variantIndex].label, m.kernel,
                    m.sizeLabel, m.protocol, std::to_string(m.cores),
                    std::to_string(m.lanes), formatSig(m.flops, 12),
                    formatSig(m.trafficBytes, 12),
                    formatSig(m.seconds, 12), formatSig(m.oi(), 8),
                    formatSig(m.perf(), 8),
                    formatSig(m.expectedFlops, 12),
                    formatSig(m.expectedTrafficBytes, 12),
                    formatSig(m.workError(), 6),
                    formatSig(m.trafficError(), 6), m.backend,
                    formatSig(m.quality, 6)});
    }
    return path;
}

Table
summaryTable(const CampaignRun &run)
{
    Table t({"machine", "variant", "kernel", "size", "backend",
             "W [flops]", "Q [bytes]", "T [s]", "I [f/B]", "P [GF/s]"});
    for (const Job &job : run.jobs) {
        if (!yieldsMeasurement(job.kind))
            continue;
        const roofline::Measurement &m = run.results[job.id].measurement;
        if (!m.available) {
            t.addRow({run.spec.machines()[job.machineIndex].label,
                      run.spec.variants()[job.variantIndex].label,
                      m.kernel, m.sizeLabel, m.backend, "-", "-", "-",
                      "-", "unavailable"});
            continue;
        }
        t.addRow({run.spec.machines()[job.machineIndex].label,
                  run.spec.variants()[job.variantIndex].label, m.kernel,
                  m.sizeLabel, m.backend, formatSig(m.flops, 6),
                  formatSig(m.trafficBytes, 6), formatSig(m.seconds, 6),
                  formatSig(m.oi(), 4), formatSig(m.perf() / 1e9, 4)});
    }
    return t;
}

void
emitCampaign(const CampaignRun &run, const std::string &dir,
             std::ostream &os)
{
    ensureDirectory(dir);
    const std::string csv = writeCampaignCsv(run, dir, run.spec.name());

    // The analysis report's scenario plots, so the .gp files and its
    // SVGs show the same points under the same labels.
    const analysis::CampaignAnalysis doc = analysis::analyzeCampaign(run);
    for (const analysis::Scenario &s : doc.scenarios) {
        const roofline::RooflinePlot plot =
            analysis::scenarioPlot(doc, s, nullptr);
        plot.writeGnuplot(dir,
                          doc.campaign + "_" + s.machine + "_" + s.variant);
        os << plot.renderAscii() << "\n";
    }

    summaryTable(run).print(os);
    os << "\n";
    printCampaignStats(run, os);
    os << "wrote " << csv << " (+ per-scenario .dat/.gp)\n";
}

analysis::CampaignAnalysis
writeCampaignReport(const CampaignRun &run, const std::string &dir,
                    std::ostream &os)
{
    const analysis::CampaignAnalysis doc =
        analysis::analyzeCampaign(run);
    const analysis::ReportPaths paths =
        analysis::writeAnalysisReport(doc, dir, run.spec.name());
    os << "analysis report: " << paths.html << ", " << paths.json
       << " (+ " << paths.svgs.size() << " SVG roofline(s))\n";
    return doc;
}

void
printCampaignStats(const CampaignRun &run, std::ostream &os)
{
    os << "campaign '" << run.spec.name() << "': " << run.jobs.size()
       << " jobs (" << run.simulated << " simulated, " << run.cacheHits
       << " from cache) on " << run.threadsUsed << " host thread(s) in "
       << formatSig(run.wallSeconds, 4) << " s\n";
    if (run.jobsByKind.empty())
        return;
    os << "  by kind:";
    bool first = true;
    for (const auto &[kind, stats] : run.jobsByKind) {
        os << (first ? " " : ", ") << kind << " x" << stats.count << " ("
           << formatSig(stats.seconds, 3) << " s wall, "
           << formatSig(stats.cpuSeconds, 3) << " s cpu)";
        first = false;
    }
    os << "\n";
    os << "  resources: " << formatSig(run.resources.cpuSeconds(), 3)
       << " s cpu (" << formatSig(run.resources.cpuUserSeconds, 3)
       << " usr + " << formatSig(run.resources.cpuSystemSeconds, 3)
       << " sys), peak rss "
       << run.resources.maxrssBytes / (1024 * 1024) << " MiB, "
       << run.resources.majorFaults << " major fault(s)\n";
}

} // namespace rfl::campaign
