/**
 * @file
 * roofline_report — the analysis subsystem's command-line front-end:
 * campaign results in, conclusions out.
 *
 * Report mode (default): run a campaign (result-cached like
 * roofline_campaign) and emit the analysis artifact set — one
 * self-contained SVG roofline per scenario, an HTML report bundling
 * plots and derived-metric tables, and a machine-readable
 * analysis.json (schema v4):
 *
 *   roofline_report                             # built-in gate campaign
 *   roofline_report --file my_campaign.txt
 *   roofline_report --out report --cache report/cache.jsonl
 *
 * Regression gating: compare the fresh analysis.json against a
 * committed baseline and exit non-zero when any kernel/metric moved
 * past its threshold (the CI gate):
 *
 *   roofline_report --baseline bench/analysis_baseline.json
 *
 * Pure diff mode (no simulation — compare two existing documents):
 *
 *   roofline_report --diff base_analysis.json new_analysis.json
 *
 * Sim-vs-silicon deltas: a campaign run with `backend = sim` AND
 * `backend = perf` produces paired rows; the delta table compares each
 * cell's hardware point against its simulated prediction. --hw-gate
 * turns the comparison directional: exit 1 when any available hardware
 * row lands more than --threshold-hw below the model (silicon beating
 * the model never gates; unavailable rows are named, never failed):
 *
 *   roofline_report --file both_backends.txt --hw-gate
 *
 * Thresholds are relative fractions: --threshold-perf 0.05 gates a
 * >5% performance drop; --threshold-oi, --threshold-traffic,
 * --threshold-seconds and --threshold-ceiling work the same way in
 * each metric's worse direction (see analysis/diff.hh).
 */

#include <iostream>

#include "analysis/diff.hh"
#include "campaign/executor.hh"
#include "campaign/sink.hh"
#include "support/cli.hh"
#include "support/csv.hh"

namespace
{

/**
 * The built-in campaign the CI regression gate runs: a handful of
 * kernels spanning memory- and compute-bound regimes, cold and warm
 * protocols, plus one phase-resolved entry. Small enough for the
 * ASan/UBSan job, rich enough that a simulator behavior change moves
 * at least one gated metric.
 */
const char *const gate_campaign =
    "name = gate\n"
    "machine = default\n"
    "kernel = sum:n=262144\n"
    "kernel = daxpy:n=262144\n"
    "kernel = triad:n=1048576\n"
    "kernel = dgemm-opt:n=128\n"
    "kernel = fft:n=65536\n"
    "phase = fft:n=65536 period=131072\n"
    "phase = dgemm-blocked:n=96,block=32 period=16384\n"
    "variant = cold-1c: protocol=cold cores=0 reps=1\n"
    "variant = warm-1c: protocol=warm cores=0 reps=1\n";

rfl::analysis::DiffThresholds
thresholdsFromCli(const rfl::Cli &cli)
{
    rfl::analysis::DiffThresholds thr;
    thr.perfDrop = cli.getDouble("threshold-perf", thr.perfDrop);
    thr.oiDrop = cli.getDouble("threshold-oi", thr.oiDrop);
    thr.trafficRise =
        cli.getDouble("threshold-traffic", thr.trafficRise);
    thr.secondsRise =
        cli.getDouble("threshold-seconds", thr.secondsRise);
    thr.ceilingDrop =
        cli.getDouble("threshold-ceiling", thr.ceilingDrop);
    return thr;
}

/** @return process exit code: 0 clean, 1 when the gate fails. */
int
runDiff(const rfl::analysis::CampaignAnalysis &baseline,
        const rfl::analysis::CampaignAnalysis &current,
        const rfl::analysis::DiffThresholds &thr, bool verbose)
{
    using namespace rfl;
    const analysis::DiffReport report =
        analysis::diffAnalyses(baseline, current, thr);
    if (verbose) {
        report.table().print(std::cout);
        std::cout << "\n";
    }
    report.print(std::cout);
    return report.hasRegressions() ? 1 : 0;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace rfl;
    namespace cp = rfl::campaign;

    Cli cli;
    cli.addOption("file", "campaign description file (default: "
                          "built-in gate campaign)");
    cli.addOption("out", "artifact directory (default: $RFL_OUT_DIR "
                         "or ./out)");
    cli.addOption("cache", "JSONL result-cache path (empty = "
                           "in-memory only)",
                  "<out>/cache/campaign.jsonl");
    cli.addOption("threads", "host worker threads (0 = all hardware "
                             "threads)", "0");
    cli.addOption("baseline", "analysis.json to gate the fresh run "
                              "against (exit 1 on regression)");
    cli.addOption("diff", "compare two analysis.json files (positional "
                          "args) without simulating");
    cli.addOption("verbose", "print the full per-metric diff table");
    cli.addOption("threshold-perf", "relative perf-drop gate", "0.05");
    cli.addOption("threshold-oi", "relative OI-drop gate", "0.10");
    cli.addOption("threshold-traffic", "relative traffic-rise gate",
                  "0.10");
    cli.addOption("threshold-seconds", "relative runtime-rise gate",
                  "0.05");
    cli.addOption("threshold-ceiling", "relative ceiling-drop gate",
                  "0.02");
    cli.addOption("hw-gate",
                  "exit 1 when any available hardware row falls more "
                  "than --threshold-hw below its simulated prediction");
    cli.addOption("threshold-hw",
                  "relative sim-vs-silicon perf-drop gate", "0.50");
    cli.parse(argc, argv);

    const analysis::DiffThresholds thr = thresholdsFromCli(cli);

    if (cli.has("diff")) {
        // Accept both "--diff base cur" (the option eats the first
        // path as its value) and "--diff=base cur".
        std::vector<std::string> files;
        if (!cli.get("diff").empty())
            files.push_back(cli.get("diff"));
        for (const std::string &p : cli.positional())
            files.push_back(p);
        if (files.size() != 2) {
            fatal("--diff expects two analysis.json paths: "
                  "--diff <baseline.json> <current.json>");
        }
        const analysis::CampaignAnalysis baseline =
            analysis::loadAnalysisFile(files[0]);
        const analysis::CampaignAnalysis current =
            analysis::loadAnalysisFile(files[1]);
        return runDiff(baseline, current, thr, cli.has("verbose"));
    }

    const std::string out = cli.get("out", outputDirectory());
    ensureDirectory(out);

    const cp::CampaignSpec spec =
        cli.has("file") ? cp::loadCampaignSpec(cli.get("file"))
                        : cp::parseCampaignSpec(gate_campaign);

    std::string cache_path = cli.get("cache", "<default>");
    if (cache_path == "<default>") {
        ensureDirectory(out + "/cache");
        cache_path = out + "/cache/campaign.jsonl";
    }

    cp::ExecutorOptions exec;
    exec.threads =
        static_cast<int>(cli.getInt("threads", 0, 0, maxThreadsFlag));
    exec.traceDir = out + "/traces";
    std::unique_ptr<cp::ResultCache> cache;
    if (!cache_path.empty()) {
        cache = std::make_unique<cp::ResultCache>(cache_path);
        exec.cache = cache.get();
    }

    const cp::CampaignRun run = cp::CampaignExecutor(exec).run(spec);
    cp::printCampaignStats(run, std::cout);
    const analysis::CampaignAnalysis doc =
        cp::writeCampaignReport(run, out, std::cout);
    analysisTable(doc).print(std::cout);
    std::cout << "\n";

    // Sim-vs-silicon: printed whenever the document has hardware rows;
    // gating is opt-in (--hw-gate) because the tolerance is a
    // methodology question, not a correctness one.
    const analysis::HardwareDeltaReport hw = analysis::hardwareDelta(doc);
    if (!hw.empty()) {
        std::cout << "sim-vs-silicon deltas:\n";
        hw.table().print(std::cout);
        const size_t violations =
            hw.gate(cli.getDouble("threshold-hw", 0.50), std::cout);
        std::cout << "\n";
        if (cli.has("hw-gate") && violations > 0)
            return 1;
    } else if (cli.has("hw-gate")) {
        std::cout << "hw-gate: no hardware rows in this campaign "
                     "(add `backend = perf` to the spec)\n";
    }

    if (cli.has("baseline")) {
        const analysis::CampaignAnalysis baseline =
            analysis::loadAnalysisFile(cli.get("baseline"));
        return runDiff(baseline, doc, thr, cli.has("verbose"));
    }
    return 0;
}
