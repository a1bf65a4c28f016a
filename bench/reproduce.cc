/**
 * @file
 * reproduce — every figure and table of the reproduction in one run.
 *
 * Each spec file under bench/specs/ declares one figure, table or
 * ablation of Ofenbeck et al., "Applying the Roofline Model" (ISPASS
 * 2014) as a campaign grid; DESIGN.md §4 maps them to the paper. The
 * driver takes no arguments. It loads the specs in sorted order and runs
 * each through the campaign executor on every hardware thread. All specs
 * share one result-cache spill, <out>/cache/reproduce.jsonl, so a
 * scenario's ceilings are measured once for the whole reproduction and
 * a re-run simulates nothing.
 *
 * Per spec it writes the campaign artifacts (CSV, gnuplot, SVG/HTML
 * report, analysis JSON) to $RFL_OUT_DIR (default ./out), prints the
 * plots and summary, and then runs the figure's table step, if it has
 * one. A table step reads only the run's rows.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <map>

#include "campaign/executor.hh"
#include "campaign/sink.hh"
#include "kernels/engine.hh"
#include "pmu/sim_backend.hh"
#include "support/cli.hh"
#include "support/csv.hh"
#include "support/logging.hh"
#include "support/table.hh"
#include "support/units.hh"

namespace
{

using namespace rfl;
using roofline::Measurement;
namespace cp = rfl::campaign;

/** Index of the variant labelled @p label; fatal() if the spec has
 *  none (a table step and its spec went out of step). */
size_t
variantIndex(const cp::CampaignRun &run, const std::string &label)
{
    const std::vector<cp::Variant> &vs = run.spec.variants();
    for (size_t i = 0; i < vs.size(); ++i)
        if (vs[i].label == label)
            return i;
    fatal("%s: no variant '%s'", run.spec.name().c_str(), label.c_str());
}

/** F4: each dgemm point's share of the single-core peak. */
void
dgemmPeakShare(const cp::CampaignRun &run)
{
    const double peak = run.modelFor(0, 0).peakCompute();
    Table t({"kernel", "size", "P [Gflop/s]", "I [flop/B]", "% of peak"});
    for (const Measurement &m : run.measurements())
        t.addRow({m.kernel, m.sizeLabel, formatSig(m.perf() / 1e9, 4),
                  formatSig(m.oi(), 4),
                  formatSig(100.0 * m.perf() / peak, 3)});
    t.print(std::cout);
}

/** F9: each point against its own width ceiling. */
void
simdWidthShare(const cp::CampaignRun &run)
{
    const sim::CoreConfig &core = run.spec.machines()[0].config.core;
    Table t({"kernel", "lanes", "FMA", "P [Gflop/s]", "ceiling [Gflop/s]",
             "% of ceiling"});
    for (size_t ki = 0; ki < run.spec.kernels().size(); ++ki) {
        for (size_t vi = 0; vi < run.spec.variants().size(); ++vi) {
            const roofline::MeasureOptions &o =
                run.spec.variants()[vi].opts.measure;
            const Measurement &m = run.measurementFor(0, ki, vi);
            // lanes x pipes x (fma ? 2 : 1) x freq
            const double ceiling = core.peakFlopsPerCycle(o.lanes) *
                                   core.freqGHz * 1e9 /
                                   (o.useFma ? 1.0 : 2.0);
            t.addRow({m.kernel, std::to_string(o.lanes),
                      o.useFma ? "yes" : "no",
                      formatSig(m.perf() / 1e9, 4),
                      formatSig(ceiling / 1e9, 4),
                      formatSig(100.0 * m.perf() / ceiling, 3)});
        }
    }
    t.print(std::cout);
}

/** F8: speedups over the first (single-core) variant, then F1: every
 *  scenario's measured ceilings. */
void
threadScaling(const cp::CampaignRun &run)
{
    const std::vector<cp::Variant> &vs = run.spec.variants();
    const double triad1 = run.measurementFor(0, 0, 0).perf();
    const double dgemm1 = run.measurementFor(0, 1, 0).perf();
    Table t({"variant", "triad P [GF/s]", "triad BW [GB/s]",
             "triad speedup", "dgemm P [GF/s]", "dgemm speedup"});
    for (size_t vi = 0; vi < vs.size(); ++vi) {
        const Measurement &mt = run.measurementFor(0, 0, vi);
        const Measurement &md = run.measurementFor(0, 1, vi);
        t.addRow({vs[vi].label, formatSig(mt.perf() / 1e9, 4),
                  formatSig(mt.trafficBytes / mt.seconds / 1e9, 4),
                  formatSig(mt.perf() / triad1, 3),
                  formatSig(md.perf() / 1e9, 4),
                  formatSig(md.perf() / dgemm1, 3)});
    }
    t.print(std::cout);

    std::vector<std::string> header = {"variant", "cores"};
    for (const roofline::Ceiling &c : run.modelFor(0, 0).computeCeilings())
        header.push_back(c.name);
    header.insert(header.end(), {"bandwidth", "ridge [flop/B]"});
    Table ceilings(header);
    for (size_t vi = 0; vi < vs.size(); ++vi) {
        const roofline::RooflineModel &model = run.modelFor(0, vi);
        std::vector<std::string> row = {
            vs[vi].label, cp::formatCoreSet(vs[vi].opts.measure.cores)};
        for (const roofline::Ceiling &c : model.computeCeilings())
            row.push_back(formatFlopRate(c.value));
        std::string bw;
        for (const roofline::Ceiling &c : model.bandwidthCeilings())
            bw += (bw.empty() ? "" : ", ") + c.name + " " +
                  formatByteRate(c.value);
        row.insert(row.end(), {bw, formatSig(model.ridgePoint(), 3)});
        ceilings.addRow(row);
    }
    std::printf("\nmeasured platform ceilings per scenario:\n");
    ceilings.print(std::cout);
}

/** The instruction-level check: 1000 vaddpd and 1000 vfmadd on one
 *  core; an FMA must bump the 256-bit counter by two. */
void
fmaCounterCheck(const sim::MachineConfig &config)
{
    sim::Machine machine(config);
    pmu::SimBackend backend(machine);
    kernels::SimEngine e(machine, 0, 4, true);
    const kernels::Vec v = e.vbroadcast(1.0);

    backend.begin();
    for (int i = 0; i < 1000; ++i)
        e.vadd(v, v);
    const pmu::Counts add = backend.end();
    backend.begin();
    for (int i = 0; i < 1000; ++i)
        e.vfmadd(v, v, v);
    const pmu::Counts fma = backend.end();

    std::printf("\nFMA counter experiment (1000 instructions each):\n");
    Table t({"instruction", "256b counter", "per instr", "derived flops"});
    t.addRow({"vaddpd",
              std::to_string(add.get(pmu::EventId::Fp256PackedDouble)),
              "1", formatSig(add.flops(), 6)});
    t.addRow({"vfmadd231pd",
              std::to_string(fma.get(pmu::EventId::Fp256PackedDouble)),
              "2", formatSig(fma.flops(), 6)});
    t.print(std::cout);
}

/** T2: measured against analytic W, plus the FMA counter check. */
void
workValidation(const cp::CampaignRun &run)
{
    Table t({"kernel", "size", "W expected", "W measured", "err %"});
    double worst = 0.0;
    for (const Measurement &m : run.measurements()) {
        worst = std::max(worst, 100.0 * m.workError());
        t.addRow({m.kernel, m.sizeLabel, formatSig(m.expectedFlops, 8),
                  formatSig(m.flops, 8),
                  formatSig(100.0 * m.workError(), 3)});
    }
    t.print(std::cout);
    std::printf("worst-case work error: %.3f%%\n", worst);
    fmaCounterCheck(run.spec.machines()[0].config);
}

/** T3: cold/prefetch-off error, prefetch inflation, warm residue. */
void
trafficValidation(const cp::CampaignRun &run)
{
    const size_t off = variantIndex(run, "cold-pf-off");
    const size_t warm = variantIndex(run, "warm-pf-off");
    const size_t on = variantIndex(run, "cold-pf-on");
    Table t({"kernel", "size", "Q model", "Q cold/pf-off", "err %",
             "Q cold/pf-on", "inflation %", "Q warm/pf-off"});
    double worst = 0.0;
    for (size_t ki = 0; ki < run.spec.kernels().size(); ++ki) {
        const Measurement &m_off = run.measurementFor(0, ki, off);
        const Measurement &m_on = run.measurementFor(0, ki, on);
        const double err = 100.0 * m_off.trafficError();
        worst = std::max(worst, err);
        t.addRow({m_off.kernel, m_off.sizeLabel,
                  formatBytes(m_off.expectedTrafficBytes),
                  formatBytes(m_off.trafficBytes), formatSig(err, 3),
                  formatBytes(m_on.trafficBytes),
                  formatSig(100.0 * (m_on.trafficBytes /
                                         m_off.trafficBytes -
                                     1.0),
                            3),
                  formatBytes(
                      run.measurementFor(0, ki, warm).trafficBytes)});
    }
    t.print(std::cout);
    std::printf("worst cold/pf-off traffic error: %.3f%%\n", worst);
}

/** A1: Q lost without the closing flush, Q added without subtraction. */
void
overheadAblation(const cp::CampaignRun &run)
{
    const size_t full = variantIndex(run, "full");
    const size_t no_flush = variantIndex(run, "no-flush");
    const size_t no_sub = variantIndex(run, "no-subtract");
    Table t({"kernel", "size", "Q full protocol", "Q no-flush-after",
             "leak %", "Q no-subtract", "subtract delta %"});
    for (size_t ki = 0; ki < run.spec.kernels().size(); ++ki) {
        const Measurement &f = run.measurementFor(0, ki, full);
        const Measurement &nf = run.measurementFor(0, ki, no_flush);
        const Measurement &ns = run.measurementFor(0, ki, no_sub);
        t.addRow({f.kernel, f.sizeLabel, formatBytes(f.trafficBytes),
                  formatBytes(nf.trafficBytes),
                  formatSig(100.0 * (1.0 - nf.trafficBytes /
                                               f.trafficBytes),
                            3),
                  formatBytes(ns.trafficBytes),
                  formatSig(100.0 * (ns.trafficBytes / f.trafficBytes -
                                     1.0),
                            3)});
    }
    t.print(std::cout);
}

/** A3: Q per machine (replacement policy), as ratios to the first. */
void
replacementAblation(const cp::CampaignRun &run)
{
    const std::vector<cp::MachineEntry> &ms = run.spec.machines();
    std::vector<std::string> header = {"kernel", "size"};
    for (const cp::MachineEntry &m : ms)
        header.push_back("Q (" + m.label + ")");
    for (size_t mi = 1; mi < ms.size(); ++mi)
        header.push_back(ms[mi].label + " / " + ms[0].label);
    Table t(header);
    for (size_t ki = 0; ki < run.spec.kernels().size(); ++ki) {
        const Measurement &base = run.measurementFor(0, ki, 0);
        std::vector<std::string> row = {base.kernel, base.sizeLabel};
        for (size_t mi = 0; mi < ms.size(); ++mi)
            row.push_back(
                formatBytes(run.measurementFor(mi, ki, 0).trafficBytes));
        for (size_t mi = 1; mi < ms.size(); ++mi)
            row.push_back(formatSig(
                run.measurementFor(mi, ki, 0).trafficBytes /
                    base.trafficBytes,
                4));
        t.addRow(row);
    }
    t.print(std::cout);
}

/** Table steps by spec name; figures without one print only the
 *  campaign's own plots and summary. */
const std::map<std::string, void (*)(const cp::CampaignRun &)>
    tableSteps = {
        {"abl_overhead", overheadAblation},
        {"abl_replacement", replacementAblation},
        {"fig_dgemm", dgemmPeakShare},
        {"fig_simd", simdWidthShare},
        {"fig_threads", threadScaling},
        {"tbl_traffic_validation", trafficValidation},
        {"tbl_work_validation", workValidation},
};

} // namespace

int
main()
{
    const auto start = std::chrono::steady_clock::now();
    const std::string out = outputDirectory();
    ensureDirectory(out + "/cache");
    cp::ResultCache cache(out + "/cache/reproduce.jsonl");
    cp::ExecutorOptions exec;
    exec.cache = &cache;
    const cp::CampaignExecutor executor(exec);

    std::vector<std::filesystem::path> paths;
    for (const auto &entry :
         std::filesystem::directory_iterator(RFL_BENCH_SPEC_DIR))
        if (entry.path().extension() == ".txt")
            paths.push_back(entry.path());
    std::sort(paths.begin(), paths.end());

    size_t jobs = 0, simulated = 0;
    for (const std::filesystem::path &path : paths) {
        const cp::CampaignSpec spec = cp::loadCampaignSpec(path.string());
        std::printf("=========================================== %s\n\n",
                    spec.name().c_str());
        const cp::CampaignRun run = executor.run(spec);
        cp::emitCampaign(run, out, std::cout);
        cp::writeCampaignReport(run, out, std::cout);
        const auto step = tableSteps.find(spec.name());
        if (step != tableSteps.end()) {
            std::printf("\n");
            step->second(run);
        }
        std::printf("\n");
        jobs += run.jobs.size();
        simulated += run.simulated;
    }
    const double seconds = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - start)
                               .count();
    std::printf("reproduce: %zu specs, %zu jobs (%zu simulated) in "
                "%.2f s; artifacts in %s\n",
                paths.size(), jobs, simulated, seconds, out.c_str());
    return 0;
}
