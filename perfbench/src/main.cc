/**
 * @file
 * perfbench — the repository benchmark's driver binary (see
 * perfbench/README.md). perfbench/run.py builds it and runs
 *
 *   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *             --work-dir <dir>
 *
 * The last line of standard output is one JSON object:
 *   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
 * holding every end-to-end metric (--trace 0) or every per-layer metric
 * (--trace 1) of the catalogue in metrics.cc.
 */

#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <functional>
#include <map>
#include <string>
#include <thread>

#include "bench.hh"
#include "support/logging.hh"

namespace
{

using perfbench::Options;
using perfbench::Outcome;

const std::map<std::string, std::function<void(const Options &, Outcome &)>>
    kWorkloads = {
        {"demo-cold", perfbench::runDemoCold},
        {"sweep-delta", perfbench::runSweepDelta},
        {"demo-warm", perfbench::runDemoWarm},
        {"service-loop", perfbench::runServiceLoop},
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload <name> "
                 "--seed <n> --seconds <s> --trace <0|1> --work-dir "
                 "<dir>\nworkloads:",
                 why);
    for (const auto &[name, fn] : kWorkloads)
        std::fprintf(stderr, " %s", name.c_str());
    std::fprintf(stderr, "\n");
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string key = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + key).c_str());
        const std::string value = argv[++i];
        try {
            if (key == "--workload")
                o.workload = value;
            else if (key == "--seed")
                o.seed = std::stoull(value);
            else if (key == "--seconds")
                o.seconds = std::stod(value);
            else if (key == "--trace")
                o.trace = std::stoi(value) != 0;
            else if (key == "--work-dir")
                o.workDir = value;
            else
                usage(("unknown option " + key).c_str());
        } catch (const std::logic_error &) {
            usage(("bad value for " + key).c_str());
        }
    }
    if (!kWorkloads.count(o.workload))
        usage("unknown workload");
    if (o.workDir.empty() || !(o.seconds > 0))
        usage("--work-dir and a positive --seconds are required");
    const unsigned hw = std::thread::hardware_concurrency();
    o.threads = hw > 0 ? std::min(4, static_cast<int>(hw)) : 4;
    // A traced run reports no setup_s; one set-up is enough.
    o.setups = o.trace ? 1 : 3;
    return o;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opts = parseArgs(argc, argv);
    namespace fs = std::filesystem;
    fs::remove_all(opts.workDir);
    fs::create_directories(opts.workDir);
    rfl::setVerbose(false);

    Outcome out;
    try {
        kWorkloads.at(opts.workload)(opts, out);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s failed: %s\n",
                     opts.workload.c_str(), e.what());
        return 1;
    }
    // A layer the workload does not exercise is never recorded and
    // prints 0; a value that is not finite prints as null and fails the
    // run, so a broken probe cannot pass for a measurement.
    const std::vector<perfbench::MetricDef> catalogue =
        opts.trace ? perfbench::perLayerMetrics()
                   : perfbench::endToEndMetrics();
    for (const perfbench::MetricDef &m : catalogue) {
        const auto it = out.metrics.find(m.name);
        if (it != out.metrics.end())
            out.check(std::isfinite(it->second), m.name + " is not finite");
    }
    out.metrics["error_rate"] =
        out.attempted ? static_cast<double>(out.failed) /
                            static_cast<double>(out.attempted)
                      : 1.0;
    std::string json = "{\"correct\": ";
    json += out.failed == 0 && out.attempted > 0 ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(out.attempted);
    json += ", \"failed\": " + std::to_string(out.failed);
    json += ", \"metrics\": {";
    bool first = true;
    for (const perfbench::MetricDef &m : catalogue) {
        const auto it = out.metrics.find(m.name);
        const double v = it == out.metrics.end() ? 0.0 : it->second;
        char value[64] = "null";
        if (std::isfinite(v))
            std::snprintf(value, sizeof(value), "%.17g", v);
        json += std::string(first ? "" : ", ") + "\"" + m.name +
                "\": {\"value\": " + value + ", \"unit\": \"" + m.unit +
                "\"}";
        first = false;
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    fs::remove_all(opts.workDir);
    return 0;
}
