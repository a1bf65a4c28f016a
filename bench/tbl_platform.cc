/**
 * @file
 * T1 — platform characterization table.
 *
 * The paper's platform table: measured peak compute per scenario and
 * vector width (the register-resident FMA-chain benchmark) and measured
 * peak bandwidth per streaming-probe flavor, plus the resulting ridge
 * points. Nothing comes from a datasheet; everything is measured through
 * the same counters the kernel measurements use.
 */

#include <cstdio>
#include <iostream>

#include "bench_common.hh"
#include "support/csv.hh"
#include "support/table.hh"
#include "support/units.hh"

int
main()
{
    using namespace rfl;
    using namespace rfl::roofline;

    rfl::bench::banner("T1", "platform characterization");

    Experiment exp;
    sim::Machine &machine = exp.machine();
    std::printf("machine: %s (%d sockets x %d cores, %.1f GHz)\n\n",
                machine.config().name.c_str(), machine.numSockets(),
                machine.config().coresPerSocket,
                machine.config().core.freqGHz);

    struct ScenarioDef
    {
        const char *name;
        std::vector<int> cores;
    };
    const ScenarioDef scenarios[] = {
        {"single core", singleThreadCores(machine)},
        {"single socket", oneSocketCores(machine)},
        {"two sockets", allCores(machine)},
    };

    // Each scenario's ceiling parts are measured once; all three tables
    // read these values.
    const std::vector<CeilingPart> parts =
        ceilingParts(machine.config().core);
    std::vector<std::string> compute_header{"scenario"},
        bw_header{"scenario"};
    for (const CeilingPart &part : parts)
        (part.compute ? compute_header : bw_header).push_back(part.name);
    Table compute(compute_header);
    Table bw(bw_header);
    Table ridge({"scenario", "peak pi", "peak beta", "ridge [flop/B]"});
    CsvWriter csv(outputDirectory() + "/tbl_platform.csv",
                  {"scenario", "probe", "imc_bytes_per_sec",
                   "useful_bytes_per_sec"});
    for (const ScenarioDef &s : scenarios) {
        std::vector<double> values;
        std::vector<std::string> compute_row{s.name}, bw_row{s.name};
        for (const CeilingPart &part : parts) {
            if (part.compute) {
                values.push_back(exp.probe().computePeak(
                    s.cores, part.lanes, part.fma));
                compute_row.push_back(formatFlopRate(values.back()));
                continue;
            }
            const BandwidthResult r =
                exp.probe().bandwidthPeak(s.cores, part.probe);
            values.push_back(r.bytesPerSec);
            bw_row.push_back(formatByteRate(r.bytesPerSec));
            csv.addRow({s.name, bwProbeName(part.probe),
                        formatSig(r.bytesPerSec, 8),
                        formatSig(r.usefulBytesPerSec, 8)});
        }
        compute.addRow(compute_row);
        bw.addRow(bw_row);
        const RooflineModel model = assembleCeilings(parts, values);
        ridge.addRow({s.name, formatFlopRate(model.peakCompute()),
                      formatByteRate(model.peakBandwidth()),
                      formatSig(model.ridgePoint(), 3)});
    }
    std::printf("measured peak compute (FMA-chain benchmark):\n");
    compute.print(std::cout);
    std::printf("\nmeasured peak DRAM bandwidth (IMC counters):\n");
    bw.print(std::cout);
    std::printf("\nroofline summary:\n");
    ridge.print(std::cout);
    std::printf("\nwrote %s/tbl_platform.csv\n",
                outputDirectory().c_str());
    return 0;
}
