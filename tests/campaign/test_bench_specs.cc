/**
 * @file
 * The figure specs under bench/specs/ (run by bench/reproduce) stay
 * runnable: each loads, validates and expands into a job graph, and its
 * name matches its file stem. Nothing is simulated.
 */

#include <filesystem>

#include <gtest/gtest.h>

#include "campaign/job_graph.hh"
#include "campaign/spec.hh"

namespace
{

using namespace rfl::campaign;

TEST(BenchSpecs, EveryFigureSpecLoadsAndIsNamedAfterItsFile)
{
    size_t checked = 0;
    for (const auto &entry :
         std::filesystem::directory_iterator(RFL_BENCH_SPEC_DIR)) {
        const std::filesystem::path &path = entry.path();
        if (path.extension() != ".txt")
            continue;
        SCOPED_TRACE(path.string());
        const CampaignSpec spec = loadCampaignSpec(path.string());
        EXPECT_EQ(spec.name(), path.stem().string());
        EXPECT_GT(JobGraph::expand(spec).jobs().size(), 0u);
        ++checked;
    }
    EXPECT_GE(checked, 12u) << "bench/specs/ lost its figure specs";
}

} // namespace
