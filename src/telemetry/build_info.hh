/**
 * @file
 * Build identity: which binary is this telemetry coming from?
 *
 * Every metrics pipeline eventually asks "did the numbers change
 * because the workload changed, or because the binary did?". The
 * standard answer is an info gauge: rfl_build_info is always 1, and
 * the identity rides in its labels — git sha, compiler and build
 * type. The same fields appear in /healthz so a human can read them
 * without a metrics scrape.
 *
 * Sha and build type are injected as compile definitions on this
 * translation unit only (see CMakeLists.txt), so a sha change
 * recompiles one file, not the library.
 */

#ifndef RFL_TELEMETRY_BUILD_INFO_HH
#define RFL_TELEMETRY_BUILD_INFO_HH

#include <string>

#include "telemetry/metrics.hh"

namespace rfl::telemetry
{

/** Static build identity. */
struct BuildInfo
{
    std::string gitSha;    ///< short sha, or "unknown" outside git
    std::string compiler;  ///< e.g. "gcc 13.2.0"
    std::string buildType; ///< CMAKE_BUILD_TYPE, "" -> "unset"
};

/** The identity of this process (computed once). */
const BuildInfo &buildInfo();

/** Register rfl_build_info{git_sha=,compiler=,build_type=} = 1. */
void registerBuildInfoMetric(Registry &registry);

} // namespace rfl::telemetry

#endif // RFL_TELEMETRY_BUILD_INFO_HH
