#include "telemetry/build_info.hh"

#include <cstdio>

#ifndef RFL_GIT_SHA
#define RFL_GIT_SHA "unknown"
#endif
#ifndef RFL_BUILD_TYPE
#define RFL_BUILD_TYPE "unset"
#endif

namespace rfl::telemetry
{

namespace
{

std::string
compilerString()
{
    char buf[64];
#if defined(__clang__)
    std::snprintf(buf, sizeof(buf), "clang %d.%d.%d", __clang_major__,
                  __clang_minor__, __clang_patchlevel__);
#elif defined(__GNUC__)
    std::snprintf(buf, sizeof(buf), "gcc %d.%d.%d", __GNUC__,
                  __GNUC_MINOR__, __GNUC_PATCHLEVEL__);
#else
    std::snprintf(buf, sizeof(buf), "unknown");
#endif
    return buf;
}

} // namespace

const BuildInfo &
buildInfo()
{
    static const BuildInfo info = [] {
        BuildInfo b;
        b.gitSha = RFL_GIT_SHA;
        b.compiler = compilerString();
        b.buildType = RFL_BUILD_TYPE;
        if (b.buildType.empty())
            b.buildType = "unset";
        return b;
    }();
    return info;
}

void
registerBuildInfoMetric(Registry &registry)
{
    const BuildInfo &b = buildInfo();
    registry
        .gauge("rfl_build_info",
               "build identity; value is always 1, identity in labels",
               {{"git_sha", b.gitSha},
                {"compiler", b.compiler},
                {"build_type", b.buildType}})
        .set(1.0);
}

} // namespace rfl::telemetry
