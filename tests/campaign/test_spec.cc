/** @file Tests for CampaignSpec building, parsing and validation. */

#include <filesystem>
#include <fstream>

#include <gtest/gtest.h>

#include "campaign/spec.hh"
#include "support/logging.hh"

namespace
{

using namespace rfl::campaign;
using rfl::sim::MachineConfig;
using rfl::sim::MemPolicy;

TEST(CoreSet, ParseForms)
{
    EXPECT_EQ(parseCoreSet("0"), (std::vector<int>{0}));
    EXPECT_EQ(parseCoreSet("0,2,5"), (std::vector<int>{0, 2, 5}));
    EXPECT_EQ(parseCoreSet("0-3"), (std::vector<int>{0, 1, 2, 3}));
    EXPECT_EQ(parseCoreSet("0-1,4-5"), (std::vector<int>{0, 1, 4, 5}));
    // Duplicates collapse, order canonicalizes.
    EXPECT_EQ(parseCoreSet("3,1,1,2"), (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(formatCoreSet({0, 1, 2}), "0,1,2");
}

TEST(CoreSetDeath, Malformed)
{
    EXPECT_EXIT(parseCoreSet("banana"), ::testing::ExitedWithCode(1),
                "bad core");
    EXPECT_EXIT(parseCoreSet("3-1"), ::testing::ExitedWithCode(1),
                "range end");
}

TEST(RunOptions, CanonicalKeyCoversFields)
{
    RunOptions a;
    const std::string base = a.canonicalKey();

    RunOptions b = a;
    b.measure.protocol = rfl::roofline::CacheProtocol::Warm;
    EXPECT_NE(b.canonicalKey(), base);

    b = a;
    b.measure.cores = {0, 1};
    EXPECT_NE(b.canonicalKey(), base);

    b = a;
    b.measure.seed = 7;
    EXPECT_NE(b.canonicalKey(), base);

    b = a;
    b.memPolicy = MemPolicy::Interleave;
    EXPECT_NE(b.canonicalKey(), base);

    b = a;
    b.prefetchEnabled = false;
    EXPECT_NE(b.canonicalKey(), base);

    // Identical options produce identical keys.
    EXPECT_EQ(RunOptions{}.canonicalKey(), base);
}

TEST(CampaignSpec, BuilderChains)
{
    CampaignSpec spec("demo");
    spec.addMachine(MachineConfig::smallTestMachine())
        .addKernel("daxpy:n=256")
        .addKernel("sum:n=256")
        .addVariant("cold", rfl::roofline::MeasureOptions{});
    EXPECT_EQ(spec.name(), "demo");
    EXPECT_EQ(spec.machines().size(), 1u);
    EXPECT_EQ(spec.kernels().size(), 2u);
    EXPECT_EQ(spec.variants().size(), 1u);
    EXPECT_EQ(spec.gridSize(), 2u);
    spec.validate();
}

TEST(CampaignSpec, ParseText)
{
    const CampaignSpec spec = parseCampaignSpec(
        "# demo campaign\n"
        "name = parsed\n"
        "machine = small\n"
        "kernel = daxpy:n=256\n"
        "kernel = sum:n=256\n"
        "variant = cold-1c: protocol=cold cores=0 reps=1\n"
        "variant = warm-2c: protocol=warm cores=0-1 numa=interleave "
        "prefetch=off\n");
    EXPECT_EQ(spec.name(), "parsed");
    EXPECT_EQ(spec.machines().size(), 1u);
    EXPECT_EQ(spec.kernels().size(), 2u);
    ASSERT_EQ(spec.variants().size(), 2u);

    const Variant &cold = spec.variants()[0];
    EXPECT_EQ(cold.label, "cold-1c");
    EXPECT_EQ(cold.opts.measure.protocol,
              rfl::roofline::CacheProtocol::Cold);
    EXPECT_EQ(cold.opts.measure.cores, (std::vector<int>{0}));
    EXPECT_EQ(cold.opts.measure.repetitions, 1);

    const Variant &warm = spec.variants()[1];
    EXPECT_EQ(warm.opts.measure.protocol,
              rfl::roofline::CacheProtocol::Warm);
    EXPECT_EQ(warm.opts.measure.cores, (std::vector<int>{0, 1}));
    EXPECT_EQ(warm.opts.memPolicy, MemPolicy::Interleave);
    EXPECT_FALSE(warm.opts.prefetchEnabled);
}

TEST(CampaignSpec, StableHashIsContentAddressed)
{
    const char *const text =
        "name = hash-test\n"
        "machine = small\n"
        "kernel = daxpy:n=4096\n"
        "phase = fft:n=1024 period=2048\n"
        "variant = cold-1c: protocol=cold cores=0 reps=1\n";
    // Same content, same hash — including across parses (the service
    // dedups concurrent submissions by this).
    EXPECT_EQ(parseCampaignSpec(text).stableHash(),
              parseCampaignSpec(text).stableHash());

    // Every grid dimension moves the hash.
    const uint64_t base = parseCampaignSpec(text).stableHash();
    const char *const variants[] = {
        "name = other\n"
        "machine = small\n"
        "kernel = daxpy:n=4096\n"
        "phase = fft:n=1024 period=2048\n"
        "variant = cold-1c: protocol=cold cores=0 reps=1\n",
        "name = hash-test\n"
        "machine = default\n"
        "kernel = daxpy:n=4096\n"
        "phase = fft:n=1024 period=2048\n"
        "variant = cold-1c: protocol=cold cores=0 reps=1\n",
        "name = hash-test\n"
        "machine = small\n"
        "kernel = daxpy:n=8192\n"
        "phase = fft:n=1024 period=2048\n"
        "variant = cold-1c: protocol=cold cores=0 reps=1\n",
        "name = hash-test\n"
        "machine = small\n"
        "kernel = daxpy:n=4096\n"
        "phase = fft:n=1024 period=4096\n"
        "variant = cold-1c: protocol=cold cores=0 reps=1\n",
        "name = hash-test\n"
        "machine = small\n"
        "kernel = daxpy:n=4096\n"
        "phase = fft:n=1024 period=2048\n"
        "variant = cold-1c: protocol=warm cores=0 reps=1\n",
    };
    for (const char *other : variants)
        EXPECT_NE(parseCampaignSpec(other).stableHash(), base)
            << other;
}

TEST(CampaignSpec, TimeoutParsesAndMovesTheHash)
{
    const char *const base =
        "name = timeout-test\n"
        "machine = small\n"
        "kernel = daxpy:n=4096\n"
        "variant = cold-1c: protocol=cold cores=0 reps=1\n";
    const CampaignSpec none = parseCampaignSpec(base);
    EXPECT_EQ(none.timeoutSeconds(), 0.0);

    const CampaignSpec bounded = parseCampaignSpec(
        std::string(base) + "timeout = 2.5\n");
    EXPECT_EQ(bounded.timeoutSeconds(), 2.5);

    // A ticket earned with a spent budget must not shadow a patient
    // resubmission: distinct budgets are distinct content.
    EXPECT_NE(bounded.stableHash(), none.stableHash());
    EXPECT_NE(bounded.stableHash(),
              parseCampaignSpec(std::string(base) + "timeout = 30\n")
                  .stableHash());
}

TEST(CampaignSpec, BackendKeyParsesAndDefaults)
{
    const char *base = "name = hw\n"
                       "machine = small\n"
                       "kernel = daxpy:n=4096\n"
                       "variant = cold-1c: protocol=cold cores=0 reps=1\n";
    // Default: sim only.
    const CampaignSpec plain = parseCampaignSpec(base);
    EXPECT_TRUE(plain.hasBackend("sim"));
    EXPECT_FALSE(plain.hasBackend("perf"));

    // The first explicit backend replaces the default; repeats append
    // and dedup.
    const CampaignSpec both = parseCampaignSpec(
        std::string(base) +
        "backend = perf\nbackend = sim\nbackend = sim\n");
    EXPECT_TRUE(both.hasBackend("sim"));
    EXPECT_TRUE(both.hasBackend("perf"));
    EXPECT_EQ(both.backends().size(), 2u);

    const CampaignSpec hwOnly =
        parseCampaignSpec(std::string(base) + "backend = perf\n");
    EXPECT_FALSE(hwOnly.hasBackend("sim"));
    EXPECT_TRUE(hwOnly.hasBackend("perf"));
}

TEST(CampaignSpec, BackendMovesTheHashOnlyWhenNonDefault)
{
    const char *base = "name = hw\n"
                       "machine = small\n"
                       "kernel = daxpy:n=4096\n"
                       "variant = cold-1c: protocol=cold cores=0 reps=1\n";
    const CampaignSpec plain = parseCampaignSpec(base);
    // `backend = sim` spelled out is the default: identical content,
    // identical hash — explicit spelling must not invalidate every
    // pre-existing ticket and cache entry.
    const CampaignSpec simExplicit =
        parseCampaignSpec(std::string(base) + "backend = sim\n");
    EXPECT_EQ(plain.stableHash(), simExplicit.stableHash());

    const CampaignSpec withPerf = parseCampaignSpec(
        std::string(base) + "backend = sim\nbackend = perf\n");
    EXPECT_NE(plain.stableHash(), withPerf.stableHash());
}

TEST(CampaignSpecDeath, BackendRejectsUnknownNames)
{
    CampaignSpec spec("bad");
    EXPECT_EXIT(spec.addBackend("fpga"), ::testing::ExitedWithCode(1),
                "sim|perf");
}

TEST(CampaignSpec, FatalThrowsModeTurnsParseErrorsIntoExceptions)
{
    // The daemon-mode contract: with setFatalThrows(true), a bad spec
    // throws FatalError (catchable per request) instead of exit(1).
    const bool prev = rfl::setFatalThrows(true);
    try {
        parseCampaignSpec("machine = warp-drive\n");
        rfl::setFatalThrows(prev);
        FAIL() << "bad spec did not throw in fatal-throws mode";
    } catch (const rfl::FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("machine expects"),
                  std::string::npos);
    }
    rfl::setFatalThrows(prev);
}

TEST(CampaignSpec, MachineFileResolvesAgainstTheSpecFileDirectory)
{
    const std::filesystem::path dir =
        std::filesystem::path(::testing::TempDir()) / "rfl_spec_at_file";
    std::filesystem::create_directories(dir);
    std::ofstream(dir / "box.cfg") << "name = box\nl3.repl = fifo\n";
    std::ofstream(dir / "grid.txt")
        << "name = grid\nmachine = @box.cfg\nkernel = sum:n=256\n"
           "variant = v: cores=0\n";

    // Loaded from elsewhere: the path is the spec's, not the cwd's.
    const CampaignSpec spec = loadCampaignSpec((dir / "grid.txt").string());
    ASSERT_EQ(spec.machines().size(), 1u);
    EXPECT_EQ(spec.machines()[0].label, "box");
    EXPECT_EQ(spec.machines()[0].config.l3.repl, rfl::sim::ReplPolicy::FIFO);
    std::filesystem::remove_all(dir);
}

TEST(CampaignSpecDeath, SpecTextCannotNameAMachineFile)
{
    // Submitted text must not make the parser open a path: an existing
    // file, a file of another format and a missing one all get the
    // same answer, so the error is no oracle for the file system.
    const std::filesystem::path cfg =
        std::filesystem::path(::testing::TempDir()) / "rfl_spec_at.cfg";
    std::ofstream(cfg) << "PRETTY_NAME = not a machine\n";
    for (const std::string &target :
         {cfg.string(), std::string("/no/such/machine.cfg")}) {
        EXPECT_EXIT(parseCampaignSpec("machine = @" + target +
                                      "\nkernel = sum:n=256\n"
                                      "variant = v: cores=0\n"),
                    ::testing::ExitedWithCode(1),
                    "machine = @file is accepted only in a campaign file")
            << target;
    }
    std::filesystem::remove(cfg);
}

TEST(CampaignSpecDeath, InvalidSpecs)
{
    CampaignSpec empty("empty");
    EXPECT_EXIT(empty.validate(), ::testing::ExitedWithCode(1),
                "no machines");

    // Core index beyond the machine.
    CampaignSpec bad("bad");
    bad.addMachine(MachineConfig::smallTestMachine()); // 2 cores
    bad.addKernel("sum:n=256");
    rfl::roofline::MeasureOptions opts;
    opts.cores = {0, 7};
    bad.addVariant("too-wide", opts);
    EXPECT_EXIT(bad.validate(), ::testing::ExitedWithCode(1),
                "uses core 7");

    EXPECT_EXIT(parseCampaignSpec("machine = warp-drive\n"),
                ::testing::ExitedWithCode(1), "machine expects");
    EXPECT_EXIT(parseCampaignSpec("variant = nolabel\n"),
                ::testing::ExitedWithCode(1), "variant expects");
    EXPECT_EXIT(
        parseCampaignSpec("variant = v: protocol=lukewarm\n"),
        ::testing::ExitedWithCode(1), "cold|warm");
    EXPECT_EXIT(parseCampaignSpec("variant = v: drain_threads=2\n"),
                ::testing::ExitedWithCode(1),
                "unknown variant option 'drain_threads'");

    // Kernel specs the catalogue rejects: each exits 1 naming the
    // kernel and the key, instead of aborting or running a guess.
    const struct
    {
        const char *kernel;
        const char *message;
    } badKernels[] = {
        {"daxpy:n=abc", "kernel 'daxpy': key 'n'"},
        {"daxpy:n=99999999999999999999", "kernel 'daxpy': key 'n'"},
        {"daxpy:n=3000000000", "kernel 'daxpy': 'n=3000000000'.*cap"},
        {"daxpy:n=0", "kernel 'daxpy': key 'n' must be >= 1"},
        {"dgemv:m=0", "kernel 'dgemv': key 'm' must be >= 1"},
        {"daxpy:n=-5", "kernel 'daxpy': key 'n'"},
        {"daxpy:nn=4096", "kernel 'daxpy': unknown key 'nn'"},
        {"daxpy:n=4096,n=8192", "kernel 'daxpy': repeated key 'n'"},
        {"fft:n=1000", "kernel 'fft': key 'n' must be a power of two"},
    };
    for (const auto &bad : badKernels) {
        const std::string text = std::string("machine = small\n") +
                                 "kernel = " + bad.kernel + "\n" +
                                 "variant = v: cores=0\n";
        EXPECT_EXIT(parseCampaignSpec(text), ::testing::ExitedWithCode(1),
                    bad.message)
            << bad.kernel;
    }
}

} // namespace
