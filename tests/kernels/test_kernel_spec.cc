/**
 * @file
 * Deterministic mutation fuzz of kernel spec text. Every mutant of a
 * spec the program ships (catalogue defaults, help lines, bench sizes)
 * must either parse or raise FatalError; nothing may abort. What parses
 * stays within the footprint cap, and small kernels build and init.
 */

#include <array>
#include <iterator>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "kernels/registry.hh"
#include "support/logging.hh"
#include "support/rng.hh"

namespace
{

using namespace rfl;
using namespace rfl::kernels;

/** Catalogue defaults and help lines, plus the sizes the benches use. */
std::vector<std::string>
corpus()
{
    std::vector<std::string> seeds = {
        "daxpy:n=1048576",
        "triad:n=4194304",
        "sum:n=2097152",
        "stencil3:n=1048576",
        "fft:n=262144",
        "dgemv:m=1536,n=1536",
        "dgemm-opt:n=192",
        "dgemm-blocked:n=256,block=32",
        "spmv-csr:rows=32768,nnz=16",
        "strided-sum:n=131072,stride=1024",
        "pointer-chase:nodes=16384,hops=16384",
    };
    for (const KernelDescriptor &d : kernelCatalogue())
        seeds.emplace_back(d.name);
    // Each help line starts with the kernel's default spec.
    for (const std::string &line : kernelHelp())
        if (line.rfind("trace", 0) != 0) // replay would open files
            seeds.push_back(line.substr(0, line.find(' ')));
    return seeds;
}

/** Apply 1-3 random edits: byte overwrites, token inserts, erases,
 *  duplicated ranges, a value swapped for an edge case, or the kernel
 *  name swapped for another catalogue name. */
std::string
mutate(std::string s, Rng &rng)
{
    static const char *const kTokens[] = {
        ":", ",", "=", "-", "+", "0", "1", " ", "n", "m", "nn", "rows",
        "nnz", "block", "hops", "stride", "nodes", "n=4", "x",
    };
    static const char *const kValues[] = {
        "0", "1", "2", "3", "4", "15", "16", "17", "1000", "1024",
        "65536", "134217728", "3000000000", "-5", "+5", "abc", "",
        "18446744073709551615", "18446744073709551616", "0x10", " 7",
        "00000000000000000000000000008",
    };
    const auto catalogue = kernelCatalogue();
    const uint64_t edits = 1 + rng.nextBounded(3);
    for (uint64_t e = 0; e < edits; ++e) {
        const size_t pos = rng.nextBounded(s.size() + 1);
        switch (rng.nextBounded(6)) {
          case 0:
            if (pos < s.size())
                s[pos] = static_cast<char>(rng.nextBounded(256));
            break;
          case 1:
            s.insert(pos, kTokens[rng.nextBounded(std::size(kTokens))]);
            break;
          case 2:
            s.erase(pos, 1 + rng.nextBounded(8));
            break;
          case 3:
            s.insert(pos, s.substr(pos, 1 + rng.nextBounded(16)));
            break;
          case 4: {
            // Replace the value after the next '=' with an edge case.
            const size_t eq = s.find('=', pos);
            if (eq == std::string::npos)
                break;
            const size_t end = s.find(',', eq + 1);
            s.replace(eq + 1,
                      (end == std::string::npos ? s.size() : end) - eq - 1,
                      kValues[rng.nextBounded(std::size(kValues))]);
            break;
          }
          default:
            // Another kernel's name over the same keys.
            s.replace(0, s.find(':'),
                      catalogue[rng.nextBounded(catalogue.size())].name);
            break;
        }
    }
    return s;
}

TEST(KernelSpecFuzz, MutatedSpecsParseOrThrow)
{
    constexpr int kCases = 20000;
    constexpr uint64_t kBuildLimit = uint64_t{1} << 20;
    const bool wasThrowing = setFatalThrows(true);
    const std::vector<std::string> seeds = corpus();
    Rng rng(0x6b65726e656c7370ull);

    // A parse is a (descriptor, values) pair; build each small one
    // once (rebuilding an identical parse proves nothing new and would
    // cost seconds under the sanitizers).
    std::set<std::pair<const KernelDescriptor *, KernelValues>> built;
    int parsed = 0, rejected = 0;
    for (int i = 0; i < kCases; ++i) {
        const std::string text =
            mutate(seeds[static_cast<size_t>(i) % seeds.size()], rng);
        KernelSpec spec;
        try {
            spec = parseKernelSpec(text);
        } catch (const FatalError &) {
            ++rejected;
            continue;
        }
        ++parsed;
        ASSERT_NE(spec.kernel, nullptr) << text;
        const uint64_t bytes = spec.footprintBytes();
        ASSERT_LE(bytes, kMaxFootprintBytes) << text;
        if (bytes > kBuildLimit ||
            !built.emplace(spec.kernel, spec.values).second)
            continue;
        const std::unique_ptr<Kernel> kernel = createKernel(text);
        ASSERT_NE(kernel, nullptr) << text;
        kernel->init(1);
        EXPECT_EQ(kernel->name(), spec.kernel->name) << text;
        EXPECT_EQ(kernel->workingSetBytes(), bytes) << text;
    }
    setFatalThrows(wasThrowing);

    // Both outcomes are exercised, and many distinct kernels were
    // built, so the mutator neither always breaks the text nor never
    // changes it.
    EXPECT_GT(parsed, kCases / 10);
    EXPECT_GT(rejected, kCases / 10);
    EXPECT_GT(built.size(), 100u);
}

TEST(KernelSpec, AcceptsTheGrammarAndFillsDefaults)
{
    const KernelSpec dgemv = parseKernelSpec("dgemv:n=96");
    ASSERT_NE(dgemv.kernel, nullptr);
    EXPECT_EQ(dgemv.footprintBytes(), 8u * (96 * 96 + 96 + 96))
        << "m defaults to n";
    EXPECT_TRUE(dgemv.parallelizable());

    const KernelSpec chase = parseKernelSpec("pointer-chase:hops=0");
    EXPECT_FALSE(chase.parallelizable());
    EXPECT_EQ(chase.footprintBytes(), 64u * 4096);

    // The largest spec in the tree sits exactly on the cap.
    EXPECT_EQ(parseKernelSpec("strided-sum:n=131072,stride=1024")
                  .footprintBytes(),
              kMaxFootprintBytes);
    EXPECT_EQ(parseKernelSpec("daxpy:n=00016").values[0], 16u);
}

TEST(KernelSpec, RejectsWhatCannotRun)
{
    const bool wasThrowing = setFatalThrows(true);
    const struct
    {
        const char *text;
        const char *message;
    } cases[] = {
        {"daxpy:", "bad parameter ''"},
        {"daxpy:n=16,", "bad parameter ''"},
        {"daxpy:,n=16", "bad parameter ''"},
        {"daxpy:n", "bad parameter 'n'"},
        {"daxpy:n=", "key 'n' needs an unsigned decimal"},
        {"daxpy:n=+5", "key 'n' needs an unsigned decimal"},
        {"daxpy:n= 5", "key 'n' needs an unsigned decimal"},
        {"daxpy:n=5x", "key 'n' needs an unsigned decimal"},
        {"daxpy:n=18446744073709551616", "key 'n' needs"},
        {"daxpy:n=18446744073709551615", "over the 1073741824-byte"},
        {"daxpy:n=67108865", "'n=67108865' needs 1073741840 operand"},
        {"stencil3:n=15", "key 'n' must be >= 16, got 15"},
        {"pointer-chase:nodes=1", "key 'nodes' must be >= 2"},
        {"strided-sum:stride=0", "key 'stride' must be >= 1"},
        {"spmv-csr:rows=8,nnz=9", "key 'nnz' must be <= rows (8)"},
        {"fft:n=2", "key 'n' must be a power of two >= 4"},
        {"dgemv:n=4294967296", "needs over 2^64 operand bytes"},
        {"dgemm-opt:block=8", "unknown key 'block' (allowed: n)"},
        {"bogus:n=1", "unknown kernel 'bogus'"},
    };
    for (const auto &c : cases) {
        try {
            parseKernelSpec(c.text);
            ADD_FAILURE() << c.text << " parsed";
        } catch (const FatalError &e) {
            EXPECT_NE(std::string(e.what()).find(c.message),
                      std::string::npos)
                << c.text << ": " << e.what();
        }
    }
    setFatalThrows(wasThrowing);
}

} // namespace
