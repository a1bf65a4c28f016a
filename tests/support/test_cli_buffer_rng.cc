/** @file Unit tests for Cli, AlignedBuffer (and its AddressArena
 *  regions) and Rng. */

#include <cstdint>
#include <set>

#include <gtest/gtest.h>

#include "support/aligned_buffer.hh"
#include "support/cli.hh"
#include "support/rng.hh"

namespace
{

using rfl::AlignedBuffer;
using rfl::Cli;
using rfl::Rng;

TEST(Cli, ParsesFlagsAndValues)
{
    Cli cli;
    cli.addOption("size", "problem size", "64");
    cli.addOption("fast", "reduced sweep");
    const char *argv[] = {"prog", "--size=128", "--fast", nullptr};
    cli.parse(3, argv);
    EXPECT_TRUE(cli.has("size"));
    EXPECT_TRUE(cli.has("fast"));
    EXPECT_EQ(cli.getInt("size", 0), 128);
}

TEST(Cli, SpaceSeparatedValue)
{
    Cli cli;
    cli.addOption("n", "count");
    const char *argv[] = {"prog", "--n", "42", nullptr};
    cli.parse(3, argv);
    EXPECT_EQ(cli.getInt("n", 0), 42);
}

TEST(Cli, DefaultsWhenAbsent)
{
    Cli cli;
    cli.addOption("x", "value");
    const char *argv[] = {"prog", nullptr};
    cli.parse(1, argv);
    EXPECT_FALSE(cli.has("x"));
    EXPECT_EQ(cli.getInt("x", 7), 7);
    EXPECT_DOUBLE_EQ(cli.getDouble("x", 2.5), 2.5);
    EXPECT_EQ(cli.get("x", "dflt"), "dflt");
}

TEST(Cli, PositionalArguments)
{
    Cli cli;
    cli.addOption("k", "opt");
    const char *argv[] = {"prog", "pos1", "--k=v", "pos2", nullptr};
    cli.parse(4, argv);
    ASSERT_EQ(cli.positional().size(), 2u);
    EXPECT_EQ(cli.positional()[0], "pos1");
    EXPECT_EQ(cli.positional()[1], "pos2");
}

TEST(CliDeath, UnknownOptionIsFatal)
{
    Cli cli;
    const char *argv[] = {"prog", "--nope", nullptr};
    EXPECT_EXIT(cli.parse(2, argv), ::testing::ExitedWithCode(1),
                "unknown option");
}

TEST(AlignedBuffer, AlignmentAndZeroInit)
{
    AlignedBuffer<double> buf(1000);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(buf.data()) % 64, 0u);
    EXPECT_EQ(buf.size(), 1000u);
    for (size_t i = 0; i < buf.size(); ++i)
        EXPECT_DOUBLE_EQ(buf[i], 0.0);
}

TEST(AlignedBuffer, UninitializedIsAlignedAndRegistered)
{
    rfl::AddressArena::Scope scope;
    AlignedBuffer<double> zeroed(100);
    AlignedBuffer<double> raw(1000, rfl::uninitialized);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(raw.data()) % 64, 0u);
    EXPECT_EQ(raw.size(), 1000u);
    // Second region in allocation order, exactly as a zeroed buffer.
    constexpr uint64_t second = rfl::AddressArena::baseAddress +
                                rfl::AddressArena::regionAlign;
    EXPECT_EQ(rfl::AddressArena::translate(zeroed.data()),
              rfl::AddressArena::baseAddress);
    EXPECT_EQ(rfl::AddressArena::translate(raw.data()), second);
    EXPECT_EQ(rfl::AddressArena::translate(raw.data() + 999),
              second + 999 * sizeof(double));
    raw[999] = 2.5;
    EXPECT_DOUBLE_EQ(raw[999], 2.5);

    AlignedBuffer<double> none(0, rfl::uninitialized);
    EXPECT_TRUE(none.empty());
    EXPECT_EQ(none.data(), nullptr);
}

TEST(AddressArena, ReserveAdvancesLikeRegisterWithoutAHostRange)
{
    rfl::AddressArena::Scope scope;
    rfl::AddressArena &arena = scope.arena();
    constexpr uint64_t base = rfl::AddressArena::baseAddress;
    constexpr uint64_t align = rfl::AddressArena::regionAlign;
    EXPECT_EQ(arena.reserveRegion(align + 8), base);
    // A later allocation lands after the reserved span, as it would
    // after a registered buffer of the same size.
    AlignedBuffer<double> buf(4);
    EXPECT_EQ(rfl::AddressArena::translate(buf.data()), base + 2 * align);
    EXPECT_EQ(arena.reserveRegion(0), base + 3 * align);
    EXPECT_EQ(arena.reserveRegion(1), base + 3 * align);
    EXPECT_EQ(arena.reserveRegion(1), base + 4 * align);
    // Nothing host-side translates into a reserved region.
    double local = 0.0;
    EXPECT_EQ(rfl::AddressArena::translate(&local),
              reinterpret_cast<uintptr_t>(&local));
}

TEST(AlignedBuffer, MoveTransfersOwnership)
{
    AlignedBuffer<int> a(16);
    a[3] = 42;
    int *p = a.data();
    AlignedBuffer<int> b(std::move(a));
    EXPECT_EQ(b.data(), p);
    EXPECT_EQ(b[3], 42);
    EXPECT_EQ(a.data(), nullptr); // NOLINT: testing moved-from state
    EXPECT_TRUE(a.empty());
}

TEST(AlignedBuffer, ResetReallocates)
{
    AlignedBuffer<double> buf(8);
    buf[0] = 5.0;
    buf.reset(32);
    EXPECT_EQ(buf.size(), 32u);
    EXPECT_DOUBLE_EQ(buf[0], 0.0);
}

TEST(AlignedBuffer, EmptyBuffer)
{
    AlignedBuffer<double> buf;
    EXPECT_TRUE(buf.empty());
    EXPECT_EQ(buf.data(), nullptr);
    buf.reset(0);
    EXPECT_TRUE(buf.empty());
}

TEST(Rng, DeterministicForSeed)
{
    Rng a(123), b(123), c(124);
    EXPECT_EQ(a.next(), b.next());
    EXPECT_EQ(a.next(), b.next());
    EXPECT_NE(a.next(), c.next());
}

TEST(Rng, DoubleRange)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i) {
        const double v = rng.nextDouble(-2.0, 3.0);
        EXPECT_GE(v, -2.0);
        EXPECT_LT(v, 3.0);
    }
}

TEST(Rng, BoundedCoversRange)
{
    Rng rng(11);
    std::set<uint64_t> seen;
    for (int i = 0; i < 200; ++i)
        seen.insert(rng.nextBounded(8));
    EXPECT_EQ(seen.size(), 8u);
    for (uint64_t v : seen)
        EXPECT_LT(v, 8u);
}

} // namespace
