/**
 * @file
 * The number formatter (support/number_format) against glibc snprintf
 * for every printf conversion the program's emitters used: every
 * artifact byte depends on the two agreeing.
 */

#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "support/number_format.hh"
#include "support/rng.hh"

namespace
{

using namespace rfl;

/** Fixed-point decimals: svg/units "%.2f", "%.1f", "%.3f", "%.6f". */
constexpr int kFixedDecimals[] = {1, 2, 3, 6};

/** Significant digits: units "%.4g", timeseries "%.9g", the ostream
 *  default "%g" and the round-trip "%.17g". */
constexpr int kUsedDigits[] = {4, 9, kStreamDigits, kRoundTripDigits};

std::string
printfFixed(double v, int decimals)
{
    char buf[400];
    std::snprintf(buf, sizeof(buf), "%.*f", decimals, v);
    return buf;
}

std::string
printfSig(double v, int digits)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*g", digits, v);
    return buf;
}

/** Compare one conversion on @p v; count and report mismatches. */
void
check(double v, bool fixed, int precision, int &failures)
{
    std::string got;
    std::string want;
    if (fixed) {
        appendFixed(got, v, precision);
        want = printfFixed(v, precision);
    } else {
        appendSig(got, v, precision);
        want = printfSig(v, precision);
    }
    if (want == got || ++failures > 10)
        return;
    uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    ADD_FAILURE() << (fixed ? "%.*f" : "%.*g") << " at " << precision
                  << " of bits 0x" << std::hex << bits << ": printf '"
                  << want << "', got '" << got << "'";
}

/** Every conversion on @p v: the fixed forms and "%.*g" at 1..17,
 *  which covers "%.4g", "%.9g", "%.17g" and the ostream default "%g"
 *  (6 digits). */
void
checkAll(double v, int &failures)
{
    for (int d : kFixedDecimals)
        check(v, true, d, failures);
    for (int d = 1; d <= kRoundTripDigits; ++d)
        check(v, false, d, failures);
}

std::vector<double>
edgeCases()
{
    const double inf = std::numeric_limits<double>::infinity();
    const double nan = std::numeric_limits<double>::quiet_NaN();
    std::vector<double> v = {
        0.0, -0.0, inf, -inf, nan, -nan,
        DBL_MAX, -DBL_MAX, DBL_MIN, -DBL_MIN,
        std::numeric_limits<double>::denorm_min(),
        -std::numeric_limits<double>::denorm_min(),
        DBL_MIN / 3.0, 1.0, -1.0, 0.1, 0.5, 1e-5, 1e-4, 9.5, 99.5,
        999999.5, 1e15, 1e16, 1e17, 1e21, 123456789.0,
        0.30000000000000004, 2.675, 1.005, 0.045,
    };
    // Exact binary halfway values: n / 2^k ends in ...5 in decimal, so
    // every precision that cuts at that 5 is a round-half-even tie.
    for (int k = 1; k <= 12; ++k)
        for (int n = 1; n < 64; n += 2)
            v.push_back(std::ldexp(static_cast<double>(n), -k));
    // Decimal-looking ties ("x.xx5") that are *not* exact in binary.
    for (int i = 0; i < 200; ++i)
        v.push_back(static_cast<double>(i) / 100.0 + 0.005);
    return v;
}

TEST(NumberFormat, EdgeCasesMatchPrintf)
{
    int failures = 0;
    for (double v : edgeCases()) {
        checkAll(v, failures);
        checkAll(-v, failures);
    }
    EXPECT_EQ(failures, 0);
}

TEST(NumberFormat, OneMillionRandomDoublesMatchPrintf)
{
    // Three value shapes, a third each: raw random bit patterns (every
    // exponent, denormals and NaN payloads included), log-uniform
    // magnitudes where artifacts live, and exact binary ties n / 2^k.
    constexpr int kValues = 1'000'002;
    Rng rng(0x6e756d666d74ull);
    int failures = 0;
    for (int i = 0; i < kValues; ++i) {
        double v = 0.0;
        switch (i % 3) {
          case 0: {
            const uint64_t bits = rng.next();
            std::memcpy(&v, &bits, sizeof(v));
            // A fixed form of a huge exponent is a 300-digit string;
            // keep those to one value in 64 so the test stays quick.
            if (std::fabs(v) > 1e30 && (i & 63) != 0)
                v = std::ldexp(v, -900);
            break;
          }
          case 1:
            v = std::pow(10.0, rng.nextDouble(-12.0, 15.0)) *
                (rng.next() & 1 ? -1.0 : 1.0);
            break;
          default:
            v = std::ldexp(static_cast<double>(rng.nextBounded(1u << 24)),
                           -static_cast<int>(rng.nextBounded(30)));
            break;
        }
        // Each value meets one fixed form, one of the significant
        // forms the emitters use and one of "%.*g" 1..17 in turn, so
        // every conversion sees tens of thousands of values of each
        // shape while the test stays at about a second.
        check(v, true, kFixedDecimals[i % 4], failures);
        check(v, false, kUsedDigits[(i / 3) % 4], failures);
        check(v, false, 1 + i % kRoundTripDigits, failures);
        if (failures > 10)
            break;
    }
    EXPECT_EQ(failures, 0);
}

/** @p v and its neighbours 1..4 ulps away on both sides. */
void
pushUlpNeighbours(std::vector<double> &out, double v)
{
    out.push_back(v);
    double up = v, down = v;
    for (int i = 0; i < 4; ++i) {
        up = std::nextafter(up, HUGE_VAL);
        down = std::nextafter(down, -HUGE_VAL);
        out.push_back(up);
        out.push_back(down);
    }
}

TEST(NumberFormat, IntegerPathNearTiesAndBoundMatchPrintf)
{
    // appendFixed prints n <= 6 decimals from |v| * 10^n rounded to an
    // integer, and falls back to to_chars when that product ends in .5
    // or is 4e15 or more. Probe both sides of each rule at every fixed
    // precision in use.
    int failures = 0;
    for (int n : kFixedDecimals) {
        const double scale = std::pow(10.0, n);
        std::vector<double> values;
        // Decimal ties (k + 0.5) / 10^n, small to near the bound.
        std::vector<double> ks;
        for (int k = 0; k < 200; ++k)
            ks.push_back(k);
        for (double k = 1000; k < 4e15; k = k * 7 + 3)
            ks.push_back(k);
        ks.push_back(std::floor(4e15) - 1);
        for (double k : ks)
            pushUlpNeighbours(values, (k + 0.5) / scale);
        // The fast-path bound, from both sides.
        pushUlpNeighbours(values, 4e15 / scale);
        for (double f : {0.5, 0.999, 0.999999, 1.000001, 1.001, 2.0})
            values.push_back(4e15 / scale * f);
        // Above the bound the scaled product is no longer exact to the
        // unit, so these must take the to_chars path.
        for (int i = 1; i <= 400; ++i)
            values.push_back(4e15 / scale * (1.0 + i / 37.0));
        // Zeros and negatives that round to zero keep their sign.
        for (double v : {0.0, 1e-300, 4e-324, 1e-9, 0.001, 0.004, 0.005,
                         0.006, 0.049, 0.05, 0.051, 0.4999999})
            values.push_back(v);
        for (double v : values) {
            check(v, true, n, failures);
            check(-v, true, n, failures);
        }
    }
    EXPECT_EQ(failures, 0);
    EXPECT_EQ(fixedText(-0.0, 2), "-0.00");
    EXPECT_EQ(fixedText(-0.001, 2), "-0.00");
    EXPECT_EQ(fixedText(0.0, 1), "0.0");
    EXPECT_EQ(fixedText(-0.05, 1), "-0.1");
}

TEST(NumberFormat, IntegerSigPathMatchesPrintf)
{
    // appendSig prints an integral |v| below 2^53 and 10^digits with
    // integer to_chars. Probe zeros, the 2^53 bound, powers of ten on
    // both sides of each precision's switch to exponent form, and
    // random integers of every magnitude.
    const double two53 = 9007199254740992.0;
    std::vector<double> values = {0.0,       1.0,  two53 - 1,
                                  two53,     two53 + 2,
                                  1e16,      1e17, 123456789.0,
                                  1e15 - 1,  1e15, 1e15 + 1};
    for (int e = 0; e <= 17; ++e) {
        const double p = std::pow(10.0, e);
        values.push_back(p);
        values.push_back(p - 1);
        values.push_back(p + 1);
    }
    Rng rng(7);
    for (int i = 0; i < 100000; ++i) {
        // Uniform over bit lengths, so small integers are common too.
        const uint64_t shift = rng.nextBounded(64);
        const uint64_t bits = rng.next() >> shift;
        values.push_back(static_cast<double>(bits & ((1ull << 53) - 1)));
    }
    int failures = 0;
    for (double v : values) {
        for (int d = 1; d <= kRoundTripDigits; ++d) {
            check(v, false, d, failures);
            check(-v, false, d, failures);
        }
    }
    EXPECT_EQ(failures, 0);
    std::string out;
    appendSig(out, -0.0, kRoundTripDigits);
    EXPECT_EQ(out, "-0");
}

TEST(NumberFormat, StreamDigitsMatchOstreamDefault)
{
    Rng rng(42);
    for (int i = 0; i < 10000; ++i) {
        const double v = std::pow(10.0, rng.nextDouble(-8.0, 12.0));
        std::ostringstream os;
        os << v;
        std::string got;
        appendSig(got, v, kStreamDigits);
        ASSERT_EQ(got, os.str());
    }
}

TEST(NumberFormat, AppendsWithoutTouchingExistingText)
{
    std::string out = "x=";
    appendFixed(out, 3.14159, 2);
    out += ",y=";
    appendSig(out, 0.1, kRoundTripDigits);
    EXPECT_EQ(out, "x=3.14,y=0.10000000000000001");
    EXPECT_EQ(fixedText(-2.5, 1), "-2.5");
}

} // namespace
