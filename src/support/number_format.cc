#include "support/number_format.hh"

#include <charconv>
#include <cmath>
#include <cstdint>

#include "support/logging.hh"

namespace rfl
{

namespace
{

/**
 * Longest output either form can produce for the precisions this
 * program uses: "%.*f" of -DBL_MAX is 1 + 309 digits + '.' + the
 * decimals; "%.*g" stays under 30 bytes up to 17 digits.
 */
constexpr int kMaxPrecision = 40;
constexpr size_t kBufferBytes = 1 + 309 + 1 + kMaxPrecision;

void
append(std::string &out, double v, std::chars_format form, int precision)
{
    RFL_ASSERT(precision >= 0 && precision <= kMaxPrecision);
    char buf[kBufferBytes];
    const std::to_chars_result r =
        std::to_chars(buf, buf + sizeof(buf), v, form, precision);
    RFL_ASSERT(r.ec == std::errc());
    out.append(buf, r.ptr);
}

/** Decimals the exact integer path of appendFixed handles; 10^n is
 *  exact in a double for each of them. */
constexpr double kPow10[] = {1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6};
constexpr int kMaxFastDecimals = 6;

/** Scaled magnitudes below this take the integer path. It is under
 *  2^52, so every half-integer up to it is a double. */
constexpr double kFastBound = 4e15;

/**
 * printf("%.*f") for @p decimals <= 6 without to_chars: scale |v| by
 * 10^n and print the nearest integer with the decimal point put back.
 *
 * That integer is the correctly rounded result. The product s is the
 * exact value P = |v| * 10^n rounded once, and rounding is monotone
 * and leaves every half-integer h < 2^52 fixed, so s lies on the same
 * side of each such h as P does, or on h itself. Unless s ends in
 * exactly .5, s and P therefore round to the same integer. An s that
 * ends in .5 (a possible tie), nan, inf and s >= 4e15 @return false
 * and take the to_chars path, which rounds the exact binary value.
 */
bool
appendFixedFast(std::string &out, double v, int decimals)
{
    if (decimals < 0 || decimals > kMaxFastDecimals)
        return false;
    const double scaled = std::fabs(v) * kPow10[decimals];
    if (!(scaled < kFastBound))
        return false;
    const double whole = std::floor(scaled);
    const double frac = scaled - whole; // exact below 2^52
    if (frac == 0.5)
        return false;
    uint64_t digits = static_cast<uint64_t>(whole) + (frac > 0.5);

    char buf[24]; // sign + 16 digits + '.' + padding zeros
    char *p = buf + sizeof(buf);
    for (int i = 0; i < decimals; ++i) {
        *--p = static_cast<char>('0' + digits % 10);
        digits /= 10;
    }
    if (decimals > 0)
        *--p = '.';
    do {
        *--p = static_cast<char>('0' + digits % 10);
        digits /= 10;
    } while (digits != 0);
    // printf keeps the sign of anything that rounds to zero: -0.001
    // prints "-0.00", and so does -0.0.
    if (std::signbit(v))
        *--p = '-';
    out.append(p, buf + sizeof(buf));
    return true;
}

} // namespace

void
appendFixed(std::string &out, double v, int decimals)
{
    if (!appendFixedFast(out, v, decimals))
        append(out, v, std::chars_format::fixed, decimals);
}

void
appendSig(std::string &out, double v, int digits)
{
    append(out, v, std::chars_format::general, digits);
}

std::string
fixedText(double v, int decimals)
{
    std::string out;
    appendFixed(out, v, decimals);
    return out;
}

} // namespace rfl
