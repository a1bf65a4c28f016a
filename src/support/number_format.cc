#include "support/number_format.hh"

#include <charconv>

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

} // namespace

void
appendFixed(std::string &out, double v, int decimals)
{
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
