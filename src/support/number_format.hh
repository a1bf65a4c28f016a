/**
 * @file
 * The one number formatter behind every artifact and telemetry
 * emitter: SVG, HTML, JSON, Prometheus text and trace events.
 *
 * Both forms append to a caller's std::string and are built on
 * std::to_chars with an explicit precision, which the standard defines
 * to produce exactly what the matching printf conversion produces in
 * the "C" locale (nan/inf spellings included). Output is therefore
 * byte-identical to the snprintf calls these replace, at a fraction of
 * their cost and with no locale or stream state involved.
 *
 * appendSig first prints an integral value below both 2^53 and
 * 10^digits with integer to_chars (counters and byte totals in JSON).
 * appendFixed with at most 6 decimals (every SVG pixel coordinate)
 * first tries an exact integer path: it scales by 10^n, rounds, and
 * puts the decimal point back. It uses to_chars instead when the
 * scaled value ends in exactly .5 (a possible tie), is not finite, or
 * is 4e15 or larger.
 */

#ifndef RFL_SUPPORT_NUMBER_FORMAT_HH
#define RFL_SUPPORT_NUMBER_FORMAT_HH

#include <string>

namespace rfl
{

/** Significant digits that round-trip every double ("%.17g"). */
constexpr int kRoundTripDigits = 17;

/** Significant digits of `std::ostream << double` by default ("%g"). */
constexpr int kStreamDigits = 6;

/** Append @p v as printf("%.*f", @p decimals, v) would. */
void appendFixed(std::string &out, double v, int decimals);

/** Append @p v as printf("%.*g", @p digits, v) would. */
void appendSig(std::string &out, double v, int digits);

/** @return @p v as printf("%.*f", @p decimals, v) would print it. */
std::string fixedText(double v, int decimals);

} // namespace rfl

#endif // RFL_SUPPORT_NUMBER_FORMAT_HH
