#include "support/units.hh"

#include <cctype>
#include <cmath>
#include <cstdlib>

#include "support/logging.hh"
#include "support/number_format.hh"

namespace rfl
{

namespace
{

std::string
formatScaled(double v, double base, const char *const *suffixes,
             int n_suffixes, const char *unit)
{
    int idx = 0;
    double scaled = v;
    while (std::fabs(scaled) >= base && idx < n_suffixes - 1) {
        scaled /= base;
        ++idx;
    }
    std::string out = fixedText(scaled, 2);
    out.append(" ").append(suffixes[idx]).append(unit);
    return out;
}

} // namespace

std::string
formatBytes(double bytes)
{
    static const char *suffixes[] = {"", "Ki", "Mi", "Gi", "Ti"};
    return formatScaled(bytes, 1024.0, suffixes, 5, "B");
}

std::string
formatFlops(double flops)
{
    static const char *suffixes[] = {"", "K", "M", "G", "T"};
    return formatScaled(flops, 1000.0, suffixes, 5, "flops");
}

std::string
formatFlopRate(double flops_per_sec)
{
    static const char *suffixes[] = {"", "K", "M", "G", "T"};
    return formatScaled(flops_per_sec, 1000.0, suffixes, 5, "flop/s");
}

std::string
formatByteRate(double bytes_per_sec)
{
    static const char *suffixes[] = {"", "K", "M", "G", "T"};
    return formatScaled(bytes_per_sec, 1000.0, suffixes, 5, "B/s");
}

std::string
formatSeconds(double seconds)
{
    if (seconds < 1e-6)
        return fixedText(seconds * 1e9, 1) + " ns";
    if (seconds < 1e-3)
        return fixedText(seconds * 1e6, 2) + " us";
    if (seconds < 1.0)
        return fixedText(seconds * 1e3, 2) + " ms";
    return fixedText(seconds, 3) + " s";
}

std::string
formatSig(double v, int digits)
{
    std::string out;
    appendSig(out, v, digits);
    return out;
}

uint64_t
parseSize(const std::string &text)
{
    if (text.empty())
        fatal("parseSize: empty size expression");
    char *end = nullptr;
    const double base = std::strtod(text.c_str(), &end);
    if (end == text.c_str())
        fatal("parseSize: cannot parse '%s'", text.c_str());
    uint64_t mult = 1;
    if (*end != '\0') {
        switch (std::tolower(static_cast<unsigned char>(*end))) {
          case 'k': mult = KiB; break;
          case 'm': mult = MiB; break;
          case 'g': mult = GiB; break;
          default:
            fatal("parseSize: unknown suffix in '%s'", text.c_str());
        }
    }
    if (base < 0)
        fatal("parseSize: negative size '%s'", text.c_str());
    return static_cast<uint64_t>(base * static_cast<double>(mult));
}

} // namespace rfl
