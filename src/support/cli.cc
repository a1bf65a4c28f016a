#include "support/cli.hh"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "support/logging.hh"

namespace rfl
{

void
Cli::addOption(const std::string &name, const std::string &help,
               const std::string &default_val)
{
    specs_.push_back({name, help, default_val});
}

void
Cli::parse(int argc, const char *const *argv)
{
    auto known = [&](const std::string &name) {
        for (const auto &s : specs_)
            if (s.name == name)
                return true;
        return false;
    };

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            std::fputs(usage(argv[0]).c_str(), stdout);
            std::exit(0);
        }
        if (arg.rfind("--", 0) != 0) {
            positional_.push_back(arg);
            continue;
        }
        arg = arg.substr(2);
        std::string value;
        const size_t eq = arg.find('=');
        if (eq != std::string::npos) {
            value = arg.substr(eq + 1);
            arg = arg.substr(0, eq);
        } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0)) {
            // Next token is not an option: treat it as this option's value.
            value = argv[++i];
        }
        if (!known(arg))
            fatal("unknown option '--%s' (try --help)", arg.c_str());
        values_[arg] = value;
    }
}

bool
Cli::has(const std::string &name) const
{
    return values_.count(name) > 0;
}

std::string
Cli::get(const std::string &name, const std::string &fallback) const
{
    auto it = values_.find(name);
    return it == values_.end() ? fallback : it->second;
}

long
Cli::getInt(const std::string &name, long fallback, long lo, long hi) const
{
    auto it = values_.find(name);
    if (it == values_.end() || it->second.empty())
        return fallback;
    char *end = nullptr;
    errno = 0;
    const long v = std::strtol(it->second.c_str(), &end, 0);
    if (*end != '\0')
        fatal("option --%s expects an integer, got '%s'", name.c_str(),
              it->second.c_str());
    if (errno == ERANGE || v < lo || v > hi)
        fatal("option --%s must be in [%ld, %ld], got '%s'", name.c_str(),
              lo, hi, it->second.c_str());
    return v;
}

double
Cli::getDouble(const std::string &name, double fallback) const
{
    auto it = values_.find(name);
    if (it == values_.end() || it->second.empty())
        return fallback;
    char *end = nullptr;
    const double v = std::strtod(it->second.c_str(), &end);
    if (*end != '\0')
        fatal("option --%s expects a number, got '%s'", name.c_str(),
              it->second.c_str());
    return v;
}

std::string
Cli::usage(const std::string &program) const
{
    std::ostringstream oss;
    oss << "usage: " << program << " [options]\n\noptions:\n";
    for (const auto &s : specs_) {
        oss << "  --" << s.name;
        if (!s.default_val.empty())
            oss << " <value, default " << s.default_val << ">";
        oss << "\n      " << s.help << "\n";
    }
    oss << "  --help\n      show this message\n";
    return oss.str();
}

std::string
outputDirectory()
{
    const char *env = std::getenv("RFL_OUT_DIR");
    return env && *env ? env : "out";
}

bool
fastMode()
{
    const char *env = std::getenv("RFL_FAST");
    return env && std::string(env) != "0";
}

} // namespace rfl
