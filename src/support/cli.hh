/**
 * @file
 * Tiny command-line option parser shared by bench/example binaries.
 *
 * Supports `--flag`, `--key=value` and `--key value` forms plus `--help`.
 * Every bench binary must run with no arguments (the reproduction driver
 * invokes them bare), so all options have defaults.
 */

#ifndef RFL_SUPPORT_CLI_HH
#define RFL_SUPPORT_CLI_HH

#include <climits>
#include <map>
#include <string>
#include <vector>

namespace rfl
{

/** Upper bound of every thread-count flag (0 = one per hardware thread).*/
constexpr long maxThreadsFlag = 1024;

/** Parsed command line: options plus positional arguments. */
class Cli
{
  public:
    /** Describe one accepted option for --help output. */
    struct OptionSpec
    {
        std::string name;        // without leading dashes
        std::string help;
        std::string default_val; // shown in help; "" for flags
    };

    Cli() = default;

    /** Register an option (for help text and typo detection). */
    void addOption(const std::string &name, const std::string &help,
                   const std::string &default_val = "");

    /**
     * Parse argv. Unknown --options are fatal(); `--help` prints usage
     * and exits 0.
     */
    void parse(int argc, const char *const *argv);

    /** @return true when --name was given (with or without a value). */
    bool has(const std::string &name) const;

    /** @return value of --name, or @p fallback when absent. */
    std::string get(const std::string &name,
                    const std::string &fallback = "") const;

    /**
     * @return integer value of --name, or @p fallback when absent.
     * A value that is not an integer or lies outside [@p lo, @p hi] is
     * a fatal() naming the flag (the fallback is not checked).
     */
    long getInt(const std::string &name, long fallback,
                long lo = LONG_MIN, long hi = LONG_MAX) const;

    /** @return double value of --name, or @p fallback when absent. */
    double getDouble(const std::string &name, double fallback) const;

    /** @return positional (non-option) arguments in order. */
    const std::vector<std::string> &positional() const { return positional_; }

    /** Render usage text. */
    std::string usage(const std::string &program) const;

  private:
    std::vector<OptionSpec> specs_;
    std::map<std::string, std::string> values_;
    std::vector<std::string> positional_;
};

/**
 * @return the output directory for experiment artifacts: $RFL_OUT_DIR if
 * set, otherwise "out".
 */
std::string outputDirectory();

/**
 * @return true when a throughput benchmark should run in reduced-size
 * mode ($RFL_FAST set to anything but "0"): sim_throughput and
 * service_throughput shrink their sizes and windows for CI. The paper's
 * figures always run at full size.
 */
bool fastMode();

} // namespace rfl

#endif // RFL_SUPPORT_CLI_HH
