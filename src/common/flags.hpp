/**
 * @file
 * The command-line grammar of the four tools: one flag table each.
 *
 * A FlagTable row is (name, metavar, help line, setter).  parse() walks
 * argv against the table and --help prints the table, so the accepted
 * flags and the documented ones cannot drift apart.  Numeric setters go
 * through the checked parsers of common/text.hpp: an unknown flag, a
 * missing value, or a malformed or out-of-range value prints one
 * "error: --flag: reason" line and stops with exit code 2 (usage
 * error), in every tool.
 */

#ifndef QAOA_COMMON_FLAGS_HPP
#define QAOA_COMMON_FLAGS_HPP

#include <climits>
#include <cstdint>
#include <functional>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "common/error.hpp"

namespace qaoa::cli {

/** Exit code of a usage error (bad flag, bad value, missing input). */
inline constexpr int kExitUsage = 2;

class FlagTable
{
  public:
    /** Stores the parsed value of one flag; a non-ok Status rejects it. */
    using Setter = std::function<Status(const std::string &value)>;

    /** @p usage is the first line of --help ("usage: tool [options]"). */
    explicit FlagTable(std::string usage);

    /** Starts a titled group of flags in --help. */
    FlagTable &section(const std::string &title);

    /** A flag taking one value, stored by @p set. */
    FlagTable &add(const std::string &name, const std::string &metavar,
                   const std::string &help, Setter set);

    /** A flag taking no value; @p on runs when it appears. */
    FlagTable &toggle(const std::string &name, const std::string &help,
                      std::function<void()> on);

    /** @name Typed shorthands over add() / toggle(). @{ */
    FlagTable &text(const std::string &name, const std::string &metavar,
                    const std::string &help, std::string &out);
    FlagTable &choice(const std::string &name, const std::string &help,
                      std::string &out, std::vector<std::string> choices);
    FlagTable &integer(const std::string &name, const std::string &metavar,
                       const std::string &help, int &out, int lo = INT_MIN,
                       int hi = INT_MAX);
    FlagTable &uint64(const std::string &name, const std::string &metavar,
                      const std::string &help, std::uint64_t &out);
    FlagTable &count(const std::string &name, const std::string &metavar,
                     const std::string &help, std::size_t &out,
                     std::size_t lo = 0);
    FlagTable &real(const std::string &name, const std::string &metavar,
                    const std::string &help, double &out);
    FlagTable &setFlag(const std::string &name, const std::string &help,
                       bool &out, bool value = true);
    /** @} */

    /**
     * Parses argv[1..argc).  Arguments that are not flags go to
     * @p positional, or are a usage error when it is null.
     *
     * @return nullopt to go on running; otherwise the exit code to stop
     *         with: 0 after --help, kExitUsage after a usage error.
     */
    [[nodiscard]] std::optional<int>
    parse(int argc, char **argv,
          std::vector<std::string> *positional = nullptr) const;

    /** Writes the usage line and one line per flag. */
    void printHelp(std::ostream &out) const;

  private:
    struct Row
    {
        std::string name;    ///< "--flag"; empty for a section title.
        std::string metavar; ///< Value placeholder; empty for a toggle.
        std::string help;
        Setter set;
    };

    std::string usage_;
    std::vector<Row> rows_;
};

/** Prints "error: @p what" to stderr and returns kExitUsage. */
int usageError(const std::string &what);

} // namespace qaoa::cli

#endif // QAOA_COMMON_FLAGS_HPP
