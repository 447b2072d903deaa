/**
 * @file
 * The one way to turn text into values: checked whole-token parsers for
 * integers and doubles, the hexfloat codec, and the comma-list grammar
 * shared by the tools' flags, the serve wire records, the compile
 * cache metadata and the optimizer checkpoints.
 *
 * Every parser consumes the WHOLE token or fails: "3x", "", " 3",
 * "+3" and out-of-range values are errors, never a silent prefix or a
 * wrapped negative.  Failures come back as StatusOr with code
 * InvalidArgument and a reason that quotes the token, so a tool can
 * print "error: --flag: <reason>" and a decoder can answer a structured
 * error frame.  Invariant QE107 (scripts/check_invariants.py) keeps
 * std::sto* / ato* / strto* out of the rest of src/ and tools/.
 *
 * List grammar: items are separated by ',' with no spaces; the empty
 * string is the empty list, and an empty item ("1,,2", "1,") is an
 * error.  Pairs are "a-b" with non-negative ends.
 */

#ifndef QAOA_COMMON_TEXT_HPP
#define QAOA_COMMON_TEXT_HPP

#include <climits>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/error.hpp"

namespace qaoa::text {

/** A decimal integer in [@p lo, @p hi]. */
[[nodiscard]] StatusOr<int> parseInt(std::string_view token,
                                     int lo = INT_MIN, int hi = INT_MAX);

/** A decimal unsigned 64-bit integer; a sign is an error. */
[[nodiscard]] StatusOr<std::uint64_t> parseUint64(std::string_view token);

/** A finite double in any strtod spelling (decimal or hexfloat). */
[[nodiscard]] StatusOr<double> parseDouble(std::string_view token);

/** Formats @p v as a C99 hexfloat ("%a") that round-trips bit-exactly. */
[[nodiscard]] std::string formatHexDouble(double v);

/** Parses a formatHexDouble() string, bit-exactly; plain decimal and
 *  the non-finite spellings (inf, nan) are accepted too. */
[[nodiscard]] StatusOr<double> parseHexDouble(std::string_view token);

/** @p s without leading and trailing spaces, tabs and line breaks. */
[[nodiscard]] std::string trim(std::string_view s);

/** Splits on @p sep; "" is no items, and empty items are kept. */
[[nodiscard]] std::vector<std::string> split(const std::string &text,
                                             char sep);

/** Joins @p items with @p sep (the inverse of split()). */
[[nodiscard]] std::string join(const std::vector<std::string> &items,
                               char sep);

/** "3,7,12": integers in [@p lo, @p hi]. */
[[nodiscard]] StatusOr<std::vector<int>>
parseIntList(const std::string &text, int lo = INT_MIN, int hi = INT_MAX);

/** "a-b" with non-negative integer ends. */
[[nodiscard]] StatusOr<std::pair<int, int>> parsePair(std::string_view token);

/** "0-1,4-5": a list of parsePair() items. */
[[nodiscard]] StatusOr<std::vector<std::pair<int, int>>>
parsePairList(const std::string &text);

/** A list of parseHexDouble() items. */
[[nodiscard]] StatusOr<std::vector<double>>
parseHexDoubleList(const std::string &text);

/** @name Writers: the inverses of the list parsers. @{ */
[[nodiscard]] std::string joinInts(const std::vector<int> &values);
[[nodiscard]] std::string
joinPairs(const std::vector<std::pair<int, int>> &pairs);
[[nodiscard]] std::string joinHexDoubles(const std::vector<double> &values);
/** @} */

/**
 * The value of @p parsed, or throws Error with the same code and
 * "@p context: @p field: <reason>" — for decoders whose failures are
 * exceptions (checkpoints, cache entries, wire records).
 */
template <typename T>
T
orThrow(StatusOr<T> parsed, std::string_view context, std::string_view field)
{
    if (!parsed.ok())
        raiseError(parsed.status().code(),
                   std::string(context) + ": " + std::string(field) + ": " +
                       parsed.status().message());
    return std::move(parsed).value();
}

} // namespace qaoa::text

#endif // QAOA_COMMON_TEXT_HPP
