#include "common/text.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace qaoa::text {

namespace {

std::string
quoted(std::string_view token)
{
    std::string out = "\"";
    out.append(token);
    out += '"';
    return out;
}

Status
notA(std::string_view token, const char *what)
{
    return {ErrorCode::InvalidArgument, quoted(token) + " is not " + what};
}

/** from_chars over the whole token: no sign for unsigned T, no
 *  whitespace, no trailing bytes. */
template <typename T>
StatusOr<T>
parseIntegral(std::string_view token, const char *what)
{
    T out{};
    const char *end = token.data() + token.size();
    const auto [ptr, ec] = std::from_chars(token.data(), end, out);
    if (ec == std::errc::result_out_of_range)
        return Status(ErrorCode::InvalidArgument,
                      quoted(token) + " is out of range");
    if (ec != std::errc() || ptr != end)
        return notA(token, what);
    return out;
}

/** strtod over the whole token (which must not start with space). */
StatusOr<double>
parseAnyDouble(std::string_view token)
{
    if (token.empty() ||
        std::isspace(static_cast<unsigned char>(token.front())))
        return notA(token, "a number");
    const std::string copy(token);
    char *end = nullptr;
    const double out = std::strtod(copy.c_str(), &end);
    if (end != copy.c_str() + copy.size())
        return notA(token, "a number");
    return out;
}

/** Parses each comma-separated item of @p text with @p parse_item. */
template <typename T, typename F>
StatusOr<std::vector<T>>
parseList(const std::string &text, F &&parse_item)
{
    std::vector<T> out;
    for (const std::string &item : split(text, ',')) {
        if (item.empty())
            return Status(ErrorCode::InvalidArgument,
                          "empty item in list " + quoted(text));
        StatusOr<T> value = parse_item(item);
        if (!value.ok())
            return value.status();
        out.push_back(std::move(value).value());
    }
    return out;
}

template <typename T, typename F>
std::string
joinWith(const std::vector<T> &values, char sep, F &&format)
{
    std::string out;
    for (std::size_t i = 0; i < values.size(); ++i) {
        if (i)
            out += sep;
        out += format(values[i]);
    }
    return out;
}

} // namespace

StatusOr<int>
parseInt(std::string_view token, int lo, int hi)
{
    const StatusOr<long long> value =
        parseIntegral<long long>(token, "an integer");
    if (!value.ok())
        return value.status();
    if (value.value() < lo || value.value() > hi) {
        if (lo == INT_MIN && hi == INT_MAX)
            return Status(ErrorCode::InvalidArgument,
                          quoted(token) + " is out of range");
        const std::string bound =
            hi == INT_MAX ? ">= " + std::to_string(lo)
                          : "in [" + std::to_string(lo) + ", " +
                                std::to_string(hi) + "]";
        return Status(ErrorCode::InvalidArgument,
                      "must be " + bound + ", got " + std::string(token));
    }
    return static_cast<int>(value.value());
}

StatusOr<std::uint64_t>
parseUint64(std::string_view token)
{
    return parseIntegral<std::uint64_t>(token, "an unsigned integer");
}

StatusOr<double>
parseDouble(std::string_view token)
{
    const StatusOr<double> value = parseAnyDouble(token);
    if (value.ok() && !std::isfinite(value.value()))
        return notA(token, "a finite number");
    return value;
}

std::string
formatHexDouble(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%a", v);
    return buf;
}

StatusOr<double>
parseHexDouble(std::string_view token)
{
    return parseAnyDouble(token);
}

std::string
trim(std::string_view s)
{
    const std::size_t begin = s.find_first_not_of(" \t\r\n");
    if (begin == std::string_view::npos)
        return "";
    return std::string(s.substr(begin, s.find_last_not_of(" \t\r\n") -
                                           begin + 1));
}

std::vector<std::string>
split(const std::string &text, char sep)
{
    std::vector<std::string> out;
    if (text.empty())
        return out;
    std::size_t start = 0;
    for (;;) {
        const std::size_t pos = text.find(sep, start);
        if (pos == std::string::npos) {
            out.push_back(text.substr(start));
            return out;
        }
        out.push_back(text.substr(start, pos - start));
        start = pos + 1;
    }
}

std::string
join(const std::vector<std::string> &items, char sep)
{
    return joinWith(items, sep, [](const std::string &s) { return s; });
}

StatusOr<std::vector<int>>
parseIntList(const std::string &text, int lo, int hi)
{
    return parseList<int>(text, [&](const std::string &item) {
        return parseInt(item, lo, hi);
    });
}

StatusOr<std::pair<int, int>>
parsePair(std::string_view token)
{
    const std::size_t dash = token.find('-');
    if (dash == std::string_view::npos)
        return notA(token, "a pair a-b");
    const StatusOr<int> a = parseInt(token.substr(0, dash), 0);
    const StatusOr<int> b = parseInt(token.substr(dash + 1), 0);
    if (!a.ok() || !b.ok())
        return notA(token, "a pair a-b");
    return std::make_pair(a.value(), b.value());
}

StatusOr<std::vector<std::pair<int, int>>>
parsePairList(const std::string &text)
{
    return parseList<std::pair<int, int>>(text, parsePair);
}

StatusOr<std::vector<double>>
parseHexDoubleList(const std::string &text)
{
    return parseList<double>(text, parseHexDouble);
}

std::string
joinInts(const std::vector<int> &values)
{
    return joinWith(values, ',', [](int v) { return std::to_string(v); });
}

std::string
joinPairs(const std::vector<std::pair<int, int>> &pairs)
{
    return joinWith(pairs, ',', [](const std::pair<int, int> &p) {
        return std::to_string(p.first) + "-" + std::to_string(p.second);
    });
}

std::string
joinHexDoubles(const std::vector<double> &values)
{
    return joinWith(values, ',', formatHexDouble);
}

} // namespace qaoa::text
