#include "common/flags.hpp"

#include <algorithm>
#include <iostream>

#include "common/text.hpp"

namespace qaoa::cli {

namespace {

/** Stores a parsed value in @p out, or passes the parse failure on. */
template <typename T, typename U>
Status
store(StatusOr<T> parsed, U &out)
{
    if (!parsed.ok())
        return parsed.status();
    out = std::move(parsed).value();
    return {};
}

} // namespace

FlagTable::FlagTable(std::string usage) : usage_(std::move(usage))
{
    rows_.push_back({"--help", "", "print this help and exit", nullptr});
}

FlagTable &
FlagTable::section(const std::string &title)
{
    rows_.push_back({"", "", title, nullptr});
    return *this;
}

FlagTable &
FlagTable::add(const std::string &name, const std::string &metavar,
               const std::string &help, Setter set)
{
    rows_.push_back({name, metavar, help, std::move(set)});
    return *this;
}

FlagTable &
FlagTable::toggle(const std::string &name, const std::string &help,
                  std::function<void()> on)
{
    return add(name, "", help, [on = std::move(on)](const std::string &) {
        on();
        return Status();
    });
}

FlagTable &
FlagTable::text(const std::string &name, const std::string &metavar,
                const std::string &help, std::string &out)
{
    return add(name, metavar, help, [&out](const std::string &v) {
        out = v;
        return Status();
    });
}

FlagTable &
FlagTable::choice(const std::string &name, const std::string &help,
                  std::string &out, std::vector<std::string> choices)
{
    const std::string metavar = text::join(choices, '|');
    return add(name, metavar, help,
               [&out, choices = std::move(choices),
                metavar](const std::string &v) {
                   if (std::find(choices.begin(), choices.end(), v) ==
                       choices.end())
                       return Status(ErrorCode::InvalidArgument,
                                     "\"" + v + "\" is not one of " +
                                         metavar);
                   out = v;
                   return Status();
               });
}

FlagTable &
FlagTable::integer(const std::string &name, const std::string &metavar,
                   const std::string &help, int &out, int lo, int hi)
{
    return add(name, metavar, help, [&out, lo, hi](const std::string &v) {
        return store(text::parseInt(v, lo, hi), out);
    });
}

FlagTable &
FlagTable::uint64(const std::string &name, const std::string &metavar,
                  const std::string &help, std::uint64_t &out)
{
    return add(name, metavar, help, [&out](const std::string &v) {
        return store(text::parseUint64(v), out);
    });
}

FlagTable &
FlagTable::count(const std::string &name, const std::string &metavar,
                 const std::string &help, std::size_t &out, std::size_t lo)
{
    return add(name, metavar, help, [&out, lo](const std::string &v) {
        const StatusOr<std::uint64_t> n = text::parseUint64(v);
        if (n.ok() && n.value() < lo)
            return Status(ErrorCode::InvalidArgument,
                          "must be >= " + std::to_string(lo) + ", got " + v);
        return store(n, out);
    });
}

FlagTable &
FlagTable::real(const std::string &name, const std::string &metavar,
                const std::string &help, double &out)
{
    return add(name, metavar, help, [&out](const std::string &v) {
        return store(text::parseDouble(v), out);
    });
}

FlagTable &
FlagTable::setFlag(const std::string &name, const std::string &help,
                   bool &out, bool value)
{
    return toggle(name, help, [&out, value] { out = value; });
}

std::optional<int>
FlagTable::parse(int argc, char **argv,
                 std::vector<std::string> *positional) const
{
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--help") {
            printHelp(std::cout);
            return 0;
        }
        const auto row = std::find_if(
            rows_.begin(), rows_.end(),
            [&](const Row &r) { return !r.name.empty() && r.name == arg; });
        if (row == rows_.end()) {
            if (positional && arg.rfind("--", 0) != 0) {
                positional->push_back(arg);
                continue;
            }
            return usageError(arg + ": unknown flag (see --help)");
        }
        std::string value;
        if (!row->metavar.empty()) {
            if (i + 1 >= argc)
                return usageError(arg + ": missing value");
            value = argv[++i];
        }
        if (const Status set = row->set(value); !set.ok())
            return usageError(arg + ": " + set.message());
    }
    return std::nullopt;
}

void
FlagTable::printHelp(std::ostream &out) const
{
    std::size_t width = 0;
    for (const Row &r : rows_)
        width = std::max(width, r.name.size() + 1 + r.metavar.size());
    out << usage_ << "\n";
    for (const Row &r : rows_) {
        if (r.name.empty()) {
            out << r.help << "\n";
            continue;
        }
        std::string head = r.name;
        if (!r.metavar.empty())
            head += " " + r.metavar;
        head.resize(width, ' ');
        out << "  " << head << "  " << r.help << "\n";
    }
}

int
usageError(const std::string &what)
{
    std::cerr << "error: " << what << "\n";
    return kExitUsage;
}

} // namespace qaoa::cli
