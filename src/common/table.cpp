#include "common/table.hpp"

#include <algorithm>
#include <iomanip>
#include <sstream>

#include "common/error.hpp"

namespace qaoa {

Table::Table(std::vector<std::string> headers) : headers_(std::move(headers))
{
    QAOA_CHECK(!headers_.empty(), "table needs at least one column");
}

void
Table::addRow(std::vector<std::string> cells)
{
    QAOA_CHECK(cells.size() == headers_.size(),
               "row has " << cells.size() << " cells, expected "
                          << headers_.size());
    rows_.push_back(std::move(cells));
}

std::string
Table::num(double v, int precision)
{
    std::ostringstream os;
    os << std::fixed << std::setprecision(precision) << v;
    return os.str();
}

std::string
Table::num(long long v)
{
    return std::to_string(v);
}

void
Table::print(std::ostream &os) const
{
    std::vector<std::size_t> widths(headers_.size());
    for (std::size_t c = 0; c < headers_.size(); ++c)
        widths[c] = headers_[c].size();
    for (const auto &row : rows_)
        for (std::size_t c = 0; c < row.size(); ++c)
            widths[c] = std::max(widths[c], row[c].size());

    auto emit_row = [&](const std::vector<std::string> &row) {
        for (std::size_t c = 0; c < row.size(); ++c) {
            os << std::left << std::setw(static_cast<int>(widths[c]))
               << row[c];
            os << (c + 1 == row.size() ? "\n" : "  ");
        }
    };

    emit_row(headers_);
    std::size_t total = 0;
    for (std::size_t w : widths)
        total += w + 2;
    os << std::string(total >= 2 ? total - 2 : total, '-') << "\n";
    for (const auto &row : rows_)
        emit_row(row);
}

void
Table::printCsv(std::ostream &os) const
{
    auto emit_cell = [&](const std::string &cell) {
        if (cell.find_first_of(",\"\r\n") == std::string::npos) {
            os << cell;
            return;
        }
        os << '"';
        for (char ch : cell) {
            if (ch == '"')
                os << '"';
            os << ch;
        }
        os << '"';
    };
    auto emit_row = [&](const std::vector<std::string> &row) {
        for (std::size_t c = 0; c < row.size(); ++c) {
            emit_cell(row[c]);
            os << (c + 1 == row.size() ? "\n" : ",");
        }
    };
    emit_row(headers_);
    for (const auto &row : rows_)
        emit_row(row);
}

} // namespace qaoa
