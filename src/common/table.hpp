/**
 * @file
 * Aligned plain-text table printer for benchmark output.
 *
 * Every figure/table bench prints its rows through this class so the
 * regenerated artifacts share one consistent, diff-friendly format.
 */

#ifndef QAOA_COMMON_TABLE_HPP
#define QAOA_COMMON_TABLE_HPP

#include <ostream>
#include <string>
#include <vector>

namespace qaoa {

/**
 * Column-aligned text table.
 *
 * Usage:
 * @code
 *   Table t({"graph", "depth ratio", "gate ratio"});
 *   t.addRow({"ER p=0.1", Table::num(0.88), Table::num(0.79)});
 *   t.print(std::cout);
 * @endcode
 */
class Table
{
  public:
    /** Creates a table with the given column headers. */
    explicit Table(std::vector<std::string> headers);

    /** Appends one row; must have exactly as many cells as headers. */
    void addRow(std::vector<std::string> cells);

    /** Formats a double with the given precision (default 3 decimals). */
    static std::string num(double v, int precision = 3);

    /** Formats an integer cell. */
    static std::string num(long long v);

    /** Renders the table (header, rule, rows) to the stream. */
    void print(std::ostream &os) const;

    /** Renders as comma-separated values (for scripting).  Per RFC
     *  4180, a cell holding a comma, quote, CR or LF is quoted with its
     *  inner quotes doubled, so every row has one field per column. */
    void printCsv(std::ostream &os) const;

    /** Number of data rows added so far. */
    std::size_t rowCount() const { return rows_.size(); }

  private:
    std::vector<std::string> headers_;
    std::vector<std::vector<std::string>> rows_;
};

} // namespace qaoa

#endif // QAOA_COMMON_TABLE_HPP
