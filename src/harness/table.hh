/**
 * @file
 * Plain-text table formatter for the examples: aligned columns and
 * numeric helpers. Experiment artifacts are JSON rows from
 * `pvsim run` (config/scenario.hh), not tables.
 */

#ifndef PVSIM_HARNESS_TABLE_HH
#define PVSIM_HARNESS_TABLE_HH

#include <ostream>
#include <string>
#include <vector>

namespace pvsim {

/** Column-aligned text table with an optional title. */
class TextTable
{
  public:
    explicit TextTable(std::string title = "")
        : title_(std::move(title))
    {}

    void setColumns(const std::vector<std::string> &headers)
    {
        headers_ = headers;
    }

    void addRow(const std::vector<std::string> &cells)
    {
        rows_.push_back(cells);
    }

    /** Pretty-print with a rule under the header. */
    void print(std::ostream &os) const;

  private:
    std::string title_;
    std::vector<std::string> headers_;
    std::vector<std::vector<std::string>> rows_;
};

/** Format helpers. */
std::string fmtDouble(double v, int precision = 2);
std::string fmtPct(double v, int precision = 1);
std::string fmtBytes(double bytes);
std::string fmtCount(uint64_t v);

} // namespace pvsim

#endif // PVSIM_HARNESS_TABLE_HH
