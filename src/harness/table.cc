#include "harness/table.hh"

#include <algorithm>
#include <cstdio>
#include <iomanip>

namespace pvsim {

void
TextTable::print(std::ostream &os) const
{
    if (!title_.empty())
        os << title_ << "\n";

    std::vector<size_t> widths(headers_.size(), 0);
    for (size_t i = 0; i < headers_.size(); ++i)
        widths[i] = headers_[i].size();
    for (const auto &row : rows_) {
        for (size_t i = 0; i < row.size() && i < widths.size(); ++i)
            widths[i] = std::max(widths[i], row[i].size());
    }

    auto emit_row = [&](const std::vector<std::string> &cells) {
        for (size_t i = 0; i < widths.size(); ++i) {
            std::string cell = i < cells.size() ? cells[i] : "";
            // Left-align the first column, right-align the rest.
            if (i == 0)
                os << std::left << std::setw(int(widths[i])) << cell;
            else
                os << std::right << std::setw(int(widths[i]))
                   << cell;
            if (i + 1 < widths.size())
                os << "  ";
        }
        os << "\n";
    };

    emit_row(headers_);
    size_t total = 0;
    for (size_t w : widths)
        total += w + 2;
    os << std::string(total > 2 ? total - 2 : total, '-') << "\n";
    for (const auto &row : rows_)
        emit_row(row);
}

std::string
fmtDouble(double v, int precision)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
    return buf;
}

std::string
fmtPct(double v, int precision)
{
    return fmtDouble(v, precision) + "%";
}

std::string
fmtBytes(double bytes)
{
    char buf[64];
    if (bytes >= 1024.0 * 1024.0) {
        std::snprintf(buf, sizeof(buf), "%.2fMB",
                      bytes / (1024.0 * 1024.0));
    } else if (bytes >= 1024.0) {
        std::snprintf(buf, sizeof(buf), "%.3fKB", bytes / 1024.0);
    } else {
        std::snprintf(buf, sizeof(buf), "%.0fB", bytes);
    }
    return buf;
}

std::string
fmtCount(uint64_t v)
{
    return std::to_string(v);
}

} // namespace pvsim
