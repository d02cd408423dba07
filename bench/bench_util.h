#ifndef VQLIB_BENCH_BENCH_UTIL_H_
#define VQLIB_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <string>
#include <vector>

namespace vqi::bench {

/// Formats a double with fixed precision.
inline std::string Fmt(double value, int precision = 3) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.*f", precision, value);
  return buffer;
}

/// A table cell for a pinned deterministic figure: `value`, marked when it
/// differs from the committed `pinned`.
inline std::string PinCell(const std::string& value,
                           const std::string& pinned) {
  return value == pinned ? value : value + " MOVED from " + pinned;
}

/// PinCell that also counts the cells that moved, for a bench that pins a
/// whole table and exits 1 when any cell moved.
class PinTally {
 public:
  std::string Cell(const std::string& value, const std::string& pinned) {
    if (value != pinned) ++moved_;
    return PinCell(value, pinned);
  }
  size_t moved() const { return moved_; }

 private:
  size_t moved_ = 0;
};

/// Aligned ASCII table printer used by every experiment harness so the
/// reproduced tables read uniformly (and diff cleanly between runs).
class Table {
 public:
  Table(std::string title, std::vector<std::string> columns)
      : title_(std::move(title)), columns_(std::move(columns)) {}

  void AddRow(std::vector<std::string> cells) {
    rows_.push_back(std::move(cells));
  }

  void Print() const {
    std::vector<size_t> widths(columns_.size(), 0);
    for (size_t c = 0; c < columns_.size(); ++c) {
      widths[c] = columns_[c].size();
    }
    for (const auto& row : rows_) {
      for (size_t c = 0; c < row.size() && c < widths.size(); ++c) {
        if (row[c].size() > widths[c]) widths[c] = row[c].size();
      }
    }
    std::printf("\n=== %s ===\n", title_.c_str());
    PrintRow(columns_, widths);
    size_t total = 1;
    for (size_t w : widths) total += w + 3;
    std::string rule(total, '-');
    std::printf("%s\n", rule.c_str());
    for (const auto& row : rows_) PrintRow(row, widths);
    std::printf("\n");
  }

 private:
  static void PrintRow(const std::vector<std::string>& cells,
                       const std::vector<size_t>& widths) {
    std::string line = "|";
    for (size_t c = 0; c < widths.size(); ++c) {
      std::string cell = c < cells.size() ? cells[c] : "";
      cell.resize(widths[c], ' ');
      line += " " + cell + " |";
    }
    std::printf("%s\n", line.c_str());
  }

  std::string title_;
  std::vector<std::string> columns_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace vqi::bench

#endif  // VQLIB_BENCH_BENCH_UTIL_H_
