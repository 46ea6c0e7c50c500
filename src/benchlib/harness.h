// Benchmark harness utilities: collecting bench.report rows from Wasm
// kernels, paper-style table printing, and GM slowdown reductions.
#pragma once

#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "embedder/embedder.h"
#include "support/stats.h"

namespace mpiwasm::bench {

struct ReportRow {
  i32 id = 0;
  f64 a = 0, b = 0, c = 0;
};

/// Thread-safe sink for the bench.report host import.
class ReportCollector {
 public:
  /// Hook for EmbedderConfig::extra_imports.
  std::function<void(rt::ImportTable&, int)> hook();
  std::vector<ReportRow> rows() const;
  void clear();
  /// Rows with a given id, in arrival order.
  std::vector<ReportRow> rows_with_id(i32 id) const;

 private:
  mutable std::mutex mu_;
  std::vector<ReportRow> rows_;
};

/// One (native, wasm) pair per message size.
struct ComparisonRow {
  f64 x = 0;           // message bytes (or rank count)
  f64 native = 0;      // native metric
  f64 wasm = 0;        // wasm metric
};

void print_banner(const std::string& title);
void print_subhead(const std::string& text);

/// Prints paper-Figure-3 style rows: bytes, native us, wasm us, ratio;
/// the footer holds the geomean of the ratio column (wasm/native, "x") and,
/// labelled as a fraction, §4.5's GM slowdown 1 - GM(native/wasm).
void print_comparison_table(const std::string& metric,
                            const std::vector<ComparisonRow>& rows,
                            bool lower_is_better);

/// GM slowdown (paper convention) from time-like comparison rows.
f64 gm_slowdown(const std::vector<ComparisonRow>& rows, bool lower_is_better);

/// CSV dump next to stdout tables for plotting.
void write_csv(const std::string& path, const std::string& header,
               const std::vector<ComparisonRow>& rows);

}  // namespace mpiwasm::bench
