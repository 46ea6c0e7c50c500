#include "benchlib/harness.h"

#include <cstdio>
#include <fstream>

namespace mpiwasm::bench {

std::function<void(rt::ImportTable&, int)> ReportCollector::hook() {
  return [this](rt::ImportTable& t, int rank) {
    (void)rank;
    t.add("bench", "report",
          {{wasm::ValType::kI32, wasm::ValType::kF64, wasm::ValType::kF64,
            wasm::ValType::kF64},
           {}},
          [this](rt::HostContext&, const rt::Slot* a, rt::Slot*) {
            std::lock_guard<std::mutex> lock(mu_);
            rows_.push_back({a[0].i32v, a[1].f64v, a[2].f64v, a[3].f64v});
          });
  };
}

std::vector<ReportRow> ReportCollector::rows() const {
  std::lock_guard<std::mutex> lock(mu_);
  return rows_;
}

void ReportCollector::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  rows_.clear();
}

std::vector<ReportRow> ReportCollector::rows_with_id(i32 id) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<ReportRow> out;
  for (const auto& r : rows_)
    if (r.id == id) out.push_back(r);
  return out;
}

void print_banner(const std::string& title) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("================================================================\n");
}

void print_subhead(const std::string& text) {
  std::printf("\n--- %s ---\n", text.c_str());
}

f64 gm_slowdown(const std::vector<ComparisonRow>& rows, bool lower_is_better) {
  std::vector<f64> ratios;
  ratios.reserve(rows.size());
  for (const auto& r : rows) {
    if (r.native <= 0 || r.wasm <= 0) continue;
    // Normalize to "native_time / wasm_time" semantics.
    ratios.push_back(lower_is_better ? r.native / r.wasm : r.wasm / r.native);
  }
  return gm_slowdown_from_time_ratios(ratios);
}

void print_comparison_table(const std::string& metric,
                            const std::vector<ComparisonRow>& rows,
                            bool lower_is_better) {
  std::printf("%12s %16s %16s %10s\n", "x", ("native " + metric).c_str(),
              ("wasm " + metric).c_str(), "ratio");
  std::vector<f64> ratios;  // wasm/native in time terms (>1: wasm slower)
  for (const auto& r : rows) {
    f64 ratio = r.native > 0 && r.wasm > 0
                    ? (lower_is_better ? r.wasm / r.native : r.native / r.wasm)
                    : 0.0;
    if (ratio > 0) ratios.push_back(ratio);
    std::printf("%12.0f %16.3f %16.3f %9.3fx\n", r.x, r.native, r.wasm, ratio);
  }
  if (ratios.empty()) return;
  std::printf("  => GM wasm/native ratio: %.3fx\n", geomean(ratios));
  // The paper's summary number is a fraction, not a ratio.
  std::printf("  => GM slowdown fraction (paper Sec. 4.5, 1 - GM(native/wasm)):"
              " %.3f\n",
              gm_slowdown(rows, lower_is_better));
}

void write_csv(const std::string& path, const std::string& header,
               const std::vector<ComparisonRow>& rows) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return;
  out << header << "\n";
  for (const auto& r : rows)
    out << r.x << "," << r.native << "," << r.wasm << "\n";
}

}  // namespace mpiwasm::bench
