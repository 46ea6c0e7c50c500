// In-memory span log for the benchmark's traced runs.
//
// Spans are recorded from outside the library, around the public calls
// the benchmark makes (setup, run_world, Instance/init/run/...) and around
// every host import a module declares (a timing shim re-added over the
// embedder's HostFn through EmbedderConfig::extra_imports). Each span has
// a name, [start, end) in steady-clock ns, the id of the span that caused
// it, and the rank and rep it belongs to. Nothing is written until the run
// ends; then the log is rendered as Chrome trace-event JSON.
#pragma once

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_set>
#include <vector>

#include "runtime/instance.h"
#include "support/common.h"
#include "wasm/module.h"

namespace perfbench {

using mpiwasm::f64;
using mpiwasm::i32;
using mpiwasm::i64;
using mpiwasm::u64;

struct Span {
  const char* name = "";
  u64 start_ns = 0;
  u64 end_ns = 0;
  i64 id = 0;
  i64 parent = -1;  // -1: a root span
  i32 rank = -1;    // -1: the benchmark's own thread
  i32 rep = 0;
  bool host_call = false;  // a call into a host import
};

class SpanLog {
 public:
  /// `lanes` = ranks + 1: lane 0 is the benchmark thread, lane r+1 rank r.
  explicit SpanLog(int lanes);

  i64 new_id() { return next_id_++; }
  /// Returns a pointer that stays valid for the log's lifetime.
  const char* intern(const std::string& name);
  void add(const Span& s);
  /// Every span recorded so far, ordered by start time.
  std::vector<Span> all() const;
  /// Writes the log as Chrome trace-event JSON ("X" complete events;
  /// pid = rep, tid = lane). Host-call spans are written for reps below
  /// `detail_reps` only, which bounds the file. Returns false when the file
  /// cannot be written.
  bool write_chrome_json(const std::string& path, i32 detail_reps) const;

 private:
  struct Lane {
    std::mutex mu;
    std::vector<Span> spans;
  };
  std::vector<std::unique_ptr<Lane>> lanes_;
  std::mutex names_mu_;
  std::unordered_set<std::string> names_;
  std::atomic<i64> next_id_{0};
};

/// RAII span on the benchmark thread.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, i64 parent, i32 rep);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  i64 id() const { return span_.id; }

 private:
  SpanLog* log_;
  Span span_;
};

/// Re-adds every function import `module` declares that `imports` already
/// resolves, wrapped in a shim that records one span per call on lane
/// rank+1 with parent `parent_id`, and stores each call's end time in
/// `*last_end_ns`. Must run after all imports are added.
void wrap_imports(mpiwasm::rt::ImportTable& imports,
                  const mpiwasm::wasm::Module& module, SpanLog* log, i32 rank,
                  i32 rep, i64 parent_id, u64* last_end_ns);

}  // namespace perfbench
