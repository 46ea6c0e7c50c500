// The benchmark's four workloads. Each one launches its Wasm program cold
// (fresh compile with the code cache off, then one run), runs the native
// or host twin of the same problem, and checks both outputs.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "runtime/engine.h"
#include "simmpi/types.h"
#include "spans.h"

namespace perfbench {

using mpiwasm::u8;

/// Where a traced launch records its spans and per-launch counters.
struct TraceCtx {
  SpanLog* log = nullptr;
  i32 rep = 0;
  i64 parent = -1;  // the rep span
};

/// Per-launch numbers a traced launch reports beside its spans.
struct LaunchDetail {
  i32 rep = -1;  // traced launches: the rep id of their spans
  mpiwasm::rt::TierUpSnapshot tierup;
  f64 decode_ms = 0, validate_ms = 0, compile_total_ms = 0;
  u64 run_begin_ns = 0, run_end_ns = 0;  // the run_s interval
  std::vector<u64> translation_ns;       // per translated handle
  std::vector<i64> rank_spans;  // MPI workloads: one per rank
  std::vector<u64> rank_begin_ns;
  // cg-threads phases (ms).
  f64 instantiate_ms = 0, init_ms = 0, solve_ms = 0, join_ms = 0;
};

struct LaunchResult {
  f64 setup_s = 0;
  f64 run_s = 0;
  bool ok = false;
  std::string error;  // why the check failed
  LaunchDetail detail;
};

struct NativeResult {
  f64 run_s = 0;
  bool ok = false;
  std::string error;
};

/// One MPI call a workload makes, as the simmpi micro-benchmark repeats it.
struct MpiCallShape {
  std::string fn;  // "MPI_Allreduce", ...
  int count = 0;   // elements per call (per peer for the all-to-alls)
  mpiwasm::simmpi::Datatype type = mpiwasm::simmpi::Datatype::kDouble;
};

class Workload {
 public:
  virtual ~Workload() = default;
  virtual int ranks() const = 0;             // 0: pure engine, no MPI
  virtual std::string describe() const = 0;
  /// One cold launch; `trace` null means untraced.
  virtual LaunchResult launch(const TraceCtx* trace) = 0;
  virtual NativeResult native() = 0;
  /// MPI calls whose simmpi cost the traced run measures natively.
  virtual std::vector<MpiCallShape> mpi_calls() const { return {}; }
  /// Solve time of the same problem at one guest thread (cg-threads).
  virtual f64 single_thread_solve_ms() { return 0; }
};

/// The collective tuning every World of a run shares: defaults, with the
/// learned autotune table kept in the run's private directory.
mpiwasm::simmpi::CollTuning private_coll(const std::string& dir);

/// `dir` is the run's private cache/autotune directory.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const std::string& dir);
std::vector<std::string> workload_names();

/// Median per-call µs of `shape` on `ranks` ranks, driven natively through
/// simmpi::Rank in a loop of `iters` calls.
f64 simmpi_call_us_p50(const MpiCallShape& shape, int ranks, int iters,
                       const std::string& dir);

}  // namespace perfbench
