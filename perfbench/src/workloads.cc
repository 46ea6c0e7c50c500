#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <optional>

#include "benchlib/harness.h"
#include "embedder/embedder.h"
#include "embedder/threads_host.h"
#include "runtime/cache.h"
#include "runtime/instance.h"
#include "simmpi/world.h"
#include "support/stats.h"
#include "support/timing.h"
#include "toolchain/kernels.h"
#include "toolchain/native_kernels.h"
#include "wasm/decoder.h"
#include "wasm/validator.h"

namespace perfbench {

namespace embed = mpiwasm::embed;
namespace rt = mpiwasm::rt;
namespace simmpi = mpiwasm::simmpi;
namespace tc = mpiwasm::toolchain;
using mpiwasm::now_ns;
using mpiwasm::u32;

namespace {

f64 seconds_between(u64 a, u64 b) { return f64(b - a) / 1e9; }
f64 ms_between(u64 a, u64 b) { return f64(b - a) / 1e6; }

rt::EngineConfig engine_config(rt::EngineTier tier, const std::string& dir) {
  rt::EngineConfig e;
  e.tier = tier;
  e.enable_cache = false;  // every launch is a cold compile
  e.cache_dir = dir;       // also where the autotune table lives
  // Pin the knobs whose defaults come from the environment.
  e.jit = true;
  e.opt_simd = true;
  e.threads = true;
  return e;
}

/// Times decode and validate as standalone calls, then `compile`, under a
/// "setup" span with one child span each. Untraced launches only compile.
template <typename CompileFn>
auto timed_setup(const std::vector<u8>& bytes, const TraceCtx* tr,
                 LaunchDetail& d, f64& setup_s, CompileFn compile) {
  SpanLog* log = tr != nullptr ? tr->log : nullptr;
  const i32 rep = tr != nullptr ? tr->rep : 0;
  d.rep = tr != nullptr ? tr->rep : -1;
  ScopedSpan setup(log, "setup", tr != nullptr ? tr->parent : -1, rep);
  if (tr != nullptr) {
    u64 t0 = now_ns();
    std::optional<mpiwasm::wasm::Module> m;
    {
      ScopedSpan s(log, "wasm.decode", setup.id(), rep);
      m = std::move(mpiwasm::wasm::decode_module({bytes.data(), bytes.size()})
                        .module);
    }
    u64 t1 = now_ns();
    if (!m) throw rt::CompileError("decode failed");
    {
      ScopedSpan s(log, "wasm.validate", setup.id(), rep);
      if (!mpiwasm::wasm::validate_module(*m).ok)
        throw rt::CompileError("validate failed");
    }
    u64 t2 = now_ns();
    d.decode_ms = ms_between(t0, t1);
    d.validate_ms = ms_between(t1, t2);
  }
  ScopedSpan cspan(log, "runtime.compile", setup.id(), rep);
  u64 t0 = now_ns();
  auto cm = compile();
  u64 t1 = now_ns();
  setup_s = seconds_between(t0, t1);
  d.compile_total_ms = ms_between(t0, t1);
  return cm;
}

// ---------------------------------------------------------------------------
// MPI workloads: HPCG, Jacobi and NPB-IS under Embedder::run_world.
// ---------------------------------------------------------------------------

class MpiWorkload : public Workload {
 public:
  MpiWorkload(std::string name, int ranks, rt::EngineTier tier,
              std::string dir)
      : name_(std::move(name)), ranks_(ranks), tier_(tier),
        dir_(std::move(dir)) {}

  int ranks() const override { return ranks_; }

  LaunchResult launch(const TraceCtx* tr) override {
    LaunchResult out;
    LaunchDetail& d = out.detail;
    try {
      embed::EmbedderConfig cfg;
      cfg.engine = engine_config(tier_, dir_);
      cfg.net_profile = simmpi::NetworkProfile::zero();
      cfg.coll = private_coll(dir_);
      cfg.trace_path.clear();
      cfg.profile = false;
      cfg.record_translation = tr != nullptr;
      cfg.stdout_sink = [](int, std::string_view) {};
      mpiwasm::bench::ReportCollector collector;
      auto report_hook = collector.hook();
      std::shared_ptr<const rt::CompiledModule> cm;
      std::vector<u64> last_end(size_t(ranks_), 0);
      if (tr != nullptr) {
        d.rank_spans.resize(size_t(ranks_));
        d.rank_begin_ns.assign(size_t(ranks_), 0);
        for (auto& id : d.rank_spans) id = tr->log->new_id();
      }
      cfg.extra_imports = [&](rt::ImportTable& t, int rank) {
        report_hook(t, rank);
        if (tr == nullptr) return;
        d.rank_begin_ns[size_t(rank)] = now_ns();
        wrap_imports(t, cm->module, tr->log, rank, tr->rep,
                     d.rank_spans[size_t(rank)], &last_end[size_t(rank)]);
      };
      embed::Embedder emb(cfg);
      cm = timed_setup(bytes_, tr, d, out.setup_s, [&] {
        return emb.compile({bytes_.data(), bytes_.size()});
      });

      embed::RunResult res;
      i64 run_span = -1;
      {
        ScopedSpan run(tr != nullptr ? tr->log : nullptr, "run_world",
                       tr != nullptr ? tr->parent : -1,
                       tr != nullptr ? tr->rep : 0);
        run_span = run.id();
        d.run_begin_ns = now_ns();
        res = emb.run_world(cm, ranks_);
        d.run_end_ns = now_ns();
      }
      out.run_s = seconds_between(d.run_begin_ns, d.run_end_ns);
      d.tierup = res.tierup;
      for (const auto& s : res.translation_samples)
        d.translation_ns.push_back(s.ns);
      if (tr != nullptr) {
        for (int r = 0; r < ranks_; ++r) {
          Span s;
          s.name = "rank";
          s.id = d.rank_spans[size_t(r)];
          s.parent = run_span;
          s.rank = r;
          s.rep = tr->rep;
          s.start_ns = d.rank_begin_ns[size_t(r)];
          s.end_ns = std::max(last_end[size_t(r)], s.start_ns);
          tr->log->add(s);
        }
      }
      if (res.exit_code != 0) {
        out.error = "exit code " + std::to_string(res.exit_code);
        return out;
      }
      out.error = check_report(collector.rows_with_id(report_id()));
      out.ok = out.error.empty();
    } catch (const std::exception& e) {
      out.error = e.what();
    }
    return out;
  }

  NativeResult native() override {
    NativeResult out;
    try {
      std::mutex mu;
      u64 t0 = now_ns();
      {
        simmpi::World world(ranks_, simmpi::NetworkProfile::zero(),
                            private_coll(dir_));
        world.run([&](simmpi::Rank& r) {
          std::string err = run_native_rank(r);
          std::lock_guard<std::mutex> lock(mu);
          if (!err.empty() && out.error.empty()) out.error = err;
        });
      }
      out.run_s = seconds_between(t0, now_ns());
      out.ok = out.error.empty();
    } catch (const std::exception& e) {
      out.error = e.what();
    }
    return out;
  }

 protected:
  virtual i32 report_id() const = 0;
  /// Checks rank 0's bench.report rows; returns "" when they pass.
  virtual std::string check_report(
      const std::vector<mpiwasm::bench::ReportRow>& rows) const = 0;
  /// Runs the native twin on one rank; returns "" when its output passes.
  virtual std::string run_native_rank(simmpi::Rank& r) = 0;

  std::string name_;
  int ranks_;
  rt::EngineTier tier_;
  std::string dir_;
  std::vector<u8> bytes_;
};

/// An MPI solver whose rank 0 reports a residual that must be finite and
/// bit-equal to its native twin's (HPCG's CG, the Jacobi sweep).
class SolverWorkload : public MpiWorkload {
 public:
  using ReportColumn = f64 mpiwasm::bench::ReportRow::*;
  /// Runs the native twin on one rank and returns its residual.
  using NativeFn = std::function<f64(simmpi::Rank&)>;

  SolverWorkload(std::string name, std::string description, int ranks,
                 std::vector<u8> bytes, i32 report_id, ReportColumn residual,
                 NativeFn native, const std::string& dir)
      : MpiWorkload(std::move(name), ranks, rt::EngineTier::kJit, dir),
        description_(std::move(description)), report_id_(report_id),
        residual_(residual), native_(std::move(native)) {
    bytes_ = std::move(bytes);
    // The reference residual: one native solve (also a warm-up).
    simmpi::World world(ranks_, simmpi::NetworkProfile::zero(),
                        private_coll(dir_));
    world.run([&](simmpi::Rank& r) {
      const f64 res = native_(r);
      if (r.rank() == 0) reference_ = res;
    });
    MW_CHECK(std::isfinite(reference_), name_ + ": native residual not finite");
  }

  std::string describe() const override { return description_; }

  std::vector<MpiCallShape> mpi_calls() const override {
    return {{"MPI_Allreduce", 1, simmpi::Datatype::kDouble},
            {"MPI_Sendrecv", 1, simmpi::Datatype::kDouble}};
  }

 protected:
  i32 report_id() const override { return report_id_; }

  std::string check_report(
      const std::vector<mpiwasm::bench::ReportRow>& rows) const override {
    if (rows.empty()) return "no report from rank 0";
    const f64 res = rows[0].*residual_;
    if (!std::isfinite(res)) return "wasm residual not finite";
    if (std::memcmp(&res, &reference_, sizeof res) != 0)
      return "wasm residual " + std::to_string(res) + " != native " +
             std::to_string(reference_);
    return "";
  }

  std::string run_native_rank(simmpi::Rank& r) override {
    const f64 res = native_(r);
    if (r.rank() == 0 && std::memcmp(&res, &reference_, sizeof res) != 0)
      return "native residual changed between runs";
    return "";
  }

 private:
  std::string description_;
  i32 report_id_;
  ReportColumn residual_;
  NativeFn native_;
  f64 reference_ = NAN;
};

class IsWorkload : public MpiWorkload {
 public:
  IsWorkload(int ranks, u32 keys_per_rank, u32 reps, const std::string& dir)
      : MpiWorkload("is-tiered", ranks, rt::EngineTier::kTiered, dir) {
    p_.keys_per_rank = keys_per_rank;
    p_.repetitions = reps;
    bytes_ = tc::build_is_module(p_);
  }

  std::string describe() const override {
    return "NPB IS, " + std::to_string(ranks_) + " ranks x " +
           std::to_string(p_.keys_per_rank) + " keys, " +
           std::to_string(p_.repetitions) +
           " repetitions, tiered (default thresholds); large Alltoallv";
  }

  std::vector<MpiCallShape> mpi_calls() const override {
    return {{"MPI_Alltoall", 1, simmpi::Datatype::kInt},
            {"MPI_Alltoallv", int(p_.keys_per_rank) / ranks_,
             simmpi::Datatype::kInt},
            {"MPI_Allreduce", 1, simmpi::Datatype::kInt}};
  }

 protected:
  i32 report_id() const override { return p_.report_id; }

  std::string check_report(
      const std::vector<mpiwasm::bench::ReportRow>& rows) const override {
    if (rows.empty()) return "no is report";
    if (rows[0].b != 1.0) return "wasm IS checksum failed";
    if (rows[0].c != f64(p_.repetitions)) return "wasm IS repetitions wrong";
    return "";
  }

  std::string run_native_rank(simmpi::Rank& r) override {
    auto res = tc::native_is_run(r, p_);
    return res.ok ? "" : "native IS checksum failed";
  }

 private:
  tc::IsParams p_;
};

// ---------------------------------------------------------------------------
// cg-threads: the threaded CG on a pure engine (no MPI), wasi thread-spawn.
// ---------------------------------------------------------------------------

class CgThreadsWorkload : public Workload {
 public:
  CgThreadsWorkload(u32 n, u32 nthreads, u32 iters, std::string dir)
      : iters_(iters), dir_(std::move(dir)) {
    p_.n = n;
    p_.nthreads = nthreads;
    bytes_ = tc::build_threaded_cg_module(p_);
    reference_ = tc::threaded_cg_reference(p_, iters_);
  }

  int ranks() const override { return 0; }
  std::string describe() const override {
    return "threaded CG, n=" + std::to_string(p_.n) + ", " +
           std::to_string(p_.nthreads) + " guest threads, " +
           std::to_string(iters_) + " iterations, jit, pure engine";
  }

  LaunchResult launch(const TraceCtx* tr) override {
    return launch_module(bytes_, tr);
  }

  NativeResult native() override {
    NativeResult out;
    u64 t0 = now_ns();
    const f64 r = tc::threaded_cg_reference(p_, iters_);
    out.run_s = seconds_between(t0, now_ns());
    out.ok = std::memcmp(&r, &reference_, sizeof r) == 0;
    if (!out.ok) out.error = "host reference changed between runs";
    return out;
  }

  f64 single_thread_solve_ms() override {
    tc::ThreadedCgParams p1 = p_;
    p1.nthreads = 1;
    LaunchResult r = launch_module(tc::build_threaded_cg_module(p1), nullptr);
    MW_CHECK(r.ok, "cg-threads at 1 thread failed: " + r.error);
    return r.detail.solve_ms;
  }

 private:
  LaunchResult launch_module(const std::vector<u8>& bytes,
                             const TraceCtx* tr) {
    LaunchResult out;
    LaunchDetail& d = out.detail;
    SpanLog* log = tr != nullptr ? tr->log : nullptr;
    const i32 rep = tr != nullptr ? tr->rep : 0;
    try {
      const rt::EngineConfig ecfg = engine_config(rt::EngineTier::kJit, dir_);
      auto cm = timed_setup(bytes, tr, d, out.setup_s, [&] {
        return rt::compile({bytes.data(), bytes.size()}, ecfg);
      });

      f64 result = 0;
      ScopedSpan run(log, "run", tr != nullptr ? tr->parent : -1, rep);
      d.run_begin_ns = now_ns();
      {
        embed::GuestThreads guests;  // no MPI rank: pure-engine module
        rt::ImportTable imports;
        guests.register_imports(imports);
        u64 last_end = 0;
        if (tr != nullptr)
          wrap_imports(imports, cm->module, log, -1, rep, run.id(), &last_end);
        std::optional<rt::Instance> inst;
        try {
          u64 t0 = now_ns();
          {
            ScopedSpan s(log, "runtime.instantiate", run.id(), rep);
            inst.emplace(cm, imports);
          }
          u64 t1 = now_ns();
          i32 rc = 0;
          {
            ScopedSpan s(log, "threads.init", run.id(), rep);
            rc = inst->invoke("init").as_i32();
          }
          u64 t2 = now_ns();
          if (rc != 0) throw std::runtime_error("init() -> " +
                                                std::to_string(rc));
          {
            ScopedSpan s(log, "threads.solve", run.id(), rep);
            auto arg = rt::Value::from_i32(i32(iters_));
            result = inst->invoke("run", {&arg, 1}).as_f64();
          }
          u64 t3 = now_ns();
          {
            ScopedSpan s(log, "threads.join", run.id(), rep);
            inst->invoke("shutdown");
            guests.join_all();
          }
          u64 t4 = now_ns();
          d.instantiate_ms = ms_between(t0, t1);
          d.init_ms = ms_between(t1, t2);
          d.solve_ms = ms_between(t2, t3);
          d.join_ms = ms_between(t3, t4);
        } catch (...) {
          // Park the workers before the Instance they run in goes away.
          if (inst) {
            try {
              inst->invoke("shutdown");
            } catch (...) {
            }
          }
          try {
            guests.join_all();
          } catch (...) {
          }
          throw;
        }
      }
      d.run_end_ns = now_ns();
      out.run_s = seconds_between(d.run_begin_ns, d.run_end_ns);
      d.tierup = rt::tierup_snapshot(*cm);
      // run() continues the solve on a reused instance, so only a fresh
      // instance's first run() is comparable with the reference.
      if (std::memcmp(&result, &reference_, sizeof result) != 0) {
        out.error = "residual " + std::to_string(result) + " != reference " +
                    std::to_string(reference_);
        return out;
      }
      out.ok = true;
    } catch (const std::exception& e) {
      out.error = e.what();
    }
    return out;
  }

  tc::ThreadedCgParams p_;
  u32 iters_;
  std::string dir_;
  std::vector<u8> bytes_;
  f64 reference_ = 0;
};

}  // namespace

simmpi::CollTuning private_coll(const std::string& dir) {
  simmpi::CollTuning c;  // defaults; MPIWASM_COLL_* are refused upstream
  c.autotune_file = rt::autotune_table_path(dir);
  return c;
}

std::vector<std::string> workload_names() {
  return {"hpcg-compute", "jacobi-allreduce", "is-tiered", "cg-threads"};
}

// At most two busy threads per workload: on a 4-vCPU VM, runs with 3-4
// ranks or guest threads that sync often slowed 2-7x whenever the host was
// busy, so their per-run medians spread too far to bound. The Allreduce-bound
// workload is a Jacobi sweep, not HPCG: at 2 ranks HPCG's CG converges (its
// residual turns NaN) before a launch lasts more than ~10 ms, and the tail of
// ~1000 such launches per run is a p99 that spread by 40% across runs.
// Launches of 0.3-0.5 s (Jacobi, cg-threads) average out the host's wake-up
// latency spikes; with shorter ones their tails spread by 25-40%. cg-threads
// also keeps its phase count low (25 iterations on 2^20 rows): at 50
// iterations on 2^19 its medians drifted by 50% as host load changed.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const std::string& dir) {
  if (name == "hpcg-compute") {
    tc::HpcgParams p;
    p.n_per_rank = 1u << 18;
    p.iterations = 50;
    p.use_simd = true;
    return std::make_unique<SolverWorkload>(
        name, "HPCG CG, 2 ranks x 2^18 rows, 50 iterations, simd, jit", 2,
        tc::build_hpcg_module(p), p.report_id,
        &mpiwasm::bench::ReportRow::c,
        [p](simmpi::Rank& r) { return tc::native_hpcg_run(r, p).residual; },
        dir);
  }
  if (name == "jacobi-allreduce") {
    tc::OverlapParams p;
    p.n_per_rank = 512;
    p.iterations = 20000;
    p.nonblocking = false;  // blocking Allreduce + halo Sendrecv per sweep
    return std::make_unique<SolverWorkload>(
        name,
        "1-D Jacobi, 2 ranks x 512 cells, 20000 sweeps, blocking Allreduce, "
        "jit",
        2, tc::build_overlap_module(p), p.report_id,
        &mpiwasm::bench::ReportRow::b,
        [p](simmpi::Rank& r) { return tc::native_overlap_run(r, p).residual; },
        dir);
  }
  if (name == "is-tiered")
    return std::make_unique<IsWorkload>(2, 1u << 18, 3, dir);
  if (name == "cg-threads")
    return std::make_unique<CgThreadsWorkload>(1u << 20, 2, 25, dir);
  return nullptr;
}

f64 simmpi_call_us_p50(const MpiCallShape& shape, int ranks, int iters,
                       const std::string& dir) {
  const size_t esize = simmpi::datatype_size(shape.type);
  const size_t per_peer = size_t(shape.count) * esize;
  std::vector<f64> samples;
  simmpi::World world(ranks, simmpi::NetworkProfile::zero(),
                      private_coll(dir));
  world.run([&](simmpi::Rank& r) {
    const int me = r.rank();
    const int n = r.size();
    std::vector<u8> sbuf(per_peer * size_t(n), 1), rbuf(per_peer * size_t(n));
    std::vector<int> counts(size_t(n), shape.count), displs(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i) displs[size_t(i)] = i * shape.count;
    std::vector<f64> mine;
    mine.reserve(size_t(iters));
    r.barrier();
    for (int it = 0; it < iters; ++it) {
      u64 t0 = now_ns();
      if (shape.fn == "MPI_Allreduce") {
        r.allreduce(sbuf.data(), rbuf.data(), shape.count, shape.type,
                    simmpi::ReduceOp::kSum);
      } else if (shape.fn == "MPI_Sendrecv") {
        // The halo pattern: exchange with the left, then the right
        // neighbour; rank 0 times its single (rightward) exchange.
        if (me > 0)
          r.sendrecv(sbuf.data(), shape.count, shape.type, me - 1, 2,
                     rbuf.data(), shape.count, shape.type, me - 1, 1);
        if (me < n - 1)
          r.sendrecv(sbuf.data(), shape.count, shape.type, me + 1, 1,
                     rbuf.data(), shape.count, shape.type, me + 1, 2);
      } else if (shape.fn == "MPI_Alltoall") {
        r.alltoall(sbuf.data(), shape.count, rbuf.data(), shape.count,
                   shape.type);
      } else if (shape.fn == "MPI_Alltoallv") {
        r.alltoallv(sbuf.data(), counts.data(), displs.data(), rbuf.data(),
                    counts.data(), displs.data(), shape.type);
      } else {
        throw std::runtime_error("no simmpi loop for " + shape.fn);
      }
      mine.push_back(f64(now_ns() - t0) / 1e3);
    }
    if (me == 0) samples = std::move(mine);
  });
  return mpiwasm::percentile(std::move(samples), 50);
}

}  // namespace perfbench
