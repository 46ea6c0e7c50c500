// mwbench: one workload of the end-to-end benchmark per invocation.
//
//   mwbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//           --workdir <dir> [--trace-out <file.json>]
//
// --trace 0 times cold launches (compile with the code cache off, then one
// run) interleaved with the native twin, and prints the end-to-end
// metrics. --trace 1 interleaves untraced launches with traced ones, whose
// spans give the per-layer metrics, and writes the spans as Chrome
// trace-event JSON. Every launch's output is checked; the last stdout line
// is one JSON object {correct, attempted, failed, metrics}.
#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <random>
#include <string>
#include <vector>

#include "support/stats.h"
#include "support/timing.h"
#include "support/trace.h"
#include "workloads.h"

extern char** environ;

namespace perfbench {
namespace {

namespace fs = std::filesystem;

struct Args {
  std::string workload;
  u64 seed = 1;
  f64 seconds = 10;
  bool trace = false;
  std::string workdir = ".bench_build/work";
  std::string trace_out;
};

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "mwbench: %s\nusage: mwbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--workdir <dir>] "
               "[--trace-out <file>]\n",
               msg);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    std::string k = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + k).c_str());
    std::string v = argv[++i];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (k == "--seconds") a.seconds = std::strtod(v.c_str(), nullptr);
    else if (k == "--trace") a.trace = v == "1";
    else if (k == "--workdir") a.workdir = v;
    else if (k == "--trace-out") a.trace_out = v;
    else usage(("unknown option " + k).c_str());
  }
  if (a.workload.empty()) usage("--workload is required");
  if (!(a.seconds > 0)) usage("--seconds must be positive");
  return a;
}

/// The MPIWASM_* variables in the environment, which would change what
/// the library does underneath the benchmark.
std::map<std::string, std::string> ambient_knobs() {
  std::map<std::string, std::string> out;
  for (char** e = environ; *e != nullptr; ++e) {
    std::string kv = *e;
    if (kv.rfind("MPIWASM_", 0) != 0) continue;
    size_t eq = kv.find('=');
    out[kv.substr(0, eq)] = eq == std::string::npos ? "" : kv.substr(eq + 1);
  }
  return out;
}

/// Removes the run's private directory (code cache dir + autotune table)
/// however the run ends.
class PrivateDir {
 public:
  explicit PrivateDir(fs::path p) : path_(std::move(p)) {
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~PrivateDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  PrivateDir(const PrivateDir&) = delete;
  PrivateDir& operator=(const PrivateDir&) = delete;
  std::string str() const { return path_.string(); }

 private:
  fs::path path_;
};

f64 median(std::vector<f64> v) { return mpiwasm::percentile(std::move(v), 50); }

/// The highest percentile with at least 10 samples beyond it (the
/// maximum when there are fewer than 11 samples).
struct Tail {
  f64 value = 0;
  f64 pct = 100;
};
Tail tail(std::vector<f64> v) {
  Tail t;
  if (v.empty()) return t;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  if (n <= 10) {
    t.value = v.back();
    return t;
  }
  t.value = v[n - 11];
  t.pct = 100.0 * f64(n - 10) / f64(n);
  return t;
}

f64 peak_rss_mib() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return f64(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

struct Metric {
  std::string name;
  f64 value;
  std::string unit;
};

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out;
}

std::string num(f64 v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void print_result(bool correct, int attempted, int failed,
                  const std::vector<Metric>& metrics) {
  std::string s = "{\"correct\": ";
  s += correct ? "true" : "false";
  s += ", \"attempted\": " + std::to_string(attempted);
  s += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    s += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " + num(m.value) +
         ", \"unit\": \"" + m.unit + "\"}";
  }
  s += "}}";
  std::printf("%s\n", s.c_str());
}

void print_metrics(const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics)
    std::printf("  %-34s %16.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
}

/// Runs launches and native twins until `seconds` have passed (at least
/// `min_reps`, never past `max_seconds`); order within a rep is seeded.
template <typename RepFn>
void measure(f64 seconds, int min_reps, f64 max_seconds, std::mt19937_64& rng,
             RepFn rep) {
  mpiwasm::Stopwatch sw;
  for (int n = 0; n < min_reps || sw.elapsed_s() < seconds; ++n) {
    if (sw.elapsed_s() > max_seconds) break;
    rep(n, (rng() & 1) != 0);
  }
}

constexpr int kWarmupReps = 2;
constexpr f64 kWarmupS = 2;
constexpr int kMinReps = 11;        // so the tail has 10 samples beyond it
constexpr f64 kMaxMeasureS = 120;   // leave room under the 180 s limit

// ---------------------------------------------------------------------------
// --trace 0: end-to-end metrics.
// ---------------------------------------------------------------------------

int run_untraced(Workload& w, const Args& a, std::mt19937_64& rng) {
  std::vector<f64> setup_s, run_s, native_s;
  int attempted = 0, failed = 0, checks_passed = 0;
  measure(a.seconds, kMinReps, kMaxMeasureS, rng, [&](int, bool native_first) {
    ++attempted;
    NativeResult nat;
    if (native_first) nat = w.native();
    LaunchResult l = w.launch(nullptr);
    if (!native_first) nat = w.native();
    checks_passed += int(l.ok) + int(nat.ok);
    if (!l.ok || !nat.ok) {
      ++failed;
      std::fprintf(stderr, "rep %d failed: %s%s%s\n", attempted,
                   l.error.c_str(), l.ok || nat.ok ? "" : "; ",
                   nat.error.c_str());
      return;
    }
    setup_s.push_back(l.setup_s);
    run_s.push_back(l.run_s);
    native_s.push_back(nat.run_s);
  });
  const Tail t = tail(run_s);
  const f64 run_med = median(run_s), native_med = median(native_s);
  std::vector<Metric> m = {
      {"run_s", run_med, "s"},
      {"run_tail_s", t.value, "s"},
      {"setup_s", median(setup_s), "s"},
      {"native_run_s", native_med, "s"},
      {"peak_rss_mib", peak_rss_mib(), "MiB"},
  };
  std::printf("end-to-end (untraced), %zu good reps of %d:\n", run_s.size(),
              attempted);
  print_metrics(m);
  std::printf("  run_tail_s is the p%.1f of %zu samples\n", t.pct,
              run_s.size());
  std::printf("  wasm_over_native %.4f (ratio run_s / native_run_s)\n",
              native_med > 0 ? run_med / native_med : 0.0);
  auto at = [&](f64 q) { return mpiwasm::percentile(run_s, q); };
  std::printf(
      "# detail {\"workload\": \"%s\", \"seed\": %llu, \"run_tail_pct\": %s, "
      "\"samples\": %zu, \"run_s_min_q1_q3_max\": [%s, %s, %s, %s], "
      "\"wasm_over_native\": %s, \"checks_passed\": %d}\n",
      a.workload.c_str(), static_cast<unsigned long long>(a.seed),
      num(t.pct).c_str(), run_s.size(), num(at(0)).c_str(),
      num(at(25)).c_str(), num(at(75)).c_str(), num(at(100)).c_str(),
      num(native_med > 0 ? run_med / native_med : 0).c_str(), checks_passed);
  print_result(failed == 0 && attempted > 0, attempted, failed, m);
  return 0;
}

// ---------------------------------------------------------------------------
// --trace 1: per-layer metrics from the span log.
// ---------------------------------------------------------------------------

const char* const kMpiFns[] = {"MPI_Allreduce", "MPI_Sendrecv",
                               "MPI_Alltoall", "MPI_Alltoallv"};

/// Per-traced-launch layer ledger, derived from that launch's spans.
struct Ledger {
  f64 startup_ms = 0, teardown_ms = 0, instantiate_ms = 0;
  f64 guest_ms = 0, mpi_ms = 0, span_ms = 0;
  u64 mpi_calls = 0, spawns = 0;
  std::map<std::string, u64> fn_calls;
};

/// Self time of [begin, end) minus the union of the children's intervals.
f64 self_ms(u64 begin, u64 end, std::vector<std::pair<u64, u64>> children) {
  std::sort(children.begin(), children.end());
  u64 covered = 0, cur_b = 0, cur_e = 0;
  bool open = false;
  for (auto [b, e] : children) {
    b = std::max(b, begin);
    e = std::min(e, end);
    if (b >= e) continue;
    if (open && b <= cur_e) {
      cur_e = std::max(cur_e, e);
      continue;
    }
    if (open) covered += cur_e - cur_b;
    cur_b = b;
    cur_e = e;
    open = true;
  }
  if (open) covered += cur_e - cur_b;
  return f64(end - begin - std::min(covered, end - begin)) / 1e6;
}

Ledger mpi_ledger(const std::vector<const Span*>& calls, int ranks,
                  const LaunchDetail& d,
                  std::map<std::string, std::vector<f64>>& fn_us) {
  Ledger L;
  std::vector<u64> init(size_t(ranks), 0), fin(size_t(ranks), 0);
  std::vector<std::vector<const Span*>> by_rank(static_cast<size_t>(ranks));
  for (const Span* s : calls) {
    by_rank[size_t(s->rank)].push_back(s);
    const std::string name = s->name;
    if (name == "env.MPI_Init" || name == "env.MPI_Init_thread")
      init[size_t(s->rank)] = s->start_ns;
    if (name == "env.MPI_Finalize") fin[size_t(s->rank)] = s->end_ns;
    if (name.rfind("env.MPI_", 0) == 0) {
      ++L.mpi_calls;
      const std::string fn = name.substr(4);
      ++L.fn_calls[fn];
      fn_us[fn].push_back(f64(s->end_ns - s->start_ns) / 1e3);
    }
    if (name == "wasi.thread-spawn") ++L.spawns;
  }
  u64 max_init = 0, max_fin = 0;
  for (int r = 0; r < ranks; ++r) {
    max_init = std::max(max_init, init[size_t(r)]);
    max_fin = std::max(max_fin, fin[size_t(r)]);
    L.instantiate_ms = std::max(
        L.instantiate_ms, f64(init[size_t(r)] - d.rank_begin_ns[size_t(r)]) / 1e6);
  }
  // Each rank's ledger interval runs from the last rank's MPI_Init entry
  // (where startup_ms ends) to its own MPI_Finalize exit. The slowest rank
  // is the one with the most guest time in it: the others wait for it
  // inside MPI calls, so its guest time is on the critical path.
  for (int r = 0; r < ranks; ++r) {
    const size_t i = size_t(r);
    const u64 b = std::min(max_init, fin[i]), e = fin[i];
    std::vector<std::pair<u64, u64>> children;
    f64 mpi_ms = 0;
    for (const Span* s : by_rank[i]) {
      children.push_back({s->start_ns, s->end_ns});
      const u64 cb = std::max(s->start_ns, b), ce = std::min(s->end_ns, e);
      if (std::strncmp(s->name, "env.MPI_", 8) == 0 && cb < ce)
        mpi_ms += f64(ce - cb) / 1e6;
    }
    const f64 guest_ms = self_ms(b, e, std::move(children));
    if (r == 0 || guest_ms > L.guest_ms) {
      L.guest_ms = guest_ms;
      L.mpi_ms = mpi_ms;
      L.span_ms = f64(e - b) / 1e6;
    }
  }
  L.startup_ms = f64(max_init - d.run_begin_ns) / 1e6;
  L.teardown_ms = f64(d.run_end_ns - max_fin) / 1e6;
  return L;
}

int run_traced(Workload& w, const Args& a, std::mt19937_64& rng,
               const std::string& dir) {
  const int ranks = w.ranks();
  SpanLog log(std::max(ranks, 1) + 1);
  std::vector<f64> untraced_run_s, traced_run_s;
  std::vector<LaunchDetail> details;
  int attempted = 0, failed = 0, checks_passed = 0;
  measure(a.seconds, 3, kMaxMeasureS, rng, [&](int rep, bool traced_first) {
    for (int k = 0; k < 2; ++k) {
      const bool traced = (k == 0) == traced_first;
      ++attempted;
      LaunchResult l;
      if (traced) {
        ScopedSpan rep_span(&log, "rep", -1, rep);
        TraceCtx ctx{&log, rep, rep_span.id()};
        l = w.launch(&ctx);
      } else {
        l = w.launch(nullptr);
      }
      if (!l.ok) {
        ++failed;
        std::fprintf(stderr, "launch failed: %s\n", l.error.c_str());
        continue;
      }
      ++checks_passed;
      if (traced) {
        traced_run_s.push_back(l.run_s);
        details.push_back(std::move(l.detail));
      } else {
        untraced_run_s.push_back(l.run_s);
      }
    }
  });

  // Group the host-call spans by rep.
  const std::vector<Span> spans = log.all();
  std::map<i32, std::vector<const Span*>> calls_by_rep;
  for (const Span& s : spans)
    if (s.host_call) calls_by_rep[s.rep].push_back(&s);

  // Counts and per-step times are medians over the traced launches. The
  // run's split into startup / guest / MPI / teardown (or the threads'
  // phases) comes whole from the launch with the median run time, so its
  // parts add up to that launch's run time.
  std::map<std::string, std::vector<f64>> series;
  std::vector<std::pair<f64, std::map<std::string, f64>>> splits;
  std::map<std::string, std::vector<f64>> fn_us;
  std::vector<f64> translate_ns;
  for (LaunchDetail& d : details) {
    auto add = [&](const std::string& k, f64 v) { series[k].push_back(v); };
    const f64 run_ms = f64(d.run_end_ns - d.run_begin_ns) / 1e6;
    std::map<std::string, f64> split = {{"bench.traced_run_ms", run_ms}};
    add("wasm.decode_ms", d.decode_ms);
    add("wasm.validate_ms", d.validate_ms);
    add("runtime.compile_ms",
        std::max(0.0, d.compile_total_ms - d.decode_ms - d.validate_ms));
    add("runtime.jit_funcs", f64(d.tierup.jit_funcs));
    add("runtime.jit_fallback_funcs", f64(d.tierup.jit_fallback_funcs));
    add("runtime.jit_code_bytes", f64(d.tierup.jit_code_bytes));
    add("runtime.funcs_interp_at_exit", f64(d.tierup.funcs_predecoded));
    add("runtime.promoted_baseline", f64(d.tierup.promoted_baseline));
    add("runtime.promoted_optimizing", f64(d.tierup.promoted_optimizing));
    add("runtime.promoted_jit", f64(d.tierup.promoted_jit));
    add("runtime.tierup_ms", d.tierup.tierup_compile_ms);
    for (u64 ns : d.translation_ns) translate_ns.push_back(f64(ns));
    const auto& calls = calls_by_rep[d.rep];
    if (ranks > 0) {
      Ledger L = mpi_ledger(calls, ranks, d, fn_us);
      split["runtime.guest_ms"] = L.guest_ms;
      split["runtime.guest_share"] = L.span_ms > 0 ? L.guest_ms / L.span_ms : 0;
      split["embedder.startup_ms"] = L.startup_ms;
      split["embedder.teardown_ms"] = L.teardown_ms;
      split["embedder.mpi_ms"] = L.mpi_ms;
      split["embedder.mpi_share"] = L.span_ms > 0 ? L.mpi_ms / L.span_ms : 0;
      split["bench.ledger_coverage"] =
          (L.startup_ms + L.guest_ms + L.mpi_ms + L.teardown_ms) / run_ms;
      add("runtime.instantiate_ms", L.instantiate_ms);
      add("embedder.mpi_calls", f64(L.mpi_calls));
      for (const char* fn : kMpiFns)
        add(std::string("embedder.") + fn + ".calls",
            f64(L.fn_calls.count(fn) ? L.fn_calls.at(fn) : 0));
      add("threads.spawned", f64(L.spawns));
    } else {
      // Pure engine: guest time is the solve (run() makes no host calls).
      u64 spawns = 0;
      for (const Span* s : calls)
        if (std::strcmp(s->name, "wasi.thread-spawn") == 0) ++spawns;
      add("threads.spawned", f64(spawns));
      split["runtime.guest_ms"] = d.solve_ms;
      split["runtime.guest_share"] = d.solve_ms / run_ms;
      split["runtime.instantiate_ms"] = d.instantiate_ms;
      split["threads.init_ms"] = d.init_ms;
      split["threads.solve_ms"] = d.solve_ms;
      split["threads.join_ms"] = d.join_ms;
      split["bench.ledger_coverage"] =
          (d.instantiate_ms + d.init_ms + d.solve_ms + d.join_ms) / run_ms;
    }
    splits.push_back({run_ms, std::move(split)});
  }

  std::map<std::string, f64> v;
  for (auto& [k, xs] : series) v[k] = median(xs);
  if (!splits.empty()) {
    std::sort(splits.begin(), splits.end(),
              [](const auto& x, const auto& y) { return x.first < y.first; });
    for (const auto& [k, x] : splits[(splits.size() - 1) / 2].second) v[k] = x;
  }
  for (const char* fn : kMpiFns) {
    const std::string base = std::string("embedder.") + fn;
    v[base + ".us_p50"] = median(fn_us[fn]);
    v[base + ".us_tail"] = tail(fn_us[fn]).value;
  }
  v["embedder.translate_ns"] =
      translate_ns.empty()
          ? 0
          : [&] {
              f64 s = 0;
              for (f64 x : translate_ns) s += x;
              return s / f64(translate_ns.size());
            }();
  for (const char* fn : kMpiFns) v[std::string("simmpi.") + fn + ".us_p50"] = 0;
  for (const MpiCallShape& c : w.mpi_calls()) {
    const int iters = c.fn == "MPI_Alltoallv" ? 200 : 2000;
    v["simmpi." + c.fn + ".us_p50"] =
        simmpi_call_us_p50(c, ranks, iters, dir);
  }
  if (ranks == 0) {
    std::vector<f64> one;
    for (int i = 0; i < 3; ++i) one.push_back(w.single_thread_solve_ms());
    v["threads.speedup_vs_1t"] =
        v["threads.solve_ms"] > 0 ? median(one) / v["threads.solve_ms"] : 0;
  }
  v["bench.trace_overhead"] =
      median(traced_run_s) / median(untraced_run_s);

  static const std::pair<const char*, const char*> kPerLayer[] = {
      {"wasm.decode_ms", "ms"},
      {"wasm.validate_ms", "ms"},
      {"runtime.compile_ms", "ms"},
      {"runtime.jit_funcs", "count"},
      {"runtime.jit_fallback_funcs", "count"},
      {"runtime.jit_code_bytes", "bytes"},
      {"runtime.funcs_interp_at_exit", "count"},
      {"runtime.promoted_baseline", "count"},
      {"runtime.promoted_optimizing", "count"},
      {"runtime.promoted_jit", "count"},
      {"runtime.tierup_ms", "ms"},
      {"runtime.guest_ms", "ms"},
      {"runtime.guest_share", "ratio"},
      {"runtime.instantiate_ms", "ms"},
      {"embedder.startup_ms", "ms"},
      {"embedder.teardown_ms", "ms"},
      {"embedder.mpi_calls", "count"},
      {"embedder.mpi_ms", "ms"},
      {"embedder.mpi_share", "ratio"},
      {"embedder.translate_ns", "ns"},
      {"embedder.MPI_Allreduce.calls", "count"},
      {"embedder.MPI_Allreduce.us_p50", "us"},
      {"embedder.MPI_Allreduce.us_tail", "us"},
      {"embedder.MPI_Sendrecv.calls", "count"},
      {"embedder.MPI_Sendrecv.us_p50", "us"},
      {"embedder.MPI_Sendrecv.us_tail", "us"},
      {"embedder.MPI_Alltoall.calls", "count"},
      {"embedder.MPI_Alltoall.us_p50", "us"},
      {"embedder.MPI_Alltoall.us_tail", "us"},
      {"embedder.MPI_Alltoallv.calls", "count"},
      {"embedder.MPI_Alltoallv.us_p50", "us"},
      {"embedder.MPI_Alltoallv.us_tail", "us"},
      {"simmpi.MPI_Allreduce.us_p50", "us"},
      {"simmpi.MPI_Sendrecv.us_p50", "us"},
      {"simmpi.MPI_Alltoall.us_p50", "us"},
      {"simmpi.MPI_Alltoallv.us_p50", "us"},
      {"threads.spawned", "count"},
      {"threads.init_ms", "ms"},
      {"threads.solve_ms", "ms"},
      {"threads.join_ms", "ms"},
      {"threads.speedup_vs_1t", "ratio"},
      {"bench.trace_overhead", "ratio"},
      {"bench.traced_run_ms", "ms"},
      {"bench.ledger_coverage", "ratio"},
  };
  std::vector<Metric> m;
  for (const auto& [name, unit] : kPerLayer)
    m.push_back({name, v.count(name) ? v.at(name) : 0.0, unit});

  std::string trace_file = a.trace_out;
  if (trace_file.empty())
    trace_file = a.workdir + "/trace-" + a.workload + "-seed" +
                 std::to_string(a.seed) + ".json";
  const bool wrote = log.write_chrome_json(trace_file, /*detail_reps=*/2);
  std::printf("per-layer (traced), %zu traced + %zu untraced launches:\n",
              traced_run_s.size(), untraced_run_s.size());
  print_metrics(m);
  std::printf("# detail {\"workload\": \"%s\", \"seed\": %llu, "
              "\"spans\": %zu, \"trace_file\": \"%s\", "
              "\"checks_passed\": %d}\n",
              a.workload.c_str(), static_cast<unsigned long long>(a.seed),
              spans.size(), wrote ? json_escape(trace_file).c_str() : "",
              checks_passed);
  if (!wrote) {
    std::fprintf(stderr, "cannot write %s\n", trace_file.c_str());
    ++failed;
  }
  print_result(failed == 0 && !details.empty(), attempted, failed, m);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Args a = parse_args(argc, argv);

  const auto knobs = ambient_knobs();
  std::string knob_json;
  for (const auto& [k, v] : knobs)
    knob_json += (knob_json.empty() ? "\"" : ", \"") + json_escape(k) +
                 "\": \"" + json_escape(v) + "\"";
  std::printf("# env {%s}\n", knob_json.c_str());
  if (!knobs.empty()) {
    std::fprintf(stderr,
                 "mwbench: refusing to measure with MPIWASM_* set in the "
                 "environment (%zu variable(s)); unset them\n",
                 knobs.size());
    return 3;
  }
  // A fixed mmap threshold turns off glibc's dynamic one, which rises
  // after the first large free and then keeps freed blocks in the heap in
  // an order that depends on thread timing. With it fixed, every block of
  // 128 KiB or more is its own mapping and is unmapped at free, so
  // peak_rss_mib follows live memory and does not vary from run to run.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  // Untraced really means untraced: no runtime trace rings, no profile.
  mpiwasm::trace::enable_tracing(false);
  mpiwasm::trace::enable_profiling(false);

  const auto names = workload_names();
  if (std::find(names.begin(), names.end(), a.workload) == names.end())
    usage(("unknown workload " + a.workload).c_str());

  try {
    PrivateDir dir(fs::path(a.workdir) /
                   (a.workload + "-" + std::to_string(::getpid())));
    auto w = make_workload(a.workload, dir.str());
    std::printf("# workload %s: %s; seed %llu\n", a.workload.c_str(),
                w->describe().c_str(), static_cast<unsigned long long>(a.seed));
    std::fflush(stdout);
    // Warm-up launches fill the private autotune table (the collectives'
    // exploration phase), fault in the allocator and let the scheduler
    // settle on the rank threads; they are not timed.
    mpiwasm::Stopwatch warm;
    for (int i = 0; i < kWarmupReps || warm.elapsed_s() < kWarmupS; ++i) {
      LaunchResult l = w->launch(nullptr);
      NativeResult n = w->native();
      if (!l.ok || !n.ok) {
        std::fprintf(stderr, "warm-up failed: %s %s\n", l.error.c_str(),
                     n.error.c_str());
        return 1;
      }
    }
    std::mt19937_64 rng(a.seed);
    return a.trace ? run_traced(*w, a, rng, dir.str())
                   : run_untraced(*w, a, rng);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "mwbench: %s\n", e.what());
    return 1;
  }
}
