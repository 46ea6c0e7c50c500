#include "spans.h"

#include <algorithm>
#include <cstdio>

#include "support/timing.h"

namespace perfbench {

SpanLog::SpanLog(int lanes) {
  for (int i = 0; i < lanes; ++i) {
    lanes_.push_back(std::make_unique<Lane>());
    // Avoid vector regrowth (a multi-MiB copy) inside a timed host call.
    lanes_.back()->spans.reserve(1 << 16);
  }
}

const char* SpanLog::intern(const std::string& name) {
  std::lock_guard<std::mutex> lock(names_mu_);
  return names_.insert(name).first->c_str();
}

void SpanLog::add(const Span& s) {
  Lane& lane = *lanes_[size_t(s.rank + 1)];
  std::lock_guard<std::mutex> lock(lane.mu);
  lane.spans.push_back(s);
}

std::vector<Span> SpanLog::all() const {
  std::vector<Span> out;
  for (const auto& lane : lanes_) {
    std::lock_guard<std::mutex> lock(lane->mu);
    out.insert(out.end(), lane->spans.begin(), lane->spans.end());
  }
  std::sort(out.begin(), out.end(), [](const Span& a, const Span& b) {
    return a.start_ns != b.start_ns ? a.start_ns < b.start_ns : a.id < b.id;
  });
  return out;
}

bool SpanLog::write_chrome_json(const std::string& path,
                                i32 detail_reps) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::vector<Span> spans = all();
  const u64 t0 = spans.empty() ? 0 : spans.front().start_ns;
  std::fputs("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n", f);
  bool first = true;
  for (const Span& s : spans) {
    if (s.host_call && s.rep >= detail_reps) continue;
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,"
                 "\"dur\":%.3f,"
                 "\"pid\":%d,\"tid\":%d,\"args\":{\"id\":%lld,\"parent\":%lld}}",
                 first ? "" : ",\n", s.name, s.host_call ? "host" : "bench",
                 f64(s.start_ns - t0) / 1e3,
                 f64(s.end_ns - s.start_ns) / 1e3, s.rep, s.rank + 1,
                 static_cast<long long>(s.id),
                 static_cast<long long>(s.parent));
    first = false;
  }
  std::fputs("\n]}\n", f);
  return std::fclose(f) == 0;
}

ScopedSpan::ScopedSpan(SpanLog* log, const char* name, i64 parent, i32 rep)
    : log_(log) {
  if (log_ == nullptr) return;
  span_.name = name;
  span_.id = log_->new_id();
  span_.parent = parent;
  span_.rep = rep;
  span_.start_ns = mpiwasm::now_ns();
}

ScopedSpan::~ScopedSpan() {
  if (log_ == nullptr) return;
  span_.end_ns = mpiwasm::now_ns();
  log_->add(span_);
}

void wrap_imports(mpiwasm::rt::ImportTable& imports,
                  const mpiwasm::wasm::Module& module, SpanLog* log, i32 rank,
                  i32 rep, i64 parent_id, u64* last_end_ns) {
  for (const auto& imp : module.imports) {
    if (imp.kind != mpiwasm::wasm::ExternKind::kFunc) continue;
    const auto* entry = imports.lookup(imp.module, imp.name);
    if (entry == nullptr) continue;  // instantiation reports the LinkError
    const char* name = log->intern(imp.module + "." + imp.name);
    mpiwasm::rt::HostFn inner = entry->fn;
    imports.add(
        entry->module, entry->name, entry->type,
        [log, name, rank, rep, parent_id, last_end_ns, inner](
            mpiwasm::rt::HostContext& ctx, const mpiwasm::rt::Slot* args,
            mpiwasm::rt::Slot* result) {
          Span s;
          s.name = name;
          s.parent = parent_id;
          s.rank = rank;
          s.rep = rep;
          s.host_call = true;
          s.start_ns = mpiwasm::now_ns();
          // proc_exit and trapping calls leave by exception; their span
          // still ends where control left the host.
          struct Close {
            SpanLog* log;
            Span* s;
            u64* last_end;
            ~Close() {
              s->end_ns = mpiwasm::now_ns();
              *last_end = s->end_ns;
              s->id = log->new_id();
              log->add(*s);
            }
          } close{log, &s, last_end_ns};
          inner(ctx, args, result);
        });
  }
}

}  // namespace perfbench
