// Env: MPIWasm's per-rank translation state (paper §3.7).
//
// The paper's Env stores "the global state required by these translations":
// information about the module's memory (its base pointer, §3.5) and the
// datatype/communicator/op structures the embedder creates on behalf of
// the module (§3.6). The paper runs one embedder process, and so one Env,
// per rank (§4.3); here each rank thread's Env owns its handle table in the
// same way. Lookups take a read lock on the table's shared_mutex, which only
// the guest threads of one rank share (MPI_THREAD_MULTIPLE), so Figure 6
// times an uncontended read-lock acquisition plus a hash lookup, as the
// paper's per-process tables do.
#pragma once

#include <atomic>
#include <map>
#include <mutex>
#include <shared_mutex>
#include <unordered_map>
#include <vector>

#include "embedder/abi.h"
#include "runtime/memory.h"
#include "simmpi/world.h"

namespace mpiwasm::embed {

/// One Figure-6 sample: translating `wasm_datatype` for a message of
/// `msg_bytes` took `ns` nanoseconds.
struct TranslationSample {
  i32 wasm_datatype = 0;
  u64 msg_bytes = 0;
  u64 ns = 0;
};

/// One rank's translation tables, under a reader-writer lock that the
/// rank's guest threads share; no other rank ever takes it.
class HandleTable {
 public:
  HandleTable();

  /// Datatype handle -> host datatype (throws Trap(kHostError) on bad id).
  simmpi::Datatype lookup_datatype(i32 handle) const;
  /// Reduce-op handle -> host op.
  simmpi::ReduceOp lookup_op(i32 handle) const;
  /// Communicator handle -> host communicator id.
  simmpi::Comm lookup_comm(i32 handle) const;
  /// Registers a newly created host communicator; returns its module handle.
  i32 intern_comm(simmpi::Comm host_comm);

 private:
  mutable std::shared_mutex mu_;
  std::unordered_map<i32, simmpi::Datatype> datatypes_;
  std::unordered_map<i32, simmpi::ReduceOp> ops_;
  std::unordered_map<i32, simmpi::Comm> comms_;
};

/// Per-rank embedder state handed to every env.MPI_* host function via
/// Instance::user_data.
class Env {
 public:
  Env(simmpi::Rank* rank, bool zero_copy, bool record_translation);

  simmpi::Rank& rank() { return *rank_; }
  bool zero_copy() const { return zero_copy_; }

  // --- Address translation (§3.5) -----------------------------------------
  /// Zero-copy: 32-bit module pointer -> host pointer after a bounds check.
  /// This is the entire translation — base + offset — which is what lets
  /// the host MPI library read/write module memory directly.
  u8* translate(rt::LinearMemory& mem, u32 ptr, u64 len) {
    mem.check(ptr, len);
    return mem.base() + ptr;
  }

  // --- Handle translation (§3.6), instrumented for Figure 6 ----------------
  simmpi::Datatype translate_datatype(i32 handle, u64 msg_bytes_hint);
  simmpi::ReduceOp translate_op(i32 handle);
  simmpi::Comm translate_comm(i32 handle);
  i32 intern_comm(simmpi::Comm host_comm) {
    return handles_.intern_comm(host_comm);
  }

  // --- Request table (rank-local; requests are not shared across ranks,
  // but the guest threads of one rank share it under MPI_THREAD_MULTIPLE,
  // so the table structure is mutex-guarded. A returned pointer stays valid
  // across unrelated add/drop calls — std::map node stability — and MPI
  // forbids two threads completing the same request.) ----------------------
  i32 add_request(simmpi::Request req);
  simmpi::Request* find_request(i32 handle);
  void drop_request(i32 handle);

  // --- MPI_Init bookkeeping (atomic: any guest thread may query) -----------
  std::atomic<bool> initialized{false};
  std::atomic<bool> finalized{false};
  /// Thread level granted by MPI_Init_thread (abi::MPI_THREAD_*); plain
  /// MPI_Init leaves it at SINGLE.
  std::atomic<i32> thread_level{0};

  // --- Figure 6 instrumentation ---------------------------------------------
  const std::vector<TranslationSample>& samples() const { return samples_; }

  /// Staging buffers for the copy-based ablation mode (zero_copy = false).
  /// Two independent slots so one host call can stage a send view and a
  /// receive view at the same time (Sendrecv, the collectives) without the
  /// views clobbering each other. Thread-local: staging never outlives one
  /// host call, and concurrent guest threads of the same rank must not
  /// clobber each other's in-flight views.
  std::vector<u8>& staging(int slot);

 private:
  simmpi::Rank* rank_;
  HandleTable handles_;
  bool zero_copy_;
  bool record_translation_;
  std::mutex req_mu_;  // guards requests_/next_request_/samples_
  std::map<i32, simmpi::Request> requests_;
  i32 next_request_ = 1;
  std::vector<TranslationSample> samples_;
};

}  // namespace mpiwasm::embed
