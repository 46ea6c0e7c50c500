#include "embedder/env.h"

#include "runtime/value.h"
#include "support/timing.h"

namespace mpiwasm::embed {

namespace {
[[noreturn]] void bad_handle(const char* what, i32 handle) {
  throw rt::Trap(rt::TrapKind::kHostError,
                 std::string("invalid MPI ") + what + " handle " +
                     std::to_string(handle));
}
}  // namespace

HandleTable::HandleTable() {
  // Static content mirrors the custom mpi.h (abi.h); the indirection is
  // deliberately kept even though values happen to align — the module ABI
  // and the host library are allowed to diverge (§3.6).
  datatypes_ = {
      {abi::MPI_BYTE, simmpi::Datatype::kByte},
      {abi::MPI_CHAR, simmpi::Datatype::kChar},
      {abi::MPI_INT, simmpi::Datatype::kInt},
      {abi::MPI_FLOAT, simmpi::Datatype::kFloat},
      {abi::MPI_DOUBLE, simmpi::Datatype::kDouble},
      {abi::MPI_LONG, simmpi::Datatype::kLong},
      {abi::MPI_UNSIGNED, simmpi::Datatype::kUnsigned},
      {abi::MPI_LONG_LONG, simmpi::Datatype::kLongLong},
  };
  ops_ = {
      {abi::MPI_SUM, simmpi::ReduceOp::kSum},
      {abi::MPI_PROD, simmpi::ReduceOp::kProd},
      {abi::MPI_MAX, simmpi::ReduceOp::kMax},
      {abi::MPI_MIN, simmpi::ReduceOp::kMin},
      {abi::MPI_LAND, simmpi::ReduceOp::kLand},
      {abi::MPI_LOR, simmpi::ReduceOp::kLor},
      {abi::MPI_BAND, simmpi::ReduceOp::kBand},
      {abi::MPI_BOR, simmpi::ReduceOp::kBor},
  };
  comms_ = {{abi::MPI_COMM_WORLD, simmpi::kCommWorld}};
}

simmpi::Datatype HandleTable::lookup_datatype(i32 handle) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  auto it = datatypes_.find(handle);
  if (it == datatypes_.end()) bad_handle("datatype", handle);
  return it->second;
}

simmpi::ReduceOp HandleTable::lookup_op(i32 handle) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  auto it = ops_.find(handle);
  if (it == ops_.end()) bad_handle("op", handle);
  return it->second;
}

simmpi::Comm HandleTable::lookup_comm(i32 handle) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  auto it = comms_.find(handle);
  if (it == comms_.end()) bad_handle("communicator", handle);
  return it->second;
}

i32 HandleTable::intern_comm(simmpi::Comm host_comm) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  // Module handle == host id; the table still mediates every lookup.
  comms_[host_comm] = host_comm;
  return host_comm;
}

Env::Env(simmpi::Rank* rank, bool zero_copy, bool record_translation)
    : rank_(rank),
      zero_copy_(zero_copy),
      record_translation_(record_translation) {}

simmpi::Datatype Env::translate_datatype(i32 handle, u64 msg_bytes_hint) {
  if (record_translation_) {
    u64 t0 = now_ns();
    simmpi::Datatype dt = handles_.lookup_datatype(handle);
    u64 t1 = now_ns();
    std::lock_guard<std::mutex> lock(req_mu_);
    samples_.push_back({handle, msg_bytes_hint, t1 - t0});
    return dt;
  }
  return handles_.lookup_datatype(handle);
}

simmpi::ReduceOp Env::translate_op(i32 handle) {
  return handles_.lookup_op(handle);
}

simmpi::Comm Env::translate_comm(i32 handle) {
  return handles_.lookup_comm(handle);
}

i32 Env::add_request(simmpi::Request req) {
  std::lock_guard<std::mutex> lock(req_mu_);
  i32 h = next_request_++;
  requests_[h] = std::move(req);
  return h;
}

simmpi::Request* Env::find_request(i32 handle) {
  std::lock_guard<std::mutex> lock(req_mu_);
  auto it = requests_.find(handle);
  return it == requests_.end() ? nullptr : &it->second;
}

void Env::drop_request(i32 handle) {
  std::lock_guard<std::mutex> lock(req_mu_);
  requests_.erase(handle);
}

std::vector<u8>& Env::staging(int slot) {
  static thread_local std::vector<u8> bufs[2];
  return bufs[size_t(slot) & 1];
}

}  // namespace mpiwasm::embed
