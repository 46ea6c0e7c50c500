// Shared RegCode analyses: operand roles, the control-flow graph, and
// register liveness.
//
// The optimizer's passes and the x86-64 JIT's register cache (jit_x64.h)
// both build on these, so there is one definition of which registers an
// instruction reads and writes. The cache loader uses the same operand-role
// helpers to reject records whose operands fall outside the frame.
#pragma once

#include <vector>

#include "runtime/regcode.h"

namespace mpiwasm::rt {

/// Any branch, br_table included.
bool is_branch(ROp op);

/// Instructions control never falls through.
bool is_terminator(ROp op);

/// The fused compare-and-select family (contiguous in the enum). These ops
/// read a/b/c/d and write a (a is both the "true" value and the dest).
bool is_fused_select(ROp op);

/// Register reads of an instruction; the calls report their argument window
/// (and kCallIndirect its table index after it).
void collect_reads(const RInstr& in, std::vector<u32>& out);

/// Whether the instruction writes register a.
bool writes_dest(const RInstr& in);

/// Ops whose d field names a register (not a shift amount / flag word).
bool reads_d_reg(ROp op);

/// Whether every register operand of every instruction lies inside the
/// frame (`num_regs` slots) and the params/locals/regs counts nest. Bodies
/// that fail this would read and write past their frame allocation.
bool operands_in_range(const RFunc& f);

struct Cfg {
  std::vector<size_t> leaders;               // sorted block start indices
  std::vector<size_t> block_of;              // instr -> block id
  std::vector<std::vector<u32>> successors;  // block id -> block ids

  size_t block_start(size_t b) const { return leaders[b]; }
  size_t block_end(size_t b, size_t n) const {
    return b + 1 < leaders.size() ? leaders[b + 1] : n;
  }
};

/// Branch targets of `in` (every br_table entry; empty for non-branches).
std::vector<u32> branch_targets(const RFunc& f, const RInstr& in);

/// Basic blocks and their successors. Every branch target must be <= the
/// instruction count.
Cfg build_cfg(const RFunc& f);

/// Per-block live register sets at block entry and exit (global dataflow),
/// stored as `words` 64-bit words per block.
struct BlockLiveness {
  size_t words = 0;
  std::vector<u64> in, out;  // [block * words + reg / 64]

  bool live_in(size_t b, u32 reg) const { return test(in, b, reg); }
  bool live_out(size_t b, u32 reg) const { return test(out, b, reg); }
  const u64* out_row(size_t b) const { return out.data() + b * words; }

 private:
  bool test(const std::vector<u64>& v, size_t b, u32 reg) const {
    return (v[b * words + reg / 64] >> (reg % 64)) & 1;
  }
};

BlockLiveness compute_block_liveness(const RFunc& f, const Cfg& cfg);

/// Per-instruction live-out sets (reg live immediately after the instruction
/// executes, considering all CFG paths). O(n_instr * n_regs) memory, which is
/// fine at RegCode function sizes.
struct Liveness {
  std::vector<std::vector<bool>> out;  // [instr][reg]
  bool live_after(size_t i, u32 reg) const { return out[i][reg]; }
};

Liveness compute_liveness(const RFunc& f, const Cfg& cfg);

}  // namespace mpiwasm::rt
