#include "runtime/regcode_analysis.h"

#include <algorithm>

namespace mpiwasm::rt {

bool is_branch(ROp op) {
  switch (op) {
    case ROp::kBr: case ROp::kBrIf: case ROp::kBrIfNot: case ROp::kBrTable:
    case ROp::kBrIfI32Eq: case ROp::kBrIfI32Ne: case ROp::kBrIfI32LtS:
    case ROp::kBrIfI32LtU: case ROp::kBrIfI32GtS: case ROp::kBrIfI32GtU:
    case ROp::kBrIfI32LeS: case ROp::kBrIfI32LeU: case ROp::kBrIfI32GeS:
    case ROp::kBrIfI32GeU:
      return true;
    default:
      return false;
  }
}

bool is_terminator(ROp op) {
  return op == ROp::kBr || op == ROp::kBrTable || op == ROp::kReturn ||
         op == ROp::kReturnVoid || op == ROp::kUnreachable;
}

bool is_fused_select(ROp op) {
  return op >= ROp::kSelectI32Eq && op <= ROp::kSelectF64Gt;
}

void collect_reads(const RInstr& in, std::vector<u32>& out) {
  out.clear();
  // Atomics: loads read the address (b); rmw additionally the operand (c);
  // cmpxchg and wait also read d; stores read address (a) and value (b).
  if (rop_is_atomic(in.op)) {
    switch (in.op) {
      case ROp::kAtomicFence:
        break;
      case ROp::kAtomicNotify:
        out.push_back(in.b); out.push_back(in.c);
        break;
      case ROp::kAtomicWait32: case ROp::kAtomicWait64:
        out.push_back(in.b); out.push_back(in.c); out.push_back(in.d);
        break;
      default:
        if (in.op >= ROp::kI32AtomicLoad && in.op <= ROp::kI64AtomicLoad32U) {
          out.push_back(in.b);
        } else if (in.op >= ROp::kI32AtomicStore &&
                   in.op <= ROp::kI64AtomicStore32) {
          out.push_back(in.a); out.push_back(in.b);
        } else if (in.op >= ROp::kI32AtomicRmwCmpxchg) {
          out.push_back(in.b); out.push_back(in.c); out.push_back(in.d);
        } else {
          out.push_back(in.b); out.push_back(in.c);  // rmw
        }
        break;
    }
    return;
  }
  // Fused selects read the destination (the "true" value), the "false"
  // value, and both compare operands.
  if (is_fused_select(in.op)) {
    out.push_back(in.a); out.push_back(in.b);
    out.push_back(in.c); out.push_back(in.d);
    return;
  }
  switch (in.op) {
    case ROp::kNop: case ROp::kConst: case ROp::kConstV128:
    case ROp::kGlobalGet: case ROp::kBr: case ROp::kReturnVoid:
    case ROp::kUnreachable: case ROp::kMemorySize:
      break;
    case ROp::kMov:
      out.push_back(in.b);
      break;
    // Select-shaped ops: a is both a source and the destination.
    case ROp::kSelect: case ROp::kV128Bitselect:
      out.push_back(in.a); out.push_back(in.b); out.push_back(in.c);
      break;
    case ROp::kGlobalSet: case ROp::kBrIf: case ROp::kBrIfNot:
    case ROp::kBrTable: case ROp::kReturn: case ROp::kMemoryGrow:
      out.push_back(in.a);
      break;
    case ROp::kMemoryCopy: case ROp::kMemoryFill:
      out.push_back(in.a); out.push_back(in.b); out.push_back(in.c);
      break;
    case ROp::kCall:
      for (u32 i = 0; i < in.b; ++i) out.push_back(in.a + i);
      break;
    case ROp::kCallIndirect:
      for (u32 i = 0; i < in.b + 1; ++i) out.push_back(in.a + i);
      break;
    case ROp::kBrIfI32Eq: case ROp::kBrIfI32Ne: case ROp::kBrIfI32LtS:
    case ROp::kBrIfI32LtU: case ROp::kBrIfI32GtS: case ROp::kBrIfI32GtU:
    case ROp::kBrIfI32LeS: case ROp::kBrIfI32LeU: case ROp::kBrIfI32GeS:
    case ROp::kBrIfI32GeU:
      out.push_back(in.a); out.push_back(in.b);
      break;
    case ROp::kF64MulAdd: case ROp::kF32MulAdd:
      out.push_back(in.b); out.push_back(in.c); out.push_back(in.d);
      break;
    case ROp::kI32AddImm: case ROp::kI64AddImm: case ROp::kI32ShlImm:
    case ROp::kI32ShrUImm: case ROp::kI32AndImm: case ROp::kI32MulImm:
      out.push_back(in.b);
      break;
    case ROp::kMemGuard:
      out.push_back(in.b); out.push_back(in.c);
      break;
    // Loads read the address in b; load+op additionally reads c; indexed
    // loads read base (b) and index (c), d is the shift amount.
    case ROp::kI32Load: case ROp::kI64Load: case ROp::kF32Load:
    case ROp::kF64Load: case ROp::kI32Load8S: case ROp::kI32Load8U:
    case ROp::kI32Load16S: case ROp::kI32Load16U: case ROp::kI64Load8S:
    case ROp::kI64Load8U: case ROp::kI64Load16S: case ROp::kI64Load16U:
    case ROp::kI64Load32S: case ROp::kI64Load32U: case ROp::kV128Load:
    case ROp::kV128Load32Splat: case ROp::kV128Load64Splat:
    case ROp::kI32LoadRaw: case ROp::kI64LoadRaw: case ROp::kF32LoadRaw:
    case ROp::kF64LoadRaw: case ROp::kV128LoadRaw:
      out.push_back(in.b);
      break;
    case ROp::kI32LoadAdd: case ROp::kI64LoadAdd: case ROp::kF32LoadAdd:
    case ROp::kF64LoadAdd: case ROp::kF32LoadMul: case ROp::kF64LoadMul:
    case ROp::kI32x4LoadAdd: case ROp::kF32x4LoadAdd: case ROp::kF32x4LoadMul:
    case ROp::kF64x2LoadAdd: case ROp::kF64x2LoadMul:
    case ROp::kI32LoadIx: case ROp::kI64LoadIx: case ROp::kF32LoadIx:
    case ROp::kF64LoadIx: case ROp::kV128LoadIx:
    case ROp::kI32LoadIxRaw: case ROp::kI64LoadIxRaw: case ROp::kF32LoadIxRaw:
    case ROp::kF64LoadIxRaw: case ROp::kV128LoadIxRaw:
      out.push_back(in.b); out.push_back(in.c);
      break;
    // Stores read address (a) and value (b); op+store and indexed stores
    // additionally read c.
    case ROp::kI32Store: case ROp::kI64Store: case ROp::kF32Store:
    case ROp::kF64Store: case ROp::kI32Store8: case ROp::kI32Store16:
    case ROp::kI64Store8: case ROp::kI64Store16: case ROp::kI64Store32:
    case ROp::kV128Store:
    case ROp::kI32StoreRaw: case ROp::kI64StoreRaw: case ROp::kF32StoreRaw:
    case ROp::kF64StoreRaw: case ROp::kV128StoreRaw:
      out.push_back(in.a); out.push_back(in.b);
      break;
    case ROp::kI32AddStore: case ROp::kF32AddStore: case ROp::kF64AddStore:
    case ROp::kF64MulStore:
    case ROp::kI32x4AddStore: case ROp::kF32x4AddStore:
    case ROp::kF64x2AddStore: case ROp::kF64x2MulStore:
    case ROp::kI32StoreIx: case ROp::kI64StoreIx: case ROp::kF32StoreIx:
    case ROp::kF64StoreIx: case ROp::kV128StoreIx:
    case ROp::kI32StoreIxRaw: case ROp::kI64StoreIxRaw: case ROp::kF32StoreIxRaw:
    case ROp::kF64StoreIxRaw: case ROp::kV128StoreIxRaw:
      out.push_back(in.a); out.push_back(in.b); out.push_back(in.c);
      break;
    default:
      // Numeric ops: unops read b; binops read b and c. We conservatively
      // report both; b==c for unops is harmless.
      out.push_back(in.b);
      out.push_back(in.c);
      break;
  }
}

bool writes_dest(const RInstr& in) {
  // Atomic stores and the fence produce no register result; every other
  // atomic (loads, rmw, cmpxchg, wait, notify) writes the old/outcome
  // value to a.
  if (in.op == ROp::kAtomicFence ||
      (in.op >= ROp::kI32AtomicStore && in.op <= ROp::kI64AtomicStore32))
    return false;
  switch (in.op) {
    case ROp::kNop: case ROp::kGlobalSet: case ROp::kBr: case ROp::kBrIf:
    case ROp::kBrIfNot: case ROp::kBrTable: case ROp::kReturn:
    case ROp::kReturnVoid: case ROp::kUnreachable: case ROp::kMemoryCopy:
    case ROp::kMemoryFill:
    case ROp::kI32Store: case ROp::kI64Store: case ROp::kF32Store:
    case ROp::kF64Store: case ROp::kI32Store8: case ROp::kI32Store16:
    case ROp::kI64Store8: case ROp::kI64Store16: case ROp::kI64Store32:
    case ROp::kV128Store:
    case ROp::kI32StoreRaw: case ROp::kI64StoreRaw: case ROp::kF32StoreRaw:
    case ROp::kF64StoreRaw: case ROp::kV128StoreRaw:
    case ROp::kI32AddStore: case ROp::kF32AddStore: case ROp::kF64AddStore:
    case ROp::kF64MulStore:
    case ROp::kI32x4AddStore: case ROp::kF32x4AddStore:
    case ROp::kF64x2AddStore: case ROp::kF64x2MulStore:
    case ROp::kI32StoreIx: case ROp::kI64StoreIx: case ROp::kF32StoreIx:
    case ROp::kF64StoreIx: case ROp::kV128StoreIx:
    case ROp::kI32StoreIxRaw: case ROp::kI64StoreIxRaw: case ROp::kF32StoreIxRaw:
    case ROp::kF64StoreIxRaw: case ROp::kV128StoreIxRaw:
    case ROp::kBrIfI32Eq: case ROp::kBrIfI32Ne: case ROp::kBrIfI32LtS:
    case ROp::kBrIfI32LtU: case ROp::kBrIfI32GtS: case ROp::kBrIfI32GtU:
    case ROp::kBrIfI32LeS: case ROp::kBrIfI32LeU: case ROp::kBrIfI32GeS:
    case ROp::kBrIfI32GeU:
      return false;
    default:
      return true;
  }
}

bool reads_d_reg(ROp op) {
  return op == ROp::kF64MulAdd || op == ROp::kF32MulAdd ||
         is_fused_select(op) ||
         op == ROp::kAtomicWait32 || op == ROp::kAtomicWait64 ||
         (op >= ROp::kI32AtomicRmwCmpxchg &&
          op <= ROp::kI64AtomicRmw32CmpxchgU);
}

bool operands_in_range(const RFunc& f) {
  const u32 nregs = f.num_regs;
  if (f.num_params > f.num_locals || f.num_locals > nregs) return false;
  std::vector<u32> reads;
  for (const RInstr& in : f.code) {
    // The calls name a contiguous argument window at a (kCallIndirect's
    // table index follows it); the result, if any, lands in r[a].
    if (in.op == ROp::kCall || in.op == ROp::kCallIndirect) {
      const u64 window = u64(in.b) + (in.op == ROp::kCallIndirect ? 1 : 0);
      if (u64(in.a) + std::max<u64>(window, 1) > nregs) return false;
      continue;
    }
    if (writes_dest(in) && in.a >= nregs) return false;
    collect_reads(in, reads);
    for (u32 r : reads)
      if (r >= nregs) return false;
    if (reads_d_reg(in.op) && in.d >= nregs) return false;
  }
  return true;
}

std::vector<u32> branch_targets(const RFunc& f, const RInstr& in) {
  std::vector<u32> out;
  if (in.op == ROp::kBrTable) {
    for (u32 t : f.br_pool[in.imm]) out.push_back(t);
  } else if (is_branch(in.op)) {
    out.push_back(u32(in.imm));
  }
  return out;
}

Cfg build_cfg(const RFunc& f) {
  const size_t n = f.code.size();
  std::vector<bool> leader(n + 1, false);
  leader[0] = true;
  for (size_t i = 0; i < n; ++i) {
    const RInstr& in = f.code[i];
    if (is_branch(in.op) || is_terminator(in.op)) {
      for (u32 t : branch_targets(f, in)) {
        MW_CHECK(t <= n, "branch target out of range");
        if (t < n) leader[t] = true;
      }
      if (i + 1 < n) leader[i + 1] = true;
    }
  }
  Cfg cfg;
  cfg.block_of.resize(n);
  for (size_t i = 0; i < n; ++i) {
    if (leader[i]) cfg.leaders.push_back(i);
    cfg.block_of[i] = cfg.leaders.size() - 1;
  }
  cfg.successors.resize(cfg.leaders.size());
  for (size_t b = 0; b < cfg.leaders.size(); ++b) {
    size_t last = cfg.block_end(b, n) - 1;
    const RInstr& in = f.code[last];
    if (is_terminator(in.op)) {
      for (u32 t : branch_targets(f, in))
        if (t < n) cfg.successors[b].push_back(u32(cfg.block_of[t]));
    } else {
      if (is_branch(in.op))
        for (u32 t : branch_targets(f, in))
          if (t < n) cfg.successors[b].push_back(u32(cfg.block_of[t]));
      if (last + 1 < n) cfg.successors[b].push_back(u32(cfg.block_of[last + 1]));
    }
  }
  return cfg;
}

namespace {

/// Steps `live` backwards over `in`: live-after becomes live-before.
/// `reads` is scratch.
void step_live_back(const RInstr& in, std::vector<bool>& live,
                    std::vector<u32>& reads) {
  if (writes_dest(in)) live[in.a] = false;
  collect_reads(in, reads);
  for (u32 r : reads) live[r] = true;
}

}  // namespace

BlockLiveness compute_block_liveness(const RFunc& f, const Cfg& cfg) {
  const size_t n = f.code.size();
  const size_t nb = cfg.leaders.size();
  const size_t nw = (size_t(f.num_regs) + 63) / 64;
  BlockLiveness bl;
  bl.words = nw;
  bl.in.assign(nb * nw, 0);
  bl.out.assign(nb * nw, 0);
  // Upward-exposed uses (gen) and definitions (kill) per block.
  std::vector<u64> gen(nb * nw, 0), kill(nb * nw, 0);
  std::vector<u32> reads;
  for (size_t b = 0; b < nb; ++b) {
    u64* g = &gen[b * nw];
    u64* k = &kill[b * nw];
    for (size_t i = cfg.block_end(b, n); i-- > cfg.block_start(b);) {
      const RInstr& in = f.code[i];
      if (writes_dest(in)) {
        g[in.a / 64] &= ~(u64(1) << (in.a % 64));
        k[in.a / 64] |= u64(1) << (in.a % 64);
      }
      collect_reads(in, reads);
      for (u32 r : reads) g[r / 64] |= u64(1) << (r % 64);
    }
  }
  bool changed = true;
  while (changed) {
    changed = false;
    for (size_t b = nb; b-- > 0;) {
      u64* out = &bl.out[b * nw];
      for (u32 s : cfg.successors[b])
        for (size_t w = 0; w < nw; ++w) out[w] |= bl.in[s * nw + w];
      for (size_t w = 0; w < nw; ++w) {
        const u64 v = gen[b * nw + w] | (out[w] & ~kill[b * nw + w]);
        if (v != bl.in[b * nw + w]) {
          bl.in[b * nw + w] = v;
          changed = true;
        }
      }
    }
  }
  return bl;
}

Liveness compute_liveness(const RFunc& f, const Cfg& cfg) {
  const size_t n = f.code.size();
  const BlockLiveness bl = compute_block_liveness(f, cfg);
  std::vector<u32> reads;
  Liveness lv;
  lv.out.assign(n, {});
  std::vector<bool> live(f.num_regs);
  for (size_t b = 0; b < cfg.leaders.size(); ++b) {
    for (u32 r = 0; r < f.num_regs; ++r) live[r] = bl.live_out(b, r);
    for (size_t i = cfg.block_end(b, n); i-- > cfg.block_start(b);) {
      lv.out[i] = live;
      step_live_back(f.code[i], live, reads);
    }
  }
  return lv;
}

}  // namespace mpiwasm::rt
