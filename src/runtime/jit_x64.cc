#include "runtime/jit_x64.h"

#include <algorithm>
#include <cstring>
#include <initializer_list>
#include <utility>

#include "runtime/jit_support.h"
#include "runtime/regcode_analysis.h"

namespace mpiwasm::rt {

namespace {

using wasm::V128;

// Register numbers (low 3 bits go in modrm/SIB; bit 3 goes in REX).
enum Gpr : u8 {
  RAX = 0, RCX = 1, RDX = 2, RBX = 3, RSP = 4, RBP = 5, RSI = 6, RDI = 7,
  R8 = 8, R9 = 9, R10 = 10, R11 = 11, R12 = 12, R13 = 13, R14 = 14, R15 = 15,
};
enum Xmm : u8 { X0 = 0, X1 = 1 };

// Condition-code low nibbles (0F 8x jcc rel32, 7x jcc rel8, 0F 9x setcc).
enum Cc : u8 {
  CC_B = 0x2, CC_AE = 0x3, CC_E = 0x4, CC_NE = 0x5, CC_BE = 0x6, CC_A = 0x7,
  CC_P = 0xA, CC_NP = 0xB, CC_L = 0xC, CC_GE = 0xD, CC_LE = 0xE, CC_G = 0xF,
};
constexpr int kJmp = -1;  // branch(): unconditional

// Register-cache locations: a GPR number, or kX + an XMM number.
constexpr u8 kX = 16;
constexpr u8 kNoLoc = 0xFF;
constexpr u32 kNoSlot = ~0u;
constexpr u8 kCacheGprs[] = {RSI, RDI, R8, R9, R10, R11};
constexpr u8 kFirstCacheXmm = 2;  // xmm2..xmm15
// Loop promotion leaves this many registers per class to block-local values.
constexpr u32 kMaxPinnedGprs = 4;
constexpr u32 kMaxPinnedXmms = 10;

// Lane count when `op` is an extract/replace with an immediate lane index,
// else 0 (no lane validation needed).
u32 jit_lane_count(ROp op) {
  switch (op) {
    case ROp::kI8x16ExtractLaneS:
    case ROp::kI8x16ExtractLaneU:
    case ROp::kI8x16ReplaceLane:
      return 16;
    case ROp::kI16x8ExtractLaneS:
    case ROp::kI16x8ExtractLaneU:
    case ROp::kI16x8ReplaceLane:
      return 8;
    case ROp::kI32x4ExtractLane:
    case ROp::kF32x4ExtractLane:
    case ROp::kI32x4ReplaceLane:
    case ROp::kF32x4ReplaceLane:
      return 4;
    case ROp::kI64x2ExtractLane:
    case ROp::kF64x2ExtractLane:
    case ROp::kI64x2ReplaceLane:
    case ROp::kF64x2ReplaceLane:
      return 2;
    default:
      return 0;
  }
}

bool is_xmm(u8 loc) { return loc >= kX; }
u32 bit(u8 loc) { return loc == kNoLoc ? 0 : 1u << loc; }
bool is_cache_gpr(u8 r) { return r >= RSI && r <= R11; }

// Slot accesses a loop-promotion probe records.
enum Use : u8 { kUseGpr = 1, kUseXmm = 2, kUseFrame = 4, kUseDef = 8 };

/// One function's emission state. rax/rcx/rdx and xmm0/xmm1 are template
/// scratch; rsi/rdi/r8-r11 and xmm2-xmm15 cache Slot values (see jit_x64.h).
/// Templates read operands and define results through the cache primitives
/// below, which pick register or frame forms from the cache state.
struct Emitter {
  const RFunc& f;
  u32 feats;
  std::vector<u8> code;
  std::vector<JitReloc> relocs;
  std::vector<u32> ioff;  // native offset of each RegCode instruction

  struct BranchFix { u32 at; u32 target; };   // rel32 to instruction index
  struct PoolFix { u32 at; u32 index; };      // rip disp32 to pool entry
  struct TableFix { u32 at; u32 pool; };      // rip disp32 to a br table
  struct TrapSite { u32 at; u32 len; };       // rel32 to this site's OOB stub
  std::vector<BranchFix> branch_fixes;
  std::vector<PoolFix> pool_fixes;
  std::vector<TableFix> table_fixes;
  std::vector<TrapSite> trap_sites;
  std::vector<TrapSite> ua_sites;  // rel32 to this site's unaligned stub
  std::vector<V128> pool;  // f.v128_pool + emitter-generated masks

  // --- register cache ---
  struct CacheReg {
    u32 slot = kNoSlot;
    bool dirty = false;
    bool pinned = false;
    u32 stamp = 0;  // last use, for LRU eviction
  };
  CacheReg cr[32];
  std::vector<u8> loc_of;  // slot -> cache location or kNoLoc
  u32 clock = 0;

  // Analyses (unset while probing a loop).
  const Cfg* cfg = nullptr;
  const BlockLiveness* live = nullptr;
  size_t cur_block = 0;
  bool block_closed = false;  // live-out values already written back
  bool failed = false;        // an internal invariant broke: no blob

  // Loop promotion: innermost loops without helper calls keep their
  // loop-carried slots in fixed registers from entry to exit.
  struct Pin {
    u32 slot;
    u8 loc;
    bool written;  // defined inside the loop: exits must write it back
  };
  struct Loop {
    u32 head = 0, end = 0;  // RegCode range [head, end)
    std::vector<Pin> pins;
    u32 head_off = 0;  // native offset after the entry loads (back edges)
  };
  std::vector<Loop> loops;
  std::vector<i32> loop_at;  // header instruction -> index into loops
  const Loop* loop = nullptr;  // loop being emitted
  struct ExitStub { u32 at; u32 target; std::vector<Pin> writes; };
  std::vector<ExitStub> exit_stubs;

  // A probe records how a candidate loop's templates use each slot.
  struct Probe {
    std::vector<std::pair<u32, u8>> uses;     // (slot, Use)
    std::vector<std::pair<u32, u32>> copies;  // kMov (a, b)
    bool helper = false;                      // a helper call clobbers the cache
  };
  Probe* probe = nullptr;

  Emitter(const RFunc& fn, u32 features)
      : f(fn), feats(features), pool(fn.v128_pool),
        loc_of(fn.num_regs, kNoLoc) {}

  // --- raw byte emission ---------------------------------------------------

  void b1(u8 v) { code.push_back(v); }
  void bs(std::initializer_list<u8> vs) {
    for (u8 v : vs) code.push_back(v);
  }
  void i32le(u32 v) {
    for (int i = 0; i < 4; ++i) b1(u8(v >> (8 * i)));
  }
  void i64le(u64 v) {
    for (int i = 0; i < 8; ++i) b1(u8(v >> (8 * i)));
  }
  void patch32(u32 at, u32 v) {
    for (int i = 0; i < 4; ++i) code[at + i] = u8(v >> (8 * i));
  }

  // --- instruction encoding primitives --------------------------------------

  void rex_if(bool w, u8 reg, u8 rm) {
    u8 r = u8(0x40 | (w ? 8 : 0) | ((reg >> 3) << 2) | (rm >> 3));
    if (r != 0x40) b1(r);
  }

  /// modrm for [base + disp]; always mod=01/10 (disp present) so rbp/r13
  /// need no special case; rsp/r12 get the mandatory SIB.
  void modrm_mem(u8 reg, u8 base, i64 disp) {
    u8 rl = reg & 7, bl = base & 7;
    bool small = disp >= -128 && disp <= 127;
    b1(u8((small ? 0x40 : 0x80) | (rl << 3) | (bl == 4 ? 4 : bl)));
    if (bl == 4) b1(0x24);  // SIB: scale 1, no index, base rsp/r12
    if (small)
      b1(u8(i8(disp)));
    else
      i32le(u32(i32(disp)));
  }

  /// op reg, [base+disp] (or store form, same encoding with reversed opcode).
  void op_rm(u8 pfx, bool w, std::initializer_list<u8> ops, u8 reg, u8 base,
             i64 disp) {
    if (pfx) b1(pfx);
    rex_if(w, reg, base);
    for (u8 o : ops) b1(o);
    modrm_mem(reg, base, disp);
  }

  /// op reg, rm (register-direct form). `byte_rm` forces a REX prefix so an
  /// 8-bit rm of 4-7 names spl/bpl/sil/dil rather than ah/ch/dh/bh.
  void op_rr(u8 pfx, bool w, std::initializer_list<u8> ops, u8 reg, u8 rm,
             bool byte_rm = false) {
    if (pfx) b1(pfx);
    u8 r = u8(0x40 | (w ? 8 : 0) | ((reg >> 3) << 2) | (rm >> 3));
    if (r != 0x40 || (byte_rm && rm >= 4)) b1(r);
    for (u8 o : ops) b1(o);
    b1(u8(0xC0 | ((reg & 7) << 3) | (rm & 7)));
  }

  /// op reg, [r13 + rax] — the linear-memory access form. r13&7 == 5 forces
  /// a disp8 even at zero; index rax never needs REX.X. The REX prefix is
  /// always present, so 8-bit regs 4-7 are spl..dil.
  void op_mem(u8 pfx, bool w, std::initializer_list<u8> ops, u8 reg) {
    if (pfx) b1(pfx);
    b1(u8(0x40 | (w ? 8 : 0) | ((reg >> 3) << 2) | 1));  // REX.B = r13
    for (u8 o : ops) b1(o);
    b1(u8(0x44 | ((reg & 7) << 3)));  // mod=01, rm=SIB
    b1(0x05);                         // SIB: scale 1, index rax, base r13
    b1(0x00);                         // disp8 = 0
  }

  /// op reg, [rip + disp32]; returns the offset of the disp32 for fixups.
  u32 op_rip(u8 pfx, std::initializer_list<u8> ops, u8 reg) {
    if (pfx) b1(pfx);
    rex_if(false, reg, 0);
    for (u8 o : ops) b1(o);
    b1(u8(0x00 | ((reg & 7) << 3) | 5));  // mod=00 rm=101: rip-relative
    u32 at = u32(code.size());
    i32le(0);
    return at;
  }

  /// ALU group-1 (add=0 or=1 and=4 sub=5 xor=6 cmp=7) reg, imm.
  void alu_imm(bool w, u8 ext, u8 rm, i64 imm) {
    rex_if(w, 0, rm);
    if (imm >= -128 && imm <= 127) {
      b1(0x83);
      b1(u8(0xC0 | (ext << 3) | (rm & 7)));
      b1(u8(i8(imm)));
    } else {
      b1(0x81);
      b1(u8(0xC0 | (ext << 3) | (rm & 7)));
      i32le(u32(i32(imm)));
    }
  }

  /// Shift group-2 (rol=0 ror=1 shl=4 shr=5 sar=7) reg, imm8.
  void shift_imm(bool w, u8 ext, u8 rm, u8 imm) {
    rex_if(w, 0, rm);
    b1(0xC1);
    b1(u8(0xC0 | (ext << 3) | (rm & 7)));
    b1(imm);
  }

  void movabs(u8 reg, u64 v) {
    b1(u8(0x48 | (reg >> 3)));
    b1(u8(0xB8 | (reg & 7)));
    i64le(v);
  }

  /// movaps dst, src (full xmm copy).
  void movaps_rr(u8 dst, u8 src) { op_rr(0, false, {0x0F, 0x28}, dst, src); }

  // --- Slot-frame access (rbx = Slot* frame; one slot = 16 bytes) -----------

  i64 slot(u32 r) const { return i64(r) * 16; }

  /// frame[s] = location `loc`: all 8 bytes of a GPR, all 16 of an XMM.
  /// Bytes past the value's type are don't-care (every reader is typed),
  /// and full-width stores let any later load of the slot forward.
  void store_loc(u32 s, u8 loc) {
    if (is_xmm(loc))
      op_rm(0, false, {0x0F, 0x29}, loc - kX, RBX, slot(s));  // movaps
    else
      op_rm(0, true, {0x89}, loc, RBX, slot(s));
  }

  /// 16-byte frame copy frame[a] = frame[b] through xmm0.
  void frame_copy(u32 a, u32 b) {
    if (a == b) return;
    op_rm(0, false, {0x0F, 0x28}, X0, RBX, slot(b));
    op_rm(0, false, {0x0F, 0x29}, X0, RBX, slot(a));
  }

  // --- register cache: bookkeeping -------------------------------------------

  void note(u32 s, u8 use) {
    if (probe) probe->uses.push_back({s, use});
  }
  void touch(u8 loc) { cr[loc].stamp = ++clock; }
  void map(u8 loc, u32 s, bool dirty) {
    cr[loc] = {s, dirty, false, ++clock};
    loc_of[s] = loc;
  }
  void unmap(u8 loc) {
    loc_of[cr[loc].slot] = kNoLoc;
    cr[loc] = CacheReg{};
  }
  /// Mask of the cache register holding `s` (0 for kNoSlot or uncached).
  u32 held(u32 s) const { return s == kNoSlot ? 0 : bit(loc_of[s]); }

  void write_back(u8 loc) {
    store_loc(cr[loc].slot, loc);
    cr[loc].dirty = false;
  }
  /// Makes frame[s] current; s stays cached.
  void sync(u32 s) {
    u8 l = loc_of[s];
    if (l != kNoLoc && cr[l].dirty) write_back(l);
  }
  /// Reloads a pinned register from its slot (8 bytes GPR, 16 bytes XMM).
  void reload(u8 loc) {
    const u32 s = cr[loc].slot;
    if (is_xmm(loc))
      op_rm(0, false, {0x0F, 0x28}, loc - kX, RBX, slot(s));
    else
      op_rm(0, true, {0x8B}, loc, RBX, slot(s));
    cr[loc].dirty = false;
  }

  template <typename Fn>
  void for_each_loc(Fn fn) {
    for (u8 r : kCacheGprs) fn(r);
    for (u8 x = kFirstCacheXmm; x < 16; ++x) fn(u8(kX + x));
  }

  /// A free register of the class, else the least recently used unpinned
  /// one outside `avoid` (written back if dirty). kNoLoc if none qualifies.
  u8 alloc(bool xmm, u32 avoid) {
    u8 best = kNoLoc;
    auto consider = [&](u8 l) {
      if (cr[l].pinned || (avoid & bit(l))) return;
      if (cr[l].slot == kNoSlot) {
        if (best == kNoLoc || cr[best].slot != kNoSlot) best = l;
        return;
      }
      if (best == kNoLoc ||
          (cr[best].slot != kNoSlot && cr[l].stamp < cr[best].stamp))
        best = l;
    };
    if (xmm) {
      for (u8 x = kFirstCacheXmm; x < 16; ++x) consider(u8(kX + x));
    } else {
      for (u8 r : kCacheGprs) consider(r);
    }
    if (best != kNoLoc && cr[best].slot != kNoSlot) {
      if (cr[best].dirty) write_back(best);
      unmap(best);
    }
    return best;
  }

  /// Before a helper call (which clobbers every cache register and reads
  /// its operands from the frame): write back and forget the whole cache.
  void spill_all() {
    if (probe) probe->helper = true;
    for_each_loc([&](u8 l) {
      if (cr[l].slot == kNoSlot) return;
      if (cr[l].pinned) failed = true;  // promoted loops have no helpers
      if (cr[l].dirty) write_back(l);
      unmap(l);
    });
  }

  // --- register cache: operand reads -----------------------------------------

  /// reg = s's GPR value (w: 64-bit). From s's cache register (movd/movq
  /// across classes) or the frame; nothing when s already lives in reg.
  void mov_g(u8 reg, u32 s, bool w) {
    note(s, kUseGpr);
    const u8 l = loc_of[s];
    if (l == kNoLoc) {
      op_rm(0, w, {0x8B}, reg, RBX, slot(s));
      return;
    }
    touch(l);
    if (is_xmm(l))
      op_rr(0x66, w, {0x0F, 0x7E}, l - kX, reg);  // movd/movq reg, xmm
    else if (l != reg)
      op_rr(0, w, {0x8B}, reg, l);
  }
  void load32(u8 reg, u32 s) { mov_g(reg, s, false); }
  void load64(u8 reg, u32 s) { mov_g(reg, s, true); }

  /// A GPR holding s: its cache register, else `scratch` loaded with it.
  /// An i32 in a cache register may carry garbage above bit 31, so 64-bit
  /// uses of i32 values go through load32 into a scratch register.
  u8 gpr(u32 s, u8 scratch, bool w) {
    const u8 l = loc_of[s];
    if (l != kNoLoc && !is_xmm(l)) {
      note(s, kUseGpr);
      touch(l);
      return l;
    }
    mov_g(scratch, s, w);
    return scratch;
  }

  /// `op reg, <s>` where the r/m operand is a GPR-class value.
  void op_g(u8 pfx, bool w, std::initializer_list<u8> ops, u8 reg, u32 s,
            bool byte_rm = false) {
    note(s, kUseGpr);
    const u8 l = loc_of[s];
    if (l != kNoLoc && !is_xmm(l)) {
      touch(l);
      op_rr(pfx, w, ops, reg, l, byte_rm);
      return;
    }
    if (l != kNoLoc) sync(s);
    op_rm(pfx, w, ops, reg, RBX, slot(s));
  }

  /// x = s's XMM value (low `width` bytes meaningful).
  void mov_x(u8 x, u32 s, u8 width) {
    note(s, kUseXmm);
    const u8 l = loc_of[s];
    if (l != kNoLoc) touch(l);
    if (l != kNoLoc && is_xmm(l)) {
      if (l - kX != x) movaps_rr(x, l - kX);
      return;
    }
    if (l != kNoLoc && width <= 8) {
      op_rr(0x66, width == 8, {0x0F, 0x6E}, x, l);  // movd/movq xmm, reg
      return;
    }
    if (l != kNoLoc) sync(s);
    if (width == 16)
      op_rm(0, false, {0x0F, 0x28}, x, RBX, slot(s));
    else
      op_rm(width == 8 ? 0xF2 : 0xF3, false, {0x0F, 0x10}, x, RBX, slot(s));
  }
  void loadss(u8 x, u32 s) { mov_x(x, s, 4); }
  void loadsd(u8 x, u32 s) { mov_x(x, s, 8); }
  void loadaps(u8 x, u32 s) { mov_x(x, s, 16); }

  /// An XMM register holding s: its cache register, else `scratch`.
  u8 xmm(u32 s, u8 scratch, u8 width) {
    const u8 l = loc_of[s];
    if (l != kNoLoc && is_xmm(l)) {
      note(s, kUseXmm);
      touch(l);
      return l - kX;
    }
    mov_x(scratch, s, width);
    return scratch;
  }

  /// `op reg, <s>` where the r/m operand is an XMM-class value.
  void op_x(u8 pfx, bool w, std::initializer_list<u8> ops, u8 reg, u32 s) {
    note(s, kUseXmm);
    const u8 l = loc_of[s];
    if (l != kNoLoc && is_xmm(l)) {
      touch(l);
      op_rr(pfx, w, ops, reg, l - kX);
      return;
    }
    if (l != kNoLoc) sync(s);
    op_rm(pfx, w, ops, reg, RBX, slot(s));
  }

  /// Frame displacement of s for templates that access it in place (lane
  /// ops, 16-byte copies): the cached copy is written back first.
  i64 frame_in(u32 s) {
    note(s, kUseFrame);
    sync(s);
    return slot(s);
  }
  /// After a template wrote frame[s] directly: the cached copy is stale
  /// (a pinned register reloads).
  void frame_wrote(u32 s) {
    note(s, kUseFrame | kUseDef);
    const u8 l = loc_of[s];
    if (l == kNoLoc) return;
    if (cr[l].pinned)
      reload(l);
    else
      unmap(l);
  }

  // --- register cache: definitions -------------------------------------------

  /// Register a template computes slot a's new value in: a's pinned
  /// register, a's current register when a == first (its old value is the
  /// first operand or no longer needed), or a free one; never a register in
  /// `avoid` (operands still to be read) nor first's. `scratch` if none.
  u8 dst(u32 a, u32 first, u32 avoid, u8 scratch, bool xmm_cls) {
    const u8 la = loc_of[a];
    if (la != kNoLoc && (cr[la].pinned || first == a)) {
      if (is_xmm(la) == xmm_cls && !(avoid & bit(la)))
        return xmm_cls ? la - kX : la;
      if (cr[la].pinned) return scratch;
    }
    const u8 l = alloc(xmm_cls, avoid | (first == a ? 0 : held(first)));
    if (l == kNoLoc) return scratch;
    return xmm_cls ? l - kX : l;
  }
  u8 dst_g(u32 a, u32 first, u32 avoid, u8 scratch) {
    return dst(a, first, avoid, scratch, false);
  }
  u8 dst_x(u32 a, u32 first, u32 avoid, u8 scratch) {
    return dst(a, first, avoid, scratch, true);
  }

  /// Slot a's new value now lives in cache location `loc`.
  void commit(u32 a, u8 loc) {
    note(a, u8((is_xmm(loc) ? kUseXmm : kUseGpr) | kUseDef));
    const u8 la = loc_of[a];
    if (la == loc) {
      cr[loc].dirty = true;
      touch(loc);
      return;
    }
    if (la != kNoLoc) unmap(la);
    map(loc, a, true);
  }
  void commit_g(u32 a, u8 reg) {
    if (is_cache_gpr(reg))
      commit(a, reg);
    else
      def_g(a, reg);
  }
  void commit_x(u32 a, u8 x) {
    if (x >= kFirstCacheXmm)
      commit(a, u8(kX + x));
    else
      def_x(a, x);
  }

  /// Slot a = scratch GPR `reg`.
  void def_g(u32 a, u8 reg) {
    note(a, kUseGpr | kUseDef);
    u8 l = loc_of[a];
    if (l != kNoLoc && cr[l].pinned) {
      if (is_xmm(l))
        op_rr(0x66, true, {0x0F, 0x6E}, l - kX, reg);  // movq xmm, reg
      else
        op_rr(0, true, {0x8B}, l, reg);
      cr[l].dirty = true;
      touch(l);
      return;
    }
    if (l != kNoLoc) unmap(l);
    l = alloc(false, 0);
    if (l == kNoLoc) {
      store_loc(a, reg);
      return;
    }
    op_rr(0, true, {0x8B}, l, reg);
    map(l, a, true);
  }

  /// Slot a = scratch XMM `x`.
  void def_x(u32 a, u8 x) {
    note(a, kUseXmm | kUseDef);
    u8 l = loc_of[a];
    if (l != kNoLoc && cr[l].pinned) {
      if (is_xmm(l))
        movaps_rr(l - kX, x);
      else
        op_rr(0x66, true, {0x0F, 0x7E}, x, l);  // movq reg, xmm
      cr[l].dirty = true;
      touch(l);
      return;
    }
    if (l != kNoLoc) unmap(l);
    l = alloc(true, 0);
    if (l == kNoLoc) {
      store_loc(a, u8(kX + x));
      return;
    }
    movaps_rr(l - kX, x);
    map(l, a, true);
  }

  // --- blocks, loops and branches --------------------------------------------

  /// End of a basic block's straight-line code: values live out of it are
  /// written back (pinned ones stay in their registers).
  void close_block() {
    block_closed = true;
    if (probe) return;
    for_each_loc([&](u8 l) {
      const CacheReg& c = cr[l];
      if (c.slot != kNoSlot && !c.pinned && c.dirty &&
          live->live_out(cur_block, c.slot))
        write_back(l);
    });
  }

  /// Forgets block-local cache state at a block boundary.
  void reset_block() {
    for_each_loc([&](u8 l) {
      if (cr[l].slot == kNoSlot) return;
      if (cr[l].pinned)
        cr[l].dirty = true;  // unknown on the other paths into the block
      else
        unmap(l);
    });
  }

  /// Pins an exit edge to RegCode instruction `target` must write back:
  /// those the loop defines and the target reads.
  std::vector<Pin> pins_live_at(u32 target) const {
    std::vector<Pin> out;
    if (target >= f.code.size()) return out;
    const size_t blk = cfg->block_of[target];
    for (const Pin& p : loop->pins)
      if (p.written && live->live_in(blk, p.slot)) out.push_back(p);
    return out;
  }
  void write_pins(const std::vector<Pin>& pins) {
    for (const Pin& p : pins) store_loc(p.slot, p.loc);
  }

  /// Loop entry (every edge from outside lands here): load the pinned slots.
  void enter_loop(Loop& lp) {
    for (const Pin& p : lp.pins) {
      map(p.loc, p.slot, false);
      cr[p.loc].pinned = true;
      reload(p.loc);
    }
    lp.head_off = u32(code.size());
    loop = &lp;
  }
  void leave_loop() {
    for (const Pin& p : loop->pins) unmap(p.loc);
    loop = nullptr;
  }

  void rel32_to(u32 native_off) {
    i32le(u32(i32(native_off) - i32(code.size() + 4)));
  }

  /// jcc `cc` (or jmp for kJmp) to RegCode instruction `target`. Inside a
  /// promoted loop, back edges skip the entry loads and exits write the
  /// pinned values back (conditional exits through an out-of-line stub).
  void branch(int cc, u32 target) {
    if (loop && target == loop->head) {
      if (cc == kJmp)
        b1(0xE9);
      else
        bs({0x0F, u8(0x80 | cc)});
      rel32_to(loop->head_off);
      return;
    }
    if (loop && (target < loop->head || target >= loop->end)) {
      if (cc == kJmp) {
        write_pins(pins_live_at(target));
      } else {
        bs({0x0F, u8(0x80 | cc)});
        exit_stubs.push_back({u32(code.size()), target, pins_live_at(target)});
        i32le(0);
        return;
      }
    }
    if (cc == kJmp) {
      b1(0xE9);
    } else {
      bs({0x0F, u8(0x80 | cc)});
    }
    branch_fixes.push_back({u32(code.size()), target});
    i32le(0);
  }

  // --- local control-flow helpers --------------------------------------------

  u32 jcc8(u8 cc) {  // returns patch position of the rel8
    b1(u8(0x70 | cc));
    b1(0);
    return u32(code.size() - 1);
  }
  void label8(u32 at) { code[at] = u8(code.size() - (at + 1)); }

  void jmp32(u32 target) {
    b1(0xE9);
    branch_fixes.push_back({u32(code.size()), target});
    i32le(0);
  }

  // --- helper calls -----------------------------------------------------------

  /// movabs rax, &helper; call rax. The imm64 is recorded as a relocation;
  /// the current-process address is baked in so even an unpatched blob runs
  /// correctly in the emitting process.
  void call_helper(JitHelperId id) {
    if (probe) probe->helper = true;
    bs({0x48, 0xB8});
    relocs.push_back({u32(code.size()), u32(id)});
    i64le(u64(reinterpret_cast<uintptr_t>(jit_helper_address(u32(id)))));
    bs({0xFF, 0xD0});
  }

  /// Reload r13/r15 from the {base,size} pair a memory-state helper returned
  /// in rax:rdx (memory may have grown or been touched by a callee).
  void reload_mem() {
    op_rr(0, true, {0x89}, RAX, R13);  // mov r13, rax
    op_rr(0, true, {0x89}, RDX, R15);  // mov r15, rdx
  }

  // --- effective addresses ------------------------------------------------------

  /// rax = u64(r[base_slot].u32) + imm. rcx is clobbered for 64-bit imms.
  void lin_addr(u32 base_slot, u64 imm) {
    load32(RAX, base_slot);  // 32-bit mov zero-extends
    add_imm_rax(imm);
  }

  /// rax = u64(u32(r[base].u32 + (r[idx].u32 << shift))) + imm — the IXADDR
  /// macro. The 32-bit add wraps and zero-extends exactly like the macro.
  void ix_addr(u32 base_slot, u32 idx_slot, u32 shift, u64 imm) {
    load32(RAX, idx_slot);
    if (shift & 31) shift_imm(false, 4, RAX, u8(shift & 31));
    op_g(0, false, {0x03}, RAX, base_slot);  // add eax, base
    add_imm_rax(imm);
  }

  void add_imm_rax(u64 imm) {
    if (imm == 0) return;
    if (imm <= 0x7FFFFFFFull) {
      alu_imm(true, 0, RAX, i64(imm));
    } else {
      movabs(RCX, imm);
      op_rr(0, true, {0x01}, RCX, RAX);  // add rax, rcx
    }
  }

  /// Bounds check: ja to an out-of-line stub when rax + len > r15. rax is
  /// the u64 effective address (< 2^33, so rax + len cannot wrap). The stub
  /// calls h_trap_oob(rax, len, r15) for a byte-identical check() message.
  void bounds_check(u32 len) {
    op_rm(0, true, {0x8D}, RCX, RAX, i64(len));  // lea rcx, [rax + len]
    op_rr(0, true, {0x39}, R15, RCX);            // cmp rcx, r15
    bs({0x0F, 0x87});                            // ja stub
    trap_sites.push_back({u32(code.size()), len});
    i32le(0);
  }

  void checked_addr(u32 base_slot, u64 imm, u32 len) {
    lin_addr(base_slot, imm);
    bounds_check(len);
  }

  /// Natural-alignment check for atomics: jnz to an out-of-line stub when
  /// the effective address in rax is not a multiple of len. The stub calls
  /// h_trap_unaligned_atomic(rax, len) for a byte-identical check_atomic
  /// message.
  void align_check(u32 len) {
    if (len == 1) return;
    bs({0xA8, u8(len - 1)});  // test al, len-1
    bs({0x0F, 0x85});         // jnz stub
    ua_sites.push_back({u32(code.size()), len});
    i32le(0);
  }

  // --- constant pool ---------------------------------------------------------

  u32 pool_const(const V128& v) {
    for (u32 i = u32(f.v128_pool.size()); i < pool.size(); ++i)
      if (std::memcmp(pool[i].bytes, v.bytes, 16) == 0) return i;
    pool.push_back(v);
    return u32(pool.size() - 1);
  }
  u32 splat_mask32(u32 v) {
    V128 m;
    for (int i = 0; i < 4; ++i) std::memcpy(m.bytes + i * 4, &v, 4);
    return pool_const(m);
  }
  u32 splat_mask64(u64 v) {
    V128 m;
    for (int i = 0; i < 2; ++i) std::memcpy(m.bytes + i * 8, &v, 8);
    return pool_const(m);
  }

  void load_pool(u8 x, u32 index) {  // movups x, [rip + pool[index]]
    u32 at = op_rip(0, {0x0F, 0x10}, x);
    pool_fixes.push_back({at, index});
  }
  void rip_pool_op(u8 pfx, u8 opc, u8 x, u32 index) {  // op x, [rip + pool]
    u32 at = op_rip(pfx, {0x0F, opc}, x);
    pool_fixes.push_back({at, index});
  }

  // --- prologue / epilogue -----------------------------------------------------

  void prologue() {
    bs({0x55});                    // push rbp
    bs({0x48, 0x89, 0xE5});        // mov rbp, rsp
    bs({0x53});                    // push rbx
    bs({0x41, 0x54});              // push r12
    bs({0x41, 0x55});              // push r13
    bs({0x41, 0x56});              // push r14
    bs({0x41, 0x57});              // push r15
    bs({0x48, 0x83, 0xEC, 0x08});  // sub rsp, 8 (16-align call sites)
    op_rm(0, true, {0x8B}, R14, RDI, 0);   // inst
    op_rm(0, true, {0x8B}, RBX, RDI, 8);   // regs
    op_rm(0, true, {0x8B}, R12, RDI, 16);  // globals
    op_rm(0, true, {0x8B}, R13, RDI, 24);  // mem base
    op_rm(0, true, {0x8B}, R15, RDI, 32);  // mem size
  }

  void epilogue() {
    bs({0x48, 0x83, 0xC4, 0x08});  // add rsp, 8
    bs({0x41, 0x5F});              // pop r15
    bs({0x41, 0x5E});              // pop r14
    bs({0x41, 0x5D});              // pop r13
    bs({0x41, 0x5C});              // pop r12
    bs({0x5B});                    // pop rbx
    bs({0x5D});                    // pop rbp
    bs({0xC3});                    // ret
  }

  // --- whole-function drivers --------------------------------------------------

  void find_loops();
  void probe_loop(Loop& lp);
  void emit_body();
  void finish();

  bool emit_instr(const RInstr& in);
  bool emit_simd_or_fused(const RInstr& in);
  bool emit_atomic(const RInstr& in);
};

bool Emitter::emit_instr(const RInstr& in) {
  if (rop_is_atomic(in.op)) return emit_atomic(in);
  const u32 a = in.a, b = in.b, c = in.c;
  const u64 imm = in.imm;
  auto bytes = [](bool w) -> u8 { return w ? 8 : 4; };

  // setcc al; movzx eax, al; r[a] = eax — the tail of every scalar compare.
  auto setcc_def = [&](u8 cc) {
    bs({0x0F, u8(0x90 | cc), 0xC0});  // setcc al
    bs({0x0F, 0xB6, 0xC0});           // movzx eax, al
    def_g(a, RAX);
  };
  // Integer compare: cmp r[b], r[c] then setcc.
  auto int_cmp = [&](bool w, u8 cc) {
    const u8 rb = gpr(b, RAX, w);
    op_g(0, w, {0x3B}, rb, c);
    setcc_def(cc);
  };
  // Float eq/ne need the parity flag folded in (unordered => PF=1).
  auto f_eq_ne = [&](bool f64v, bool ne) {
    const u8 xb = xmm(b, X0, bytes(f64v));
    op_x(f64v ? 0x66 : 0, false, {0x0F, 0x2E}, xb, c);  // ucomis
    if (ne) {
      bs({0x0F, 0x9A, 0xC0});  // setp al
      bs({0x0F, 0x95, 0xC1});  // setne cl
      bs({0x08, 0xC8});        // or al, cl
    } else {
      bs({0x0F, 0x9B, 0xC0});  // setnp al
      bs({0x0F, 0x94, 0xC1});  // sete cl
      bs({0x20, 0xC8});        // and al, cl
    }
    bs({0x0F, 0xB6, 0xC0});  // movzx eax, al
    def_g(a, RAX);
  };
  // Float ordered compare: ucomis x, y; seta/setae (unordered => false).
  auto f_ord = [&](bool f64v, u32 xs, u32 ys, u8 cc) {
    const u8 x = xmm(xs, X0, bytes(f64v));
    op_x(f64v ? 0x66 : 0, false, {0x0F, 0x2E}, x, ys);
    setcc_def(cc);
  };
  // Integer binop computed in a's register: mov d, b; op d, c.
  auto int_bin = [&](bool w, std::initializer_list<u8> ops) {
    const u8 d = dst_g(a, b, held(c), RAX);
    mov_g(d, b, w);
    op_g(0, w, ops, d, c);
    commit_g(a, d);
  };
  // Variable shift/rotate through cl (hardware masking == wasm masking).
  auto int_shift = [&](bool w, u8 ext) {
    load32(RCX, c);
    const u8 d = dst_g(a, b, 0, RAX);
    mov_g(d, b, w);
    rex_if(w, 0, d);
    b1(0xD3);
    b1(u8(0xC0 | (ext << 3) | (d & 7)));
    commit_g(a, d);
  };
  // Two-int-arg helper call (div/rem): args from r[b], r[c].
  auto bin_helper = [&](bool w, JitHelperId id) {
    spill_all();
    mov_g(RDI, b, w);
    mov_g(RSI, c, w);
    call_helper(id);
    def_g(a, RAX);
  };
  // Bit-count: hardware op when the feature is present, else helper.
  auto bit_count = [&](bool w, u8 opc, u32 feat, JitHelperId id) {
    if (feats & feat) {
      const u8 d = dst_g(a, b, 0, RAX);
      op_g(0xF3, w, {0x0F, opc}, d, b);
      commit_g(a, d);
    } else {
      spill_all();
      mov_g(RDI, b, w);
      call_helper(id);
      def_g(a, RAX);
    }
  };
  // f32/f64 binop computed in a's register (pfx F3 = ss, F2 = sd).
  auto f_bin = [&](bool f64v, u8 opc) {
    const u8 d = dst_x(a, b, held(c), X0);
    mov_x(d, b, bytes(f64v));
    op_x(f64v ? 0xF2 : 0xF3, false, {0x0F, opc}, d, c);
    commit_x(a, d);
  };
  // f32/f64 min/max via an (xmm0, xmm1) -> xmm0 helper.
  auto f_bin_helper = [&](bool f64v, JitHelperId id) {
    spill_all();
    mov_x(X0, b, bytes(f64v));
    mov_x(X1, c, bytes(f64v));
    call_helper(id);
    def_x(a, X0);
  };
  // roundss/roundsd when SSE4.1 is present, else helper.
  auto f_round = [&](bool f64v, u8 mode, JitHelperId id) {
    if (feats & kJitFeatSse41) {
      const u8 d = dst_x(a, b, 0, X0);
      op_x(0x66, false, {0x0F, 0x3A, f64v ? u8(0x0B) : u8(0x0A)}, d, b);
      b1(mode);
      commit_x(a, d);
    } else {
      spill_all();
      mov_x(X0, b, bytes(f64v));
      call_helper(id);
      def_x(a, X0);
    }
  };
  // f32/f64 -> int truncation helper: arg xmm0, result (r)ax.
  auto trunc_helper = [&](bool src64, JitHelperId id) {
    spill_all();
    mov_x(X0, b, bytes(src64));
    call_helper(id);
    def_g(a, RAX);
  };
  // Scalar abs/neg: andps/xorps with a sign mask from the pool.
  auto f_sign = [&](bool f64v, u8 opc, u32 pool_idx) {
    const u8 d = dst_x(a, b, 0, X0);
    mov_x(d, b, bytes(f64v));
    rip_pool_op(0, opc, d, pool_idx);
    commit_x(a, d);
  };
  // Unary op whose r/m operand is r[b] and whose result lands in a's
  // register (sqrt, demote/promote: XMM operand; int->float: GPR operand).
  auto x_unop = [&](u8 pfx, bool w, std::initializer_list<u8> ops,
                    bool gpr_src) {
    const u8 d = dst_x(a, gpr_src ? kNoSlot : b, 0, X0);
    if (gpr_src)
      op_g(pfx, w, ops, d, b);
    else
      op_x(pfx, w, ops, d, b);
    commit_x(a, d);
  };
  auto g_unop = [&](bool w, std::initializer_list<u8> ops,
                    bool byte_rm = false) {
    const u8 d = dst_g(a, b, 0, RAX);
    op_g(0, w, ops, d, b, byte_rm);
    commit_g(a, d);
  };
  // Checked scalar load from [r13+rax] into a's register.
  auto load_mem = [&](bool w, std::initializer_list<u8> ops, u32 len) {
    checked_addr(b, imm, len);
    const u8 d = dst_g(a, a, 0, RCX);
    op_mem(0, w, ops, d);
    commit_g(a, d);
  };
  auto load_mem_x = [&](u8 pfx, std::initializer_list<u8> ops, u32 len) {
    checked_addr(b, imm, len);
    const u8 d = dst_x(a, a, 0, X0);
    op_mem(pfx, false, ops, d);
    return d;  // caller finishes (splats) and commits
  };
  // Checked scalar store of r[b]'s low bytes to [r13+rax].
  auto store_mem = [&](u8 pfx, bool w, std::initializer_list<u8> ops,
                       u32 len, bool load_w) {
    checked_addr(a, imm, len);
    op_mem(pfx, w, ops, gpr(b, RCX, load_w));
  };
  switch (in.op) {
    case ROp::kNop:
      return true;
    case ROp::kMov: {
      if (a == b) return true;
      if (probe) {
        probe->copies.push_back({a, b});
        return true;
      }
      const u8 lb = loc_of[b];
      if (lb != kNoLoc) {  // register copy within b's class
        if (is_xmm(lb)) {
          const u8 d = dst_x(a, b, 0, X0);
          mov_x(d, b, 16);
          commit_x(a, d);
        } else {
          const u8 d = dst_g(a, b, 0, RAX);
          mov_g(d, b, true);
          commit_g(a, d);
        }
        return true;
      }
      const u8 la = loc_of[a];
      if (la != kNoLoc && cr[la].pinned) {
        if (is_xmm(la))
          op_rm(0, false, {0x0F, 0x28}, la - kX, RBX, slot(b));
        else
          op_rm(0, true, {0x8B}, la, RBX, slot(b));
        cr[la].dirty = true;
        return true;
      }
      if (la != kNoLoc) unmap(la);
      frame_copy(a, b);
      return true;
    }
    case ROp::kI32ReinterpretF32:
    case ROp::kI64ReinterpretF64: {
      const bool w = in.op == ROp::kI64ReinterpretF64;
      const u8 x = xmm(b, X0, bytes(w));
      const u8 d = dst_g(a, kNoSlot, 0, RAX);
      op_rr(0x66, w, {0x0F, 0x7E}, x, d);  // movd/movq d, x
      commit_g(a, d);
      return true;
    }
    case ROp::kF32ReinterpretI32:
    case ROp::kF64ReinterpretI64: {
      const bool w = in.op == ROp::kF64ReinterpretI64;
      const u8 r = gpr(b, RAX, w);
      const u8 d = dst_x(a, kNoSlot, 0, X0);
      op_rr(0x66, w, {0x0F, 0x6E}, d, r);  // movd/movq d, r
      commit_x(a, d);
      return true;
    }
    case ROp::kConst: {
      // 8 bytes, like the handler.
      const u8 d = dst_g(a, a, 0, RAX);
      if (imm == u64(i64(i32(u32(imm))))) {
        op_rr(0, true, {0xC7}, 0, d);  // mov r64, simm32
        i32le(u32(imm));
      } else {
        movabs(d, imm);
      }
      commit_g(a, d);
      return true;
    }
    case ROp::kConstV128: {
      const u8 d = dst_x(a, a, 0, X0);
      load_pool(d, u32(imm));
      commit_x(a, d);
      return true;
    }
    case ROp::kSelect: {
      // if (r[c].i32 == 0) A = B, as a 16-byte frame copy.
      frame_in(a);
      frame_in(b);
      op_g(0, false, {0x83}, 7, c);  // cmp c, 0
      b1(0);
      u32 skip = jcc8(CC_NE);
      frame_copy(a, b);
      label8(skip);
      frame_wrote(a);
      return true;
    }
    case ROp::kGlobalGet: {
      const u8 d = dst_x(a, a, 0, X0);
      op_rm(0, false, {0x0F, 0x28}, d, R12, i64(imm) * 16);  // movaps
      commit_x(a, d);
      return true;
    }
    case ROp::kGlobalSet:
      op_rm(0, false, {0x0F, 0x29}, xmm(a, X0, 16), R12, i64(imm) * 16);
      return true;

    case ROp::kBr:
      close_block();
      branch(kJmp, u32(imm));
      return true;
    case ROp::kBrIf:
    case ROp::kBrIfNot:
      close_block();
      op_g(0, false, {0x83}, 7, a);  // cmp a, 0
      b1(0);
      branch(in.op == ROp::kBrIf ? CC_NE : CC_E, u32(imm));
      return true;
    case ROp::kBrTable: {
      const auto& targets = f.br_pool[imm];
      load32(RAX, a);
      close_block();
      b1(0xB9);  // mov ecx, size-1
      i32le(u32(targets.size() - 1));
      op_rr(0, false, {0x39}, RCX, RAX);        // cmp eax, ecx
      op_rr(0, false, {0x0F, 0x43}, RAX, RCX);  // cmovae eax, ecx (clamp)
      {                                          // lea rdx, [rip + table]
        rex_if(true, RDX, 0);
        b1(0x8D);
        b1(u8(0x00 | ((RDX & 7) << 3) | 5));
        table_fixes.push_back({u32(code.size()), u32(imm)});
        i32le(0);
      }
      // movsxd rax, dword [rdx + rax*4]
      bs({0x48, 0x63, 0x04, 0x82});
      bs({0x48, 0x01, 0xD0});  // add rax, rdx
      bs({0xFF, 0xE0});        // jmp rax
      return true;
    }
    case ROp::kReturn: {
      // Only the result slot outlives the frame.
      const u8 l = loc_of[a];
      if (l != kNoLoc) {
        if (a != 0 || cr[l].dirty) store_loc(0, l);
      } else {
        frame_copy(0, a);
      }
      epilogue();
      block_closed = true;
      return true;
    }
    case ROp::kReturnVoid:
      epilogue();
      block_closed = true;
      return true;
    case ROp::kCall:
      spill_all();
      op_rr(0, true, {0x89}, R14, RDI);  // mov rdi, r14
      b1(0xBE);                          // mov esi, fidx
      i32le(u32(imm));
      op_rm(0, true, {0x8D}, RDX, RBX, slot(a));  // lea rdx, [argbase]
      call_helper(JitHelperId::kCall);
      reload_mem();
      return true;
    case ROp::kCallIndirect:
      spill_all();
      op_rr(0, true, {0x89}, R14, RDI);
      b1(0xBE);  // mov esi, type_imm
      i32le(u32(imm));
      op_rm(0, true, {0x8D}, RDX, RBX, slot(a));
      b1(0xB9);  // mov ecx, argc
      i32le(b);
      call_helper(JitHelperId::kCallIndirect);
      reload_mem();
      return true;
    case ROp::kUnreachable:
      call_helper(JitHelperId::kTrapUnreachable);  // noreturn: no flush
      block_closed = true;
      return true;

    case ROp::kMemorySize:
      op_rr(0, true, {0x89}, R15, RAX);  // mov rax, r15
      shift_imm(true, 5, RAX, 16);       // shr rax, 16 (bytes -> pages)
      def_g(a, RAX);
      return true;
    case ROp::kMemoryGrow:
      spill_all();
      op_rr(0, true, {0x89}, R14, RDI);
      op_rm(0, true, {0x8D}, RSI, RBX, slot(a));  // lea rsi, [slot a]
      call_helper(JitHelperId::kMemoryGrow);
      reload_mem();
      return true;
    case ROp::kMemoryCopy:
    case ROp::kMemoryFill:
      spill_all();
      op_rr(0, true, {0x89}, R14, RDI);
      load32(RSI, a);
      load32(RDX, b);
      load32(RCX, c);
      call_helper(in.op == ROp::kMemoryCopy ? JitHelperId::kMemoryCopy
                                            : JitHelperId::kMemoryFill);
      return true;

    // --- checked loads ---
    case ROp::kI32Load:
      load_mem(false, {0x8B}, 4);
      return true;
    case ROp::kI64Load:
      load_mem(true, {0x8B}, 8);
      return true;
    case ROp::kF32Load:
      commit_x(a, load_mem_x(0xF3, {0x0F, 0x10}, 4));
      return true;
    case ROp::kF64Load:
      commit_x(a, load_mem_x(0xF2, {0x0F, 0x10}, 8));
      return true;
    case ROp::kI32Load8S:
      load_mem(false, {0x0F, 0xBE}, 1);
      return true;
    case ROp::kI32Load8U:
      load_mem(false, {0x0F, 0xB6}, 1);
      return true;
    case ROp::kI32Load16S:
      load_mem(false, {0x0F, 0xBF}, 2);
      return true;
    case ROp::kI32Load16U:
      load_mem(false, {0x0F, 0xB7}, 2);
      return true;
    case ROp::kI64Load8S:
      load_mem(true, {0x0F, 0xBE}, 1);
      return true;
    case ROp::kI64Load8U:
      load_mem(false, {0x0F, 0xB6}, 1);  // 32-bit movzx zero-extends
      return true;
    case ROp::kI64Load16S:
      load_mem(true, {0x0F, 0xBF}, 2);
      return true;
    case ROp::kI64Load16U:
      load_mem(false, {0x0F, 0xB7}, 2);
      return true;
    case ROp::kI64Load32S:
      load_mem(true, {0x63}, 4);  // movsxd
      return true;
    case ROp::kI64Load32U:
      load_mem(false, {0x8B}, 4);
      return true;
    case ROp::kV128Load:
      commit_x(a, load_mem_x(0, {0x0F, 0x10}, 16));  // movups
      return true;
    case ROp::kV128Load32Splat: {
      const u8 d = load_mem_x(0x66, {0x0F, 0x6E}, 4);  // movd
      op_rr(0x66, false, {0x0F, 0x70}, d, d);               // pshufd d, d, 0
      b1(0);
      commit_x(a, d);
      return true;
    }
    case ROp::kV128Load64Splat: {
      const u8 d = load_mem_x(0xF3, {0x0F, 0x7E}, 8);  // movq
      op_rr(0x66, false, {0x0F, 0x6C}, d, d);               // punpcklqdq
      commit_x(a, d);
      return true;
    }

    // --- checked stores ---
    case ROp::kI32Store:
      store_mem(0, false, {0x89}, 4, false);
      return true;
    case ROp::kI64Store:
      store_mem(0, true, {0x89}, 8, true);
      return true;
    case ROp::kF32Store:
      checked_addr(a, imm, 4);
      op_mem(0xF3, false, {0x0F, 0x11}, xmm(b, X0, 4));
      return true;
    case ROp::kF64Store:
      checked_addr(a, imm, 8);
      op_mem(0xF2, false, {0x0F, 0x11}, xmm(b, X0, 8));
      return true;
    case ROp::kI32Store8:
    case ROp::kI64Store8:
      store_mem(0, false, {0x88}, 1, false);  // mov [mem], r8
      return true;
    case ROp::kI32Store16:
    case ROp::kI64Store16:
      store_mem(0x66, false, {0x89}, 2, false);
      return true;
    case ROp::kI64Store32:
      store_mem(0, false, {0x89}, 4, false);
      return true;
    case ROp::kV128Store:
      checked_addr(a, imm, 16);
      op_mem(0, false, {0x0F, 0x11}, xmm(b, X0, 16));  // movups
      return true;

    // --- integer compares ---
    case ROp::kI32Eqz:
    case ROp::kI64Eqz:
      op_g(0, in.op == ROp::kI64Eqz, {0x83}, 7, b);  // cmp b, 0
      b1(0);
      setcc_def(CC_E);
      return true;
    case ROp::kI32Eq: int_cmp(false, CC_E); return true;
    case ROp::kI32Ne: int_cmp(false, CC_NE); return true;
    case ROp::kI32LtS: int_cmp(false, CC_L); return true;
    case ROp::kI32LtU: int_cmp(false, CC_B); return true;
    case ROp::kI32GtS: int_cmp(false, CC_G); return true;
    case ROp::kI32GtU: int_cmp(false, CC_A); return true;
    case ROp::kI32LeS: int_cmp(false, CC_LE); return true;
    case ROp::kI32LeU: int_cmp(false, CC_BE); return true;
    case ROp::kI32GeS: int_cmp(false, CC_GE); return true;
    case ROp::kI32GeU: int_cmp(false, CC_AE); return true;
    case ROp::kI64Eq: int_cmp(true, CC_E); return true;
    case ROp::kI64Ne: int_cmp(true, CC_NE); return true;
    case ROp::kI64LtS: int_cmp(true, CC_L); return true;
    case ROp::kI64LtU: int_cmp(true, CC_B); return true;
    case ROp::kI64GtS: int_cmp(true, CC_G); return true;
    case ROp::kI64GtU: int_cmp(true, CC_A); return true;
    case ROp::kI64LeS: int_cmp(true, CC_LE); return true;
    case ROp::kI64LeU: int_cmp(true, CC_BE); return true;
    case ROp::kI64GeS: int_cmp(true, CC_GE); return true;
    case ROp::kI64GeU: int_cmp(true, CC_AE); return true;

    // --- float compares (x < y computed as y > x so unordered => false) ---
    case ROp::kF32Eq: f_eq_ne(false, false); return true;
    case ROp::kF32Ne: f_eq_ne(false, true); return true;
    case ROp::kF32Lt: f_ord(false, c, b, CC_A); return true;
    case ROp::kF32Gt: f_ord(false, b, c, CC_A); return true;
    case ROp::kF32Le: f_ord(false, c, b, CC_AE); return true;
    case ROp::kF32Ge: f_ord(false, b, c, CC_AE); return true;
    case ROp::kF64Eq: f_eq_ne(true, false); return true;
    case ROp::kF64Ne: f_eq_ne(true, true); return true;
    case ROp::kF64Lt: f_ord(true, c, b, CC_A); return true;
    case ROp::kF64Gt: f_ord(true, b, c, CC_A); return true;
    case ROp::kF64Le: f_ord(true, c, b, CC_AE); return true;
    case ROp::kF64Ge: f_ord(true, b, c, CC_AE); return true;

    // --- integer arithmetic ---
    case ROp::kI32Clz:
      bit_count(false, 0xBD, kJitFeatLzcnt, JitHelperId::kI32Clz);
      return true;
    case ROp::kI32Ctz:
      bit_count(false, 0xBC, kJitFeatBmi1, JitHelperId::kI32Ctz);
      return true;
    case ROp::kI32Popcnt:
      bit_count(false, 0xB8, kJitFeatPopcnt, JitHelperId::kI32Popcnt);
      return true;
    case ROp::kI64Clz:
      bit_count(true, 0xBD, kJitFeatLzcnt, JitHelperId::kI64Clz);
      return true;
    case ROp::kI64Ctz:
      bit_count(true, 0xBC, kJitFeatBmi1, JitHelperId::kI64Ctz);
      return true;
    case ROp::kI64Popcnt:
      bit_count(true, 0xB8, kJitFeatPopcnt, JitHelperId::kI64Popcnt);
      return true;
    case ROp::kI32Add: int_bin(false, {0x03}); return true;
    case ROp::kI32Sub: int_bin(false, {0x2B}); return true;
    case ROp::kI32Mul: int_bin(false, {0x0F, 0xAF}); return true;
    case ROp::kI32And: int_bin(false, {0x23}); return true;
    case ROp::kI32Or: int_bin(false, {0x0B}); return true;
    case ROp::kI32Xor: int_bin(false, {0x33}); return true;
    case ROp::kI64Add: int_bin(true, {0x03}); return true;
    case ROp::kI64Sub: int_bin(true, {0x2B}); return true;
    case ROp::kI64Mul: int_bin(true, {0x0F, 0xAF}); return true;
    case ROp::kI64And: int_bin(true, {0x23}); return true;
    case ROp::kI64Or: int_bin(true, {0x0B}); return true;
    case ROp::kI64Xor: int_bin(true, {0x33}); return true;
    case ROp::kI32DivS: bin_helper(false, JitHelperId::kI32DivS); return true;
    case ROp::kI32DivU: bin_helper(false, JitHelperId::kI32DivU); return true;
    case ROp::kI32RemS: bin_helper(false, JitHelperId::kI32RemS); return true;
    case ROp::kI32RemU: bin_helper(false, JitHelperId::kI32RemU); return true;
    case ROp::kI64DivS: bin_helper(true, JitHelperId::kI64DivS); return true;
    case ROp::kI64DivU: bin_helper(true, JitHelperId::kI64DivU); return true;
    case ROp::kI64RemS: bin_helper(true, JitHelperId::kI64RemS); return true;
    case ROp::kI64RemU: bin_helper(true, JitHelperId::kI64RemU); return true;
    case ROp::kI32Shl: int_shift(false, 4); return true;
    case ROp::kI32ShrS: int_shift(false, 7); return true;
    case ROp::kI32ShrU: int_shift(false, 5); return true;
    case ROp::kI32Rotl: int_shift(false, 0); return true;
    case ROp::kI32Rotr: int_shift(false, 1); return true;
    case ROp::kI64Shl: int_shift(true, 4); return true;
    case ROp::kI64ShrS: int_shift(true, 7); return true;
    case ROp::kI64ShrU: int_shift(true, 5); return true;
    case ROp::kI64Rotl: int_shift(true, 0); return true;
    case ROp::kI64Rotr: int_shift(true, 1); return true;

    // --- float arithmetic ---
    case ROp::kF32Abs:
      f_sign(false, 0x54, splat_mask32(0x7FFFFFFFu));  // andps
      return true;
    case ROp::kF32Neg:
      f_sign(false, 0x57, splat_mask32(0x80000000u));  // xorps
      return true;
    case ROp::kF64Abs:
      f_sign(true, 0x54, splat_mask64(0x7FFFFFFFFFFFFFFFull));
      return true;
    case ROp::kF64Neg:
      f_sign(true, 0x57, splat_mask64(0x8000000000000000ull));
      return true;
    case ROp::kF32Copysign:
      load32(RAX, b);
      b1(0x25);  // and eax, 0x7FFFFFFF
      i32le(0x7FFFFFFFu);
      load32(RCX, c);
      bs({0x81, 0xE1});  // and ecx, 0x80000000
      i32le(0x80000000u);
      bs({0x09, 0xC8});  // or eax, ecx
      def_g(a, RAX);
      return true;
    case ROp::kF64Copysign:
      load64(RAX, b);
      bs({0x48, 0x0F, 0xBA, 0xF0, 63});  // btr rax, 63
      load64(RCX, c);
      shift_imm(true, 5, RCX, 63);  // shr rcx, 63
      shift_imm(true, 4, RCX, 63);  // shl rcx, 63
      op_rr(0, true, {0x09}, RCX, RAX);  // or rax, rcx
      def_g(a, RAX);
      return true;
    case ROp::kF32Sqrt: x_unop(0xF3, false, {0x0F, 0x51}, false); return true;
    case ROp::kF64Sqrt: x_unop(0xF2, false, {0x0F, 0x51}, false); return true;
    case ROp::kF32Ceil: f_round(false, 0x0A, JitHelperId::kF32Ceil); return true;
    case ROp::kF32Floor: f_round(false, 0x09, JitHelperId::kF32Floor); return true;
    case ROp::kF32Trunc: f_round(false, 0x0B, JitHelperId::kF32Trunc); return true;
    case ROp::kF32Nearest: f_round(false, 0x08, JitHelperId::kF32Nearest); return true;
    case ROp::kF64Ceil: f_round(true, 0x0A, JitHelperId::kF64Ceil); return true;
    case ROp::kF64Floor: f_round(true, 0x09, JitHelperId::kF64Floor); return true;
    case ROp::kF64Trunc: f_round(true, 0x0B, JitHelperId::kF64Trunc); return true;
    case ROp::kF64Nearest: f_round(true, 0x08, JitHelperId::kF64Nearest); return true;
    case ROp::kF32Add: f_bin(false, 0x58); return true;
    case ROp::kF32Sub: f_bin(false, 0x5C); return true;
    case ROp::kF32Mul: f_bin(false, 0x59); return true;
    case ROp::kF32Div: f_bin(false, 0x5E); return true;
    case ROp::kF64Add: f_bin(true, 0x58); return true;
    case ROp::kF64Sub: f_bin(true, 0x5C); return true;
    case ROp::kF64Mul: f_bin(true, 0x59); return true;
    case ROp::kF64Div: f_bin(true, 0x5E); return true;
    case ROp::kF32Min: f_bin_helper(false, JitHelperId::kF32Min); return true;
    case ROp::kF32Max: f_bin_helper(false, JitHelperId::kF32Max); return true;
    case ROp::kF64Min: f_bin_helper(true, JitHelperId::kF64Min); return true;
    case ROp::kF64Max: f_bin_helper(true, JitHelperId::kF64Max); return true;

    // --- conversions ---
    case ROp::kI32WrapI64: {
      const u8 d = dst_g(a, b, 0, RAX);
      load32(d, b);
      commit_g(a, d);
      return true;
    }
    case ROp::kI32TruncF32S:
      trunc_helper(false, JitHelperId::kI32TruncF32S);
      return true;
    case ROp::kI32TruncF32U:
      trunc_helper(false, JitHelperId::kI32TruncF32U);
      return true;
    case ROp::kI32TruncF64S:
      trunc_helper(true, JitHelperId::kI32TruncF64S);
      return true;
    case ROp::kI32TruncF64U:
      trunc_helper(true, JitHelperId::kI32TruncF64U);
      return true;
    case ROp::kI64TruncF32S:
      trunc_helper(false, JitHelperId::kI64TruncF32S);
      return true;
    case ROp::kI64TruncF32U:
      trunc_helper(false, JitHelperId::kI64TruncF32U);
      return true;
    case ROp::kI64TruncF64S:
      trunc_helper(true, JitHelperId::kI64TruncF64S);
      return true;
    case ROp::kI64TruncF64U:
      trunc_helper(true, JitHelperId::kI64TruncF64U);
      return true;
    case ROp::kI64ExtendI32S: g_unop(true, {0x63}); return true;  // movsxd
    case ROp::kI64ExtendI32U: {
      // Always a 32-bit mov: a cached i32 may carry garbage above bit 31.
      const u8 r = gpr(b, RAX, false);
      const u8 d = dst_g(a, b, 0, RAX);
      op_rr(0, false, {0x8B}, d, r);
      commit_g(a, d);
      return true;
    }
    case ROp::kF32ConvertI32S: x_unop(0xF3, false, {0x0F, 0x2A}, true); return true;
    case ROp::kF32ConvertI64S: x_unop(0xF3, true, {0x0F, 0x2A}, true); return true;
    case ROp::kF64ConvertI32S: x_unop(0xF2, false, {0x0F, 0x2A}, true); return true;
    case ROp::kF64ConvertI64S: x_unop(0xF2, true, {0x0F, 0x2A}, true); return true;
    case ROp::kF32ConvertI32U:
    case ROp::kF64ConvertI32U: {
      const bool f64v = in.op == ROp::kF64ConvertI32U;
      load32(RAX, b);  // zero-extended: convert as a non-negative i64
      const u8 d = dst_x(a, kNoSlot, 0, X0);
      op_rr(f64v ? 0xF2 : 0xF3, true, {0x0F, 0x2A}, d, RAX);
      commit_x(a, d);
      return true;
    }
    case ROp::kF32ConvertI64U:
    case ROp::kF64ConvertI64U: {
      const bool f64v = in.op == ROp::kF64ConvertI64U;
      spill_all();
      load64(RDI, b);
      call_helper(f64v ? JitHelperId::kF64ConvertI64U
                       : JitHelperId::kF32ConvertI64U);
      def_x(a, X0);
      return true;
    }
    case ROp::kF32DemoteF64: x_unop(0xF2, false, {0x0F, 0x5A}, false); return true;
    case ROp::kF64PromoteF32: x_unop(0xF3, false, {0x0F, 0x5A}, false); return true;
    case ROp::kI32Extend8S: g_unop(false, {0x0F, 0xBE}, true); return true;
    case ROp::kI32Extend16S: g_unop(false, {0x0F, 0xBF}); return true;
    case ROp::kI64Extend8S: g_unop(true, {0x0F, 0xBE}, true); return true;
    case ROp::kI64Extend16S: g_unop(true, {0x0F, 0xBF}); return true;
    case ROp::kI64Extend32S: g_unop(true, {0x63}); return true;

    default:
      return emit_simd_or_fused(in);
  }
}

bool Emitter::emit_simd_or_fused(const RInstr& in) {
  const u32 a = in.a, b = in.b, c = in.c, d = in.d;
  const u64 imm = in.imm;

  auto setcc_def = [&](u8 cc) {
    bs({0x0F, u8(0x90 | cc), 0xC0});
    bs({0x0F, 0xB6, 0xC0});
    def_g(a, RAX);
  };
  // r[a] = x op y computed in a's register — the standard vector binop.
  auto v_op = [&](u8 pfx, std::initializer_list<u8> ops, u32 x, u32 y) {
    const u8 r = dst_x(a, x, held(y), X0);
    loadaps(r, x);
    op_x(pfx, false, ops, r, y);
    commit_x(a, r);
  };
  auto v_bin = [&](u8 pfx, std::initializer_list<u8> ops) {
    v_op(pfx, ops, b, c);
  };
  // Operand-swapped variant (pcmpgt-as-lt, pmin/pmax NaN order, pandn).
  auto v_bin_rev = [&](u8 pfx, std::initializer_list<u8> ops) {
    v_op(pfx, ops, c, b);
  };
  // pcmpeq + full invert for the Ne forms.
  auto v_ne = [&](u8 eq_opc) {
    const u8 r = dst_x(a, b, held(c), X0);
    loadaps(r, b);
    op_x(0x66, false, {0x0F, eq_opc}, r, c);
    bs({0x66, 0x0F, 0x76, 0xC9});                // pcmpeqd x1, x1 (all ones)
    op_rr(0x66, false, {0x0F, 0xEF}, r, X1);     // pxor r, x1
    commit_x(a, r);
  };
  // all_true: no lane may be zero <=> pcmpeq-with-zero mask is empty.
  auto v_all_true = [&](std::initializer_list<u8> cmp_ops) {
    op_rr(0x66, false, {0x0F, 0xEF}, X0, X0);  // pxor x0, x0
    op_x(0x66, false, cmp_ops, X0, b);
    op_rr(0x66, false, {0x0F, 0xD7}, RAX, X0);  // pmovmskb eax, x0
    bs({0x85, 0xC0});                           // test eax, eax
    setcc_def(CC_E);
  };
  auto v_neg = [&](u8 psub_opc) {  // 0 - r[b], lanewise
    const u8 r = dst_x(a, kNoSlot, held(b), X0);
    op_rr(0x66, false, {0x0F, 0xEF}, r, r);
    op_x(0x66, false, {0x0F, psub_opc}, r, b);
    commit_x(a, r);
  };
  // Lane shift by r[c] & mask through xmm1 (hardware uses the full 64-bit
  // count, so the mod-lane-width mask must be applied explicitly).
  auto v_shift = [&](u8 opc, u8 mask) {
    load32(RCX, c);
    alu_imm(false, 4, RCX, mask);              // and ecx, mask
    op_rr(0x66, false, {0x0F, 0x6E}, X1, RCX);  // movd x1, ecx
    const u8 r = dst_x(a, b, 0, X0);
    loadaps(r, b);
    op_rr(0x66, false, {0x0F, opc}, r, X1);
    commit_x(a, r);
  };
  // cmpps/cmppd x, y, pred (operand order picked so unordered => false
  // matches the C++ comparison in every case).
  auto v_cmpf = [&](bool pd, u32 xs, u32 ys, u8 pred) {
    const u8 r = dst_x(a, xs, held(ys), X0);
    loadaps(r, xs);
    op_x(pd ? 0x66 : 0, false, {0x0F, 0xC2}, r, ys);
    b1(pred);
    commit_x(a, r);
  };
  // andps/xorps with a rip-relative sign/abs mask from the pool.
  auto v_mask = [&](u8 opc, u32 pool_idx) {
    const u8 r = dst_x(a, b, 0, X0);
    loadaps(r, b);
    rip_pool_op(0, opc, r, pool_idx);
    commit_x(a, r);
  };
  // Unary vector op r = op(r[b]) with the operand as r/m.
  auto v_unop = [&](u8 pfx, std::initializer_list<u8> ops) {
    const u8 r = dst_x(a, b, 0, X0);
    op_x(pfx, false, ops, r, b);
    commit_x(a, r);
  };
  // Value load/store at [r13+rax] for the indexed/raw memory families.
  enum class LK { i32, i64, f32, f64, v128 };
  auto lk_len = [](LK k) -> u32 {
    switch (k) {
      case LK::i32: case LK::f32: return 4;
      case LK::i64: case LK::f64: return 8;
      default: return 16;
    }
  };
  auto load_val = [&](LK k) {
    if (k == LK::i32 || k == LK::i64) {
      const u8 r = dst_g(a, a, 0, RCX);
      op_mem(0, k == LK::i64, {0x8B}, r);
      commit_g(a, r);
      return;
    }
    const u8 r = dst_x(a, a, 0, X0);
    if (k == LK::v128)
      op_mem(0, false, {0x0F, 0x10}, r);  // movups
    else
      op_mem(k == LK::f64 ? 0xF2 : 0xF3, false, {0x0F, 0x10}, r);
    commit_x(a, r);
  };
  auto store_val = [&](LK k) {  // value comes from r[b]
    switch (k) {
      case LK::i32:
        op_mem(0, false, {0x89}, gpr(b, RCX, false));
        return;
      case LK::i64:
        op_mem(0, true, {0x89}, gpr(b, RCX, true));
        return;
      case LK::f32:
        op_mem(0xF3, false, {0x0F, 0x11}, xmm(b, X0, 4));
        return;
      case LK::f64:
        op_mem(0xF2, false, {0x0F, 0x11}, xmm(b, X0, 8));
        return;
      case LK::v128:
        op_mem(0, false, {0x0F, 0x11}, xmm(b, X0, 16));
        return;
    }
  };
  auto load_plain = [&](LK k, bool checked) {  // addr = r[b].u32 + imm
    lin_addr(b, imm);
    if (checked) bounds_check(lk_len(k));
    load_val(k);
  };
  auto store_plain = [&](LK k, bool checked) {  // addr = r[a].u32 + imm
    lin_addr(a, imm);
    if (checked) bounds_check(lk_len(k));
    store_val(k);
  };
  auto load_ix = [&](LK k, bool checked) {  // addr = IXADDR(r[b])
    ix_addr(b, c, d, imm);
    if (checked) bounds_check(lk_len(k));
    load_val(k);
  };
  auto store_ix = [&](LK k, bool checked) {  // addr = IXADDR(r[a])
    ix_addr(a, c, d, imm);
    if (checked) bounds_check(lk_len(k));
    store_val(k);
  };
  // Fused r[a] = r[c] op mem (scalar float): checked address, then
  // op r(=C), [r13+rax] — same operand order as the handler's C-then-mem.
  auto f_load_op = [&](bool f64v, u8 opc) {
    checked_addr(b, imm, f64v ? 8 : 4);
    const u8 r = dst_x(a, c, 0, X0);
    mov_x(r, c, f64v ? 8 : 4);
    op_mem(f64v ? 0xF2 : 0xF3, false, {0x0F, opc}, r);
    commit_x(a, r);
  };
  // Fused vector load+op: r = r[c], x1 = movups mem, op r, x1.
  auto v_load_op = [&](u8 pfx, u8 opc) {
    checked_addr(b, imm, 16);
    const u8 r = dst_x(a, c, 0, X0);
    loadaps(r, c);
    op_mem(0, false, {0x0F, 0x10}, X1);
    op_rr(pfx, false, {0x0F, opc}, r, X1);
    commit_x(a, r);
  };
  // Fused scalar float op+store: mem[r[a]+imm] = r[b] op r[c].
  auto f_op_store = [&](bool f64v, u8 opc) {
    checked_addr(a, imm, f64v ? 8 : 4);
    const u8 pfx = f64v ? 0xF2 : 0xF3;
    mov_x(X0, b, f64v ? 8 : 4);
    op_x(pfx, false, {0x0F, opc}, X0, c);
    op_mem(pfx, false, {0x0F, 0x11}, X0);
  };
  // Fused vector op+store.
  auto v_op_store = [&](u8 pfx, std::initializer_list<u8> ops) {
    checked_addr(a, imm, 16);
    loadaps(X0, b);
    op_x(pfx, false, ops, X0, c);
    op_mem(0, false, {0x0F, 0x11}, X0);
  };
  // BRCMP family: cmp r[a], r[b]; jcc target.
  auto br_cmp = [&](u8 cc) {
    close_block();
    const u8 ra = gpr(a, RAX, false);
    op_g(0, false, {0x3B}, ra, b);
    branch(cc, u32(imm));
  };
  // Conditional A = B as a 16-byte frame copy, skipped when `cc_keep`
  // holds after `compare` sets the flags.
  auto cond_copy = [&](auto compare, u8 cc_keep) {
    frame_in(a);
    frame_in(b);
    compare();
    u32 skip = jcc8(cc_keep);
    frame_copy(a, b);
    label8(skip);
    frame_wrote(a);
  };
  // SELCMP family: keep A when cmp(r[c], r[d]) holds, else A = B.
  auto sel_cmp = [&](u8 cc_true) {
    cond_copy([&] { op_g(0, false, {0x3B}, gpr(c, RAX, false), d); }, cc_true);
  };
  // Integer immediate op computed in a's register.
  auto int_imm = [&](u8 ext, i64 v) {
    const u8 r = dst_g(a, b, 0, RAX);
    load32(r, b);
    alu_imm(false, ext, r, v);
    commit_g(a, r);
  };
  auto shift_by_imm = [&](u8 ext) {
    const u8 r = dst_g(a, b, 0, RAX);
    load32(r, b);
    shift_imm(false, ext, r, u8(imm & 31));
    commit_g(a, r);
  };
  // r[a] = r[b] + v: lea from b's register when it can, else mov + add.
  auto add_imm = [&](bool w, i64 v) {
    const u8 lb = loc_of[b];
    const u8 r = dst_g(a, b, 0, RAX);
    const bool small = v >= INT32_MIN && v <= INT32_MAX;
    if (small && lb != kNoLoc && !is_xmm(lb) && lb != r) {
      note(b, kUseGpr);
      touch(lb);
      op_rm(0, w, {0x8D}, r, lb, v);  // lea r, [b + v]
    } else {
      mov_g(r, b, w);
      if (small) {
        alu_imm(w, 0, r, v);
      } else {
        movabs(RCX, u64(v));
        op_rr(0, true, {0x01}, RCX, r);  // add r, rcx
      }
    }
    commit_g(a, r);
  };

  switch (in.op) {
    // --- splats / lanes ---
    case ROp::kI32x4Splat: {
      const u8 r = dst_x(a, kNoSlot, 0, X0);
      op_g(0x66, false, {0x0F, 0x6E}, r, b);   // movd r, b
      op_rr(0x66, false, {0x0F, 0x70}, r, r);  // pshufd r, r, 0
      b1(0);
      commit_x(a, r);
      return true;
    }
    case ROp::kI64x2Splat: {
      const u8 g = gpr(b, RAX, true);
      const u8 r = dst_x(a, kNoSlot, 0, X0);
      op_rr(0x66, true, {0x0F, 0x6E}, r, g);   // movq r, g
      op_rr(0x66, false, {0x0F, 0x6C}, r, r);  // punpcklqdq
      commit_x(a, r);
      return true;
    }
    case ROp::kF32x4Splat: {
      const u8 r = dst_x(a, b, 0, X0);
      loadss(r, b);
      op_rr(0, false, {0x0F, 0xC6}, r, r);  // shufps r, r, 0
      b1(0);
      commit_x(a, r);
      return true;
    }
    case ROp::kF64x2Splat: {
      const u8 r = dst_x(a, b, 0, X0);
      loadsd(r, b);
      op_rr(0x66, false, {0x0F, 0x14}, r, r);  // unpcklpd r, r
      commit_x(a, r);
      return true;
    }
    // Lane extracts read the synced frame copy at the lane's offset.
    case ROp::kI8x16ExtractLaneS:
      op_rm(0, false, {0x0F, 0xBE}, RAX, RBX, frame_in(b) + i64(imm));
      def_g(a, RAX);
      return true;
    case ROp::kI8x16ExtractLaneU:
      op_rm(0, false, {0x0F, 0xB6}, RAX, RBX, frame_in(b) + i64(imm));
      def_g(a, RAX);
      return true;
    case ROp::kI16x8ExtractLaneS:
      op_rm(0, false, {0x0F, 0xBF}, RAX, RBX, frame_in(b) + i64(imm) * 2);
      def_g(a, RAX);
      return true;
    case ROp::kI16x8ExtractLaneU:
      op_rm(0, false, {0x0F, 0xB7}, RAX, RBX, frame_in(b) + i64(imm) * 2);
      def_g(a, RAX);
      return true;
    case ROp::kI32x4ExtractLane:
      op_rm(0, false, {0x8B}, RAX, RBX, frame_in(b) + i64(imm) * 4);
      def_g(a, RAX);
      return true;
    case ROp::kI64x2ExtractLane:
      op_rm(0, true, {0x8B}, RAX, RBX, frame_in(b) + i64(imm) * 8);
      def_g(a, RAX);
      return true;
    case ROp::kF32x4ExtractLane:
      op_rm(0xF3, false, {0x0F, 0x10}, X0, RBX, frame_in(b) + i64(imm) * 4);
      def_x(a, X0);
      return true;
    case ROp::kF64x2ExtractLane:
      op_rm(0xF2, false, {0x0F, 0x10}, X0, RBX, frame_in(b) + i64(imm) * 8);
      def_x(a, X0);
      return true;
    // Replace: the scalar is read before the base copy because a may alias
    // c; the lane is then written into the frame copy of a.
    case ROp::kI8x16ReplaceLane:
    case ROp::kI16x8ReplaceLane:
    case ROp::kI32x4ReplaceLane:
    case ROp::kI64x2ReplaceLane:
    case ROp::kF32x4ReplaceLane:
    case ROp::kF64x2ReplaceLane: {
      const bool fp = in.op == ROp::kF32x4ReplaceLane ||
                      in.op == ROp::kF64x2ReplaceLane;
      const u32 lanes = jit_lane_count(in.op);
      const i64 off = i64(imm) * (16 / lanes);
      if (fp)
        mov_x(X1, c, u8(16 / lanes));
      else
        mov_g(RCX, c, lanes == 2);
      frame_in(b);
      frame_in(a);
      frame_copy(a, b);
      const i64 at = slot(a) + off;
      switch (in.op) {
        case ROp::kI8x16ReplaceLane: op_rm(0, false, {0x88}, RCX, RBX, at); break;
        case ROp::kI16x8ReplaceLane: op_rm(0x66, false, {0x89}, RCX, RBX, at); break;
        case ROp::kI32x4ReplaceLane: op_rm(0, false, {0x89}, RCX, RBX, at); break;
        case ROp::kI64x2ReplaceLane: op_rm(0, true, {0x89}, RCX, RBX, at); break;
        case ROp::kF32x4ReplaceLane:
          op_rm(0xF3, false, {0x0F, 0x11}, X1, RBX, at);
          break;
        default: op_rm(0xF2, false, {0x0F, 0x11}, X1, RBX, at); break;
      }
      frame_wrote(a);
      return true;
    }

    // --- lane compares (LtS/GtS swap operands through pcmpgt) ---
    case ROp::kI8x16Eq: v_bin(0x66, {0x0F, 0x74}); return true;
    case ROp::kI8x16Ne: v_ne(0x74); return true;
    case ROp::kI8x16LtS: v_bin_rev(0x66, {0x0F, 0x64}); return true;
    case ROp::kI8x16GtS: v_bin(0x66, {0x0F, 0x64}); return true;
    case ROp::kI16x8Eq: v_bin(0x66, {0x0F, 0x75}); return true;
    case ROp::kI16x8Ne: v_ne(0x75); return true;
    case ROp::kI16x8LtS: v_bin_rev(0x66, {0x0F, 0x65}); return true;
    case ROp::kI16x8GtS: v_bin(0x66, {0x0F, 0x65}); return true;
    case ROp::kI32x4Eq: v_bin(0x66, {0x0F, 0x76}); return true;
    case ROp::kI32x4Ne: v_ne(0x76); return true;
    case ROp::kI32x4LtS: v_bin_rev(0x66, {0x0F, 0x66}); return true;
    case ROp::kI32x4GtS: v_bin(0x66, {0x0F, 0x66}); return true;
    case ROp::kF32x4Eq: v_cmpf(false, b, c, 0); return true;
    case ROp::kF32x4Ne: v_cmpf(false, b, c, 4); return true;
    case ROp::kF32x4Lt: v_cmpf(false, b, c, 1); return true;
    case ROp::kF32x4Le: v_cmpf(false, b, c, 2); return true;
    case ROp::kF32x4Gt: v_cmpf(false, c, b, 1); return true;
    case ROp::kF32x4Ge: v_cmpf(false, c, b, 2); return true;
    case ROp::kF64x2Eq: v_cmpf(true, b, c, 0); return true;
    case ROp::kF64x2Ne: v_cmpf(true, b, c, 4); return true;
    case ROp::kF64x2Lt: v_cmpf(true, b, c, 1); return true;
    case ROp::kF64x2Le: v_cmpf(true, b, c, 2); return true;
    case ROp::kF64x2Gt: v_cmpf(true, c, b, 1); return true;
    case ROp::kF64x2Ge: v_cmpf(true, c, b, 2); return true;

    // --- bitwise ---
    case ROp::kV128Not: {
      const u8 r = dst_x(a, b, 0, X0);
      loadaps(r, b);
      bs({0x66, 0x0F, 0x76, 0xC9});             // pcmpeqd x1, x1
      op_rr(0x66, false, {0x0F, 0xEF}, r, X1);  // pxor r, x1
      commit_x(a, r);
      return true;
    }
    case ROp::kV128And: v_bin(0x66, {0x0F, 0xDB}); return true;
    case ROp::kV128AndNot: v_bin_rev(0x66, {0x0F, 0xDF}); return true;  // pandn
    case ROp::kV128Or: v_bin(0x66, {0x0F, 0xEB}); return true;
    case ROp::kV128Xor: v_bin(0x66, {0x0F, 0xEF}); return true;
    case ROp::kV128AnyTrue:
      op_rr(0x66, false, {0x0F, 0xEF}, X0, X0);   // pxor x0, x0
      op_x(0x66, false, {0x0F, 0x74}, X0, b);     // pcmpeqb
      op_rr(0x66, false, {0x0F, 0xD7}, RAX, X0);  // pmovmskb
      b1(0x3D);                                   // cmp eax, 0xFFFF
      i32le(0xFFFFu);
      setcc_def(CC_NE);
      return true;
    case ROp::kV128Bitselect:
      loadaps(X0, a);
      op_x(0x66, false, {0x0F, 0xDB}, X0, c);    // pand x0, mask
      loadaps(X1, c);
      op_x(0x66, false, {0x0F, 0xDF}, X1, b);    // pandn: ~mask & B
      op_rr(0x66, false, {0x0F, 0xEB}, X0, X1);  // por
      def_x(a, X0);
      return true;

    // --- integer lanes ---
    case ROp::kI8x16Abs: v_unop(0x66, {0x0F, 0x38, 0x1C}); return true;
    case ROp::kI8x16Neg: v_neg(0xF8); return true;
    case ROp::kI8x16AllTrue: v_all_true({0x0F, 0x74}); return true;
    case ROp::kI8x16Add: v_bin(0x66, {0x0F, 0xFC}); return true;
    case ROp::kI8x16Sub: v_bin(0x66, {0x0F, 0xF8}); return true;
    case ROp::kI16x8Abs: v_unop(0x66, {0x0F, 0x38, 0x1D}); return true;
    case ROp::kI16x8Neg: v_neg(0xF9); return true;
    case ROp::kI16x8AllTrue: v_all_true({0x0F, 0x75}); return true;
    case ROp::kI16x8Add: v_bin(0x66, {0x0F, 0xFD}); return true;
    case ROp::kI16x8Sub: v_bin(0x66, {0x0F, 0xF9}); return true;
    case ROp::kI16x8Mul: v_bin(0x66, {0x0F, 0xD5}); return true;
    case ROp::kI32x4Abs: v_unop(0x66, {0x0F, 0x38, 0x1E}); return true;
    case ROp::kI32x4Neg: v_neg(0xFA); return true;
    case ROp::kI32x4AllTrue: v_all_true({0x0F, 0x76}); return true;
    case ROp::kI32x4Shl: v_shift(0xF2, 31); return true;   // pslld
    case ROp::kI32x4ShrS: v_shift(0xE2, 31); return true;  // psrad
    case ROp::kI32x4ShrU: v_shift(0xD2, 31); return true;  // psrld
    case ROp::kI32x4Add: v_bin(0x66, {0x0F, 0xFE}); return true;
    case ROp::kI32x4Sub: v_bin(0x66, {0x0F, 0xFA}); return true;
    case ROp::kI32x4Mul: v_bin(0x66, {0x0F, 0x38, 0x40}); return true;
    case ROp::kI32x4MinS: v_bin(0x66, {0x0F, 0x38, 0x39}); return true;
    case ROp::kI32x4MinU: v_bin(0x66, {0x0F, 0x38, 0x3B}); return true;
    case ROp::kI32x4MaxS: v_bin(0x66, {0x0F, 0x38, 0x3D}); return true;
    case ROp::kI32x4MaxU: v_bin(0x66, {0x0F, 0x38, 0x3F}); return true;
    case ROp::kI64x2Neg: v_neg(0xFB); return true;
    case ROp::kI64x2AllTrue: v_all_true({0x0F, 0x38, 0x29}); return true;
    case ROp::kI64x2Shl: v_shift(0xF3, 63); return true;   // psllq
    case ROp::kI64x2ShrU: v_shift(0xD3, 63); return true;  // psrlq
    case ROp::kI64x2Add: v_bin(0x66, {0x0F, 0xD4}); return true;
    case ROp::kI64x2Sub: v_bin(0x66, {0x0F, 0xFB}); return true;

    // --- float lanes ---
    case ROp::kF32x4Abs: v_mask(0x54, splat_mask32(0x7FFFFFFFu)); return true;
    case ROp::kF32x4Neg: v_mask(0x57, splat_mask32(0x80000000u)); return true;
    case ROp::kF32x4Sqrt: v_unop(0, {0x0F, 0x51}); return true;
    case ROp::kF32x4Add: v_bin(0, {0x0F, 0x58}); return true;
    case ROp::kF32x4Sub: v_bin(0, {0x0F, 0x5C}); return true;
    case ROp::kF32x4Mul: v_bin(0, {0x0F, 0x59}); return true;
    case ROp::kF32x4Div: v_bin(0, {0x0F, 0x5E}); return true;
    case ROp::kF32x4Pmin: v_bin_rev(0, {0x0F, 0x5D}); return true;
    case ROp::kF32x4Pmax: v_bin_rev(0, {0x0F, 0x5F}); return true;
    case ROp::kF64x2Abs:
      v_mask(0x54, splat_mask64(0x7FFFFFFFFFFFFFFFull));
      return true;
    case ROp::kF64x2Neg:
      v_mask(0x57, splat_mask64(0x8000000000000000ull));
      return true;
    case ROp::kF64x2Sqrt: v_unop(0x66, {0x0F, 0x51}); return true;
    case ROp::kF64x2Add: v_bin(0x66, {0x0F, 0x58}); return true;
    case ROp::kF64x2Sub: v_bin(0x66, {0x0F, 0x5C}); return true;
    case ROp::kF64x2Mul: v_bin(0x66, {0x0F, 0x59}); return true;
    case ROp::kF64x2Div: v_bin(0x66, {0x0F, 0x5E}); return true;
    case ROp::kF64x2Pmin: v_bin_rev(0x66, {0x0F, 0x5D}); return true;
    case ROp::kF64x2Pmax: v_bin_rev(0x66, {0x0F, 0x5F}); return true;

    // --- fused immediates ---
    case ROp::kI32AddImm: add_imm(false, i64(i32(u32(imm)))); return true;
    case ROp::kI64AddImm: add_imm(true, i64(imm)); return true;
    case ROp::kI32ShlImm: shift_by_imm(4); return true;
    case ROp::kI32ShrUImm: shift_by_imm(5); return true;
    case ROp::kI32AndImm: int_imm(4, i64(i32(u32(imm)))); return true;
    case ROp::kI32MulImm: {
      const i32 v = i32(u32(imm));
      const bool small = v >= -128 && v <= 127;
      const u8 r = dst_g(a, b, 0, RAX);
      op_g(0, false, {small ? u8(0x6B) : u8(0x69)}, r, b);  // imul r, b, imm
      if (small)
        b1(u8(i8(v)));
      else
        i32le(u32(v));
      commit_g(a, r);
      return true;
    }

    // --- fused compare-and-branch ---
    case ROp::kBrIfI32Eq: br_cmp(CC_E); return true;
    case ROp::kBrIfI32Ne: br_cmp(CC_NE); return true;
    case ROp::kBrIfI32LtS: br_cmp(CC_L); return true;
    case ROp::kBrIfI32LtU: br_cmp(CC_B); return true;
    case ROp::kBrIfI32GtS: br_cmp(CC_G); return true;
    case ROp::kBrIfI32GtU: br_cmp(CC_A); return true;
    case ROp::kBrIfI32LeS: br_cmp(CC_LE); return true;
    case ROp::kBrIfI32LeU: br_cmp(CC_BE); return true;
    case ROp::kBrIfI32GeS: br_cmp(CC_GE); return true;
    case ROp::kBrIfI32GeU: br_cmp(CC_AE); return true;

    // --- fused multiply-add (two roundings, matching the C++ fallback) ---
    case ROp::kF64MulAdd:
    case ROp::kF32MulAdd: {
      const bool f64v = in.op == ROp::kF64MulAdd;
      const u8 pfx = f64v ? 0xF2 : 0xF3;
      const u8 r = dst_x(a, b, held(c) | held(d), X0);
      mov_x(r, b, f64v ? 8 : 4);
      op_x(pfx, false, {0x0F, 0x59}, r, c);  // mul
      op_x(pfx, false, {0x0F, 0x58}, r, d);  // add
      commit_x(a, r);
      return true;
    }

    // --- fused compare-and-select ---
    case ROp::kSelectI32Eq: sel_cmp(CC_E); return true;
    case ROp::kSelectI32Ne: sel_cmp(CC_NE); return true;
    case ROp::kSelectI32LtS: sel_cmp(CC_L); return true;
    case ROp::kSelectI32LtU: sel_cmp(CC_B); return true;
    case ROp::kSelectI32GtS: sel_cmp(CC_G); return true;
    case ROp::kSelectI32GtU: sel_cmp(CC_A); return true;
    case ROp::kSelectF64Lt:
      // y > x <=> x < y: keep A (unordered: copy).
      cond_copy([&] {
        op_x(0x66, false, {0x0F, 0x2E}, xmm(d, X0, 8), c);  // ucomisd y, x
      }, CC_A);
      return true;
    case ROp::kSelectF64Gt:
      cond_copy([&] {
        op_x(0x66, false, {0x0F, 0x2E}, xmm(c, X0, 8), d);  // ucomisd x, y
      }, CC_A);
      return true;

    // --- fused load+op ---
    case ROp::kI32LoadAdd:
    case ROp::kI64LoadAdd: {
      const bool w = in.op == ROp::kI64LoadAdd;
      checked_addr(b, imm, w ? 8 : 4);
      const u8 r = dst_g(a, c, 0, RCX);
      mov_g(r, c, w);
      op_mem(0, w, {0x03}, r);  // add r, [r13+rax]
      commit_g(a, r);
      return true;
    }
    case ROp::kF32LoadAdd: f_load_op(false, 0x58); return true;
    case ROp::kF64LoadAdd: f_load_op(true, 0x58); return true;
    case ROp::kF32LoadMul: f_load_op(false, 0x59); return true;
    case ROp::kF64LoadMul: f_load_op(true, 0x59); return true;
    case ROp::kI32x4LoadAdd: v_load_op(0x66, 0xFE); return true;
    case ROp::kF32x4LoadAdd: v_load_op(0, 0x58); return true;
    case ROp::kF32x4LoadMul: v_load_op(0, 0x59); return true;
    case ROp::kF64x2LoadAdd: v_load_op(0x66, 0x58); return true;
    case ROp::kF64x2LoadMul: v_load_op(0x66, 0x59); return true;

    // --- fused op+store ---
    case ROp::kI32AddStore:
      checked_addr(a, imm, 4);
      load32(RCX, b);
      op_g(0, false, {0x03}, RCX, c);  // add ecx, c
      op_mem(0, false, {0x89}, RCX);
      return true;
    case ROp::kF32AddStore: f_op_store(false, 0x58); return true;
    case ROp::kF64AddStore: f_op_store(true, 0x58); return true;
    case ROp::kF64MulStore: f_op_store(true, 0x59); return true;
    case ROp::kI32x4AddStore: v_op_store(0x66, {0x0F, 0xFE}); return true;
    case ROp::kF32x4AddStore: v_op_store(0, {0x0F, 0x58}); return true;
    case ROp::kF64x2AddStore: v_op_store(0x66, {0x0F, 0x58}); return true;
    case ROp::kF64x2MulStore: v_op_store(0x66, {0x0F, 0x59}); return true;

    // --- indexed addressing ---
    case ROp::kI32LoadIx: load_ix(LK::i32, true); return true;
    case ROp::kI64LoadIx: load_ix(LK::i64, true); return true;
    case ROp::kF32LoadIx: load_ix(LK::f32, true); return true;
    case ROp::kF64LoadIx: load_ix(LK::f64, true); return true;
    case ROp::kV128LoadIx: load_ix(LK::v128, true); return true;
    case ROp::kI32StoreIx: store_ix(LK::i32, true); return true;
    case ROp::kI64StoreIx: store_ix(LK::i64, true); return true;
    case ROp::kF32StoreIx: store_ix(LK::f32, true); return true;
    case ROp::kF64StoreIx: store_ix(LK::f64, true); return true;
    case ROp::kV128StoreIx: store_ix(LK::v128, true); return true;

    // --- bounds-check hoisting ---
    case ROp::kMemGuard:
      spill_all();
      load32(RDI, b);
      load32(RSI, c);
      b1(0xBA);  // mov edx, in.d
      i32le(d);
      if (imm <= 0xFFFFFFFFull) {
        b1(0xB9);  // mov ecx, imm32 (zero-extends)
        i32le(u32(imm));
      } else {
        movabs(RCX, imm);
      }
      op_rr(0, true, {0x89}, R15, R8);  // mov r8, r15
      call_helper(JitHelperId::kMemGuard);
      def_g(a, RAX);
      return true;
    case ROp::kI32LoadRaw: load_plain(LK::i32, false); return true;
    case ROp::kI64LoadRaw: load_plain(LK::i64, false); return true;
    case ROp::kF32LoadRaw: load_plain(LK::f32, false); return true;
    case ROp::kF64LoadRaw: load_plain(LK::f64, false); return true;
    case ROp::kV128LoadRaw: load_plain(LK::v128, false); return true;
    case ROp::kI32StoreRaw: store_plain(LK::i32, false); return true;
    case ROp::kI64StoreRaw: store_plain(LK::i64, false); return true;
    case ROp::kF32StoreRaw: store_plain(LK::f32, false); return true;
    case ROp::kF64StoreRaw: store_plain(LK::f64, false); return true;
    case ROp::kV128StoreRaw: store_plain(LK::v128, false); return true;
    case ROp::kI32LoadIxRaw: load_ix(LK::i32, false); return true;
    case ROp::kI64LoadIxRaw: load_ix(LK::i64, false); return true;
    case ROp::kF32LoadIxRaw: load_ix(LK::f32, false); return true;
    case ROp::kF64LoadIxRaw: load_ix(LK::f64, false); return true;
    case ROp::kV128LoadIxRaw: load_ix(LK::v128, false); return true;
    case ROp::kI32StoreIxRaw: store_ix(LK::i32, false); return true;
    case ROp::kI64StoreIxRaw: store_ix(LK::i64, false); return true;
    case ROp::kF32StoreIxRaw: store_ix(LK::f32, false); return true;
    case ROp::kF64StoreIxRaw: store_ix(LK::f64, false); return true;
    case ROp::kV128StoreIxRaw: store_ix(LK::v128, false); return true;

    default:
      return false;  // no template (jit_op_covered should have caught this)
  }
}

bool Emitter::emit_atomic(const RInstr& in) {
  const u32 a = in.a, b = in.b, c = in.c, d = in.d;
  const u64 imm = in.imm;

  // rax = bounds- and alignment-checked effective address.
  auto aaddr = [&](u32 base_slot, u32 len) {
    lin_addr(base_slot, imm);
    bounds_check(len);
    align_check(len);
  };
  // Narrow old values come back in rcx's low bytes; zero-extend in place.
  auto zext_cl = [&](u32 len) {
    if (len == 1)
      bs({0x0F, 0xB6, 0xC9});  // movzx ecx, cl
    else if (len == 2)
      bs({0x0F, 0xB7, 0xC9});  // movzx ecx, cx
  };
  // Seq-cst atomic load: on x86 an aligned plain load (narrow: movzx).
  auto a_load = [&](u32 len) {
    aaddr(b, len);
    const u8 r = dst_g(a, a, 0, RCX);
    if (len == 1)
      op_mem(0, false, {0x0F, 0xB6}, r);
    else if (len == 2)
      op_mem(0, false, {0x0F, 0xB7}, r);
    else
      op_mem(0, len == 8, {0x8B}, r);
    commit_g(a, r);
  };
  // Seq-cst atomic store: xchg (implicitly locked) supplies the trailing
  // full barrier a plain mov would lack.
  auto a_xchg_mem = [&](u32 len) {
    if (len == 1)
      op_mem(0, false, {0x86}, RCX);
    else if (len == 2)
      op_mem(0x66, false, {0x87}, RCX);
    else
      op_mem(0, len == 8, {0x87}, RCX);
  };
  auto a_store = [&](u32 len) {
    aaddr(a, len);
    mov_g(RCX, b, len == 8);
    a_xchg_mem(len);
  };
  // rmw add/sub: lock xadd (negate the operand first for sub); the old
  // value lands in rcx.
  auto a_xadd = [&](u32 len, bool negate) {
    aaddr(b, len);
    mov_g(RCX, c, len == 8);
    if (negate) {
      rex_if(len == 8, 0, RCX);
      bs({0xF7, 0xD9});  // neg (r|e)cx
    }
    b1(0xF0);  // lock
    if (len == 1)
      op_mem(0, false, {0x0F, 0xC0}, RCX);
    else if (len == 2)
      op_mem(0x66, false, {0x0F, 0xC1}, RCX);
    else
      op_mem(0, len == 8, {0x0F, 0xC1}, RCX);
    zext_cl(len);
    def_g(a, RCX);
  };
  auto a_xchg = [&](u32 len) {
    aaddr(b, len);
    mov_g(RCX, c, len == 8);
    a_xchg_mem(len);
    zext_cl(len);
    def_g(a, RCX);
  };
  // and/or/xor go through pointer helpers: the template proves the access
  // in-bounds and aligned, then hands the host address to a cmpxchg loop.
  auto a_helper_rmw = [&](u32 len, JitHelperId id) {
    spill_all();
    aaddr(b, len);
    op_mem(0, true, {0x8D}, RDI);  // lea rdi, [r13 + rax]
    mov_g(RSI, c, len == 8);
    call_helper(id);
    def_g(a, RAX);
  };
  auto a_cmpxchg = [&](u32 len, JitHelperId id) {
    spill_all();
    aaddr(b, len);
    op_mem(0, true, {0x8D}, RDI);
    mov_g(RSI, c, len == 8);
    mov_g(RDX, d, len == 8);
    call_helper(id);
    def_g(a, RAX);
  };

  switch (in.op) {
    // wait/notify: the helper re-checks bounds/alignment inside the guarded
    // region (it must hold the parking lock anyway), so the template only
    // computes the effective address.
    case ROp::kAtomicNotify:
      spill_all();
      lin_addr(b, imm);
      op_rr(0, true, {0x89}, RAX, RSI);  // mov rsi, rax
      op_rr(0, true, {0x89}, R14, RDI);  // mov rdi, r14
      load32(RDX, c);
      call_helper(JitHelperId::kAtomicNotify);
      def_g(a, RAX);
      return true;
    case ROp::kAtomicWait32:
    case ROp::kAtomicWait64:
      spill_all();
      lin_addr(b, imm);
      op_rr(0, true, {0x89}, RAX, RSI);
      op_rr(0, true, {0x89}, R14, RDI);
      mov_g(RDX, c, in.op == ROp::kAtomicWait64);
      load64(RCX, d);  // timeout_ns
      call_helper(in.op == ROp::kAtomicWait64 ? JitHelperId::kAtomicWait64
                                              : JitHelperId::kAtomicWait32);
      def_g(a, RAX);
      return true;
    case ROp::kAtomicFence:
      bs({0x0F, 0xAE, 0xF0});  // mfence
      return true;

    case ROp::kI32AtomicLoad: a_load(4); return true;
    case ROp::kI64AtomicLoad: a_load(8); return true;
    case ROp::kI32AtomicLoad8U: a_load(1); return true;
    case ROp::kI32AtomicLoad16U: a_load(2); return true;
    case ROp::kI64AtomicLoad8U: a_load(1); return true;
    case ROp::kI64AtomicLoad16U: a_load(2); return true;
    case ROp::kI64AtomicLoad32U: a_load(4); return true;

    case ROp::kI32AtomicStore: a_store(4); return true;
    case ROp::kI64AtomicStore: a_store(8); return true;
    case ROp::kI32AtomicStore8: a_store(1); return true;
    case ROp::kI32AtomicStore16: a_store(2); return true;
    case ROp::kI64AtomicStore8: a_store(1); return true;
    case ROp::kI64AtomicStore16: a_store(2); return true;
    case ROp::kI64AtomicStore32: a_store(4); return true;

    case ROp::kI32AtomicRmwAdd: a_xadd(4, false); return true;
    case ROp::kI64AtomicRmwAdd: a_xadd(8, false); return true;
    case ROp::kI32AtomicRmw8AddU: a_xadd(1, false); return true;
    case ROp::kI32AtomicRmw16AddU: a_xadd(2, false); return true;
    case ROp::kI64AtomicRmw8AddU: a_xadd(1, false); return true;
    case ROp::kI64AtomicRmw16AddU: a_xadd(2, false); return true;
    case ROp::kI64AtomicRmw32AddU: a_xadd(4, false); return true;

    case ROp::kI32AtomicRmwSub: a_xadd(4, true); return true;
    case ROp::kI64AtomicRmwSub: a_xadd(8, true); return true;
    case ROp::kI32AtomicRmw8SubU: a_xadd(1, true); return true;
    case ROp::kI32AtomicRmw16SubU: a_xadd(2, true); return true;
    case ROp::kI64AtomicRmw8SubU: a_xadd(1, true); return true;
    case ROp::kI64AtomicRmw16SubU: a_xadd(2, true); return true;
    case ROp::kI64AtomicRmw32SubU: a_xadd(4, true); return true;

    case ROp::kI32AtomicRmwAnd: a_helper_rmw(4, JitHelperId::kAtomicAnd32); return true;
    case ROp::kI64AtomicRmwAnd: a_helper_rmw(8, JitHelperId::kAtomicAnd64); return true;
    case ROp::kI32AtomicRmw8AndU: a_helper_rmw(1, JitHelperId::kAtomicAnd8); return true;
    case ROp::kI32AtomicRmw16AndU: a_helper_rmw(2, JitHelperId::kAtomicAnd16); return true;
    case ROp::kI64AtomicRmw8AndU: a_helper_rmw(1, JitHelperId::kAtomicAnd8); return true;
    case ROp::kI64AtomicRmw16AndU: a_helper_rmw(2, JitHelperId::kAtomicAnd16); return true;
    case ROp::kI64AtomicRmw32AndU: a_helper_rmw(4, JitHelperId::kAtomicAnd32); return true;

    case ROp::kI32AtomicRmwOr: a_helper_rmw(4, JitHelperId::kAtomicOr32); return true;
    case ROp::kI64AtomicRmwOr: a_helper_rmw(8, JitHelperId::kAtomicOr64); return true;
    case ROp::kI32AtomicRmw8OrU: a_helper_rmw(1, JitHelperId::kAtomicOr8); return true;
    case ROp::kI32AtomicRmw16OrU: a_helper_rmw(2, JitHelperId::kAtomicOr16); return true;
    case ROp::kI64AtomicRmw8OrU: a_helper_rmw(1, JitHelperId::kAtomicOr8); return true;
    case ROp::kI64AtomicRmw16OrU: a_helper_rmw(2, JitHelperId::kAtomicOr16); return true;
    case ROp::kI64AtomicRmw32OrU: a_helper_rmw(4, JitHelperId::kAtomicOr32); return true;

    case ROp::kI32AtomicRmwXor: a_helper_rmw(4, JitHelperId::kAtomicXor32); return true;
    case ROp::kI64AtomicRmwXor: a_helper_rmw(8, JitHelperId::kAtomicXor64); return true;
    case ROp::kI32AtomicRmw8XorU: a_helper_rmw(1, JitHelperId::kAtomicXor8); return true;
    case ROp::kI32AtomicRmw16XorU: a_helper_rmw(2, JitHelperId::kAtomicXor16); return true;
    case ROp::kI64AtomicRmw8XorU: a_helper_rmw(1, JitHelperId::kAtomicXor8); return true;
    case ROp::kI64AtomicRmw16XorU: a_helper_rmw(2, JitHelperId::kAtomicXor16); return true;
    case ROp::kI64AtomicRmw32XorU: a_helper_rmw(4, JitHelperId::kAtomicXor32); return true;

    case ROp::kI32AtomicRmwXchg: a_xchg(4); return true;
    case ROp::kI64AtomicRmwXchg: a_xchg(8); return true;
    case ROp::kI32AtomicRmw8XchgU: a_xchg(1); return true;
    case ROp::kI32AtomicRmw16XchgU: a_xchg(2); return true;
    case ROp::kI64AtomicRmw8XchgU: a_xchg(1); return true;
    case ROp::kI64AtomicRmw16XchgU: a_xchg(2); return true;
    case ROp::kI64AtomicRmw32XchgU: a_xchg(4); return true;

    case ROp::kI32AtomicRmwCmpxchg: a_cmpxchg(4, JitHelperId::kAtomicCmpxchg32); return true;
    case ROp::kI64AtomicRmwCmpxchg: a_cmpxchg(8, JitHelperId::kAtomicCmpxchg64); return true;
    case ROp::kI32AtomicRmw8CmpxchgU: a_cmpxchg(1, JitHelperId::kAtomicCmpxchg8); return true;
    case ROp::kI32AtomicRmw16CmpxchgU: a_cmpxchg(2, JitHelperId::kAtomicCmpxchg16); return true;
    case ROp::kI64AtomicRmw8CmpxchgU: a_cmpxchg(1, JitHelperId::kAtomicCmpxchg8); return true;
    case ROp::kI64AtomicRmw16CmpxchgU: a_cmpxchg(2, JitHelperId::kAtomicCmpxchg16); return true;
    case ROp::kI64AtomicRmw32CmpxchgU: a_cmpxchg(4, JitHelperId::kAtomicCmpxchg32); return true;

    default:
      return false;
  }
}

void Emitter::finish() {
  // Loop-exit stubs: write back the pinned values the exit target reads.
  for (const ExitStub& s : exit_stubs) {
    patch32(s.at, u32(code.size()) - (s.at + 4));
    write_pins(s.writes);
    jmp32(s.target);
  }
  // Out-of-line OOB stubs (one per check so rax still holds the address).
  // Traps longjmp out and discard the frame, so cached values need no flush.
  for (const TrapSite& t : trap_sites) {
    patch32(t.at, u32(code.size()) - (t.at + 4));
    op_rr(0, true, {0x89}, RAX, RDI);  // mov rdi, rax (address)
    b1(0xBE);                          // mov esi, len
    i32le(t.len);
    op_rr(0, true, {0x89}, R15, RDX);  // mov rdx, r15 (size)
    call_helper(JitHelperId::kTrapOob);
  }
  for (const TrapSite& t : ua_sites) {
    patch32(t.at, u32(code.size()) - (t.at + 4));
    op_rr(0, true, {0x89}, RAX, RDI);  // mov rdi, rax (address)
    b1(0xBE);                          // mov esi, len
    i32le(t.len);
    call_helper(JitHelperId::kTrapUnalignedAtomic);
  }

  // 16-aligned constant pool.
  while (code.size() & 15) b1(0xCC);
  u32 pool_base = u32(code.size());
  for (const V128& v : pool)
    for (u8 byte : v.bytes) b1(byte);
  for (const PoolFix& p : pool_fixes)
    patch32(p.at, pool_base + p.index * 16 - (p.at + 4));

  // br_table jump tables: i32 offsets relative to each table's start.
  std::vector<u32> table_off(f.br_pool.size(), 0);
  for (size_t i = 0; i < f.br_pool.size(); ++i) {
    table_off[i] = u32(code.size());
    for (u32 t : f.br_pool[i]) i32le(u32(i32(ioff[t]) - i32(table_off[i])));
  }
  for (const TableFix& t : table_fixes)
    patch32(t.at, table_off[t.pool] - (t.at + 4));

  for (const BranchFix& br : branch_fixes)
    patch32(br.at, u32(i32(ioff[br.target]) - i32(br.at + 4)));
}

void Emitter::find_loops() {
  const u32 n = u32(f.code.size());
  loop_at.assign(n, -1);
  // Back edges (branches to the same or an earlier instruction) give each
  // header the end of its loop range.
  std::vector<u32> end_of(n, 0);
  std::vector<u32> heads;
  for (u32 i = 0; i < n; ++i) {
    const RInstr& in = f.code[i];
    if (!is_branch(in.op) || in.op == ROp::kBrTable || in.imm > i) continue;
    if (end_of[in.imm] == 0) heads.push_back(u32(in.imm));
    end_of[in.imm] = std::max(end_of[in.imm], i + 1);
  }
  std::sort(heads.begin(), heads.end());
  // Innermost loops: no other header inside the range. They are disjoint.
  std::vector<Loop> cands;
  std::vector<i32> in_cand(n, -1);
  for (size_t k = 0; k < heads.size(); ++k) {
    const u32 t = heads[k];
    if (k + 1 < heads.size() && heads[k + 1] < end_of[t]) continue;
    if (!cands.empty() && cands.back().end > t) continue;  // overlaps
    for (u32 i = t; i < end_of[t]; ++i) in_cand[i] = i32(cands.size());
    cands.push_back({t, end_of[t], {}, 0});
  }
  // Single entry: nothing outside a range branches past its header, and
  // no br_table sits inside (its edges skip the exit write-backs).
  std::vector<bool> ok(cands.size(), true);
  for (u32 j = 0; j < n; ++j) {
    const RInstr& in = f.code[j];
    if (!is_branch(in.op)) continue;
    if (in.op == ROp::kBrTable && in_cand[j] >= 0) ok[in_cand[j]] = false;
    for (u32 tg : branch_targets(f, in)) {
      const i32 k = in_cand[tg];
      if (k >= 0 && tg != cands[k].head && in_cand[j] != k) ok[k] = false;
    }
  }
  for (size_t k = 0; k < cands.size(); ++k) {
    if (!ok[k]) continue;
    probe_loop(cands[k]);
    if (cands[k].pins.empty()) continue;
    loop_at[cands[k].head] = i32(loops.size());
    loops.push_back(std::move(cands[k]));
  }
}

void Emitter::probe_loop(Loop& lp) {
  Emitter pe(f, feats);
  Probe pr;
  pe.probe = &pr;
  for (u32 i = lp.head; i < lp.end; ++i) {
    if (!pe.emit_instr(f.code[i]) || pr.helper) return;
    pe.reset_block();
  }
  // kMov is class-preserving: each end takes the other's classes.
  for (auto [x, y] : pr.copies) {
    pr.uses.push_back({x, kUseDef});
    pr.uses.push_back({y, 0});
  }
  std::sort(pr.uses.begin(), pr.uses.end());
  struct SlotUse { u32 slot; u8 uses; u32 count; };
  std::vector<SlotUse> su;
  for (auto [s, u] : pr.uses) {
    if (su.empty() || su.back().slot != s) su.push_back({s, 0, 0});
    su.back().uses |= u;
    ++su.back().count;
  }
  auto find = [&](u32 s) -> SlotUse& {
    return *std::lower_bound(
        su.begin(), su.end(), s,
        [](const SlotUse& x, u32 v) { return x.slot < v; });
  };
  for (int round = 0; round < 2; ++round) {
    for (auto [x, y] : pr.copies) {
      SlotUse& ux = find(x);
      SlotUse& uy = find(y);
      const u8 cls = (ux.uses | uy.uses) & ~kUseDef;
      ux.uses = u8((ux.uses & kUseDef) | cls);
      uy.uses = u8((uy.uses & kUseDef) | cls);
    }
  }
  // Pin single-class slots that are live into some block of the loop,
  // most-used first.
  const size_t first_blk = cfg->block_of[lp.head];
  auto live_in_loop = [&](u32 s) {
    for (size_t blk = first_blk;
         blk < cfg->leaders.size() && cfg->leaders[blk] < lp.end; ++blk)
      if (live->live_in(blk, s)) return true;
    return false;
  };
  std::vector<SlotUse> cand;
  for (const SlotUse& x : su) {
    const u8 cls = x.uses & ~kUseDef;
    if ((cls == kUseGpr || cls == kUseXmm) && live_in_loop(x.slot))
      cand.push_back(x);
  }
  std::stable_sort(cand.begin(), cand.end(),
                   [](const SlotUse& x, const SlotUse& y) {
                     return x.count > y.count;
                   });
  u32 gprs = 0, xmms = 0;
  for (const SlotUse& x : cand) {
    const bool written = (x.uses & kUseDef) != 0;
    if ((x.uses & kUseGpr) && gprs < kMaxPinnedGprs)
      lp.pins.push_back({x.slot, kCacheGprs[gprs++], written});
    else if ((x.uses & kUseXmm) && xmms < kMaxPinnedXmms)
      lp.pins.push_back({x.slot, u8(kX + kFirstCacheXmm + xmms++), written});
  }
}

void Emitter::emit_body() {
  const size_t n = f.code.size();
  ioff.assign(n, 0);
  std::vector<u64> lv;  // live-after set, walking a block backwards
  std::vector<u32> reads;
  std::vector<std::pair<u32, u32>> kills;  // (instr, slot), instr descending
  for (size_t b = 0; b < cfg->leaders.size(); ++b) {
    const size_t start = cfg->block_start(b), end = cfg->block_end(b, n);
    cur_block = b;
    block_closed = false;
    // Values that die at each instruction leave the cache unwritten.
    kills.clear();
    lv.assign(live->out_row(b), live->out_row(b) + live->words);
    auto has = [&](u32 r) { return (lv[r / 64] >> (r % 64)) & 1; };
    for (size_t i = end; i-- > start;) {
      const RInstr& in = f.code[i];
      collect_reads(in, reads);
      const bool def = writes_dest(in);
      if (def && !has(in.a)) kills.push_back({u32(i), in.a});
      for (u32 s : reads)
        if (!has(s)) kills.push_back({u32(i), s});
      if (def) lv[in.a / 64] &= ~(u64(1) << (in.a % 64));
      for (u32 s : reads) lv[s / 64] |= u64(1) << (s % 64);
    }

    ioff[start] = u32(code.size());
    if (loop_at[start] >= 0) enter_loop(loops[loop_at[start]]);
    for (size_t i = start; i < end; ++i) {
      if (i != start) ioff[i] = u32(code.size());
      if (!emit_instr(f.code[i])) {
        failed = true;
        return;
      }
      for (; !kills.empty() && kills.back().first == i; kills.pop_back()) {
        const u8 l = loc_of[kills.back().second];
        if (l != kNoLoc && !cr[l].pinned) unmap(l);
      }
    }
    if (!block_closed) close_block();
    if (loop && end == loop->end) {
      // Falling out of the loop: the next block reads the frame.
      if (!is_terminator(f.code[end - 1].op))
        write_pins(pins_live_at(u32(end)));
      leave_loop();
    }
    reset_block();
  }
}

}  // namespace

bool jit_op_covered(ROp op, u32 cpu_features) {
  switch (op) {
    // Byte/word splats and the shuffle family need pshufb-style sequences
    // that aren't worth templating for the HPC kernels this tier targets.
    case ROp::kI8x16Splat:
    case ROp::kI16x8Splat:
    case ROp::kI8x16Shuffle:
    case ROp::kI8x16Swizzle:
    // Unsigned / non-strict lane compares need bias or min+eq sequences.
    case ROp::kI8x16LtU:
    case ROp::kI8x16GtU:
    case ROp::kI8x16LeS:
    case ROp::kI8x16LeU:
    case ROp::kI8x16GeS:
    case ROp::kI8x16GeU:
    case ROp::kI16x8LtU:
    case ROp::kI16x8GtU:
    case ROp::kI16x8LeS:
    case ROp::kI16x8LeU:
    case ROp::kI16x8GeS:
    case ROp::kI16x8GeU:
    case ROp::kI32x4LtU:
    case ROp::kI32x4GtU:
    case ROp::kI32x4LeS:
    case ROp::kI32x4LeU:
    case ROp::kI32x4GeS:
    case ROp::kI32x4GeU:
    // No single-instruction SSE forms pre-AVX512.
    case ROp::kI64x2Abs:
    case ROp::kI64x2Mul:
    case ROp::kI64x2ShrS:
    // Wasm f{32x4,64x2}.min/max propagate NaN payloads; minps/maxps don't.
    case ROp::kF32x4Min:
    case ROp::kF32x4Max:
    case ROp::kF64x2Min:
    case ROp::kF64x2Max:
    case ROp::kCount:
      return false;
    case ROp::kI8x16Abs:
    case ROp::kI16x8Abs:
    case ROp::kI32x4Abs:
      return (cpu_features & kJitFeatSsse3) != 0;  // pabsb/w/d
    case ROp::kI32x4Mul:      // pmulld
    case ROp::kI32x4MinS:     // pminsd
    case ROp::kI32x4MinU:     // pminud
    case ROp::kI32x4MaxS:     // pmaxsd
    case ROp::kI32x4MaxU:     // pmaxud
    case ROp::kI64x2AllTrue:  // pcmpeqq
      return (cpu_features & kJitFeatSse41) != 0;
    default:
      return true;
  }
}


std::shared_ptr<const JitBlob> jit_compile_function(const RFunc& f) {
  const size_t n = f.code.size();
  if (n == 0 || n > 1'000'000) return nullptr;
  if (!is_terminator(f.code.back().op)) return nullptr;
  // Slot displacements must fit the disp32 addressing the templates use.
  if (u64(f.num_regs) * 16 > 0x7FFF0000ull) return nullptr;
  // Every operand must name a slot of this frame: the emitter's per-slot
  // cache and liveness tables are indexed by them.
  if (!operands_in_range(f)) return nullptr;

  const u32 feats = jit_cpu_features();

  // Structural validation up front (mirrors threadable()): emit_instr
  // assumes every branch target, pool index, and lane immediate is in range.
  for (const RInstr& in : f.code) {
    if (!jit_op_covered(in.op, feats)) return nullptr;
    if (is_branch(in.op) && in.op != ROp::kBrTable && in.imm >= n)
      return nullptr;
    if (in.op == ROp::kBrTable) {
      if (in.imm >= f.br_pool.size()) return nullptr;
      const auto& targets = f.br_pool[in.imm];
      if (targets.empty()) return nullptr;
      for (u32 t : targets)
        if (t >= n) return nullptr;
    }
    if (in.op == ROp::kConstV128 && in.imm >= f.v128_pool.size())
      return nullptr;
    if ((in.op == ROp::kGlobalGet || in.op == ROp::kGlobalSet) &&
        in.imm > 0x07FFFFFFull)
      return nullptr;
    if (u32 lanes = jit_lane_count(in.op); lanes != 0 && in.imm >= lanes)
      return nullptr;
  }

  const Cfg cfg = build_cfg(f);
  const BlockLiveness live = compute_block_liveness(f, cfg);
  Emitter e(f, feats);
  e.cfg = &cfg;
  e.live = &live;
  e.find_loops();
  e.prologue();
  e.emit_body();
  if (e.failed) return nullptr;
  e.finish();

  auto blob = std::make_shared<JitBlob>();
  blob->cpu_features = feats;
  blob->layout_hash = jit_layout_hash();
  blob->code = std::move(e.code);
  blob->relocs = std::move(e.relocs);
  return blob;
}

}  // namespace mpiwasm::rt
