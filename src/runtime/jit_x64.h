// Template (copy-and-patch style) x86-64 code generator for RegCode.
//
// Each ROp maps onto a fixed instruction template with patched register
// numbers, Slot-frame displacements, and immediates — the copy-and-patch
// idea applied at RegCode granularity, which works because RegCode is
// already register-based with explicit bounds checks (kMemGuard + raw twins)
// and fused superinstructions.
//
// Fixed register assignment (System V callee-saved, so helper calls never
// spill them):
//   rbx  Slot*  register frame        r13  u8*  linear-memory base
//   r12  Slot*  globals               r15  u64  linear-memory byte size
//   r14  Instance*
// rax/rcx/rdx and xmm0/xmm1 are template scratch. rax always holds the
// effective address at a bounds check, so every out-of-line trap stub can
// pass it to the OOB helper unchanged. After any kCall/kCallIndirect/
// kMemoryGrow the templates reload r13/r15 from the helper's {base,size}
// return pair — exactly the points where memory can move or grow.
//
// Register cache: rsi/rdi/r8-r11 and xmm2-xmm15 hold RegCode values between
// templates, so a value travels from the template that defines it to the
// ones that read it without touching its Slot. A slot is written back only
// when its value is live out of the basic block (regcode_analysis.h's
// liveness), when its register is evicted, and wherever something else
// reads the frame: before each helper call (the cache registers are
// caller-saved; calls also read their argument windows from the frame),
// and before lane accesses, 16-byte copies and selects. Trap stubs need no
// flush: they longjmp and the frame is discarded.
//
// Loop promotion: an innermost loop without helper calls keeps each slot
// that is live in it (and used in a single register class) in a fixed
// register for the whole loop. Entry edges land on loads of those
// registers, back edges jump past them, and exit edges write the values
// the exit target reads back to the frame.
//
// Functions containing any ROp without a template are not compiled at all
// (per-function fallback to the threaded interpreter); there is no slow
// path inside JIT code except the helper calls.
#pragma once

#include <memory>

#include "runtime/regcode.h"

namespace mpiwasm::rt {

/// True when `op` has an x86-64 template under `cpu_features` (see
/// jit_cpu_features()). Ops without templates force the whole containing
/// function back to the threaded interpreter.
bool jit_op_covered(ROp op, u32 cpu_features);

/// Compiles `f` to a position-independent native blob (features and layout
/// hash stamped for cache validation). Returns null when any instruction
/// lacks a template or the body fails the structural checks the emitter
/// relies on (same ones as threaded dispatch: terminator at the end, branch
/// targets in range; plus every operand inside the frame).
std::shared_ptr<const JitBlob> jit_compile_function(const RFunc& f);

}  // namespace mpiwasm::rt
