// Interpreter tier: predecoded-bytecode stack machine.
//
// "Compilation" is a single predecode pass that strips LEB decoding out of
// the hot loop and resolves structured control flow (block/loop/if/else/
// end and all br forms) to absolute instruction targets with stack-height
// repair info. Execution keeps Wasm's operand stack explicit — the honest
// low-compile-cost / high-run-cost end of the Table 1 trade-off.
#pragma once

#include <vector>

#include "wasm/decoder.h"
#include "wasm/module.h"

namespace mpiwasm::rt {

/// Branch metadata attached to control instructions after predecode.
struct PreBr {
  u32 target = 0;    // absolute instruction index to jump to
  u32 height = 0;    // operand-stack height at the target label
  u8 results = 0;    // values carried across the branch (0 or 1)
  u32 table = UINT32_MAX;  // br_table: index into PreFunc::tables
};

struct PreFunc {
  u32 num_params = 0;
  u32 num_locals = 0;  // params + declared locals
  bool has_result = false;
  u32 max_stack = 0;   // operand slots needed (excludes locals)
  std::vector<wasm::InstrView> code;
  std::vector<PreBr> br;                 // parallel to code
  std::vector<std::vector<PreBr>> tables;  // br_table target lists (default last)
};

struct PreModule {
  std::vector<PreFunc> funcs;
};

/// Predecodes defined function `defined_index` of a validated module.
PreFunc predecode_function(const wasm::Module& m, u32 defined_index);
PreModule predecode_module(const wasm::Module& m);

class Instance;
struct Slot;

/// Executes predecoded defined function `defined_index` (`f`). `frame` holds
/// locals followed by the operand stack area (num_locals + max_stack
/// slots). In tiered mode a long-looping activation may finish on an OSR
/// body (osr_entry() in engine.h); the result still lands in frame[0].
void interp_exec(Instance& inst, const PreFunc& f, u32 defined_index,
                 Slot* frame);

}  // namespace mpiwasm::rt
