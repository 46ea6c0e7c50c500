// Baseline ("Singlepass"-analogue) compiler: one linear pass translating a
// validated Wasm function's stack machine code into RegCode.
#pragma once

#include "runtime/regcode.h"
#include "wasm/module.h"

namespace mpiwasm::rt {

/// Lowers defined function `defined_index` (0-based into Module::bodies).
/// Input must be validated; malformed input triggers InternalError.
RFunc lower_function(const wasm::Module& m, u32 defined_index);

/// Lowers defined function `defined_index` as an on-stack-replacement body
/// for the loop whose `loop` instruction is body instruction `loop_instr`
/// (the same index the interpreter's predecode uses). Every local becomes a
/// parameter (num_params == num_locals, so nothing may assume declared
/// locals start at zero) and pc 0 is a kBr to the loop's head; the rest is
/// the ordinary lowering, so code around the loop stays reachable through
/// enclosing loops. The loop label's operand stack must be empty.
RFunc lower_osr_function(const wasm::Module& m, u32 defined_index,
                         u32 loop_instr);

/// Lowers every defined function.
RModule lower_module(const wasm::Module& m);

}  // namespace mpiwasm::rt
