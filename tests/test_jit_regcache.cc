// Register-cached x86-64 JIT: values stay in registers within basic blocks,
// and innermost loops without helper calls keep their loop-carried slots in
// registers across the back edge. Every case runs native code (kJit, and the
// OSR-forcing tiered config where the case enters a loop mid-activation)
// against the threaded kOptimizing executor and compares results, trap
// kinds, trap messages (which name the trap point) and the whole linear
// memory after the call (partial stores).
#include "testlib.h"

#include <array>
#include <cstring>

namespace mpiwasm::test {
namespace {

using rt::TrapKind;

struct Outcome {
  bool trapped = false;
  TrapKind kind = TrapKind::kUnreachable;
  std::string message;
  std::array<u64, 2> result{};  // typed result bits (v128 uses both words)
  std::vector<u8> memory;       // linear memory after the call
};

std::array<u64, 2> result_bits(const Value& v) {
  std::array<u64, 2> out{};
  switch (v.type) {
    case ValType::kI32: case ValType::kF32: out[0] = v.slot.u32v; break;
    case ValType::kV128: std::memcpy(out.data(), &v.slot.v128v, 16); break;
    default: out[0] = v.slot.u64v; break;
  }
  return out;
}

Outcome run_on(rt::Instance& inst, const std::vector<Value>& args) {
  Outcome o;
  try {
    o.result = result_bits(inst.invoke("run", args));
  } catch (const rt::Trap& t) {
    o.trapped = true;
    o.kind = t.kind();
    o.message = t.what();
  }
  const rt::LinearMemory& mem = inst.memory();
  o.memory.assign(mem.base(), mem.base() + mem.byte_size());
  return o;
}

EngineConfig config(EngineTier tier) {
  EngineConfig c;
  c.tier = tier;
  c.jit = true;  // independent of the MPIWASM_JIT ambient default
  return c;
}

/// tiered(64,64,64): the 64th back edge of an interpreted activation moves
/// it onto a native OSR body entered at the loop head.
EngineConfig osr_config() {
  EngineConfig c = config(EngineTier::kTiered);
  c.tierup_baseline_threshold = 64;
  c.tierup_opt_threshold = 64;
  c.tierup_jit_threshold = 64;
  return c;
}

/// Runs `run(args)` under kOptimizing (threaded RegCode) and under `native`
/// (every function must be native code under kJit) and expects identical
/// outcomes. Returns the reference outcome.
Outcome expect_native_matches(const std::vector<u8>& bytes,
                              const std::vector<Value>& args,
                              const EngineConfig& native = config(EngineTier::kJit)) {
  auto opt = instantiate_cfg(bytes, config(EngineTier::kOptimizing));
  const Outcome ref = run_on(*opt, args);
  auto inst = instantiate_cfg(bytes, native);
  if (native.tier == EngineTier::kJit) {
    EXPECT_GT(inst->compiled().jit_funcs.load(), 0u);
    EXPECT_EQ(inst->compiled().jit_fallback_funcs.load(), 0u);
  }
  const Outcome got = run_on(*inst, args);
  const std::string label = config_label(native);
  EXPECT_EQ(got.trapped, ref.trapped) << label;
  if (ref.trapped) {
    EXPECT_EQ(got.kind, ref.kind) << label;
    EXPECT_EQ(got.message, ref.message) << label;
  } else {
    EXPECT_EQ(got.result, ref.result) << label;
  }
  EXPECT_TRUE(got.memory == ref.memory) << "linear memory differs under "
                                        << label;
  return ref;
}

/// One exported `run` plus a 256-byte data pattern at address 0, so loads
/// see non-zero lanes.
std::vector<u8> build_with_data(
    const FuncType& type,
    const std::function<void(wasm::FunctionBuilder&)>& emit) {
  ModuleBuilder b;
  b.add_memory(1);
  b.export_memory();
  std::vector<u8> pattern(256);
  for (size_t k = 0; k < pattern.size(); ++k) pattern[k] = u8(k * 37 + 11);
  b.add_data(0, pattern);
  auto& f = b.begin_func(type, "run");
  emit(f);
  std::vector<u8> bytes = b.build();
  auto decoded = wasm::decode_module({bytes.data(), bytes.size()});
  EXPECT_TRUE(decoded.ok()) << decoded.error;
  if (decoded.ok()) {
    auto vr = wasm::validate_module(*decoded.module);
    EXPECT_TRUE(vr.ok) << vr.error;
  }
  return bytes;
}

TEST(JitRegCache, LoopCarriedF64AndV128Accumulators) {
  // run(n) -> f64: acc = acc * 0.999 + i and vacc += {acc, acc} * {0.5, 2}
  // every iteration; vacc is stored to memory after the loop.
  auto bytes = build_single_func({{I32}, {F64}}, [](auto& f) {
    const u32 n = 0;
    u32 i = f.add_local(I32);
    u32 acc = f.add_local(F64);
    u32 vacc = f.add_local(V128T);
    wasm::V128 scale;
    scale.set_lane<f64, 2>(0, 0.5);
    scale.set_lane<f64, 2>(1, 2.0);
    f.f64_const(1.0);
    f.local_set(acc);
    f.for_loop_i32(i, 0, n, 1, [&] {
      f.local_get(acc);
      f.f64_const(0.999);
      f.op(Op::kF64Mul);
      f.local_get(i);
      f.op(Op::kF64ConvertI32S);
      f.op(Op::kF64Add);
      f.local_set(acc);
      f.local_get(vacc);
      f.local_get(acc);
      f.op(Op::kF64x2Splat);
      f.v128_const(scale);
      f.op(Op::kF64x2Mul);
      f.op(Op::kF64x2Add);
      f.local_set(vacc);
    });
    f.i32_const(64);
    f.local_get(vacc);
    f.mem_op(Op::kV128Store);
    f.local_get(acc);
    f.local_get(vacc);
    f.lane_op(Op::kF64x2ExtractLane, 1);
    f.op(Op::kF64Add);
    f.end();
  });
  for (i32 n : {0, 1, 7, 1000}) {
    Outcome ref = expect_native_matches(bytes, {Value::from_i32(n)});
    EXPECT_FALSE(ref.trapped);
  }
}

TEST(JitRegCache, SlotReusedAsAddressThenV128InOneBlock) {
  // Each v128.load reads its address from the stack slot it then defines
  // with the loaded vector; the i32x4 sum's slot later holds an address.
  auto bytes = build_with_data({{I32}, {I32}}, [](auto& f) {
    const u32 p = 0;
    u32 v = f.add_local(V128T);
    f.local_get(p);
    f.mem_op(Op::kV128Load);
    f.local_get(p);
    f.mem_op(Op::kV128Load, 16);
    f.op(Op::kI32x4Add);
    f.local_set(v);
    f.local_get(p);
    f.i32_const(128);
    f.op(Op::kI32Add);
    f.local_get(v);
    f.mem_op(Op::kV128Store);
    f.local_get(p);
    f.i32_const(96);
    f.op(Op::kI32Add);
    f.mem_op(Op::kV128Load, 32);
    f.local_get(v);
    f.op(Op::kI32x4Sub);
    f.lane_op(Op::kI32x4ExtractLane, 2);
    f.local_get(p);
    f.mem_op(Op::kI32Load, 132);
    f.op(Op::kI32Add);
    f.end();
  });
  for (i32 p : {0, 16, 40}) expect_native_matches(bytes, {Value::from_i32(p)});
}

TEST(JitRegCache, ExtractLaneOneFromCachedV128) {
  // v only ever lives in a register before its lanes are read; the lane
  // reads inside the loop force it through the frame each iteration.
  auto bytes = build_with_data({{I32}, {I64}}, [](auto& f) {
    const u32 n = 0;
    u32 i = f.add_local(I32);
    u32 v = f.add_local(V128T);
    u32 s = f.add_local(I64);
    f.i32_const(0);
    f.mem_op(Op::kV128Load);
    f.i32_const(16);
    f.mem_op(Op::kV128Load);
    f.op(Op::kI32x4Mul);
    f.local_set(v);
    f.for_loop_i32(i, 0, n, 1, [&] {
      f.local_get(v);
      f.local_get(i);
      f.op(Op::kI32x4Splat);
      f.op(Op::kI32x4Add);
      f.local_set(v);
      f.local_get(s);
      f.local_get(v);
      f.lane_op(Op::kI32x4ExtractLane, 1);
      f.op(Op::kI64ExtendI32U);
      f.op(Op::kI64Add);
      f.local_set(s);
    });
    f.local_get(s);
    f.local_get(v);
    f.lane_op(Op::kI64x2ExtractLane, 1);
    f.op(Op::kI64Add);
    f.local_get(v);
    f.lane_op(Op::kF32x4ExtractLane, 1);
    f.op(Op::kI32ReinterpretF32);
    f.op(Op::kI64ExtendI32S);
    f.op(Op::kI64Xor);
    f.local_get(v);
    f.lane_op(Op::kI8x16ExtractLaneS, 5);
    f.op(Op::kI64ExtendI32S);
    f.op(Op::kI64Add);
    f.end();
  });
  for (i32 n : {0, 3, 200}) expect_native_matches(bytes, {Value::from_i32(n)});
}

TEST(JitRegCache, LoopContainingACall) {
  // The call spills the cache every iteration: its arguments must reach
  // the frame and the loop-carried values must survive it.
  ModuleBuilder b;
  b.add_memory(1);
  b.export_memory();
  auto& helper = b.begin_func({{I32, F64}, {F64}});
  helper.local_get(1);
  helper.f64_const(1.5);
  helper.op(Op::kF64Mul);
  helper.local_get(0);
  helper.op(Op::kF64ConvertI32S);
  helper.op(Op::kF64Add);
  helper.end();
  auto& f = b.begin_func({{I32}, {F64}}, "run");
  const u32 n = 0;
  u32 i = f.add_local(I32);
  u32 acc = f.add_local(F64);
  u32 k = f.add_local(I32);
  f.for_loop_i32(i, 0, n, 1, [&] {
    f.local_get(k);
    f.local_get(i);
    f.op(Op::kI32Add);
    f.local_set(k);
    f.local_get(i);
    f.local_get(acc);
    f.f64_const(0.25);
    f.op(Op::kF64Mul);
    f.call(helper.index());
    f.local_set(acc);
    f.local_get(i);
    f.i32_const(8);
    f.op(Op::kI32Mul);
    f.local_get(acc);
    f.mem_op(Op::kF64Store);
  });
  f.local_get(acc);
  f.local_get(k);
  f.op(Op::kF64ConvertI32S);
  f.op(Op::kF64Add);
  f.end();
  auto bytes = b.build();
  for (i32 n : {0, 5, 300}) expect_native_matches(bytes, {Value::from_i32(n)});
}

TEST(JitRegCache, LoopExitsViaBrTableAndBrIfToAnOuterBlock) {
  // block $b2 { block $b1 { block $b0 { loop {
  //   x = x * 5 + i; i++
  //   br_if $b1 (x % 64 == 7)       ; exit to an outer block
  //   br_table [0 $b0 $b2] (i - n)  ; loop, or leave through a table
  // } } x += 100 } x += 1000 } return x + i * 10000
  auto bytes = build_single_func({{I32, I32}, {I32}}, [](auto& f) {
    const u32 n = 0, seed = 1;
    u32 i = f.add_local(I32);
    u32 x = f.add_local(I32);
    f.local_get(seed);
    f.local_set(x);
    f.block();  // $b2
    f.block();  // $b1
    f.block();  // $b0
    f.loop();
    f.local_get(x);
    f.i32_const(5);
    f.op(Op::kI32Mul);
    f.local_get(i);
    f.op(Op::kI32Add);
    f.local_set(x);
    f.local_get(i);
    f.i32_const(1);
    f.op(Op::kI32Add);
    f.local_set(i);
    f.local_get(x);
    f.i32_const(63);
    f.op(Op::kI32And);
    f.i32_const(7);
    f.op(Op::kI32Eq);
    f.br_if(2);  // -> $b1
    f.local_get(i);
    f.local_get(n);
    f.op(Op::kI32Sub);
    f.i32_const(3);
    f.op(Op::kI32Add);
    f.br_table({0, 0, 0, 1}, 3);  // loop while i < n, then $b0 or $b2
    f.end();  // loop
    f.end();  // $b0
    f.local_get(x);
    f.i32_const(100);
    f.op(Op::kI32Add);
    f.local_set(x);
    f.end();  // $b1
    f.local_get(x);
    f.i32_const(1000);
    f.op(Op::kI32Add);
    f.local_set(x);
    f.end();  // $b2
    f.local_get(x);
    f.local_get(i);
    f.i32_const(10000);
    f.op(Op::kI32Mul);
    f.op(Op::kI32Add);
    f.end();
  });
  for (i32 n : {1, 2, 3, 40})
    for (i32 seed : {0, 1, 2, 3})
      expect_native_matches(bytes, {Value::from_i32(n), Value::from_i32(seed)});

  // The same shape with only the br_if exit and a plain back edge, so the
  // loop is register-promoted and leaves through its exit stub.
  auto promoted = build_single_func({{I32, I32}, {I32}}, [](auto& f) {
    const u32 n = 0, seed = 1;
    u32 i = f.add_local(I32);
    u32 x = f.add_local(I32);
    f.local_get(seed);
    f.local_set(x);
    f.block();  // $outer
    f.block();  // $inner
    f.loop();
    f.local_get(x);
    f.i32_const(5);
    f.op(Op::kI32Mul);
    f.local_get(i);
    f.op(Op::kI32Add);
    f.local_set(x);
    f.local_get(i);
    f.i32_const(1);
    f.op(Op::kI32Add);
    f.local_set(i);
    f.local_get(x);
    f.i32_const(63);
    f.op(Op::kI32And);
    f.i32_const(7);
    f.op(Op::kI32Eq);
    f.br_if(2);  // -> $outer, skipping the += 100
    f.local_get(i);
    f.local_get(n);
    f.op(Op::kI32LtS);
    f.br_if(0);
    f.end();  // loop
    f.end();  // $inner
    f.local_get(x);
    f.i32_const(100);
    f.op(Op::kI32Add);
    f.local_set(x);
    f.end();  // $outer
    f.local_get(x);
    f.local_get(i);
    f.i32_const(10000);
    f.op(Op::kI32Mul);
    f.op(Op::kI32Add);
    f.end();
  });
  for (i32 n : {1, 2, 40})
    for (i32 seed : {0, 1, 2, 3})
      expect_native_matches(promoted,
                            {Value::from_i32(n), Value::from_i32(seed)});
}

/// run(n, stride) -> i32: mem[i * stride] = i + acc, acc += i * 3, for
/// i < n — past the page the store traps mid-loop.
std::vector<u8> strided_store_module() {
  return build_single_func({{I32, I32}, {I32}}, [](auto& f) {
    const u32 n = 0, stride = 1;
    u32 i = f.add_local(I32);
    u32 acc = f.add_local(I32);
    f.for_loop_i32(i, 0, n, 1, [&] {
      f.local_get(i);
      f.local_get(stride);
      f.op(Op::kI32Mul);
      f.local_get(i);
      f.local_get(acc);
      f.op(Op::kI32Add);
      f.mem_op(Op::kI32Store);
      f.local_get(acc);
      f.local_get(i);
      f.i32_const(3);
      f.op(Op::kI32Mul);
      f.op(Op::kI32Add);
      f.local_set(acc);
    });
    f.local_get(acc);
    f.end();
  });
}

TEST(JitRegCache, OobTrapMidLoopAfterPartialStores) {
  auto bytes = strided_store_module();
  Outcome ref = expect_native_matches(
      bytes, {Value::from_i32(10000), Value::from_i32(12)});
  EXPECT_TRUE(ref.trapped);
  EXPECT_EQ(ref.kind, TrapKind::kMemoryOutOfBounds);
  Outcome ok = expect_native_matches(
      bytes, {Value::from_i32(1000), Value::from_i32(12)});
  EXPECT_FALSE(ok.trapped);
  // The same trap reached from an OSR body entered mid-loop.
  expect_native_matches(bytes, {Value::from_i32(10000), Value::from_i32(12)},
                        osr_config());
}

TEST(JitRegCache, MemoryGrowInsideALoop) {
  // run(n) -> i32: every 50th iteration grows memory by a page, then
  // stores at the old end and sums what it reads back. The grow helper
  // keeps the loop out of register promotion; values must still survive.
  auto bytes = build_single_func({{I32}, {I32}}, [](auto& f) {
    const u32 n = 0;
    u32 i = f.add_local(I32);
    u32 acc = f.add_local(I32);
    u32 top = f.add_local(I32);
    f.i32_const(65536);
    f.local_set(top);
    f.for_loop_i32(i, 0, n, 1, [&] {
      f.local_get(i);
      f.i32_const(50);
      f.op(Op::kI32RemU);
      f.op(Op::kI32Eqz);
      f.if_();
      f.i32_const(1);
      f.op(Op::kMemoryGrow);
      f.i32_const(16);
      f.op(Op::kI32Shl);
      f.local_set(top);
      f.end();
      f.local_get(top);
      f.local_get(i);
      f.i32_const(4);
      f.op(Op::kI32Mul);
      f.op(Op::kI32Add);
      f.local_get(i);
      f.mem_op(Op::kI32Store);
      f.local_get(acc);
      f.local_get(top);
      f.mem_op(Op::kI32Load);
      f.op(Op::kI32Add);
      f.local_get(i);
      f.op(Op::kI32Add);
      f.local_set(acc);
    });
    f.local_get(acc);
    f.op(Op::kMemorySize);
    f.op(Op::kI32Add);
    f.end();
  });
  for (i32 n : {0, 1, 120}) expect_native_matches(bytes, {Value::from_i32(n)});
}

TEST(JitRegCache, OsrEntryIntoAPromotedLoop) {
  // One activation, one long loop: OSR enters the native body at the loop
  // head through its pc-0 branch, which must load the pinned registers
  // from the frame the interpreter handed over.
  auto bytes = build_single_func({{I32, F64}, {F64}}, [](auto& f) {
    const u32 n = 0, seed = 1;
    u32 i = f.add_local(I32);
    u32 a = f.add_local(I64);
    u32 x = f.add_local(F64);
    u32 v = f.add_local(V128T);
    f.i64_const(12345);
    f.local_set(a);
    f.local_get(seed);
    f.local_set(x);
    f.for_loop_i32(i, 0, n, 1, [&] {
      f.local_get(a);
      f.i64_const(6364136223846793005ll);
      f.op(Op::kI64Mul);
      f.i64_const(1442695040888963407ll);
      f.op(Op::kI64Add);
      f.local_set(a);
      f.local_get(x);
      f.f64_const(0.5);
      f.op(Op::kF64Mul);
      f.local_get(i);
      f.op(Op::kF64ConvertI32S);
      f.op(Op::kF64Add);
      f.local_set(x);
      f.local_get(v);
      f.local_get(x);
      f.op(Op::kF64x2Splat);
      f.op(Op::kF64x2Add);
      f.local_set(v);
      f.local_get(i);
      f.i32_const(8);
      f.op(Op::kI32Mul);
      f.local_get(x);
      f.mem_op(Op::kF64Store);
    });
    f.local_get(x);
    f.local_get(a);
    f.i64_const(11);
    f.op(Op::kI64ShrU);
    f.op(Op::kF64ConvertI64S);
    f.op(Op::kF64Add);
    f.local_get(v);
    f.lane_op(Op::kF64x2ExtractLane, 1);
    f.op(Op::kF64Add);
    f.end();
  });
  for (i32 n : {10, 64, 65, 500}) {
    const std::vector<Value> args{Value::from_i32(n), Value::from_f64(0.75)};
    expect_native_matches(bytes, args);
    expect_native_matches(bytes, args, osr_config());
  }
}

TEST(JitRegCache, MoreLiveLocalsThanCacheRegisters) {
  // 10 i32 and 20 f64 loop-carried locals: more than the GPR and XMM
  // caches hold, so some stay in the frame and block-local values evict.
  constexpr u32 kInts = 10, kFloats = 20;
  auto bytes = build_single_func({{I32}, {F64}}, [](auto& f) {
    const u32 n = 0;
    u32 i = f.add_local(I32);
    std::vector<u32> iv, fv;
    for (u32 k = 0; k < kInts; ++k) iv.push_back(f.add_local(I32));
    for (u32 k = 0; k < kFloats; ++k) fv.push_back(f.add_local(F64));
    for (u32 k = 0; k < kFloats; ++k) {
      f.f64_const(1.0 + k);
      f.local_set(fv[k]);
    }
    f.for_loop_i32(i, 0, n, 1, [&] {
      for (u32 k = 0; k < kInts; ++k) {
        f.local_get(iv[k]);
        f.local_get(iv[(k + 1) % kInts]);
        f.i32_const(i32(k * 2 + 1));
        f.op(Op::kI32Mul);
        f.op(Op::kI32Xor);
        f.local_get(i);
        f.op(Op::kI32Add);
        f.local_set(iv[k]);
      }
      for (u32 k = 0; k < kFloats; ++k) {
        f.local_get(fv[k]);
        f.f64_const(0.9);
        f.op(Op::kF64Mul);
        f.local_get(fv[(k + 3) % kFloats]);
        f.f64_const(0.05);
        f.op(Op::kF64Mul);
        f.op(Op::kF64Add);
        f.local_get(iv[k % kInts]);
        f.op(Op::kF64ConvertI32S);
        f.f64_const(1e-9);
        f.op(Op::kF64Mul);
        f.op(Op::kF64Add);
        f.local_set(fv[k]);
      }
    });
    f.f64_const(0);
    for (u32 k = 0; k < kFloats; ++k) {
      f.local_get(fv[k]);
      f.op(Op::kF64Add);
    }
    for (u32 k = 0; k < kInts; ++k) {
      f.local_get(iv[k]);
      f.op(Op::kF64ConvertI32U);
      f.op(Op::kF64Add);
    }
    f.end();
  });
  for (i32 n : {0, 1, 333}) expect_native_matches(bytes, {Value::from_i32(n)});
}

}  // namespace
}  // namespace mpiwasm::test
