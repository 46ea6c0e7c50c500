// On-stack replacement at interpreter loop headers (tiered mode). A
// function that is entered once and keeps looping moves mid-activation onto
// an OSR body: the whole function at the top tier, entered at the loop's
// head with the interpreter's locals as parameters. Every case compares the
// OSR run (native and RegCode OSR bodies) against static kInterp and
// kOptimizing — results, trap kinds, trap points and partial stores (the
// whole linear memory after the call) — and checks where OSR happened, or
// that it was declined.
#include "testlib.h"

#include <array>
#include <cstring>
#include <latch>
#include <thread>

#include "runtime/interp.h"
#include "runtime/regcode.h"
#include "wasm/decoder.h"

namespace mpiwasm::test {
namespace {

using rt::TrapKind;

/// Calls below 64 stay interpreted; the 64th back edge of an activation
/// asks for an OSR body (the final-stage threshold bounds back edges too).
EngineConfig osr_config(bool jit) {
  EngineConfig c;
  c.tier = EngineTier::kTiered;
  c.tierup_baseline_threshold = 64;
  c.tierup_opt_threshold = 64;
  c.tierup_jit_threshold = 64;
  c.jit = jit;
  return c;
}

EngineConfig static_config(EngineTier tier) {
  EngineConfig c;
  c.tier = tier;
  return c;
}

struct Outcome {
  bool trapped = false;
  TrapKind kind = TrapKind::kUnreachable;
  std::array<u64, 2> result{};  // typed result bits (v128 uses both words)
  std::vector<u8> memory;       // linear memory after the call
};

bool operator==(const Outcome& a, const Outcome& b) {
  return a.trapped == b.trapped && (!a.trapped || a.kind == b.kind) &&
         a.result == b.result && a.memory == b.memory;
}

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
  }
  const rt::LinearMemory& mem = inst.memory();
  o.memory.assign(mem.base(), mem.base() + mem.byte_size());
  return o;
}

/// Predecoded indices of the `loop` instructions of defined function 0 —
/// the keys OSR bodies are published under.
std::vector<u32> loop_positions(const std::vector<u8>& bytes) {
  auto decoded = wasm::decode_module({bytes.data(), bytes.size()});
  EXPECT_TRUE(decoded.ok());
  rt::PreFunc pf = rt::predecode_function(*decoded.module, 0);
  std::vector<u32> out;
  for (u32 k = 0; k < pf.code.size(); ++k)
    if (pf.code[k].op == Op::kLoop) out.push_back(k);
  return out;
}

/// Published OSR entries of defined function 0, newest first.
std::vector<const rt::OsrEntry*> osr_entries(const rt::Instance& inst) {
  std::vector<const rt::OsrEntry*> out;
  for (const rt::OsrEntry* e =
           inst.compiled().tiered.units[0].osr.load(std::memory_order_acquire);
       e != nullptr; e = e->next)
    out.push_back(e);
  return out;
}

/// Runs `run(args)` under static kInterp and kOptimizing and under OSR
/// forcing with native and RegCode OSR bodies; every outcome must match
/// the interpreter's. Returns the OSR instances (jit on, jit off) so the
/// caller can inspect where OSR happened.
std::array<std::shared_ptr<rt::Instance>, 2> expect_agree(
    const std::vector<u8>& bytes, const std::vector<Value>& args,
    const Outcome* expected = nullptr) {
  auto interp = instantiate_cfg(bytes, static_config(EngineTier::kInterp));
  const Outcome ref = run_on(*interp, args);
  if (expected != nullptr) {
    EXPECT_EQ(ref.trapped, expected->trapped);
    if (expected->trapped) EXPECT_EQ(ref.kind, expected->kind);
    else EXPECT_EQ(ref.result, expected->result);
  }
  auto opt = instantiate_cfg(bytes, static_config(EngineTier::kOptimizing));
  EXPECT_TRUE(run_on(*opt, args) == ref) << "optimizing vs interp";
  std::array<std::shared_ptr<rt::Instance>, 2> osr;
  for (bool jit : {true, false}) {
    auto inst = instantiate_cfg(bytes, osr_config(jit));
    EXPECT_TRUE(run_on(*inst, args) == ref)
        << "OSR (jit " << (jit ? "on" : "off") << ") vs interp";
    osr[jit ? 0 : 1] = inst;
  }
  return osr;
}

u64 promoted_osr(const rt::Instance& inst) {
  return rt::tierup_snapshot(inst.compiled()).promoted_osr;
}

/// run(outer, inner) -> i64: nested counted loops; every iteration stores
/// o*1000 + i at mem[(o*inner + i) * 4] and accumulates o*i + 1.
std::vector<u8> nested_loops_module() {
  return build_single_func({{I32, I32}, {I64}}, [](auto& f) {
    const u32 outer = 0, inner = 1;
    u32 o = f.add_local(I32);
    u32 i = f.add_local(I32);
    u32 acc = f.add_local(I64);
    f.for_loop_i32(o, 0, outer, 1, [&] {
      f.for_loop_i32(i, 0, inner, 1, [&] {
        f.local_get(o);
        f.local_get(inner);
        f.op(Op::kI32Mul);
        f.local_get(i);
        f.op(Op::kI32Add);
        f.i32_const(4);
        f.op(Op::kI32Mul);
        f.local_get(o);
        f.i32_const(1000);
        f.op(Op::kI32Mul);
        f.local_get(i);
        f.op(Op::kI32Add);
        f.mem_op(Op::kI32Store);
        f.local_get(acc);
        f.local_get(o);
        f.local_get(i);
        f.op(Op::kI32Mul);
        f.i32_const(1);
        f.op(Op::kI32Add);
        f.op(Op::kI64ExtendI32U);
        f.op(Op::kI64Add);
        f.local_set(acc);
      });
    });
    f.local_get(acc);
    f.end();
  });
}

TEST(Osr, NestedLoopsEnterAtInnerHeaderAndFinishTheOuterLoop) {
  auto bytes = nested_loops_module();
  const std::vector<Value> args{Value::from_i32(5), Value::from_i32(100)};
  i64 want = 0;
  for (i64 o = 0; o < 5; ++o)
    for (i64 i = 0; i < 100; ++i) want += o * i + 1;
  Outcome expected;
  expected.result = {u64(want), 0};
  auto osr = expect_agree(bytes, args, &expected);
  const std::vector<u32> loops = loop_positions(bytes);
  ASSERT_EQ(loops.size(), 2u);
  for (const auto& inst : osr) {
    // The 64th back edge is inside the first inner loop: one OSR body,
    // keyed by the inner header, runs the remaining outer iterations too.
    EXPECT_EQ(promoted_osr(*inst), 1u);
    auto entries = osr_entries(*inst);
    ASSERT_EQ(entries.size(), 1u);
    EXPECT_EQ(entries[0]->loop_pos, loops[1]);
    // Every local is a parameter; pc 0 enters the loop.
    EXPECT_EQ(entries[0]->body.num_params, entries[0]->body.num_locals);
    EXPECT_EQ(entries[0]->body.code[0].op, rt::ROp::kBr);
    // The function itself was entered once: it stays interpreted.
    EXPECT_EQ(rt::tierup_snapshot(inst->compiled()).funcs_predecoded, 1u);
  }
  // Short loops never reach the back-edge budget.
  auto small = expect_agree(
      bytes, std::vector<Value>{Value::from_i32(2), Value::from_i32(20)});
  for (const auto& inst : small) EXPECT_EQ(promoted_osr(*inst), 0u);
}

TEST(Osr, I64F64AndV128LocalsCarryAcrossTheEntry) {
  // run(n, seed) -> f64 with an LCG in an i64 local, an f64 recurrence, and
  // a v128 accumulator, all live across the loop header at OSR time.
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
    wasm::V128 init;
    for (int k = 0; k < 4; ++k) init.set_lane<u32, 4>(k, u32(0x10001 * (k + 1)));
    f.v128_const(init);
    f.local_set(v);
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
      f.local_get(i);
      f.op(Op::kI32x4Splat);
      f.op(Op::kI32x4Add);
      f.local_set(v);
    });
    f.local_get(x);
    f.local_get(a);
    f.i64_const(11);
    f.op(Op::kI64ShrU);
    f.op(Op::kF64ConvertI64U);
    f.op(Op::kF64Add);
    f.local_get(v);
    f.lane_op(Op::kI32x4ExtractLane, 3);
    f.op(Op::kF64ConvertI32U);
    f.op(Op::kF64Add);
    f.end();
  });
  auto osr = expect_agree(
      bytes, std::vector<Value>{Value::from_i32(300), Value::from_f64(1.25)});
  for (const auto& inst : osr) EXPECT_EQ(promoted_osr(*inst), 1u);
}

/// run(n): for i in 0..n: mem[i*4] = i + 7 — a bounds-hoisted loop.
std::vector<u8> store_loop_module() {
  return build_single_func({{I32}, {}}, [](auto& f) {
    const u32 n = 0;
    u32 i = f.add_local(I32);
    f.for_loop_i32(i, 0, n, 1, [&] {
      f.local_get(i);
      f.i32_const(4);
      f.op(Op::kI32Mul);
      f.local_get(i);
      f.i32_const(7);
      f.op(Op::kI32Add);
      f.mem_op(Op::kI32Store);
    });
    f.end();
  });
}

TEST(Osr, OobInLastIterationOfHoistedLoopTrapsAtTheSamePoint) {
  auto bytes = store_loop_module();
  // 1 page: iteration 16384 stores at byte 65536, one past the end.
  Outcome expected;
  expected.trapped = true;
  expected.kind = TrapKind::kMemoryOutOfBounds;
  auto osr = expect_agree(bytes, std::vector<Value>{Value::from_i32(16385)},
                          &expected);
  for (const auto& inst : osr) {
    ASSERT_EQ(promoted_osr(*inst), 1u);
    const rt::RFunc& body = osr_entries(*inst)[0]->body;
    // The loop was versioned, and entering at its head lands on the
    // guard — never on the unchecked fast copy behind it.
    ASSERT_EQ(body.code[0].op, rt::ROp::kBr);
    ASSERT_LT(body.code[0].imm, body.code.size());
    EXPECT_EQ(body.code[body.code[0].imm].op, rt::ROp::kMemGuard);
  }
  // In-bounds runs agree too, whichever copy the guard picks on entry.
  expect_agree(bytes, std::vector<Value>{Value::from_i32(16000)});
  expect_agree(bytes, std::vector<Value>{Value::from_i32(16384)});
}

TEST(Osr, MemoryGrowInsideTheLoopAfterOsr) {
  // run(n) -> i32: at i == 100 (after OSR at the 64th back edge) grow by a
  // page; from then on store into and read back from the new page.
  auto bytes = build_single_func(
      {{I32}, {I32}},
      [](auto& f) {
        const u32 n = 0;
        u32 i = f.add_local(I32);
        u32 addr = f.add_local(I32);
        u32 acc = f.add_local(I32);
        f.for_loop_i32(i, 0, n, 1, [&] {
          f.local_get(i);
          f.i32_const(100);
          f.op(Op::kI32Eq);
          f.if_();
          f.i32_const(1);
          f.op(Op::kMemoryGrow);
          f.op(Op::kDrop);
          f.end();
          f.i32_const(65536);
          f.i32_const(0);
          f.local_get(i);
          f.i32_const(100);
          f.op(Op::kI32GeS);
          f.op(Op::kSelect);
          f.local_get(i);
          f.i32_const(4);
          f.op(Op::kI32Mul);
          f.op(Op::kI32Add);
          f.local_set(addr);
          f.local_get(addr);
          f.local_get(i);
          f.i32_const(3);
          f.op(Op::kI32Mul);
          f.mem_op(Op::kI32Store);
          f.local_get(acc);
          f.local_get(addr);
          f.mem_op(Op::kI32Load);
          f.op(Op::kI32Add);
          f.local_set(acc);
        });
        f.local_get(acc);
        f.op(Op::kMemorySize);
        f.op(Op::kI32Add);
        f.end();
      },
      /*memory_pages=*/1);
  Outcome expected;
  expected.result = {u32(3 * (199 * 200 / 2) + 2), 0};
  auto osr =
      expect_agree(bytes, std::vector<Value>{Value::from_i32(200)}, &expected);
  for (const auto& inst : osr) EXPECT_EQ(promoted_osr(*inst), 1u);
}

TEST(Osr, OperandUnderTheLoopLabelDeclinesOsr) {
  // run(n) -> i32 = 1000 + n, with 1000 sitting on the operand stack under
  // the loop label for the whole loop.
  auto bytes = build_single_func({{I32}, {I32}}, [](auto& f) {
    const u32 n = 0;
    u32 i = f.add_local(I32);
    f.i32_const(1000);
    f.loop();
    f.local_get(i);
    f.i32_const(1);
    f.op(Op::kI32Add);
    f.local_tee(i);
    f.local_get(n);
    f.op(Op::kI32LtS);
    f.br_if(0);
    f.end();
    f.local_get(i);
    f.op(Op::kI32Add);
    f.end();
  });
  Outcome expected;
  expected.result = {1500, 0};
  auto osr =
      expect_agree(bytes, std::vector<Value>{Value::from_i32(500)}, &expected);
  for (const auto& inst : osr) {
    EXPECT_EQ(promoted_osr(*inst), 0u);
    EXPECT_TRUE(osr_entries(*inst).empty());
  }
}

TEST(Osr, ConcurrentThreadsCompileOnceAndShareTheBody) {
  // run(n) -> i64: sum of i*i; two host threads on two instances of one
  // compiled module hit the same loop header at once.
  auto bytes = build_single_func({{I32}, {I64}}, [](auto& f) {
    const u32 n = 0;
    u32 i = f.add_local(I32);
    u32 acc = f.add_local(I64);
    f.for_loop_i32(i, 0, n, 1, [&] {
      f.local_get(acc);
      f.local_get(i);
      f.op(Op::kI64ExtendI32U);
      f.local_get(i);
      f.op(Op::kI64ExtendI32U);
      f.op(Op::kI64Mul);
      f.op(Op::kI64Add);
      f.local_set(acc);
    });
    f.local_get(acc);
    f.end();
  });
  constexpr i32 kN = 200000;
  u64 want = 0;
  for (u64 k = 0; k < u64(kN); ++k) want += k * k;
  for (bool jit : {true, false}) {
    auto cm = rt::compile({bytes.data(), bytes.size()}, osr_config(jit));
    rt::ImportTable imports;
    rt::Instance a(cm, imports), b(cm, imports);
    std::latch start(2);
    u64 got[2] = {0, 0};
    auto worker = [&](rt::Instance& inst, u64& out) {
      start.arrive_and_wait();
      out = u64(
          inst.invoke("run", std::vector<Value>{Value::from_i32(kN)}).as_i64());
    };
    std::thread ta(worker, std::ref(a), std::ref(got[0]));
    std::thread tb(worker, std::ref(b), std::ref(got[1]));
    ta.join();
    tb.join();
    EXPECT_EQ(got[0], want);
    EXPECT_EQ(got[1], want);
    EXPECT_EQ(rt::tierup_snapshot(*cm).promoted_osr, 1u);
    EXPECT_EQ(osr_entries(a).size(), 1u);
    // A later activation finds the published body without compiling.
    EXPECT_EQ(u64(a.invoke("run", std::vector<Value>{Value::from_i32(kN)})
                      .as_i64()),
              want);
    EXPECT_EQ(rt::tierup_snapshot(*cm).promoted_osr, 1u);
  }
}

TEST(Osr, JitOffLandsInOptimizingRegCode) {
  auto bytes = nested_loops_module();
  auto osr = expect_agree(
      bytes, std::vector<Value>{Value::from_i32(3), Value::from_i32(200)});
  const rt::RFunc& native = osr_entries(*osr[0])[0]->body;
  const rt::RFunc& regcode = osr_entries(*osr[1])[0]->body;
  EXPECT_NE(native.jit_entry, nullptr);
  EXPECT_EQ(regcode.jit_entry, nullptr);
  // OSR compile time is charged to the tier-up ledger.
  for (const auto& inst : osr)
    EXPECT_GT(rt::tierup_snapshot(inst->compiled()).tierup_compile_ms, 0.0);
}

// kInterp has no tier units: an activation that counted back edges there
// would reach osr_entry() with nothing to index.
TEST(Osr, StaticInterpreterNeverCounts) {
  auto bytes = nested_loops_module();
  auto cm = rt::compile({bytes.data(), bytes.size()},
                        static_config(EngineTier::kInterp));
  rt::ImportTable imports;
  rt::Instance inst(cm, imports);
  inst.invoke("run", std::vector<Value>{Value::from_i32(5), Value::from_i32(100)});
  EXPECT_EQ(rt::tierup_snapshot(*cm).promoted_osr, 0u);
}

}  // namespace
}  // namespace mpiwasm::test
