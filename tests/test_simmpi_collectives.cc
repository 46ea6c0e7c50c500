// Collective correctness: every collective validated against a sequential
// reference over parameter sweeps (ranks x datatypes x ops x counts).
#include <gtest/gtest.h>

#include <numeric>

#include "simmpi/reduce_ops.h"
#include "simmpi/world.h"

namespace mpiwasm::simmpi {
namespace {

struct SweepParam {
  int ranks;
  int count;
};

class CollectiveSweep : public ::testing::TestWithParam<SweepParam> {};

INSTANTIATE_TEST_SUITE_P(
    RanksAndCounts, CollectiveSweep,
    ::testing::Values(SweepParam{1, 1}, SweepParam{2, 1}, SweepParam{2, 64},
                      SweepParam{3, 17}, SweepParam{4, 128}, SweepParam{5, 33},
                      SweepParam{8, 256}),
    [](const auto& info) {
      return "r" + std::to_string(info.param.ranks) + "_c" +
             std::to_string(info.param.count);
    });

TEST_P(CollectiveSweep, Barrier) {
  auto [ranks, count] = GetParam();
  (void)count;
  World world(ranks);
  std::atomic<int> phase_counter{0};
  world.run([&](Rank& r) {
    for (int phase = 0; phase < 3; ++phase) {
      phase_counter.fetch_add(1);
      r.barrier();
      // After the barrier every rank must have bumped the counter.
      EXPECT_GE(phase_counter.load(), (phase + 1) * r.size());
      r.barrier();
    }
  });
}

TEST_P(CollectiveSweep, BcastFromEveryRoot) {
  auto [ranks, count] = GetParam();
  World world(ranks);
  world.run([&, count = count](Rank& r) {
    for (int root = 0; root < r.size(); ++root) {
      std::vector<i32> buf(count);
      if (r.rank() == root)
        for (int i = 0; i < count; ++i) buf[i] = root * 1000 + i;
      r.bcast(buf.data(), count, Datatype::kInt, root);
      for (int i = 0; i < count; ++i) EXPECT_EQ(buf[i], root * 1000 + i);
    }
  });
}

TEST_P(CollectiveSweep, ReduceSumMatchesReference) {
  auto [ranks, count] = GetParam();
  World world(ranks);
  world.run([&, count = count](Rank& r) {
    std::vector<f64> in(count), out(count, -1);
    for (int i = 0; i < count; ++i) in[i] = f64(r.rank() + 1) * (i + 1);
    r.reduce(in.data(), out.data(), count, Datatype::kDouble, ReduceOp::kSum, 0);
    if (r.rank() == 0) {
      int n = r.size();
      for (int i = 0; i < count; ++i) {
        f64 expect = f64(n) * f64(n + 1) / 2.0 * (i + 1);
        EXPECT_DOUBLE_EQ(out[i], expect) << "i=" << i;
      }
    }
  });
}

TEST_P(CollectiveSweep, AllreduceEveryOp) {
  auto [ranks, count] = GetParam();
  World world(ranks);
  world.run([&, count = count](Rank& r) {
    const int n = r.size();
    // SUM / MAX / MIN on ints.
    std::vector<i32> in(count), out(count);
    for (int i = 0; i < count; ++i) in[i] = (r.rank() + 1) * 10 + i % 3;
    r.allreduce(in.data(), out.data(), count, Datatype::kInt, ReduceOp::kSum);
    for (int i = 0; i < count; ++i)
      EXPECT_EQ(out[i], n * (n + 1) / 2 * 10 + n * (i % 3));
    r.allreduce(in.data(), out.data(), count, Datatype::kInt, ReduceOp::kMax);
    for (int i = 0; i < count; ++i) EXPECT_EQ(out[i], n * 10 + i % 3);
    r.allreduce(in.data(), out.data(), count, Datatype::kInt, ReduceOp::kMin);
    for (int i = 0; i < count; ++i) EXPECT_EQ(out[i], 10 + i % 3);
    // Bitwise on unsigned.
    std::vector<u32> uin(count), uout(count);
    for (int i = 0; i < count; ++i) uin[i] = 1u << (r.rank() % 31);
    r.allreduce(uin.data(), uout.data(), count, Datatype::kUnsigned,
                ReduceOp::kBor);
    for (int i = 0; i < count; ++i) {
      u32 expect = 0;
      for (int k = 0; k < n; ++k) expect |= 1u << (k % 31);
      EXPECT_EQ(uout[i], expect);
    }
  });
}

TEST_P(CollectiveSweep, GatherCollectsInRankOrder) {
  auto [ranks, count] = GetParam();
  World world(ranks);
  world.run([&, count = count](Rank& r) {
    std::vector<i32> mine(count, r.rank() * 7);
    std::vector<i32> all(size_t(count) * r.size(), -1);
    r.gather(mine.data(), count, all.data(), count, Datatype::kInt, 0);
    if (r.rank() == 0) {
      for (int src = 0; src < r.size(); ++src)
        for (int i = 0; i < count; ++i)
          EXPECT_EQ(all[size_t(src) * count + i], src * 7);
    }
  });
}

TEST_P(CollectiveSweep, ScatterDistributes) {
  auto [ranks, count] = GetParam();
  World world(ranks);
  world.run([&, count = count](Rank& r) {
    std::vector<i32> all;
    if (r.rank() == 0) {
      all.resize(size_t(count) * r.size());
      for (size_t i = 0; i < all.size(); ++i) all[i] = i32(i);
    }
    std::vector<i32> mine(count, -1);
    r.scatter(all.data(), count, mine.data(), count, Datatype::kInt, 0);
    for (int i = 0; i < count; ++i)
      EXPECT_EQ(mine[i], r.rank() * count + i);
  });
}

TEST_P(CollectiveSweep, AllgatherEveryoneSeesAll) {
  auto [ranks, count] = GetParam();
  World world(ranks);
  world.run([&, count = count](Rank& r) {
    std::vector<i32> mine(count, r.rank() + 1);
    std::vector<i32> all(size_t(count) * r.size(), -1);
    r.allgather(mine.data(), count, all.data(), count, Datatype::kInt);
    for (int src = 0; src < r.size(); ++src)
      for (int i = 0; i < count; ++i)
        EXPECT_EQ(all[size_t(src) * count + i], src + 1);
  });
}

TEST_P(CollectiveSweep, AlltoallTransposes) {
  auto [ranks, count] = GetParam();
  World world(ranks);
  world.run([&, count = count](Rank& r) {
    int n = r.size();
    std::vector<i32> send(size_t(count) * n), recv(size_t(count) * n, -1);
    for (int dst = 0; dst < n; ++dst)
      for (int i = 0; i < count; ++i)
        send[size_t(dst) * count + i] = r.rank() * 1000 + dst;
    r.alltoall(send.data(), count, recv.data(), count, Datatype::kInt);
    for (int src = 0; src < n; ++src)
      for (int i = 0; i < count; ++i)
        EXPECT_EQ(recv[size_t(src) * count + i], src * 1000 + r.rank());
  });
}

TEST_P(CollectiveSweep, AlltoallvVariableCounts) {
  auto [ranks, count] = GetParam();
  World world(ranks);
  world.run([&, count = count](Rank& r) {
    int n = r.size();
    // Rank r sends (dst + 1) * base elements to dst.
    int base = std::max(count / 4, 1);
    std::vector<int> scnt(n), sdis(n), rcnt(n), rdis(n);
    int acc = 0;
    for (int d = 0; d < n; ++d) {
      scnt[d] = (d + 1) * base;
      sdis[d] = acc;
      acc += scnt[d];
    }
    std::vector<i32> send(acc);
    for (int d = 0; d < n; ++d)
      for (int i = 0; i < scnt[d]; ++i)
        send[size_t(sdis[d]) + i] = r.rank() * 100 + d;
    // Everyone receives (me + 1) * base from each source.
    acc = 0;
    for (int s = 0; s < n; ++s) {
      rcnt[s] = (r.rank() + 1) * base;
      rdis[s] = acc;
      acc += rcnt[s];
    }
    std::vector<i32> recv(acc, -1);
    r.alltoallv(send.data(), scnt.data(), sdis.data(), recv.data(),
                rcnt.data(), rdis.data(), Datatype::kInt);
    for (int s = 0; s < n; ++s)
      for (int i = 0; i < rcnt[s]; ++i)
        EXPECT_EQ(recv[size_t(rdis[s]) + i], s * 100 + r.rank());
  });
}

TEST(ReduceOps, FloatMinMaxAndProd) {
  std::vector<f32> a{1.5f, -2.0f, 3.0f};
  std::vector<f32> b{0.5f, -1.0f, 4.0f};
  apply_reduce(ReduceOp::kMax, Datatype::kFloat, a.data(), b.data(), 3);
  EXPECT_EQ(b[0], 1.5f);
  EXPECT_EQ(b[1], -1.0f);
  EXPECT_EQ(b[2], 4.0f);
  std::vector<f64> c{2.0, 3.0}, d{4.0, 5.0};
  apply_reduce(ReduceOp::kProd, Datatype::kDouble, c.data(), d.data(), 2);
  EXPECT_DOUBLE_EQ(d[0], 8.0);
  EXPECT_DOUBLE_EQ(d[1], 15.0);
}

TEST(ReduceOps, LogicalOps) {
  std::vector<i32> a{1, 0, 5}, b{1, 1, 0};
  apply_reduce(ReduceOp::kLand, Datatype::kInt, a.data(), b.data(), 3);
  EXPECT_EQ(b[0], 1);
  EXPECT_EQ(b[1], 0);
  EXPECT_EQ(b[2], 0);
}

TEST(ReduceOps, SignedSumWrapsLikeTwosComplement) {
  // MPI_SUM over signed integers wraps instead of overflowing (signed
  // overflow would be undefined behaviour in the reduction loop).
  World world(2);
  world.run([](Rank& r) {
    const i32 in32 = r.rank() == 0 ? INT32_MAX : 1;
    i32 out32 = 0;
    r.allreduce(&in32, &out32, 1, Datatype::kInt, ReduceOp::kSum);
    EXPECT_EQ(out32, INT32_MIN);
    const i64 in64 = r.rank() == 0 ? INT64_MAX : 1;
    i64 out64 = 0;
    r.allreduce(&in64, &out64, 1, Datatype::kLongLong, ReduceOp::kSum);
    EXPECT_EQ(out64, INT64_MIN);
  });
  i32 a = INT32_MAX, b = 2;
  apply_reduce(ReduceOp::kProd, Datatype::kInt, &a, &b, 1);
  EXPECT_EQ(b, -2);
}

TEST(ReduceOps, BitwiseOnFloatThrows) {
  f32 a = 1, b = 2;
  EXPECT_THROW(apply_reduce(ReduceOp::kBand, Datatype::kFloat, &a, &b, 1),
               MpiError);
}

}  // namespace
}  // namespace mpiwasm::simmpi
