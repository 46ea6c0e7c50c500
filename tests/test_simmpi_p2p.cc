// simmpi point-to-point tests: blocking/nonblocking semantics, matching
// rules (tags, wildcards, FIFO), eager vs rendezvous protocols, errors.
#include <gtest/gtest.h>

#if defined(__linux__)
#include <sched.h>
#endif

#include <atomic>
#include <chrono>
#include <numeric>
#include <thread>

#include "simmpi/api.h"
#include "simmpi/world.h"
#include "support/timing.h"

namespace mpiwasm::simmpi {
namespace {

TEST(SimMpiP2P, BlockingSendRecvSmall) {
  World world(2);
  world.run([](Rank& r) {
    if (r.rank() == 0) {
      int v = 12345;
      r.send(&v, 1, Datatype::kInt, 1, 0);
    } else {
      int v = 0;
      Status st = r.recv(&v, 1, Datatype::kInt, 0, 0);
      EXPECT_EQ(v, 12345);
      EXPECT_EQ(st.source, 0);
      EXPECT_EQ(st.tag, 0);
      EXPECT_EQ(st.count(Datatype::kInt), 1);
    }
  });
}

TEST(SimMpiP2P, RendezvousLargeMessage) {
  // 1 MiB exceeds the eager limit: exercises the single-copy rendezvous.
  World world(2);
  world.run([](Rank& r) {
    const size_t n = 1 << 20;
    if (r.rank() == 0) {
      std::vector<u8> buf(n);
      for (size_t i = 0; i < n; ++i) buf[i] = u8(i * 13);
      r.send(buf.data(), int(n), Datatype::kByte, 1, 5);
    } else {
      std::vector<u8> buf(n, 0);
      r.recv(buf.data(), int(n), Datatype::kByte, 0, 5);
      for (size_t i = 0; i < n; i += 4097) EXPECT_EQ(buf[i], u8(i * 13));
    }
  });
}

TEST(SimMpiP2P, TagMatchingOutOfOrder) {
  // Receiver asks for tag 2 first even though tag 1 was sent first.
  World world(2);
  world.run([](Rank& r) {
    if (r.rank() == 0) {
      int a = 100, b = 200;
      r.send(&a, 1, Datatype::kInt, 1, 1);
      r.send(&b, 1, Datatype::kInt, 1, 2);
    } else {
      int v2 = 0, v1 = 0;
      r.recv(&v2, 1, Datatype::kInt, 0, 2);
      r.recv(&v1, 1, Datatype::kInt, 0, 1);
      EXPECT_EQ(v2, 200);
      EXPECT_EQ(v1, 100);
    }
  });
}

TEST(SimMpiP2P, FifoOrderPerTag) {
  World world(2);
  world.run([](Rank& r) {
    if (r.rank() == 0) {
      for (int i = 0; i < 20; ++i) r.send(&i, 1, Datatype::kInt, 1, 0);
    } else {
      for (int i = 0; i < 20; ++i) {
        int v = -1;
        r.recv(&v, 1, Datatype::kInt, 0, 0);
        EXPECT_EQ(v, i);  // per-(src,tag) FIFO
      }
    }
  });
}

TEST(SimMpiP2P, AnySourceAnyTag) {
  World world(3);
  world.run([](Rank& r) {
    if (r.rank() == 0) {
      int got = 0;
      for (int k = 0; k < 2; ++k) {
        int v = 0;
        Status st = r.recv(&v, 1, Datatype::kInt, kAnySource, kAnyTag);
        EXPECT_EQ(v, st.source * 10 + st.tag);
        ++got;
      }
      EXPECT_EQ(got, 2);
    } else {
      int v = r.rank() * 10 + r.rank();
      r.send(&v, 1, Datatype::kInt, 0, r.rank());
    }
  });
}

TEST(SimMpiP2P, IsendIrecvWaitall) {
  World world(2);
  world.run([](Rank& r) {
    constexpr int kN = 8;
    if (r.rank() == 0) {
      std::vector<int> data(kN);
      std::iota(data.begin(), data.end(), 0);
      std::vector<Request> reqs;
      for (int i = 0; i < kN; ++i)
        reqs.push_back(r.isend(&data[i], 1, Datatype::kInt, 1, i));
      r.waitall(reqs);
    } else {
      std::vector<int> out(kN, -1);
      std::vector<Request> reqs;
      for (int i = 0; i < kN; ++i)
        reqs.push_back(r.irecv(&out[i], 1, Datatype::kInt, 0, i));
      r.waitall(reqs);
      for (int i = 0; i < kN; ++i) EXPECT_EQ(out[i], i);
    }
  });
}

TEST(SimMpiP2P, TestPollsToCompletion) {
  World world(2);
  world.run([](Rank& r) {
    if (r.rank() == 0) {
      int v = 7;
      // Give the receiver a head start so test() sees both states.
      r.send(&v, 1, Datatype::kInt, 1, 0);
    } else {
      int v = 0;
      Request req = r.irecv(&v, 1, Datatype::kInt, 0, 0);
      Status st;
      while (!r.test(req, &st)) {
      }
      EXPECT_EQ(v, 7);
    }
  });
}

TEST(SimMpiP2P, SendrecvExchanges) {
  World world(4);
  world.run([](Rank& r) {
    int right = (r.rank() + 1) % r.size();
    int left = (r.rank() - 1 + r.size()) % r.size();
    int mine = r.rank() * 11;
    int theirs = -1;
    r.sendrecv(&mine, 1, Datatype::kInt, right, 3, &theirs, 1, Datatype::kInt,
               left, 3);
    EXPECT_EQ(theirs, left * 11);
  });
}

TEST(SimMpiP2P, IprobeSeesPendingMessage) {
  World world(2);
  world.run([](Rank& r) {
    if (r.rank() == 0) {
      int v = 1;
      r.send(&v, 1, Datatype::kInt, 1, 9);
      r.barrier();
    } else {
      r.barrier();  // after this the message must be in the unexpected queue
      Status st;
      EXPECT_TRUE(r.iprobe(0, 9, kCommWorld, &st));
      EXPECT_EQ(st.source, 0);
      EXPECT_EQ(st.tag, 9);
      EXPECT_FALSE(r.iprobe(0, 1234, kCommWorld, nullptr));
      int v = 0;
      r.recv(&v, 1, Datatype::kInt, 0, 9);
    }
  });
}

TEST(SimMpiP2P, TruncationIsAnError) {
  World world(2);
  world.run([](Rank& r) {
    if (r.rank() == 0) {
      std::vector<int> big(16, 1);
      r.send(big.data(), 16, Datatype::kInt, 1, 0);
    } else {
      int small[2];
      EXPECT_THROW(r.recv(small, 2, Datatype::kInt, 0, 0), MpiError);
    }
  });
}

TEST(SimMpiP2P, InvalidArgumentsThrow) {
  World world(2);
  world.run([](Rank& r) {
    int v = 0;
    if (r.rank() == 0) {
      EXPECT_THROW(r.send(&v, 1, Datatype::kInt, 7, 0), MpiError);
      EXPECT_THROW(r.send(&v, 1, Datatype::kInt, 1, -5), MpiError);
      EXPECT_THROW(r.send(&v, -1, Datatype::kInt, 1, 0), MpiError);
      EXPECT_THROW(r.recv(&v, 1, Datatype::kInt, 9, 0), MpiError);
    }
  });
}

TEST(SimMpiP2P, AbortUnblocksPeers) {
  World world(2);
  EXPECT_THROW(world.run([](Rank& r) {
    if (r.rank() == 0) {
      int v;
      // Would block forever; rank 1's abort must unblock it.
      try {
        r.recv(&v, 1, Datatype::kInt, 1, 0);
      } catch (const MpiAbort&) {
        throw;  // expected path
      }
    } else {
      r.abort(3);
    }
  }),
               MpiError);
}

TEST(SimMpiP2P, WtimeAdvances) {
  World world(1);
  world.run([](Rank& r) {
    f64 t0 = r.wtime();
    f64 t1 = r.wtime();
    EXPECT_GE(t1, t0);
  });
}

TEST(SimMpiP2P, CurrentContextAccessor) {
  EXPECT_FALSE(in_mpi_context());
  EXPECT_THROW(ctx(), MpiError);
  World world(2);
  world.run([](Rank& r) {
    EXPECT_TRUE(in_mpi_context());
    EXPECT_EQ(&ctx(), &r);
  });
}

TEST(SimMpiP2P, SelfSendViaNonblocking) {
  World world(1);
  world.run([](Rank& r) {
    int in = 5, out = 0;
    Request rr = r.irecv(&out, 1, Datatype::kInt, 0, 0);
    r.send(&in, 1, Datatype::kInt, 0, 0);
    r.wait(rr);
    EXPECT_EQ(out, 5);
  });
}

TEST(SimMpiP2P, ZeroByteMessagesWithNullBuffers) {
  // A count-0 message may carry null buffers on both sides; each delivery
  // path must complete it without touching them.
  World world(2);
  world.run([](Rank& r) {
    auto expect_empty = [](const Status& st, int tag) {
      EXPECT_EQ(st.source, 0);
      EXPECT_EQ(st.tag, tag);
      EXPECT_EQ(st.count(Datatype::kInt), 0);
    };
    if (r.rank() == 0) {
      r.barrier();  // 1: receiver has posted tag 1
      r.send(nullptr, 0, Datatype::kInt, 1, 1);
      r.send(nullptr, 0, Datatype::kInt, 1, 2);
      r.send(nullptr, 0, Datatype::kInt, 1, 3);
      r.barrier();  // 2: tags 2 and 3 sit in the unexpected queue
    } else {
      // Posted receive: the sender's delivery copies straight into it.
      Request posted = r.irecv(nullptr, 0, Datatype::kInt, 0, 1);
      r.barrier();
      r.barrier();
      expect_empty(r.wait(posted), 1);
      // Unexpected eager message matched by a blocking receive.
      expect_empty(r.recv(nullptr, 0, Datatype::kInt, 0, 2), 2);
      // Unexpected eager message matched at irecv time.
      Request late = r.irecv(nullptr, 0, Datatype::kInt, 0, 3);
      expect_empty(r.wait(late), 3);
    }
  });
}

/// Payload of ping-pong round `round` sent by `rank`: distinct per round
/// and direction, so a stale or crossed message fails the check.
u64 pingpong_word(int round, int rank) {
  return (u64(round) << 8) ^ (u64(rank) << 62) ^ 0x5a5a5a5aull;
}

// 8-byte ping-pong with the receive posted before the message is sent:
// every delivery matches a posted receive, and every wait that has to
// block goes through the spin on the mailbox signal word.
TEST(SimMpiP2P, PingPongReceivePostedFirst) {
  constexpr int kRounds = 10000;
  World world(2);
  world.run([](Rank& r) {
    const int me = r.rank(), peer = 1 - me;
    u64 in = 0;
    Request req = r.irecv(&in, 1, Datatype::kLongLong, peer, 0);
    r.barrier();  // both receives are posted before the first send
    for (int k = 0; k < kRounds; ++k) {
      if (me == 0) {
        const u64 out = pingpong_word(k, me);
        r.send(&out, 1, Datatype::kLongLong, peer, 0);
        r.wait(req);
        ASSERT_EQ(in, pingpong_word(k, peer)) << "round " << k;
        if (k + 1 < kRounds)
          req = r.irecv(&in, 1, Datatype::kLongLong, peer, 0);
      } else {
        r.wait(req);
        ASSERT_EQ(in, pingpong_word(k, peer)) << "round " << k;
        if (k + 1 < kRounds)
          req = r.irecv(&in, 1, Datatype::kLongLong, peer, 0);
        const u64 out = pingpong_word(k, me);
        r.send(&out, 1, Datatype::kLongLong, peer, 0);
      }
    }
  });
}

// The same exchange with the send issued before the receive is posted:
// the reply is often already queued as an unexpected message when the
// blocking receive starts, or lands while it spins.
TEST(SimMpiP2P, PingPongSendFirst) {
  constexpr int kRounds = 10000;
  World world(2);
  world.run([](Rank& r) {
    const int me = r.rank(), peer = 1 - me;
    for (int k = 0; k < kRounds; ++k) {
      const u64 out = pingpong_word(k, me);
      u64 in = 0;
      r.send(&out, 1, Datatype::kLongLong, peer, 0);
      r.recv(&in, 1, Datatype::kLongLong, peer, 0);
      ASSERT_EQ(in, pingpong_word(k, peer)) << "round " << k;
    }
  });
}

TEST(SimMpiP2P, LateSenderWakesParkedReceiver) {
  // The sender shows up well after the receiver's spin budget is spent, so
  // the receive must be delivered through the park/wake fallback.
  World world(2);
  world.run([](Rank& r) {
    if (r.rank() == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      int v = 4242;
      r.send(&v, 1, Datatype::kInt, 1, 7);
    } else {
      int v = 0;
      const Status st = r.recv(&v, 1, Datatype::kInt, 0, 7);
      EXPECT_EQ(v, 4242);
      EXPECT_EQ(st.source, 0);
    }
  });
}

TEST(SimMpiP2P, AbortUnblocksPeerInsideSpin) {
  // Rank 1 aborts the moment rank 0's receive is posted, i.e. while rank 0
  // is (almost always) still in its spin phase; the spin must notice the
  // abort without waiting out a park.
  World world(2);
  std::atomic<u64> unblocked_ns{0};
  EXPECT_THROW(world.run([&](Rank& r) {
    if (r.rank() == 0) {
      int v;
      const u64 t0 = now_ns();
      try {
        r.recv(&v, 1, Datatype::kInt, 1, 0);
      } catch (const MpiAbort&) {
        unblocked_ns = now_ns() - t0;
        throw;
      }
    } else {
      detail::Mailbox& box = r.world().box(0);
      while (true) {
        std::lock_guard<detail::SpinMutex> lock(box.mu);
        if (!box.posted.empty()) break;
      }
      r.abort(3);
    }
  }),
               MpiError);
  EXPECT_GT(unblocked_ns.load(), 0u);
  EXPECT_LT(unblocked_ns.load(), u64(5'000'000'000));  // far below the watchdog
}

TEST(SimMpiP2P, AbortUnblocksPeerWaitingForMailboxLock) {
  // Rank 1 holds rank 0's mailbox lock while rank 0's receive contends for
  // it, and the abort is raised before the lock is released. The lock
  // itself never checks the abort flag; rank 0 must see it as soon as it
  // gets the lock and reaches its wait.
  World world(2);
  std::atomic<bool> held{false}, receiving{false};
  std::atomic<u64> unblocked_ns{0};
  EXPECT_THROW(world.run([&](Rank& r) {
    if (r.rank() == 0) {
      while (!held.load()) std::this_thread::yield();
      int v;
      receiving = true;
      const u64 t0 = now_ns();
      try {
        r.recv(&v, 1, Datatype::kInt, 1, 0);
      } catch (const MpiAbort&) {
        unblocked_ns = now_ns() - t0;
        throw;
      }
    } else {
      detail::Mailbox& box = r.world().box(0);
      std::unique_lock<detail::SpinMutex> hold(box.mu);
      held = true;
      while (!receiving.load()) std::this_thread::yield();
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      // request_abort sets the flag, then takes every mailbox lock to
      // signal, so it waits on the lock this thread holds.
      std::thread aborter([&] { r.world().request_abort(3); });
      while (!r.world().aborting()) std::this_thread::yield();
      hold.unlock();
      aborter.join();
      throw MpiAbort(3);
    }
  }),
               MpiError);
  EXPECT_GT(unblocked_ns.load(), 0u);
  EXPECT_LT(unblocked_ns.load(), u64(5'000'000'000));  // far below the watchdog
}

// Three senders stream sequence-numbered words at rank 0, which matches
// them with kAnySource: every message must arrive exactly once, and each
// sender's messages in order (MPI non-overtaking), however the senders'
// pushes interleave with the receiver under the mailbox lock.
void any_source_fan_in(bool poll) {
  constexpr int kSenders = 3;
  constexpr u32 kMsgs = 20'000;
  World world(kSenders + 1);
  world.run([&](Rank& r) {
    if (r.rank() != 0) {
      for (u32 k = 0; k < kMsgs; ++k) {
        const u64 word = u64(r.rank()) << 32 | k;
        r.send(&word, 1, Datatype::kLongLong, 0, 5);
      }
      return;
    }
    std::vector<u32> next(kSenders + 1, 0);
    for (u32 m = 0; m < kSenders * kMsgs; ++m) {
      u64 word = 0;
      Status st;
      if (poll) {
        Request req = r.irecv(&word, 1, Datatype::kLongLong, kAnySource, 5);
        while (!r.test(req, &st)) {
        }
      } else {
        st = r.recv(&word, 1, Datatype::kLongLong, kAnySource, 5);
      }
      const int src = int(word >> 32);
      ASSERT_EQ(st.source, src) << "message " << m;
      ASSERT_GE(src, 1);
      ASSERT_LE(src, kSenders);
      ASSERT_EQ(u32(word), next[size_t(src)]) << "from rank " << src;
      ++next[size_t(src)];
    }
    for (int s = 1; s <= kSenders; ++s) EXPECT_EQ(next[size_t(s)], kMsgs);
    EXPECT_FALSE(r.iprobe(kAnySource, kAnyTag, kCommWorld, nullptr))
        << "no message may arrive twice";
  });
}

TEST(SimMpiP2P, AnySourceFanInBlockingRecv) { any_source_fan_in(false); }

TEST(SimMpiP2P, AnySourceFanInIrecvTestPoll) { any_source_fan_in(true); }

TEST(SimMpiP2P, RendezvousSendWaitsForLateReceiver) {
  // A rendezvous sender blocks until the receiver copies its buffer; a
  // receiver arriving after the spin budget wakes it from the park.
  World world(2);
  world.run([](Rank& r) {
    const size_t n = 1 << 20;  // above the eager limit
    if (r.rank() == 0) {
      std::vector<u8> buf(n);
      for (size_t i = 0; i < n; ++i) buf[i] = u8(i * 7 + 1);
      r.send(buf.data(), int(n), Datatype::kByte, 1, 4);
    } else {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      std::vector<u8> buf(n, 0);
      r.recv(buf.data(), int(n), Datatype::kByte, 0, 4);
      for (size_t i = 0; i < n; ++i) ASSERT_EQ(buf[i], u8(i * 7 + 1));
    }
  });
}

TEST(SimMpiP2P, SpinWaitsOnlyWithoutOversubscription) {
  // Constructing a World starts no threads, so the oversubscribed case is
  // checked without running it.
  EXPECT_TRUE(World(1).spin_waits());
  const unsigned hw = std::thread::hardware_concurrency();
  if (hw > 0) EXPECT_FALSE(World(int(hw) + 1).spin_waits());
#if defined(__linux__)
  // Pinned to one CPU (taskset, cpusets), a second rank oversubscribes it
  // however many cores the host has.
  std::thread([] {
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(sched_getcpu(), &one);
    ASSERT_EQ(sched_setaffinity(0, sizeof(one), &one), 0);
    EXPECT_TRUE(World(1).spin_waits());
    EXPECT_FALSE(World(2).spin_waits());
  }).join();
#endif
}

#if defined(__linux__)
TEST(SimMpiP2P, OversubscribedExchangesMatch) {
  // Two ranks pinned to one CPU: blocked waits yield before parking and
  // contended mailbox locks yield at once. Every exchange must still match.
  std::thread([] {
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(sched_getcpu(), &one);
    ASSERT_EQ(sched_setaffinity(0, sizeof(one), &one), 0);
    World world(2);
    ASSERT_FALSE(world.spin_waits());
    world.run([](Rank& r) {
      const int peer = 1 - r.rank();
      for (int k = 0; k < 2000; ++k) {
        int out = 2 * k + r.rank(), in = -1;
        r.sendrecv(&out, 1, Datatype::kInt, peer, 0, &in, 1, Datatype::kInt,
                   peer, 0);
        ASSERT_EQ(in, 2 * k + peer) << "exchange " << k;
      }
    });
  }).join();
}
#endif

}  // namespace
}  // namespace mpiwasm::simmpi
