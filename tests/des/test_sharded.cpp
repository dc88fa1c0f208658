// ShardedSimulator: conservative windows, canonical mailbox merge,
// lookahead enforcement, stop/resume, worker thread plumbing and the
// spin-then-park window barrier.
#include "des/sharded.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <mutex>
#include <thread>
#include <vector>

#include "qbase/assert.hpp"
#include "qbase/units.hpp"

namespace qnetp::des {
namespace {

using namespace qnetp::literals;

TEST(Sharded, SingleShardPassthrough) {
  ShardedSimulator ssim(1);
  std::vector<int> order;
  ssim.shard(0).schedule(2_ms, [&] { order.push_back(2); });
  ssim.shard(0).schedule(1_ms, [&] { order.push_back(1); });
  const auto ran = ssim.run_until(TimePoint::origin() + 5_ms);
  EXPECT_EQ(ran, 2u);
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(ssim.now(), TimePoint::origin() + 5_ms);
  EXPECT_EQ(ssim.events_executed(), 2u);
}

TEST(Sharded, EmptyRunAdvancesToHorizon) {
  ShardedSimulator ssim(2);
  ssim.set_lookahead(1_ms);
  ssim.run_until(TimePoint::origin() + 7_ms);
  EXPECT_EQ(ssim.now(), TimePoint::origin() + 7_ms);
  EXPECT_EQ(ssim.shard(0).now(), TimePoint::origin() + 7_ms);
  EXPECT_EQ(ssim.shard(1).now(), TimePoint::origin() + 7_ms);
}

TEST(Sharded, MailboxCountsAsPendingUntilInjected) {
  ShardedSimulator ssim(2);
  ssim.set_lookahead(1_ms);
  bool ran = false;
  ssim.post(0, 1, TimePoint::origin() + 2_ms, 0, 0, [&] { ran = true; });
  EXPECT_EQ(ssim.events_pending(), 1u);
  ssim.run_until(TimePoint::origin() + 5_ms);
  EXPECT_TRUE(ran);
  EXPECT_EQ(ssim.events_pending(), 0u);
}

TEST(Sharded, MailboxMergeOrderIsCanonical) {
  // Envelopes injected into one destination at the same instant must
  // execute in (key_hi, key_lo, src, seq) order no matter the order the
  // posts were made in.
  ShardedSimulator ssim(3);
  ssim.set_lookahead(1_ms);
  std::vector<int> order;
  const TimePoint at = TimePoint::origin() + 2_ms;
  ssim.post(1, 0, at, /*key_hi=*/9, /*key_lo=*/1, [&] { order.push_back(4); });
  ssim.post(1, 0, at, /*key_hi=*/2, /*key_lo=*/7, [&] { order.push_back(2); });
  ssim.post(2, 0, at, /*key_hi=*/2, /*key_lo=*/7, [&] { order.push_back(3); });
  ssim.post(2, 0, at, /*key_hi=*/1, /*key_lo=*/5, [&] { order.push_back(1); });
  // Same key + src: per-mailbox sequence breaks the tie in post order.
  ssim.post(1, 0, at, /*key_hi=*/9, /*key_lo=*/1, [&] { order.push_back(5); });
  ssim.run_until(TimePoint::origin() + 5_ms);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 5}));
}

TEST(Sharded, CrossShardPingPongMatchesSingleShard) {
  // The same logical program — a message bouncing between two parties
  // with 300 us latency — must produce identical event timestamps when
  // the parties share one shard and when they are split across two.
  const auto run_program = [](std::size_t shards) {
    ShardedSimulator ssim(shards);
    ssim.set_lookahead(100_us);
    const std::size_t a = 0;
    const std::size_t b = shards > 1 ? 1 : 0;
    std::vector<TimePoint> hits;  // solo windows: driver thread only
    struct Bounce {
      ShardedSimulator* ssim;
      std::vector<TimePoint>* hits;
      std::size_t from, to;
      int remaining;
      void operator()() const {
        const Simulator* self = ShardedSimulator::executing();
        ASSERT_NE(self, nullptr);
        const TimePoint now = self->now();
        hits->push_back(now);
        if (remaining <= 0) return;
        Bounce next{ssim, hits, to, from, remaining - 1};
        if (from != to) {
          // Cross-shard: through the timestamped mailbox, as the
          // classical fabric does.
          ssim->post(from, to, now + 300_us, 1, 1, std::move(next));
        } else {
          ssim->shard(to).schedule_at(now + 300_us, std::move(next));
        }
      }
    };
    ssim.shard(a).schedule(100_us,
                           Bounce{&ssim, &hits, a, b, /*remaining=*/8});
    ssim.run_until(TimePoint::origin() + 10_ms);
    return hits;
  };
  const auto one = run_program(1);
  const auto two = run_program(2);
  EXPECT_EQ(one.size(), 9u);
  EXPECT_EQ(one, two);
}

TEST(Sharded, PostInsideWindowMustRespectLookahead) {
  ShardedSimulator ssim(2);
  ssim.set_lookahead(1_ms);
  ssim.shard(0).schedule(1_ms, [&] {
    // Arrival before the window end (now + lookahead) breaks the
    // conservative contract and must be rejected loudly.
    ssim.post(0, 1, ssim.shard(0).now() + 10_us, 0, 0, [] {});
  });
  EXPECT_THROW(ssim.run_until(TimePoint::origin() + 5_ms), AssertionError);
}

TEST(Sharded, PostFromForeignShardAsserts) {
  ShardedSimulator ssim(2);
  ssim.set_lookahead(1_ms);
  ssim.shard(0).schedule(1_ms, [&] {
    // The executing shard is 0; claiming the envelope originates from
    // shard 1 would let two threads write one mailbox.
    ssim.post(1, 0, ssim.shard(0).now() + 10_ms, 0, 0, [] {});
  });
  EXPECT_THROW(ssim.run_until(TimePoint::origin() + 5_ms), AssertionError);
}

TEST(Sharded, StopFromEventHaltsAndResumes) {
  ShardedSimulator ssim(2);
  ssim.set_lookahead(1_ms);
  std::vector<int> ran;  // all events live on shard 0: driver thread
  ssim.shard(0).schedule(1_ms, [&] {
    ran.push_back(1);
    ssim.stop();
  });
  ssim.shard(0).schedule(40_ms, [&] { ran.push_back(2); });
  ssim.run_until(TimePoint::origin() + 50_ms);
  EXPECT_EQ(ran, (std::vector<int>{1}));
  EXPECT_EQ(ssim.events_pending(), 1u);
  EXPECT_LT(ssim.now(), TimePoint::origin() + 50_ms);

  // A fresh run_until clears the stop and finishes the remaining work.
  ssim.run_until(TimePoint::origin() + 50_ms);
  EXPECT_EQ(ran, (std::vector<int>{1, 2}));
  EXPECT_EQ(ssim.now(), TimePoint::origin() + 50_ms);
}

TEST(Sharded, ThreadInitRunsOncePerWorker) {
  ShardedSimulator ssim(3);
  ssim.set_lookahead(1_ms);
  std::mutex mu;
  std::vector<std::size_t> inited;
  ssim.set_thread_init([&](std::size_t shard) {
    std::lock_guard<std::mutex> lk(mu);
    inited.push_back(shard);
  });
  // Give every shard work at the same instant so the barrier path (which
  // spawns the workers) is exercised.
  for (std::size_t i = 0; i < 3; ++i) {
    ssim.shard(i).schedule(1_ms, [] {});
    ssim.shard(i).schedule(2_ms, [] {});
  }
  ssim.run_until(TimePoint::origin() + 5_ms);
  ssim.run_until(TimePoint::origin() + 6_ms);  // no re-init on later runs
  std::lock_guard<std::mutex> lk(mu);
  std::sort(inited.begin(), inited.end());
  // Shard 0 runs on the driver thread; only workers 1 and 2 init.
  EXPECT_EQ(inited, (std::vector<std::size_t>{1, 2}));
}

TEST(Sharded, ExecutedCountInvariantAcrossShardCounts) {
  const auto run_program = [](std::size_t shards) {
    ShardedSimulator ssim(shards);
    ssim.set_lookahead(1_ms);
    for (std::size_t s = 0; s < shards; ++s) {
      for (int i = 0; i < 5; ++i) {
        ssim.shard(s).schedule(Duration::ms(1 + i), [] {});
      }
    }
    ssim.run_until(TimePoint::origin() + 10_ms);
    return ssim.events_executed();
  };
  EXPECT_EQ(run_program(1) * 4, run_program(4));  // 5 events per shard
}

TEST(Sharded, ManyTinyWindowsMatchSingleShard) {
  // Three ping-pong chains over four parties with a 10 us lookahead.
  // Chain A (0 <-> 1) hops exactly one lookahead apart, so most windows
  // hold one of its events; chains B (2 <-> 3) and C (3 <-> 0) land in
  // some windows and not others. With one party per shard that gives
  // thousands of windows, alternating between solo windows (run inline on
  // the driver) and multi-shard windows (released through the barrier).
  struct Party {
    std::vector<TimePoint> hits;  // written only by the party's shard
    int on_driver = 0;
    int on_worker = 0;
  };
  struct Result {
    std::vector<Party> parties;
    std::uint64_t executed = 0;
  };
  const auto run_program = [](std::size_t shards) {
    ShardedSimulator ssim(shards);
    ssim.set_lookahead(10_us);
    Result r;
    r.parties.resize(4);
    const std::thread::id driver = std::this_thread::get_id();
    struct Hop {
      ShardedSimulator* ssim;
      std::vector<Party>* parties;
      std::thread::id driver;
      std::size_t from, to;
      Duration latency;
      std::uint64_t chain;
      int remaining;
      void operator()() const {
        const TimePoint now = ShardedSimulator::executing()->now();
        Party& me = (*parties)[from];
        me.hits.push_back(now);
        ++(std::this_thread::get_id() == driver ? me.on_driver
                                                 : me.on_worker);
        if (remaining <= 0) return;
        const std::size_t S = ssim->shard_count();
        Hop next{ssim, parties, driver, to, from, latency, chain,
                 remaining - 1};
        if (from % S != to % S) {
          ssim->post(from % S, to % S, now + latency, chain,
                     static_cast<std::uint64_t>(remaining), std::move(next));
        } else {
          ssim->shard(to % S).schedule_at(now + latency, std::move(next));
        }
      }
    };
    const auto start = [&](std::size_t a, std::size_t b, Duration first,
                           Duration latency, std::uint64_t chain, int hops) {
      ssim.shard(a % shards)
          .schedule(first, Hop{&ssim, &r.parties, driver, a, b, latency,
                               chain, hops});
    };
    start(0, 1, 5_us, 10_us, /*chain=*/1, 3000);
    start(2, 3, 7_us, 17_us, /*chain=*/2, 1800);
    start(3, 0, 11_us, 23_us, /*chain=*/3, 1300);
    ssim.run_until(TimePoint::origin() + 100_ms);
    r.executed = ssim.events_executed();
    return r;
  };
  const Result one = run_program(1);
  const Result four = run_program(4);
  EXPECT_EQ(one.executed, 3001u + 1801u + 1301u);
  EXPECT_EQ(four.executed, one.executed);
  for (std::size_t p = 0; p < 4; ++p) {
    EXPECT_EQ(four.parties[p].hits, one.parties[p].hits) << "party " << p;
  }
  // Both window kinds really occurred: shard 1 runs on the driver in solo
  // windows and on its worker thread in multi-shard windows.
  EXPECT_GT(four.parties[1].on_driver, 100);
  EXPECT_GT(four.parties[1].on_worker, 100);
}

TEST(Sharded, RepeatedRunsAcrossParkAndSpin) {
  // Hundreds of run_until calls, each holding one window with an event on
  // every shard. Every few runs a worker's event outlasts the driver's
  // spin (so the driver parks), or the driver idles between runs (so the
  // workers park); the rest complete while both sides are still
  // spinning. A lost wake-up on either side hangs here.
  constexpr std::size_t kShards = 3;
  constexpr int kRuns = 300;
  ShardedSimulator ssim(kShards);
  ssim.set_lookahead(1_ms);
  std::vector<int> ran(kShards, 0);  // slot i written only by shard i
  for (int k = 1; k <= kRuns; ++k) {
    const TimePoint at = TimePoint::origin() + Duration::ms(k);
    for (std::size_t i = 0; i < kShards; ++i) {
      const bool slow = i == 1 && k % 7 == 0;
      ssim.shard(i).schedule_at(at, [&ran, i, slow] {
        if (slow) std::this_thread::sleep_for(std::chrono::milliseconds(2));
        ++ran[i];
      });
    }
    EXPECT_EQ(ssim.run_until(at), kShards);
    EXPECT_EQ(ssim.now(), at);
    if (k % 10 == 0) std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_EQ(ran, std::vector<int>(kShards, kRuns));
  EXPECT_EQ(ssim.events_executed(), kShards * kRuns);
  EXPECT_EQ(ssim.events_pending(), 0u);
}

TEST(Sharded, DestroysWithParkedOrSpinningWorkers) {
  const auto run_once = [](bool idle_gap) {
    ShardedSimulator ssim(4);
    ssim.set_lookahead(1_ms);
    std::vector<int> ran(4, 0);
    for (std::size_t i = 0; i < 4; ++i) {
      ssim.shard(i).schedule(1_ms, [&ran, i] { ++ran[i]; });
    }
    ssim.run_until(TimePoint::origin() + 2_ms);
    EXPECT_EQ(ran, std::vector<int>(4, 1));
    // Without a gap the workers are still polling for the next window;
    // after one they have parked on the condition variable.
    if (idle_gap) std::this_thread::sleep_for(std::chrono::milliseconds(50));
  };
  for (int i = 0; i < 20; ++i) run_once(/*idle_gap=*/false);
  run_once(/*idle_gap=*/true);
}

}  // namespace
}  // namespace qnetp::des
