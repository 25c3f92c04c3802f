// Unit tests for the discrete-event simulation core.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <tuple>
#include <utility>
#include <vector>

#include "src/sim/event_queue.h"
#include "src/sim/random.h"
#include "src/sim/stats.h"
#include "src/sim/table.h"
#include "src/sim/time.h"

namespace pegasus::sim {
namespace {

TEST(TimeTest, Constructors) {
  EXPECT_EQ(Nanoseconds(7), 7);
  EXPECT_EQ(Microseconds(3), 3'000);
  EXPECT_EQ(Milliseconds(2), 2'000'000);
  EXPECT_EQ(Seconds(1), 1'000'000'000);
}

TEST(TimeTest, Accessors) {
  EXPECT_EQ(ToMicroseconds(Microseconds(5)), 5);
  EXPECT_EQ(ToMilliseconds(Milliseconds(9)), 9);
  EXPECT_DOUBLE_EQ(ToSecondsF(Milliseconds(1500)), 1.5);
}

TEST(TimeTest, TransmissionTimeRoundsUp) {
  // 53 bytes at 100 Mb/s = 4.24 us exactly.
  EXPECT_EQ(TransmissionTime(53, 100'000'000), 4240);
  // 1 byte at 3 bps doesn't divide evenly; must round up.
  EXPECT_EQ(TransmissionTime(1, 3), (8 * 1'000'000'000LL + 2) / 3);
}

TEST(TimeTest, FormatDurationPicksUnits) {
  EXPECT_EQ(FormatDuration(500), "500ns");
  EXPECT_EQ(FormatDuration(Microseconds(38)), "38.0us");
  EXPECT_EQ(FormatDuration(Milliseconds(33)), "33.0ms");
  EXPECT_EQ(FormatDuration(Seconds(2)), "2.00s");
  EXPECT_EQ(FormatDuration(-Milliseconds(1)), "-1.0ms");
}

TEST(SimulatorTest, RunsEventsInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.ScheduleAt(30, [&]() { order.push_back(3); });
  sim.ScheduleAt(10, [&]() { order.push_back(1); });
  sim.ScheduleAt(20, [&]() { order.push_back(2); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 30);
}

TEST(SimulatorTest, SameTimeEventsRunFifo) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.ScheduleAt(5, [&order, i]() { order.push_back(i); });
  }
  sim.Run();
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(order[static_cast<size_t>(i)], i);
  }
}

TEST(SimulatorTest, PastTimesClampToNow) {
  Simulator sim;
  TimeNs seen = -1;
  sim.ScheduleAt(100, [&]() {
    sim.ScheduleAt(50, [&]() { seen = sim.now(); });  // in the past
  });
  sim.Run();
  EXPECT_EQ(seen, 100);
}

TEST(SimulatorTest, CancelPreventsExecution) {
  Simulator sim;
  bool ran = false;
  EventId id = sim.ScheduleAt(10, [&]() { ran = true; });
  EXPECT_TRUE(sim.Cancel(id));
  sim.Run();
  EXPECT_FALSE(ran);
  EXPECT_EQ(sim.executed(), 0u);
}

TEST(SimulatorTest, CancelAfterRunReportsFalse) {
  Simulator sim;
  EventId id = sim.ScheduleAt(10, []() {});
  sim.Run();
  EXPECT_FALSE(sim.Cancel(EventId{}));  // invalid id
  // The id already ran: the cancel must report failure (the slot's
  // generation moved on) and must not disturb anything.
  EXPECT_FALSE(sim.Cancel(id));
  sim.Run();
  EXPECT_EQ(sim.executed(), 1u);
}

TEST(SimulatorTest, CancelBookkeepingDoesNotLeakOrDoubleCount) {
  Simulator sim;
  // Cancel-after-run across slot reuse: stale ids must stay dead even when
  // their slot has been handed to a newer event.
  EventId first = sim.ScheduleAt(1, []() {});
  sim.Run();
  bool second_ran = false;
  EventId second = sim.ScheduleAt(2, [&]() { second_ran = true; });
  // `first` is stale; whatever slot it occupied, cancelling it must not
  // kill `second`.
  EXPECT_FALSE(sim.Cancel(first));
  EXPECT_EQ(sim.pending(), 1u);
  sim.Run();
  EXPECT_TRUE(second_ran);
  EXPECT_FALSE(sim.Cancel(second));  // already ran
  // Double-cancel: the second attempt reports false.
  EventId third = sim.ScheduleAt(3, []() {});
  EXPECT_TRUE(sim.Cancel(third));
  EXPECT_FALSE(sim.Cancel(third));
  EXPECT_EQ(sim.pending(), 0u);
  // Churn through cancelled and executed events: pending() stays exact
  // (the old engine's cancelled-id set could drift after cancel-after-run).
  for (int round = 0; round < 100; ++round) {
    EventId a = sim.ScheduleAfter(1, []() {});
    EventId b = sim.ScheduleAfter(2, []() {});
    EXPECT_TRUE(sim.Cancel(a));
    sim.Run();
    EXPECT_FALSE(sim.Cancel(a));
    EXPECT_FALSE(sim.Cancel(b));  // already ran
    EXPECT_EQ(sim.pending(), 0u);
  }
}

TEST(SimulatorTest, RunUntilAdvancesClockExactly) {
  Simulator sim;
  int count = 0;
  sim.ScheduleAt(10, [&]() { ++count; });
  sim.ScheduleAt(20, [&]() { ++count; });
  sim.ScheduleAt(30, [&]() { ++count; });
  sim.RunUntil(20);
  EXPECT_EQ(count, 2);
  EXPECT_EQ(sim.now(), 20);
  sim.RunUntil(100);
  EXPECT_EQ(count, 3);
  EXPECT_EQ(sim.now(), 100);
}

TEST(SimulatorTest, RunUntilBeforeLeavesEventsAtHorizonPending) {
  Simulator sim;
  int count = 0;
  sim.ScheduleAt(10, [&]() { ++count; });
  sim.ScheduleAt(20, [&]() { ++count; });
  sim.ScheduleAt(30, [&]() { ++count; });
  // Strictly-before semantics: the event AT the horizon stays pending —
  // that is what lets a conservative shard window end exactly at another
  // shard's next event time without stealing it.
  sim.RunUntilBefore(20);
  EXPECT_EQ(count, 1);
  EXPECT_EQ(sim.now(), 20);
  EXPECT_EQ(sim.pending(), 2u);
  sim.RunUntil(20);
  EXPECT_EQ(count, 2);
  sim.RunUntilBefore(100);
  EXPECT_EQ(count, 3);
  EXPECT_EQ(sim.now(), 100);
}

TEST(SimulatorTest, NextEventTimeSeesThroughCancellations) {
  Simulator sim;
  EXPECT_EQ(sim.NextEventTime(), kTimeNever);
  EventId a = sim.ScheduleAt(10, []() {});
  sim.ScheduleAt(25, []() {});
  EXPECT_EQ(sim.NextEventTime(), 10);
  sim.Cancel(a);
  EXPECT_EQ(sim.NextEventTime(), 25);
  sim.Run();
  EXPECT_EQ(sim.NextEventTime(), kTimeNever);
}

TEST(SimulatorTest, RunUntilPredicate) {
  Simulator sim;
  int count = 0;
  for (int t = 1; t <= 100; ++t) {
    sim.ScheduleAt(t, [&]() { ++count; });
  }
  EXPECT_TRUE(sim.RunUntilPredicate([&]() { return count == 42; }));
  EXPECT_EQ(count, 42);
  EXPECT_FALSE(sim.RunUntilPredicate([&]() { return count == 1000; }));
}

TEST(SimulatorTest, EventsCanScheduleEvents) {
  Simulator sim;
  int depth = 0;
  std::function<void()> recurse = [&]() {
    if (++depth < 64) {
      sim.ScheduleAfter(1, recurse);
    }
  };
  sim.ScheduleAt(0, recurse);
  sim.Run();
  EXPECT_EQ(depth, 64);
  EXPECT_EQ(sim.now(), 63);
}

TEST(SimulatorTest, PendingCountExcludesCancelled) {
  Simulator sim;
  EventId a = sim.ScheduleAt(1, []() {});
  sim.ScheduleAt(2, []() {});
  EXPECT_EQ(sim.pending(), 2u);
  sim.Cancel(a);
  EXPECT_EQ(sim.pending(), 1u);
}

// One seeded random mix of lane pushes, ScheduleAt, Cancel, same-time ties
// and nested scheduling (each event spawns up to three more operations
// when it runs, until 20k events exist).
// The twin (use_lanes false) turns every lane push into a ScheduleAt at the
// same time. Lanes are exact only if both runs execute the same events in
// the same order, with the same clock and pending() at every step.
class LaneMix {
 public:
  explicit LaneMix(bool use_lanes) : use_lanes_(use_lanes) {}

  // Each entry: (event id, time it ran, pending() while it ran).
  using Log = std::vector<std::tuple<int, TimeNs, size_t>>;

  Log Run() {
    for (int i = 0; i < 50; ++i) {
      Spawn();
    }
    // Drive by RunUntil in uneven strides, so NextEventTime and the
    // horizon loop see lane heads too.
    while (sim_.NextEventTime() != kTimeNever) {
      sim_.RunUntil(sim_.NextEventTime() + rng_.UniformInt(0, 4));
    }
    return log_;
  }
  const Simulator& sim() const { return sim_; }

 private:
  static constexpr int kEvents = 20'000;
  static constexpr int kLanes = 3;

  static void OnLane(void* ctx, uint32_t id, uint32_t /*lane*/) {
    static_cast<LaneMix*>(ctx)->Ran(static_cast<int>(id));
  }

  void Ran(int id) {
    log_.emplace_back(id, sim_.now(), sim_.pending());
    for (int n = static_cast<int>(rng_.UniformInt(0, 3)); n > 0; --n) {
      Spawn();
    }
  }

  void Spawn() {
    if (next_id_ >= kEvents) {
      return;
    }
    const int64_t op = rng_.UniformInt(0, 9);
    if (op < 5) {
      // Lane push: never before the lane's last entry, often a tie with it.
      const size_t k = static_cast<size_t>(rng_.UniformInt(0, kLanes - 1));
      const TimeNs t = std::max(lane_last_[k], sim_.now()) + rng_.UniformInt(0, 3);
      lane_last_[k] = t;
      const int id = next_id_++;
      if (use_lanes_) {
        sim_.PushLane(&lanes_[k], t, &LaneMix::OnLane, this, static_cast<uint32_t>(id),
                      static_cast<uint32_t>(k));
      } else {
        sim_.ScheduleAt(t, [this, id]() { Ran(id); });
      }
    } else if (op < 8 || cancellable_.empty()) {
      const int id = next_id_++;
      cancellable_.push_back(
          sim_.ScheduleAt(sim_.now() + rng_.UniformInt(0, 6), [this, id]() { Ran(id); }));
    } else {
      // Cancels a random earlier ScheduleAt, which may have run already.
      const size_t i = static_cast<size_t>(
          rng_.UniformInt(0, static_cast<int64_t>(cancellable_.size()) - 1));
      log_.emplace_back(sim_.Cancel(cancellable_[i]) ? -1 : -2, sim_.now(), sim_.pending());
      cancellable_.erase(cancellable_.begin() + static_cast<ptrdiff_t>(i));
    }
  }

  const bool use_lanes_;
  Simulator sim_;
  Rng rng_{16};
  Log log_;
  std::vector<EventId> cancellable_;
  Simulator::LaneId lanes_[kLanes] = {};
  TimeNs lane_last_[kLanes] = {};
  int next_id_ = 0;
};

TEST(SimulatorLaneTest, RandomMixRunsInTheOrderOfItsScheduleAtTwin) {
  LaneMix lanes(/*use_lanes=*/true);
  LaneMix twin(/*use_lanes=*/false);
  const LaneMix::Log with_lanes = lanes.Run();
  const LaneMix::Log all_schedule_at = twin.Run();
  ASSERT_EQ(with_lanes.size(), all_schedule_at.size());
  for (size_t i = 0; i < with_lanes.size(); ++i) {
    ASSERT_EQ(with_lanes[i], all_schedule_at[i]) << "first divergence at log entry " << i;
  }
  EXPECT_EQ(lanes.sim().executed(), twin.sim().executed());
  EXPECT_EQ(lanes.sim().now(), twin.sim().now());
  EXPECT_EQ(lanes.sim().pending(), 0u);
  EXPECT_EQ(twin.sim().lane_events(), 0u);
  // Half the operations are lane pushes, so a large share ran from lanes.
  EXPECT_GT(lanes.sim().lane_events(), lanes.sim().executed() / 3);
  EXPECT_LT(lanes.sim().lane_events(), lanes.sim().executed());
}

TEST(SimulatorLaneTest, LaneEntriesRunFifoWithTheirArguments) {
  Simulator sim;
  Simulator::LaneId lane = Simulator::kNoLane;
  std::vector<std::pair<uint32_t, uint32_t>> seen;
  auto record = [](void* ctx, uint32_t a, uint32_t b) {
    static_cast<std::vector<std::pair<uint32_t, uint32_t>>*>(ctx)->emplace_back(a, b);
  };
  // More entries than the ring's first capacity, several at one instant.
  for (uint32_t i = 0; i < 10; ++i) {
    sim.PushLane(&lane, 5 + i / 3, record, &seen, i, 100 + i);
  }
  EXPECT_NE(lane, Simulator::kNoLane);
  EXPECT_EQ(sim.pending(), 10u);
  EXPECT_EQ(sim.NextEventTime(), 5);
  sim.Run();
  ASSERT_EQ(seen.size(), 10u);
  for (uint32_t i = 0; i < 10; ++i) {
    EXPECT_EQ(seen[i], (std::pair<uint32_t, uint32_t>{i, 100 + i}));
  }
  EXPECT_EQ(sim.now(), 8);
  EXPECT_EQ(sim.lane_events(), 10u);
  EXPECT_EQ(sim.executed(), 10u);
}

// The owner holds only a LaneId and never touches the Simulator from its
// destructor, so it may outlive the Simulator even with lane events (and a
// grown ring) still pending. Under ASan this also checks that destroying
// the Simulator frees every lane.
TEST(SimulatorLaneTest, LaneOwnerMayOutliveItsSimulator) {
  struct Owner {
    Simulator::LaneId lane = Simulator::kNoLane;
    int runs = 0;
    static void Run(void* ctx, uint32_t, uint32_t) { ++static_cast<Owner*>(ctx)->runs; }
  };
  Owner owner;
  {
    Simulator sim;
    for (TimeNs t = 10; t <= 100; t += 10) {
      sim.PushLane(&owner.lane, t, &Owner::Run, &owner);
    }
    sim.RunUntil(30);
    EXPECT_EQ(sim.pending(), 7u);
  }
  EXPECT_EQ(owner.runs, 3);
}

TEST(SimulatorLaneDeathTest, DecreasingPushAbortsInEveryBuildType) {
  EXPECT_DEATH(
      {
        Simulator sim;
        Simulator::LaneId lane = Simulator::kNoLane;
        auto noop = [](void*, uint32_t, uint32_t) {};
        sim.PushLane(&lane, 20, noop, nullptr);
        sim.PushLane(&lane, 10, noop, nullptr);
      },
      "before the lane's last pending entry");
}

TEST(RngTest, DeterministicAcrossInstances) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    same += a.Next() == b.Next() ? 1 : 0;
  }
  EXPECT_LT(same, 4);
}

TEST(RngTest, UniformIntStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 10'000; ++i) {
    int64_t v = rng.UniformInt(-5, 17);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 17);
  }
}

TEST(RngTest, UniformIntCoversRange) {
  Rng rng(7);
  std::vector<int> hits(10, 0);
  for (int i = 0; i < 10'000; ++i) {
    ++hits[static_cast<size_t>(rng.UniformInt(0, 9))];
  }
  for (int h : hits) {
    EXPECT_GT(h, 800);  // roughly uniform
    EXPECT_LT(h, 1200);
  }
}

TEST(RngTest, UniformDoubleInUnitInterval) {
  Rng rng(3);
  for (int i = 0; i < 10'000; ++i) {
    double v = rng.UniformDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(RngTest, ExponentialMeanApproximatelyCorrect) {
  Rng rng(11);
  double sum = 0;
  const int n = 100'000;
  for (int i = 0; i < n; ++i) {
    sum += rng.Exponential(250.0);
  }
  EXPECT_NEAR(sum / n, 250.0, 5.0);
}

TEST(RngTest, BoundedParetoStaysBounded) {
  Rng rng(13);
  for (int i = 0; i < 10'000; ++i) {
    double v = rng.BoundedPareto(1.1, 1.0, 1000.0);
    EXPECT_GE(v, 0.999);
    EXPECT_LE(v, 1000.001);
  }
}

TEST(RngTest, ZipfSkewsTowardLowRanks) {
  Rng rng(17);
  std::vector<int> hits(100, 0);
  for (int i = 0; i < 50'000; ++i) {
    ++hits[static_cast<size_t>(rng.Zipf(100, 0.9))];
  }
  EXPECT_GT(hits[0], hits[50] * 5);
  EXPECT_GT(hits[0], hits[99] * 10);
}

TEST(RngTest, BernoulliEdgeCases) {
  Rng rng(19);
  EXPECT_FALSE(rng.Bernoulli(0.0));
  EXPECT_TRUE(rng.Bernoulli(1.0));
  int heads = 0;
  for (int i = 0; i < 10'000; ++i) {
    heads += rng.Bernoulli(0.3) ? 1 : 0;
  }
  EXPECT_NEAR(heads, 3000, 300);
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(23);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto orig = v;
  rng.Shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

TEST(SummaryTest, BasicStatistics) {
  Summary s;
  for (double v : {1.0, 2.0, 3.0, 4.0, 5.0}) {
    s.Add(v);
  }
  EXPECT_EQ(s.count(), 5);
  EXPECT_DOUBLE_EQ(s.mean(), 3.0);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 5.0);
  EXPECT_NEAR(s.stddev(), std::sqrt(2.0), 1e-12);
  EXPECT_DOUBLE_EQ(s.Median(), 3.0);
}

TEST(SummaryTest, EmptySummaryIsZero) {
  Summary s;
  EXPECT_EQ(s.count(), 0);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.Quantile(0.5), 0.0);
  EXPECT_EQ(s.stddev(), 0.0);
}

TEST(SummaryTest, QuantilesAreExact) {
  Summary s;
  for (int i = 1; i <= 100; ++i) {
    s.Add(i);
  }
  EXPECT_DOUBLE_EQ(s.Quantile(0.01), 1.0);
  EXPECT_DOUBLE_EQ(s.Quantile(0.5), 50.0);
  EXPECT_DOUBLE_EQ(s.Quantile(0.99), 99.0);
  EXPECT_DOUBLE_EQ(s.Quantile(1.0), 100.0);
  EXPECT_DOUBLE_EQ(s.Quantile(0.0), 1.0);
}

TEST(SummaryTest, QuantileAfterIncrementalAdds) {
  Summary s;
  s.Add(10.0);
  EXPECT_DOUBLE_EQ(s.Quantile(0.5), 10.0);
  s.Add(20.0);
  s.Add(0.0);
  EXPECT_DOUBLE_EQ(s.Quantile(0.5), 10.0);  // re-sorts after new samples
}

TEST(HistogramTest, BucketsAndOverflow) {
  Histogram h(0.0, 100.0, 10);
  h.Add(5.0);    // bucket 0
  h.Add(15.0);   // bucket 1
  h.Add(95.0);   // bucket 9
  h.Add(-1.0);   // underflow
  h.Add(100.0);  // overflow (hi is exclusive)
  EXPECT_EQ(h.count(), 5);
  EXPECT_EQ(h.bucket_count(0), 1);
  EXPECT_EQ(h.bucket_count(1), 1);
  EXPECT_EQ(h.bucket_count(9), 1);
  EXPECT_EQ(h.underflow(), 1);
  EXPECT_EQ(h.overflow(), 1);
  EXPECT_DOUBLE_EQ(h.bucket_lo(1), 10.0);
  EXPECT_DOUBLE_EQ(h.bucket_hi(1), 20.0);
}

TEST(HistogramTest, ToStringMentionsNonEmptyBuckets) {
  Histogram h(0.0, 10.0, 2);
  h.Add(1.0);
  std::string s = h.ToString("ms");
  EXPECT_NE(s.find("ms"), std::string::npos);
}

TEST(TableTest, RendersAlignedColumns) {
  Table t({"a", "long-header", "c"});
  t.AddRow({"1", "2", "3"});
  t.AddRow({"row-with-long-cell", "x"});
  std::string s = t.ToString();
  EXPECT_NE(s.find("long-header"), std::string::npos);
  EXPECT_NE(s.find("row-with-long-cell"), std::string::npos);
  // Header + rule + 2 rows = 4 lines.
  EXPECT_EQ(std::count(s.begin(), s.end(), '\n'), 4);
}

TEST(TableTest, Formatters) {
  EXPECT_EQ(Table::Num(3.14159, 2), "3.14");
  EXPECT_EQ(Table::Int(1234), "1234");
  EXPECT_EQ(Table::Factor(2.5), "2.5x");
  EXPECT_EQ(Table::Percent(0.123), "12.3%");
}

}  // namespace
}  // namespace pegasus::sim
