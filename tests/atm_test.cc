// Unit tests for the ATM substrate: cells, AAL5, links, switches, signalling.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <numeric>
#include <vector>

#include "src/atm/aal5.h"
#include "src/atm/cell.h"
#include "src/atm/crc32.h"
#include "src/atm/network.h"
#include "src/atm/transport.h"
#include "src/atm/wire.h"
#include "src/sim/event_queue.h"

namespace pegasus::atm {
namespace {

TEST(Crc32Test, KnownVectors) {
  // "123456789" -> 0xCBF43926 (standard CRC-32 check value).
  const uint8_t data[] = {'1', '2', '3', '4', '5', '6', '7', '8', '9'};
  EXPECT_EQ(Crc32(data, sizeof(data)), 0xCBF43926u);
  EXPECT_EQ(Crc32(nullptr, 0), 0u);
}

TEST(Crc32Test, IncrementalMatchesWhole) {
  std::vector<uint8_t> data(257);
  std::iota(data.begin(), data.end(), 0);
  const uint32_t whole = Crc32(data.data(), data.size());
  // CRC-32 with seed chaining: crc(a||b) == crc(b, seed=crc(a)).
  const uint32_t part = Crc32(data.data() + 100, data.size() - 100, Crc32(data.data(), 100));
  EXPECT_EQ(whole, part);
}

TEST(Aal5Test, SingleCellRoundTrip) {
  std::vector<uint8_t> sdu{1, 2, 3, 4};
  auto cells = Aal5Segment(42, sdu);
  ASSERT_EQ(cells.size(), 1u);  // 4 + 8 trailer fits in 48
  EXPECT_TRUE(cells[0].end_of_frame);
  EXPECT_EQ(cells[0].vci, 42u);

  Aal5Reassembler r;
  auto out = r.Push(cells[0]);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(*out, sdu);
  EXPECT_EQ(r.frames_ok(), 1u);
}

TEST(Aal5Test, MultiCellRoundTrip) {
  std::vector<uint8_t> sdu(1000);
  std::iota(sdu.begin(), sdu.end(), 0);
  auto cells = Aal5Segment(7, sdu);
  // 1000 + 8 = 1008 -> 21 cells exactly.
  ASSERT_EQ(cells.size(), 21u);
  for (size_t i = 0; i + 1 < cells.size(); ++i) {
    EXPECT_FALSE(cells[i].end_of_frame);
  }
  EXPECT_TRUE(cells.back().end_of_frame);

  Aal5Reassembler r;
  std::optional<std::vector<uint8_t>> out;
  for (const Cell& c : cells) {
    out = r.Push(c);
  }
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(*out, sdu);
}

TEST(Aal5Test, EmptySduRoundTrip) {
  auto cells = Aal5Segment(1, {});
  ASSERT_EQ(cells.size(), 1u);
  Aal5Reassembler r;
  auto out = r.Push(cells[0]);
  ASSERT_TRUE(out.has_value());
  EXPECT_TRUE(out->empty());
}

TEST(Aal5Test, CorruptPayloadFailsCrc) {
  std::vector<uint8_t> sdu(100, 0xAB);
  auto cells = Aal5Segment(9, sdu);
  cells[0].payload[5] ^= 0x01;
  Aal5Reassembler r;
  std::optional<std::vector<uint8_t>> out;
  for (const Cell& c : cells) {
    out = r.Push(c);
  }
  EXPECT_FALSE(out.has_value());
  EXPECT_EQ(r.crc_errors(), 1u);
  EXPECT_EQ(r.frames_ok(), 0u);
}

TEST(Aal5Test, LostEndOfFrameResynchronises) {
  std::vector<uint8_t> a(100, 1);
  std::vector<uint8_t> b(100, 2);
  auto ca = Aal5Segment(3, a);
  auto cb = Aal5Segment(3, b);
  Aal5Reassembler r;
  // Drop the last cell of frame a: its cells merge into frame b and the
  // combined PDU must fail CRC, after which the next frame succeeds.
  for (size_t i = 0; i + 1 < ca.size(); ++i) {
    r.Push(ca[i]);
  }
  std::optional<std::vector<uint8_t>> out;
  for (const Cell& c : cb) {
    out = r.Push(c);
  }
  EXPECT_FALSE(out.has_value());
  EXPECT_EQ(r.crc_errors(), 1u);
  // A fresh frame now reassembles fine.
  auto cc = Aal5Segment(3, b);
  for (const Cell& c : cc) {
    out = r.Push(c);
  }
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(*out, b);
}

TEST(Aal5Test, OversizeSduRejected) {
  std::vector<uint8_t> sdu(kAal5MaxSduSize + 1);
  EXPECT_TRUE(Aal5Segment(1, sdu).empty());
}

TEST(Aal5Test, MaxSizeSduRoundTrip) {
  std::vector<uint8_t> sdu(kAal5MaxSduSize, 0x5C);
  auto cells = Aal5Segment(1, sdu);
  ASSERT_FALSE(cells.empty());
  Aal5Reassembler r;
  std::optional<std::vector<uint8_t>> out;
  for (const Cell& c : cells) {
    out = r.Push(c);
  }
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->size(), kAal5MaxSduSize);
}

TEST(Aal5Test, SequenceNumbersAdvance) {
  std::vector<uint8_t> sdu(200);
  auto cells = Aal5Segment(1, sdu, 0, 100);
  for (size_t i = 0; i < cells.size(); ++i) {
    EXPECT_EQ(cells[i].seq, 100 + i);
  }
}

// Appending into a train that already holds cells (and into one cleared
// for reuse, whose spare capacity holds stale bytes) must add exactly the
// cells a fresh segmentation returns, leave the held cells alone, zero the
// pad and carry a trailer whose length and CRC cover the padded PDU.
TEST(Aal5Test, SegmentIntoAppendsExactlyTheFreshCells) {
  Cell held;
  held.vci = 99;
  held.seq = 12345;
  held.payload.fill(0xEE);
  for (size_t len : {0u, 1u, 39u, 40u, 41u, 47u, 48u, 87u, 88u, 89u, 1000u, 65535u}) {
    SCOPED_TRACE(len);
    std::vector<uint8_t> sdu(len);
    std::iota(sdu.begin(), sdu.end(), static_cast<uint8_t>(len));
    const std::vector<Cell> fresh = Aal5Segment(5, sdu, 777, 40);
    ASSERT_EQ(fresh.size(), (len + 8 + kCellPayloadSize - 1) / kCellPayloadSize);

    std::vector<Cell> prefixed(3, held);
    std::vector<Cell> reused(fresh.size() + 3, held);
    reused.clear();
    for (std::vector<Cell>* train : {&prefixed, &reused}) {
      const size_t base = train->size();
      ASSERT_EQ(Aal5SegmentInto(5, sdu.data(), sdu.size(), 777, 40, train), fresh.size());
      ASSERT_EQ(train->size(), base + fresh.size());
      for (size_t i = 0; i < base; ++i) {
        EXPECT_EQ((*train)[i].seq, held.seq);
        EXPECT_EQ((*train)[i].payload, held.payload);
      }
      for (size_t i = 0; i < fresh.size(); ++i) {
        const Cell& got = (*train)[base + i];
        EXPECT_EQ(got.vci, fresh[i].vci);
        EXPECT_EQ(got.end_of_frame, fresh[i].end_of_frame);
        EXPECT_EQ(got.low_priority, fresh[i].low_priority);
        EXPECT_EQ(got.created_at, fresh[i].created_at);
        EXPECT_EQ(got.seq, fresh[i].seq);
        EXPECT_EQ(got.payload, fresh[i].payload);
      }
    }

    // The fresh cells themselves: SDU bytes, then zeros, then the trailer.
    std::vector<uint8_t> pdu;
    for (const Cell& c : fresh) {
      EXPECT_EQ(c.vci, 5u);
      EXPECT_EQ(c.created_at, 777);
      EXPECT_FALSE(c.low_priority);
      pdu.insert(pdu.end(), c.payload.begin(), c.payload.end());
    }
    EXPECT_TRUE(std::equal(sdu.begin(), sdu.end(), pdu.begin()));
    const size_t trailer = pdu.size() - 8;
    EXPECT_TRUE(std::all_of(pdu.begin() + static_cast<ptrdiff_t>(len),
                            pdu.begin() + static_cast<ptrdiff_t>(trailer),
                            [](uint8_t b) { return b == 0; }));
    EXPECT_EQ(pdu[trailer], 0);      // CPCS-UU
    EXPECT_EQ(pdu[trailer + 1], 0);  // CPI
    EXPECT_EQ(pdu[trailer + 2] << 8 | pdu[trailer + 3], static_cast<int>(len));
    const uint32_t crc = static_cast<uint32_t>(pdu[trailer + 4]) << 24 |
                         static_cast<uint32_t>(pdu[trailer + 5]) << 16 |
                         static_cast<uint32_t>(pdu[trailer + 6]) << 8 | pdu[trailer + 7];
    EXPECT_EQ(crc, Crc32(pdu.data(), pdu.size() - 4));
  }
}

class CollectorSink : public CellSink {
 public:
  void DeliverCell(const Cell& cell) override {
    cells.push_back(cell);
    times.push_back(sim_ != nullptr ? sim_->now() : 0);
  }
  void set_sim(sim::Simulator* s) { sim_ = s; }
  std::vector<Cell> cells;
  std::vector<sim::TimeNs> times;

 private:
  sim::Simulator* sim_ = nullptr;
};

TEST(LinkTest, SerialisationAndPropagationDelay) {
  sim::Simulator sim;
  Link link(&sim, "l", 100'000'000, sim::Microseconds(10));
  CollectorSink sink;
  sink.set_sim(&sim);
  link.set_sink(&sink);
  Cell c;
  c.vci = 5;
  EXPECT_TRUE(link.SendCell(c));
  sim.Run();
  ASSERT_EQ(sink.cells.size(), 1u);
  // 53 bytes at 100 Mb/s = 4.24us serialisation + 10us propagation.
  EXPECT_EQ(sink.times[0], 4240 + 10'000);
}

// Back-to-back cells serialise at link rate and ride a cell train: the
// first cell is delivered when its serialisation completes, the coalesced
// remainder arrives together when the train's LAST cell clears the
// transmitter — the same instant the last cell arrived on the per-cell
// path, so frame completion times are unchanged.
TEST(LinkTest, BackToBackCellsCoalesceIntoTrain) {
  sim::Simulator sim;
  Link link(&sim, "l", 100'000'000, 0);
  CollectorSink sink;
  sink.set_sim(&sim);
  link.set_sink(&sink);
  for (int i = 0; i < 3; ++i) {
    Cell c;
    c.seq = static_cast<uint64_t>(i);
    link.SendCell(c);
  }
  sim.Run();
  ASSERT_EQ(sink.cells.size(), 3u);
  EXPECT_EQ(sink.times[0], 4240);
  EXPECT_EQ(sink.times[1], 3 * 4240);
  EXPECT_EQ(sink.times[2], 3 * 4240);
  // Order preserved, and the train spent exactly its serialisation time on
  // the wire.
  EXPECT_EQ(sink.cells[0].seq, 0u);
  EXPECT_EQ(sink.cells[2].seq, 2u);
  EXPECT_EQ(link.busy_time(), 3 * 4240);
  EXPECT_EQ(link.queued_cells(), 0u);
}

TEST(LinkTest, QueueLimitDropsExcess) {
  sim::Simulator sim;
  Link link(&sim, "l", 100'000'000, 0, /*queue_limit=*/4);
  CollectorSink sink;
  link.set_sink(&sink);
  for (int i = 0; i < 10; ++i) {
    link.SendCell(Cell{});
  }
  EXPECT_EQ(link.cells_dropped(), 6u);
  sim.Run();
  EXPECT_EQ(sink.cells.size(), 4u);
}

// Pins the tail-drop contract: a full queue drops the ARRIVING cell no
// matter its loss-priority bit — a queued low-priority cell is never evicted
// to admit a high-priority arrival — and each drop lands in the counter of
// the dropped cell's own class.
TEST(LinkTest, FullQueueTailDropsRegardlessOfPriority) {
  sim::Simulator sim;
  Link link(&sim, "l", 100'000'000, 0, /*queue_limit=*/4);
  CollectorSink sink;
  link.set_sink(&sink);
  // Fill the queue with low-priority cells...
  for (int i = 0; i < 4; ++i) {
    Cell c;
    c.low_priority = true;
    c.seq = static_cast<uint64_t>(i);
    EXPECT_TRUE(link.SendCell(c));
  }
  // ...then offer a high-priority cell: tail-dropped, not admitted by
  // evicting a queued low-priority cell.
  Cell high;
  high.low_priority = false;
  high.seq = 100;
  EXPECT_FALSE(link.SendCell(high));
  EXPECT_EQ(link.cells_dropped_high(), 1u);
  EXPECT_EQ(link.cells_dropped_low(), 0u);
  Cell low;
  low.low_priority = true;
  EXPECT_FALSE(link.SendCell(low));
  EXPECT_EQ(link.cells_dropped_low(), 1u);
  EXPECT_EQ(link.cells_dropped(), 2u);

  sim.Run();
  // Every queued low-priority cell survived and was delivered in order.
  ASSERT_EQ(sink.cells.size(), 4u);
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_TRUE(sink.cells[i].low_priority);
    EXPECT_EQ(sink.cells[i].seq, static_cast<uint64_t>(i));
  }
  // The snapshot mirrors the split counters and queue bounds.
  const Link::StatsSnapshot stats = link.Stats();
  EXPECT_EQ(stats.cells_sent, 4u);
  EXPECT_EQ(stats.cells_dropped_high, 1u);
  EXPECT_EQ(stats.cells_dropped_low, 1u);
  EXPECT_EQ(stats.queue_limit, 4u);
  EXPECT_EQ(stats.queued_cells, 0u);
}

TEST(LinkTest, UtilizationTracksBusyFraction) {
  sim::Simulator sim;
  Link link(&sim, "l", 100'000'000, 0);
  CollectorSink sink;
  link.set_sink(&sink);
  link.SendCell(Cell{});
  sim.RunUntil(sim::Microseconds(8));  // busy 4.24us of 8.48us
  EXPECT_NEAR(link.utilization(), 0.53, 0.02);
}

TEST(SwitchTest, RoutesAndRelabels) {
  sim::Simulator sim;
  Switch sw(&sim, "sw", 4, sim::Microseconds(1));
  Link out(&sim, "out", 100'000'000, 0);
  CollectorSink sink;
  sink.set_sim(&sim);
  out.set_sink(&sink);
  sw.AttachOutput(2, &out);
  EXPECT_TRUE(sw.AddRoute(0, 40, 2, 77));
  Cell c;
  c.vci = 40;
  sw.input(0)->DeliverCell(c);
  sim.Run();
  ASSERT_EQ(sink.cells.size(), 1u);
  EXPECT_EQ(sink.cells[0].vci, 77u);
  EXPECT_EQ(sw.cells_switched(), 1u);
}

// Links and switches keep only lane ids in their Simulator and never touch
// it from their destructors, so the Simulator may be destroyed first with
// trains still on a wire and in the fabric, as when a ShardGroup's shards
// go before the network's links. ASan checks the teardown.
TEST(SwitchTest, LinksAndSwitchMayOutliveTheirSimulatorMidFlight) {
  auto owned = std::make_unique<sim::Simulator>();
  sim::Simulator* sim = owned.get();
  Link in(sim, "in", 100'000'000, sim::Microseconds(10));
  Link out(sim, "out", 100'000'000, sim::Microseconds(10));
  Switch sw(sim, "sw", 2, sim::Microseconds(5));
  CollectorSink sink;
  sink.set_sim(sim);
  in.set_sink(sw.input(0));
  sw.AttachOutput(1, &out);
  out.set_sink(&sink);
  ASSERT_TRUE(sw.AddRoute(0, 40, 1, 41));
  Cell c;
  c.vci = 40;
  for (int i = 0; i < 4; ++i) {
    in.SendCell(c);
  }
  // At 29 us the first cell is on the out wire, the next three are in the
  // fabric and a late fifth cell is on the in wire.
  sim->ScheduleAt(sim::Microseconds(15), [&]() { in.SendCell(c); });
  sim->RunUntil(sim::Microseconds(29));
  EXPECT_EQ(sim->pending(), 3u);
  owned.reset();
  EXPECT_TRUE(sink.cells.empty());
  EXPECT_EQ(sw.cells_switched(), 4u);
  EXPECT_EQ(in.cells_sent(), 5u);
}

TEST(SwitchTest, UnroutedCellsDropped) {
  sim::Simulator sim;
  Switch sw(&sim, "sw", 4);
  Cell c;
  c.vci = 99;
  sw.input(1)->DeliverCell(c);
  sim.Run();
  EXPECT_EQ(sw.cells_unroutable(), 1u);
  EXPECT_EQ(sw.cells_switched(), 0u);
}

TEST(SwitchTest, DuplicateRouteRejected) {
  sim::Simulator sim;
  Switch sw(&sim, "sw", 4);
  EXPECT_TRUE(sw.AddRoute(0, 40, 1, 41));
  EXPECT_FALSE(sw.AddRoute(0, 40, 2, 42));
  EXPECT_TRUE(sw.RemoveRoute(0, 40));
  EXPECT_FALSE(sw.RemoveRoute(0, 40));
  EXPECT_TRUE(sw.AddRoute(0, 40, 2, 42));
}

TEST(SwitchTest, VciAllocationSkipsUsed) {
  sim::Simulator sim;
  Switch sw(&sim, "sw", 2);
  EXPECT_EQ(sw.AllocateVci(0), kVciFirstData);
  sw.AddRoute(0, kVciFirstData, 1, 50);
  EXPECT_EQ(sw.AllocateVci(0), kVciFirstData + 1);
  // Other port unaffected.
  EXPECT_EQ(sw.AllocateVci(1), kVciFirstData);
}

// The next-free hint must not change the allocator's observable behaviour:
// a removed route's VCI becomes allocatable again, repeated AllocateVci
// without AddRoute stays idempotent, and churny open/close cycles keep
// handing out the lowest free VCI.
TEST(SwitchTest, VciAllocationReusesRemovedRoutes) {
  sim::Simulator sim;
  Switch sw(&sim, "sw", 2);
  for (Vci v = kVciFirstData; v < kVciFirstData + 8; ++v) {
    EXPECT_EQ(sw.AllocateVci(0), v);
    EXPECT_TRUE(sw.AddRoute(0, v, 1, v + 100));
  }
  // AllocateVci without AddRoute is idempotent (the hint must not burn it).
  EXPECT_EQ(sw.AllocateVci(0), kVciFirstData + 8);
  EXPECT_EQ(sw.AllocateVci(0), kVciFirstData + 8);
  // Freeing a VCI in the middle makes it the next allocation again.
  EXPECT_TRUE(sw.RemoveRoute(0, kVciFirstData + 3));
  EXPECT_EQ(sw.AllocateVci(0), kVciFirstData + 3);
  EXPECT_TRUE(sw.AddRoute(0, kVciFirstData + 3, 1, 203));
  EXPECT_EQ(sw.AllocateVci(0), kVciFirstData + 8);
  // Churn: open/close at the same VCI never walks past the live run.
  for (int i = 0; i < 1000; ++i) {
    const Vci v = sw.AllocateVci(0);
    EXPECT_EQ(v, kVciFirstData + 8);
    EXPECT_TRUE(sw.AddRoute(0, v, 1, 300));
    EXPECT_TRUE(sw.RemoveRoute(0, v));
  }
}

// A multi-target entry replicates a burst once per BRANCH, relabelling per
// branch, and counts every copy switched.
TEST(SwitchTest, MultiTargetEntryReplicatesPerBranch) {
  sim::Simulator sim;
  Switch sw(&sim, "sw", 4, 0);
  Link out1(&sim, "o1", 100'000'000, 0);
  Link out2(&sim, "o2", 100'000'000, 0);
  CollectorSink sink1;
  CollectorSink sink2;
  out1.set_sink(&sink1);
  out2.set_sink(&sink2);
  sw.AttachOutput(1, &out1);
  sw.AttachOutput(2, &out2);
  EXPECT_TRUE(sw.AddRoute(0, 40, 1, 70));
  EXPECT_EQ(sw.RouteTargetCount(0, 40), 1);
  EXPECT_TRUE(sw.AddRouteTarget(0, 40, 2, 80));
  EXPECT_EQ(sw.RouteTargetCount(0, 40), 2);
  // A branch to an already-subscribed port is rejected (one copy per port).
  EXPECT_FALSE(sw.AddRouteTarget(0, 40, 1, 99));
  EXPECT_FALSE(sw.AddRouteTarget(0, 40, 2, 99));
  // Grafting onto a nonexistent entry fails.
  EXPECT_FALSE(sw.AddRouteTarget(0, 41, 2, 99));

  std::vector<Cell> burst(3);
  for (size_t i = 0; i < burst.size(); ++i) {
    burst[i].vci = 40;
    burst[i].seq = i;
  }
  sw.input(0)->DeliverBurst(burst.data(), burst.size());
  sim.Run();
  ASSERT_EQ(sink1.cells.size(), 3u);
  ASSERT_EQ(sink2.cells.size(), 3u);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(sink1.cells[i].vci, 70u);
    EXPECT_EQ(sink1.cells[i].seq, i);
    EXPECT_EQ(sink2.cells[i].vci, 80u);
    EXPECT_EQ(sink2.cells[i].seq, i);
  }
  EXPECT_EQ(sw.cells_switched(), 6u);  // 3 cells x 2 branches
}

// Regression (multi-target entries vs the allocation hint): pruning ONE
// branch of a multicast entry must not hand its VCI out again — the entry
// still routes cells for the remaining branches. Only removing the LAST
// branch frees the VCI.
TEST(SwitchTest, PrunedBranchDoesNotFreeVciStillRoutingElsewhere) {
  sim::Simulator sim;
  Switch sw(&sim, "sw", 4, 0);
  const Vci v = sw.AllocateVci(0);
  EXPECT_TRUE(sw.AddRoute(0, v, 1, 70));
  EXPECT_TRUE(sw.AddRouteTarget(0, v, 2, 80));
  EXPECT_TRUE(sw.AddRouteTarget(0, v, 3, 90));

  // Prune the middle branch: entry stays live, VCI stays allocated.
  EXPECT_TRUE(sw.RemoveRouteTarget(0, v, 2));
  EXPECT_EQ(sw.RouteTargetCount(0, v), 2);
  EXPECT_TRUE(sw.HasRoute(0, v));
  EXPECT_NE(sw.AllocateVci(0), v);

  // Prune the PRIMARY branch: the next-oldest branch takes over, the VCI
  // still must not be reallocated.
  EXPECT_TRUE(sw.RemoveRouteTarget(0, v, 1));
  EXPECT_EQ(sw.RouteTargetCount(0, v), 1);
  EXPECT_NE(sw.AllocateVci(0), v);

  // Removing a branch twice fails; unknown ports fail.
  EXPECT_FALSE(sw.RemoveRouteTarget(0, v, 1));
  EXPECT_FALSE(sw.RemoveRouteTarget(0, v, 2));

  // The last branch retires the entry and only then frees the VCI.
  EXPECT_TRUE(sw.RemoveRouteTarget(0, v, 3));
  EXPECT_FALSE(sw.HasRoute(0, v));
  EXPECT_EQ(sw.AllocateVci(0), v);
}

// A unicast run gathered across VCIs must stop at a multicast entry: the
// replicated cells would otherwise be folded into the unicast train.
TEST(SwitchTest, UnicastRunStopsAtMulticastEntry) {
  sim::Simulator sim;
  Switch sw(&sim, "sw", 4, 0);
  Link out1(&sim, "o1", 100'000'000, 0);
  Link out2(&sim, "o2", 100'000'000, 0);
  CollectorSink sink1;
  CollectorSink sink2;
  out1.set_sink(&sink1);
  out2.set_sink(&sink2);
  sw.AttachOutput(1, &out1);
  sw.AttachOutput(2, &out2);
  EXPECT_TRUE(sw.AddRoute(0, 40, 1, 70));       // unicast -> port 1
  EXPECT_TRUE(sw.AddRoute(0, 41, 1, 71));       // multicast -> ports 1+2
  EXPECT_TRUE(sw.AddRouteTarget(0, 41, 2, 81));

  std::vector<Cell> burst(4);
  burst[0].vci = 40;
  burst[1].vci = 41;
  burst[2].vci = 41;
  burst[3].vci = 40;
  sw.input(0)->DeliverBurst(burst.data(), burst.size());
  sim.Run();
  // Port 1: 2 unicast + 2 replicated; port 2: 2 replicated.
  ASSERT_EQ(sink1.cells.size(), 4u);
  EXPECT_EQ(sink1.cells[0].vci, 70u);
  EXPECT_EQ(sink1.cells[1].vci, 71u);
  EXPECT_EQ(sink1.cells[2].vci, 71u);
  EXPECT_EQ(sink1.cells[3].vci, 70u);
  ASSERT_EQ(sink2.cells.size(), 2u);
  EXPECT_EQ(sink2.cells[0].vci, 81u);
  EXPECT_EQ(sw.cells_switched(), 6u);
}

class NetworkFixture : public ::testing::Test {
 protected:
  NetworkFixture() : net_(&sim_) {
    sw1_ = net_.AddSwitch("sw1", 8);
    sw2_ = net_.AddSwitch("sw2", 8);
    net_.ConnectSwitches(sw1_, 7, sw2_, 7, 155'000'000);
    a_ = net_.AddEndpoint("a", sw1_, 0, 155'000'000);
    b_ = net_.AddEndpoint("b", sw1_, 1, 155'000'000);
    c_ = net_.AddEndpoint("c", sw2_, 0, 155'000'000);
  }

  sim::Simulator sim_;
  Network net_;
  Switch* sw1_;
  Switch* sw2_;
  Endpoint* a_;
  Endpoint* b_;
  Endpoint* c_;
};

TEST_F(NetworkFixture, SameSwitchVc) {
  auto vc = net_.OpenVc(a_, b_);
  ASSERT_TRUE(vc.has_value());
  EXPECT_EQ(vc->hop_count, 1);

  std::vector<uint8_t> received;
  MessageTransport bt(b_);
  bt.SetDefaultHandler([&](Vci, std::vector<uint8_t> msg, sim::TimeNs) { received = msg; });
  MessageTransport at(a_);
  at.Send(vc->source_vci, {1, 2, 3});
  sim_.Run();
  EXPECT_EQ(received, (std::vector<uint8_t>{1, 2, 3}));
}

TEST_F(NetworkFixture, CrossSwitchVc) {
  auto vc = net_.OpenVc(a_, c_);
  ASSERT_TRUE(vc.has_value());
  EXPECT_EQ(vc->hop_count, 2);

  int got = 0;
  MessageTransport ct(c_);
  ct.SetHandler(vc->destination_vci,
                [&](Vci, std::vector<uint8_t> msg, sim::TimeNs) { got = static_cast<int>(msg[0]); });
  MessageTransport at(a_);
  at.Send(vc->source_vci, {99});
  sim_.Run();
  EXPECT_EQ(got, 99);
}

TEST_F(NetworkFixture, TwoVcsDoNotInterfere) {
  auto vc1 = net_.OpenVc(a_, c_);
  auto vc2 = net_.OpenVc(b_, c_);
  ASSERT_TRUE(vc1.has_value());
  ASSERT_TRUE(vc2.has_value());
  EXPECT_NE(vc1->destination_vci, vc2->destination_vci);

  std::map<Vci, int> counts;
  MessageTransport ct(c_);
  ct.SetDefaultHandler([&](Vci vci, std::vector<uint8_t>, sim::TimeNs) { ++counts[vci]; });
  MessageTransport at(a_);
  MessageTransport bt(b_);
  at.Send(vc1->source_vci, {1});
  bt.Send(vc2->source_vci, {2});
  sim_.Run();
  EXPECT_EQ(counts[vc1->destination_vci], 1);
  EXPECT_EQ(counts[vc2->destination_vci], 1);
}

TEST_F(NetworkFixture, CloseVcStopsDelivery) {
  auto vc = net_.OpenVc(a_, b_);
  ASSERT_TRUE(vc.has_value());
  EXPECT_TRUE(net_.CloseVc(vc->id));
  EXPECT_FALSE(net_.CloseVc(vc->id));

  MessageTransport bt(b_);
  int got = 0;
  bt.SetDefaultHandler([&](Vci, std::vector<uint8_t>, sim::TimeNs) { ++got; });
  MessageTransport at(a_);
  at.Send(vc->source_vci, {1});
  sim_.Run();
  EXPECT_EQ(got, 0);
  EXPECT_GE(sw1_->cells_unroutable(), 1u);
}

TEST_F(NetworkFixture, AdmissionControlRejectsOvercommit) {
  QosSpec q;
  q.peak_bps = 100'000'000;
  auto vc1 = net_.OpenVc(a_, c_, q);
  ASSERT_TRUE(vc1.has_value());
  // Second 100 Mb/s reservation cannot fit on the 155 Mb/s inter-switch link.
  auto vc2 = net_.OpenVc(b_, c_, q);
  EXPECT_FALSE(vc2.has_value());
  EXPECT_EQ(net_.admission_rejections(), 1);
  // Best-effort still fine.
  auto vc3 = net_.OpenVc(b_, c_);
  EXPECT_TRUE(vc3.has_value());
  // Releasing the first reservation frees the capacity.
  net_.CloseVc(vc1->id);
  auto vc4 = net_.OpenVc(b_, c_, q);
  EXPECT_TRUE(vc4.has_value());
}

TEST_F(NetworkFixture, DuplexOpensDataAndControl) {
  auto pair = net_.OpenDuplex(a_, c_, QosSpec{10'000'000}, QosSpec{});
  ASSERT_TRUE(pair.has_value());
  EXPECT_EQ(pair->first.source, a_);
  EXPECT_EQ(pair->second.source, c_);
}

TEST_F(NetworkFixture, PacedFrameArrivesAtPacedRate) {
  auto vc = net_.OpenVc(a_, b_);
  ASSERT_TRUE(vc.has_value());
  MessageTransport bt(b_);
  sim::TimeNs done_at = 0;
  bt.SetDefaultHandler([&](Vci, std::vector<uint8_t>, sim::TimeNs) { done_at = sim_.now(); });
  // 4800 bytes => 101 cells; paced at 10 Mb/s the last cell leaves around
  // 100 * 42.4us ≈ 4.24ms.
  a_->SendFrame(vc->source_vci, std::vector<uint8_t>(4800), 10'000'000);
  sim_.Run();
  EXPECT_GT(done_at, sim::Milliseconds(4));
  EXPECT_LT(done_at, sim::Milliseconds(5));
}

// Regression: SignalCongestion snapshots its notification set before
// invoking handlers, and a handler may close a SIBLING VC on the same link
// mid-signal. The closed VC's handler must not fire afterwards — it would
// observe a congestion report for a circuit that no longer exists.
TEST_F(NetworkFixture, CongestionHandlerClosingSiblingVcSuppressesItsCallback) {
  auto vc1 = net_.OpenVc(a_, c_);
  auto vc2 = net_.OpenVc(b_, c_);
  ASSERT_TRUE(vc1.has_value());
  ASSERT_TRUE(vc2.has_value());
  // Both traverse the inter-switch link.
  auto edge_links = net_.VcLinks(vc1->id);
  ASSERT_NE(edge_links, nullptr);
  const Link* shared = (*edge_links)[1];
  ASSERT_NE(std::find(net_.VcLinks(vc2->id)->begin(), net_.VcLinks(vc2->id)->end(), shared),
            net_.VcLinks(vc2->id)->end());

  int first_fired = 0;
  int second_fired = 0;
  net_.SetCongestionHandler(vc1->id, [&](VcId, const Link*, double) {
    ++first_fired;
    net_.CloseVc(vc2->id);  // renegotiation closing a sibling mid-signal
  });
  net_.SetCongestionHandler(vc2->id, [&](VcId, const Link*, double) { ++second_fired; });

  // Only the surviving VC is notified, and the return value counts it alone.
  EXPECT_EQ(net_.SignalCongestion(shared, 0.5), 1);
  EXPECT_EQ(first_fired, 1);
  EXPECT_EQ(second_fired, 0);
  EXPECT_EQ(net_.GetVc(vc2->id), nullptr);

  // A handler dropping its OWN registration mid-signal is equally safe.
  net_.SetCongestionHandler(vc1->id, [&](VcId id, const Link*, double) {
    ++first_fired;
    net_.ClearCongestionHandler(id);
  });
  EXPECT_EQ(net_.SignalCongestion(shared, 0.25), 1);
  EXPECT_EQ(first_fired, 2);
  EXPECT_EQ(net_.SignalCongestion(shared, 0.25), 0);  // nothing registered
  EXPECT_EQ(first_fired, 2);
}

TEST_F(NetworkFixture, MulticastVcDeliversToEveryLeafOnce) {
  auto vc = net_.OpenMulticastVc(a_, {b_, c_}, QosSpec{10'000'000});
  ASSERT_TRUE(vc.has_value());
  EXPECT_EQ(net_.McastLeafCount(vc->id), 2);
  ASSERT_TRUE(net_.McastLeafVci(vc->id, b_).has_value());
  ASSERT_TRUE(net_.McastLeafVci(vc->id, c_).has_value());
  EXPECT_EQ(*net_.McastLeafVci(vc->id, b_), vc->destination_vci);

  int got_b = 0;
  int got_c = 0;
  MessageTransport bt(b_);
  MessageTransport ct(c_);
  bt.SetHandler(*net_.McastLeafVci(vc->id, b_),
                [&](Vci, std::vector<uint8_t>, sim::TimeNs) { ++got_b; });
  ct.SetHandler(*net_.McastLeafVci(vc->id, c_),
                [&](Vci, std::vector<uint8_t>, sim::TimeNs) { ++got_c; });
  MessageTransport at(a_);
  at.Send(vc->source_vci, {42});
  sim_.Run();
  EXPECT_EQ(got_b, 1);
  EXPECT_EQ(got_c, 1);
}

TEST_F(NetworkFixture, MulticastChargesSharedEdgesOnce) {
  // Both leaves hang off sw2: the inter-switch trunk is a shared tree edge
  // and must carry ONE stream's reservation, not one per leaf.
  Endpoint* d = net_.AddEndpoint("d", sw2_, 1, 155'000'000);
  const QosSpec q{30'000'000};
  auto vc = net_.OpenMulticastVc(a_, {c_, d}, q);
  ASSERT_TRUE(vc.has_value());
  const Link* trunk = nullptr;
  for (const auto& l : net_.links()) {
    if (l->name() == "sw1->sw2") {
      trunk = l.get();
    }
  }
  ASSERT_NE(trunk, nullptr);
  EXPECT_EQ(net_.ReservedBps(trunk), 30'000'000);
  // Grafting a third leaf behind the same trunk admits only the graft path.
  Endpoint* e = net_.AddEndpoint("e", sw2_, 2, 155'000'000);
  auto leaf_vci = net_.AddLeaf(vc->id, e);
  ASSERT_TRUE(leaf_vci.has_value());
  EXPECT_EQ(net_.McastLeafCount(vc->id), 3);
  EXPECT_EQ(net_.ReservedBps(trunk), 30'000'000);
  // Pruning a leaf keeps shared edges; the trunk drops only when the last
  // downstream leaf goes (which is CloseVc's job for the final one).
  EXPECT_TRUE(net_.RemoveLeaf(vc->id, d));
  EXPECT_EQ(net_.ReservedBps(trunk), 30'000'000);
  EXPECT_TRUE(net_.RemoveLeaf(vc->id, c_));
  EXPECT_EQ(net_.ReservedBps(trunk), 30'000'000);
  // Removing the LAST leaf is refused; CloseVc releases everything.
  EXPECT_FALSE(net_.RemoveLeaf(vc->id, e));
  EXPECT_TRUE(net_.CloseVc(vc->id));
  EXPECT_EQ(net_.ReservedBps(trunk), 0);
  for (const auto& l : net_.links()) {
    EXPECT_EQ(net_.ReservedBps(l.get()), 0) << l->name();
  }
}

TEST_F(NetworkFixture, MulticastPruneStopsDeliveryToThatLeafOnly) {
  auto vc = net_.OpenMulticastVc(a_, {b_, c_});
  ASSERT_TRUE(vc.has_value());
  int got_b = 0;
  int got_c = 0;
  MessageTransport bt(b_);
  MessageTransport ct(c_);
  bt.SetDefaultHandler([&](Vci, std::vector<uint8_t>, sim::TimeNs) { ++got_b; });
  ct.SetDefaultHandler([&](Vci, std::vector<uint8_t>, sim::TimeNs) { ++got_c; });
  ASSERT_TRUE(net_.RemoveLeaf(vc->id, b_));
  EXPECT_FALSE(net_.McastLeafVci(vc->id, b_).has_value());
  MessageTransport at(a_);
  at.Send(vc->source_vci, {1});
  sim_.Run();
  EXPECT_EQ(got_b, 0);
  EXPECT_EQ(got_c, 1);
  // Re-grafting works and delivery resumes.
  ASSERT_TRUE(net_.AddLeaf(vc->id, b_).has_value());
  at.Send(vc->source_vci, {2});
  sim_.Run();
  EXPECT_EQ(got_b, 1);
  EXPECT_EQ(got_c, 2);
}

TEST_F(NetworkFixture, MulticastRejectsBadSinkSets) {
  EXPECT_FALSE(net_.OpenMulticastVc(a_, {}).has_value());
  EXPECT_FALSE(net_.OpenMulticastVc(a_, {b_, b_}).has_value());      // dup
  auto vc = net_.OpenMulticastVc(a_, {b_});
  ASSERT_TRUE(vc.has_value());
  EXPECT_FALSE(net_.AddLeaf(vc->id, b_).has_value());                // dup leaf
  EXPECT_FALSE(net_.AddLeaf(vc->id + 999, c_).has_value());          // bad id
  EXPECT_FALSE(net_.RemoveLeaf(vc->id, c_));                         // not a leaf
}

// Unicast is the one-leaf tree: a leaf grafted onto an OpenVc VC receives
// the source's cells alongside the original destination.
TEST_F(NetworkFixture, LeafGraftedOntoUnicastVcReceivesCells) {
  auto vc = net_.OpenVc(a_, b_, QosSpec{10'000'000});
  ASSERT_TRUE(vc.has_value());
  auto c_vci = net_.AddLeaf(vc->id, c_);
  ASSERT_TRUE(c_vci.has_value());
  EXPECT_EQ(net_.McastLeafCount(vc->id), 2);
  EXPECT_EQ(net_.GetVc(vc->id)->hop_count, 2);
  int got_b = 0;
  int got_c = 0;
  MessageTransport bt(b_);
  MessageTransport ct(c_);
  bt.SetHandler(vc->destination_vci, [&](Vci, std::vector<uint8_t>, sim::TimeNs) { ++got_b; });
  ct.SetHandler(*c_vci, [&](Vci, std::vector<uint8_t>, sim::TimeNs) { ++got_c; });
  MessageTransport at(a_);
  at.Send(vc->source_vci, {9});
  sim_.Run();
  EXPECT_EQ(got_b, 1);
  EXPECT_EQ(got_c, 1);
  EXPECT_EQ(sw1_->cells_unroutable() + sw2_->cells_unroutable(), 0u);
}

TEST_F(NetworkFixture, PruneBackToOneLeafThenCloseDrainsEveryLink) {
  Endpoint* d = net_.AddEndpoint("d", sw2_, 1, 155'000'000);
  auto vc = net_.OpenVc(a_, c_, QosSpec{25'000'000});
  ASSERT_TRUE(vc.has_value());
  ASSERT_TRUE(net_.AddLeaf(vc->id, d).has_value());
  ASSERT_TRUE(net_.AddLeaf(vc->id, b_).has_value());
  EXPECT_TRUE(net_.RemoveLeaf(vc->id, c_));
  EXPECT_TRUE(net_.RemoveLeaf(vc->id, d));
  EXPECT_EQ(net_.McastLeafCount(vc->id), 1);
  EXPECT_EQ(net_.GetVc(vc->id)->hop_count, 1);  // the trunk went with d
  EXPECT_EQ(net_.VcLinks(vc->id)->size(), 2u);  // a's uplink, b's downlink
  EXPECT_FALSE(net_.RemoveLeaf(vc->id, b_));
  EXPECT_TRUE(net_.CloseVc(vc->id));
  EXPECT_EQ(net_.open_vc_count(), 0);
  for (const auto& l : net_.links()) {
    EXPECT_EQ(net_.ReservedBps(l.get()), 0) << l->name();
    EXPECT_TRUE(net_.VcsOnLink(l.get()).empty()) << l->name();
  }
}

TEST_F(NetworkFixture, SourceCanBeItsOwnLeaf) {
  // A loopback VC turns around in the source's own switch.
  auto loop = net_.OpenVc(a_, a_, QosSpec{1'000'000});
  ASSERT_TRUE(loop.has_value());
  EXPECT_EQ(loop->hop_count, 1);
  int got = 0;
  MessageTransport at(a_);
  at.SetHandler(loop->destination_vci, [&](Vci, std::vector<uint8_t>, sim::TimeNs) { ++got; });
  at.Send(loop->source_vci, {5});
  sim_.Run();
  EXPECT_EQ(got, 1);
  // ... and a tree may list its source among its leaves, or graft it later.
  auto tree = net_.OpenMulticastVc(b_, {c_, b_});
  ASSERT_TRUE(tree.has_value());
  EXPECT_EQ(net_.McastLeafCount(tree->id), 2);
  auto vc = net_.OpenVc(a_, c_);
  ASSERT_TRUE(vc.has_value());
  EXPECT_TRUE(net_.AddLeaf(vc->id, a_).has_value());
  EXPECT_TRUE(net_.RemoveLeaf(vc->id, a_));
  EXPECT_TRUE(net_.CloseVc(loop->id));
  EXPECT_TRUE(net_.CloseVc(tree->id));
  EXPECT_TRUE(net_.CloseVc(vc->id));
  for (const auto& l : net_.links()) {
    EXPECT_EQ(net_.ReservedBps(l.get()), 0) << l->name();
  }
}

// Everything a refused open must leave as it found it: every switch's route
// entries (probed over every port and the low VCIs a VC here can take), the
// link ledger and per-link VC index, and the open-VC count.
struct NetworkBooks {
  std::vector<int> route_targets;
  std::vector<int64_t> reserved;
  std::vector<std::vector<VcId>> vcs_on_link;
  int64_t open_vcs = 0;
  bool operator==(const NetworkBooks& o) const {
    return route_targets == o.route_targets && reserved == o.reserved &&
           vcs_on_link == o.vcs_on_link && open_vcs == o.open_vcs;
  }
};

NetworkBooks ReadBooks(const Network& net, const std::vector<Switch*>& switches) {
  NetworkBooks books;
  for (const Switch* sw : switches) {
    for (int port = 0; port < sw->num_ports(); ++port) {
      for (Vci vci = 0; vci < 64; ++vci) {
        books.route_targets.push_back(sw->RouteTargetCount(port, vci));
      }
    }
  }
  for (const auto& l : net.links()) {
    books.reserved.push_back(net.ReservedBps(l.get()));
    books.vcs_on_link.push_back(net.VcsOnLink(l.get()));
  }
  books.open_vcs = net.open_vc_count();
  return books;
}

TEST_F(NetworkFixture, RefusalOnLastSinkRollsTheWholeOpenBack) {
  Endpoint* d = net_.AddEndpoint("d", sw2_, 1, 155'000'000);
  // c's downlink is nearly full, so a tree whose LAST sink is c fails there
  // after grafting b and d (d's graft charged the shared trunk).
  auto hog = net_.OpenVc(d, c_, QosSpec{150'000'000});
  ASSERT_TRUE(hog.has_value());
  const NetworkBooks before = ReadBooks(net_, {sw1_, sw2_});
  const int64_t bw_rejections = net_.admission_rejections_bandwidth();
  EXPECT_FALSE(net_.OpenMulticastVc(a_, {b_, d, c_}, QosSpec{10'000'000}).has_value());
  EXPECT_EQ(net_.admission_rejections_bandwidth(), bw_rejections + 1);
  EXPECT_TRUE(ReadBooks(net_, {sw1_, sw2_}) == before);
  // An unreachable last sink rolls back the same way.
  Switch* island = net_.AddSwitch("island", 4);
  Endpoint* far = net_.AddEndpoint("far", island, 0, 155'000'000);
  const NetworkBooks before_island = ReadBooks(net_, {sw1_, sw2_, island});
  EXPECT_FALSE(net_.OpenMulticastVc(a_, {d, b_, far}, QosSpec{10'000'000}).has_value());
  EXPECT_TRUE(ReadBooks(net_, {sw1_, sw2_, island}) == before_island);
  // Nothing leaked into the id sequence or the VCI allocators either: the
  // next open gets the very next id, and the tree it builds carries cells.
  auto next = net_.OpenMulticastVc(a_, {b_, d}, QosSpec{10'000'000});
  ASSERT_TRUE(next.has_value());
  EXPECT_EQ(next->id, hog->id + 1);
  int got = 0;
  MessageTransport dt(d);
  dt.SetHandler(*net_.McastLeafVci(next->id, d),
                [&](Vci, std::vector<uint8_t>, sim::TimeNs) { ++got; });
  MessageTransport at(a_);
  at.Send(next->source_vci, {3});
  sim_.Run();
  EXPECT_EQ(got, 1);
}

TEST_F(NetworkFixture, MulticastQosUpdateScalesWholeTreeOnce) {
  Endpoint* d = net_.AddEndpoint("d", sw2_, 1, 155'000'000);
  auto vc = net_.OpenMulticastVc(a_, {c_, d}, QosSpec{20'000'000});
  ASSERT_TRUE(vc.has_value());
  const Link* trunk = nullptr;
  for (const auto& l : net_.links()) {
    if (l->name() == "sw1->sw2") {
      trunk = l.get();
    }
  }
  ASSERT_NE(trunk, nullptr);
  ASSERT_TRUE(net_.UpdateVcQos(vc->id, QosSpec{40'000'000}));
  EXPECT_EQ(net_.ReservedBps(trunk), 40'000'000);
  ASSERT_TRUE(net_.UpdateVcQos(vc->id, QosSpec{5'000'000}));
  EXPECT_EQ(net_.ReservedBps(trunk), 5'000'000);
  net_.CloseVc(vc->id);
  EXPECT_EQ(net_.ReservedBps(trunk), 0);
}

TEST(WireTest, RoundTrip) {
  WireWriter w;
  w.PutU8(0x12);
  w.PutU16(0x3456);
  w.PutU32(0x789ABCDE);
  w.PutU64(0x0123456789ABCDEFULL);
  w.PutString("hello");
  w.PutBytes({9, 8, 7});
  WireReader r(w.data());
  EXPECT_EQ(r.GetU8(), 0x12);
  EXPECT_EQ(r.GetU16(), 0x3456);
  EXPECT_EQ(r.GetU32(), 0x789ABCDEu);
  EXPECT_EQ(r.GetU64(), 0x0123456789ABCDEFULL);
  EXPECT_EQ(r.GetString(), "hello");
  EXPECT_EQ(r.GetBytes(), (std::vector<uint8_t>{9, 8, 7}));
  EXPECT_TRUE(r.ok());
  EXPECT_TRUE(r.AtEnd());
}

// The little-endian puts grow the buffer once per value; their bytes must be
// exactly those of the byte-at-a-time encoding they replaced.
TEST(WireTest, BulkPutsMatchTheByteWiseEncoding) {
  std::vector<uint8_t> want;
  auto old_put = [&want](uint64_t v, int bytes) {
    for (int i = 0; i < bytes; ++i) {
      want.push_back(static_cast<uint8_t>(v >> (8 * i)));
    }
  };
  WireWriter w;
  w.PutU8(0x12);
  w.PutU16(0x3456);
  w.PutU32(0x789ABCDE);
  w.PutU64(0x0123456789ABCDEFULL);
  w.PutI64(-2);
  w.PutString("hi");
  w.PutBytes({9, 8});
  w.PutRaw({1, 2});
  w.PutRepeated(3, 0x7F);
  EXPECT_EQ(w.data(), (std::vector<uint8_t>{
                          0x12,                                            // u8
                          0x56, 0x34,                                      // u16
                          0xDE, 0xBC, 0x9A, 0x78,                          // u32
                          0xEF, 0xCD, 0xAB, 0x89, 0x67, 0x45, 0x23, 0x01,  // u64
                          0xFE, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF,  // i64 -2
                          2, 0, 0, 0, 'h', 'i',                            // string
                          2, 0, 0, 0, 9, 8,                                // bytes
                          1, 2,                                            // raw
                          0x7F, 0x7F, 0x7F}));                             // repeated

  // A longer fixed mix against the byte-wise reference.
  WireWriter mixed;
  mixed.Reserve(16);  // smaller than the frame: later puts still grow it
  want.clear();
  uint64_t v = 0x9E3779B97F4A7C15ULL;
  for (int i = 0; i < 300; ++i) {
    v = v * 6364136223846793005ULL + 1442695040888963407ULL;
    switch (i % 4) {
      case 0:
        mixed.PutU8(static_cast<uint8_t>(v));
        old_put(v, 1);
        break;
      case 1:
        mixed.PutU16(static_cast<uint16_t>(v));
        old_put(v, 2);
        break;
      case 2:
        mixed.PutU32(static_cast<uint32_t>(v));
        old_put(v, 4);
        break;
      default:
        mixed.PutU64(v);
        old_put(v, 8);
        break;
    }
  }
  EXPECT_EQ(mixed.Take(), want);
}

TEST(WireTest, ShortReadSetsBad) {
  WireWriter w;
  w.PutU16(7);
  WireReader r(w.data());
  r.GetU32();
  EXPECT_FALSE(r.ok());
}

TEST(WireTest, TruncatedStringSetsBad) {
  WireWriter w;
  w.PutU32(1000);  // claims 1000 bytes, provides none
  WireReader r(w.data());
  EXPECT_TRUE(r.GetString().empty());
  EXPECT_FALSE(r.ok());
}

}  // namespace
}  // namespace pegasus::atm
