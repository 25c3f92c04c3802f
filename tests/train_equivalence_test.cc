// Train-equivalence regression: the cell-train data plane must be
// stat-for-stat identical to the per-cell path it replaced. A reference
// model of the old per-cell link (explicit in-flight queue, per-cell
// tail-drop, per-priority counters, per-cell delivery times) is run side by
// side with the real Link over a flood scenario; counters, occupancy
// samples and delivered cell order must match exactly — and frame-level
// (end-of-frame cell) delivery times must be unchanged from the per-cell
// path.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <tuple>
#include <type_traits>
#include <vector>

#include "src/atm/aal5.h"
#include "src/atm/cell.h"
#include "src/atm/link.h"
#include "src/atm/switch.h"
#include "src/sim/event_queue.h"
#include "src/sim/random.h"
#include "src/sim/time.h"

namespace pegasus::atm {
namespace {

// The pre-train per-cell link accounting, reimplemented standalone AND
// independently: the queue is an explicit list of in-flight completion
// times (the old engine counted a queued_ member up on accept and down at
// each per-cell done event — occupancy at time t was "accepted cells whose
// serialisation completes after t"). No busy-horizon arithmetic is shared
// with the Link under test, so a formula bug there cannot hide here.
class PerCellReference {
 public:
  PerCellReference(int64_t bps, sim::DurationNs prop, size_t queue_limit)
      : cell_time_(sim::TransmissionTime(kCellSize, bps)),
        prop_(prop),
        queue_limit_(queue_limit) {}

  // Offers a cell at `now`; mirrors the old per-cell Link::SendCell.
  bool Offer(const Cell& cell, sim::TimeNs now) {
    if (QueuedAt(now) >= queue_limit_) {
      ++(cell.low_priority ? dropped_low_ : dropped_high_);
      return false;
    }
    const sim::TimeNs start = std::max(now, tx_free_at_);
    tx_free_at_ = start + cell_time_;
    busy_time_ += cell_time_;
    ++sent_;
    in_flight_done_.push_back(tx_free_at_);
    delivered_.push_back({cell.seq, tx_free_at_ + prop_});
    return true;
  }

  // Counts the in-flight completion times after `now` — the decrement-at-
  // done-event bookkeeping of the per-cell engine, replayed lazily.
  size_t QueuedAt(sim::TimeNs now) const {
    while (!in_flight_done_.empty() && in_flight_done_.front() <= now) {
      in_flight_done_.pop_front();
    }
    return in_flight_done_.size();
  }

  struct Delivery {
    uint64_t seq;
    sim::TimeNs at;
  };
  const std::vector<Delivery>& delivered() const { return delivered_; }
  uint64_t sent() const { return sent_; }
  uint64_t dropped_high() const { return dropped_high_; }
  uint64_t dropped_low() const { return dropped_low_; }
  sim::DurationNs busy_time() const { return busy_time_; }

 private:
  sim::DurationNs cell_time_;
  sim::DurationNs prop_;
  size_t queue_limit_;
  sim::TimeNs tx_free_at_ = 0;
  uint64_t sent_ = 0;
  uint64_t dropped_high_ = 0;
  uint64_t dropped_low_ = 0;
  sim::DurationNs busy_time_ = 0;
  mutable std::deque<sim::TimeNs> in_flight_done_;
  std::vector<Delivery> delivered_;
};

class RecordingSink : public CellSink {
 public:
  explicit RecordingSink(sim::Simulator* sim) : sim_(sim) {}
  void DeliverCell(const Cell& cell) override { cells_.push_back({cell, sim_->now()}); }
  struct Arrival {
    Cell cell;
    sim::TimeNs at;
  };
  const std::vector<Arrival>& cells() const { return cells_; }

 private:
  sim::Simulator* sim_;
  std::vector<Arrival> cells_;
};

// Floods a 10 Mb/s link far past its queue limit with mixed-priority
// bursts, sampling occupancy at fixed ticks; every counter and sample must
// match the per-cell reference exactly.
TEST(TrainEquivalence, FloodedLinkStatsMatchPerCellPath) {
  sim::Simulator sim;
  const int64_t kBps = 10'000'000;
  const sim::DurationNs kProp = sim::Microseconds(3);
  const size_t kLimit = 64;
  Link link(&sim, "l", kBps, kProp, kLimit);
  RecordingSink sink(&sim);
  link.set_sink(&sink);
  PerCellReference ref(kBps, kProp, kLimit);

  sim::Rng rng(7);
  uint64_t seq = 0;
  // 200 bursts of 1..80 cells at 0.5 ms spacing: alternating overload
  // (queue fills, tail-drops in both classes) and partial drain.
  for (int burst = 0; burst < 200; ++burst) {
    const sim::TimeNs at = burst * sim::Microseconds(500);
    const int n = static_cast<int>(rng.UniformInt(1, 80));
    sim.ScheduleAt(at, [&link, &ref, &rng, &sim, &seq, n]() {
      for (int i = 0; i < n; ++i) {
        Cell c;
        c.vci = 42;
        c.low_priority = rng.Bernoulli(0.5);
        c.seq = seq++;
        const bool accepted = link.SendCell(c);
        const bool ref_accepted = ref.Offer(c, sim.now());
        ASSERT_EQ(accepted, ref_accepted) << "admission diverged at seq " << c.seq;
      }
    });
  }
  // Occupancy sampled between bursts must match the reference formula.
  std::vector<std::pair<size_t, size_t>> occupancy;  // (link, reference)
  for (int tick = 0; tick < 400; ++tick) {
    const sim::TimeNs at = tick * sim::Microseconds(250) + sim::Microseconds(13);
    sim.ScheduleAt(at, [&link, &ref, &sim, &occupancy]() {
      occupancy.push_back({link.queued_cells(), ref.QueuedAt(sim.now())});
    });
  }
  sim.Run();

  EXPECT_EQ(link.cells_sent(), ref.sent());
  EXPECT_EQ(link.cells_dropped_high(), ref.dropped_high());
  EXPECT_EQ(link.cells_dropped_low(), ref.dropped_low());
  EXPECT_GT(link.cells_dropped(), 0u);  // the flood really overflowed
  EXPECT_EQ(link.busy_time(), ref.busy_time());
  for (const auto& [got, want] : occupancy) {
    EXPECT_EQ(got, want);
  }
  // Every accepted cell arrived, in order, and no later than the per-cell
  // path would have delivered the train's tail (batching may defer a cell
  // to its train's end, never past the last cell of its train).
  ASSERT_EQ(sink.cells().size(), ref.delivered().size());
  for (size_t i = 0; i < sink.cells().size(); ++i) {
    EXPECT_EQ(sink.cells()[i].cell.seq, ref.delivered()[i].seq);
    EXPECT_GE(sink.cells()[i].at, ref.delivered()[i].at);
  }
  // The snapshot agrees with the getters.
  const Link::StatsSnapshot stats = link.Stats();
  EXPECT_EQ(stats.cells_sent, ref.sent());
  EXPECT_EQ(stats.cells_dropped_high, ref.dropped_high());
  EXPECT_EQ(stats.cells_dropped_low, ref.dropped_low());
  EXPECT_EQ(stats.queued_cells, 0u);
}

// Frame-level timing invariant: a whole AAL5 frame sent back-to-back
// completes the link at exactly the per-cell path's last-cell time — the
// train only moves INTERIOR cell deliveries, never the end-of-frame cell.
TEST(TrainEquivalence, EndOfFrameTimingUnchanged) {
  sim::Simulator sim;
  const int64_t kBps = 100'000'000;
  const sim::DurationNs kProp = sim::Microseconds(10);
  Link link(&sim, "l", kBps, kProp, 1024);
  RecordingSink sink(&sim);
  link.set_sink(&sink);

  std::vector<uint8_t> sdu(1000);
  auto cells = Aal5Segment(7, sdu, 0, 0);
  ASSERT_EQ(cells.size(), 21u);
  for (const Cell& c : cells) {
    ASSERT_TRUE(link.SendCell(c));
  }
  sim.Run();

  ASSERT_EQ(sink.cells().size(), 21u);
  EXPECT_TRUE(sink.cells().back().cell.end_of_frame);
  // Per-cell path: cell i completes at (i+1) * cell_time; + propagation.
  const sim::DurationNs cell_time = link.cell_time();
  EXPECT_EQ(sink.cells().back().at, 21 * cell_time + kProp);
  // Reassembly succeeds on the train exactly as on per-cell arrivals.
  Aal5Reassembler r;
  std::optional<std::vector<uint8_t>> out;
  for (const auto& a : sink.cells()) {
    out = r.Push(a.cell);
  }
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(*out, sdu);
}

// A switch in the middle must preserve the same equivalences: per-cell
// switched/unroutable counters and egress-side stats match a per-cell
// reference fed by the same arrivals.
TEST(TrainEquivalence, SwitchForwardingKeepsPerCellCounters) {
  sim::Simulator sim;
  Link ingress(&sim, "in", 50'000'000, sim::Microseconds(1), 2048);
  Link egress(&sim, "out", 10'000'000, sim::Microseconds(1), 32);
  Switch sw(&sim, "sw", 4, sim::Microseconds(1));
  ingress.set_sink(sw.input(0));
  sw.AttachOutput(1, &egress);
  sw.AddRoute(0, 40, 1, 77);
  sw.AddRoute(0, 41, 1, 78);
  RecordingSink sink(&sim);
  egress.set_sink(&sink);

  sim::Rng rng(11);
  uint64_t seq = 0;
  uint64_t unroutable_offered = 0;
  for (int burst = 0; burst < 60; ++burst) {
    const sim::TimeNs at = burst * sim::Microseconds(400);
    const int n = static_cast<int>(rng.UniformInt(4, 40));
    sim.ScheduleAt(at, [&, n]() {
      for (int i = 0; i < n; ++i) {
        Cell c;
        // Mixed VCIs within a burst exercise the relabel run-splitting; an
        // occasional unroutable VCI must be counted and skipped mid-train.
        const int64_t pick = rng.UniformInt(0, 19);
        c.vci = pick == 0 ? 99u : (pick % 2 == 0 ? 40u : 41u);
        c.low_priority = rng.Bernoulli(0.5);
        c.seq = seq++;
        if (c.vci == 99u) {
          ++unroutable_offered;
        }
        ingress.SendCell(c);
      }
    });
  }
  sim.Run();

  // Nothing was dropped on the fat ingress, so every cell reached the
  // fabric; the counters must account for every single one.
  EXPECT_EQ(ingress.cells_dropped(), 0u);
  EXPECT_EQ(sw.cells_unroutable(), unroutable_offered);
  EXPECT_EQ(sw.cells_switched(), ingress.cells_sent() - unroutable_offered);
  // Egress conservation: switched == delivered + tail-dropped, and the
  // narrow egress really dropped some.
  EXPECT_EQ(sw.cells_switched(), egress.cells_sent() + egress.cells_dropped());
  EXPECT_GT(egress.cells_dropped(), 0u);
  EXPECT_EQ(sink.cells().size(), egress.cells_sent());
  // Relabelling held per VCI, and per-VCI cell order survived the trains.
  std::vector<uint64_t> seq77;
  std::vector<uint64_t> seq78;
  for (const auto& a : sink.cells()) {
    ASSERT_TRUE(a.cell.vci == 77u || a.cell.vci == 78u);
    (a.cell.vci == 77u ? seq77 : seq78).push_back(a.cell.seq);
  }
  EXPECT_TRUE(std::is_sorted(seq77.begin(), seq77.end()));
  EXPECT_TRUE(std::is_sorted(seq78.begin(), seq78.end()));
}

// Span-ingest reassembly: chopping a mixed-VCI cell stream into arbitrary
// delivered trains and feeding boundary-free same-VC runs through
// IngestSpan (the transport's OnBurst strategy) must recover exactly the
// SDUs — and exactly the error counters — of the per-cell Push path,
// including resynchronisation after lost end-of-frame cells.
TEST(TrainEquivalence, SpanIngestReassemblyMatchesPerCellPath) {
  sim::Rng rng(23);
  // A long interleaved stream: frames on three VCIs, some with their
  // end-of-frame cell deleted. Frames are big enough that a lost EOF plus
  // the next frame overflows the reassembly buffer: the corruption surfaces
  // as BOTH mid-frame resyncs (length errors) and bad trailers (CRC
  // errors), and the span path must reproduce each count exactly.
  std::vector<Cell> stream;
  const Vci kVcis[] = {5, 9, 13};
  for (int frame = 0; frame < 120; ++frame) {
    const Vci vci = kVcis[rng.UniformInt(0, 2)];
    std::vector<uint8_t> sdu(static_cast<size_t>(rng.UniformInt(1, 40000)));
    for (auto& b : sdu) {
      b = static_cast<uint8_t>(rng.UniformInt(0, 255));
    }
    auto cells = Aal5Segment(vci, sdu, 0, 0);
    if (rng.Bernoulli(0.1)) {
      cells.pop_back();  // lost end-of-frame: the tail joins the next frame
    }
    stream.insert(stream.end(), cells.begin(), cells.end());
  }

  // Per-cell reference.
  std::map<Vci, Aal5Reassembler> ref;
  std::map<Vci, std::vector<std::vector<uint8_t>>> ref_sdus;
  for (const Cell& c : stream) {
    auto sdu = ref[c.vci].Push(c);
    if (sdu.has_value()) {
      ref_sdus[c.vci].push_back(*sdu);
    }
  }

  // Span path: random train boundaries, then the transport's run-splitting
  // — maximal boundary-free same-VC runs bulk-ingested, end-of-frame cells
  // pushed individually.
  std::map<Vci, Aal5Reassembler> span;
  std::map<Vci, std::vector<std::vector<uint8_t>>> span_sdus;
  size_t pos = 0;
  while (pos < stream.size()) {
    const size_t train =
        std::min(stream.size() - pos, static_cast<size_t>(rng.UniformInt(1, 128)));
    const Cell* cells = stream.data() + pos;
    size_t i = 0;
    while (i < train) {
      const Vci vci = cells[i].vci;
      size_t j = i;
      while (j < train && cells[j].vci == vci && !cells[j].end_of_frame) {
        ++j;
      }
      if (j > i) {
        span[vci].IngestSpan(cells + i, j - i);
      }
      if (j < train && cells[j].vci == vci) {
        auto sdu = span[vci].Push(cells[j]);
        ++j;
        if (sdu.has_value()) {
          span_sdus[vci].push_back(*sdu);
        }
      }
      i = j;
    }
    pos += train;
  }

  // The span path must match the reference cell-for-cell: same SDUs, same
  // resync/CRC accounting.
  for (const Vci vci : kVcis) {
    EXPECT_EQ(span_sdus[vci], ref_sdus[vci]);
    EXPECT_EQ(span[vci].length_errors(), ref[vci].length_errors());
    EXPECT_EQ(span[vci].crc_errors(), ref[vci].crc_errors());
    EXPECT_EQ(span[vci].frames_ok(), ref[vci].frames_ok());
    EXPECT_GT(span[vci].frames_ok(), 0u);
  }
  // The lost end-of-frame cells really exercised both failure modes.
  uint64_t total_length_errors = 0;
  uint64_t total_crc_errors = 0;
  for (const Vci vci : kVcis) {
    total_length_errors += span[vci].length_errors();
    total_crc_errors += span[vci].crc_errors();
  }
  EXPECT_GT(total_length_errors, 0u);
  EXPECT_GT(total_crc_errors, 0u);
}

// The train-cutting rule the link implements, written out the direct way:
// every accepted cell is stamped with its serialisation completion, the
// tail-drop test counts the stamps still ahead of `now`, and a cut event at
// the next end-of-frame (or kMaxTrainCells-th) stamp takes every cell whose
// stamp is <= now. Cut trains cross the wire as ScheduleAt events, which
// take their seqs as the link's lanes do, so on its own simulator the model
// sees exactly the event order the link sees on its.
class StampedTrainModel {
 public:
  static constexpr size_t kMaxTrainCells = 128;

  StampedTrainModel(sim::Simulator* sim, int64_t bps, sim::DurationNs prop, size_t queue_limit)
      : sim_(sim),
        cell_time_(sim::TransmissionTime(kCellSize, bps)),
        prop_(prop),
        queue_limit_(queue_limit) {}

  void set_sink(CellSink* sink) { sink_ = sink; }

  bool SendCell(const Cell& cell) {
    const sim::TimeNs now = sim_->now();
    // Cut cells completed by their cut, so only uncut stamps can be ahead.
    size_t queued = 0;
    bool at_completion = tx_free_at_ == now || last_cut_at_ == now;
    for (const Stamped& s : train_) {
      queued += s.done > now ? 1 : 0;
      at_completion = at_completion || s.done == now;
    }
    sends_at_completion_ += at_completion ? 1 : 0;
    sends_in_propagation_ += on_wire_ > 0 ? 1 : 0;
    if (queued >= queue_limit_) {
      ++(cell.low_priority ? dropped_low_ : dropped_high_);
      return false;
    }
    tx_free_at_ = std::max(now, tx_free_at_) + cell_time_;
    ++sent_;
    train_.push_back({cell, tx_free_at_});
    if (!armed_) {
      Arm();
    }
    return true;
  }
  size_t SendBurst(const Cell* cells, size_t count) {
    size_t accepted = 0;
    for (size_t i = 0; i < count; ++i) {
      accepted += SendCell(cells[i]) ? 1 : 0;
    }
    return accepted;
  }

  uint64_t cells_sent() const { return sent_; }
  uint64_t cells_dropped_high() const { return dropped_high_; }
  uint64_t cells_dropped_low() const { return dropped_low_; }
  // Sends made at a serialisation completion (accepted or not), and while a
  // cut train was on the wire: the scenarios below must exercise both.
  uint64_t sends_at_completion() const { return sends_at_completion_; }
  uint64_t sends_in_propagation() const { return sends_in_propagation_; }

 private:
  struct Stamped {
    Cell cell;
    sim::TimeNs done;
  };

  void Arm() {
    const size_t last = std::min(train_.size(), kMaxTrainCells) - 1;
    size_t target = last;
    for (size_t i = 0; i < last; ++i) {
      if (train_[i].cell.end_of_frame) {
        target = i;
        break;
      }
    }
    armed_ = true;
    sim_->ScheduleAt(train_[target].done, [this]() { Cut(); });
  }

  void Cut() {
    armed_ = false;
    const sim::TimeNs now = sim_->now();
    last_cut_at_ = now;
    std::vector<Cell> cut;
    while (!train_.empty() && train_.front().done <= now) {
      cut.push_back(train_.front().cell);
      train_.pop_front();
    }
    if (!cut.empty() && sink_ != nullptr) {
      if (prop_ == 0) {
        Deliver(cut);
      } else {
        ++on_wire_;
        sim_->ScheduleAt(now + prop_, [this, cut = std::move(cut)]() {
          --on_wire_;
          Deliver(cut);
        });
      }
    }
    if (!train_.empty() && !armed_) {
      Arm();
    }
  }

  void Deliver(const std::vector<Cell>& cells) {
    if (cells.size() == 1) {
      sink_->DeliverCell(cells[0]);
    } else {
      sink_->DeliverBurst(cells.data(), cells.size());
    }
  }

  sim::Simulator* sim_;
  sim::DurationNs cell_time_;
  sim::DurationNs prop_;
  size_t queue_limit_;
  CellSink* sink_ = nullptr;
  sim::TimeNs tx_free_at_ = 0;
  std::deque<Stamped> train_;
  bool armed_ = false;
  sim::TimeNs last_cut_at_ = -1;
  int on_wire_ = 0;
  uint64_t sent_ = 0;
  uint64_t dropped_high_ = 0;
  uint64_t dropped_low_ = 0;
  uint64_t sends_at_completion_ = 0;
  uint64_t sends_in_propagation_ = 0;
};

// One delivery as the sink saw it.
struct TrainDelivery {
  sim::TimeNs at;
  size_t count;
  uint64_t first_seq;
  bool operator==(const TrainDelivery& o) const {
    return at == o.at && count == o.count && first_seq == o.first_seq;
  }
};

// Logs every delivery. When `echo_budget` is non-zero it also sends on the
// link delivering to it, from inside DeliverCell and DeliverBurst: 1-24
// cells per delivery (frames or raw, mixed priority) until the budget is
// spent, so the link's FIFO grows while the train being delivered sits in
// it.
template <typename LinkT>
class TrainLogSink : public CellSink {
 public:
  TrainLogSink(sim::Simulator* sim, LinkT* link, uint64_t echo_budget)
      : sim_(sim), link_(link), echo_budget_(echo_budget), rng_(101) {}

  void DeliverCell(const Cell& cell) override { DeliverBurst(&cell, 1); }
  void DeliverBurst(const Cell* cells, size_t count) override {
    log_.push_back({sim_->now(), count, cells[0].seq});
    seqs_.push_back(cells[0].seq);
    seqs_.push_back(cells[count - 1].seq);
    if (echo_budget_ > 0) {
      const size_t n = static_cast<size_t>(rng_.UniformInt(1, 24));
      const bool frame = rng_.Bernoulli(0.5);
      for (size_t i = 0; i < n && echo_budget_ > 0; ++i, --echo_budget_) {
        Cell c;
        c.vci = 43;
        c.end_of_frame = frame && i + 1 == n;
        c.low_priority = rng_.Bernoulli(0.5);
        c.seq = next_echo_seq_++;
        echo_accepted_.push_back(link_->SendCell(c) ? 1 : 0);
      }
    }
    // The span must still hold the train it started with.
    seqs_.push_back(cells[0].seq);
    seqs_.push_back(cells[count - 1].seq);
  }

  const std::vector<TrainDelivery>& log() const { return log_; }
  const std::vector<uint64_t>& seqs() const { return seqs_; }
  const std::vector<size_t>& echo_accepted() const { return echo_accepted_; }

 private:
  sim::Simulator* sim_;
  LinkT* link_;
  uint64_t echo_budget_;
  sim::Rng rng_;
  uint64_t next_echo_seq_ = uint64_t{1} << 40;
  std::vector<TrainDelivery> log_;
  std::vector<uint64_t> seqs_;
  std::vector<size_t> echo_accepted_;
};

// A send the driver makes: `cells` at `at`, through SendBurst or one
// SendCell per cell.
struct PlannedSend {
  sim::TimeNs at;
  std::vector<Cell> cells;
  bool burst;
};

// A seeded mix: raw floods longer than kMaxTrainCells, AAL5-like frames of
// 1-40 cells, bursts that overflow the queue partway, mixed priority. Send
// times sit on the cell-time grid (so they land on serialisation
// completions) or just off it, and gaps range from inside one cell time to
// well past the propagation delay.
std::vector<PlannedSend> PlanTrainMix(uint64_t seed, sim::DurationNs cell_time, int sends) {
  sim::Rng rng(seed);
  std::vector<PlannedSend> plan;
  uint64_t seq = 0;
  sim::TimeNs at = 0;
  for (int s = 0; s < sends; ++s) {
    at += cell_time * rng.UniformInt(0, 160);
    PlannedSend send;
    send.at = at + (rng.Bernoulli(0.6) ? 0 : rng.UniformInt(1, cell_time - 1));
    send.burst = rng.Bernoulli(0.5);
    const int64_t kind = rng.UniformInt(0, 9);
    if (kind < 2) {
      const int n = static_cast<int>(rng.UniformInt(129, 400));  // raw flood
      for (int i = 0; i < n; ++i) {
        Cell c;
        c.vci = 42;
        c.low_priority = rng.Bernoulli(0.5);
        c.seq = seq++;
        send.cells.push_back(c);
      }
    } else {
      const int frames = static_cast<int>(rng.UniformInt(1, 4));
      for (int f = 0; f < frames; ++f) {
        const int n = static_cast<int>(rng.UniformInt(1, 40));
        const bool low = rng.Bernoulli(0.5);
        for (int i = 0; i < n; ++i) {
          Cell c;
          c.vci = 42;
          c.end_of_frame = i + 1 == n;
          c.low_priority = low;
          c.seq = seq++;
          send.cells.push_back(c);
        }
      }
    }
    plan.push_back(std::move(send));
  }
  return plan;
}

struct TrainRun {
  std::vector<TrainDelivery> log;
  std::vector<uint64_t> seqs;
  // Cells each send accepted, in call order: the driver's, then the sink's.
  std::vector<size_t> accepted;
  uint64_t sent = 0;
  uint64_t dropped_high = 0;
  uint64_t dropped_low = 0;
  // From the model only (see StampedTrainModel).
  uint64_t sends_at_completion = 0;
  uint64_t sends_in_propagation = 0;
};

// Drives `plan` through a LinkT on a fresh simulator and collects what its
// sink saw, what each send returned and the counters.
template <typename LinkT, typename MakeLink>
TrainRun RunTrainPlan(const std::vector<PlannedSend>& plan, uint64_t echo_budget,
                      MakeLink make_link) {
  sim::Simulator sim;
  LinkT link = make_link(&sim);
  TrainLogSink<LinkT> sink(&sim, &link, echo_budget);
  link.set_sink(&sink);
  TrainRun run;
  for (const PlannedSend& send : plan) {
    sim.ScheduleAt(send.at, [&link, &send, &run]() {
      if (send.burst) {
        run.accepted.push_back(link.SendBurst(send.cells.data(), send.cells.size()));
      } else {
        for (const Cell& c : send.cells) {
          run.accepted.push_back(link.SendCell(c) ? 1 : 0);
        }
      }
    });
  }
  sim.Run();
  run.log = sink.log();
  run.seqs = sink.seqs();
  run.accepted.insert(run.accepted.end(), sink.echo_accepted().begin(),
                      sink.echo_accepted().end());
  run.sent = link.cells_sent();
  run.dropped_high = link.cells_dropped_high();
  run.dropped_low = link.cells_dropped_low();
  if constexpr (std::is_same_v<LinkT, StampedTrainModel>) {
    run.sends_at_completion = link.sends_at_completion();
    run.sends_in_propagation = link.sends_in_propagation();
  }
  return run;
}

// Every delivery — its time, its cell count and its first cell — matches the
// stamped model, with and without propagation delay, and with a sink that
// sends on the delivering link (zero-delay and not) while the train is in
// its hands.
class TrainCutTest : public ::testing::TestWithParam<std::tuple<sim::DurationNs, uint64_t>> {};

TEST_P(TrainCutTest, DeliveriesMatchTheStampedModel) {
  const auto [prop, echo_budget] = GetParam();
  const int64_t kBps = 100'000'000;
  const size_t kLimit = 200;
  const sim::DurationNs cell_time = sim::TransmissionTime(kCellSize, kBps);
  const std::vector<PlannedSend> plan = PlanTrainMix(20, cell_time, 300);

  const TrainRun got = RunTrainPlan<Link>(plan, echo_budget, [&](sim::Simulator* sim) {
    return Link(sim, "l", kBps, prop, kLimit);
  });
  const TrainRun want = RunTrainPlan<StampedTrainModel>(
      plan, echo_budget, [&](sim::Simulator* sim) {
        return StampedTrainModel(sim, kBps, prop, kLimit);
      });

  ASSERT_EQ(got.log.size(), want.log.size());
  for (size_t i = 0; i < got.log.size(); ++i) {
    ASSERT_EQ(got.log[i], want.log[i])
        << "delivery " << i << ": link (" << got.log[i].at << ", " << got.log[i].count
        << ", " << got.log[i].first_seq << ") model (" << want.log[i].at << ", "
        << want.log[i].count << ", " << want.log[i].first_seq << ")";
  }
  EXPECT_EQ(got.seqs, want.seqs);
  EXPECT_EQ(got.accepted, want.accepted);
  EXPECT_EQ(got.sent, want.sent);
  EXPECT_EQ(got.dropped_high, want.dropped_high);
  EXPECT_EQ(got.dropped_low, want.dropped_low);
  // The mix really overflowed the queue in both classes, cut raw trains at
  // kMaxTrainCells and delivered single cells and whole trains.
  EXPECT_GT(got.dropped_high, 0u);
  EXPECT_GT(got.dropped_low, 0u);
  size_t singles = 0;
  size_t max_train = 0;
  for (const TrainDelivery& d : got.log) {
    singles += d.count == 1 ? 1 : 0;
    max_train = std::max(max_train, d.count);
  }
  EXPECT_GT(singles, 0u);
  EXPECT_EQ(max_train, StampedTrainModel::kMaxTrainCells);
  EXPECT_GT(want.sends_at_completion, 0u);
  if (prop > 0) {
    EXPECT_GT(want.sends_in_propagation, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    PropagationAndEcho, TrainCutTest,
    ::testing::Combine(::testing::Values(sim::DurationNs{0}, sim::Microseconds(3),
                                         sim::Microseconds(400)),
                       ::testing::Values(uint64_t{0}, uint64_t{4000})),
    [](const ::testing::TestParamInfo<TrainCutTest::ParamType>& info) {
      return "prop" + std::to_string(std::get<0>(info.param)) + "ns" +
             (std::get<1>(info.param) > 0 ? "_SinkSendsOnItsLink" : "");
    });

}  // namespace
}  // namespace pegasus::atm
