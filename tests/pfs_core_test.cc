// Unit tests for the PFS substrates: disk model, striped store, log metadata.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "src/pfs/disk.h"
#include "src/pfs/log.h"
#include "src/pfs/stripe.h"
#include "src/sim/event_queue.h"

namespace pegasus::pfs {
namespace {

DiskGeometry SmallGeometry() {
  DiskGeometry g;
  g.capacity_bytes = 64 << 20;
  return g;
}

TEST(SimDiskTest, SequentialTransferTimeIsPureBandwidth) {
  sim::Simulator sim;
  SimDisk disk(&sim, "d", SmallGeometry());
  bool done = false;
  // 5 MiB at 5 MiB/s starting at the head position: exactly one second.
  disk.Write(0, std::vector<uint8_t>(5 * 1024 * 1024, 1), false, [&](bool ok) {
    EXPECT_TRUE(ok);
    done = true;
  });
  sim.Run();
  EXPECT_TRUE(done);
  EXPECT_EQ(sim.now(), sim::Seconds(1));
  EXPECT_EQ(disk.seek_time(), 0);
}

TEST(SimDiskTest, RandomAccessPaysSeekAndRotation) {
  sim::Simulator sim;
  SimDisk disk(&sim, "d", SmallGeometry());
  disk.Write(32 << 20, std::vector<uint8_t>(512, 1), false, [](bool) {});
  sim.Run();
  // Half-stroke seek (1 + 0.5*16 = 9ms) + half rotation (5.5ms) + transfer.
  EXPECT_GT(disk.seek_time(), sim::Milliseconds(14));
  EXPECT_LT(disk.seek_time(), sim::Milliseconds(15));
}

TEST(SimDiskTest, WriteThenReadRoundTrips) {
  sim::Simulator sim;
  SimDisk disk(&sim, "d", SmallGeometry());
  std::vector<uint8_t> payload(4096);
  std::iota(payload.begin(), payload.end(), 0);
  disk.Write(8192, payload, false, [](bool) {});
  std::vector<uint8_t> got;
  disk.Read(8192, 4096, false, [&](bool ok, std::vector<uint8_t> data) {
    EXPECT_TRUE(ok);
    got = std::move(data);
  });
  sim.Run();
  EXPECT_EQ(got, payload);
}

TEST(SimDiskTest, UnwrittenRangesReadZero) {
  sim::Simulator sim;
  SimDisk disk(&sim, "d", SmallGeometry());
  std::vector<uint8_t> got;
  disk.Read(1 << 20, 16, false, [&](bool ok, std::vector<uint8_t> data) {
    EXPECT_TRUE(ok);
    got = std::move(data);
  });
  sim.Run();
  EXPECT_EQ(got, std::vector<uint8_t>(16, 0));
}

TEST(SimDiskTest, OverlappingWritesResolveCorrectly) {
  sim::Simulator sim;
  SimDisk disk(&sim, "d", SmallGeometry());
  disk.Write(0, std::vector<uint8_t>(100, 0xAA), false, [](bool) {});
  disk.Write(50, std::vector<uint8_t>(100, 0xBB), false, [](bool) {});
  disk.Write(25, std::vector<uint8_t>(10, 0xCC), false, [](bool) {});
  std::vector<uint8_t> got;
  disk.Read(0, 150, false, [&](bool, std::vector<uint8_t> data) { got = std::move(data); });
  sim.Run();
  ASSERT_EQ(got.size(), 150u);
  EXPECT_EQ(got[0], 0xAA);
  EXPECT_EQ(got[24], 0xAA);
  EXPECT_EQ(got[25], 0xCC);
  EXPECT_EQ(got[34], 0xCC);
  EXPECT_EQ(got[35], 0xAA);
  EXPECT_EQ(got[49], 0xAA);
  EXPECT_EQ(got[50], 0xBB);
  EXPECT_EQ(got[149], 0xBB);
}

// Write takes its data by value: a caller that passes a buffer it keeps and
// then reuses it, while the write is queued or after it completed, must not
// change what the disk stores.
TEST(SimDiskTest, WriteKeepsItsOwnCopyOfTheCallersBuffer) {
  sim::Simulator sim;
  SimDisk disk(&sim, "d", SmallGeometry());
  std::vector<uint8_t> buffer(4096, 0x5A);
  disk.Write(0, buffer, false, [](bool) {});
  std::fill(buffer.begin(), buffer.end(), 0xE1);  // while queued
  sim.Run();
  std::fill(buffer.begin(), buffer.end(), 0xE2);  // after it completed
  std::vector<uint8_t> got;
  disk.Read(0, 4096, false, [&](bool ok, std::vector<uint8_t> data) {
    EXPECT_TRUE(ok);
    got = std::move(data);
  });
  sim.Run();
  EXPECT_EQ(got, std::vector<uint8_t>(4096, 0x5A));
}

TEST(SimDiskTest, PaddedWriteZeroesItsTailAndPaysForItsFullLength) {
  sim::Simulator sim;
  SimDisk disk(&sim, "d", SmallGeometry());
  disk.Write(0, std::vector<uint8_t>(200, 0xAA), false, [](bool) {});
  sim.Run();
  const sim::TimeNs before = sim.now();
  bool ok = false;
  // Rewrites [0, 150): 50 bytes of data, then 100 zeros over the old 0xAA.
  disk.WritePadded(0, 150, std::vector<uint8_t>(50, 0xBB), false, [&](bool k) { ok = k; });
  sim.Run();
  EXPECT_TRUE(ok);
  EXPECT_EQ(disk.bytes_written(), 350);
  // 150 bytes at 5 MiB/s after a seek back to offset 0.
  EXPECT_EQ(sim.now() - before - disk.seek_time(), 150 * sim::Seconds(1) / (5 * 1024 * 1024));
  std::vector<uint8_t> got;
  disk.Read(0, 200, false, [&](bool, std::vector<uint8_t> data) { got = std::move(data); });
  sim.Run();
  std::vector<uint8_t> want(200, 0);
  std::fill(want.begin(), want.begin() + 50, 0xBB);
  std::fill(want.begin() + 150, want.end(), 0xAA);
  EXPECT_EQ(got, want);
}

TEST(SimDiskTest, RealtimeRequestsJumpTheQueue) {
  sim::Simulator sim;
  SimDisk disk(&sim, "d", SmallGeometry());
  std::vector<int> order;
  // First request occupies the head; the rest queue behind it.
  disk.Read(0, 1 << 20, false, [&](bool, std::vector<uint8_t>) { order.push_back(0); });
  disk.Read(4 << 20, 4096, false, [&](bool, std::vector<uint8_t>) { order.push_back(1); });
  disk.Read(8 << 20, 4096, false, [&](bool, std::vector<uint8_t>) { order.push_back(2); });
  disk.Read(12 << 20, 4096, true, [&](bool, std::vector<uint8_t>) { order.push_back(99); });
  sim.Run();
  ASSERT_EQ(order.size(), 4u);
  EXPECT_EQ(order[0], 0);
  EXPECT_EQ(order[1], 99);  // realtime served before queued ordinary reads
}

TEST(SimDiskTest, FailedDiskErrorsRequests) {
  sim::Simulator sim;
  SimDisk disk(&sim, "d", SmallGeometry());
  disk.Fail();
  bool ok = true;
  disk.Read(0, 512, false, [&](bool k, std::vector<uint8_t>) { ok = k; });
  sim.Run();
  EXPECT_FALSE(ok);
  disk.Repair();
  disk.Read(0, 512, false, [&](bool k, std::vector<uint8_t>) { ok = k; });
  sim.Run();
  EXPECT_TRUE(ok);
}

TEST(SimDiskTest, FailDrainsPendingQueue) {
  sim::Simulator sim;
  SimDisk disk(&sim, "d", SmallGeometry());
  int failures = 0;
  disk.Read(0, 1 << 20, false, [&](bool k, std::vector<uint8_t>) { failures += k ? 0 : 1; });
  disk.Read(1 << 20, 4096, false, [&](bool k, std::vector<uint8_t>) { failures += k ? 0 : 1; });
  disk.Fail();
  sim.Run();
  // The in-flight request completes against a failed disk -> error; the
  // queued one is drained with an error.
  EXPECT_EQ(failures, 2);
}

class StripeFixture : public ::testing::Test {
 protected:
  StripeFixture() : store_(&sim_, 4, kSegmentSize, SmallGeometry()) {}

  static constexpr int64_t kSegmentSize = 64 << 10;

  std::vector<uint8_t> Pattern(int64_t len, uint8_t seed) {
    std::vector<uint8_t> v(static_cast<size_t>(len));
    for (size_t i = 0; i < v.size(); ++i) {
      v[i] = static_cast<uint8_t>(seed + i * 7);
    }
    return v;
  }

  sim::Simulator sim_;
  StripeStore store_;
};

TEST_F(StripeFixture, SegmentRoundTrip) {
  auto data = Pattern(kSegmentSize, 3);
  bool wrote = false;
  store_.WriteSegment(5, data, [&](bool ok) { wrote = ok; });
  sim_.Run();
  EXPECT_TRUE(wrote);
  std::vector<uint8_t> got;
  store_.ReadSegment(5, [&](bool ok, std::vector<uint8_t> d) {
    EXPECT_TRUE(ok);
    got = std::move(d);
  });
  sim_.Run();
  EXPECT_EQ(got, data);
}

TEST_F(StripeFixture, ShortSegmentPadsToFullSize) {
  bool wrote = false;
  store_.WriteSegment(0, Pattern(1000, 1), [&](bool ok) { wrote = ok; });
  sim_.Run();
  EXPECT_TRUE(wrote);
  std::vector<uint8_t> got;
  store_.ReadSegment(0, [&](bool, std::vector<uint8_t> d) { got = std::move(d); });
  sim_.Run();
  ASSERT_EQ(static_cast<int64_t>(got.size()), kSegmentSize);
  EXPECT_EQ(got[999], Pattern(1000, 1)[999]);
  EXPECT_EQ(got[1000], 0);
}

// A short segment costs every disk a full chunk of transfer time, and the
// chunks past its data read back as zeros, directly and through parity.
TEST_F(StripeFixture, ShortSegmentChargesFullChunksAndReconstructs) {
  const int64_t chunk = store_.chunk_size();
  const auto data = Pattern(chunk + chunk / 2, 5);  // chunk 1 half full, 2 and 3 empty
  store_.WriteSegment(3, data, [](bool) {});
  sim_.Run();
  for (int d = 0; d < 4; ++d) {
    EXPECT_EQ(store_.disk(d)->bytes_written(), chunk) << "disk " << d;
  }
  EXPECT_EQ(store_.parity_disk()->bytes_written(), chunk);
  std::vector<uint8_t> want = data;
  want.resize(static_cast<size_t>(kSegmentSize), 0);
  for (int failed : {-1, 0, 1, 2}) {
    if (failed >= 0) {
      store_.disk(failed)->Fail();
    }
    std::vector<uint8_t> got;
    store_.ReadSegment(3, [&](bool ok, std::vector<uint8_t> d) {
      EXPECT_TRUE(ok);
      got = std::move(d);
    });
    sim_.Run();
    EXPECT_EQ(got, want) << "failed disk " << failed;
    if (failed >= 0) {
      store_.disk(failed)->Repair();
    }
  }
}

TEST_F(StripeFixture, ParityReconstructsSingleDiskFailure) {
  auto data = Pattern(kSegmentSize, 9);
  store_.WriteSegment(2, data, [](bool) {});
  sim_.Run();
  store_.disk(1)->Fail();
  std::vector<uint8_t> got;
  bool ok = false;
  store_.ReadSegment(2, [&](bool k, std::vector<uint8_t> d) {
    ok = k;
    got = std::move(d);
  });
  sim_.Run();
  EXPECT_TRUE(ok);
  EXPECT_EQ(got, data);  // §5: "recovery from disk errors" via parity
  EXPECT_GT(store_.reconstructed_reads(), 0);
}

TEST_F(StripeFixture, DoubleFailureIsNotMasked) {
  store_.WriteSegment(2, Pattern(kSegmentSize, 9), [](bool) {});
  sim_.Run();
  store_.disk(0)->Fail();
  store_.disk(1)->Fail();
  bool ok = true;
  store_.ReadSegment(2, [&](bool k, std::vector<uint8_t>) { ok = k; });
  sim_.Run();
  EXPECT_FALSE(ok);  // parity covers exactly one failure
}

TEST_F(StripeFixture, ReadRangeTouchesOnlyAffectedDisks) {
  const auto pattern = Pattern(kSegmentSize, 5);
  store_.WriteSegment(1, pattern, [](bool) {});
  sim_.Run();
  const int64_t reads_before = store_.disk(1)->reads() + store_.disk(2)->reads() +
                               store_.disk(3)->reads();
  std::vector<uint8_t> got;
  // Chunk size is 16 KiB; a read inside [0, 16K) touches only disk 0.
  store_.ReadRange(1, 100, 200, false, [&](bool ok, std::vector<uint8_t> d) {
    EXPECT_TRUE(ok);
    got = std::move(d);
  });
  sim_.Run();
  EXPECT_EQ(got, std::vector<uint8_t>(pattern.begin() + 100, pattern.begin() + 300));
  EXPECT_EQ(store_.disk(1)->reads() + store_.disk(2)->reads() + store_.disk(3)->reads(),
            reads_before);
}

TEST_F(StripeFixture, ParallelChunksGiveAggregateBandwidth) {
  // A 64 KiB segment write moves 16 KiB per disk in parallel: wall time is a
  // quarter of what one disk would need (plus nothing else: head at 0).
  store_.WriteSegment(0, Pattern(kSegmentSize, 1), [](bool) {});
  sim_.Run();
  const auto expected =
      (kSegmentSize / 4) * sim::Seconds(1) / SmallGeometry().transfer_bytes_per_sec;
  EXPECT_EQ(sim_.now(), expected);
}

TEST(LogMetadataTest, FileLifecycle) {
  LogMetadata meta(16);
  Pnode* f = meta.CreateFile(FileType::kNormal);
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(meta.file_count(), 1);
  const FileId id = f->id;
  EXPECT_EQ(meta.Find(id), f);
  EXPECT_TRUE(meta.RemoveFile(id));
  EXPECT_EQ(meta.Find(id), nullptr);
  EXPECT_FALSE(meta.RemoveFile(id));
}

TEST(LogMetadataTest, SegmentAllocationRotates) {
  LogMetadata meta(4);
  EXPECT_EQ(meta.free_segments(), 4);
  int64_t a = meta.AllocateSegment(false);
  int64_t b = meta.AllocateSegment(true);
  EXPECT_NE(a, b);
  EXPECT_EQ(meta.free_segments(), 2);
  EXPECT_TRUE(meta.segment(b).continuous);
  meta.FreeSegment(a);
  EXPECT_EQ(meta.free_segments(), 3);
  // Exhaust.
  meta.AllocateSegment(false);
  meta.AllocateSegment(false);
  meta.AllocateSegment(false);
  EXPECT_EQ(meta.AllocateSegment(false), -1);
}

TEST(LogMetadataTest, GarbageMarkerProtocol) {
  LogMetadata meta(8);
  meta.AppendGarbage({1, 0, 100});
  meta.AppendGarbage({2, 0, 50});
  const size_t marker = meta.MarkGarbage();
  // Garbage arriving during the clean stays after the marker.
  meta.AppendGarbage({3, 0, 25});
  EXPECT_EQ(meta.garbage_entries(), 3);
  EXPECT_EQ(meta.garbage_bytes(), 175);
  meta.TruncateGarbage(marker);
  EXPECT_EQ(meta.garbage_entries(), 1);
  EXPECT_EQ(meta.garbage_bytes(), 25);
  EXPECT_EQ(meta.garbage().front().segment, 3);
}

TEST(LogMetadataTest, SerializeRoundTrip) {
  LogMetadata meta(8);
  Pnode* f = meta.CreateFile(FileType::kContinuous);
  f->size = 12345;
  f->blocks[0] = BlockLocation{2, 0, 8192};
  f->blocks[7] = BlockLocation{3, 8192, 8192};
  f->index[1'000'000] = 0;
  f->index[2'000'000] = 8192;
  int64_t seg = meta.AllocateSegment(true);
  meta.segment(seg).live_bytes = 16384;
  meta.segment(seg).summary.push_back(SummaryEntry{f->id, 0, 0, 8192});
  meta.AppendGarbage({1, 100, 200});

  auto restored = LogMetadata::Deserialize(meta.Serialize());
  ASSERT_TRUE(restored.has_value());
  const Pnode* g = restored->Find(f->id);
  ASSERT_NE(g, nullptr);
  EXPECT_EQ(g->type, FileType::kContinuous);
  EXPECT_EQ(g->size, 12345);
  EXPECT_EQ(g->blocks.at(7).segment, 3);
  EXPECT_EQ(g->index.at(2'000'000), 8192);
  EXPECT_EQ(restored->segment(seg).live_bytes, 16384);
  ASSERT_EQ(restored->segment(seg).summary.size(), 1u);
  EXPECT_EQ(restored->garbage_bytes(), 200);
  // A fresh file id does not collide with the restored one.
  Pnode* h = restored->CreateFile(FileType::kNormal);
  EXPECT_GT(h->id, f->id);
}

TEST(LogMetadataTest, DeserializeRejectsCorruptImage) {
  LogMetadata meta(4);
  auto image = meta.Serialize();
  image[0] ^= 0xFF;  // break the magic
  EXPECT_FALSE(LogMetadata::Deserialize(image).has_value());
  EXPECT_FALSE(LogMetadata::Deserialize({1, 2, 3}).has_value());
}

}  // namespace
}  // namespace pegasus::pfs
