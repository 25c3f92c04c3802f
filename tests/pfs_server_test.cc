// Tests for the Pegasus file-server core layer, cleaner, failure model,
// client agent and continuous-media streams (§5).
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "src/pfs/client.h"
#include "src/pfs/server.h"
#include "src/sim/event_queue.h"

namespace pegasus::pfs {
namespace {

using sim::Milliseconds;
using sim::Seconds;

PfsConfig TestConfig() {
  PfsConfig cfg;
  cfg.segment_size = 64 << 10;
  cfg.block_size = 8 << 10;
  cfg.geometry.capacity_bytes = 64 << 20;
  cfg.write_back_delay = Seconds(30);
  return cfg;
}

std::vector<uint8_t> Pattern(int64_t len, uint8_t seed) {
  std::vector<uint8_t> v(static_cast<size_t>(len));
  for (size_t i = 0; i < v.size(); ++i) {
    v[i] = static_cast<uint8_t>(seed + i * 13);
  }
  return v;
}

class ServerFixture : public ::testing::Test {
 protected:
  ServerFixture() : server_(&sim_, TestConfig()) {}

  // Convenience synchronous wrappers (they pump the simulator).
  bool WriteSync(FileId f, int64_t off, std::vector<uint8_t> data) {
    bool result = false;
    bool done = false;
    server_.Write(f, off, std::move(data), [&](bool ok) {
      result = ok;
      done = true;
    });
    sim_.RunUntilPredicate([&]() { return done; });
    return result;
  }

  std::pair<bool, std::vector<uint8_t>> ReadSync(FileId f, int64_t off, int64_t len) {
    std::pair<bool, std::vector<uint8_t>> out{false, {}};
    bool done = false;
    server_.Read(f, off, len, [&](bool ok, std::vector<uint8_t> data) {
      out = {ok, std::move(data)};
      done = true;
    });
    sim_.RunUntilPredicate([&]() { return done; });
    return out;
  }

  void SyncAll() {
    bool done = false;
    server_.Sync([&]() { done = true; });
    sim_.RunUntilPredicate([&]() { return done; });
  }

  void CheckpointSync() {
    bool done = false;
    server_.Checkpoint([&](bool) { done = true; });
    sim_.RunUntilPredicate([&]() { return done; });
  }

  CleanStats CleanSync(bool full_scan = false) {
    CleanStats stats;
    bool done = false;
    auto cb = [&](CleanStats s) {
      stats = s;
      done = true;
    };
    if (full_scan) {
      server_.CleanFullScan(cb);
    } else {
      server_.Clean(cb);
    }
    sim_.RunUntilPredicate([&]() { return done; });
    return stats;
  }

  sim::Simulator sim_;
  PegasusFileServer server_;
};

TEST_F(ServerFixture, WriteReadRoundTripFromBuffer) {
  FileId f = server_.CreateFile(FileType::kNormal);
  auto data = Pattern(10000, 7);
  EXPECT_TRUE(WriteSync(f, 0, data));
  EXPECT_EQ(server_.FileSize(f), 10000);
  auto [ok, got] = ReadSync(f, 0, 10000);
  EXPECT_TRUE(ok);
  EXPECT_EQ(got, data);
  // Nothing has touched the disk yet: the data is in the open segment.
  EXPECT_EQ(server_.segments_written(), 0);
  EXPECT_GT(server_.buffered_bytes(), 0);
}

TEST_F(ServerFixture, WriteReadRoundTripFromDisk) {
  FileId f = server_.CreateFile(FileType::kNormal);
  auto data = Pattern(20000, 3);
  EXPECT_TRUE(WriteSync(f, 0, data));
  SyncAll();
  EXPECT_EQ(server_.buffered_bytes(), 0);
  EXPECT_GE(server_.segments_written(), 1);
  auto [ok, got] = ReadSync(f, 0, 20000);
  EXPECT_TRUE(ok);
  EXPECT_EQ(got, data);
}

TEST_F(ServerFixture, UnalignedWritesAndReads) {
  FileId f = server_.CreateFile(FileType::kNormal);
  EXPECT_TRUE(WriteSync(f, 5000, Pattern(1000, 1)));
  SyncAll();
  // Read-modify-write against the on-disk block.
  EXPECT_TRUE(WriteSync(f, 5500, Pattern(100, 9)));
  auto [ok, got] = ReadSync(f, 4990, 1020);
  EXPECT_TRUE(ok);
  // Hole before 5000 reads zero.
  EXPECT_EQ(got[0], 0);
  EXPECT_EQ(got[9], 0);
  EXPECT_EQ(got[10], Pattern(1000, 1)[0]);
  // Overwritten region.
  EXPECT_EQ(got[510], Pattern(100, 9)[0]);
  // Tail of the original write survives the RMW (got[610] is file offset
  // 5600, i.e. index 600 of the pattern written at 5000).
  EXPECT_EQ(got[610], Pattern(1000, 1)[600]);
}

TEST_F(ServerFixture, HolesReadAsZeros) {
  FileId f = server_.CreateFile(FileType::kNormal);
  EXPECT_TRUE(WriteSync(f, 100 * 8192, Pattern(8192, 2)));
  auto [ok, got] = ReadSync(f, 0, 8192);
  EXPECT_TRUE(ok);
  EXPECT_EQ(got, std::vector<uint8_t>(8192, 0));
}

// --- write-path semantics against a reference byte array ---
//
// Write snapshots the base content of every partially covered block when it
// is issued and overlays its range on that snapshot when it commits; a fully
// covered block is built from the written bytes alone. These cases pin the
// bytes that read back, from the write buffer and again from disk.

// Copies `bytes` into `file` at `offset`, growing it with zeros as needed.
void Overlay(std::vector<uint8_t>* file, int64_t offset, const std::vector<uint8_t>& bytes) {
  const auto end = static_cast<size_t>(offset) + bytes.size();
  if (file->size() < end) {
    file->resize(end, 0);
  }
  std::copy(bytes.begin(), bytes.end(), file->begin() + offset);
}

// Two writes issued at the same instant into one block each snapshot it at
// issue; the later commit overlays its range on its own snapshot and so
// clobbers the earlier write's bytes. This pins today's behaviour (the
// reason StorageNode seeds a title with a single write).
TEST_F(ServerFixture, SameInstantWritesToASharedBlockKeepTheLastSnapshot) {
  FileId f = server_.CreateFile(FileType::kNormal);
  std::vector<uint8_t> want;
  Overlay(&want, 0, Pattern(8192, 1));
  ASSERT_TRUE(WriteSync(f, 0, Pattern(8192, 1)));  // block 0 open

  int acks = 0;
  auto ack = [&](bool ok) { acks += ok ? 1 : 0; };
  server_.Write(f, 100, Pattern(1000, 50), ack);          // open block 0 ...
  server_.Write(f, 3000, Pattern(1000, 90), ack);         // ... clobbered by this
  server_.Write(f, 8192, Pattern(500, 7), ack);           // new block 1 ...
  server_.Write(f, 8192 + 4000, Pattern(500, 11), ack);   // ... clobbered by this
  sim_.RunUntilPredicate([&]() { return acks == 4; });
  Overlay(&want, 3000, Pattern(1000, 90));
  want.resize(8192 + 4000, 0);  // block 1's head is the zero snapshot
  Overlay(&want, 8192 + 4000, Pattern(500, 11));

  const auto len = static_cast<int64_t>(want.size());
  EXPECT_EQ(server_.FileSize(f), len);
  EXPECT_EQ(ReadSync(f, 0, len).second, want);
  SyncAll();
  EXPECT_EQ(ReadSync(f, 0, len).second, want);
}

// A write that covers a whole open block replaces it outright. A partial
// write issued at the same instant after it still snapshots the block as it
// was before, and commits last.
TEST_F(ServerFixture, FullCoverWriteOverOpenBlocksReplacesThem) {
  FileId f = server_.CreateFile(FileType::kNormal);
  std::vector<uint8_t> want;
  ASSERT_TRUE(WriteSync(f, 0, Pattern(3 * 8192, 3)));  // blocks 0-2 open
  Overlay(&want, 0, Pattern(3 * 8192, 3));
  const std::vector<uint8_t> before = want;

  ASSERT_TRUE(WriteSync(f, 8192, Pattern(8192, 40)));  // covers block 1 only
  Overlay(&want, 8192, Pattern(8192, 40));
  EXPECT_EQ(ReadSync(f, 0, 3 * 8192).second, want);

  int acks = 0;
  auto ack = [&](bool ok) { acks += ok ? 1 : 0; };
  server_.Write(f, 0, Pattern(2 * 8192, 60), ack);  // covers blocks 0 and 1
  server_.Write(f, 8192 + 100, Pattern(200, 70), ack);  // snapshots block 1 first
  sim_.RunUntilPredicate([&]() { return acks == 2; });
  Overlay(&want, 0, Pattern(2 * 8192, 60));
  // Block 1 is the second write's snapshot (the 40-pattern) plus its range.
  Overlay(&want, 8192, Pattern(8192, 40));
  Overlay(&want, 8192 + 100, Pattern(200, 70));
  EXPECT_EQ(ReadSync(f, 0, 3 * 8192).second, want);
  EXPECT_NE(want, before);

  SyncAll();
  EXPECT_EQ(ReadSync(f, 0, 3 * 8192).second, want);
  EXPECT_EQ(server_.blocks_written_to_disk(), 3);
  EXPECT_EQ(server_.blocks_died_in_buffer(), 4);
}

// One write straddles an on-disk block (read-modify-write), a block it
// creates whole, and an open block.
TEST_F(ServerFixture, WriteStraddlingDiskNewAndOpenBlocks) {
  FileId f = server_.CreateFile(FileType::kNormal);
  std::vector<uint8_t> want;
  ASSERT_TRUE(WriteSync(f, 0, Pattern(8192, 5)));  // block 0, made durable
  Overlay(&want, 0, Pattern(8192, 5));
  SyncAll();
  ASSERT_TRUE(WriteSync(f, 2 * 8192, Pattern(8192, 6)));  // block 2, open
  Overlay(&want, 2 * 8192, Pattern(8192, 6));

  const auto straddle = Pattern(8192 - 4000 + 8192 + 3000, 99);
  ASSERT_TRUE(WriteSync(f, 4000, straddle));  // [4000, 2 * 8192 + 3000)
  Overlay(&want, 4000, straddle);
  EXPECT_EQ(ReadSync(f, 0, 3 * 8192).second, want);

  SyncAll();
  EXPECT_EQ(ReadSync(f, 0, 3 * 8192).second, want);
  EXPECT_EQ(server_.garbage_entries(), 1);  // block 0's first copy
}

// A flush that does not fill its last segment: the data reads back, the
// padding is counted, every disk pays a full chunk, and parity still
// reconstructs the half-filled and the empty chunks.
TEST_F(ServerFixture, ShortFinalSegmentReadsBackAndReconstructs) {
  FileId f = server_.CreateFile(FileType::kNormal);
  // 11 blocks, the last one short: a full 8-block segment, then 3 blocks
  // (chunk 0 full, chunk 1 half, chunks 2 and 3 empty).
  const auto data = Pattern(11 * 8192 - 100, 21);
  ASSERT_TRUE(WriteSync(f, 0, data));
  SyncAll();
  EXPECT_EQ(server_.segments_written(), 2);
  EXPECT_EQ(server_.partial_segment_padding(), (64 << 10) - 3 * 8192);
  const int64_t chunk = server_.store().chunk_size();
  EXPECT_EQ(server_.store().parity_disk()->bytes_written(), 2 * chunk);
  EXPECT_EQ(server_.store().disk(3)->bytes_written(), 2 * chunk);

  const auto len = static_cast<int64_t>(data.size());
  EXPECT_EQ(ReadSync(f, 0, len).second, data);
  std::vector<uint8_t> tail(100, 0);  // the last block's zero-padded tail
  EXPECT_EQ(ReadSync(f, len, 100).second, tail);
  for (int failed = 0; failed < 4; ++failed) {
    server_.store().disk(failed)->Fail();
    EXPECT_EQ(ReadSync(f, 0, len).second, data) << "failed disk " << failed;
    server_.store().disk(failed)->Repair();
  }
}

// A crash after writes committed (acknowledged, buffered) but before their
// flush completed keeps exactly the durable bytes, whether the flush had not
// started or was on its way to disk; a write not yet committed is refused.
TEST_F(ServerFixture, CrashBetweenCommitAndFlushKeepsOnlyDurableBytes) {
  for (const bool flush_in_flight : {false, true}) {
    sim::Simulator sim;
    PegasusFileServer server(&sim, TestConfig());
    auto write = [&](FileId f, int64_t off, std::vector<uint8_t> data) {
      bool done = false;
      server.Write(f, off, std::move(data), [&](bool ok) {
        EXPECT_TRUE(ok);
        done = true;
      });
      sim.RunUntilPredicate([&]() { return done; });
    };
    auto read = [&](FileId f, int64_t off, int64_t len) {
      std::vector<uint8_t> out;
      bool done = false;
      server.Read(f, off, len, [&](bool ok, std::vector<uint8_t> data) {
        EXPECT_TRUE(ok);
        out = std::move(data);
        done = true;
      });
      sim.RunUntilPredicate([&]() { return done; });
      return out;
    };
    FileId f = server.CreateFile(FileType::kNormal);
    write(f, 0, Pattern(2 * 8192, 31));
    bool synced = false;
    server.Sync([&]() { synced = true; });
    sim.RunUntilPredicate([&]() { return synced; });
    const std::vector<uint8_t> durable = Pattern(2 * 8192, 31);

    write(f, 100, Pattern(300, 77));        // read-modify-write of block 0
    write(f, 2 * 8192, Pattern(8192, 78));  // a new block 2
    if (flush_in_flight) {
      server.Sync([]() {});  // the segment writes are queued at the disks
    }
    bool late_ok = true;
    bool late_done = false;
    server.Write(f, 8192, Pattern(8192, 79), [&](bool ok) {
      late_ok = ok;
      late_done = true;
    });
    server.Crash();
    sim.RunUntil(sim.now() + Seconds(1));
    EXPECT_TRUE(late_done);
    EXPECT_FALSE(late_ok) << "a write uncommitted at the crash was acknowledged";

    bool recovered = false;
    server.Recover([&](bool ok) { recovered = ok; });
    sim.RunUntilPredicate([&]() { return recovered; });
    EXPECT_EQ(server.FileSize(f), 2 * 8192);
    EXPECT_EQ(read(f, 0, 3 * 8192), [&]() {
      std::vector<uint8_t> want = durable;
      want.resize(3 * 8192, 0);
      return want;
    }()) << "flush in flight: " << flush_in_flight;
  }
}

TEST_F(ServerFixture, MemoryPressureFlushesOldestBlocks) {
  // A small write buffer: the oldest segment's worth spills early even
  // though the write-back window has not elapsed.
  PfsConfig cfg = TestConfig();
  cfg.max_buffered_bytes = 64 << 10;  // one segment of buffer
  PegasusFileServer server(&sim_, cfg);
  FileId f = server.CreateFile(FileType::kNormal);
  bool done = false;
  server.Write(f, 0, Pattern(16 * 8192, 4), [&](bool) { done = true; });
  sim_.RunUntilPredicate([&]() { return done; });
  sim_.RunUntil(sim_.now() + Seconds(1));
  EXPECT_GE(server.segments_written(), 1);
  // The young blocks are still buffered, awaiting the 30 s window.
  EXPECT_GT(server.buffered_bytes(), 0);
  EXPECT_LE(server.buffered_bytes(), cfg.max_buffered_bytes);
}

TEST_F(ServerFixture, DelayedWriteTimerFlushes) {
  FileId f = server_.CreateFile(FileType::kNormal);
  EXPECT_TRUE(WriteSync(f, 0, Pattern(100, 5)));
  EXPECT_EQ(server_.segments_written(), 0);
  sim_.RunUntil(sim_.now() + Seconds(31));
  EXPECT_EQ(server_.segments_written(), 1);
  EXPECT_EQ(server_.buffered_bytes(), 0);
}

TEST_F(ServerFixture, OverwriteBeforeFlushSavesDiskWrites) {
  FileId f = server_.CreateFile(FileType::kNormal);
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE(WriteSync(f, 0, Pattern(8192, static_cast<uint8_t>(i))));
  }
  SyncAll();
  // Ten writes of the same block produced one disk block and no garbage:
  // nine died in memory — the delayed-write benefit of §5.
  EXPECT_EQ(server_.blocks_written_to_disk(), 1);
  EXPECT_EQ(server_.blocks_died_in_buffer(), 9);
  EXPECT_EQ(server_.garbage_bytes(), 0);
}

TEST_F(ServerFixture, OverwriteAfterFlushCreatesGarbage) {
  FileId f = server_.CreateFile(FileType::kNormal);
  EXPECT_TRUE(WriteSync(f, 0, Pattern(8192, 1)));
  SyncAll();
  EXPECT_TRUE(WriteSync(f, 0, Pattern(8192, 2)));
  SyncAll();
  EXPECT_EQ(server_.garbage_entries(), 1);
  EXPECT_EQ(server_.garbage_bytes(), 8192);
  // The fresh copy wins.
  auto [ok, got] = ReadSync(f, 0, 8192);
  EXPECT_TRUE(ok);
  EXPECT_EQ(got, Pattern(8192, 2));
}

TEST_F(ServerFixture, DeleteCreatesGarbageAndRemovesFile) {
  FileId f = server_.CreateFile(FileType::kNormal);
  EXPECT_TRUE(WriteSync(f, 0, Pattern(3 * 8192, 1)));
  SyncAll();
  EXPECT_TRUE(server_.Delete(f));
  EXPECT_EQ(server_.garbage_entries(), 3);
  EXPECT_FALSE(server_.FileTypeOf(f).has_value());
  auto [ok, got] = ReadSync(f, 0, 100);
  EXPECT_FALSE(ok);
}

TEST_F(ServerFixture, CleanerReclaimsDeletedSegments) {
  FileId f = server_.CreateFile(FileType::kNormal);
  EXPECT_TRUE(WriteSync(f, 0, Pattern(16 * 8192, 1)));  // two full segments
  SyncAll();
  const int64_t free_before = server_.free_segments();
  server_.Delete(f);
  CleanStats stats = CleanSync();
  EXPECT_EQ(stats.entries_processed, 16);
  EXPECT_EQ(stats.segments_cleaned, 2);
  EXPECT_EQ(stats.live_bytes_copied, 0);  // fully dead: freed without copying
  EXPECT_EQ(server_.free_segments(), free_before + 2);
  EXPECT_EQ(server_.garbage_entries(), 0);  // garbage file truncated
}

TEST_F(ServerFixture, CleanerRelocatesLiveData) {
  FileId dead = server_.CreateFile(FileType::kNormal);
  FileId live = server_.CreateFile(FileType::kNormal);
  // Interleave blocks of the two files so segments hold a mix.
  for (int i = 0; i < 8; ++i) {
    EXPECT_TRUE(WriteSync(dead, i * 8192, Pattern(8192, 0xD0)));
    EXPECT_TRUE(WriteSync(live, i * 8192, Pattern(8192, static_cast<uint8_t>(i))));
  }
  SyncAll();
  server_.Delete(dead);
  CleanStats stats = CleanSync();
  EXPECT_GT(stats.live_bytes_copied, 0);
  EXPECT_GT(stats.bytes_reclaimed, 0);
  // The live file still reads back intact after relocation.
  for (int i = 0; i < 8; ++i) {
    auto [ok, got] = ReadSync(live, i * 8192, 8192);
    EXPECT_TRUE(ok);
    EXPECT_EQ(got, Pattern(8192, static_cast<uint8_t>(i)));
  }
  EXPECT_EQ(server_.garbage_entries(), 0);
}

TEST_F(ServerFixture, CleanerCostIndependentOfStoreSize) {
  // The paper's scaling claim: the garbage-file cleaner touches only dirty
  // segments, while the full-scan baseline examines every segment.
  FileId f = server_.CreateFile(FileType::kNormal);
  EXPECT_TRUE(WriteSync(f, 0, Pattern(8 * 8192, 1)));
  SyncAll();
  server_.Delete(f);
  CleanStats garbage_file = CleanSync();
  EXPECT_EQ(garbage_file.segments_examined, 1);

  FileId g = server_.CreateFile(FileType::kNormal);
  EXPECT_TRUE(WriteSync(g, 0, Pattern(8 * 8192, 2)));
  SyncAll();
  server_.Delete(g);
  CleanStats full = CleanSync(/*full_scan=*/true);
  // 64 MiB store at 16 KiB chunks = 4096 segments, all examined.
  EXPECT_EQ(full.segments_examined, server_.total_segments());
  EXPECT_GT(full.segments_examined, 1000);
}

TEST_F(ServerFixture, ConcurrentWritesDuringCleanSurvive) {
  FileId dead = server_.CreateFile(FileType::kNormal);
  FileId live = server_.CreateFile(FileType::kNormal);
  EXPECT_TRUE(WriteSync(dead, 0, Pattern(8 * 8192, 1)));
  EXPECT_TRUE(WriteSync(live, 0, Pattern(8 * 8192, 2)));
  SyncAll();
  server_.Delete(dead);
  bool clean_done = false;
  server_.Clean([&](CleanStats) { clean_done = true; });
  // New work arrives while the cleaner runs.
  bool write_done = false;
  server_.Write(live, 8 * 8192, Pattern(8192, 3), [&](bool) { write_done = true; });
  sim_.RunUntilPredicate([&]() { return clean_done && write_done; });
  SyncAll();
  auto [ok, got] = ReadSync(live, 8 * 8192, 8192);
  EXPECT_TRUE(ok);
  EXPECT_EQ(got, Pattern(8192, 3));
  // Garbage created during the clean (none here) would stay after marker; at
  // minimum the pre-clean garbage is gone.
  EXPECT_EQ(server_.garbage_bytes(), 0);
}

TEST_F(ServerFixture, CrashLosesBufferedDataKeepsDurable) {
  FileId f = server_.CreateFile(FileType::kNormal);
  EXPECT_TRUE(WriteSync(f, 0, Pattern(8192, 1)));
  SyncAll();  // durable + checkpointed
  EXPECT_TRUE(WriteSync(f, 8192, Pattern(8192, 2)));  // only buffered
  server_.Crash();
  EXPECT_TRUE(server_.crashed());
  bool recovered = false;
  server_.Recover([&](bool ok) { recovered = ok; });
  sim_.RunUntilPredicate([&]() { return recovered; });
  auto [ok1, got1] = ReadSync(f, 0, 8192);
  EXPECT_TRUE(ok1);
  EXPECT_EQ(got1, Pattern(8192, 1));  // durable data survived
  auto [ok2, got2] = ReadSync(f, 8192, 8192);
  EXPECT_TRUE(ok2);
  EXPECT_EQ(got2, std::vector<uint8_t>(8192, 0));  // buffered data lost
}

// A crash while a checkpoint write is in flight discards that image, so the
// blocks it would have made durable must never be reported durable: Recover
// restores the older image, and a client trusting the report would already
// have dropped its safety copy.
TEST_F(ServerFixture, CrashDuringCheckpointWriteReportsNothingDurable) {
  struct Report {
    FileId file;
    int64_t offset;
  };
  std::vector<Report> durable;
  server_.SetDurableCallback([&](FileId file, int64_t offset, int64_t) {
    durable.push_back({file, offset});
  });
  FileId f = server_.CreateFile(FileType::kNormal);
  CheckpointSync();
  EXPECT_TRUE(WriteSync(f, 0, Pattern(8192, 1)));
  SyncAll();
  ASSERT_EQ(durable.size(), 1u);

  EXPECT_TRUE(WriteSync(f, 8192, Pattern(8192, 2)));
  server_.Sync([]() {});
  // The segment write completing is what issues the checkpoint write; crash
  // right after, with that checkpoint still on its way to disk.
  const int64_t segments = server_.segments_written();
  sim_.RunUntilPredicate([&]() { return server_.segments_written() > segments; });
  server_.Crash();
  sim_.RunUntil(sim_.now() + Seconds(1));
  EXPECT_EQ(durable.size(), 1u) << "a block was reported durable by a discarded checkpoint";

  bool recovered = false;
  server_.Recover([&](bool ok) { recovered = ok; });
  sim_.RunUntilPredicate([&]() { return recovered; });
  for (const Report& r : durable) {
    auto [ok, got] = ReadSync(r.file, r.offset, 8192);
    EXPECT_TRUE(ok);
    EXPECT_EQ(got, Pattern(8192, static_cast<uint8_t>(1 + r.offset / 8192)));
  }
}

TEST_F(ServerFixture, PowerFailureWithUpsFlushesBuffers) {
  FileId f = server_.CreateFile(FileType::kNormal);
  EXPECT_TRUE(WriteSync(f, 0, Pattern(8192, 7)));
  bool halted = false;
  server_.PowerFailure(/*has_ups=*/true, [&]() { halted = true; });
  sim_.RunUntilPredicate([&]() { return halted; });
  bool recovered = false;
  server_.Recover([&](bool ok) { recovered = ok; });
  sim_.RunUntilPredicate([&]() { return recovered; });
  auto [ok, got] = ReadSync(f, 0, 8192);
  EXPECT_TRUE(ok);
  EXPECT_EQ(got, Pattern(8192, 7));  // the UPS window saved the buffer
}

TEST_F(ServerFixture, PowerFailureWithoutUpsLosesBuffers) {
  FileId f = server_.CreateFile(FileType::kNormal);
  CheckpointSync();  // the file's existence is durable, its data is not
  EXPECT_TRUE(WriteSync(f, 0, Pattern(8192, 7)));
  bool halted = false;
  server_.PowerFailure(/*has_ups=*/false, [&]() { halted = true; });
  sim_.RunUntilPredicate([&]() { return halted; });
  bool recovered = false;
  server_.Recover([&](bool ok) { recovered = ok; });
  sim_.RunUntilPredicate([&]() { return recovered; });
  auto [ok, got] = ReadSync(f, 0, 8192);
  EXPECT_TRUE(ok);
  EXPECT_EQ(got, std::vector<uint8_t>(8192, 0));  // buffered data is gone
}

TEST_F(ServerFixture, StreamReservationAdmissionControl) {
  FileId f = server_.CreateFile(FileType::kContinuous);
  // Budget: 4 disks * 5 MiB/s * 0.8 = 16.78 MB/s.
  EXPECT_TRUE(server_.ReserveStream(f, 10'000'000));
  FileId g = server_.CreateFile(FileType::kContinuous);
  EXPECT_FALSE(server_.ReserveStream(g, 10'000'000));
  server_.ReleaseStream(f);
  EXPECT_TRUE(server_.ReserveStream(g, 10'000'000));
}

TEST_F(ServerFixture, IndexLookupFindsNearestEntry) {
  FileId f = server_.CreateFile(FileType::kContinuous);
  EXPECT_TRUE(server_.AppendIndexEntry(f, Seconds(0), 0));
  EXPECT_TRUE(server_.AppendIndexEntry(f, Seconds(1), 100000));
  EXPECT_TRUE(server_.AppendIndexEntry(f, Seconds(2), 200000));
  EXPECT_EQ(server_.LookupIndex(f, Seconds(1)), 100000);
  EXPECT_EQ(server_.LookupIndex(f, Seconds(1) + Milliseconds(500)), 100000);
  EXPECT_EQ(server_.LookupIndex(f, Seconds(5)), 200000);
  EXPECT_FALSE(server_.LookupIndex(f, -1).has_value());
  EXPECT_FALSE(server_.LookupIndex(9999, 0).has_value());
}

TEST_F(ServerFixture, StreamReaderDeliversAtRate) {
  FileId f = server_.CreateFile(FileType::kContinuous);
  // Half a megabyte of "video".
  EXPECT_TRUE(WriteSync(f, 0, Pattern(512 << 10, 1)));
  SyncAll();
  int64_t bytes = 0;
  StreamReader reader(&sim_, &server_, f, 64 << 10, Milliseconds(40),
                      [&](bool ok, std::vector<uint8_t> data, sim::TimeNs) {
                        EXPECT_TRUE(ok);
                        bytes += static_cast<int64_t>(data.size());
                      });
  reader.Start();
  sim_.RunUntil(sim_.now() + Seconds(2));
  EXPECT_EQ(reader.chunks_delivered(), 8);  // 512K / 64K
  EXPECT_EQ(bytes, 512 << 10);
  EXPECT_EQ(reader.deadline_misses(), 0);
}

TEST_F(ServerFixture, StreamSeekViaIndex) {
  FileId f = server_.CreateFile(FileType::kContinuous);
  EXPECT_TRUE(WriteSync(f, 0, Pattern(256 << 10, 1)));
  SyncAll();
  // "Frame" index: 25 fps, 10 KiB per frame.
  for (int i = 0; i < 25; ++i) {
    server_.AppendIndexEntry(f, i * Milliseconds(40), i * 10240);
  }
  auto offset = server_.LookupIndex(f, Milliseconds(400));
  ASSERT_TRUE(offset.has_value());
  EXPECT_EQ(*offset, 10 * 10240);
  std::vector<uint8_t> first_chunk;
  StreamReader reader(&sim_, &server_, f, 10240, Milliseconds(40),
                      [&](bool, std::vector<uint8_t> data, sim::TimeNs) {
                        if (first_chunk.empty()) {
                          first_chunk = std::move(data);
                        }
                      });
  reader.Start(*offset);
  sim_.RunUntil(sim_.now() + Milliseconds(200));
  reader.Stop();
  ASSERT_EQ(first_chunk.size(), 10240u);
  EXPECT_EQ(first_chunk[0], Pattern(256 << 10, 1)[10 * 10240]);
}

class ClientFixture : public ServerFixture {
 protected:
  ClientFixture() : agent_(&sim_, &server_, ClientAgent::Options{}) {}

  bool AgentWrite(FileId f, int64_t off, std::vector<uint8_t> data) {
    bool result = false;
    bool done = false;
    agent_.Write(f, off, std::move(data), [&](bool ok) {
      result = ok;
      done = true;
    });
    sim_.RunUntilPredicate([&]() { return done; });
    return result;
  }

  std::pair<bool, std::vector<uint8_t>> AgentRead(FileId f, int64_t off, int64_t len) {
    std::pair<bool, std::vector<uint8_t>> out{false, {}};
    bool done = false;
    agent_.Read(f, off, len, [&](bool ok, std::vector<uint8_t> data) {
      out = {ok, std::move(data)};
      done = true;
    });
    sim_.RunUntilPredicate([&]() { return done; });
    return out;
  }

  ClientAgent agent_;
};

TEST_F(ClientFixture, WriteAcksBeforeDurable) {
  FileId f = server_.CreateFile(FileType::kNormal);
  EXPECT_TRUE(AgentWrite(f, 0, Pattern(8192, 1)));
  // Acked but not flushed: the agent still holds the safety copy.
  EXPECT_EQ(agent_.unflushed_writes(), 1);
  EXPECT_EQ(server_.segments_written(), 0);
  SyncAll();
  sim_.RunUntil(sim_.now() + Milliseconds(10));
  // Durable notification released the copy.
  EXPECT_EQ(agent_.unflushed_writes(), 0);
}

TEST_F(ClientFixture, ServerCrashThenResendPreservesData) {
  FileId f = server_.CreateFile(FileType::kNormal);
  CheckpointSync();  // file creation reaches the checkpoint
  EXPECT_TRUE(AgentWrite(f, 0, Pattern(8192, 5)));
  server_.Crash();
  bool recovered = false;
  server_.Recover([&](bool ok) { recovered = ok; });
  sim_.RunUntilPredicate([&]() { return recovered; });
  // The write was lost with the server's volatile buffer...
  auto [ok0, got0] = ReadSync(f, 0, 8192);
  EXPECT_TRUE(ok0);
  EXPECT_EQ(got0, std::vector<uint8_t>(8192, 0));
  // ...but the agent's copy survives the single-point failure.
  bool resent = false;
  agent_.ResendUnacknowledged([&]() { resent = true; });
  sim_.RunUntilPredicate([&]() { return resent; });
  EXPECT_GT(agent_.resends(), 0);
  auto [ok, got] = ReadSync(f, 0, 8192);
  EXPECT_TRUE(ok);
  EXPECT_EQ(got, Pattern(8192, 5));
}

TEST_F(ClientFixture, ClientCrashServerCompletesWrite) {
  FileId f = server_.CreateFile(FileType::kNormal);
  EXPECT_TRUE(AgentWrite(f, 0, Pattern(8192, 6)));
  // The client machine dies; the server already has the data and completes
  // the write on its own.
  agent_.ClientCrash();
  EXPECT_EQ(agent_.unflushed_writes(), 0);
  SyncAll();
  auto [ok, got] = ReadSync(f, 0, 8192);
  EXPECT_TRUE(ok);
  EXPECT_EQ(got, Pattern(8192, 6));
}

TEST_F(ClientFixture, CacheServesRepeatedReads) {
  FileId f = server_.CreateFile(FileType::kNormal);
  EXPECT_TRUE(WriteSync(f, 0, Pattern(4 * 8192, 3)));
  SyncAll();
  auto first = AgentRead(f, 0, 4 * 8192);
  EXPECT_TRUE(first.first);
  const int64_t misses_after_first = agent_.cache().misses();
  const sim::TimeNs t0 = sim_.now();
  auto second = AgentRead(f, 0, 4 * 8192);
  EXPECT_TRUE(second.first);
  EXPECT_EQ(second.second, first.second);
  EXPECT_EQ(agent_.cache().misses(), misses_after_first);  // pure cache hit
  EXPECT_GT(agent_.cache().hits(), 0);
  // And it was instantaneous: no network, no disk.
  EXPECT_EQ(sim_.now(), t0);
}

TEST_F(ClientFixture, ContinuousFilesBypassCache) {
  FileId f = server_.CreateFile(FileType::kContinuous);
  EXPECT_TRUE(WriteSync(f, 0, Pattern(4 * 8192, 3)));
  SyncAll();
  AgentRead(f, 0, 4 * 8192);
  AgentRead(f, 0, 4 * 8192);
  EXPECT_EQ(agent_.cache().hits(), 0);  // §5: caching video is counterproductive
  EXPECT_EQ(agent_.cache().size_bytes(), 0);
}

TEST(BlockCacheTest, LruEvictionOrder) {
  BlockCache cache(3 * 100);
  cache.Put(1, 0, std::vector<uint8_t>(100, 1));
  cache.Put(1, 1, std::vector<uint8_t>(100, 2));
  cache.Put(1, 2, std::vector<uint8_t>(100, 3));
  std::vector<uint8_t> out;
  EXPECT_TRUE(cache.Get(1, 0, &out));  // touch block 0: block 1 is now LRU
  cache.Put(1, 3, std::vector<uint8_t>(100, 4));
  EXPECT_EQ(cache.evictions(), 1);
  EXPECT_FALSE(cache.Get(1, 1, &out));  // evicted
  EXPECT_TRUE(cache.Get(1, 0, &out));
  EXPECT_TRUE(cache.Get(1, 3, &out));
}

TEST(BlockCacheTest, InvalidateFileRemovesAllItsBlocks) {
  BlockCache cache(1000);
  cache.Put(1, 0, std::vector<uint8_t>(100, 1));
  cache.Put(2, 0, std::vector<uint8_t>(100, 2));
  cache.InvalidateFile(1);
  std::vector<uint8_t> out;
  EXPECT_FALSE(cache.Get(1, 0, &out));
  EXPECT_TRUE(cache.Get(2, 0, &out));
}

}  // namespace
}  // namespace pegasus::pfs
