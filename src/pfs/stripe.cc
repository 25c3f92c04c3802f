#include "src/pfs/stripe.h"

#include <algorithm>
#include <cassert>

namespace pegasus::pfs {

namespace {

// Shared completion state for scatter-gather operations.
struct Gather {
  int pending = 0;
  bool ok = true;
  std::vector<std::vector<uint8_t>> parts;
};

}  // namespace

StripeStore::StripeStore(sim::Simulator* sim, int num_data_disks, int64_t segment_size,
                         DiskGeometry geometry)
    : sim_(sim), segment_size_(segment_size), chunk_size_(segment_size / num_data_disks) {
  assert(segment_size % num_data_disks == 0);
  for (int i = 0; i <= num_data_disks; ++i) {
    const std::string name = i < num_data_disks ? "data" + std::to_string(i) : "parity";
    disks_.push_back(std::make_unique<SimDisk>(sim, name, geometry));
  }
}

int64_t StripeStore::capacity_segments() const {
  return disks_[0]->geometry().capacity_bytes / chunk_size_;
}

int StripeStore::failed_disk_count() const {
  int n = 0;
  for (const auto& d : disks_) {
    n += d->failed() ? 1 : 0;
  }
  return n;
}

void StripeStore::WriteSegment(int64_t segment, std::vector<uint8_t> data,
                               WriteCallback callback) {
  assert(static_cast<int64_t>(data.size()) <= segment_size_);
  const int n = num_data_disks();
  const int64_t disk_offset = segment * chunk_size_;
  const auto chunk_size = static_cast<size_t>(chunk_size_);

  auto state = std::make_shared<Gather>();
  state->pending = n + 1;
  auto done = [state, callback = std::make_shared<WriteCallback>(std::move(callback))](bool ok) {
    state->ok = state->ok && ok;
    if (--state->pending == 0) {
      (*callback)(state->ok);
    }
  };

  // Each chunk copies its slice of `data` once. Past the end of the data a
  // chunk is written as zeros the disks do not store (WritePadded), so a
  // short segment pads nothing. Chunk 0 always holds the most data, so it
  // seeds the parity and the later chunks XOR in only the bytes they carry.
  std::vector<uint8_t> parity;
  for (int d = 0; d < n; ++d) {
    const size_t lo = std::min(static_cast<size_t>(d) * chunk_size, data.size());
    const size_t hi = std::min(lo + chunk_size, data.size());
    std::vector<uint8_t> chunk(data.begin() + static_cast<int64_t>(lo),
                               data.begin() + static_cast<int64_t>(hi));
    if (d == 0) {
      parity = chunk;
    } else {
      for (size_t i = 0; i < chunk.size(); ++i) {
        parity[i] ^= chunk[i];
      }
    }
    disks_[static_cast<size_t>(d)]->WritePadded(disk_offset, chunk_size_, std::move(chunk), false,
                                                done);
  }
  disks_.back()->WritePadded(disk_offset, chunk_size_, std::move(parity), false, done);
}

void StripeStore::ReadSegment(int64_t segment, ReadCallback callback) {
  const int n = num_data_disks();
  auto state = std::make_shared<Gather>();
  state->pending = n;
  state->parts.resize(static_cast<size_t>(n));
  auto finish = [this, state, callback = std::move(callback)]() {
    if (!state->ok) {
      callback(false, {});
      return;
    }
    std::vector<uint8_t> out;
    out.reserve(static_cast<size_t>(segment_size_));
    for (auto& part : state->parts) {
      out.insert(out.end(), part.begin(), part.end());
    }
    callback(true, std::move(out));
  };
  for (int d = 0; d < n; ++d) {
    ReadChunkRange(d, segment * chunk_size_, chunk_size_, false,
                   [state, d, finish](bool ok, std::vector<uint8_t> data) {
                     state->ok = state->ok && ok;
                     state->parts[static_cast<size_t>(d)] = std::move(data);
                     if (--state->pending == 0) {
                       finish();
                     }
                   });
  }
}

void StripeStore::ReadRange(int64_t segment, int64_t offset, int64_t len, bool realtime,
                            ReadCallback callback) {
  assert(offset >= 0 && offset + len <= segment_size_);
  // Which chunks does [offset, offset+len) intersect? Read from each disk
  // exactly the bytes that fall in its chunk.
  const int first = static_cast<int>(offset / chunk_size_);
  const int last = static_cast<int>((offset + len - 1) / chunk_size_);
  auto state = std::make_shared<Gather>();
  state->pending = last - first + 1;
  state->parts.resize(static_cast<size_t>(last - first + 1));
  auto finish = [state, callback = std::move(callback)]() {
    if (!state->ok) {
      callback(false, {});
      return;
    }
    std::vector<uint8_t> out;
    for (auto& part : state->parts) {
      out.insert(out.end(), part.begin(), part.end());
    }
    callback(true, std::move(out));
  };
  for (int d = first; d <= last; ++d) {
    // Intersection of the request with chunk d, in segment coordinates.
    const int64_t chunk_start = static_cast<int64_t>(d) * chunk_size_;
    const int64_t lo = std::max(offset, chunk_start);
    const int64_t hi = std::min(offset + len, chunk_start + chunk_size_);
    const int64_t disk_offset = segment * chunk_size_ + (lo - chunk_start);
    ReadChunkRange(d, disk_offset, hi - lo, realtime,
                   [state, idx = d - first, finish](bool ok, std::vector<uint8_t> data) {
                     state->ok = state->ok && ok;
                     state->parts[static_cast<size_t>(idx)] = std::move(data);
                     if (--state->pending == 0) {
                       finish();
                     }
                   });
  }
}

void StripeStore::ReadChunkRange(int d, int64_t disk_offset, int64_t len, bool realtime,
                                 ReadCallback callback) {
  SimDisk* disk = disks_[static_cast<size_t>(d)].get();
  if (!disk->failed()) {
    disk->Read(disk_offset, len, realtime, std::move(callback));
    return;
  }
  // Single-disk failure: XOR the other data chunks with parity (§5: "a fifth
  // disk ... allows recovery from disk errors").
  const int n = num_data_disks();
  auto state = std::make_shared<Gather>();
  state->pending = n;  // n-1 sibling data disks + parity
  state->parts.clear();
  auto accum = std::make_shared<std::vector<uint8_t>>(static_cast<size_t>(len), 0);
  ++reconstructed_reads_;
  auto done = [state, accum, callback = std::move(callback)](bool ok,
                                                             std::vector<uint8_t> data) {
    state->ok = state->ok && ok;
    if (ok) {
      for (size_t i = 0; i < data.size() && i < accum->size(); ++i) {
        (*accum)[i] ^= data[i];
      }
    }
    if (--state->pending == 0) {
      if (state->ok) {
        callback(true, std::move(*accum));
      } else {
        callback(false, {});
      }
    }
  };
  for (int other = 0; other < n; ++other) {
    if (other == d) {
      continue;
    }
    disks_[static_cast<size_t>(other)]->Read(disk_offset, len, realtime, done);
  }
  disks_.back()->Read(disk_offset, len, realtime, done);
}

void StripeStore::RebuildChunk(int d, int64_t segment, WriteCallback callback) {
  const int total = static_cast<int>(disks_.size());
  const int64_t disk_offset = segment * chunk_size_;
  auto accum = std::make_shared<std::vector<uint8_t>>(static_cast<size_t>(chunk_size_), 0);
  auto state = std::make_shared<Gather>();
  state->pending = total - 1;
  auto done = [this, d, disk_offset, state, accum,
               callback = std::move(callback)](bool ok, std::vector<uint8_t> data) {
    state->ok = state->ok && ok;
    if (ok) {
      for (size_t i = 0; i < data.size() && i < accum->size(); ++i) {
        (*accum)[i] ^= data[i];
      }
    }
    if (--state->pending == 0) {
      if (!state->ok) {
        callback(false);
        return;
      }
      disks_[static_cast<size_t>(d)]->Write(disk_offset, std::move(*accum), false,
                                            std::move(callback));
    }
  };
  for (int other = 0; other < total; ++other) {
    if (other == d) {
      continue;
    }
    disks_[static_cast<size_t>(other)]->Read(disk_offset, chunk_size_, false, done);
  }
}

int64_t StripeStore::total_bytes_written() const {
  int64_t total = 0;
  for (const auto& d : disks_) {
    total += d->bytes_written();
  }
  return total;
}

int64_t StripeStore::total_bytes_read() const {
  int64_t total = 0;
  for (const auto& d : disks_) {
    total += d->bytes_read();
  }
  return total;
}

sim::DurationNs StripeStore::total_seek_time() const {
  sim::DurationNs total = 0;
  for (const auto& d : disks_) {
    total += d->seek_time();
  }
  return total;
}

sim::DurationNs StripeStore::total_transfer_time() const {
  sim::DurationNs total = 0;
  for (const auto& d : disks_) {
    total += d->transfer_time();
  }
  return total;
}

}  // namespace pegasus::pfs
