#include "src/atm/aal5.h"

#include <algorithm>
#include <cstring>

#include "src/atm/crc32.h"

namespace pegasus::atm {

namespace {

// AAL5 trailer layout (last 8 octets of the CS-PDU):
//   [0] CPCS-UU  [1] CPI  [2..3] length (big-endian)  [4..7] CRC-32 (big-endian)
constexpr size_t kTrailerSize = 8;

void PutU16(uint8_t* p, uint16_t v) {
  p[0] = static_cast<uint8_t>(v >> 8);
  p[1] = static_cast<uint8_t>(v);
}

uint16_t GetU16(const uint8_t* p) { return static_cast<uint16_t>(p[0] << 8 | p[1]); }

void PutU32(uint8_t* p, uint32_t v) {
  p[0] = static_cast<uint8_t>(v >> 24);
  p[1] = static_cast<uint8_t>(v >> 16);
  p[2] = static_cast<uint8_t>(v >> 8);
  p[3] = static_cast<uint8_t>(v);
}

uint32_t GetU32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) << 24 | static_cast<uint32_t>(p[1]) << 16 |
         static_cast<uint32_t>(p[2]) << 8 | static_cast<uint32_t>(p[3]);
}

}  // namespace

size_t Aal5SegmentInto(Vci vci, const uint8_t* sdu, size_t sdu_len, sim::TimeNs created_at,
                       uint64_t first_seq, std::vector<Cell>* out) {
  if (sdu_len > kAal5MaxSduSize) {
    return 0;
  }
  // CS-PDU layout: SDU + zero pad + 8-octet trailer, a multiple of the cell
  // payload size — but cut directly into cell payloads instead of being
  // materialised.
  const size_t unpadded = sdu_len + kTrailerSize;
  const size_t n_cells = (unpadded + kCellPayloadSize - 1) / kCellPayloadSize;
  out->reserve(out->size() + n_cells);
  // Each cell is built whole in `cell` and appended once: growing `out`
  // first would zero every cell only for the loop to overwrite it.
  Cell cell;
  cell.vci = vci;
  cell.created_at = created_at;
  uint32_t crc = 0;
  size_t offset = 0;  // position within the SDU
  for (size_t i = 0; i < n_cells; ++i) {
    const bool last = i + 1 == n_cells;
    cell.end_of_frame = last;
    cell.seq = first_seq + i;
    uint8_t* payload = cell.payload.data();
    const size_t take = std::min(sdu_len - offset, static_cast<size_t>(kCellPayloadSize));
    if (take > 0) {
      std::memcpy(payload, sdu + offset, take);
      offset += take;
    }
    if (take < static_cast<size_t>(kCellPayloadSize)) {
      std::memset(payload + take, 0, kCellPayloadSize - take);
    }
    if (!last) {
      crc = Crc32(payload, kCellPayloadSize, crc);
    } else {
      // Trailer lives in the last 8 octets of the last cell (the PDU is
      // padded to a payload multiple, so it never straddles cells). The CRC
      // covers the whole PDU with the CRC field itself zeroed (it is zero
      // here), computed incrementally over the finished cell payloads.
      uint8_t* trailer = payload + kCellPayloadSize - kTrailerSize;
      trailer[0] = 0;  // CPCS-UU
      trailer[1] = 0;  // CPI
      PutU16(trailer + 2, static_cast<uint16_t>(sdu_len));
      crc = Crc32(payload, kCellPayloadSize - 4, crc);
      PutU32(trailer + 4, crc);
    }
    out->push_back(cell);
  }
  return n_cells;
}

std::vector<Cell> Aal5Segment(Vci vci, const std::vector<uint8_t>& sdu, sim::TimeNs created_at,
                              uint64_t first_seq) {
  std::vector<Cell> cells;
  Aal5SegmentInto(vci, sdu.data(), sdu.size(), created_at, first_seq, &cells);
  return cells;
}

namespace {
// Past this the PDU cannot be valid: an end-of-frame cell was lost and the
// reassembler resynchronises by dropping the accumulated buffer.
constexpr size_t kResyncLimit = kAal5MaxSduSize + 2 * kCellPayloadSize;
}  // namespace

void Aal5Reassembler::IngestSpan(const Cell* cells, size_t count) {
  size_t i = 0;
  while (i < count) {
    if (buffer_.empty()) {
      buffer_.reserve(64 * kCellPayloadSize);
    }
    // Cells that fit without tripping the resync limit; the one after them
    // trips it, exactly as the per-cell path's append-then-check would.
    const size_t room = (kResyncLimit - buffer_.size()) / kCellPayloadSize;
    const size_t take = std::min(count - i, room + 1);
    const size_t base = buffer_.size();
    buffer_.resize(base + take * kCellPayloadSize);
    uint8_t* dst = buffer_.data() + base;
    for (size_t k = 0; k < take; ++k) {
      std::memcpy(dst + k * kCellPayloadSize, cells[i + k].payload.data(), kCellPayloadSize);
    }
    i += take;
    if (buffer_.size() > kResyncLimit) {
      ++length_errors_;
      buffer_.clear();
    }
  }
}

std::optional<std::vector<uint8_t>> Aal5Reassembler::Push(const Cell& cell) {
  if (buffer_.empty()) {
    // One up-front reservation sized for a typical tile/frame PDU, so the
    // per-cell appends below never reallocate mid-frame for common sizes.
    buffer_.reserve(64 * kCellPayloadSize);
  }
  buffer_.insert(buffer_.end(), cell.payload.begin(), cell.payload.end());
  if (buffer_.size() > kResyncLimit) {
    // Lost an end-of-frame cell somewhere; resynchronise.
    ++length_errors_;
    buffer_.clear();
    return std::nullopt;
  }
  if (!cell.end_of_frame) {
    return std::nullopt;
  }
  std::vector<uint8_t> pdu;
  pdu.swap(buffer_);
  if (pdu.size() < kTrailerSize) {
    ++length_errors_;
    return std::nullopt;
  }
  const uint8_t* trailer = pdu.data() + pdu.size() - kTrailerSize;
  const uint16_t sdu_len = GetU16(trailer + 2);
  const uint32_t want_crc = GetU32(trailer + 4);
  if (sdu_len + kTrailerSize > pdu.size()) {
    ++length_errors_;
    return std::nullopt;
  }
  // Recompute CRC over the PDU with the CRC field zeroed.
  const uint32_t got_crc = Crc32(pdu.data(), pdu.size() - 4);
  if (got_crc != want_crc) {
    ++crc_errors_;
    return std::nullopt;
  }
  ++frames_ok_;
  pdu.resize(sdu_len);
  return pdu;
}

}  // namespace pegasus::atm
