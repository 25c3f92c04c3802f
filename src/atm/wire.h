// Wire-format serialisation helpers.
//
// Control-protocol messages, RPC requests and stored metadata all use the
// same little-endian framing, written and read through these two classes.
// Readers are resilient: reads past the end return zero values and mark the
// reader bad, so malformed frames can be rejected after parsing.
#ifndef PEGASUS_SRC_ATM_WIRE_H_
#define PEGASUS_SRC_ATM_WIRE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace pegasus::atm {

class WireWriter {
 public:
  // Grows the buffer's capacity to at least `n` bytes, so a caller that
  // knows the frame size pays for one allocation.
  void Reserve(size_t n) { buf_.reserve(n); }

  void PutU8(uint8_t v) { buf_.push_back(v); }
  void PutU16(uint16_t v) { PutLittleEndian<2>(v); }
  void PutU32(uint32_t v) { PutLittleEndian<4>(v); }
  void PutU64(uint64_t v) { PutLittleEndian<8>(v); }
  void PutI64(int64_t v) { PutU64(static_cast<uint64_t>(v)); }
  // Length-prefixed (u32) byte string.
  void PutBytes(const std::vector<uint8_t>& v);
  void PutString(const std::string& s);
  // Unframed appends: `v` as is, and `n` copies of `fill`.
  void PutRaw(const std::vector<uint8_t>& v) { buf_.insert(buf_.end(), v.begin(), v.end()); }
  void PutRepeated(size_t n, uint8_t fill) { buf_.insert(buf_.end(), n, fill); }

  const std::vector<uint8_t>& data() const { return buf_; }
  std::vector<uint8_t> Take() { return std::move(buf_); }

 private:
  // Appends the low `N` bytes of `v`, least significant first, growing the
  // buffer once.
  template <size_t N>
  void PutLittleEndian(uint64_t v) {
    uint8_t bytes[N];
    for (size_t i = 0; i < N; ++i) {
      bytes[i] = static_cast<uint8_t>(v >> (8 * i));
    }
    buf_.insert(buf_.end(), bytes, bytes + N);
  }

  std::vector<uint8_t> buf_;
};

class WireReader {
 public:
  explicit WireReader(const std::vector<uint8_t>& data) : data_(data) {}

  uint8_t GetU8();
  uint16_t GetU16();
  uint32_t GetU32();
  uint64_t GetU64();
  int64_t GetI64() { return static_cast<int64_t>(GetU64()); }
  std::vector<uint8_t> GetBytes();
  std::string GetString();

  // True if every read so far was in bounds and all bytes were consumed or
  // not; use ok() to validate after parsing a full message.
  bool ok() const { return ok_; }
  bool AtEnd() const { return pos_ == data_.size(); }

 private:
  bool Need(size_t n);

  const std::vector<uint8_t>& data_;
  size_t pos_ = 0;
  bool ok_ = true;
};

}  // namespace pegasus::atm

#endif  // PEGASUS_SRC_ATM_WIRE_H_
