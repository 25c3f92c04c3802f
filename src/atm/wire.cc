#include "src/atm/wire.h"

namespace pegasus::atm {

void WireWriter::PutBytes(const std::vector<uint8_t>& v) {
  PutU32(static_cast<uint32_t>(v.size()));
  PutRaw(v);
}

void WireWriter::PutString(const std::string& s) {
  PutU32(static_cast<uint32_t>(s.size()));
  buf_.insert(buf_.end(), s.begin(), s.end());
}

bool WireReader::Need(size_t n) {
  if (!ok_ || pos_ + n > data_.size()) {
    ok_ = false;
    return false;
  }
  return true;
}

uint8_t WireReader::GetU8() {
  if (!Need(1)) {
    return 0;
  }
  return data_[pos_++];
}

uint16_t WireReader::GetU16() {
  uint16_t lo = GetU8();
  uint16_t hi = GetU8();
  return static_cast<uint16_t>(lo | hi << 8);
}

uint32_t WireReader::GetU32() {
  uint32_t lo = GetU16();
  uint32_t hi = GetU16();
  return lo | hi << 16;
}

uint64_t WireReader::GetU64() {
  uint64_t lo = GetU32();
  uint64_t hi = GetU32();
  return lo | hi << 32;
}

std::vector<uint8_t> WireReader::GetBytes() {
  const uint32_t len = GetU32();
  if (!Need(len)) {
    return {};
  }
  std::vector<uint8_t> out(data_.begin() + static_cast<long>(pos_),
                           data_.begin() + static_cast<long>(pos_ + len));
  pos_ += len;
  return out;
}

std::string WireReader::GetString() {
  const uint32_t len = GetU32();
  if (!Need(len)) {
    return {};
  }
  std::string out(data_.begin() + static_cast<long>(pos_),
                  data_.begin() + static_cast<long>(pos_ + len));
  pos_ += len;
  return out;
}

}  // namespace pegasus::atm
