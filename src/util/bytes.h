#ifndef TPCDS_UTIL_BYTES_H_
#define TPCDS_UTIL_BYTES_H_

#include <cstdint>
#include <string>
#include <utility>

#include "util/result.h"
#include "util/status.h"

namespace tpcds {

/// Little-endian append/read primitives shared by the binary durable
/// formats (checkpoint files, WAL record payloads). Strings are encoded as
/// a u32 length prefix followed by the raw bytes.

inline void PutU32(std::string* out, uint32_t v) {
  out->push_back(static_cast<char>(v & 0xFF));
  out->push_back(static_cast<char>((v >> 8) & 0xFF));
  out->push_back(static_cast<char>((v >> 16) & 0xFF));
  out->push_back(static_cast<char>((v >> 24) & 0xFF));
}

inline void PutU64(std::string* out, uint64_t v) {
  PutU32(out, static_cast<uint32_t>(v & 0xFFFFFFFFu));
  PutU32(out, static_cast<uint32_t>(v >> 32));
}

inline void PutLenString(std::string* out, const std::string& s) {
  PutU32(out, static_cast<uint32_t>(s.size()));
  out->append(s);
}

/// Bounds-checked reader over a byte buffer. Any overrun reports kDataLoss
/// carrying the buffer's context label, so truncated or bit-flipped durable
/// state fails loudly instead of being read as garbage.
class ByteReader {
 public:
  ByteReader(const std::string& data, std::string context)
      : data_(data), context_(std::move(context)) {}

  size_t remaining() const { return data_.size() - pos_; }

  Status Need(size_t n) {
    if (remaining() < n) {
      return Status::DataLoss(context_ + ": truncated at offset " +
                              std::to_string(pos_));
    }
    return Status::OK();
  }

  /// Checks that `count` items of at least `item_bytes` bytes each fit in
  /// what is left, so a corrupt count read from the buffer fails here
  /// instead of sizing an allocation. `what` names the items.
  Status NeedItems(uint64_t count, size_t item_bytes, const char* what) {
    if (count > remaining() / item_bytes) {
      return Status::DataLoss(context_ + ": " + std::to_string(count) + " " +
                              what + " exceed the " +
                              std::to_string(remaining()) + " bytes left");
    }
    return Status::OK();
  }

  Result<uint8_t> ReadU8() {
    TPCDS_RETURN_NOT_OK(Need(1));
    return static_cast<uint8_t>(data_[pos_++]);
  }

  Result<uint32_t> ReadU32() {
    TPCDS_RETURN_NOT_OK(Need(4));
    const auto* p = reinterpret_cast<const uint8_t*>(data_.data() + pos_);
    pos_ += 4;
    return static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
           (static_cast<uint32_t>(p[2]) << 16) |
           (static_cast<uint32_t>(p[3]) << 24);
  }

  Result<uint64_t> ReadU64() {
    TPCDS_ASSIGN_OR_RETURN(uint32_t lo, ReadU32());
    TPCDS_ASSIGN_OR_RETURN(uint32_t hi, ReadU32());
    return static_cast<uint64_t>(lo) | (static_cast<uint64_t>(hi) << 32);
  }

  Result<std::string> ReadLenString() {
    TPCDS_ASSIGN_OR_RETURN(uint32_t len, ReadU32());
    return ReadBytes(len);
  }

  Result<std::string> ReadBytes(size_t n) {
    TPCDS_RETURN_NOT_OK(Need(n));
    std::string s = data_.substr(pos_, n);
    pos_ += n;
    return s;
  }

 private:
  const std::string& data_;
  std::string context_;
  size_t pos_ = 0;
};

}  // namespace tpcds

#endif  // TPCDS_UTIL_BYTES_H_
