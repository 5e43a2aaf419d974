// Little-endian byte stream reader/writer with Bitcoin varint support.
#pragma once

#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <string_view>

#include "util/bytes.h"

namespace icbtc::util {

/// Thrown when a reader runs past the end of its buffer or a decoded value is
/// malformed (e.g. a non-canonical varint).
class DecodeError : public std::runtime_error {
 public:
  explicit DecodeError(const std::string& what) : std::runtime_error(what) {}
};

/// Bytes ByteWriter::varint(v) writes: 1, 3, 5 or 9.
constexpr std::size_t varint_size(std::uint64_t v) {
  return v < 0xfd ? 1 : v <= 0xffff ? 3 : v <= 0xffffffffULL ? 5 : 9;
}

class ByteWriter {
 public:
  ByteWriter() = default;

  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u16le(std::uint16_t v) { write_le(v, 2); }
  void u32le(std::uint32_t v) { write_le(v, 4); }
  void u64le(std::uint64_t v) { write_le(v, 8); }
  void i32le(std::int32_t v) { u32le(static_cast<std::uint32_t>(v)); }
  void i64le(std::int64_t v) { u64le(static_cast<std::uint64_t>(v)); }

  void bytes(ByteSpan s) { append(buf_, s); }
  void str(std::string_view s) {
    buf_.insert(buf_.end(), s.begin(), s.end());
  }

  /// Bitcoin CompactSize encoding.
  void varint(std::uint64_t v);

  /// CompactSize length prefix followed by the raw bytes.
  void var_bytes(ByteSpan s) {
    varint(s.size());
    bytes(s);
  }

  const Bytes& data() const& { return buf_; }
  Bytes take() && { return std::move(buf_); }
  std::size_t size() const { return buf_.size(); }

 private:
  void write_le(std::uint64_t v, int n) {
    for (int i = 0; i < n; ++i) buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }

  Bytes buf_;
};

class ByteReader {
 public:
  explicit ByteReader(ByteSpan data) : data_(data) {}

  std::uint8_t u8() { return take(1)[0]; }
  std::uint16_t u16le() { return static_cast<std::uint16_t>(read_le(2)); }
  std::uint32_t u32le() { return static_cast<std::uint32_t>(read_le(4)); }
  std::uint64_t u64le() { return read_le(8); }
  std::int32_t i32le() { return static_cast<std::int32_t>(u32le()); }
  std::int64_t i64le() { return static_cast<std::int64_t>(u64le()); }

  /// Bitcoin CompactSize decoding; rejects non-canonical encodings.
  std::uint64_t varint();

  ByteSpan bytes(std::size_t n) { return take(n); }
  Bytes bytes_copy(std::size_t n) {
    auto s = take(n);
    return Bytes(s.begin(), s.end());
  }
  Bytes var_bytes() { return bytes_copy(checked_len(varint())); }

  template <std::size_t N>
  FixedBytes<N> fixed() {
    return FixedBytes<N>::from_span(take(N));
  }
  Hash256 hash256() {
    Hash256 h;
    auto s = take(32);
    std::memcpy(h.data.data(), s.data(), 32);
    return h;
  }

  std::size_t remaining() const { return data_.size() - pos_; }
  bool done() const { return remaining() == 0; }
  std::size_t position() const { return pos_; }

  /// The already-consumed slice [start, position()). Lets a decoder hash the
  /// exact wire bytes of a value it just parsed without reserializing.
  ByteSpan window(std::size_t start) const {
    if (start > pos_) throw DecodeError("window start past read position");
    return data_.subspan(start, pos_ - start);
  }

  /// Ensures a CompactSize-decoded length fits the remaining buffer before it
  /// is used for an allocation.
  std::size_t checked_len(std::uint64_t n) {
    if (n > remaining()) throw DecodeError("length prefix exceeds buffer");
    return static_cast<std::size_t>(n);
  }

 private:
  ByteSpan take(std::size_t n) {
    if (n > remaining()) throw DecodeError("read past end of buffer");
    ByteSpan s = data_.subspan(pos_, n);
    pos_ += n;
    return s;
  }

  std::uint64_t read_le(int n) {
    auto s = take(static_cast<std::size_t>(n));
    std::uint64_t v = 0;
    for (int i = n - 1; i >= 0; --i) v = (v << 8) | s[static_cast<std::size_t>(i)];
    return v;
  }

  ByteSpan data_;
  std::size_t pos_ = 0;
};

}  // namespace icbtc::util
