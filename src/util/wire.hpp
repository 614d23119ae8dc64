// The one little-endian byte codec of the library. Every format goes
// through it: the AMM operator and pipeline blobs, the model registry,
// serving checkpoints, journal records and the network messages.
//
// A Writer appends fields to one growing buffer. A Reader walks a view
// of bytes and is bounded: a read past the end yields zero and fails
// the reader, and every later read fails too, so a decoder reads a
// whole record and then checks ok() (or done(), when trailing bytes
// are an error). A count read from the bytes is checked against the
// bytes left before it sizes anything, by dividing the bytes left,
// never by multiplying the count, so a hostile count can neither
// allocate nor wrap.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace ssma::wire {

/// Writes the low `nbytes` bytes of `v` at `dst`, little-endian.
inline void store_le(char* dst, std::uint64_t v, int nbytes) {
  for (int i = 0; i < nbytes; ++i)
    dst[i] = static_cast<char>((v >> (8 * i)) & 0xFF);
}

/// Reads `nbytes` little-endian bytes at `src` one at a time, so no
/// alignment or host byte order is assumed.
inline std::uint64_t load_le(const void* src, int nbytes) {
  const auto* p = static_cast<const std::uint8_t*>(src);
  std::uint64_t v = 0;
  for (int i = 0; i < nbytes; ++i)
    v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  return v;
}

class Writer {
 public:
  /// `reserve` sizes the buffer up front; an encoder that knows its
  /// length appends without reallocating.
  explicit Writer(std::size_t reserve = 0) { buf_.reserve(reserve); }

  void u8(std::uint8_t v) { buf_.push_back(static_cast<char>(v)); }
  void u32(std::uint32_t v) { le(v, 4); }
  void u64(std::uint64_t v) { le(v, 8); }
  void f32(float v) {
    std::uint32_t bits;
    std::memcpy(&bits, &v, 4);
    u32(bits);
  }
  void f64(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, 8);
    u64(bits);
  }
  void bytes(const void* p, std::size_t n) {
    buf_.append(static_cast<const char*>(p), n);
  }
  /// A u32 length, then the bytes.
  void str(std::string_view s) {
    u32(static_cast<std::uint32_t>(s.size()));
    bytes(s.data(), s.size());
  }
  // The array writers keep only locals in their loops, so the char
  // stores cannot alias the bound and the compiler can vectorize them.
  void i16s(const std::int16_t* src, std::size_t n) {
    char* dst = grow(2 * n);
    for (std::size_t i = 0; i < n; ++i) {
      const auto u = static_cast<std::uint16_t>(src[i]);
      dst[2 * i] = static_cast<char>(u & 0xFFu);
      dst[2 * i + 1] = static_cast<char>(u >> 8);
    }
  }
  void f32s(const float* src, std::size_t n) {
    char* dst = grow(4 * n);
    for (std::size_t i = 0; i < n; ++i) {
      std::uint32_t u;
      std::memcpy(&u, &src[i], 4);
      for (int b = 0; b < 4; ++b)
        dst[4 * i + b] = static_cast<char>((u >> (8 * b)) & 0xFFu);
    }
  }

  /// Appends `n` zero bytes to fill in later, such as a frame header,
  /// and returns their offset.
  std::size_t skip(std::size_t n) {
    const std::size_t at = buf_.size();
    buf_.resize(at + n);
    return at;
  }
  char* data() { return buf_.data(); }
  std::size_t size() const { return buf_.size(); }
  std::string take() { return std::move(buf_); }

 private:
  void le(std::uint64_t v, int nbytes) {
    char b[8];
    store_le(b, v, nbytes);
    buf_.append(b, static_cast<std::size_t>(nbytes));
  }
  char* grow(std::size_t n) { return buf_.data() + skip(n); }

  std::string buf_;
};

class Reader {
 public:
  /// Reads `bytes`, which must outlive the reader and every view it
  /// returns.
  explicit Reader(std::string_view bytes)
      : p_(bytes.data()), end_(bytes.data() + bytes.size()) {}

  std::uint8_t u8() { return static_cast<std::uint8_t>(le(1)); }
  std::uint32_t u32() { return static_cast<std::uint32_t>(le(4)); }
  std::uint64_t u64() { return le(8); }
  float f32() {
    const std::uint32_t bits = u32();
    float v;
    std::memcpy(&v, &bits, 4);
    return v;
  }
  double f64() {
    const std::uint64_t bits = u64();
    double v;
    std::memcpy(&v, &bits, 8);
    return v;
  }
  /// The next `n` bytes, as a view into the source.
  std::string_view bytes(std::uint64_t n) {
    if (!fits(n, 1)) return {};
    const char* at = p_;
    p_ += n;
    return {at, static_cast<std::size_t>(n)};
  }
  /// A u32 length, then that many bytes.
  std::string_view str() { return bytes(u32()); }

  // The array readers resize `out` to `n` only once the count is known
  // to fit, and leave it untouched when it does not.
  template <typename Byte>
  void u8s(std::vector<Byte>* out, std::uint64_t n) {
    static_assert(sizeof(Byte) == 1);
    if (!fits(n, 1)) return;
    const auto* src = reinterpret_cast<const Byte*>(p_);
    out->assign(src, src + n);
    p_ += n;
  }
  void i16s(std::vector<std::int16_t>* out, std::uint64_t n) {
    if (!fits(n, 2)) return;
    out->resize(static_cast<std::size_t>(n));
    const char* src = p_;
    std::int16_t* dst = out->data();
    for (std::size_t i = 0; i < n; ++i)
      dst[i] = static_cast<std::int16_t>(load_le(src + 2 * i, 2));
    p_ += 2 * n;
  }
  void f32s(std::vector<float>* out, std::uint64_t n) {
    if (!fits(n, 4)) return;
    out->resize(static_cast<std::size_t>(n));
    const char* src = p_;
    float* dst = out->data();
    for (std::size_t i = 0; i < n; ++i) {
      const auto u = static_cast<std::uint32_t>(load_le(src + 4 * i, 4));
      std::memcpy(&dst[i], &u, 4);
    }
    p_ += 4 * n;
  }

  /// Marks the bytes as malformed: every later read fails.
  void fail() {
    ok_ = false;
    p_ = end_;
  }
  bool ok() const { return ok_; }
  /// ok() with every byte consumed.
  bool done() const { return ok_ && p_ == end_; }

 private:
  /// True when `n` elements of `elem_bytes` each are left to read;
  /// otherwise fails the reader.
  bool fits(std::uint64_t n, std::size_t elem_bytes) {
    if (ok_ && n <= static_cast<std::size_t>(end_ - p_) / elem_bytes)
      return true;
    fail();
    return false;
  }
  std::uint64_t le(int nbytes) {
    if (!fits(static_cast<std::uint64_t>(nbytes), 1)) return 0;
    const std::uint64_t v = load_le(p_, nbytes);
    p_ += nbytes;
    return v;
  }

  const char* p_;
  const char* end_;
  bool ok_ = true;
};

}  // namespace ssma::wire
