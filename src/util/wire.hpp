// Little-endian wire helpers shared by every on-disk format in the
// library (AMM operator blobs, serving checkpoints, the request
// journal) and by the network RPC framing. Explicit byte order keeps
// the formats portable across hosts; fixed-width reads fail loudly on
// truncated streams, and fixed-width writes fail loudly when the sink
// stream enters an error state (full disk, closed pipe) — a silent
// short write would otherwise only surface as a CRC mismatch at read
// time, far from the fault.
#pragma once

#include <cstdint>
#include <cstring>
#include <istream>
#include <ostream>

#include "util/check.hpp"

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

inline void put_u8(std::ostream& os, std::uint8_t v) {
  os.put(static_cast<char>(v));
  SSMA_CHECK_MSG(os.good(),
                 "wire write failed — sink stream entered an error "
                 "state (full disk? closed socket?)");
}

inline void put_u32(std::ostream& os, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) put_u8(os, (v >> (8 * i)) & 0xFF);
}

inline void put_u64(std::ostream& os, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) put_u8(os, (v >> (8 * i)) & 0xFF);
}

inline void put_f32(std::ostream& os, float v) {
  static_assert(sizeof(float) == 4);
  std::uint32_t bits;
  std::memcpy(&bits, &v, 4);
  put_u32(os, bits);
}

inline void put_f64(std::ostream& os, double v) {
  static_assert(sizeof(double) == 8);
  std::uint64_t bits;
  std::memcpy(&bits, &v, 8);
  put_u64(os, bits);
}

inline std::uint8_t get_u8(std::istream& is) {
  const int c = is.get();
  SSMA_CHECK_MSG(c != EOF, "unexpected end of stream");
  return static_cast<std::uint8_t>(c);
}

inline std::uint32_t get_u32(std::istream& is) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i)
    v |= static_cast<std::uint32_t>(get_u8(is)) << (8 * i);
  return v;
}

inline std::uint64_t get_u64(std::istream& is) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i)
    v |= static_cast<std::uint64_t>(get_u8(is)) << (8 * i);
  return v;
}

inline float get_f32(std::istream& is) {
  const std::uint32_t bits = get_u32(is);
  float v;
  std::memcpy(&v, &bits, 4);
  return v;
}

inline double get_f64(std::istream& is) {
  const std::uint64_t bits = get_u64(is);
  double v;
  std::memcpy(&v, &bits, 8);
  return v;
}

}  // namespace ssma::wire
