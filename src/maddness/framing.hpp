// Checksummed framing for on-disk blobs. A frame is
//
//   [u64 payload length][u32 CRC-32 of payload][payload bytes]
//
// written little-endian. Readers validate the CRC before handing the
// payload back, so torn writes and bit rot surface as a CheckError at
// load time instead of silently corrupt operator state. The AMM
// operator stream, the serving checkpoints, and the request journal all
// persist through this frame.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>

namespace ssma::wire {
class Reader;
class Writer;
}  // namespace ssma::wire

namespace ssma::maddness {

/// CRC-32 (IEEE 802.3, reflected, poly 0xEDB88320). On x86-64 CPUs
/// with PCLMULQDQ, an input of 64 bytes or more is folded 64 bytes per
/// step with carry-less multiplies; shorter inputs, the last n % 16
/// bytes of a folded one, and other CPUs take the slicing-by-8 tables,
/// eight bytes per step. Both paths give the same value. `crc` chains
/// incremental updates; pass 0 to start a fresh checksum.
std::uint32_t crc32(const void* data, std::size_t n, std::uint32_t crc = 0);
std::uint32_t crc32(const std::string& s);

namespace detail {

// The two paths behind crc32(), each with its contract, so tests and
// benches can run both on one host.

/// Slicing-by-8 tables: runs on every CPU.
std::uint32_t crc32_tables(const void* data, std::size_t n,
                           std::uint32_t crc);
/// Carry-less-multiply fold of the whole 16-byte blocks of an input of
/// 64 bytes or more; the tables for shorter inputs and the last n % 16
/// bytes. Call only when crc32_clmul_available().
std::uint32_t crc32_clmul(const void* data, std::size_t n,
                          std::uint32_t crc);
/// True when the fold is compiled in and this CPU has PCLMULQDQ and
/// SSE4.1.
bool crc32_clmul_available();

}  // namespace detail

/// Bytes of the frame header that precedes every payload.
inline constexpr std::size_t kFrameHeaderBytes = 12;

/// Fills the kFrameHeaderBytes slot at offset `slot` of `w` with the
/// length and CRC of everything written after it, so an encoder builds
/// a whole frame in one buffer: skip the slot, append the payload, then
/// seal. Frames nest: seal an inner frame before appending past it.
void seal_frame(wire::Writer& w, std::size_t slot);

/// Reads one frame at the position of `r` and returns its payload as a
/// view into the bytes of `r`. A truncated frame or a CRC mismatch
/// fails `r` and returns an empty view.
std::string_view read_frame(wire::Reader& r);

/// Reads the length and CRC from the kFrameHeaderBytes at `hdr`.
void read_frame_header(const char* hdr, std::uint64_t* len,
                       std::uint32_t* crc);

/// Writes one length+CRC frame around `payload`.
void write_framed_blob(std::ostream& os, const std::string& payload);

/// Reads one frame from a stream of frames, such as a journal file.
/// Returns false (leaving *out untouched) on a clean EOF at the frame
/// boundary, on a truncated frame, or on a CRC mismatch: the reader
/// treats everything from the first bad frame on as a torn tail. Never
/// throws on corrupt input.
bool try_read_framed_blob(std::istream& is, std::string* out);

}  // namespace ssma::maddness
