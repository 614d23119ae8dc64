// Binary serialization of trained Amm operators. Explicit little-endian
// encoding of fixed-width fields makes the format portable across hosts;
// the field payload travels inside a length+CRC frame (framing.hpp) so a
// torn or bit-rotted blob fails loudly at load time — a hard requirement
// for the serving runtime, whose crash recovery reprograms worker shards
// from persisted blobs.
#include <algorithm>
#include <array>
#include <fstream>
#include <istream>
#include <iterator>
#include <ostream>

#include "maddness/amm.hpp"
#include "maddness/framing.hpp"
#include "util/check.hpp"
#include "util/wire.hpp"

// The CRC fold takes its ISA from a target attribute, so this TU needs
// no -m flag and the rest of it stays baseline-ISA; crc32() checks
// CPUID before calling in.
#if defined(__GNUC__) && defined(__x86_64__)
#include <immintrin.h>
#define SSMA_CLMUL __attribute__((target("pclmul,sse4.1")))
#endif

namespace ssma::maddness {

namespace {

constexpr char kMagic[8] = {'S', 'S', 'M', 'A', 'A', 'M', 'M', '2'};

using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

/// Slicing-by-8 tables: t[0] is the byte-at-a-time table, and t[k][b]
/// is the CRC of byte b followed by k zero bytes, so eight table reads
/// fold eight input bytes at once.
constexpr CrcTables make_crc_tables() {
  CrcTables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k)
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < 8; ++k)
    for (std::size_t i = 0; i < 256; ++i)
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
  return t;
}

constexpr CrcTables kCrcTables = make_crc_tables();

#if defined(SSMA_CLMUL)

/// The fold starts from four 16-byte lanes; shorter inputs take the
/// tables.
constexpr std::size_t kFoldMinBytes = 64;

SSMA_CLMUL inline __m128i load16(const std::uint8_t* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

/// Moves lane `x` forward by the distance whose constants `k` holds
/// (low half x^(d+32) mod P, high half x^(d-32) mod P, bit-reflected,
/// for a distance of d bits) and adds the block found there.
SSMA_CLMUL inline __m128i fold16(__m128i x, __m128i k, __m128i block) {
  return _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(x, k, 0x00),
                                     _mm_clmulepi64_si128(x, k, 0x11)),
                       block);
}

/// Running (inverted) CRC `crc` updated with the `n` bytes at `p`, n a
/// multiple of 16 and at least kFoldMinBytes. Four lanes fold 64 bytes
/// per step, one lane then folds 16 bytes per step, and a Barrett step
/// reduces the last 64 bits to 32. Method and constants: Gopal et al.,
/// "Fast CRC Computation for Generic Polynomials Using PCLMULQDQ
/// Instruction" (Intel, 2009), for the reflected polynomial 0xEDB88320.
SSMA_CLMUL std::uint32_t crc32_fold(const std::uint8_t* p, std::size_t n,
                                    std::uint32_t crc) {
  // Fold distances: k1/k2 512 bits (four lanes), k3/k4 128 bits (one).
  const __m128i k1k2 = _mm_set_epi64x(0x1c6e41596, 0x154442bd4);
  const __m128i k3k4 = _mm_set_epi64x(0x0ccaa009e, 0x1751997d0);
  const __m128i k5 = _mm_set_epi64x(0, 0x163cd6124);
  const __m128i mu_p = _mm_set_epi64x(0x1f7011641, 0x1db710641);
  const __m128i low32 = _mm_setr_epi32(-1, 0, -1, 0);

  __m128i x0 = _mm_xor_si128(load16(p),
                             _mm_cvtsi32_si128(static_cast<int>(crc)));
  __m128i x1 = load16(p + 16);
  __m128i x2 = load16(p + 32);
  __m128i x3 = load16(p + 48);
  for (p += 64, n -= 64; n >= 64; p += 64, n -= 64) {
    x0 = fold16(x0, k1k2, load16(p));
    x1 = fold16(x1, k1k2, load16(p + 16));
    x2 = fold16(x2, k1k2, load16(p + 32));
    x3 = fold16(x3, k1k2, load16(p + 48));
  }
  x0 = fold16(x0, k3k4, x1);
  x0 = fold16(x0, k3k4, x2);
  x0 = fold16(x0, k3k4, x3);
  for (; n >= 16; p += 16, n -= 16) x0 = fold16(x0, k3k4, load16(p));

  // 128 -> 64 bits: the low half times k4 onto the high half, then the
  // low 32 bits times k5 onto the rest.
  x0 = _mm_xor_si128(_mm_srli_si128(x0, 8),
                     _mm_clmulepi64_si128(x0, k3k4, 0x10));
  x0 = _mm_xor_si128(
      _mm_srli_si128(x0, 4),
      _mm_clmulepi64_si128(_mm_and_si128(x0, low32), k5, 0x00));
  // Barrett: mu gives the quotient of the low 32 bits by P; adding
  // quotient times P leaves the remainder in bits 32-63.
  __m128i q = _mm_clmulepi64_si128(_mm_and_si128(x0, low32), mu_p, 0x10);
  q = _mm_clmulepi64_si128(_mm_and_si128(q, low32), mu_p, 0x00);
  x0 = _mm_xor_si128(x0, q);
  return static_cast<std::uint32_t>(_mm_extract_epi32(x0, 1));
}

#endif  // SSMA_CLMUL

/// The frame header for `n` payload bytes at `payload`.
void put_frame_header(char* hdr, const char* payload, std::size_t n) {
  wire::store_le(hdr, n, 8);
  wire::store_le(hdr + 8, crc32(payload, n), 4);
}

void put_matrix(wire::Writer& w, const Matrix& m) {
  w.u64(m.rows());
  w.u64(m.cols());
  w.f32s(m.data(), m.size());
}

Matrix get_matrix(wire::Reader& r) {
  const std::uint64_t rows = r.u64();
  const std::uint64_t cols = r.u64();
  SSMA_CHECK_MSG(rows < (1u << 24) && cols < (1u << 24),
                 "implausible matrix dims in AMM stream");
  std::vector<float> vals;
  r.f32s(&vals, rows * cols);
  SSMA_CHECK_MSG(r.ok(), "AMM matrix exceeds the bytes left");
  Matrix m(static_cast<std::size_t>(rows), static_cast<std::size_t>(cols));
  std::copy(vals.begin(), vals.end(), m.data());
  return m;
}

/// Bytes between the read position of `is` and its end, or false when
/// the stream cannot report positions.
bool bytes_left(std::istream& is, std::uint64_t* n) {
  const std::streampos here = is.tellg();
  is.seekg(0, std::ios::end);
  const std::streampos end = is.tellg();
  if (here < 0 || end < here) return false;
  is.seekg(here);
  *n = static_cast<std::uint64_t>(end - here);
  return true;
}

}  // namespace

namespace detail {

std::uint32_t crc32_tables(const void* data, std::size_t n,
                           std::uint32_t crc) {
  const CrcTables& t = kCrcTables;
  const auto* p = static_cast<const std::uint8_t*>(data);
  crc = ~crc;
  for (; n >= 8; n -= 8, p += 8) {
    const auto lo = crc ^ static_cast<std::uint32_t>(wire::load_le(p, 4));
    const auto hi = static_cast<std::uint32_t>(wire::load_le(p + 4, 4));
    crc = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
          t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
          t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^
          t[0][hi >> 24];
  }
  for (; n > 0; --n, ++p) crc = t[0][(crc ^ *p) & 0xFFu] ^ (crc >> 8);
  return ~crc;
}

#if defined(SSMA_CLMUL)

std::uint32_t crc32_clmul(const void* data, std::size_t n,
                          std::uint32_t crc) {
  if (n < kFoldMinBytes) return crc32_tables(data, n, crc);
  const auto* p = static_cast<const std::uint8_t*>(data);
  const std::size_t body = n & ~std::size_t{15};
  crc = ~crc32_fold(p, body, ~crc);
  return crc32_tables(p + body, n - body, crc);
}

bool crc32_clmul_available() {
  return __builtin_cpu_supports("pclmul") &&
         __builtin_cpu_supports("sse4.1");
}

#else  // !defined(SSMA_CLMUL)

std::uint32_t crc32_clmul(const void* data, std::size_t n,
                          std::uint32_t crc) {
  // Unreachable: crc32() never calls the fold where the probe is false.
  return crc32_tables(data, n, crc);
}

bool crc32_clmul_available() { return false; }

#endif

}  // namespace detail

std::uint32_t crc32(const void* data, std::size_t n, std::uint32_t crc) {
  static const bool fold = detail::crc32_clmul_available();
  return fold ? detail::crc32_clmul(data, n, crc)
              : detail::crc32_tables(data, n, crc);
}

std::uint32_t crc32(const std::string& s) {
  return crc32(s.data(), s.size());
}

void seal_frame(wire::Writer& w, std::size_t slot) {
  SSMA_CHECK(slot + kFrameHeaderBytes <= w.size());
  char* hdr = w.data() + slot;
  put_frame_header(hdr, hdr + kFrameHeaderBytes,
                   w.size() - slot - kFrameHeaderBytes);
}

std::string_view read_frame(wire::Reader& r) {
  const std::uint64_t len = r.u64();
  const std::uint32_t crc = r.u32();
  const std::string_view payload = r.bytes(len);
  if (r.ok() && crc32(payload.data(), payload.size()) == crc)
    return payload;
  r.fail();
  return {};
}

void read_frame_header(const char* hdr, std::uint64_t* len,
                       std::uint32_t* crc) {
  *len = wire::load_le(hdr, 8);
  *crc = static_cast<std::uint32_t>(wire::load_le(hdr + 8, 4));
}

void write_framed_blob(std::ostream& os, const std::string& payload) {
  char hdr[kFrameHeaderBytes];
  put_frame_header(hdr, payload.data(), payload.size());
  os.write(hdr, sizeof(hdr));
  os.write(payload.data(),
           static_cast<std::streamsize>(payload.size()));
  SSMA_CHECK_MSG(os.good(), "framed blob write failure");
}

bool try_read_framed_blob(std::istream& is, std::string* out) {
  // Peek-driven: a clean EOF before the first length byte is a normal
  // end of a record stream, anything shorter than a whole valid frame
  // is a torn tail.
  if (is.peek() == EOF) return false;
  std::uint64_t len = 0;
  std::uint32_t want_crc = 0;
  char hdr[kFrameHeaderBytes];
  is.read(hdr, sizeof(hdr));
  if (is.gcount() != static_cast<std::streamsize>(sizeof(hdr)))
    return false;
  read_frame_header(hdr, &len, &want_crc);
  // Bound the length by the bytes actually left in the stream before
  // allocating: a corrupt header must fall through as torn, not OOM.
  std::uint64_t left = 0;
  if (!bytes_left(is, &left) || len > left) return false;
  std::string payload(static_cast<std::size_t>(len), '\0');
  is.read(payload.data(), static_cast<std::streamsize>(len));
  if (is.gcount() != static_cast<std::streamsize>(len)) return false;
  if (crc32(payload) != want_crc) return false;
  *out = std::move(payload);
  return true;
}

std::string Amm::save_string() const {
  // Fixed fields (magic, frame header, config, act scale, matrix dims
  // and array counts) fit in 128 bytes; the arrays follow.
  wire::Writer w(128 +
                 trees_.size() * (4 * HashTree::kLevels + HashTree::kNodes) +
                 4 * protos_.p.size() + 4 * lut_.scales.size() +
                 lut_.q.size() + 4 * lut_.f.size());
  w.bytes(kMagic, sizeof(kMagic));
  const std::size_t frame = w.skip(kFrameHeaderBytes);

  // Config.
  w.u32(static_cast<std::uint32_t>(cfg_.ncodebooks));
  w.u32(static_cast<std::uint32_t>(cfg_.subvec_dim));
  w.u32(static_cast<std::uint32_t>(cfg_.nlevels));
  w.u8(cfg_.proto_opt == PrototypeOpt::kRidgeJoint ? 1 : 0);
  w.f64(cfg_.ridge_lambda);
  w.u8(cfg_.per_column_lut_scale ? 1 : 0);
  w.f64(cfg_.act_clip_percentile);
  w.u32(static_cast<std::uint32_t>(cfg_.lut_bits));

  w.f32(act_scale_);

  // Trees.
  for (const auto& tree : trees_) {
    for (int l = 0; l < HashTree::kLevels; ++l)
      w.u32(static_cast<std::uint32_t>(tree.split_dim(l)));
    w.bytes(tree.thresholds_flat().data(), HashTree::kNodes);
  }

  // Prototypes.
  put_matrix(w, protos_.p);

  // LUT bank.
  w.u32(static_cast<std::uint32_t>(lut_.nout));
  w.u64(lut_.scales.size());
  w.f32s(lut_.scales.data(), lut_.scales.size());
  w.u64(lut_.q.size());
  w.bytes(lut_.q.data(), lut_.q.size());
  w.u64(lut_.f.size());
  w.f32s(lut_.f.data(), lut_.f.size());

  seal_frame(w, frame);
  return w.take();
}

Amm Amm::load_string(std::string_view blob) {
  SSMA_CHECK_MSG(blob.size() >= sizeof(kMagic) &&
                     std::equal(kMagic, kMagic + sizeof(kMagic), blob.data()),
                 "not an SSMA AMM stream");
  wire::Reader outer(blob.substr(sizeof(kMagic)));
  wire::Reader r(read_frame(outer));
  SSMA_CHECK_MSG(outer.ok(), "truncated or CRC-corrupt AMM blob");

  Amm amm;
  amm.cfg_.ncodebooks = static_cast<int>(r.u32());
  amm.cfg_.subvec_dim = static_cast<int>(r.u32());
  amm.cfg_.nlevels = static_cast<int>(r.u32());
  amm.cfg_.proto_opt =
      r.u8() ? PrototypeOpt::kRidgeJoint : PrototypeOpt::kBucketMeans;
  amm.cfg_.ridge_lambda = r.f64();
  amm.cfg_.per_column_lut_scale = r.u8() != 0;
  amm.cfg_.act_clip_percentile = r.f64();
  amm.cfg_.lut_bits = static_cast<int>(r.u32());
  SSMA_CHECK_MSG(r.ok(), "truncated AMM stream");
  amm.cfg_.validate();

  amm.act_scale_ = r.f32();
  SSMA_CHECK(amm.act_scale_ > 0.0f);

  amm.trees_.resize(amm.cfg_.ncodebooks);
  for (auto& tree : amm.trees_) {
    for (int l = 0; l < HashTree::kLevels; ++l)
      tree.set_split_dim(l, static_cast<int>(r.u32()));
    // Flat threshold order matches save_string().
    for (int flat = 0; flat < HashTree::kNodes; ++flat) {
      const int level = flat < 1 ? 0 : (flat < 3 ? 1 : (flat < 7 ? 2 : 3));
      const int node = flat - ((1 << level) - 1);
      tree.set_threshold(level, node, r.u8());
    }
  }

  amm.protos_.p = get_matrix(r);
  amm.protos_.cfg = amm.cfg_;

  amm.lut_.cfg = amm.cfg_;
  amm.lut_.nout = static_cast<int>(r.u32());
  r.f32s(&amm.lut_.scales, r.u64());
  r.u8s(&amm.lut_.q, r.u64());
  r.f32s(&amm.lut_.f, r.u64());
  SSMA_CHECK_MSG(r.ok(), "truncated AMM stream, or a length field that "
                         "exceeds the bytes left");

  SSMA_CHECK(amm.lut_.q.size() ==
             static_cast<std::size_t>(amm.cfg_.ncodebooks) *
                 amm.cfg_.nprototypes() * amm.lut_.nout);
  // The wire format stays proto-major / per-tree (layout and SSMAAMM2
  // frame are unchanged by the packed kernels); the accumulation and
  // encoder layouts are derived here, after the CRC-validated payload
  // parsed.
  amm.rebuild_derived();
  return amm;
}

void Amm::save_file(const std::string& path) const {
  const std::string blob = save_string();
  std::ofstream os(path, std::ios::binary);
  SSMA_CHECK_MSG(os.is_open(), "cannot open " << path << " for writing");
  os.write(blob.data(), static_cast<std::streamsize>(blob.size()));
  SSMA_CHECK_MSG(os.good(), "AMM write failure: " << path);
}

Amm Amm::load_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  SSMA_CHECK_MSG(is.is_open(), "cannot open " << path);
  const std::string blob((std::istreambuf_iterator<char>(is)),
                         std::istreambuf_iterator<char>());
  return load_string(blob);
}

}  // namespace ssma::maddness
