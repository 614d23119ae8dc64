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
#include <ostream>
#include <sstream>

#include "maddness/amm.hpp"
#include "maddness/framing.hpp"
#include "util/check.hpp"
#include "util/wire.hpp"

namespace ssma::maddness {

namespace {

using wire::get_f32;
using wire::get_f64;
using wire::get_u32;
using wire::get_u64;
using wire::get_u8;
using wire::put_f32;
using wire::put_f64;
using wire::put_u32;
using wire::put_u64;
using wire::put_u8;

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

/// The frame header for `n` payload bytes at `payload`.
void put_frame_header(char* hdr, const char* payload, std::size_t n) {
  wire::store_le(hdr, n, 8);
  wire::store_le(hdr + 8, crc32(payload, n), 4);
}

void put_matrix(std::ostream& os, const Matrix& m) {
  put_u64(os, m.rows());
  put_u64(os, m.cols());
  for (std::size_t i = 0; i < m.size(); ++i) put_f32(os, m.data()[i]);
}

/// Bytes between the read position of `is` and its end, or false when
/// the stream cannot report positions. Length fields are bounded by it
/// before they size an allocation.
bool bytes_left(std::istream& is, std::uint64_t* n) {
  const std::streampos here = is.tellg();
  is.seekg(0, std::ios::end);
  const std::streampos end = is.tellg();
  if (here < 0 || end < here) return false;
  is.seekg(here);
  *n = static_cast<std::uint64_t>(end - here);
  return true;
}

/// `count` elements of `elem_bytes` each, checked to fit in what is left
/// of `is`: a corrupt length field fails as a CheckError.
std::size_t checked_count(std::istream& is, std::uint64_t count,
                          std::uint64_t elem_bytes) {
  std::uint64_t left = 0;
  SSMA_CHECK_MSG(bytes_left(is, &left) && count <= left / elem_bytes,
                 "AMM stream length field " << count
                                            << " exceeds the bytes left");
  return static_cast<std::size_t>(count);
}

Matrix get_matrix(std::istream& is) {
  const auto rows = static_cast<std::size_t>(get_u64(is));
  const auto cols = static_cast<std::size_t>(get_u64(is));
  SSMA_CHECK_MSG(rows < (1u << 24) && cols < (1u << 24),
                 "implausible matrix dims in AMM stream");
  checked_count(is, std::uint64_t{rows} * cols, 4);
  Matrix m(rows, cols);
  for (std::size_t i = 0; i < m.size(); ++i) m.data()[i] = get_f32(is);
  return m;
}

}  // namespace

std::uint32_t crc32(const void* data, std::size_t n, std::uint32_t crc) {
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

std::uint32_t crc32(const std::string& s) {
  return crc32(s.data(), s.size());
}

void seal_frame(std::string* frame) {
  SSMA_CHECK(frame->size() >= kFrameHeaderBytes);
  put_frame_header(frame->data(), frame->data() + kFrameHeaderBytes,
                   frame->size() - kFrameHeaderBytes);
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

std::string read_framed_blob(std::istream& is) {
  std::string payload;
  SSMA_CHECK_MSG(try_read_framed_blob(is, &payload),
                 "truncated or CRC-corrupt framed blob");
  return payload;
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

void Amm::save(std::ostream& os) const {
  std::ostringstream body;

  // Config.
  put_u32(body, static_cast<std::uint32_t>(cfg_.ncodebooks));
  put_u32(body, static_cast<std::uint32_t>(cfg_.subvec_dim));
  put_u32(body, static_cast<std::uint32_t>(cfg_.nlevels));
  put_u8(body, cfg_.proto_opt == PrototypeOpt::kRidgeJoint ? 1 : 0);
  put_f64(body, cfg_.ridge_lambda);
  put_u8(body, cfg_.per_column_lut_scale ? 1 : 0);
  put_f64(body, cfg_.act_clip_percentile);
  put_u32(body, static_cast<std::uint32_t>(cfg_.lut_bits));

  put_f32(body, act_scale_);

  // Trees.
  for (const auto& tree : trees_) {
    for (int l = 0; l < HashTree::kLevels; ++l)
      put_u32(body, static_cast<std::uint32_t>(tree.split_dim(l)));
    for (int n = 0; n < HashTree::kNodes; ++n)
      put_u8(body, tree.threshold_flat(n));
  }

  // Prototypes.
  put_matrix(body, protos_.p);

  // LUT bank.
  put_u32(body, static_cast<std::uint32_t>(lut_.nout));
  put_u64(body, lut_.scales.size());
  for (float s : lut_.scales) put_f32(body, s);
  put_u64(body, lut_.q.size());
  for (std::int8_t v : lut_.q) put_u8(body, static_cast<std::uint8_t>(v));
  put_u64(body, lut_.f.size());
  for (float v : lut_.f) put_f32(body, v);

  os.write(kMagic, sizeof(kMagic));
  write_framed_blob(os, body.str());
  SSMA_CHECK_MSG(os.good(), "AMM serialization stream failure");
}

Amm Amm::load(std::istream& is) {
  char magic[8];
  is.read(magic, sizeof(magic));
  SSMA_CHECK_MSG(is.good() && std::equal(magic, magic + 8, kMagic),
                 "not an SSMA AMM stream");
  std::istringstream body(read_framed_blob(is));

  Amm amm;
  amm.cfg_.ncodebooks = static_cast<int>(get_u32(body));
  amm.cfg_.subvec_dim = static_cast<int>(get_u32(body));
  amm.cfg_.nlevels = static_cast<int>(get_u32(body));
  amm.cfg_.proto_opt = get_u8(body) ? PrototypeOpt::kRidgeJoint
                                    : PrototypeOpt::kBucketMeans;
  amm.cfg_.ridge_lambda = get_f64(body);
  amm.cfg_.per_column_lut_scale = get_u8(body) != 0;
  amm.cfg_.act_clip_percentile = get_f64(body);
  amm.cfg_.lut_bits = static_cast<int>(get_u32(body));
  amm.cfg_.validate();

  amm.act_scale_ = get_f32(body);
  SSMA_CHECK(amm.act_scale_ > 0.0f);

  amm.trees_.resize(amm.cfg_.ncodebooks);
  for (auto& tree : amm.trees_) {
    for (int l = 0; l < HashTree::kLevels; ++l)
      tree.set_split_dim(l, static_cast<int>(get_u32(body)));
    for (int l = 0; l < HashTree::kLevels; ++l)
      for (int n = 0; n < (1 << l); ++n)
        tree.set_threshold(l, n, 0);  // placeholder; set flat below
    // Flat threshold order matches save().
    for (int flat = 0; flat < HashTree::kNodes; ++flat) {
      const int level = flat < 1 ? 0 : (flat < 3 ? 1 : (flat < 7 ? 2 : 3));
      const int node = flat - ((1 << level) - 1);
      tree.set_threshold(level, node, get_u8(body));
    }
  }

  amm.protos_.p = get_matrix(body);
  amm.protos_.cfg = amm.cfg_;

  amm.lut_.cfg = amm.cfg_;
  amm.lut_.nout = static_cast<int>(get_u32(body));
  amm.lut_.scales.resize(checked_count(body, get_u64(body), 4));
  for (auto& s : amm.lut_.scales) s = get_f32(body);
  amm.lut_.q.resize(checked_count(body, get_u64(body), 1));
  for (auto& v : amm.lut_.q) v = static_cast<std::int8_t>(get_u8(body));
  amm.lut_.f.resize(checked_count(body, get_u64(body), 4));
  for (auto& v : amm.lut_.f) v = get_f32(body);

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
  std::ofstream os(path, std::ios::binary);
  SSMA_CHECK_MSG(os.is_open(), "cannot open " << path << " for writing");
  save(os);
}

Amm Amm::load_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  SSMA_CHECK_MSG(is.is_open(), "cannot open " << path);
  return load(is);
}

std::string Amm::save_string() const {
  std::ostringstream os;
  save(os);
  return os.str();
}

Amm Amm::load_string(const std::string& blob) {
  std::istringstream is(blob);
  return load(is);
}

}  // namespace ssma::maddness
