#include "serve/recovery/journal.hpp"

#include <algorithm>
#include <filesystem>

#include "maddness/framing.hpp"
#include "util/check.hpp"
#include "util/wire.hpp"

namespace ssma::serve::recovery {

namespace {

constexpr char kMagic[8] = {'S', 'S', 'M', 'A', 'J', 'N', 'L', '1'};
constexpr std::uint8_t kAccepted = 1;
constexpr std::uint8_t kCompleted = 2;
constexpr std::uint8_t kAcceptedV2 = 3;  ///< model-tagged accept
/// Compaction marker: the first frame of a compacted file, carrying the
/// (base_seq, base_bytes) the pruned prefix occupied. Not a record — it
/// has no sequence number and is skipped by read().
constexpr std::uint8_t kCompacted = 4;

/// Marker payload: type byte + base_seq + base_bytes.
std::string encode_marker(std::uint64_t base_seq,
                          std::uint64_t base_bytes) {
  wire::Writer w(17);
  w.u8(kCompacted);
  w.u64(base_seq);
  w.u64(base_bytes);
  return w.take();
}

bool parse_marker(const std::string& payload, std::uint64_t* base_seq,
                  std::uint64_t* base_bytes) {
  wire::Reader r(payload);
  const bool marker = r.u8() == kCompacted;
  *base_seq = r.u64();
  *base_bytes = r.u64();
  return marker && r.done();
}

}  // namespace

RequestJournal::RequestJournal(const std::string& path) : path_(path) {
  // Append mode keeps an existing journal's history (a recovered server
  // keeps journaling into the same log); a fresh file gets the magic.
  // A file torn inside the magic itself (crash during creation — no
  // record can precede it) is rewritten from scratch; a full 8 bytes of
  // something else is a foreign file we refuse to clobber.
  char probe_magic[8];
  std::streamsize have = 0;
  {
    std::ifstream probe(path, std::ios::binary);
    if (probe.is_open()) {
      probe.read(probe_magic, sizeof(probe_magic));
      have = probe.gcount();
    }
  }
  const bool prefix_ok =
      std::equal(probe_magic, probe_magic + have, kMagic);
  SSMA_CHECK_MSG(prefix_ok || have < 8,
                 "not an SSMA journal: " << path);
  const bool fresh = have < 8;
  if (!fresh) {
    // Seed the sequence counter from the existing records so a
    // recovered leader keeps handing out file positions a resuming
    // follower can trust. A torn tail — the half-written record of the
    // crash itself — is not a record: truncate the file back to the
    // last whole frame before reopening for append. (Append mode would
    // otherwise write new records AFTER the torn bytes; readers stop at
    // the first bad frame, so every post-restart record would be
    // invisible to recovery and a resuming follower could never stream
    // past the tear.)
    std::streampos last_good;
    std::streampos end;
    {
      std::ifstream is(path, std::ios::binary);
      is.ignore(8);
      std::string payload;
      last_good = is.tellg();
      bool first = true;
      while (maddness::try_read_framed_blob(is, &payload)) {
        if (first) {
          first = false;
          std::uint64_t bs = 0, bb = 0;
          // A compacted file leads with its marker frame: adopt the
          // base so sequence numbers and virtual offsets continue the
          // pre-compaction addressing.
          if (parse_marker(payload, &bs, &bb)) {
            base_seq_ = bs;
            base_bytes_ = bb;
            seq_ = bs;
            header_bytes_ = static_cast<std::uint64_t>(is.tellg());
            generation_ = 1;
            last_good = is.tellg();
            continue;
          }
        }
        ++seq_;
        last_good = is.tellg();
      }
      is.clear();
      is.seekg(0, std::ios::end);
      end = is.tellg();
    }
    if (end > last_good)
      std::filesystem::resize_file(
          path, static_cast<std::uintmax_t>(
                    static_cast<std::streamoff>(last_good)));
    bytes_ = base_bytes_ +
             (static_cast<std::uint64_t>(last_good) - header_bytes_);
  }
  os_.open(path, fresh ? std::ios::binary | std::ios::trunc
                       : std::ios::binary | std::ios::app);
  SSMA_CHECK_MSG(os_.is_open(), "cannot open journal " << path);
  if (fresh) {
    os_.write(kMagic, sizeof(kMagic));
    os_.flush();
    bytes_ = 8;
  }
}

std::uint64_t RequestJournal::append_group(const std::string& frames,
                                           std::size_t records) {
  std::lock_guard<std::mutex> lock(mu_);
  if (records == 0) return seq_;
  os_.write(frames.data(), static_cast<std::streamsize>(frames.size()));
  // Flush every group: the journal is only useful if it survives the
  // crash it exists to cover. (OS-level fsync durability is out of
  // scope for the in-process model; flush makes records visible to a
  // same-host reader immediately.)
  os_.flush();
  SSMA_CHECK_MSG(os_.good(), "journal append failure on " << path_);
  seq_ += records;
  bytes_ += frames.size();
  if (hook_) hook_(seq_, bytes_);
  return seq_;
}

std::uint64_t RequestJournal::append_raw(
    const std::vector<std::string>& payloads) {
  std::size_t total = 0;
  for (const std::string& p : payloads)
    total += maddness::kFrameHeaderBytes + p.size();
  wire::Writer w(total);
  for (const std::string& p : payloads) {
    const std::size_t frame = w.skip(maddness::kFrameHeaderBytes);
    w.bytes(p.data(), p.size());
    maddness::seal_frame(w, frame);
  }
  return append_group(w.take(), payloads.size());
}

std::uint64_t RequestJournal::durable_seq() const {
  std::lock_guard<std::mutex> lock(mu_);
  return seq_;
}

std::uint64_t RequestJournal::durable_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return bytes_;
}

RequestJournal::CompactionInfo RequestJournal::compaction_info() const {
  std::lock_guard<std::mutex> lock(mu_);
  return {base_seq_, base_bytes_, header_bytes_, generation_};
}

std::uint64_t RequestJournal::compact(std::uint64_t max_seq) {
  std::lock_guard<std::mutex> lock(mu_);
  const std::uint64_t bound = std::min(max_seq, seq_);
  if (bound <= base_seq_) return 0;
  os_.flush();

  // Scan the live file: one payload per surviving record, plus the set
  // of ids with a completion record ANYWHERE in the journal (a prefix
  // record's ack may live past the prune point; pruning the accept but
  // keeping the ack is fine — read() tolerates an ack with no accept).
  std::vector<std::string> payloads;
  std::unordered_map<std::uint64_t, bool> completed;
  {
    std::ifstream is(path_, std::ios::binary);
    SSMA_CHECK_MSG(is.is_open(), "cannot reopen journal " << path_);
    is.ignore(static_cast<std::streamsize>(header_bytes_));
    std::string payload;
    while (maddness::try_read_framed_blob(is, &payload))
      payloads.push_back(payload);
  }
  SSMA_CHECK_MSG(payloads.size() == seq_ - base_seq_,
                 "journal " << path_ << " holds " << payloads.size()
                            << " records, expected " << seq_ - base_seq_);
  for (const std::string& p : payloads) {
    ParsedRecord rec;
    if (parse_record(p, &rec) && !rec.is_accepted)
      completed[rec.completed_id] = true;
  }

  // Longest fully-acknowledged prefix ending at or before the bound.
  std::uint64_t new_base = base_seq_;
  std::uint64_t new_base_bytes = base_bytes_;
  for (std::uint64_t s = base_seq_ + 1; s <= bound; ++s) {
    const std::string& p = payloads[s - base_seq_ - 1];
    ParsedRecord rec;
    SSMA_CHECK_MSG(parse_record(p, &rec),
                   "unparsable journal record " << s << " in " << path_);
    if (rec.is_accepted && !completed.count(rec.accepted.id)) break;
    new_base = s;
    new_base_bytes += 12 + p.size();
  }
  if (new_base <= base_seq_) return 0;
  const std::uint64_t pruned = new_base - base_seq_;

  // Atomic rewrite: magic + marker + surviving frames into a temp file,
  // rename over the original. A crash leaves old or new, never a mix.
  const std::string marker = encode_marker(new_base, new_base_bytes);
  const std::string tmp = path_ + ".compact";
  {
    std::ofstream ns(tmp, std::ios::binary | std::ios::trunc);
    SSMA_CHECK_MSG(ns.is_open(), "cannot open " << tmp);
    ns.write(kMagic, sizeof(kMagic));
    maddness::write_framed_blob(ns, marker);
    for (std::uint64_t s = new_base + 1; s <= seq_; ++s)
      maddness::write_framed_blob(ns, payloads[s - base_seq_ - 1]);
    ns.flush();
    SSMA_CHECK_MSG(ns.good(), "compaction write failure on " << tmp);
  }
  os_.close();
  std::filesystem::rename(tmp, path_);
  os_.open(path_, std::ios::binary | std::ios::app);
  SSMA_CHECK_MSG(os_.is_open(), "cannot reopen journal " << path_);
  base_seq_ = new_base;
  base_bytes_ = new_base_bytes;
  header_bytes_ = 8 + 12 + marker.size();
  ++generation_;
  // seq_/bytes_ are virtual and unchanged: appends, the commit hook and
  // the replication handshake keep their pre-compaction addressing.
  return pruned;
}

void RequestJournal::adopt_base(std::uint64_t base_seq,
                                std::uint64_t base_bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  SSMA_CHECK_MSG(seq_ == 0 && base_seq_ == 0,
                 "adopt_base on non-empty journal " << path_
                                                    << " (durable seq "
                                                    << seq_ << ")");
  SSMA_CHECK(base_seq >= 1 && base_bytes >= 8);
  const std::string marker = encode_marker(base_seq, base_bytes);
  maddness::write_framed_blob(os_, marker);
  os_.flush();
  SSMA_CHECK_MSG(os_.good(), "journal append failure on " << path_);
  base_seq_ = base_seq;
  base_bytes_ = base_bytes;
  seq_ = base_seq;
  bytes_ = base_bytes;
  header_bytes_ = 8 + 12 + marker.size();
  ++generation_;
}

void RequestJournal::set_commit_hook(CommitHook hook) {
  std::lock_guard<std::mutex> lock(mu_);
  hook_ = std::move(hook);
}

std::uint64_t RequestJournal::append_accepted(
    std::uint64_t id, std::size_t rows,
    const std::vector<std::uint8_t>& codes) {
  wire::Writer w(maddness::kFrameHeaderBytes + 25 + codes.size());
  const std::size_t frame = w.skip(maddness::kFrameHeaderBytes);
  w.u8(kAccepted);
  w.u64(id);
  w.u64(rows);
  w.u64(codes.size());
  w.bytes(codes.data(), codes.size());
  maddness::seal_frame(w, frame);
  return append_group(w.take(), 1);
}

std::uint64_t RequestJournal::append_accepted(
    std::uint64_t id, const std::string& model,
    std::uint64_t model_version, std::size_t rows,
    const std::vector<std::uint8_t>& codes) {
  return append_accepted(
      {{id, model, model_version, rows, codes.data(), codes.size()}});
}

std::uint64_t RequestJournal::append_accepted(
    const std::vector<AcceptedView>& group) {
  std::size_t total = 0;
  for (const AcceptedView& a : group)
    total += maddness::kFrameHeaderBytes + 41 + a.model.size() +
             a.code_bytes;
  wire::Writer w(total);
  for (const AcceptedView& a : group) {
    const std::size_t frame = w.skip(maddness::kFrameHeaderBytes);
    w.u8(kAcceptedV2);
    w.u64(a.id);
    w.u64(a.model.size());
    w.bytes(a.model.data(), a.model.size());
    w.u64(a.model_version);
    w.u64(a.rows);
    w.u64(a.code_bytes);
    w.bytes(a.codes, a.code_bytes);
    maddness::seal_frame(w, frame);
  }
  return append_group(w.take(), group.size());
}

std::uint64_t RequestJournal::append_completed(std::uint64_t id,
                                               int worker_id,
                                               std::uint32_t output_crc) {
  return append_completed({{id, output_crc}}, worker_id);
}

std::uint64_t RequestJournal::append_completed(
    const std::vector<Completion>& done, int worker_id) {
  constexpr std::size_t kFrame = maddness::kFrameHeaderBytes + 17;
  wire::Writer w(kFrame * done.size());
  for (const Completion& c : done) {
    const std::size_t frame = w.skip(maddness::kFrameHeaderBytes);
    w.u8(kCompleted);
    w.u64(c.id);
    w.u32(static_cast<std::uint32_t>(worker_id));
    w.u32(c.output_crc);
    maddness::seal_frame(w, frame);
  }
  return append_group(w.take(), done.size());
}

bool RequestJournal::parse_record(const std::string& payload,
                                  ParsedRecord* out) {
  wire::Reader r(payload);
  const std::uint8_t type = r.u8();
  if (type == kAccepted || type == kAcceptedV2) {
    out->is_accepted = true;
    AcceptedRecord& rec = out->accepted;
    rec.id = r.u64();
    if (type == kAcceptedV2) {
      rec.model = r.bytes(r.u64());
      rec.model_version = r.u64();
    }
    rec.rows = static_cast<std::size_t>(r.u64());
    r.u8s(&rec.codes, r.u64());
    return r.ok();
  }
  if (type == kCompleted) {
    out->is_accepted = false;
    out->completed_id = r.u64();
    r.u32();  // worker id: informational only
    out->completed_crc = r.u32();
    return r.ok();
  }
  return false;  // unknown record type, or an empty payload
}

JournalReplay RequestJournal::read(const std::string& path) {
  JournalReplay replay;
  std::ifstream is(path, std::ios::binary);
  if (!is.is_open()) return replay;
  char magic[8];
  is.read(magic, sizeof(magic));
  if (is.gcount() == 0) return replay;  // empty file
  SSMA_CHECK_MSG(is.gcount() == 8 && std::equal(magic, magic + 8, kMagic),
                 "not an SSMA journal: " << path);

  std::vector<AcceptedRecord> accepted;
  std::string payload;
  bool first = true;
  for (;;) {
    const std::streampos frame_start = is.tellg();
    if (!maddness::try_read_framed_blob(is, &payload)) {
      // Distinguish clean EOF from a torn tail: bytes existed past the
      // last whole record but didn't parse as a valid frame.
      is.clear();
      is.seekg(0, std::ios::end);
      replay.torn_tail = frame_start >= 0 && is.tellg() > frame_start;
      break;
    }
    if (first) {
      first = false;
      std::uint64_t bs = 0, bb = 0;
      if (parse_marker(payload, &bs, &bb)) {
        replay.compacted_through = bs;
        continue;
      }
    }
    ParsedRecord rec;
    SSMA_CHECK_MSG(parse_record(payload, &rec),
                   "unparseable journal record in " << path);
    if (rec.is_accepted) {
      replay.accepted++;
      replay.max_id = std::max(replay.max_id, rec.accepted.id);
      accepted.push_back(std::move(rec.accepted));
    } else {
      replay.completed++;
      replay.max_id = std::max(replay.max_id, rec.completed_id);
      replay.completed_crc[rec.completed_id] = rec.completed_crc;
    }
  }

  for (AcceptedRecord& rec : accepted)
    if (replay.completed_crc.find(rec.id) == replay.completed_crc.end())
      replay.unacknowledged.push_back(std::move(rec));
  return replay;
}

}  // namespace ssma::serve::recovery
