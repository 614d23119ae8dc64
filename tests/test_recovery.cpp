// Checkpoint/recovery tests: CRC framing, checkpoint versioning with
// torn-write fallback, journal replay with torn-tail tolerance, the
// crash-at-every-point matrix (a fault injected after each pipeline
// stage — enqueue / batch / execute / ack — with supervised in-process
// recovery), the hard-crash restart + journal-replay path, and the
// golden-file regression for the checkpoint format. The recovery
// contract under test: every acknowledged or replayed response is
// bit-exact vs a fault-free single-threaded Amm::apply_int16 run.
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <future>
#include <mutex>
#include <sstream>
#include <thread>
#include <utility>
#include <vector>

#include "engine/model_registry.hpp"
#include "engine/pipeline.hpp"
#include "maddness/framing.hpp"
#include "serve/recovery/checkpoint.hpp"
#include "serve/recovery/fault_injector.hpp"
#include "serve/recovery/journal.hpp"
#include "serve/recovery/recovery.hpp"
#include "serve/replication/replica_applier.hpp"
#include "serve/replication/replication.hpp"
#include "serve/server.hpp"
#include "serve_test_util.hpp"
#include "util/wire.hpp"

namespace ssma::serve {
namespace {

using recovery::AcceptedRecord;
using recovery::CheckpointManager;
using recovery::CheckpointState;
using recovery::FaultInjector;
using recovery::FaultKind;
using recovery::FaultPlan;
using recovery::FaultSite;
using recovery::RequestJournal;

std::string slurp(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  EXPECT_TRUE(is.is_open()) << path;
  std::ostringstream oss;
  oss << is.rdbuf();
  return oss.str();
}

// ------------------------------------------------------------- framing

TEST(Framing, Crc32MatchesKnownVector) {
  // The canonical CRC-32 check value.
  EXPECT_EQ(maddness::crc32(std::string("123456789")), 0xCBF43926u);
  EXPECT_EQ(maddness::crc32(std::string()), 0u);
}

/// The byte-at-a-time table loop: the oracle for any faster crc32.
std::uint32_t crc32_bytewise(const std::uint8_t* p, std::size_t n,
                             std::uint32_t crc = 0) {
  static const std::vector<std::uint32_t> table = [] {
    std::vector<std::uint32_t> t(256);
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k)
        c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      t[i] = c;
    }
    return t;
  }();
  crc = ~crc;
  for (std::size_t i = 0; i < n; ++i)
    crc = table[(crc ^ p[i]) & 0xFFu] ^ (crc >> 8);
  return ~crc;
}

using Crc32Path = std::uint32_t (*)(const void*, std::size_t, std::uint32_t);

/// Every crc32 path that can run here: the tables always, the
/// carry-less-multiply fold where the CPU has it.
std::vector<std::pair<const char*, Crc32Path>> crc32_paths() {
  std::vector<std::pair<const char*, Crc32Path>> paths = {
      {"tables", &maddness::detail::crc32_tables}};
  if (maddness::detail::crc32_clmul_available())
    paths.emplace_back("clmul", &maddness::detail::crc32_clmul);
  return paths;
}

TEST(Framing, Crc32MatchesBytewiseReferenceAtEveryLengthAndOffset) {
  std::vector<std::uint8_t> buf((64u << 10) + 16);
  std::uint32_t x = 0x9E3779B9u;
  for (auto& b : buf) {
    x = x * 1664525u + 1013904223u;
    b = static_cast<std::uint8_t>(x >> 24);
  }
  for (const auto& [name, crc32] : crc32_paths()) {
    SCOPED_TRACE(name);
    ASSERT_EQ(crc32("123456789", 9, 0), 0xCBF43926u);
    // Unaligned starts, every tail length of the tables' 8-byte and the
    // fold's 16-byte stride, and both sides of the fold's 64-byte floor.
    for (std::size_t off = 0; off < 16; ++off)
      for (std::size_t n = 0; n <= 1100; ++n)
        ASSERT_EQ(crc32(buf.data() + off, n, 0),
                  crc32_bytewise(buf.data() + off, n))
            << "offset " << off << " length " << n;
    // mlp_fused's response and request payloads among them.
    for (std::size_t n : {4095u, 4096u, 16430u, 18433u, 18474u, 65535u,
                          65536u})
      for (std::size_t off : {0u, 3u, 7u, 15u})
        ASSERT_EQ(crc32(buf.data() + off, n, 0),
                  crc32_bytewise(buf.data() + off, n))
            << "offset " << off << " length " << n;
    // Chained updates split at every point equal one pass. At 300
    // bytes, most splits leave a second part long enough for a fold
    // seeded with the first part's CRC.
    constexpr std::size_t kChain = 300;
    const std::uint32_t whole = crc32_bytewise(buf.data() + 1, kChain);
    for (std::size_t split = 0; split <= kChain; ++split) {
      const std::uint32_t head = crc32(buf.data() + 1, split, 0);
      EXPECT_EQ(crc32(buf.data() + 1 + split, kChain - split, head), whole)
          << "split at " << split;
    }
  }
}

TEST(Framing, FramedBlobRoundTripAndCorruptionDetected) {
  std::ostringstream os;
  maddness::write_framed_blob(os, "hello, shard");
  std::string bytes = os.str();
  {
    std::istringstream is(bytes);
    std::string out;
    EXPECT_TRUE(maddness::try_read_framed_blob(is, &out));
    EXPECT_EQ(out, "hello, shard");
    wire::Reader r(bytes);
    EXPECT_EQ(maddness::read_frame(r), "hello, shard");
    EXPECT_TRUE(r.done());
  }
  // Flip one payload bit -> CRC must catch it.
  bytes[bytes.size() - 3] ^= 0x40;
  std::istringstream is(bytes);
  std::string out;
  EXPECT_FALSE(maddness::try_read_framed_blob(is, &out));
  wire::Reader r(bytes);
  EXPECT_TRUE(maddness::read_frame(r).empty());
  EXPECT_FALSE(r.ok());
}

TEST(Framing, CorruptLengthHeaderIsTornNotOom) {
  // A bit-rotted length field far larger than the stream must come
  // back as a torn frame, never as a giant allocation or a throw.
  std::string bytes(12, '\0');
  bytes[3] = static_cast<char>(0xFF);  // len = 0xFF000000
  bytes += "short";
  std::istringstream is(bytes);
  std::string out;
  EXPECT_FALSE(maddness::try_read_framed_blob(is, &out));
}

TEST(Framing, AmmBlobIsSelfValidating) {
  const ServeFixture f = ServeFixture::make();
  std::string blob = f.amm.save_string();
  const maddness::Amm replica = maddness::Amm::load_string(blob);
  EXPECT_EQ(replica.apply_int16(f.pool), f.amm.apply_int16(f.pool));
  // A single flipped byte deep in the payload fails the frame CRC
  // instead of silently corrupting LUT entries.
  blob[blob.size() / 2] ^= 0x01;
  EXPECT_THROW(maddness::Amm::load_string(blob), CheckError);
}

// --------------------------------------------------------- checkpoints

TEST(Checkpoint, WriteLoadRoundTrip) {
  TmpDir dir("ckpt");
  CheckpointManager mgr(dir.str());
  CheckpointState st;
  st.amm_blob = "not-a-real-blob-but-any-bytes";
  st.next_request_id = 42;
  st.accepted_requests = 40;
  st.completed_requests = 37;
  st.tokens = 80;
  st.batches = 11;
  EXPECT_EQ(mgr.write(st), 1u);
  EXPECT_EQ(mgr.write(st), 2u);

  std::uint64_t version = 0;
  const auto loaded = mgr.load_latest(&version);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(version, 2u);
  EXPECT_EQ(loaded->amm_blob, st.amm_blob);
  EXPECT_EQ(loaded->next_request_id, 42u);
  EXPECT_EQ(loaded->accepted_requests, 40u);
  EXPECT_EQ(loaded->completed_requests, 37u);
  EXPECT_EQ(loaded->tokens, 80u);
  EXPECT_EQ(loaded->batches, 11u);

  // A new manager over the same dir adopts the existing versions.
  CheckpointManager again(dir.str());
  EXPECT_EQ(again.versions(), (std::vector<std::uint64_t>{1, 2}));
  EXPECT_EQ(again.write(st), 3u);
}

TEST(Checkpoint, TornWriteFallsBackToLastValidVersion) {
  TmpDir dir("torn");
  FaultInjector fault(test_seed());
  CheckpointManager mgr(dir.str(), &fault);

  CheckpointState v1;
  v1.amm_blob = std::string(2048, 'a');
  v1.next_request_id = 100;
  EXPECT_EQ(mgr.write(v1), 1u);

  FaultPlan torn;
  torn.site = FaultSite::kCheckpointWrite;
  torn.kind = FaultKind::kTornCheckpoint;
  torn.fire_at = fault.polls(FaultSite::kCheckpointWrite) + 1;
  fault.arm(torn);

  CheckpointState v2 = v1;
  v2.next_request_id = 200;
  EXPECT_EQ(mgr.write(v2), 2u);  // lands torn on disk

  // Strict load of the torn file throws; latest-valid falls back to v1.
  EXPECT_THROW(CheckpointManager::load_file(mgr.path_of(2)), CheckError);
  std::uint64_t version = 0;
  const auto loaded = mgr.load_latest(&version);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(version, 1u);
  EXPECT_EQ(loaded->next_request_id, 100u);

  // A later good write shadows the torn version again.
  CheckpointState v3 = v1;
  v3.next_request_id = 300;
  EXPECT_EQ(mgr.write(v3), 3u);
  ASSERT_TRUE(mgr.load_latest(&version).has_value());
  EXPECT_EQ(version, 3u);
}

/// A CRC-valid v2 checkpoint file whose payload claims `claim` registry
/// bytes and holds one.
void write_hostile_checkpoint(const std::string& path, std::uint64_t claim) {
  wire::Writer w;
  w.bytes("SSMACKP2", 8);
  w.u64(1);  // version
  const std::size_t frame = w.skip(maddness::kFrameHeaderBytes);
  for (int i = 0; i < 5; ++i) w.u64(0);  // ids and counters
  w.u64(claim);
  w.u8('x');
  maddness::seal_frame(w, frame);
  std::ofstream os(path, std::ios::binary);
  os.write(w.data(), static_cast<std::streamsize>(w.size()));
}

TEST(Checkpoint, HostileBlobLengthIsACheckError) {
  TmpDir dir("ckpthostile");
  for (const std::uint64_t claim :
       {std::uint64_t{1} << 40, std::uint64_t{1} << 62}) {
    const std::string path = dir.file("checkpoint-000001.ssck");
    write_hostile_checkpoint(path, claim);
    EXPECT_THROW(CheckpointManager::load_file(path), CheckError)
        << "claim " << claim;
  }
}

TEST(Checkpoint, LoadLatestSkipsAHostileVersion) {
  TmpDir dir("ckpthostilelatest");
  CheckpointManager mgr(dir.str());
  CheckpointState good;
  good.amm_blob = "any-bytes";
  good.next_request_id = 100;
  EXPECT_EQ(mgr.write(good), 1u);
  write_hostile_checkpoint(mgr.path_of(2), std::uint64_t{1} << 62);

  std::uint64_t version = 0;
  const auto loaded = mgr.load_latest(&version);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(version, 1u);
  EXPECT_EQ(loaded->next_request_id, 100u);
}

// ------------------------------------------------------------- journal

TEST(Journal, ReplaySeparatesUnacknowledgedFromCompleted) {
  TmpDir dir("jnl");
  const std::string path = dir.file("requests.jnl");
  {
    RequestJournal jnl(path);
    jnl.append_accepted(0, 1, {1, 2, 3, 4});
    jnl.append_accepted(1, 2, {5, 6, 7, 8});
    jnl.append_completed(0, /*worker_id=*/2, /*output_crc=*/0xDEAD);
    jnl.append_accepted(2, 1, {9, 9, 9, 9});
  }
  const auto replay = RequestJournal::read(path);
  EXPECT_EQ(replay.accepted, 3u);
  EXPECT_EQ(replay.completed, 1u);
  EXPECT_EQ(replay.max_id, 2u);
  EXPECT_FALSE(replay.torn_tail);
  ASSERT_EQ(replay.unacknowledged.size(), 2u);
  EXPECT_EQ(replay.unacknowledged[0].id, 1u);
  EXPECT_EQ(replay.unacknowledged[0].rows, 2u);
  EXPECT_EQ(replay.unacknowledged[0].codes,
            (std::vector<std::uint8_t>{5, 6, 7, 8}));
  EXPECT_EQ(replay.unacknowledged[1].id, 2u);
  EXPECT_EQ(replay.completed_crc.at(0), 0xDEADu);

  // Reopening appends instead of truncating history.
  {
    RequestJournal again(path);
    again.append_completed(1, 0, 0xBEEF);
  }
  const auto replay2 = RequestJournal::read(path);
  ASSERT_EQ(replay2.unacknowledged.size(), 1u);
  EXPECT_EQ(replay2.unacknowledged[0].id, 2u);
}

TEST(Journal, GroupAppendsMatchOneAtATime) {
  TmpDir dir("jnlgroup");
  const std::vector<recovery::Completion> done = {
      {7, 0xDEADBEEF}, {8, 0x01020304}, {9, 0}};
  // One group of completions against the same records one at a time.
  RequestJournal one(dir.file("one.jnl"));
  RequestJournal group(dir.file("group.jnl"));
  std::vector<std::pair<std::uint64_t, std::uint64_t>> hooked;
  group.set_commit_hook([&](std::uint64_t seq, std::uint64_t bytes) {
    hooked.emplace_back(seq, bytes);
  });
  for (RequestJournal* j : {&one, &group})
    j->append_accepted(7, "m", 2, 1, {1, 2, 3, 4});
  for (const recovery::Completion& c : done)
    one.append_completed(c.id, /*worker_id=*/3, c.output_crc);
  EXPECT_EQ(group.append_completed(done, /*worker_id=*/3), 4u);
  // One commit notification per append call, with the newest record.
  ASSERT_EQ(hooked.size(), 2u);
  EXPECT_EQ(hooked[1],
            std::make_pair(group.durable_seq(), group.durable_bytes()));
  EXPECT_EQ(slurp(group.path()), slurp(one.path()));
  EXPECT_EQ(group.durable_seq(), one.durable_seq());
  EXPECT_EQ(group.durable_bytes(), one.durable_bytes());

  // The leader's record payloads appended raw, as one group, rebuild
  // the same file.
  std::vector<std::string> payloads;
  {
    std::ifstream is(one.path(), std::ios::binary);
    is.ignore(8);
    std::string payload;
    while (maddness::try_read_framed_blob(is, &payload))
      payloads.push_back(payload);
  }
  ASSERT_EQ(payloads.size(), 4u);
  RequestJournal raw(dir.file("raw.jnl"));
  EXPECT_EQ(raw.append_raw(payloads), 4u);
  EXPECT_EQ(slurp(raw.path()), slurp(one.path()));
  EXPECT_EQ(raw.durable_seq(), one.durable_seq());
  EXPECT_EQ(raw.durable_bytes(), one.durable_bytes());
  // An empty group writes nothing.
  EXPECT_EQ(raw.append_raw({}), 4u);
  EXPECT_EQ(raw.durable_bytes(), one.durable_bytes());

  // Reopened, every journal continues the same addressing.
  const auto replay = RequestJournal::read(raw.path());
  EXPECT_EQ(replay.accepted, 1u);
  EXPECT_EQ(replay.completed, 3u);
  EXPECT_EQ(replay.completed_crc.at(8), 0x01020304u);
  RequestJournal reopened(raw.path());
  EXPECT_EQ(reopened.durable_seq(), one.durable_seq());
  EXPECT_EQ(reopened.durable_bytes(), one.durable_bytes());
}

TEST(Journal, GroupOfAcceptRecordsMatchesOneAtATime) {
  TmpDir dir("jnlaccept");
  const std::vector<std::vector<std::uint8_t>> codes = {
      {1, 2, 3, 4}, {5, 6, 7, 8, 9, 10, 11, 12}, {0, 0, 0, 0}};
  RequestJournal one(dir.file("one.jnl"));
  RequestJournal group(dir.file("group.jnl"));
  std::vector<std::uint64_t> hooked;
  group.set_commit_hook(
      [&](std::uint64_t seq, std::uint64_t) { hooked.push_back(seq); });
  std::vector<recovery::AcceptedView> views;
  for (std::size_t i = 0; i < codes.size(); ++i) {
    one.append_accepted(40 + i, "m", 3, codes[i].size() / 4, codes[i]);
    views.push_back({40 + i, "m", 3, codes[i].size() / 4, codes[i].data(),
                     codes[i].size()});
  }
  // One flush and one commit notification, with the newest record.
  EXPECT_EQ(group.append_accepted(views), 3u);
  EXPECT_EQ(hooked, std::vector<std::uint64_t>{3u});
  // Same bytes on disk: the records keep their format.
  EXPECT_EQ(slurp(group.path()), slurp(one.path()));
  EXPECT_EQ(group.durable_bytes(), one.durable_bytes());
  const auto replay = RequestJournal::read(group.path());
  ASSERT_EQ(replay.unacknowledged.size(), 3u);
  EXPECT_EQ(replay.unacknowledged[1].id, 41u);
  EXPECT_EQ(replay.unacknowledged[1].codes, codes[1]);
}

TEST(Journal, TornTailIsDroppedNotMisparsed) {
  TmpDir dir("jnltorn");
  const std::string path = dir.file("requests.jnl");
  {
    RequestJournal jnl(path);
    jnl.append_accepted(0, 1, {1, 2, 3, 4});
    jnl.append_accepted(1, 1, {5, 6, 7, 8});
  }
  // Truncate mid-record: the crash tail a real power cut leaves.
  const std::string whole = slurp(path);
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  os.write(whole.data(),
           static_cast<std::streamsize>(whole.size() - 7));
  os.close();

  const auto replay = RequestJournal::read(path);
  EXPECT_TRUE(replay.torn_tail);
  EXPECT_EQ(replay.accepted, 1u);
  ASSERT_EQ(replay.unacknowledged.size(), 1u);
  EXPECT_EQ(replay.unacknowledged[0].id, 0u);

  // Missing file == empty journal, not an error.
  const auto none = RequestJournal::read(dir.file("nope.jnl"));
  EXPECT_EQ(none.accepted, 0u);
  EXPECT_FALSE(none.torn_tail);
}

TEST(Journal, ReopenTruncatesTornTailSoNewAppendsStayReadable) {
  TmpDir dir("jnlreopen");
  const std::string path = dir.file("requests.jnl");
  {
    RequestJournal jnl(path);
    jnl.append_accepted(0, 1, {1, 2, 3, 4});
    jnl.append_accepted(1, 1, {5, 6, 7, 8});
  }
  // Crash tail: half of record 2 on disk.
  const std::string whole = slurp(path);
  {
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os.write(whole.data(),
             static_cast<std::streamsize>(whole.size() - 7));
  }
  // Reopening truncates back to the last whole frame — appending after
  // the torn bytes would hide every post-restart record behind the
  // tear (readers stop at the first bad frame) and break the
  // follower's byte-prefix resume.
  {
    RequestJournal jnl(path);
    EXPECT_EQ(jnl.durable_seq(), 1u);
    EXPECT_EQ(jnl.durable_bytes(),
              static_cast<std::uint64_t>(
                  std::filesystem::file_size(path)));
    jnl.append_accepted(9, 1, {9, 9, 9, 9});
    EXPECT_EQ(jnl.durable_bytes(),
              static_cast<std::uint64_t>(
                  std::filesystem::file_size(path)));
  }
  const auto replay = RequestJournal::read(path);
  EXPECT_FALSE(replay.torn_tail);
  EXPECT_EQ(replay.accepted, 2u);
  ASSERT_EQ(replay.unacknowledged.size(), 2u);
  EXPECT_EQ(replay.unacknowledged[0].id, 0u);
  EXPECT_EQ(replay.unacknowledged[1].id, 9u);
}

/// An accepted-record payload that ends in a length field claiming
/// `claim` bytes with none after it: the model name of a model-tagged
/// record (type 3), or the codes of a v1 record (type 1).
std::string hostile_record(bool model_name, std::uint64_t claim) {
  wire::Writer w;
  w.u8(model_name ? 3 : 1);
  w.u64(7);                   // request id
  if (!model_name) w.u64(1);  // rows
  w.u64(claim);
  return w.take();
}

TEST(Journal, HostileLengthFieldFailsParseWithoutAllocating) {
  for (bool model_name : {true, false}) {
    const std::string payload = hostile_record(model_name, 256u << 20);
    recovery::ParsedRecord rec;
    EXPECT_FALSE(RequestJournal::parse_record(payload, &rec));
    EXPECT_LE(rec.accepted.model.capacity(), payload.size());
    EXPECT_LE(rec.accepted.codes.capacity(), payload.size());
  }
}

TEST(Journal, HostileLengthFieldInFileIsACheckError) {
  TmpDir dir("jnlhostile");
  int n = 0;
  for (std::uint64_t claim : {std::uint64_t{1} << 62, std::uint64_t{1} << 40})
    for (bool model_name : {true, false}) {
      const std::string path = dir.file("j" + std::to_string(n++) + ".jnl");
      {
        RequestJournal jnl(path);
        jnl.append_accepted(0, 1, {1, 2, 3, 4});
      }
      {
        std::ofstream os(path, std::ios::binary | std::ios::app);
        maddness::write_framed_blob(os, hostile_record(model_name, claim));
      }
      EXPECT_THROW(RequestJournal::read(path), CheckError)
          << "claim " << claim << (model_name ? " in the model name"
                                              : " in the codes");
    }
}

TEST(Journal, TornMagicIsRewrittenForeignFileIsRefused) {
  TmpDir dir("jnlmagic");
  // Crash during journal creation: fewer than 8 magic bytes on disk.
  // Reopening must start the journal over (no records can predate the
  // magic), not wedge every future read.
  const std::string torn = dir.file("torn.jnl");
  {
    std::ofstream os(torn, std::ios::binary);
    os.write("SSM", 3);
  }
  {
    RequestJournal jnl(torn);
    jnl.append_accepted(7, 1, {1, 2, 3, 4});
  }
  const auto replay = RequestJournal::read(torn);
  EXPECT_EQ(replay.accepted, 1u);
  EXPECT_EQ(replay.unacknowledged.at(0).id, 7u);

  // A full 8 bytes of something else is not ours to clobber.
  const std::string foreign = dir.file("foreign.jnl");
  {
    std::ofstream os(foreign, std::ios::binary);
    os.write("NOTAJRNL-data", 13);
  }
  EXPECT_THROW(RequestJournal{foreign}, CheckError);
}

// Pins the journal's on-disk bytes: a committed journal holding every
// record type (v1 accept, model-tagged accepts, completions, one of
// them for an id that was never accepted) behind a compaction marker
// must equal what RequestJournal writes today, and must replay to the
// expected state. Regenerate (deliberate format bumps only) with
// --gtest_also_run_disabled_tests --gtest_filter='*RegenerateJournalGolden*'
namespace journal_golden {

std::string path() {
  return std::string(SSMA_TEST_DATA_DIR) + "/journal_golden.ssj";
}

/// Writes the canonical journal at `p` (which must not exist yet).
void write(const std::string& p) {
  RequestJournal jnl(p);
  jnl.append_accepted(0, "alpha", 1, 1, {1, 2, 3, 4});
  jnl.append_completed(0, 0, 0x0A0B0C0Du);
  jnl.append_accepted(1, "alpha", 2, 2, {5, 6, 7, 8, 9, 10, 11, 12});
  jnl.append_accepted(2, 1, {200, 201, 202, 203});
  jnl.append_completed(1, 1, 0xDEADBEEFu);
  jnl.append_completed(7, 2, 0x12345678u);  // never accepted
  jnl.append_accepted(3, "beta", 1, 1, {255, 0, 128, 64});
  // Records 1-3 are acknowledged; record 4 (request 2) is not.
  EXPECT_EQ(jnl.compact(5), 3u);
  jnl.append_completed(3, 0, 0xCAFEF00Du);
}

}  // namespace journal_golden

TEST(Journal, GoldenJournalFormatIsStable) {
  TmpDir dir("jnlgolden");
  const std::string p = dir.file("golden.ssj");
  journal_golden::write(p);
  EXPECT_EQ(slurp(p), slurp(journal_golden::path()))
      << "journal encoders changed bytes: format drift";

  const auto replay = RequestJournal::read(journal_golden::path());
  EXPECT_EQ(replay.compacted_through, 3u);
  EXPECT_FALSE(replay.torn_tail);
  EXPECT_EQ(replay.accepted, 2u);
  EXPECT_EQ(replay.completed, 3u);
  EXPECT_EQ(replay.max_id, 7u);
  EXPECT_EQ(replay.completed_crc,
            (std::unordered_map<std::uint64_t, std::uint32_t>{
                {1, 0xDEADBEEFu}, {7, 0x12345678u}, {3, 0xCAFEF00Du}}));
  ASSERT_EQ(replay.unacknowledged.size(), 1u);
  const AcceptedRecord& rec = replay.unacknowledged[0];
  EXPECT_EQ(rec.id, 2u);
  EXPECT_EQ(rec.rows, 1u);
  EXPECT_EQ(rec.model, "");
  EXPECT_EQ(rec.model_version, 0u);
  EXPECT_EQ(rec.codes, (std::vector<std::uint8_t>{200, 201, 202, 203}));

  // Reopening the committed file continues its pre-compaction
  // addressing.
  const std::string copy = dir.file("copy.ssj");
  std::filesystem::copy_file(journal_golden::path(), copy);
  RequestJournal again(copy);
  EXPECT_EQ(again.durable_seq(), 8u);
  EXPECT_EQ(again.compaction_info().base_seq, 3u);
}

// Not a test: regenerates the golden journal after a deliberate format
// bump.
TEST(Journal, DISABLED_RegenerateJournalGolden) {
  std::filesystem::remove(journal_golden::path());
  journal_golden::write(journal_golden::path());
}

// ---------------------------------------- crash-at-every-point matrix

// A fault after each worker pipeline stage; the supervisor requeues the
// dead shard's in-flight batch and respawns the shard from the latest
// checkpoint. Every future must still resolve bit-exact.
TEST(Recovery, CrashAtEveryStageSupervisedIsBitExact) {
  const std::uint64_t seed = test_seed();
  SCOPED_TRACE(seed_trace(seed));
  const ServeFixture f = ServeFixture::make();

  struct Scenario {
    FaultSite site;
    FaultKind kind;
  };
  const Scenario scenarios[] = {
      {FaultSite::kBatchFormed, FaultKind::kKillShard},
      {FaultSite::kExecute, FaultKind::kKillShard},
      {FaultSite::kAck, FaultKind::kKillShard},
      {FaultSite::kExecute, FaultKind::kDropBeforeAck},
      {FaultSite::kAck, FaultKind::kDropBeforeAck},
  };

  for (const Scenario& sc : scenarios) {
    SCOPED_TRACE(std::string(to_string(sc.kind)) + " after " +
                 to_string(sc.site));
    TmpDir dir("crash");
    FaultInjector fault(seed);
    CheckpointManager ckpts(dir.str(), &fault);
    RequestJournal journal(dir.file("requests.jnl"));

    FaultPlan plan;
    plan.site = sc.site;
    plan.kind = sc.kind;
    plan.fire_at = 3;  // let a couple of batches through first
    fault.arm(plan);

    ServerOptions opts;
    opts.num_workers = 2;
    opts.batcher.max_batch_tokens = 4;
    opts.batcher.max_wait = std::chrono::microseconds(50);
    opts.recovery.fault = &fault;
    opts.recovery.journal = &journal;
    opts.recovery.checkpoints = &ckpts;
    opts.recovery.supervise = true;
    InferenceServer server(default_registry(f.amm), opts);

    constexpr std::size_t kRequests = 48;
    std::vector<std::future<InferenceResult>> futs;
    for (std::size_t id = 0; id < kRequests; ++id)
      futs.push_back(server.submit("default", f.codes_for(id), 1));
    for (std::size_t id = 0; id < futs.size(); ++id)
      EXPECT_EQ(futs[id].get().outputs, f.expected(id % f.pool.rows, 1))
          << "request " << id
          << " diverged from the fault-free reference";

    EXPECT_EQ(fault.fired(), 1u) << "armed fault did not fire";
    if (sc.kind == FaultKind::kKillShard) {
      EXPECT_EQ(server.respawn_count(), 1);
    }
    server.shutdown();
    EXPECT_EQ(server.metrics().requests, kRequests);

    // The journal must show every request acknowledged exactly once.
    const auto replay = RequestJournal::read(journal.path());
    EXPECT_EQ(replay.accepted, kRequests);
    EXPECT_EQ(replay.completed, kRequests);
    EXPECT_TRUE(replay.unacknowledged.empty());
  }
}

// The enqueue-stage crash: accepted into the WAL, lost before the
// queue. In-process supervision cannot see it — only journal replay
// recovers it. Combined here with a shard kill and no supervision: the
// full hard-crash + restart + replay path, verified to the bit.
TEST(Recovery, HardCrashRestartReplaysJournalBitExact) {
  const std::uint64_t seed = test_seed();
  SCOPED_TRACE(seed_trace(seed));
  const ServeFixture f = ServeFixture::make();
  TmpDir dir("restart");
  const std::string journal_path = dir.file("requests.jnl");
  constexpr std::size_t kRequests = 32;

  std::vector<std::vector<std::uint8_t>> payloads;
  for (std::size_t id = 0; id < kRequests; ++id)
    payloads.push_back(f.codes_for(id * 3 + 1));

  std::size_t served_before_crash = 0;
  {
    FaultInjector fault(seed);
    CheckpointManager ckpts(dir.str(), &fault);
    RequestJournal journal(journal_path);

    // Shard dies mid-load...
    FaultPlan kill;
    kill.site = FaultSite::kExecute;
    kill.kind = FaultKind::kKillShard;
    kill.fire_at = 5;
    fault.arm(kill);
    // ...and one request is lost between WAL accept and enqueue.
    FaultPlan lost;
    lost.site = FaultSite::kEnqueue;
    lost.kind = FaultKind::kKillShard;
    lost.fire_at = 11;
    fault.arm(lost);

    ServerOptions opts;
    opts.num_workers = 1;  // deterministic: the one shard dies
    opts.queue_capacity = 2 * kRequests;  // crash must not block submit
    opts.batcher.max_batch_tokens = 1;
    opts.batcher.max_wait = std::chrono::microseconds(0);
    opts.recovery.fault = &fault;
    opts.recovery.journal = &journal;
    opts.recovery.checkpoints = &ckpts;
    opts.recovery.checkpoint_every = 8;
    opts.recovery.supervise = false;  // a crash is a crash
    InferenceServer server(default_registry(f.amm), opts);

    std::vector<std::future<InferenceResult>> futs;
    for (std::size_t id = 0; id < kRequests; ++id)
      futs.push_back(server.submit("default", payloads[id], 1));
    server.shutdown();  // the "process" dies: unserved futures fail

    for (std::size_t id = 0; id < futs.size(); ++id) {
      try {
        const InferenceResult res = futs[id].get();
        EXPECT_EQ(res.outputs, f.expected_for(payloads[id], 1));
        served_before_crash++;
      } catch (const std::runtime_error&) {
        // Lost to the crash; the journal owns it now.
      }
    }
    EXPECT_LT(served_before_crash, kRequests);
    EXPECT_GE(fault.fired(), 2u);
  }

  // ----- restart -----
  CheckpointManager ckpts(dir.str());
  const auto rs = recovery::recover_state(ckpts, journal_path);
  ASSERT_TRUE(rs.has_checkpoint());
  EXPECT_EQ(rs.journal.accepted, kRequests);
  EXPECT_EQ(rs.journal.completed, served_before_crash);
  EXPECT_EQ(rs.journal.unacknowledged.size(),
            kRequests - served_before_crash);
  EXPECT_EQ(rs.next_request_id, kRequests);

  RequestJournal journal(journal_path);  // keep journaling on recovery
  ServerOptions opts;
  opts.num_workers = 2;
  opts.recovery.journal = &journal;
  opts.recovery.checkpoints = &ckpts;
  auto server = InferenceServer::restore(rs, opts);

  // Replayed responses are bit-exact vs the fault-free reference —
  // including the enqueue-lost request the first run never served.
  auto futs = server->replay(rs.journal.unacknowledged);
  ASSERT_EQ(futs.size(), rs.journal.unacknowledged.size());
  for (std::size_t i = 0; i < futs.size(); ++i) {
    const AcceptedRecord& rec = rs.journal.unacknowledged[i];
    const InferenceResult res = futs[i].get();
    EXPECT_EQ(res.request_id, rec.id);
    EXPECT_EQ(res.outputs, f.expected_for(rec.codes, rec.rows))
        << "replayed request " << rec.id << " diverged";
  }
  // New admissions continue past the recovered watermark.
  auto fresh = server->submit("default", f.codes_for(0), 1);
  EXPECT_EQ(fresh.get().request_id, kRequests);
  server->shutdown();

  // Ack CRCs in the journal audit the crashed run's acknowledged
  // responses to the bit: recompute each from the reference kernel.
  for (std::size_t id = 0; id < kRequests; ++id) {
    const auto it = rs.journal.completed_crc.find(id);
    if (it == rs.journal.completed_crc.end()) continue;
    const auto want = f.expected_for(payloads[id], 1);
    EXPECT_EQ(it->second,
              maddness::crc32(want.data(),
                              want.size() * sizeof(std::int16_t)))
        << "acknowledged output CRC mismatch for request " << id;
  }

  // The second run journaled its acks; a third read shows none left.
  const auto after = RequestJournal::read(journal_path);
  EXPECT_TRUE(after.unacknowledged.empty());
}

TEST(Recovery, UnsupervisedCrashFailsFuturesLoudly) {
  const ServeFixture f = ServeFixture::make();
  FaultInjector fault(test_seed());
  FaultPlan kill;
  kill.site = FaultSite::kExecute;
  kill.kind = FaultKind::kKillShard;
  kill.fire_at = 1;
  fault.arm(kill);

  ServerOptions opts;
  opts.num_workers = 1;
  opts.queue_capacity = 64;
  opts.batcher.max_batch_tokens = 1;
  opts.batcher.max_wait = std::chrono::microseconds(0);
  opts.recovery.fault = &fault;
  InferenceServer server(default_registry(f.amm), opts);

  std::vector<std::future<InferenceResult>> futs;
  for (std::size_t id = 0; id < 4; ++id)
    futs.push_back(server.submit("default", f.codes_for(id), 1));
  server.shutdown();

  std::size_t failed = 0;
  for (auto& fut : futs) {
    try {
      fut.get();
    } catch (const std::runtime_error&) {
      failed++;  // a real error message, not std::future_error
    }
  }
  EXPECT_EQ(failed, 4u);
}

TEST(Recovery, CheckpointCadenceWritesVersions) {
  const ServeFixture f = ServeFixture::make();
  TmpDir dir("cadence");
  CheckpointManager ckpts(dir.str());

  ServerOptions opts;
  opts.num_workers = 2;
  opts.recovery.checkpoints = &ckpts;
  opts.recovery.checkpoint_every = 4;
  InferenceServer server(default_registry(f.amm), opts);

  std::vector<std::future<InferenceResult>> futs;
  for (std::size_t id = 0; id < 12; ++id)
    futs.push_back(server.submit("default", f.codes_for(id), 1));
  for (auto& fut : futs) fut.get();
  server.shutdown();

  // Startup checkpoint + one per 4 accepted requests.
  EXPECT_GE(ckpts.versions().size(), 4u);
  std::uint64_t version = 0;
  const auto latest = ckpts.load_latest(&version);
  ASSERT_TRUE(latest.has_value());
  EXPECT_EQ(latest->next_request_id, 12u);
  // A live server writes the v2 (registry) record; the operator comes
  // back as the implicitly-named default model, version 1.
  ASSERT_FALSE(latest->is_v1());
  engine::ModelRegistry registry;
  registry.load(latest->registry_blob);
  const engine::ModelRef replica = registry.resolve("default@1");
  EXPECT_EQ(replica->amm().apply_int16(f.pool), f.amm.apply_int16(f.pool));
}

/// Parks the shard thread in its first post-ack observer call until
/// released, so requests pushed meanwhile stay queued.
class ParkFirstBatch : public BatchObserver {
 public:
  void on_batch(const engine::ModelHandle&,
                const maddness::QuantizedActivations&,
                const std::vector<std::int16_t>&, double) override {
    std::unique_lock<std::mutex> lock(mu_);
    if (batches_++ > 0) return;
    cv_.notify_all();
    cv_.wait(lock, [&] { return released_; });
  }
  void wait_parked() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return batches_ > 0; });
  }
  void release() {
    std::lock_guard<std::mutex> lock(mu_);
    released_ = true;
    cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::size_t batches_ = 0;
  bool released_ = false;
};

TEST(GroupCommit, NoRequestOfAGroupIsQueuedBeforeItsAcceptRecordsFlush) {
  // Write-ahead order for a group: the queue stays empty until every
  // accept record of the group is durable. The only shard is parked, so
  // nothing leaves the queue while the test looks at it.
  const ServeFixture f = ServeFixture::make();
  TmpDir dir("groupwal");
  RequestJournal journal(dir.file("requests.jnl"));
  ServerOptions opts;
  opts.num_workers = 1;
  opts.recovery.journal = &journal;
  InferenceServer server(default_registry(f.amm), opts);
  ParkFirstBatch park;
  server.set_batch_observer(&park);
  EXPECT_EQ(server.submit("default", f.codes_for(0), 1).get().outputs,
            f.expected(0, 1));
  park.wait_parked();

  std::vector<std::size_t> depth_at_flush;
  journal.set_commit_hook([&](std::uint64_t, std::uint64_t) {
    depth_at_flush.push_back(server.queue_depth());
  });
  constexpr std::size_t kGroup = 4;
  const engine::ModelRef model = server.registry().resolve("default");
  SubmitGroup group = server.submit_group();
  std::vector<std::future<InferenceResult>> futs;
  for (std::size_t id = 1; id <= kGroup; ++id)
    futs.push_back(group.add(model, f.codes_for(id), 1));
  group.commit();
  journal.set_commit_hook(nullptr);

  ASSERT_EQ(depth_at_flush.size(), 1u) << "one flush for the whole group";
  EXPECT_EQ(depth_at_flush[0], 0u)
      << "requests were queued before the group's accept records flushed";
  EXPECT_EQ(server.queue_depth(), kGroup);
  park.release();
  for (std::size_t id = 1; id <= kGroup; ++id)
    EXPECT_EQ(futs[id - 1].get().outputs, f.expected(id, 1));
  server.shutdown();
  server.set_batch_observer(nullptr);

  // Each request's record, in add order, right after the lone one's.
  const auto replay = RequestJournal::read(journal.path());
  EXPECT_EQ(replay.accepted, kGroup + 1);
  EXPECT_EQ(replay.completed, kGroup + 1);
}

TEST(GroupCommit, GroupCrossingTheCadenceCheckpointsOnce) {
  const ServeFixture f = ServeFixture::make();
  TmpDir dir("groupckpt");
  CheckpointManager ckpts(dir.str());
  ServerOptions opts;
  opts.num_workers = 2;
  opts.recovery.checkpoints = &ckpts;
  opts.recovery.checkpoint_every = 4;
  InferenceServer server(default_registry(f.amm), opts);
  const std::size_t before = ckpts.versions().size();

  // 10 accepted requests cross the multiples 4 and 8 in one commit.
  const engine::ModelRef model = server.registry().resolve("default");
  SubmitGroup group = server.submit_group();
  std::vector<std::future<InferenceResult>> futs;
  for (std::size_t id = 0; id < 10; ++id)
    futs.push_back(group.add(model, f.codes_for(id), 1));
  group.commit();
  for (auto& fut : futs) fut.get();
  EXPECT_EQ(ckpts.versions().size(), before + 1);
  std::uint64_t version = 0;
  const auto latest = ckpts.load_latest(&version);
  ASSERT_TRUE(latest.has_value());
  EXPECT_EQ(latest->accepted_requests, 10u);
  server.shutdown();
}

// --------------------------------------------- golden checkpoint file

// Guards the on-disk checkpoint format against drift: a fixture
// checkpoint is committed to tests/data/ and must (a) load with the
// exact field values it was written with, (b) serve bit-identical
// outputs recorded next to it, and (c) re-encode byte-identically.
// Regenerate (format bumps only) by running test_recovery with
// --gtest_also_run_disabled_tests
// --gtest_filter='*RegenerateGoldenCheckpoint*'
namespace golden {
constexpr std::uint64_t kVersion = 1;
constexpr std::uint64_t kNextId = 77;
constexpr std::uint64_t kAccepted = 70;
constexpr std::uint64_t kCompleted = 66;
constexpr std::uint64_t kTokens = 132;
constexpr std::uint64_t kBatches = 17;
constexpr std::size_t kProbeRows = 8;

std::string checkpoint_path() {
  return std::string(SSMA_TEST_DATA_DIR) + "/checkpoint-000001.ssck";
}
std::string outputs_path() {
  return std::string(SSMA_TEST_DATA_DIR) + "/golden_outputs.txt";
}

/// The operator the golden fixture snapshots (deterministic train).
ServeFixture fixture() { return ServeFixture::make(4, 8, 64, 1234); }

/// Deterministic probe activations — integer pipeline from here on, so
/// the expected outputs are platform-stable.
maddness::QuantizedActivations probe(const maddness::Amm& amm) {
  maddness::QuantizedActivations q;
  q.rows = kProbeRows;
  q.cols = static_cast<std::size_t>(amm.cfg().total_dims());
  q.scale = amm.activation_scale();
  q.codes.resize(q.rows * q.cols);
  for (std::size_t i = 0; i < q.codes.size(); ++i)
    q.codes[i] = static_cast<std::uint8_t>((i * 37 + 11) & 0xFF);
  return q;
}
}  // namespace golden

TEST(Recovery, GoldenCheckpointFormatIsStable) {
  const CheckpointState st =
      CheckpointManager::load_file(golden::checkpoint_path());
  EXPECT_EQ(st.next_request_id, golden::kNextId);
  EXPECT_EQ(st.accepted_requests, golden::kAccepted);
  EXPECT_EQ(st.completed_requests, golden::kCompleted);
  EXPECT_EQ(st.tokens, golden::kTokens);
  EXPECT_EQ(st.batches, golden::kBatches);

  // The embedded operator still decodes the probe to the committed
  // bits (pure integer pipeline — platform independent).
  const maddness::Amm amm = maddness::Amm::load_string(st.amm_blob);
  const auto out = amm.apply_int16(golden::probe(amm));
  std::ifstream want(golden::outputs_path());
  ASSERT_TRUE(want.is_open()) << golden::outputs_path();
  std::size_t i = 0;
  int v = 0;
  while (want >> v) {
    ASSERT_LT(i, out.size());
    EXPECT_EQ(out[i], static_cast<std::int16_t>(v))
        << "golden output " << i << " drifted";
    i++;
  }
  EXPECT_EQ(i, out.size());

  // The embedded operator re-encodes to its committed bytes.
  EXPECT_EQ(amm.save_string(), st.amm_blob)
      << "AMM re-encode changed bytes: format drift";

  // save -> load -> save is byte-identical (no serialization drift).
  TmpDir dir("golden");
  const std::string again = dir.file("rewrite.ssck");
  CheckpointManager::write_file(again, golden::kVersion, st);
  EXPECT_EQ(slurp(again), slurp(golden::checkpoint_path()))
      << "checkpoint re-encode changed bytes: format drift";
}

// ---------------------------------------- golden v2 (registry) record

// Same drift guard for the v2 record: a committed checkpoint holding a
// two-model registry ("alpha" at versions 1 and 2 — a hot-swap
// snapshot — and "beta" at 1) must load with exact registry contents,
// decode the probe bit-identically on BOTH alpha banks, and re-encode
// byte-identically. Regenerate (format bumps only) via
// --gtest_also_run_disabled_tests
// --gtest_filter='*RegenerateGoldenCheckpointV2*'
namespace golden_v2 {
constexpr std::uint64_t kVersion = 1;
constexpr std::uint64_t kNextId = 91;
constexpr std::uint64_t kAccepted = 88;
constexpr std::uint64_t kCompleted = 85;
constexpr std::uint64_t kTokens = 170;
constexpr std::uint64_t kBatches = 21;

std::string checkpoint_path() {
  return std::string(SSMA_TEST_DATA_DIR) + "/checkpoint-v2-000001.ssck";
}
std::string outputs_path() {
  return std::string(SSMA_TEST_DATA_DIR) + "/golden_outputs_v2.txt";
}

/// The two alpha banks (old and retrained) plus beta — deterministic
/// trains, distinct seeds.
ServeFixture alpha_v1() { return ServeFixture::make(4, 8, 64, 1234); }
ServeFixture alpha_v2() { return ServeFixture::make(4, 8, 64, 5678); }
ServeFixture beta() { return ServeFixture::make(8, 16, 64, 91); }

std::string registry_blob() {
  engine::ModelRegistry reg;
  reg.register_model("alpha", alpha_v1().amm);
  reg.register_model("alpha", alpha_v2().amm);
  reg.register_model("beta", beta().amm);
  std::ostringstream os;
  reg.save(os);
  return os.str();
}
}  // namespace golden_v2

TEST(Recovery, GoldenCheckpointV2FormatIsStable) {
  const CheckpointState st =
      CheckpointManager::load_file(golden_v2::checkpoint_path());
  EXPECT_FALSE(st.is_v1());
  EXPECT_TRUE(st.amm_blob.empty());
  EXPECT_EQ(st.next_request_id, golden_v2::kNextId);
  EXPECT_EQ(st.accepted_requests, golden_v2::kAccepted);
  EXPECT_EQ(st.completed_requests, golden_v2::kCompleted);
  EXPECT_EQ(st.tokens, golden_v2::kTokens);
  EXPECT_EQ(st.batches, golden_v2::kBatches);

  engine::ModelRegistry reg;
  reg.load(st.registry_blob);
  EXPECT_EQ(reg.names(), (std::vector<std::string>{"alpha", "beta"}));
  EXPECT_EQ(reg.versions("alpha"), (std::vector<std::uint64_t>{1, 2}));
  EXPECT_EQ(reg.latest_version("alpha"), 2u);
  EXPECT_EQ(reg.latest_version("beta"), 1u);

  // Both alpha banks decode the probe to the committed bits — the
  // hot-swap boundary's old AND new outputs are format-stable.
  const maddness::Amm& a1 = reg.resolve("alpha@1")->amm();
  const maddness::Amm& a2 = reg.resolve("alpha@2")->amm();
  std::vector<std::int16_t> got = a1.apply_int16(golden::probe(a1));
  const auto v2out = a2.apply_int16(golden::probe(a2));
  got.insert(got.end(), v2out.begin(), v2out.end());

  std::ifstream want(golden_v2::outputs_path());
  ASSERT_TRUE(want.is_open()) << golden_v2::outputs_path();
  std::size_t i = 0;
  int v = 0;
  while (want >> v) {
    ASSERT_LT(i, got.size());
    EXPECT_EQ(got[i], static_cast<std::int16_t>(v))
        << "golden v2 output " << i << " drifted";
    i++;
  }
  EXPECT_EQ(i, got.size());

  // Every bank re-encodes to its stored blob, and the loaded registry
  // re-encodes to the committed registry section.
  for (const char* ref : {"alpha@1", "alpha@2", "beta@1"}) {
    const engine::ModelRef h = reg.resolve(ref);
    EXPECT_EQ(h->amm().save_string(), h->blob())
        << ref << ": AMM re-encode changed bytes: format drift";
  }
  std::ostringstream resaved;
  reg.save(resaved);
  EXPECT_EQ(resaved.str(), st.registry_blob)
      << "registry re-encode changed bytes: format drift";

  // load -> re-encode is byte-identical (registry ordering and framing
  // are deterministic).
  TmpDir dir("goldenv2");
  const std::string again = dir.file("rewrite.ssck");
  CheckpointManager::write_file(again, golden_v2::kVersion, st);
  EXPECT_EQ(slurp(again), slurp(golden_v2::checkpoint_path()))
      << "v2 checkpoint re-encode changed bytes: format drift";
}

TEST(Recovery, DISABLED_RegenerateGoldenCheckpointV2) {
  CheckpointState st;
  st.registry_blob = golden_v2::registry_blob();
  st.next_request_id = golden_v2::kNextId;
  st.accepted_requests = golden_v2::kAccepted;
  st.completed_requests = golden_v2::kCompleted;
  st.tokens = golden_v2::kTokens;
  st.batches = golden_v2::kBatches;
  CheckpointManager::write_file(golden_v2::checkpoint_path(),
                                golden_v2::kVersion, st);

  const maddness::Amm a1 = golden_v2::alpha_v1().amm;
  const maddness::Amm a2 = golden_v2::alpha_v2().amm;
  std::vector<std::int16_t> out = a1.apply_int16(golden::probe(a1));
  const auto v2out = a2.apply_int16(golden::probe(a2));
  out.insert(out.end(), v2out.begin(), v2out.end());
  std::ofstream os(golden_v2::outputs_path());
  for (std::size_t i = 0; i < out.size(); ++i)
    os << out[i] << ((i + 1) % 8 == 0 ? "\n" : " ");
}

// -------------------------------- replay across the hot-swap boundary

// A crash that straddles a version hot-swap: requests admitted before
// the swap pinned alpha@1, requests after it pinned alpha@2, and some
// of each were never acknowledged. The journal's model-tagged accept
// records must replay every lost request on the exact bank it pinned —
// old ids bit-exact vs the old bank, new ids vs the new — even though
// the restored server's "latest" is the new version.
TEST(Recovery, HardCrashReplayAcrossHotSwapBoundaryIsBitExact) {
  const std::uint64_t seed = test_seed();
  SCOPED_TRACE(seed_trace(seed));
  const ServeFixture old_fx = ServeFixture::make(4, 8, 256, 7);
  const ServeFixture new_fx = ServeFixture::make(4, 8, 256, 99);
  TmpDir dir("swap");
  const std::string journal_path = dir.file("requests.jnl");
  constexpr std::size_t kBeforeSwap = 12;
  constexpr std::size_t kAfterSwap = 12;

  const auto expected_on = [&](const maddness::Amm& amm,
                               const std::vector<std::uint8_t>& codes,
                               std::size_t rows) {
    maddness::QuantizedActivations q;
    q.rows = rows;
    q.cols = old_fx.pool.cols;
    q.scale = old_fx.pool.scale;
    q.codes = codes;
    return amm.apply_int16(q);
  };

  {
    FaultInjector fault(seed);
    CheckpointManager ckpts(dir.str(), &fault);
    RequestJournal journal(journal_path);

    // The single shard dies early: most requests stay unacknowledged.
    FaultPlan kill;
    kill.site = FaultSite::kExecute;
    kill.kind = FaultKind::kKillShard;
    kill.fire_at = 3;
    fault.arm(kill);

    ServerOptions opts;
    opts.num_workers = 1;
    opts.queue_capacity = 4 * (kBeforeSwap + kAfterSwap);
    opts.batcher.max_batch_tokens = 2;
    opts.batcher.max_wait = std::chrono::microseconds(0);
    opts.recovery.fault = &fault;
    opts.recovery.journal = &journal;
    opts.recovery.checkpoints = &ckpts;
    opts.recovery.supervise = false;  // a crash is a crash
    InferenceServer server(opts);
    server.register_model("alpha", old_fx.amm);

    std::vector<std::future<InferenceResult>> futs;
    for (std::size_t id = 0; id < kBeforeSwap; ++id)
      futs.push_back(server.submit("alpha", old_fx.codes_for(id), 1));
    // Hot-swap mid-journal: the registration checkpoint makes v2
    // durable before any v2-pinned request can be journaled.
    EXPECT_EQ(server.register_model("alpha", new_fx.amm), 2u);
    for (std::size_t id = 0; id < kAfterSwap; ++id)
      futs.push_back(server.submit("alpha", old_fx.codes_for(id), 1));
    server.shutdown();
    std::size_t failed = 0;
    for (auto& fut : futs) {
      try {
        fut.get();
      } catch (const std::runtime_error&) {
        failed++;
      }
    }
    EXPECT_GT(failed, 0u) << "the crash should strand requests";
  }

  // ----- restart -----
  CheckpointManager ckpts(dir.str());
  const auto rs = recovery::recover_state(ckpts, journal_path);
  ASSERT_TRUE(rs.has_checkpoint());
  ASSERT_FALSE(rs.checkpoint.is_v1());
  ASSERT_FALSE(rs.journal.unacknowledged.empty());

  RequestJournal journal(journal_path);
  ServerOptions opts;
  opts.num_workers = 2;
  opts.recovery.journal = &journal;
  opts.recovery.checkpoints = &ckpts;
  auto server = InferenceServer::restore(rs, opts);
  EXPECT_EQ(server->registry().latest_version("alpha"), 2u);
  EXPECT_EQ(server->registry().versions("alpha"),
            (std::vector<std::uint64_t>{1, 2}));

  auto futs = server->replay(rs.journal.unacknowledged);
  ASSERT_EQ(futs.size(), rs.journal.unacknowledged.size());
  std::size_t replayed_old = 0, replayed_new = 0;
  for (std::size_t i = 0; i < futs.size(); ++i) {
    const AcceptedRecord& rec = rs.journal.unacknowledged[i];
    EXPECT_EQ(rec.model, "alpha");
    const bool pre_swap = rec.id < kBeforeSwap;
    EXPECT_EQ(rec.model_version, pre_swap ? 1u : 2u)
        << "journal lost the pinned version for request " << rec.id;
    const InferenceResult res = futs[i].get();
    EXPECT_EQ(res.model_version, rec.model_version);
    const maddness::Amm& bank = pre_swap ? old_fx.amm : new_fx.amm;
    EXPECT_EQ(res.outputs, expected_on(bank, rec.codes, rec.rows))
        << "replayed request " << rec.id
        << " diverged from its pinned bank";
    (pre_swap ? replayed_old : replayed_new)++;
  }
  // The crash landed inside the pre-swap stream, so everything after it
  // — including every post-swap request — replays.
  EXPECT_GT(replayed_old, 0u);
  EXPECT_EQ(replayed_new, kAfterSwap);
  server->shutdown();

  // Ack CRCs audit both sides of the boundary to the bit.
  const auto after = RequestJournal::read(journal_path);
  EXPECT_TRUE(after.unacknowledged.empty());
  for (std::size_t id = 0; id < kBeforeSwap + kAfterSwap; ++id) {
    const auto it = after.completed_crc.find(id);
    ASSERT_NE(it, after.completed_crc.end()) << "request " << id;
    const bool pre_swap = id < kBeforeSwap;
    const maddness::Amm& bank = pre_swap ? old_fx.amm : new_fx.amm;
    const auto want = expected_on(
        bank, old_fx.codes_for(pre_swap ? id : id - kBeforeSwap), 1);
    EXPECT_EQ(it->second,
              maddness::crc32(want.data(),
                              want.size() * sizeof(std::int16_t)))
        << "acknowledged output CRC mismatch for request " << id;
  }
}

// Two 2-stage dense pipelines with identical shapes (36 -> 36 -> 12)
// but different trained banks: the hot-swap pair for the pipeline
// replay test. Served through the fused ExecutionPlan (the server's
// default engine), so replay exercises the fused interior handoff.
struct SwapPipelines {
  maddness::Amm old_s0, old_s1, new_s0, new_s1;
  maddness::QuantizedActivations pool;

  static SwapPipelines make(std::uint64_t seed) {
    SwapPipelines p;
    const auto train = [](std::uint64_t s, maddness::Amm* s0,
                          maddness::Amm* s1) {
      Rng rng(s);
      Matrix calib(384, 36);
      for (std::size_t i = 0; i < calib.size(); ++i)
        calib.data()[i] = static_cast<float>(rng.next_double(0, 200));
      Matrix w0(36, 36), w1(36, 12);
      for (std::size_t i = 0; i < w0.size(); ++i)
        w0.data()[i] = static_cast<float>(rng.next_gaussian(0, 0.08));
      for (std::size_t i = 0; i < w1.size(); ++i)
        w1.data()[i] = static_cast<float>(rng.next_gaussian(0, 0.08));
      maddness::Config cfg;
      cfg.ncodebooks = 4;
      Matrix mid;
      *s0 = engine::train_chained_stage(cfg, calib, w0, &mid);
      *s1 = engine::train_chained_stage(cfg, mid, w1, nullptr);
    };
    train(seed, &p.old_s0, &p.old_s1);
    train(seed + 1000003, &p.new_s0, &p.new_s1);
    Rng rng(seed + 7);
    Matrix fresh(64, 36);
    for (std::size_t i = 0; i < fresh.size(); ++i)
      fresh.data()[i] = static_cast<float>(rng.next_double(0, 200));
    p.pool = maddness::quantize_activations(fresh,
                                            p.old_s0.activation_scale());
    return p;
  }

  std::vector<std::uint8_t> codes_for(std::size_t id) const {
    const std::size_t r = id % pool.rows;
    return std::vector<std::uint8_t>(pool.row(r),
                                     pool.row(r) + pool.cols);
  }
};

TEST(Recovery, PipelineReplayAcrossHotSwapIsBitExactThroughFusedPlan) {
  const std::uint64_t seed = test_seed();
  SCOPED_TRACE(seed_trace(seed));
  const SwapPipelines px = SwapPipelines::make(seed);
  // Reference handles mirroring the server's two registered versions;
  // pipeline_reference_apply is the materializing scalar oracle the
  // fused serve path must match bit for bit.
  const engine::ModelRef ref_v1 = engine::ModelHandle::from_stages(
      "pipe", 1, {&px.old_s0, &px.old_s1});
  const engine::ModelRef ref_v2 = engine::ModelHandle::from_stages(
      "pipe", 2, {&px.new_s0, &px.new_s1});
  const auto expected_on = [&](const engine::ModelHandle& model,
                               const std::vector<std::uint8_t>& codes,
                               std::size_t rows) {
    maddness::QuantizedActivations q;
    q.rows = rows;
    q.cols = px.pool.cols;
    q.scale = px.pool.scale;
    q.codes = codes;
    return engine::pipeline_reference_apply(model, q);
  };

  TmpDir dir("pipeswap");
  const std::string journal_path = dir.file("requests.jnl");
  constexpr std::size_t kBeforeSwap = 10;
  constexpr std::size_t kAfterSwap = 10;
  {
    FaultInjector fault(seed);
    CheckpointManager ckpts(dir.str(), &fault);
    RequestJournal journal(journal_path);
    FaultPlan kill;
    kill.site = FaultSite::kExecute;
    kill.kind = FaultKind::kKillShard;
    kill.fire_at = 3;
    fault.arm(kill);

    ServerOptions opts;
    opts.num_workers = 1;
    opts.queue_capacity = 4 * (kBeforeSwap + kAfterSwap);
    opts.batcher.max_batch_tokens = 2;
    opts.batcher.max_wait = std::chrono::microseconds(0);
    opts.recovery.fault = &fault;
    opts.recovery.journal = &journal;
    opts.recovery.checkpoints = &ckpts;
    opts.recovery.supervise = false;
    InferenceServer server(opts);
    server.register_pipeline("pipe", {&px.old_s0, &px.old_s1});

    std::vector<std::future<InferenceResult>> futs;
    for (std::size_t id = 0; id < kBeforeSwap; ++id)
      futs.push_back(server.submit("pipe", px.codes_for(id), 1));
    EXPECT_EQ(server.register_pipeline("pipe", {&px.new_s0, &px.new_s1}),
              2u);
    for (std::size_t id = 0; id < kAfterSwap; ++id)
      futs.push_back(server.submit("pipe", px.codes_for(id), 1));
    server.shutdown();
    std::size_t failed = 0;
    for (auto& fut : futs) {
      try {
        fut.get();
      } catch (const std::runtime_error&) {
        failed++;
      }
    }
    EXPECT_GT(failed, 0u) << "the crash should strand requests";
  }

  // ----- restart: replay every stranded request on its pinned bank -----
  CheckpointManager ckpts(dir.str());
  const auto rs = recovery::recover_state(ckpts, journal_path);
  ASSERT_TRUE(rs.has_checkpoint());
  ASSERT_FALSE(rs.journal.unacknowledged.empty());

  RequestJournal journal(journal_path);
  ServerOptions opts;
  opts.num_workers = 2;
  opts.recovery.journal = &journal;
  opts.recovery.checkpoints = &ckpts;
  auto server = InferenceServer::restore(rs, opts);
  EXPECT_EQ(server->registry().latest_version("pipe"), 2u);
  EXPECT_TRUE(server->registry().resolve("pipe@1")->is_pipeline());

  auto futs = server->replay(rs.journal.unacknowledged);
  ASSERT_EQ(futs.size(), rs.journal.unacknowledged.size());
  std::size_t replayed_new = 0;
  for (std::size_t i = 0; i < futs.size(); ++i) {
    const AcceptedRecord& rec = rs.journal.unacknowledged[i];
    const bool pre_swap = rec.id < kBeforeSwap;
    EXPECT_EQ(rec.model_version, pre_swap ? 1u : 2u)
        << "journal lost the pinned version for request " << rec.id;
    const InferenceResult res = futs[i].get();
    EXPECT_EQ(res.model_version, rec.model_version);
    const engine::ModelHandle& model = pre_swap ? *ref_v1 : *ref_v2;
    EXPECT_EQ(res.outputs, expected_on(model, rec.codes, rec.rows))
        << "replayed pipeline request " << rec.id
        << " diverged from its pinned banks";
    if (!pre_swap) replayed_new++;
  }
  EXPECT_EQ(replayed_new, kAfterSwap);
  server->shutdown();

  // Ack CRCs audit both sides of the boundary against the reference.
  const auto after = RequestJournal::read(journal_path);
  EXPECT_TRUE(after.unacknowledged.empty());
  for (std::size_t id = 0; id < kBeforeSwap + kAfterSwap; ++id) {
    const auto it = after.completed_crc.find(id);
    ASSERT_NE(it, after.completed_crc.end()) << "request " << id;
    const bool pre_swap = id < kBeforeSwap;
    const auto want = expected_on(
        pre_swap ? *ref_v1 : *ref_v2,
        px.codes_for(pre_swap ? id : id - kBeforeSwap), 1);
    EXPECT_EQ(it->second,
              maddness::crc32(want.data(),
                              want.size() * sizeof(std::int16_t)))
        << "acknowledged output CRC mismatch for request " << id;
  }
}

// -------------------- cross-process leader-kill failover matrix

// The crash-at-every-point matrix, taken across the process boundary:
// a forked child process IS the leader (journal + checkpoints +
// ReplicationLog + serving loop), the parent runs the follower, and an
// armed kKillProcess fault std::_Exit(9)s the leader at each pipeline
// site in turn. The parent then promotes and proves the zero-RPO
// contract: in sync mode every request the dead leader acknowledged is
// answered byte-identically by the promoted follower; in window mode
// loss is bounded by the watermark; in async mode whatever replicated
// is still byte-exact. "Byte-identical" is checked two ways at once —
// the client-visible CRC the child logged must equal both the
// independently recomputed fault-free reference AND the promoted
// follower's completion record.
namespace failover {

/// Deterministic fixtures both processes reconstruct from constants.
ServeFixture fixture_v1() { return ServeFixture::make(4, 8, 64, 1234); }
ServeFixture fixture_v2() { return ServeFixture::make(4, 8, 64, 5678); }

std::vector<std::int16_t> expected_on(
    const maddness::Amm& amm, const maddness::QuantizedActivations& pool,
    const std::vector<std::uint8_t>& codes) {
  maddness::QuantizedActivations q;
  q.rows = 1;
  q.cols = pool.cols;
  q.scale = pool.scale;
  q.codes = codes;
  return amm.apply_int16(q);
}

struct AckedLine {
  std::uint64_t id = 0;
  std::uint64_t version = 0;
  std::uint32_t crc = 0;
};

/// Parses the child's ack log, dropping a torn (newline-less) tail the
/// way the journal reader drops a torn record.
std::vector<AckedLine> read_acked(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  std::ostringstream oss;
  oss << is.rdbuf();
  std::string all = oss.str();
  const std::size_t last_nl = all.find_last_of('\n');
  if (last_nl == std::string::npos) return {};
  all.resize(last_nl);
  std::vector<AckedLine> out;
  std::istringstream lines(all);
  std::string line;
  while (std::getline(lines, line)) {
    std::istringstream ls(line);
    AckedLine a;
    if (ls >> a.id >> a.version >> a.crc) out.push_back(a);
  }
  return out;
}

}  // namespace failover

// The child's main: becomes a replicated leader, publishes its port,
// arms the kill, then serves until the fault takes the process down.
// Driver-only — the Failover matrix forks and execs this by filter.
TEST(Failover, DISABLED_LeaderChildMain) {
  const char* dir_env = std::getenv("SSMA_LEADER_DIR");
  if (dir_env == nullptr) GTEST_SKIP() << "driver-only child";
  const std::string dir = dir_env;
  const int site = std::atoi(std::getenv("SSMA_KILL_SITE"));
  const std::uint64_t fire_after =
      std::strtoull(std::getenv("SSMA_KILL_FIRE"), nullptr, 0);
  const int ack_mode = std::atoi(std::getenv("SSMA_ACK_MODE"));
  const bool swap = std::getenv("SSMA_HOT_SWAP") != nullptr;

  const ServeFixture f = failover::fixture_v1();
  FaultInjector fault(test_seed());
  CheckpointManager ckpts(dir + "/ckpts", &fault);
  RequestJournal journal(dir + "/journal.ssj");

  serve::replication::ReplicationOptions ropts;
  ropts.ack_mode = static_cast<serve::replication::AckMode>(ack_mode);
  ropts.window = 4;
  // Generous: with a live follower this never trips, and the matrix
  // must not let a slow sanitizer run degrade a sync ack (that would
  // forge an acked-but-unreplicated line and fail the parent).
  ropts.ack_timeout = std::chrono::milliseconds(20000);
  ropts.fault = &fault;
  serve::replication::ReplicationLog repl(journal, &ckpts, ropts);

  // Publish the port via atomic rename so the parent never reads a
  // half-written file.
  {
    const std::string tmp = dir + "/port.tmp";
    std::ofstream os(tmp);
    os << repl.port();
    os.close();
    std::filesystem::rename(tmp, dir + "/port");
  }

  ServerOptions opts;
  opts.num_workers = 1;  // serialized: the ack log order is the id order
  opts.queue_capacity = 1024;
  opts.batcher.max_batch_tokens = 1;
  opts.batcher.max_wait = std::chrono::microseconds(0);
  opts.recovery.journal = &journal;
  opts.recovery.checkpoints = &ckpts;
  opts.recovery.checkpoint_every = 4;
  opts.recovery.fault = &fault;
  opts.recovery.replication = &repl;
  InferenceServer server(opts);
  server.register_model("m", f.amm);

  if (!repl.wait_follower(1, std::chrono::milliseconds(20000)))
    std::_Exit(7);  // parent fails the scenario on any non-9 exit

  // Arm only now: the handshake's checkpoint ship polls kReplSend too,
  // and the matrix wants the kill inside the steady-state stream.
  FaultPlan kill;
  kill.site = static_cast<FaultSite>(site);
  kill.kind = FaultKind::kKillProcess;
  kill.fire_at = fault.polls(kill.site) + fire_after;
  fault.arm(kill);

  std::ofstream acked(dir + "/acked.txt", std::ios::binary);
  const ServeFixture v2 = failover::fixture_v2();
  for (std::size_t i = 0; i < 200; ++i) {
    if (swap && i == 8) server.register_model("m", v2.amm);
    const InferenceResult res =
        server.submit("m", f.codes_for(i), 1).get();
    const std::uint32_t crc = maddness::crc32(
        res.outputs.data(), res.outputs.size() * sizeof(std::int16_t));
    acked << res.request_id << ' ' << res.model_version << ' ' << crc
          << '\n'
          << std::flush;
  }
  std::_Exit(6);  // the armed fault never fired
}

TEST(Failover, KillLeaderAtEverySitePromoteByteIdentical) {
  const std::uint64_t seed = test_seed();
  SCOPED_TRACE(seed_trace(seed));
  using serve::replication::AckMode;
  const ServeFixture f = failover::fixture_v1();
  const ServeFixture v2 = failover::fixture_v2();

  struct Scenario {
    const char* name;
    FaultSite site;
    std::uint64_t fire_after;  ///< polls of `site` past the handshake
    AckMode ack;
    bool swap;
  };
  const Scenario scenarios[] = {
      {"enqueue/sync", FaultSite::kEnqueue, 13, AckMode::kSync, false},
      {"batch/sync", FaultSite::kBatchFormed, 13, AckMode::kSync, false},
      {"execute/sync", FaultSite::kExecute, 13, AckMode::kSync, false},
      {"ack/sync", FaultSite::kAck, 13, AckMode::kSync, false},
      {"checkpoint/sync", FaultSite::kCheckpointWrite, 3, AckMode::kSync,
       false},
      {"replsend/sync", FaultSite::kReplSend, 21, AckMode::kSync, false},
      {"execute/window", FaultSite::kExecute, 13, AckMode::kWindow, false},
      {"replsend/window", FaultSite::kReplSend, 21, AckMode::kWindow,
       false},
      {"execute/async", FaultSite::kExecute, 13, AckMode::kAsync, false},
      {"execute/sync/hotswap", FaultSite::kExecute, 25, AckMode::kSync,
       true},
  };

  for (const Scenario& sc : scenarios) {
    SCOPED_TRACE(sc.name);
    TmpDir dir("failover");
    const std::string leader_dir = dir.file("leader");
    std::filesystem::create_directories(leader_dir);

    const pid_t pid = ::fork();
    ASSERT_NE(pid, -1);
    if (pid == 0) {
      // Child: become the leader. exec replaces the image, so the
      // forked copy of this test never runs its assertions.
      ::setenv("SSMA_LEADER_DIR", leader_dir.c_str(), 1);
      ::setenv("SSMA_KILL_SITE",
               std::to_string(static_cast<int>(sc.site)).c_str(), 1);
      ::setenv("SSMA_KILL_FIRE", std::to_string(sc.fire_after).c_str(),
               1);
      ::setenv("SSMA_ACK_MODE",
               std::to_string(static_cast<int>(sc.ack)).c_str(), 1);
      if (sc.swap) ::setenv("SSMA_HOT_SWAP", "1", 1);
      ::execl("/proc/self/exe", "test_recovery",
              "--gtest_filter=Failover.DISABLED_LeaderChildMain",
              "--gtest_also_run_disabled_tests",
              static_cast<char*>(nullptr));
      std::_Exit(127);  // exec failed
    }

    // Wait for the leader to publish its port.
    const std::string port_file = leader_dir + "/port";
    std::uint16_t port = 0;
    for (int i = 0; i < 3000 && port == 0; ++i) {
      if (std::filesystem::exists(port_file)) {
        std::ifstream is(port_file);
        int p = 0;
        is >> p;
        port = static_cast<std::uint16_t>(p);
      } else {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
    }
    if (port == 0) ::kill(pid, SIGKILL);
    ASSERT_NE(port, 0) << "leader child never published a port";

    serve::replication::ApplierOptions aopts;
    aopts.leader_port = port;
    aopts.dir = dir.file("follower");
    aopts.server.num_workers = 2;
    serve::replication::ReplicaApplier applier(aopts);

    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFEXITED(status));
    ASSERT_EQ(WEXITSTATUS(status), 9)
        << "leader child did not die at the armed site (7 = follower "
           "never connected, 6 = fault never fired, 127 = exec failed)";

    // Drain: once the death of the connection is observed, everything
    // the follower received is already durable and applied.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (applier.stats().connected &&
           std::chrono::steady_clock::now() < deadline)
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    ASSERT_TRUE(applier.wait_standby(std::chrono::milliseconds(10000)))
        << "no checkpoint ever reached the follower";

    serve::replication::PromotionReport rep;
    auto promoted = applier.promote(&rep);
    ASSERT_NE(promoted, nullptr);
    EXPECT_EQ(rep.crc_mismatches, 0u)
        << "replayed outputs diverged from the leader's replicated acks";
    EXPECT_EQ(rep.replay_failures, 0u);

    const auto acked = failover::read_acked(leader_dir + "/acked.txt");
    EXPECT_GT(acked.size(), 0u)
        << "the leader died before acknowledging anything; the "
           "scenario shows nothing";
    const auto follower_replay =
        RequestJournal::read(applier.journal_path());
    std::size_t missing = 0;
    for (const failover::AckedLine& a : acked) {
      // The client-visible bytes were the fault-free reference...
      const maddness::Amm& bank = a.version == 2 ? v2.amm : f.amm;
      const auto want = failover::expected_on(
          bank, f.pool, f.codes_for(static_cast<std::size_t>(a.id)));
      const std::uint32_t want_crc = maddness::crc32(
          want.data(), want.size() * sizeof(std::int16_t));
      ASSERT_EQ(a.crc, want_crc)
          << "leader acked non-reference bytes for id " << a.id;
      // ...and the promoted follower holds the identical CRC (replayed
      // or backfilled) for every replicated request.
      const auto it = follower_replay.completed_crc.find(a.id);
      if (it == follower_replay.completed_crc.end()) {
        missing++;
        continue;
      }
      EXPECT_EQ(it->second, want_crc)
          << "promoted follower diverged on acked id " << a.id;
    }
    if (sc.ack == AckMode::kSync) {
      EXPECT_EQ(missing, 0u)
          << "zero-RPO violated: " << missing << " of " << acked.size()
          << " acked requests lost in sync mode";
    } else if (sc.ack == AckMode::kWindow) {
      EXPECT_LE(missing, 4u)
          << "window mode lost more than the watermark bound";
    } else {
      // Async: loss is unbounded by contract but measured here.
      EXPECT_LE(missing, acked.size());
    }

    if (sc.swap) {
      EXPECT_EQ(promoted->registry().versions("m"),
                (std::vector<std::uint64_t>{1, 2}))
          << "hot-swap registry map did not replicate";
      EXPECT_EQ(promoted->registry().latest_version("m"), 2u);
    }

    // The promoted follower serves fresh traffic bit-exact on the
    // latest bank, with ids past the dead leader's watermark.
    const InferenceResult res =
        promoted->submit("m", f.codes_for(3), 1).get();
    const maddness::Amm& latest = sc.swap ? v2.amm : f.amm;
    EXPECT_EQ(res.outputs,
              failover::expected_on(latest, f.pool, f.codes_for(3)));
    if (sc.ack == AckMode::kSync && !acked.empty()) {
      EXPECT_GT(res.request_id, acked.back().id)
          << "promoted server reused an id the dead leader handed out";
    }
    promoted->shutdown();
  }
}

// Not a test: regenerates the golden fixture after a deliberate format
// bump. Keep the constants above in sync.
TEST(Recovery, DISABLED_RegenerateGoldenCheckpoint) {
  const ServeFixture f = golden::fixture();
  CheckpointState st;
  st.amm_blob = f.amm.save_string();
  st.next_request_id = golden::kNextId;
  st.accepted_requests = golden::kAccepted;
  st.completed_requests = golden::kCompleted;
  st.tokens = golden::kTokens;
  st.batches = golden::kBatches;
  CheckpointManager::write_file(golden::checkpoint_path(),
                                golden::kVersion, st);

  const auto out = f.amm.apply_int16(golden::probe(f.amm));
  std::ofstream os(golden::outputs_path());
  for (std::size_t i = 0; i < out.size(); ++i)
    os << out[i] << ((i + 1) % 8 == 0 ? "\n" : " ");
}

}  // namespace
}  // namespace ssma::serve
