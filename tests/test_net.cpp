// TCP front-door tests: frame decoding (round trips, incremental
// feeds, CRC/length corruption), RPC message round trips and a golden
// pin of their encoded bytes, and loopback
// end-to-end serving — bit-exact responses under pipelining and
// connection backpressure, one submit group per socket read (admitted
// against the queue depth plus the group), typed wire rejections for
// every refusal class (unknown model, malformed payload, rate
// limiting, expired deadlines, shutdown), protocol-error hangups,
// concurrent connections, graceful stop with clients attached (no
// hangs, no lost acks), half-closed clients (every response, then
// EOF, and no busy loop while paused), two tenants at twice the paced
// capacity (the high-priority one keeps its SLO, the low-priority one
// is shed with typed rejections, every request is acked), and
// NetClient's typed errors on a corrupt or cut response stream.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstring>
#include <fstream>
#include <future>
#include <map>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "maddness/framing.hpp"
#include "net/server.hpp"
#include "net/socket.hpp"
#include "net/wire_protocol.hpp"
#include "serve/server.hpp"
#include "serve_test_util.hpp"
#include "util/check.hpp"

namespace ssma::net {
namespace {

using serve::RejectReason;
using serve::ServeFixture;

RpcRequest make_request(std::uint64_t corr,
                        const std::vector<std::uint8_t>& codes,
                        std::uint64_t rows = 1,
                        const std::string& model = "m") {
  RpcRequest r;
  r.correlation_id = corr;
  r.model_ref = model;
  r.rows = rows;
  r.codes = codes;
  return r;
}

// ------------------------------------------------------- frame decoder

TEST(FrameDecoderTest, RoundTripsSingleAndMultipleFrames) {
  std::ostringstream os;
  maddness::write_framed_blob(os, "alpha");
  maddness::write_framed_blob(os, "");
  maddness::write_framed_blob(os, std::string(10000, 'x'));
  const std::string bytes = os.str();

  FrameDecoder dec(1 << 20);
  dec.feed(bytes.data(), bytes.size());
  std::string payload;
  ASSERT_EQ(dec.next(&payload), FrameDecoder::Result::kFrame);
  EXPECT_EQ(payload, "alpha");
  ASSERT_EQ(dec.next(&payload), FrameDecoder::Result::kFrame);
  EXPECT_EQ(payload, "");
  ASSERT_EQ(dec.next(&payload), FrameDecoder::Result::kFrame);
  EXPECT_EQ(payload, std::string(10000, 'x'));
  EXPECT_EQ(dec.next(&payload), FrameDecoder::Result::kNeedMore);
  EXPECT_EQ(dec.buffered_bytes(), 0u);
}

TEST(FrameDecoderTest, ByteAtATimeFeedReassembles) {
  std::ostringstream os;
  maddness::write_framed_blob(os, "drip-fed payload");
  const std::string bytes = os.str();

  FrameDecoder dec(1 << 20);
  std::string payload;
  for (std::size_t i = 0; i + 1 < bytes.size(); ++i) {
    dec.feed(&bytes[i], 1);
    ASSERT_EQ(dec.next(&payload), FrameDecoder::Result::kNeedMore);
  }
  dec.feed(&bytes[bytes.size() - 1], 1);
  ASSERT_EQ(dec.next(&payload), FrameDecoder::Result::kFrame);
  EXPECT_EQ(payload, "drip-fed payload");
}

TEST(FrameDecoderTest, CrcMismatchIsBad) {
  std::ostringstream os;
  maddness::write_framed_blob(os, "to be corrupted");
  std::string bytes = os.str();
  bytes[bytes.size() - 1] ^= 0x01;  // flip a payload bit

  FrameDecoder dec(1 << 20);
  dec.feed(bytes.data(), bytes.size());
  std::string_view payload;
  EXPECT_EQ(dec.next(&payload), FrameDecoder::Result::kBad);
}

/// 12 header bytes claiming a frame one byte over a 1 MiB limit.
std::string oversized_header() {
  std::string hdr(12, '\0');
  const std::uint64_t huge = (1u << 20) + 1;
  std::memcpy(&hdr[0], &huge, 8);  // test host is little-endian x86
  return hdr;
}

TEST(FrameDecoderTest, OversizedLengthWordIsBadImmediately) {
  // kBad without waiting for (or buffering) the impossible payload.
  const std::string hdr = oversized_header();
  FrameDecoder dec(1 << 20);
  dec.feed(hdr.data(), hdr.size());
  std::string_view payload;
  EXPECT_EQ(dec.next(&payload), FrameDecoder::Result::kBad);
}

std::string framed(const std::string& payload) {
  std::ostringstream os;
  maddness::write_framed_blob(os, payload);
  return os.str();
}

/// A payload of `n` bytes that differs from its neighbours in every
/// byte, so a view left pointing at moved or freed bytes reads wrong
/// ones (and is a heap-use-after-free under ASan).
std::string distinct_payload(std::size_t n, int seed) {
  std::string p(n, '\0');
  for (std::size_t i = 0; i < n; ++i)
    p[i] = static_cast<char>((i * 131 + static_cast<std::size_t>(seed) * 7) &
                             0xFF);
  return p;
}

TEST(FrameDecoderTest, ViewsStayCorrectAcrossReallocationAndCompaction) {
  FrameDecoder dec(1 << 20);
  std::string_view view;

  // Reallocation: a small frame and the first half of a 200 KB one,
  // then the second half, which outgrows the buffer and moves it.
  const std::string small = distinct_payload(100, 1);
  const std::string big = distinct_payload(200'000, 2);
  const std::string big_frame = framed(big);
  const std::size_t half = big_frame.size() / 2;
  const std::string first = framed(small) + big_frame.substr(0, half);
  dec.feed(first.data(), first.size());
  ASSERT_EQ(dec.next(&view), FrameDecoder::Result::kFrame);
  EXPECT_TRUE(view == small);
  ASSERT_EQ(dec.next(&view), FrameDecoder::Result::kNeedMore);
  dec.feed(big_frame.data() + half, big_frame.size() - half);
  ASSERT_EQ(dec.next(&view), FrameDecoder::Result::kFrame);
  EXPECT_TRUE(view == big) << "after the reallocation";
  EXPECT_EQ(dec.buffered_bytes(), 0u);

  // Compaction: a 5000-byte frame, then four 1000-byte ones, in one
  // feed. Once the first is consumed, more than 4096 consumed bytes are
  // over half the buffer, so a compaction moves the other four to the
  // front, over the first frame's bytes. It must wait for the next
  // next(): the first view is still being read.
  std::vector<std::string> sent{distinct_payload(5000, 10)};
  for (int i = 0; i < 4; ++i) sent.push_back(distinct_payload(1000, 11 + i));
  std::string burst;
  for (const std::string& p : sent) burst += framed(p);
  dec.feed(burst.data(), burst.size());
  for (std::size_t i = 0; i < sent.size(); ++i) {
    ASSERT_EQ(dec.next(&view), FrameDecoder::Result::kFrame);
    EXPECT_TRUE(view == sent[i]) << "frame " << i;
  }
  ASSERT_EQ(dec.next(&view), FrameDecoder::Result::kNeedMore);

  // Framing errors are still kBad after a compaction: a flipped CRC
  // byte, and on a second stream an oversized length word.
  std::string corrupt = framed(distinct_payload(5000, 30));
  corrupt[9] ^= 0x01;  // bytes 8-11 are the CRC word
  const std::string good = framed(distinct_payload(5000, 31));
  const std::string tail = good + corrupt;
  dec.feed(tail.data(), tail.size());
  ASSERT_EQ(dec.next(&view), FrameDecoder::Result::kFrame);
  EXPECT_TRUE(view == distinct_payload(5000, 31));
  EXPECT_EQ(dec.next(&view), FrameDecoder::Result::kBad);

  FrameDecoder dec2(1 << 20);
  const std::string then_oversized = burst + oversized_header();
  dec2.feed(then_oversized.data(), then_oversized.size());
  for (std::size_t i = 0; i < sent.size(); ++i) {
    ASSERT_EQ(dec2.next(&view), FrameDecoder::Result::kFrame);
    EXPECT_TRUE(view == sent[i]) << "frame " << i;
  }
  EXPECT_EQ(dec2.next(&view), FrameDecoder::Result::kBad);
}

// ----------------------------------------------------- message codecs

TEST(WireProtocolTest, RequestRoundTrips) {
  RpcRequest req;
  req.correlation_id = 0xC0FFEE;
  req.tenant = "gold";
  req.model_ref = "embed@3";
  req.deadline_ms = 250;
  req.priority = 2;
  req.rows = 3;
  req.codes = {1, 2, 3, 4, 5, 6};

  const std::string frame = req.encode();
  FrameDecoder dec(1 << 20);
  dec.feed(frame.data(), frame.size());
  std::string payload;
  ASSERT_EQ(dec.next(&payload), FrameDecoder::Result::kFrame);

  RpcRequest back;
  ASSERT_TRUE(parse_request(payload, &back));
  EXPECT_EQ(back.correlation_id, req.correlation_id);
  EXPECT_EQ(back.tenant, req.tenant);
  EXPECT_EQ(back.model_ref, req.model_ref);
  EXPECT_EQ(back.deadline_ms, req.deadline_ms);
  EXPECT_EQ(back.priority, req.priority);
  EXPECT_EQ(back.rows, req.rows);
  EXPECT_EQ(back.codes, req.codes);
}

TEST(WireProtocolTest, ResponseRoundTrips) {
  RpcResponse resp;
  resp.correlation_id = 77;
  resp.status = kStatusOk;
  resp.model = "embed";
  resp.model_version = 3;
  resp.rows = 2;
  resp.outputs = {-32768, -1, 0, 1, 32767, 123};
  resp.message = "";

  const std::string frame = resp.encode();
  FrameDecoder dec(1 << 20);
  dec.feed(frame.data(), frame.size());
  std::string payload;
  ASSERT_EQ(dec.next(&payload), FrameDecoder::Result::kFrame);

  RpcResponse back;
  ASSERT_TRUE(parse_response(payload, &back));
  EXPECT_EQ(back.correlation_id, resp.correlation_id);
  EXPECT_EQ(back.status, kStatusOk);
  EXPECT_EQ(back.model, "embed");
  EXPECT_EQ(back.model_version, 3u);
  EXPECT_EQ(back.rows, 2u);
  EXPECT_EQ(back.outputs, resp.outputs);
}

TEST(WireProtocolTest, MalformedPayloadsAreRejectedNotRead) {
  RpcRequest req = make_request(1, {1, 2, 3});
  const std::string frame = req.encode();
  FrameDecoder dec(1 << 20);
  dec.feed(frame.data(), frame.size());
  std::string payload;
  ASSERT_EQ(dec.next(&payload), FrameDecoder::Result::kFrame);

  RpcRequest out;
  ASSERT_TRUE(parse_request(payload, &out));
  // Every strict prefix is a truncation; none may parse (or crash).
  for (std::size_t cut = 0; cut < payload.size(); ++cut)
    EXPECT_FALSE(parse_request(payload.substr(0, cut), &out))
        << "prefix of length " << cut << " parsed";
  // Trailing junk must be rejected too.
  EXPECT_FALSE(parse_request(payload + "z", &out));
  // Wrong version byte.
  std::string wrong = payload;
  wrong[0] = static_cast<char>(kWireVersion + 1);
  EXPECT_FALSE(parse_request(wrong, &out));
  // A response payload is not a request.
  EXPECT_FALSE(parse_request(RpcResponse{}.encode().substr(12), &out));
}

// Pins the encoded bytes of every front-door message: a committed byte
// stream of one request, an ok response, a reject and an admin round
// trip must equal what the encoders produce today, and every frame in
// it must parse. Regenerate (deliberate format bumps only) with
// --gtest_also_run_disabled_tests --gtest_filter='*RegenerateRpcWireGolden*'
namespace rpc_golden {

std::string path() {
  return std::string(SSMA_TEST_DATA_DIR) + "/rpc_wire_golden.bin";
}

RpcRequest request() {
  RpcRequest r;
  r.correlation_id = 0x0102030405060708u;
  r.tenant = "gold";
  r.model_ref = "mlp@2";
  r.deadline_ms = 250;
  r.priority = 2;
  r.rows = 2;
  r.codes = {0, 1, 2, 127, 128, 200, 254, 255};
  return r;
}

RpcResponse ok_response() {
  RpcResponse r;
  r.correlation_id = 0xFEDCBA9876543210u;
  r.model = "mlp";
  r.model_version = 2;
  r.rows = 2;
  r.outputs = {-32768, -257, -1, 0, 1, 255, 256, 32767};
  return r;
}

RpcResponse reject_response() {
  RpcResponse r;
  r.correlation_id = 9;
  r.status = status_of(RejectReason::kRateLimited);
  r.message = "admission: rate_limited";
  return r;
}

AdminRequest admin_request() {
  AdminRequest r;
  r.correlation_id = 11;
  r.op = 1;
  r.target = "mlp";
  return r;
}

AdminResponse admin_response() {
  AdminResponse r;
  r.correlation_id = 11;
  r.status = 0;
  r.arg = 0x8000000000000001u;
  r.body = "mlp: promoted v2";
  return r;
}

std::string encode_all() {
  return request().encode() + ok_response().encode() +
         reject_response().encode() + admin_request().encode() +
         admin_response().encode();
}

std::string slurp(const std::string& p) {
  std::ifstream is(p, std::ios::binary);
  EXPECT_TRUE(is.is_open()) << p;
  std::ostringstream oss;
  oss << is.rdbuf();
  return oss.str();
}

}  // namespace rpc_golden

TEST(WireProtocolTest, GoldenFramesAreByteStable) {
  const std::string bytes = rpc_golden::slurp(rpc_golden::path());
  EXPECT_EQ(rpc_golden::encode_all(), bytes)
      << "RPC encoders changed bytes: format drift";

  FrameDecoder dec(1 << 20);
  dec.feed(bytes.data(), bytes.size());
  std::string payload;
  RpcRequest req;
  ASSERT_EQ(dec.next(&payload), FrameDecoder::Result::kFrame);
  ASSERT_TRUE(parse_request(payload, &req));
  EXPECT_EQ(req.codes, rpc_golden::request().codes);
  RpcResponse resp;
  ASSERT_EQ(dec.next(&payload), FrameDecoder::Result::kFrame);
  ASSERT_TRUE(parse_response(payload, &resp));
  EXPECT_EQ(resp.outputs, rpc_golden::ok_response().outputs);
  ASSERT_EQ(dec.next(&payload), FrameDecoder::Result::kFrame);
  ASSERT_TRUE(parse_response(payload, &resp));
  EXPECT_EQ(resp.message, rpc_golden::reject_response().message);
  AdminRequest areq;
  ASSERT_EQ(dec.next(&payload), FrameDecoder::Result::kFrame);
  ASSERT_TRUE(parse_admin_request(payload, &areq));
  EXPECT_EQ(areq.target, "mlp");
  AdminResponse aresp;
  ASSERT_EQ(dec.next(&payload), FrameDecoder::Result::kFrame);
  ASSERT_TRUE(parse_admin_response(payload, &aresp));
  EXPECT_EQ(aresp.arg, rpc_golden::admin_response().arg);
  EXPECT_EQ(dec.buffered_bytes(), 0u);
}

// Not a test: regenerates the golden frames after a deliberate wire
// format bump.
TEST(WireProtocolTest, DISABLED_RegenerateRpcWireGolden) {
  std::ofstream os(rpc_golden::path(), std::ios::binary);
  const std::string bytes = rpc_golden::encode_all();
  os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// -------------------------------------------------------- end to end

/// Raw TCP writer for protocol-error tests (NetClient refuses to send
/// garbage on purpose).
class RawConn {
 public:
  void connect(std::uint16_t port) { fd_ = connect_tcp("127.0.0.1", port); }
  void send_bytes(const std::string& b) { ASSERT_TRUE(write_all(fd_, b)); }
  FrameRead read(FrameDecoder& dec, std::string_view* payload) {
    return read_frame(fd_, dec, payload);
  }
  /// Ends the request stream; responses can still arrive.
  void half_close() { ASSERT_EQ(::shutdown(fd_, SHUT_WR), 0); }
  /// Blocks until the peer closes; true on EOF.
  bool drain_to_eof() {
    char buf[4096];
    for (;;) {
      const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
      if (n == 0) return true;
      if (n < 0) return false;
    }
  }
  ~RawConn() {
    if (fd_ >= 0) ::close(fd_);
  }

 private:
  int fd_ = -1;
};

struct Loopback {
  ServeFixture fix = ServeFixture::make();
  std::unique_ptr<serve::InferenceServer> server;
  std::unique_ptr<NetServer> net;

  explicit Loopback(NetServerOptions nopts = {},
                    serve::ServerOptions sopts = {}) {
    server = std::make_unique<serve::InferenceServer>(sopts);
    server->register_model("m", fix.amm);
    net = std::make_unique<NetServer>(*server, nopts);
  }
  ~Loopback() {
    net->stop();
    server->shutdown();
  }
};

TEST(NetServerTest, LoopbackPipelinedRequestsAreBitExact) {
  Loopback lb;
  NetClient cli;
  cli.connect("127.0.0.1", lb.net->port());

  constexpr std::uint64_t kN = 48;
  for (std::uint64_t i = 0; i < kN; ++i)
    cli.send(make_request(i, lb.fix.codes_for(i)));

  std::map<std::uint64_t, RpcResponse> got;
  for (std::uint64_t i = 0; i < kN; ++i) {
    RpcResponse resp;
    ASSERT_TRUE(cli.recv_response(&resp));
    got[resp.correlation_id] = std::move(resp);
  }
  ASSERT_EQ(got.size(), kN);  // every correlation id answered once
  for (std::uint64_t i = 0; i < kN; ++i) {
    const RpcResponse& r = got.at(i);
    EXPECT_EQ(r.status, kStatusOk);
    EXPECT_EQ(r.model, "m");
    EXPECT_EQ(r.model_version, 1u);
    EXPECT_EQ(r.rows, 1u);
    EXPECT_EQ(r.outputs, lb.fix.expected_for(lb.fix.codes_for(i), 1))
        << "response " << i << " not bit-exact";
  }
  const NetServerStats st = lb.net->stats();
  EXPECT_EQ(st.requests_admitted, kN);
  EXPECT_EQ(st.frames_received, kN);
  cli.close();
}

TEST(NetServerTest, UnknownModelAndBadShapeGetTypedRejections) {
  Loopback lb;
  NetClient cli;
  cli.connect("127.0.0.1", lb.net->port());

  cli.send(make_request(1, lb.fix.codes_for(0), 1, "nope"));
  RpcResponse resp;
  ASSERT_TRUE(cli.recv_response(&resp));
  EXPECT_EQ(resp.correlation_id, 1u);
  EXPECT_EQ(resp.status, status_of(RejectReason::kUnknownModel));

  // Payload size != rows x cols.
  cli.send(make_request(2, {1, 2, 3}, 1, "m"));
  ASSERT_TRUE(cli.recv_response(&resp));
  EXPECT_EQ(resp.correlation_id, 2u);
  EXPECT_EQ(resp.status, status_of(RejectReason::kMalformed));

  // rows == 0 is malformed, not a crash.
  cli.send(make_request(3, {}, 0, "m"));
  ASSERT_TRUE(cli.recv_response(&resp));
  EXPECT_EQ(resp.status, status_of(RejectReason::kMalformed));

  // The connection is still healthy after typed rejections.
  cli.send(make_request(4, lb.fix.codes_for(4)));
  ASSERT_TRUE(cli.recv_response(&resp));
  EXPECT_EQ(resp.correlation_id, 4u);
  EXPECT_EQ(resp.status, kStatusOk);
  cli.close();
}

TEST(NetServerTest, RateLimitedTenantShedsWithAckForEveryRequest) {
  NetServerOptions nopts;
  nopts.admission.tenants["limited"] =
      serve::TenantConfig{/*tokens_per_sec=*/0.001, /*burst_tokens=*/2.0,
                          serve::Priority::kLow};
  Loopback lb(nopts);
  NetClient cli;
  cli.connect("127.0.0.1", lb.net->port());

  constexpr std::uint64_t kN = 6;
  for (std::uint64_t i = 0; i < kN; ++i) {
    RpcRequest r = make_request(i, lb.fix.codes_for(i));
    r.tenant = "limited";
    cli.send(r);
  }
  std::size_t ok = 0, limited = 0;
  for (std::uint64_t i = 0; i < kN; ++i) {
    RpcResponse resp;
    ASSERT_TRUE(cli.recv_response(&resp));  // every request acked
    if (resp.status == kStatusOk)
      ok++;
    else if (resp.status == status_of(RejectReason::kRateLimited))
      limited++;
  }
  EXPECT_EQ(ok, 2u);       // exactly the burst
  EXPECT_EQ(limited, kN - 2);
  const NetServerStats st = lb.net->stats();
  EXPECT_EQ(st.rejects[static_cast<std::size_t>(
                RejectReason::kRateLimited)],
            kN - 2);
  cli.close();
}

TEST(NetServerTest, ExpiredDeadlineGetsTypedRejection) {
  // A paced engine wedges the single worker long enough that a
  // short-deadline request expires in the queue and is dropped at
  // batch formation with the typed wire status.
  serve::ServerOptions sopts;
  sopts.num_workers = 1;
  sopts.engine.backend = engine::Backend::kDevicePaced;
  sopts.engine.device_ns_per_token = 2'000'000;  // 2 ms/token
  Loopback lb({}, sopts);
  NetClient cli;
  cli.connect("127.0.0.1", lb.net->port());

  // 64 tokens x 2 ms = ~128 ms of device busy.
  std::vector<std::uint8_t> big(64 * lb.fix.pool.cols);
  for (std::size_t i = 0; i < big.size(); ++i)
    big[i] = lb.fix.codes_for(i % 8)[i % lb.fix.pool.cols];
  cli.send(make_request(1, big, 64));
  // Let the worker pick the big batch up before the doomed request
  // arrives (otherwise they could coalesce).
  std::this_thread::sleep_for(std::chrono::milliseconds(40));

  RpcRequest doomed = make_request(2, lb.fix.codes_for(2));
  doomed.deadline_ms = 5;  // expires ~80 ms before the worker frees up
  cli.send(doomed);

  std::map<std::uint64_t, std::uint8_t> status;
  for (int i = 0; i < 2; ++i) {
    RpcResponse resp;
    ASSERT_TRUE(cli.recv_response(&resp));
    status[resp.correlation_id] = resp.status;
  }
  EXPECT_EQ(status.at(1), kStatusOk);
  EXPECT_EQ(status.at(2), status_of(RejectReason::kDeadlineExpired));
  cli.close();
}

TEST(NetServerTest, ShutdownIsATypedWireRejection) {
  Loopback lb;
  NetClient cli;
  cli.connect("127.0.0.1", lb.net->port());
  lb.server->shutdown();  // drain the inference server under the net layer

  cli.send(make_request(9, lb.fix.codes_for(0)));
  RpcResponse resp;
  ASSERT_TRUE(cli.recv_response(&resp));
  EXPECT_EQ(resp.correlation_id, 9u);
  EXPECT_EQ(resp.status, status_of(RejectReason::kShutdown));
  cli.close();
}

TEST(NetServerTest, CorruptFrameClosesConnection) {
  Loopback lb;
  RawConn raw;
  raw.connect(lb.net->port());

  std::string frame = make_request(1, lb.fix.codes_for(0)).encode();
  frame[frame.size() - 1] ^= 0x40;  // break the payload CRC
  raw.send_bytes(frame);
  EXPECT_TRUE(raw.drain_to_eof()) << "server must hang up on bad CRC";

  // Wait for the close to be accounted, then check it was typed as a
  // protocol error and the server still serves new connections.
  for (int i = 0; i < 100 && lb.net->stats().protocol_errors == 0; ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  EXPECT_EQ(lb.net->stats().protocol_errors, 1u);

  NetClient cli;
  cli.connect("127.0.0.1", lb.net->port());
  cli.send(make_request(2, lb.fix.codes_for(2)));
  RpcResponse resp;
  ASSERT_TRUE(cli.recv_response(&resp));
  EXPECT_EQ(resp.status, kStatusOk);
  cli.close();
}

TEST(NetServerTest, WellFramedGarbageAnsweredMalformedAndConnSurvives) {
  Loopback lb;
  RawConn raw;
  raw.connect(lb.net->port());

  std::ostringstream os;
  maddness::write_framed_blob(os, "not an rpc message at all");
  raw.send_bytes(os.str());
  // The same socket then carries a valid request — the malformed
  // payload must not have poisoned the stream.
  raw.send_bytes(make_request(5, lb.fix.codes_for(5)).encode());

  // Read both responses through a bare decoder on the raw socket.
  FrameDecoder dec(1 << 20);
  std::map<std::uint64_t, std::uint8_t> status;
  std::string_view payload;
  for (int got = 0; got < 2; ++got) {
    ASSERT_EQ(raw.read(dec, &payload), FrameRead::kFrame);
    RpcResponse resp;
    ASSERT_TRUE(parse_response(payload, &resp));
    status[resp.correlation_id] = resp.status;
  }
  EXPECT_EQ(status.at(0), status_of(RejectReason::kMalformed));
  EXPECT_EQ(status.at(5), kStatusOk);
}

TEST(NetServerTest, BackpressurePausesReadsButLosesNothing) {
  NetServerOptions nopts;
  nopts.max_inflight_per_conn = 4;  // aggressive pause threshold
  Loopback lb(nopts);

  constexpr std::uint64_t kN = 64;
  NetClient cli;
  cli.connect("127.0.0.1", lb.net->port());

  // Sender and receiver threads pipeline hard against the tiny window.
  std::thread sender([&] {
    for (std::uint64_t i = 0; i < kN; ++i)
      cli.send(make_request(i, lb.fix.codes_for(i)));
  });
  std::map<std::uint64_t, RpcResponse> got;
  for (std::uint64_t i = 0; i < kN; ++i) {
    RpcResponse resp;
    ASSERT_TRUE(cli.recv_response(&resp));
    got[resp.correlation_id] = std::move(resp);
  }
  sender.join();
  ASSERT_EQ(got.size(), kN);
  for (std::uint64_t i = 0; i < kN; ++i) {
    ASSERT_EQ(got.at(i).status, kStatusOk);
    EXPECT_EQ(got.at(i).outputs,
              lb.fix.expected_for(lb.fix.codes_for(i), 1));
  }
  cli.close();
}

TEST(NetServerTest, OneReadIsOneGroupAdmittedAgainstDepthPlusGroup) {
  // Ten frames in one write arrive in one recv() and form one group.
  // Admission counts the group's requests, which are not queued until
  // the read commits: with a 0.75 watermark on 8 slots, six pass and
  // four are shed, as if they had been queued one by one.
  serve::ServerOptions sopts;
  sopts.num_workers = 1;
  sopts.queue_capacity = 8;
  Loopback lb({}, sopts);
  RawConn raw;
  raw.connect(lb.net->port());
  constexpr std::uint64_t kN = 10;
  std::string frames;
  for (std::uint64_t i = 0; i < kN; ++i)
    frames += make_request(i, lb.fix.codes_for(i)).encode();
  raw.send_bytes(frames);

  FrameDecoder dec(1 << 20);
  std::string_view payload;
  std::map<std::uint64_t, RpcResponse> got;
  for (std::uint64_t i = 0; i < kN; ++i) {
    ASSERT_EQ(raw.read(dec, &payload), FrameRead::kFrame);
    RpcResponse resp;
    ASSERT_TRUE(parse_response(payload, &resp));
    got[resp.correlation_id] = std::move(resp);
  }
  ASSERT_EQ(got.size(), kN);
  for (std::uint64_t i = 0; i < kN; ++i) {
    if (i < 6) {
      ASSERT_EQ(got.at(i).status, kStatusOk) << "request " << i;
      EXPECT_EQ(got.at(i).outputs,
                lb.fix.expected_for(lb.fix.codes_for(i), 1));
    } else {
      EXPECT_EQ(got.at(i).status, status_of(RejectReason::kQueueFull))
          << "request " << i;
    }
  }
  const serve::AdmissionStats adm = lb.net->admission_stats();
  EXPECT_EQ(adm.admitted, 6u);
  EXPECT_EQ(adm.rejects[static_cast<std::size_t>(RejectReason::kQueueFull)],
            4u);
  // The group entered the queue in one step, so the idle worker took
  // all six in one batch.
  EXPECT_EQ(lb.server->metrics().batches, 1u);
}

/// Three 1-row requests on one raw connection, then a half-close.
void send_three_and_half_close(Loopback& lb, RawConn& raw) {
  raw.connect(lb.net->port());
  std::string frames;
  for (std::uint64_t i = 0; i < 3; ++i)
    frames += make_request(i, lb.fix.codes_for(i)).encode();
  raw.send_bytes(frames);
  raw.half_close();
}

/// Reads the three responses, bit-exact, then expects EOF.
void expect_three_responses_then_eof(Loopback& lb, RawConn& raw) {
  FrameDecoder dec(1 << 20);
  std::string_view payload;
  std::map<std::uint64_t, RpcResponse> got;
  for (int i = 0; i < 3; ++i) {
    ASSERT_EQ(raw.read(dec, &payload), FrameRead::kFrame)
        << "response " << i << " lost after the half-close";
    RpcResponse resp;
    ASSERT_TRUE(parse_response(payload, &resp));
    got[resp.correlation_id] = std::move(resp);
  }
  ASSERT_EQ(got.size(), 3u);
  for (std::uint64_t i = 0; i < 3; ++i) {
    EXPECT_EQ(got.at(i).status, kStatusOk);
    EXPECT_EQ(got.at(i).outputs,
              lb.fix.expected_for(lb.fix.codes_for(i), 1));
  }
  EXPECT_EQ(raw.read(dec, &payload), FrameRead::kEof);
}

serve::ServerOptions paced_one_worker(double ns_per_row) {
  serve::ServerOptions sopts;
  sopts.num_workers = 1;
  sopts.engine.backend = engine::Backend::kDevicePaced;
  sopts.engine.device_ns_per_token = ns_per_row;
  return sopts;
}

TEST(NetServerTest, HalfClosedClientGetsEveryResponseThenEof) {
  // 20 ms a row keeps every request in flight when the EOF arrives.
  Loopback lb({}, paced_one_worker(20'000'000));
  RawConn raw;
  send_three_and_half_close(lb, raw);
  expect_three_responses_then_eof(lb, raw);
}

TEST(NetServerTest, PausedHalfClosedConnectionDoesNotSpinTheLoop) {
  // Three requests against a cap of two pause reads; the half-close
  // then waits unread until the pressure halves, 600+ ms later.
  NetServerOptions nopts;
  nopts.max_inflight_per_conn = 2;
  Loopback lb(nopts, paced_one_worker(300'000'000));
  RawConn raw;
  send_three_and_half_close(lb, raw);
  std::this_thread::sleep_for(std::chrono::milliseconds(30));

  const auto cpu_ms = [] {
    timespec ts{};
    ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) * 1e3 +
           static_cast<double>(ts.tv_nsec) / 1e6;
  };
  constexpr double kWindowMs = 300;
  const double before = cpu_ms();
  std::this_thread::sleep_for(
      std::chrono::milliseconds(static_cast<int>(kWindowMs)));
  const double used = cpu_ms() - before;
  EXPECT_LT(used, kWindowMs / 3)
      << "event loop busy while reads were paused";
  EXPECT_GE(lb.net->stats().read_pauses, 1u);
  expect_three_responses_then_eof(lb, raw);
}

TEST(NetServerTest, ConcurrentConnectionsServeIndependently) {
  Loopback lb;
  constexpr int kConns = 4;
  constexpr std::uint64_t kPerConn = 16;
  std::vector<std::thread> clients;
  std::vector<std::string> errors(kConns);
  for (int t = 0; t < kConns; ++t) {
    clients.emplace_back([&, t] {
      try {
        NetClient cli;
        cli.connect("127.0.0.1", lb.net->port());
        for (std::uint64_t i = 0; i < kPerConn; ++i)
          cli.send(make_request(i, lb.fix.codes_for(i + 7 * t)));
        std::map<std::uint64_t, RpcResponse> got;
        for (std::uint64_t i = 0; i < kPerConn; ++i) {
          RpcResponse resp;
          if (!cli.recv_response(&resp))
            throw CheckError("early close");
          got[resp.correlation_id] = std::move(resp);
        }
        for (std::uint64_t i = 0; i < kPerConn; ++i) {
          if (got.at(i).status != kStatusOk)
            throw CheckError("non-ok status");
          if (got.at(i).outputs !=
              lb.fix.expected_for(lb.fix.codes_for(i + 7 * t), 1))
            throw CheckError("not bit-exact");
        }
        cli.close();
      } catch (const std::exception& e) {
        errors[static_cast<std::size_t>(t)] = e.what();
      }
    });
  }
  for (auto& th : clients) th.join();
  for (int t = 0; t < kConns; ++t)
    EXPECT_EQ(errors[static_cast<std::size_t>(t)], "") << "conn " << t;
}

TEST(NetServerTest, StopWithConnectedClientDoesNotHang) {
  ServeFixture fix = ServeFixture::make();
  serve::ServerOptions sopts;
  sopts.num_workers = 2;
  serve::InferenceServer server(sopts);
  server.register_model("m", fix.amm);
  auto net = std::make_unique<NetServer>(server, NetServerOptions{});

  NetClient cli;
  cli.connect("127.0.0.1", net->port());
  // One request in flight, then stop: the response must still arrive
  // (graceful drain), after which the server closes the connection.
  cli.send(make_request(3, fix.codes_for(3)));
  RpcResponse resp;
  ASSERT_TRUE(cli.recv_response(&resp));
  EXPECT_EQ(resp.status, kStatusOk);

  net->stop();  // idle client attached — must return promptly
  EXPECT_FALSE(cli.recv_response(&resp));  // clean EOF, not a hang
  cli.close();
  net.reset();
  server.shutdown();
}

// ------------------------------------------------------------ overload

/// One tenant's side of the overload test: what it sent and how the
/// acks came back.
struct TenantRun {
  std::size_t sent = 0;
  std::size_t acked = 0;  ///< responses received, any status
  std::size_t ok = 0;
  std::array<std::size_t, serve::kNumRejectReasons> rejects{};
  double ok_p99_ms = 0.0;

  std::size_t total_rejects() const {
    std::size_t n = 0;
    for (const std::size_t r : rejects) n += r;
    return n;
  }
};

/// Sends `n` requests at `rps` over one pipelined connection while a
/// receiver thread classifies every ack by wire status. Latency runs
/// from send() to ack per correlation id, so it includes queueing: the
/// quantity the SLO bounds.
TenantRun drive_tenant(std::uint16_t port, const std::string& tenant,
                       serve::Priority priority, double rps, std::size_t n,
                       std::size_t rows,
                       const std::vector<std::uint8_t>& codes) {
  const auto now_ns = [] {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  };
  TenantRun out;
  NetClient cli;
  cli.connect("127.0.0.1", port);
  // Release/acquire on each slot orders the send-time store with the
  // receiver's load after the ack.
  std::vector<std::atomic<std::int64_t>> sent_ns(n);
  std::vector<double> ok_ms;
  std::thread rx([&] {
    try {
      for (std::size_t i = 0; i < n; ++i) {
        RpcResponse resp;
        if (!cli.recv_response(&resp)) return;  // lost acks: acked < sent
        const std::int64_t now = now_ns();
        // The id comes off the wire: check it before it indexes.
        ASSERT_LT(resp.correlation_id, n) << tenant;
        out.acked++;
        if (resp.status == kStatusOk) {
          out.ok++;
          ok_ms.push_back(
              static_cast<double>(
                  now - sent_ns[resp.correlation_id].load(
                            std::memory_order_acquire)) /
              1e6);
        } else if (resp.status >= 1 &&
                   resp.status <= serve::kNumRejectReasons) {
          out.rejects[resp.status - 1]++;
        }
      }
    } catch (const std::exception& e) {
      ADD_FAILURE() << tenant << " receiver: " << e.what();
    }
  });
  try {
    const auto start = std::chrono::steady_clock::now();
    const auto interval =
        std::chrono::nanoseconds(static_cast<std::int64_t>(1e9 / rps));
    for (std::size_t i = 0; i < n; ++i) {
      std::this_thread::sleep_until(start +
                                    interval * static_cast<std::int64_t>(i));
      RpcRequest req = make_request(i, codes, rows);
      req.tenant = tenant;
      req.priority = static_cast<std::uint8_t>(priority);
      sent_ns[i].store(now_ns(), std::memory_order_release);
      cli.send(req);
      out.sent++;
    }
  } catch (const std::exception& e) {
    ADD_FAILURE() << tenant << " sender: " << e.what();
  }
  rx.join();
  cli.close();
  if (!ok_ms.empty()) {
    std::sort(ok_ms.begin(), ok_ms.end());
    out.ok_p99_ms = ok_ms[std::min(
        ok_ms.size() - 1,
        static_cast<std::size_t>(0.99 * static_cast<double>(ok_ms.size())))];
  }
  return out;
}

TEST(NetServerTest, OverloadShedsLowPriorityAndKeepsGoldWithinSlo) {
  // Capacity: 2 workers x 1e9 / 100 us per row = 20k rows/s, 1250
  // requests/s at 16 rows. gold (high priority) offers 0.7x that and
  // free (low priority) 1.3x, for 1.2 s, against a 64-deep queue that
  // sheds low-priority requests at its watermark. Gold waits behind at
  // most 64 queued requests, about 51 ms of device time, however hard
  // free pushes. Late worker wake-ups still cost paced capacity, so a
  // loaded host moves gold's p99; test_net runs alone in ctest.
  constexpr double kDeviceNsPerRow = 100'000.0;
  constexpr int kWorkers = 2;
  constexpr std::size_t kRows = 16;
  constexpr double kSeconds = 1.2;
  const double capacity_rps =
      kWorkers * 1e9 / (kDeviceNsPerRow * static_cast<double>(kRows));
  serve::ServerOptions sopts;
  sopts.num_workers = kWorkers;
  sopts.queue_capacity = 64;
  sopts.engine.backend = engine::Backend::kDevicePaced;
  sopts.engine.device_ns_per_token = kDeviceNsPerRow;
  sopts.batcher.max_batch_tokens = 64;
  sopts.batcher.max_wait = std::chrono::microseconds(200);
  NetServerOptions nopts;
  nopts.admission.tenants["gold"] =
      serve::TenantConfig{0.0, 0.0, serve::Priority::kHigh};
  nopts.admission.tenants["free"] =
      serve::TenantConfig{0.0, 0.0, serve::Priority::kLow};
  Loopback lb(nopts, sopts);

  // Every request carries the same payload: the test is about
  // admission and scheduling, not encode bandwidth.
  const std::vector<std::uint8_t> codes(
      lb.fix.pool.row(0), lb.fix.pool.row(0) + kRows * lb.fix.pool.cols);
  const auto drive = [&](const std::string& tenant,
                         serve::Priority priority, double load) {
    const double rps = load * capacity_rps;
    return drive_tenant(lb.net->port(), tenant, priority, rps,
                        static_cast<std::size_t>(rps * kSeconds), kRows,
                        codes);
  };
  auto gold_run = std::async(std::launch::async, drive, "gold",
                             serve::Priority::kHigh, 0.7);
  const TenantRun free_tier = drive("free", serve::Priority::kLow, 1.3);
  const TenantRun gold = gold_run.get();

  for (const TenantRun* t : {&gold, &free_tier}) {
    EXPECT_EQ(t->acked, t->sent) << "a request went unacked";
    EXPECT_EQ(t->ok + t->total_rejects(), t->acked)
        << "an ack was neither ok nor a typed rejection";
  }
  ASSERT_GT(gold.sent, 0u);
  EXPECT_GE(static_cast<double>(gold.ok),
            0.95 * static_cast<double>(gold.sent));
  EXPECT_LE(gold.ok_p99_ms, 100.0);
  EXPECT_GE(free_tier.rejects[static_cast<std::size_t>(
                RejectReason::kQueueFull)],
            1u)
      << "free was never shed at the watermark";
}

// ---------------------------------------- NetClient on a broken stream

/// A one-connection server that writes `bytes` and hangs up: what a
/// crashed or corrupted server looks like from the client side.
class ScriptedPeer {
 public:
  explicit ScriptedPeer(std::string bytes)
      : listen_fd_(listen_tcp("127.0.0.1", 0, 1, /*nonblocking=*/false,
                              &port_)) {
    thread_ = std::thread([this, bytes = std::move(bytes)] {
      const int fd = ::accept(listen_fd_, nullptr, nullptr);
      if (fd < 0) return;
      (void)write_all(fd, bytes);
      ::close(fd);
    });
  }
  ~ScriptedPeer() {
    ::shutdown(listen_fd_, SHUT_RDWR);  // unblocks accept if never dialed
    thread_.join();
    ::close(listen_fd_);
  }
  ScriptedPeer(const ScriptedPeer&) = delete;
  ScriptedPeer& operator=(const ScriptedPeer&) = delete;

  std::uint16_t port() const { return port_; }

 private:
  std::uint16_t port_ = 0;
  int listen_fd_ = -1;
  std::thread thread_;
};

std::string ok_response_frame(std::uint64_t corr) {
  RpcResponse resp;
  resp.correlation_id = corr;
  resp.model = "m";
  resp.model_version = 1;
  resp.rows = 1;
  resp.outputs = {1, -2, 3};
  return resp.encode();
}

TEST(NetClientBrokenStream, BadCrcResponseThrows) {
  std::string frame = ok_response_frame(1);
  frame[frame.size() - 1] ^= 0x40;  // break the payload CRC
  ScriptedPeer peer(frame);
  NetClient cli;
  cli.connect("127.0.0.1", peer.port());
  RpcResponse resp;
  EXPECT_THROW(cli.recv_response(&resp), CheckError);
  cli.close();
}

TEST(NetClientBrokenStream, WrappingOutputCountThrowsCheckError) {
  // nout = 2^63 + 3 doubles to a byte count that wraps to 6, which the
  // three encoded outputs cover. The count must fail as a malformed
  // payload, not size an allocation.
  std::string payload = ok_response_frame(4).substr(12);
  // Prelude 10 bytes, status 1, model "m" 5, version 8, rows 8.
  constexpr std::size_t kNoutAt = 32;
  ASSERT_EQ(payload[kNoutAt], 3);
  const std::uint64_t nout = (std::uint64_t{1} << 63) + 3;
  for (std::size_t i = 0; i < 8; ++i)
    payload[kNoutAt + i] = static_cast<char>(nout >> (8 * i));
  RpcResponse resp;
  EXPECT_FALSE(parse_response(payload, &resp));

  std::ostringstream frame;
  maddness::write_framed_blob(frame, payload);
  ScriptedPeer peer(frame.str());
  NetClient cli;
  cli.connect("127.0.0.1", peer.port());
  EXPECT_THROW(cli.recv_response(&resp), CheckError);
  cli.close();
}

TEST(NetClientBrokenStream, CloseMidFrameThrows) {
  const std::string frame = ok_response_frame(2);
  ScriptedPeer peer(frame.substr(0, frame.size() / 2));
  NetClient cli;
  cli.connect("127.0.0.1", peer.port());
  RpcResponse resp;
  EXPECT_THROW(cli.recv_response(&resp), CheckError);
  cli.close();
}

TEST(NetClientBrokenStream, CloseAtFrameBoundaryIsCleanEof) {
  ScriptedPeer peer(ok_response_frame(3));
  NetClient cli;
  cli.connect("127.0.0.1", peer.port());
  RpcResponse resp;
  ASSERT_TRUE(cli.recv_response(&resp));
  EXPECT_EQ(resp.correlation_id, 3u);
  EXPECT_EQ(resp.outputs, (std::vector<std::int16_t>{1, -2, 3}));
  EXPECT_FALSE(cli.recv_response(&resp));
  cli.close();
}

}  // namespace
}  // namespace ssma::net
