/// Protocol v2 frame layer tests: codec round-trips, FrameSession semantics
/// (lookup vs append policy, stats/metrics/quit), and the robustness matrix
/// the wire demands — truncated frames, oversized length prefixes, garbage
/// verb ids, bad counts, bad magic — each answering a canonical err frame
/// and either continuing or closing, never hanging. Then a live server
/// port: a frame client answered bit-identically, a text client refused.
/// Ends on send_all, the one write primitive under every socket write:
/// short writes and a dead peer.

#include "facet/net/frame.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <random>
#include <string>
#include <thread>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/socket.h>
#include <unistd.h>
#endif

#include "facet/engine/batch_engine.hpp"
#include "facet/net/server.hpp"
#include "facet/net/socket.hpp"
#include "facet/store/store_builder.hpp"
#include "facet/tt/tt_generate.hpp"
#include "facet/tt/tt_io.hpp"

namespace facet {
namespace {

std::vector<TruthTable> random_funcs(int n, std::size_t count, std::uint64_t seed)
{
  std::mt19937_64 rng{seed};
  std::vector<TruthTable> funcs;
  for (std::size_t i = 0; i < count; ++i) {
    funcs.push_back(tt_random(n, rng));
  }
  return funcs;
}

using Response = FrameResponse;

/// Splits a response byte stream back into frames.
std::vector<Response> parse_responses(const std::string& out)
{
  std::vector<Response> responses;
  std::size_t offset = 0;
  while (out.size() - offset >= kFrameHeaderBytes) {
    Response r;
    r.header = decode_header(reinterpret_cast<const unsigned char*>(out.data()) + offset);
    EXPECT_EQ(r.header.magic, kFrameResponseMagic);
    EXPECT_LE(offset + kFrameHeaderBytes + r.header.payload_bytes, out.size());
    r.payload = out.substr(offset + kFrameHeaderBytes, r.header.payload_bytes);
    offset += kFrameHeaderBytes + r.header.payload_bytes;
    responses.push_back(std::move(r));
  }
  EXPECT_EQ(offset, out.size()) << "trailing garbage after last response frame";
  return responses;
}

TEST(Frame, OperandCodecRoundTripsAcrossWidths)
{
  std::mt19937_64 rng{0xF2A1ULL};
  for (const int width : {0, 1, 2, 3, 4, 5, 6, 7, 8}) {
    for (int i = 0; i < 8; ++i) {
      const TruthTable tt = tt_random(width, rng);
      std::string wire;
      encode_operand(wire, tt);
      ASSERT_EQ(wire.size(), frame_operand_bytes(width));
      const TruthTable back =
          decode_operand(width, reinterpret_cast<const unsigned char*>(wire.data()));
      EXPECT_EQ(back, tt) << "width " << width;
    }
  }
}

TEST(Frame, HeaderCodecRoundTrips)
{
  FrameHeader header;
  header.magic = kFrameRequestMagic;
  header.verb = static_cast<std::uint8_t>(FrameVerb::kAppend);
  header.aux = 9;
  header.flags = 0;
  header.payload_bytes = 0xABCDEF;
  std::string wire;
  encode_header(wire, header);
  ASSERT_EQ(wire.size(), kFrameHeaderBytes);
  const FrameHeader back = decode_header(reinterpret_cast<const unsigned char*>(wire.data()));
  EXPECT_EQ(back.magic, header.magic);
  EXPECT_EQ(back.verb, header.verb);
  EXPECT_EQ(back.aux, header.aux);
  EXPECT_EQ(back.flags, header.flags);
  EXPECT_EQ(back.payload_bytes, header.payload_bytes);
}

/// Fixture: one n=5 store + dispatcher + frame session, no sockets.
class FrameSessionTest : public ::testing::Test {
 protected:
  FrameSessionTest()
      : funcs_{random_funcs(5, 40, 0xF2B2ULL)},
        expected_{classify_batch(funcs_, ClassifierKind::kExhaustive, {})},
        store_{build_class_store(funcs_, {})}
  {
  }

  ServeDispatcher make_dispatcher(bool readonly = false)
  {
    ServeOptions options;
    options.readonly = readonly;
    return ServeDispatcher{&store_, nullptr, options};
  }

  /// A function whose class the store does not hold (for miss-path tests).
  TruthTable unknown_func()
  {
    std::mt19937_64 rng{0xF2C3ULL};
    for (int attempt = 0; attempt < 1000; ++attempt) {
      const TruthTable candidate = tt_random(5, rng);
      if (!store_.lookup(candidate).has_value()) {
        return candidate;
      }
    }
    ADD_FAILURE() << "could not find an unknown function";
    return funcs_.front();
  }

  std::vector<TruthTable> funcs_;
  ClassificationResult expected_;
  ClassStore store_;
};

TEST_F(FrameSessionTest, BatchLookupAnswersBatchEngineIdsBitIdentically)
{
  ServeDispatcher dispatcher = make_dispatcher();
  FrameSession session{&dispatcher};
  std::string in = encode_batch_request(FrameVerb::kLookup, 5, funcs_);
  std::string out;
  EXPECT_EQ(session.consume(in, out), FrameStep::kContinue);
  EXPECT_TRUE(in.empty());

  const std::vector<Response> responses = parse_responses(out);
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_EQ(responses[0].header.aux, static_cast<std::uint8_t>(FrameStatus::kOk));
  const auto records = decode_records(responses[0].payload);
  ASSERT_TRUE(records.has_value());
  ASSERT_EQ(records->size(), funcs_.size());
  for (std::size_t i = 0; i < funcs_.size(); ++i) {
    EXPECT_EQ((*records)[i].class_id, expected_.class_of[i]) << "operand " << i;
    EXPECT_NE((*records)[i].src, static_cast<std::uint8_t>(FrameSrc::kMiss));
  }
}

TEST_F(FrameSessionTest, LookupNeverClassifiesButAppendDoes)
{
  ServeDispatcher dispatcher = make_dispatcher();
  FrameSession session{&dispatcher};
  const TruthTable stranger = unknown_func();
  const std::size_t records_before = store_.num_records();

  // lookup: pure read — a miss record, and the store is untouched.
  std::string in = encode_batch_request(FrameVerb::kLookup, 5, {stranger});
  std::string out;
  EXPECT_EQ(session.consume(in, out), FrameStep::kContinue);
  auto records = decode_records(parse_responses(out).at(0).payload);
  ASSERT_TRUE(records.has_value());
  EXPECT_EQ((*records)[0].class_id, kFrameMissClassId);
  EXPECT_EQ((*records)[0].src, static_cast<std::uint8_t>(FrameSrc::kMiss));
  EXPECT_EQ(store_.num_records(), records_before);

  // append on the same connection: classifies live and persists.
  in = encode_batch_request(FrameVerb::kAppend, 5, {stranger});
  out.clear();
  EXPECT_EQ(session.consume(in, out), FrameStep::kContinue);
  records = decode_records(parse_responses(out).at(0).payload);
  ASSERT_TRUE(records.has_value());
  const std::uint32_t appended_id = (*records)[0].class_id;
  EXPECT_NE(appended_id, kFrameMissClassId);
  EXPECT_EQ((*records)[0].src, static_cast<std::uint8_t>(FrameSrc::kLive));
  EXPECT_GT(store_.num_records(), records_before);

  // and the next lookup hits.
  in = encode_batch_request(FrameVerb::kLookup, 5, {stranger});
  out.clear();
  EXPECT_EQ(session.consume(in, out), FrameStep::kContinue);
  records = decode_records(parse_responses(out).at(0).payload);
  ASSERT_TRUE(records.has_value());
  EXPECT_EQ((*records)[0].class_id, appended_id);
  EXPECT_NE((*records)[0].src, static_cast<std::uint8_t>(FrameSrc::kMiss));
}

TEST_F(FrameSessionTest, AppendOnReadonlyAnswersErrAndKeepsTheConnection)
{
  ServeDispatcher dispatcher = make_dispatcher(/*readonly=*/true);
  FrameSession session{&dispatcher};
  std::string in = encode_batch_request(FrameVerb::kAppend, 5, {funcs_.front()});
  in += encode_batch_request(FrameVerb::kLookup, 5, {funcs_.front()});
  std::string out;
  EXPECT_EQ(session.consume(in, out), FrameStep::kContinue);

  const std::vector<Response> responses = parse_responses(out);
  ASSERT_EQ(responses.size(), 2u);
  EXPECT_EQ(responses[0].header.aux, static_cast<std::uint8_t>(FrameStatus::kReadonly));
  // framing stayed intact: the lookup after the rejected append answers ok
  EXPECT_EQ(responses[1].header.aux, static_cast<std::uint8_t>(FrameStatus::kOk));
  const auto records = decode_records(responses[1].payload);
  ASSERT_TRUE(records.has_value());
  EXPECT_EQ((*records)[0].class_id, expected_.class_of[0]);
}

TEST_F(FrameSessionTest, TruncatedFramesWaitForTheRest)
{
  ServeDispatcher dispatcher = make_dispatcher();
  FrameSession session{&dispatcher};
  const std::string full = encode_batch_request(FrameVerb::kLookup, 5, {funcs_.front()});

  // Feed it one byte at a time: nothing may answer until the frame is
  // complete, and nothing may be consumed prematurely.
  std::string in;
  std::string out;
  for (std::size_t i = 0; i + 1 < full.size(); ++i) {
    in.push_back(full[i]);
    EXPECT_EQ(session.consume(in, out), FrameStep::kContinue);
    EXPECT_TRUE(out.empty());
    EXPECT_EQ(in.size(), i + 1);  // partial frame stays buffered
  }
  in.push_back(full.back());
  EXPECT_EQ(session.consume(in, out), FrameStep::kContinue);
  EXPECT_TRUE(in.empty());
  const auto records = decode_records(parse_responses(out).at(0).payload);
  ASSERT_TRUE(records.has_value());
  EXPECT_EQ((*records)[0].class_id, expected_.class_of[0]);
}

TEST_F(FrameSessionTest, OversizedLengthPrefixAnswersErrAndCloses)
{
  ServeDispatcher dispatcher = make_dispatcher();
  FrameSession session{&dispatcher};
  FrameHeader header;
  header.magic = kFrameRequestMagic;
  header.verb = static_cast<std::uint8_t>(FrameVerb::kLookup);
  header.payload_bytes = kMaxFramePayloadBytes + 1;
  std::string in;
  encode_header(in, header);
  std::string out;
  // The header alone convicts the frame — no need to wait for a payload
  // the session would refuse to buffer.
  EXPECT_EQ(session.consume(in, out), FrameStep::kClose);
  const std::vector<Response> responses = parse_responses(out);
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_EQ(responses[0].header.aux, static_cast<std::uint8_t>(FrameStatus::kTooLarge));
}

TEST_F(FrameSessionTest, GarbageVerbAnswersErrAndContinues)
{
  ServeDispatcher dispatcher = make_dispatcher();
  FrameSession session{&dispatcher};
  FrameHeader header;
  header.magic = kFrameRequestMagic;
  header.verb = 0x7E;
  header.payload_bytes = 0;
  std::string in;
  encode_header(in, header);
  in += encode_batch_request(FrameVerb::kLookup, 5, {funcs_.front()});
  std::string out;
  EXPECT_EQ(session.consume(in, out), FrameStep::kContinue);
  const std::vector<Response> responses = parse_responses(out);
  ASSERT_EQ(responses.size(), 2u);
  EXPECT_EQ(responses[0].header.aux, static_cast<std::uint8_t>(FrameStatus::kBadVerb));
  EXPECT_EQ(responses[1].header.aux, static_cast<std::uint8_t>(FrameStatus::kOk));
}

TEST_F(FrameSessionTest, BadMagicCloses)
{
  ServeDispatcher dispatcher = make_dispatcher();
  FrameSession session{&dispatcher};
  std::string in = "GET / HTTP/1.1\r\n\r\n";  // a lost HTTP client
  std::string out;
  EXPECT_EQ(session.consume(in, out), FrameStep::kClose);
  const std::vector<Response> responses = parse_responses(out);
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_EQ(responses[0].header.aux, static_cast<std::uint8_t>(FrameStatus::kBadFrame));
}

TEST_F(FrameSessionTest, CountPayloadMismatchAnswersErrAndContinues)
{
  ServeDispatcher dispatcher = make_dispatcher();
  FrameSession session{&dispatcher};
  // claims 3 operands but carries bytes for 1
  std::string in = encode_batch_request(FrameVerb::kLookup, 5, {funcs_.front()});
  in[kFrameHeaderBytes] = 3;
  std::string out;
  EXPECT_EQ(session.consume(in, out), FrameStep::kContinue);
  const std::vector<Response> responses = parse_responses(out);
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_EQ(responses[0].header.aux, static_cast<std::uint8_t>(FrameStatus::kBadCount));
}

TEST_F(FrameSessionTest, UnroutedWidthAnswersErr)
{
  ServeDispatcher dispatcher = make_dispatcher();
  FrameSession session{&dispatcher};
  std::mt19937_64 rng{0xF2E5ULL};
  std::string in = encode_batch_request(FrameVerb::kLookup, 4, {tt_random(4, rng)});
  std::string out;
  EXPECT_EQ(session.consume(in, out), FrameStep::kContinue);
  const std::vector<Response> responses = parse_responses(out);
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_EQ(responses[0].header.aux, static_cast<std::uint8_t>(FrameStatus::kUnrouted));
}

TEST_F(FrameSessionTest, StatsMetricsAndQuitVerbsAnswer)
{
  ServeDispatcher dispatcher = make_dispatcher();
  FrameSession session{&dispatcher};
  std::string in = encode_control_request(FrameVerb::kStats);
  in += encode_control_request(FrameVerb::kMetrics);
  in += encode_control_request(FrameVerb::kQuit);
  std::string out;
  EXPECT_EQ(session.consume(in, out), FrameStep::kClose);  // quit closes

  const std::vector<Response> responses = parse_responses(out);
  ASSERT_EQ(responses.size(), 3u);
  EXPECT_EQ(responses[0].header.aux, static_cast<std::uint8_t>(FrameStatus::kOk));
  EXPECT_EQ(responses[0].payload.rfind("ok connections=", 0), 0u);
  EXPECT_EQ(responses[1].header.aux, static_cast<std::uint8_t>(FrameStatus::kOk));
  EXPECT_NE(responses[1].payload.find("facet_serve"), std::string::npos);
  EXPECT_EQ(responses[2].header.aux, static_cast<std::uint8_t>(FrameStatus::kOk));
  ASSERT_EQ(responses[2].payload.size(), 8u);  // u64 flushed count
}

TEST(Frame, NonFrameFirstByteAnswersBadFrameAndCloses)
{
  if (!net_supported()) {
    GTEST_SKIP() << "no sockets on this platform";
  }
  const auto funcs = random_funcs(5, 30, 0xF2D4ULL);
  const ClassificationResult expected = classify_batch(funcs, ClassifierKind::kExhaustive, {});
  const std::string path = ::testing::TempDir() + "frame_port_5.fcs";
  build_class_store(funcs, {}).save(path);
  std::remove(ClassStore::delta_log_path(path).c_str());

  ClassStore store = ClassStore::open(path);
  ServeServerOptions options;
  options.listen = "127.0.0.1:0";
  ServeServer server{store, path, options};
  server.start();
  ASSERT_NE(server.tcp_port(), 0);

  // A frame client: one binary batch over the whole set, then quit.
  {
    const Socket client = connect_tcp({"127.0.0.1", server.tcp_port()});
    const auto batch =
        frame_round_trip(client, encode_batch_request(FrameVerb::kLookup, 5, funcs));
    ASSERT_TRUE(batch.has_value());
    EXPECT_EQ(batch->status(), FrameStatus::kOk);
    const auto records = decode_records(batch->payload);
    ASSERT_TRUE(records.has_value());
    ASSERT_EQ(records->size(), funcs.size());
    for (std::size_t i = 0; i < funcs.size(); ++i) {
      EXPECT_EQ((*records)[i].class_id, expected.class_of[i]);
    }
    const auto bye = frame_round_trip(client, encode_control_request(FrameVerb::kQuit));
    ASSERT_TRUE(bye.has_value());
    EXPECT_EQ(bye->status(), FrameStatus::kOk);
  }

  // A connection whose first byte is not 0xFB — a text client — gets one
  // bad_frame err and is closed: there is no second protocol to fall back
  // to.
  {
    const Socket client = connect_tcp({"127.0.0.1", server.tcp_port()});
    const auto refused =
        frame_round_trip(client, "lookup " + to_hex(funcs.front()) + "\nquit\n");
    ASSERT_TRUE(refused.has_value());
    EXPECT_EQ(refused->status(), FrameStatus::kBadFrame);
    EXPECT_FALSE(frame_round_trip(client, "").has_value()) << "the connection stayed open";
  }

  server.request_shutdown();
  server.wait();
  EXPECT_EQ(server.stats().errors.load(), 1u);
  EXPECT_EQ(server.stats().connections_total.load(), 2u);
  std::remove(path.c_str());
}

#if defined(__unix__) || defined(__APPLE__)

/// Both ends of an AF_UNIX stream socketpair, closed on scope exit.
struct SocketPair {
  int a = -1;
  int b = -1;
  SocketPair()
  {
    int fds[2];
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    a = fds[0];
    b = fds[1];
  }
  ~SocketPair()
  {
    for (const int fd : {a, b}) {
      if (fd >= 0) {
        ::close(fd);
      }
    }
  }
};

TEST(Frame, SendAllIntoAClosedPeerFailsWithoutSigpipe)
{
  SocketPair pair;
  ::close(pair.b);  // peer gone before we ever write
  pair.b = -1;
  // The dead peer answers EPIPE, which must surface as a false return —
  // never as a SIGPIPE that kills the process.
  const std::string payload(64 * 1024, 'y');
  EXPECT_FALSE(send_all(pair.a, payload));
}

TEST(Frame, SendAllDeliversEverythingThroughShortWrites)
{
  SocketPair pair;
  // Shrink the send buffer so one large write cannot complete in a single
  // send(2): send_all must loop over partial progress while the reader
  // drains the other end.
  const int sndbuf = 4096;
  ::setsockopt(pair.a, SOL_SOCKET, SO_SNDBUF, &sndbuf, sizeof(sndbuf));

  const std::string payload(512 * 1024, 'z');
  std::string received;
  std::thread reader{[&] {
    char chunk[8192];
    for (;;) {
      const ssize_t n = ::read(pair.b, chunk, sizeof chunk);
      if (n <= 0) {
        break;
      }
      received.append(chunk, static_cast<std::size_t>(n));
      std::this_thread::sleep_for(std::chrono::microseconds{100});
    }
  }};
  EXPECT_TRUE(send_all(pair.a, payload));
  ::shutdown(pair.a, SHUT_WR);
  reader.join();
  EXPECT_EQ(received.size(), payload.size());
  EXPECT_EQ(received, payload);
}

#endif

}  // namespace
}  // namespace facet
