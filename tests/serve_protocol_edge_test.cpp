/// Serve-session semantics through the protocol v2 frame path every socket
/// connection runs (ServeDispatcher behind a FrameSession): lookup vs
/// append policy, request errors that keep the session alive, flush-on-exit
/// via quit and via EOF with the flushed count reported, readonly
/// sessions, the `stats` aggregate and per-width rows, latency and
/// slow-request telemetry, the `metrics` dump, and memo-tier answers.

#include "facet/store/serve.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "facet/net/frame.hpp"
#include "facet/net/server.hpp"
#include "facet/npn/transform.hpp"
#include "facet/store/store_builder.hpp"
#include "facet/tt/tt_generate.hpp"
#include "facet/tt/tt_transform.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <sys/socket.h>
#endif

namespace facet {
namespace {

ClassStore make_store(int n, std::uint64_t seed, std::size_t count = 30)
{
  std::mt19937_64 rng{seed};
  std::vector<TruthTable> funcs;
  for (std::size_t i = 0; i < count; ++i) {
    funcs.push_back(tt_random(n, rng));
  }
  return build_class_store(funcs, {});
}

StoreRouter make_router(std::uint64_t seed)
{
  StoreRouter router;
  router.attach(std::make_unique<ClassStore>(make_store(3, seed)));
  router.attach(std::make_unique<ClassStore>(make_store(4, seed + 1)));
  return router;
}

/// A function `store` does not hold.
TruthTable novel_function(const ClassStore& store, std::uint64_t seed)
{
  std::mt19937_64 rng{seed};
  TruthTable f{store.num_vars()};
  do {
    f = tt_random(store.num_vars(), rng);
  } while (store.lookup(f).has_value());
  return f;
}

/// One in-process serve session: a dispatcher over a store or a router
/// behind the FrameSession a socket connection runs.
class Session {
 public:
  explicit Session(ClassStore& store, const ServeOptions& options = {})
      : dispatcher_{&store, nullptr, options}, frames_{&dispatcher_}
  {
  }
  explicit Session(StoreRouter& router, const ServeOptions& options = {})
      : dispatcher_{nullptr, &router, options}, frames_{&dispatcher_}
  {
  }

  /// Feeds one request frame and returns its single response.
  FrameResponse send(std::string request)
  {
    std::string out;
    step_ = frames_.consume(request, out);
    EXPECT_TRUE(request.empty()) << "the request frame was not consumed";
    FrameResponse response;
    if (out.size() < kFrameHeaderBytes) {
      ADD_FAILURE() << "no response frame";
      return response;
    }
    response.header = decode_header(reinterpret_cast<const unsigned char*>(out.data()));
    response.payload = out.substr(kFrameHeaderBytes);
    EXPECT_EQ(response.payload.size(), response.header.payload_bytes) << "not exactly one frame";
    return response;
  }

  /// A lookup/append batch of one width; the records of its ok response.
  std::vector<FrameRecord> batch(FrameVerb verb, int width, const std::vector<TruthTable>& funcs)
  {
    const FrameResponse response = send(encode_batch_request(verb, width, funcs));
    EXPECT_EQ(response.status(), FrameStatus::kOk) << response.payload;
    return decode_records(response.payload).value_or(std::vector<FrameRecord>{});
  }

  std::vector<FrameRecord> lookup(const std::vector<TruthTable>& funcs)
  {
    return batch(FrameVerb::kLookup, funcs.front().num_vars(), funcs);
  }
  std::vector<FrameRecord> append(const std::vector<TruthTable>& funcs)
  {
    return batch(FrameVerb::kAppend, funcs.front().num_vars(), funcs);
  }

  /// The `stats` text block, split into lines.
  std::vector<std::string> stats()
  {
    const FrameResponse response = send(encode_control_request(FrameVerb::kStats));
    EXPECT_EQ(response.status(), FrameStatus::kOk);
    std::vector<std::string> lines;
    std::istringstream reader{response.payload};
    for (std::string line; std::getline(reader, line);) {
      lines.push_back(line);
    }
    return lines;
  }

  /// Sends quit; returns the flushed-record count of the ok response.
  std::uint64_t quit()
  {
    const FrameResponse response = send(encode_control_request(FrameVerb::kQuit));
    EXPECT_EQ(response.status(), FrameStatus::kOk);
    EXPECT_EQ(step_, FrameStep::kClose) << "quit must end the session";
    if (response.payload.size() != 8) {
      ADD_FAILURE() << "quit payload is not a u64";
      return 0;
    }
    return read_u64(reinterpret_cast<const unsigned char*>(response.payload.data()));
  }

  /// The dispatcher's aggregate: the shared one when options name it, else
  /// the session's own.
  [[nodiscard]] ServeAggregateSnapshot counters() const
  {
    return dispatcher_.options().aggregate->snapshot();
  }
  [[nodiscard]] FrameStep last_step() const { return step_; }

 private:
  ServeDispatcher dispatcher_;
  FrameSession frames_;
  FrameStep step_ = FrameStep::kContinue;
};

const char* src_of(const FrameRecord& record)
{
  return frame_src_name(record.src);
}

/// Answers `source` gave across every width of an aggregate snapshot.
std::uint64_t answered(const ServeAggregateSnapshot& counters, LookupSource source)
{
  return counters.total.source[static_cast<std::size_t>(source)];
}

/// The numeric value of `key=<v>` on a stats line.
double field(const std::string& line, const std::string& key)
{
  const std::size_t at = line.find(" " + key + "=");
  if (at == std::string::npos) {
    ADD_FAILURE() << "no " << key << "= in " << line;
    return -1;
  }
  return std::stod(line.substr(at + key.size() + 2));
}

// -- StoreServe: the single-store session ----------------------------------

TEST(StoreServe, LookupStatsQuit)
{
  ClassStore store = make_store(4, 0x5e12ULL, 40);
  const TruthTable rep = store.records().front().representative;

  Session session{store};
  // Width 4: both lookups resolve in the O(1) NPN4 table tier — no
  // canonicalization, no cache or index involvement.
  for (int round = 0; round < 2; ++round) {
    const auto records = session.lookup({rep});
    ASSERT_EQ(records.size(), 1u);
    EXPECT_NE(records[0].class_id, kFrameMissClassId);
    EXPECT_STREQ(src_of(records[0]), "table");
    EXPECT_EQ(records[0].known, 1);
  }
  const auto stats = session.stats();
  ASSERT_EQ(stats.size(), 2u);
  EXPECT_EQ(stats[0].rfind("ok connections=1 sessions=1 requests=3 lookups=2 ", 0), 0u)
      << stats[0];
  EXPECT_EQ(session.quit(), 0u);

  const ServeAggregateSnapshot counters = session.counters();
  EXPECT_EQ(counters.requests, 4u);
  EXPECT_EQ(counters.total.lookups(), 2u);
  EXPECT_EQ(answered(counters, LookupSource::kTable), 2u);
  EXPECT_EQ(answered(counters, LookupSource::kHotCache), 0u);
  EXPECT_EQ(answered(counters, LookupSource::kIndex), 0u);
  EXPECT_EQ(answered(counters, LookupSource::kLive), 0u);
  EXPECT_EQ(counters.errors, 0u);
}

TEST(StoreServe, MalformedRequestsAnswerErrAndKeepServing)
{
  ClassStore store = make_store(3, 0x5e14ULL, 40);
  const TruthTable rep = store.records().front().representative;
  Session session{store};

  FrameHeader garbage;
  garbage.magic = kFrameRequestMagic;
  garbage.verb = 0x7E;
  std::string unknown_verb;
  encode_header(unknown_verb, garbage);
  EXPECT_EQ(session.send(unknown_verb).status(), FrameStatus::kBadVerb);

  std::string too_wide = encode_batch_request(FrameVerb::kLookup, 3, {rep});
  too_wide[2] = static_cast<char>(kMaxVars + 1);
  EXPECT_EQ(session.send(too_wide).status(), FrameStatus::kBadWidth);

  std::string miscounted = encode_batch_request(FrameVerb::kLookup, 3, {rep});
  miscounted[kFrameHeaderBytes] = 2;  // claims two operands, carries one
  EXPECT_EQ(session.send(miscounted).status(), FrameStatus::kBadCount);

  std::mt19937_64 rng{0x5e15ULL};
  EXPECT_EQ(session.send(encode_batch_request(FrameVerb::kLookup, 4, {tt_random(4, rng)})).status(),
            FrameStatus::kUnrouted);
  EXPECT_EQ(session.last_step(), FrameStep::kContinue) << "request faults keep the session";

  const auto records = session.lookup({rep});
  ASSERT_EQ(records.size(), 1u);
  EXPECT_NE(records[0].class_id, kFrameMissClassId) << "the session must survive errors";
  EXPECT_EQ(session.quit(), 0u);
  EXPECT_EQ(session.counters().errors, 4u);
  EXPECT_EQ(session.counters().total.lookups(), 1u);
}

TEST(StoreServe, UnknownFunctionsFallBackToLiveAndCanAppend)
{
  const int n = 4;
  ClassStore store = make_store(n, 0x5e16ULL, 10);
  const TruthTable novel = novel_function(store, 0x5e17ULL);
  store.clear_hot_cache();
  std::mt19937_64 rng{0x5e18ULL};
  const TruthTable equivalent = apply_transform(novel, NpnTransform::random(n, rng));

  Session session{store};
  // lookup is a pure read: both unknown queries answer miss records and
  // the store is untouched.
  const auto misses = session.lookup({novel, equivalent});
  ASSERT_EQ(misses.size(), 2u);
  for (const FrameRecord& record : misses) {
    EXPECT_EQ(record.class_id, kFrameMissClassId);
    EXPECT_STREQ(src_of(record), "miss");
  }
  EXPECT_EQ(store.num_appended(), 0u);

  // append classifies the miss live and persists it; the equivalent query
  // then answers the same class as known, and the store grew by one.
  const auto appended = session.append({novel});
  ASSERT_EQ(appended.size(), 1u);
  EXPECT_STREQ(src_of(appended[0]), "live");
  EXPECT_EQ(appended[0].known, 0);
  const auto hit = session.lookup({equivalent});
  ASSERT_EQ(hit.size(), 1u);
  EXPECT_EQ(hit[0].class_id, appended[0].class_id);
  EXPECT_EQ(hit[0].known, 1);
  EXPECT_EQ(answered(session.counters(), LookupSource::kLive), 1u);
  EXPECT_EQ(store.num_appended(), 1u);
}

// -- StoreRouterServe: one session over several widths ---------------------

TEST(StoreRouterServe, OneSessionAnswersMixedWidths)
{
  StoreRouter router;
  std::vector<TruthTable> reps;
  for (const int n : {3, 4, 5}) {
    router.attach(std::make_unique<ClassStore>(make_store(n, 0x40c7e5ULL + n)));
    reps.push_back(router.store_for(n)->records().front().representative);
  }

  Session session{router};
  for (const TruthTable& rep : reps) {
    const auto records = session.lookup({rep});
    ASSERT_EQ(records.size(), 1u);
    EXPECT_NE(records[0].class_id, kFrameMissClassId) << "width " << rep.num_vars();
    EXPECT_EQ(records[0].known, 1);
  }
  // Width 6 is not routed.
  EXPECT_EQ(session.send(encode_batch_request(FrameVerb::kLookup, 6, {TruthTable{6}})).status(),
            FrameStatus::kUnrouted);

  const auto stats = session.stats();
  ASSERT_EQ(stats.size(), 4u);
  EXPECT_NE(stats[0].find(" widths=3"), std::string::npos) << stats[0];
  EXPECT_EQ(stats[1].rfind("ok width=3 lookups=1 ", 0), 0u) << stats[1];
  EXPECT_EQ(stats[2].rfind("ok width=4 lookups=1 ", 0), 0u) << stats[2];
  EXPECT_EQ(stats[3].rfind("ok width=5 lookups=1 ", 0), 0u) << stats[3];
  EXPECT_EQ(session.counters().total.lookups(), 3u);
  EXPECT_EQ(session.counters().errors, 1u);
}

// -- ServeProtocolEdge ------------------------------------------------------

/// The append-loss bugfix: a session that appends classes flushes them to
/// the delta log when it ends — via quit (reported in the response) and via
/// a bare EOF — so an unflushed memtable never dies with the process.
TEST(ServeProtocolEdge, QuitFlushesAppendsAndReportsCount)
{
  const int n = 4;
  const std::string path = ::testing::TempDir() + "serve_edge_quit.fcs";
  const std::string dlog = ClassStore::delta_log_path(path);
  make_store(n, 0xed08ULL, 8).save(path);
  std::remove(dlog.c_str());

  ClassStore store = ClassStore::open(path);
  const TruthTable novel = novel_function(store, 0xed09ULL);

  ServeOptions options;
  options.dlog_path = dlog;
  Session session{store, options};
  const auto appended = session.append({novel});
  ASSERT_EQ(appended.size(), 1u);
  EXPECT_STREQ(src_of(appended[0]), "live");
  EXPECT_EQ(session.quit(), 1u);
  EXPECT_EQ(session.counters().flushed_records, 1u);
  EXPECT_EQ(store.num_appended(), 0u) << "the memtable was sealed";

  // The append is durable: a fresh open replays the delta log.
  ClassStore reopened = ClassStore::open(path);
  const auto replayed = reopened.lookup(novel);
  ASSERT_TRUE(replayed.has_value());
  EXPECT_TRUE(replayed->known);
  std::remove(path.c_str());
  std::remove(dlog.c_str());
}

TEST(ServeProtocolEdge, EofFlushesAppendsWithoutQuit)
{
  if (!net_supported()) {
    GTEST_SKIP() << "no sockets on this platform";
  }
  const int n = 4;
  const std::string path = ::testing::TempDir() + "serve_edge_eof.fcs";
  const std::string dlog = ClassStore::delta_log_path(path);
  make_store(n, 0xed10ULL, 8).save(path);
  std::remove(dlog.c_str());

  ClassStore store = ClassStore::open(path);
  const TruthTable novel = novel_function(store, 0xed11ULL);
  ServeServerOptions options;
  options.listen = "127.0.0.1:0";
  ServeServer server{store, path, options};
  server.start();

  // No quit: the client appends, then just hangs up — the connection's
  // close path must flush identically.
  {
    const Socket client = connect_tcp({"127.0.0.1", server.tcp_port()});
    const auto response =
        frame_round_trip(client, encode_batch_request(FrameVerb::kAppend, n, {novel}));
    ASSERT_TRUE(response.has_value());
    ASSERT_EQ(response->status(), FrameStatus::kOk);
  }
  for (int spin = 0; spin < 400 && server.stats().connections_active.load() != 0; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds{5});
  }
  EXPECT_EQ(server.stats().flushed_records.load(), 1u);

  // Durable before the server's own shutdown flush runs.
  ClassStore reopened = ClassStore::open(path);
  const auto replayed = reopened.lookup(novel);
  ASSERT_TRUE(replayed.has_value());
  EXPECT_TRUE(replayed->known);
  server.request_shutdown();
  server.wait();
  std::remove(path.c_str());
  std::remove(dlog.c_str());
}

#if defined(__unix__) || defined(__APPLE__)

TEST(StoreServe, EndOfInputEndsTheLoopWithoutQuit)
{
  if (!net_supported()) {
    GTEST_SKIP() << "no sockets on this platform";
  }
  const std::string path = ::testing::TempDir() + "serve_edge_eoi.fcs";
  make_store(3, 0x5e15ULL).save(path);
  ClassStore store = ClassStore::open(path);
  ServeServerOptions options;
  options.listen = "127.0.0.1:0";
  options.readonly = true;
  ServeServer server{store, path, options};
  server.start();

  // One request, then end of input (half-close): the request is answered
  // and the session ends without a quit.
  const Socket client = connect_tcp({"127.0.0.1", server.tcp_port()});
  const auto stats = frame_round_trip(client, encode_control_request(FrameVerb::kStats));
  ASSERT_TRUE(stats.has_value());
  EXPECT_EQ(stats->status(), FrameStatus::kOk);
  ASSERT_EQ(::shutdown(client.fd(), SHUT_WR), 0);
  EXPECT_FALSE(frame_round_trip(client, "").has_value()) << "the session outlived its input";

  for (int spin = 0; spin < 400 && server.stats().connections_active.load() != 0; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds{5});
  }
  EXPECT_EQ(server.stats().connections_active.load(), 0u);
  EXPECT_EQ(server.stats().requests.load(), 1u);
  server.request_shutdown();
  server.wait();
  std::remove(path.c_str());
}

#endif  // sockets

TEST(ServeProtocolEdge, MalformedOperandsAnswerOneCanonicalShapeInSingleAndRoutedSessions)
{
  // A batch payload shorter than its count, and one whose count disagrees
  // with its operand bytes, answer the same bad_count reasons from a
  // single-store session and a router session.
  ClassStore store = make_store(4, 0xed03ULL);
  StoreRouter router = make_router(0xed04ULL);
  const TruthTable rep = store.records().front().representative;
  std::string short_payload = encode_batch_request(FrameVerb::kLookup, 4, {});
  short_payload.resize(kFrameHeaderBytes + 2);
  short_payload[4] = 2;  // payload_bytes = 2: not even a count
  std::string miscounted = encode_batch_request(FrameVerb::kLookup, 4, {rep});
  miscounted[kFrameHeaderBytes] = 3;

  Session single{store};
  Session routed{router};
  for (const std::string& request : {short_payload, miscounted}) {
    const FrameResponse a = single.send(request);
    const FrameResponse b = routed.send(request);
    EXPECT_EQ(a.status(), FrameStatus::kBadCount);
    EXPECT_EQ(b.status(), FrameStatus::kBadCount);
    EXPECT_EQ(a.payload, b.payload);
  }
  EXPECT_EQ(single.send(short_payload).payload, "batch payload shorter than its count");
  EXPECT_EQ(single.send(miscounted).payload,
            "count 3 at width 4 needs 10 payload bytes, frame carries 6");
  EXPECT_EQ(single.counters().errors, 4u);
  EXPECT_EQ(routed.counters().errors, 2u);
  EXPECT_EQ(single.counters().total.lookups(), 0u);
}

TEST(ServeProtocolEdge, RouterQuitFlushesEveryWidth)
{
  const std::string path3 = ::testing::TempDir() + "serve_edge_r3.fcs";
  const std::string path4 = ::testing::TempDir() + "serve_edge_r4.fcs";
  make_store(3, 0xed12ULL, 6).save(path3);
  make_store(4, 0xed13ULL, 6).save(path4);
  std::remove(ClassStore::delta_log_path(path3).c_str());
  std::remove(ClassStore::delta_log_path(path4).c_str());

  StoreRouter router = StoreRouter::open({path3, path4});
  const TruthTable novel3 = novel_function(*router.store_for(3), 0xed14ULL);
  const TruthTable novel4 = novel_function(*router.store_for(4), 0xed15ULL);

  ServeOptions options;
  options.dlog_paths = {{3, ClassStore::delta_log_path(path3)},
                        {4, ClassStore::delta_log_path(path4)}};
  Session session{router, options};
  ASSERT_EQ(session.append({novel3}).size(), 1u);
  ASSERT_EQ(session.append({novel4}).size(), 1u);
  EXPECT_EQ(session.quit(), 2u);
  EXPECT_EQ(session.counters().flushed_records, 2u);

  StoreRouter reopened = StoreRouter::open({path3, path4});
  EXPECT_TRUE(reopened.lookup(novel3).has_value());
  EXPECT_TRUE(reopened.lookup(novel4).has_value());
  for (const auto& path : {path3, path4}) {
    std::remove(path.c_str());
    std::remove(ClassStore::delta_log_path(path).c_str());
  }
}

TEST(ServeProtocolEdge, ReadonlySessionRejectsMissesButServesHits)
{
  ClassStore store = make_store(4, 0xed15ULL, 8);
  const TruthTable novel = novel_function(store, 0xed16ULL);
  store.clear_hot_cache();
  const TruthTable known = store.records().front().representative;

  ServeOptions options;
  options.readonly = true;
  Session session{store, options};
  const auto records = session.lookup({known, novel});
  ASSERT_EQ(records.size(), 2u);
  EXPECT_NE(records[0].class_id, kFrameMissClassId);
  EXPECT_EQ(records[1].class_id, kFrameMissClassId);
  EXPECT_EQ(session.send(encode_batch_request(FrameVerb::kAppend, 4, {novel})).status(),
            FrameStatus::kReadonly);
  EXPECT_EQ(session.quit(), 0u);
  EXPECT_EQ(session.counters().total.lookups(), 1u);
  EXPECT_EQ(session.counters().errors, 1u);
  EXPECT_EQ(store.num_appended(), 0u);
  EXPECT_EQ(store.num_classes(), store.num_records()) << "no live ids were allocated";
}

TEST(ServeProtocolEdge, StatsAllAnswersAggregateInStandaloneSessions)
{
  // A session without a shared aggregate (no server around it) is its own
  // aggregate: one connection, one session.
  ClassStore store = make_store(3, 0xed17ULL);
  Session session{store};
  ASSERT_EQ(session.lookup({store.records().front().representative}).size(), 1u);
  const auto lines = session.stats();
  // One aggregate line (ending in widths=<count>) plus one per-width row
  // for each served store — one row for a single store.
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0].rfind("ok connections=1 sessions=1 requests=2 lookups=1", 0), 0u)
      << lines[0];
  EXPECT_NE(lines[0].find(" widths=1"), std::string::npos) << lines[0];
  EXPECT_EQ(lines[1].rfind("ok width=3 lookups=1 ", 0), 0u) << lines[1];
}

TEST(ServeProtocolEdge, StatsAllReportsPerWidthRows)
{
  StoreRouter router = make_router(0xed20ULL);
  const TruthTable rep3 = router.store_for(3)->records().front().representative;
  const TruthTable rep4 = router.store_for(4)->records().front().representative;

  // Two width-3 lookups and one width-4 lookup: the rows must attribute
  // traffic to the store that served it — at these widths every hit
  // resolves in the O(1) NPN4 table tier, never the cache or index.
  Session session{router};
  ASSERT_EQ(session.lookup({rep3, rep3}).size(), 2u);
  ASSERT_EQ(session.lookup({rep4}).size(), 1u);
  const auto lines = session.stats();
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_NE(lines[0].find(" lookups=3 "), std::string::npos) << lines[0];
  EXPECT_NE(lines[0].find(" table_hits=3 "), std::string::npos) << lines[0];
  EXPECT_NE(lines[0].find(" widths=2"), std::string::npos) << lines[0];
  EXPECT_EQ(lines[1],
            "ok width=3 lookups=2 cache_hits=0 memo_hits=0 table_hits=2 index_hits=0 live=0 "
            "appended=0");
  EXPECT_EQ(lines[2],
            "ok width=4 lookups=1 cache_hits=0 memo_hits=0 table_hits=1 index_hits=0 live=0 "
            "appended=0");
}

TEST(ServeProtocolEdge, StatsAllCountsAppendsPerWidth)
{
  StoreRouter router = make_router(0xed21ULL);
  const TruthTable novel = novel_function(*router.store_for(4), 0xed22ULL);
  Session session{router};
  ASSERT_EQ(session.append({novel}).size(), 1u);
  const auto lines = session.stats();
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(lines[1],
            "ok width=3 lookups=0 cache_hits=0 memo_hits=0 table_hits=0 index_hits=0 live=0 "
            "appended=0");
  EXPECT_EQ(lines[2],
            "ok width=4 lookups=1 cache_hits=0 memo_hits=0 table_hits=0 index_hits=0 live=1 "
            "appended=1");
}

TEST(ServeProtocolEdge, DispatchersSharingAnAggregateSeeEachOthersTraffic)
{
  // Two sessions of one server share its aggregate: a `stats` on B reports
  // A's traffic while A stays open, the aggregate's per-source totals are
  // the sums of the width rows, and a frame that mixes hits with
  // pure-lookup misses counts only its hits.
  StoreRouter router;
  router.attach(std::make_unique<ClassStore>(make_store(4, 0xed40ULL)));
  router.attach(std::make_unique<ClassStore>(make_store(5, 0xed41ULL)));
  const TruthTable rep4 = router.store_for(4)->records().front().representative;
  const TruthTable rep5 = router.store_for(5)->records().front().representative;
  const TruthTable novel4 = novel_function(*router.store_for(4), 0xed42ULL);
  const TruthTable novel5 = novel_function(*router.store_for(5), 0xed43ULL);
  router.store_for(5)->clear_hot_cache();

  ServeAggregateStats aggregate;
  ServeOptions options;
  options.aggregate = &aggregate;
  Session a{router, options};
  Session b{router, options};

  const auto width4 = a.lookup({rep4, novel4, rep4});
  ASSERT_EQ(width4.size(), 3u);
  EXPECT_STREQ(src_of(width4[1]), "miss");
  const auto width5 = a.lookup({rep5, novel5, rep5});
  ASSERT_EQ(width5.size(), 3u);
  EXPECT_STREQ(src_of(width5[1]), "miss");
  FrameHeader garbage;
  garbage.magic = kFrameRequestMagic;
  garbage.verb = 0x7E;
  std::string unknown_verb;
  encode_header(unknown_verb, garbage);
  EXPECT_EQ(a.send(unknown_verb).status(), FrameStatus::kBadVerb);

  const auto lines = b.stats();
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(field(lines[0], "requests"), 4) << lines[0];  // A's three + this stats
  EXPECT_EQ(field(lines[0], "lookups"), 4) << lines[0];   // the two misses are not counted
  EXPECT_EQ(field(lines[0], "errors"), 1) << lines[0];
  EXPECT_EQ(lines[1],
            "ok width=4 lookups=2 cache_hits=0 memo_hits=0 table_hits=2 index_hits=0 live=0 "
            "appended=0");
  EXPECT_EQ(field(lines[2], "lookups"), 2) << lines[2];
  EXPECT_EQ(field(lines[2], "live"), 0) << lines[2];
  for (const char* key :
       {"lookups", "cache_hits", "memo_hits", "table_hits", "index_hits", "live"}) {
    EXPECT_EQ(field(lines[0], key), field(lines[1], key) + field(lines[2], key)) << key;
  }
  EXPECT_EQ(a.counters().total.lookups(), 4u) << "both sessions read the one aggregate";
}

TEST(ServeProtocolEdge, StatsLineReportsErrors)
{
  ClassStore store = make_store(3, 0xed18ULL);
  Session session{store};
  FrameHeader garbage;
  garbage.magic = kFrameRequestMagic;
  garbage.verb = 0x7E;
  std::string frame;
  encode_header(frame, garbage);
  EXPECT_EQ(session.send(frame).status(), FrameStatus::kBadVerb);
  const auto lines = session.stats();
  ASSERT_FALSE(lines.empty());
  EXPECT_NE(lines[0].find(" errors=1 "), std::string::npos) << lines[0];
}

TEST(ServeProtocolEdge, StatsAllCarriesCompactionAndLatencyFields)
{
  // Width 5 with a cold cache: every lookup canonicalizes, so the frame
  // takes microseconds and its latency cannot round to 0.0.
  ClassStore store = make_store(5, 0xed40ULL);
  store.clear_hot_cache();
  std::vector<TruthTable> reps;
  for (const auto& record : store.records()) {
    reps.push_back(record.representative);
  }
  Session session{store};
  ASSERT_EQ(session.lookup(reps).size(), reps.size());
  const auto lines = session.stats();
  ASSERT_EQ(lines.size(), 2u);
  const std::string& agg = lines[0];
  // The compactor surface and the request-latency quantiles ride on the
  // aggregate line; `widths=` must stay the LAST field (clients key their
  // row-count parsing off it).
  EXPECT_NE(agg.find(" compactions="), std::string::npos) << agg;
  EXPECT_NE(agg.find(" compact_bytes="), std::string::npos) << agg;
  EXPECT_NE(agg.find(" last_compact_ms="), std::string::npos) << agg;
  // The quantiles are the lookup/append frame latencies: nonzero after the
  // lookup frame above.
  EXPECT_GT(field(agg, "p50_us"), 0.0) << agg;
  EXPECT_GT(field(agg, "p99_us"), 0.0) << agg;
  const std::size_t widths_at = agg.find(" widths=");
  ASSERT_NE(widths_at, std::string::npos) << agg;
  EXPECT_EQ(agg.find(' ', widths_at + 1), std::string::npos) << "widths= must be last: " << agg;
  EXPECT_GT(widths_at, agg.find(" p99_us=")) << agg;
}

TEST(ServeProtocolEdge, MetricsVerbFramesThePrometheusDump)
{
  ClassStore store = make_store(4, 0xed41ULL);
  Session session{store};
  ASSERT_EQ(session.lookup({store.records().front().representative}).size(), 1u);
  const FrameResponse response = session.send(encode_control_request(FrameVerb::kMetrics));
  ASSERT_EQ(response.status(), FrameStatus::kOk);
  const std::string& body = response.payload;

  // The serve and store instrumentation must be present: the frame
  // latency series and the store's per-tier lookup series (resolved at
  // store construction, so they exist even before traffic).
  EXPECT_NE(body.find("facet_serve_frame_latency{proto=\"v2\",verb=\"lookup\""),
            std::string::npos);
  EXPECT_NE(body.find("facet_store_lookup_latency{tier=\"cache\""), std::string::npos);
  EXPECT_NE(body.find("facet_store_lookup_latency{tier=\"table\""), std::string::npos);
  EXPECT_NE(body.find("facet_store_hot_cache_entries"), std::string::npos);

  // The lookup preceding the scrape must have landed in its series with a
  // nonzero count: find the lookup _count line and check its value.
  const std::string count_key = "facet_serve_frame_latency_count{proto=\"v2\",verb=\"lookup\"} ";
  const std::size_t at = body.find(count_key);
  ASSERT_NE(at, std::string::npos);
  EXPECT_GE(std::stoull(body.substr(at + count_key.size())), 1u);
}

TEST(ServeProtocolEdge, SlowRequestThresholdLogsStructuredLines)
{
  // Width 5: a width <= 4 lookup is one NPN4 table load (~100ns) and may
  // legitimately stay under any microsecond threshold.
  ClassStore store = make_store(5, 0xed42ULL);
  store.clear_hot_cache();
  const TruthTable rep = store.records().front().representative;

  // Threshold of 1us: a cold lookup (semiclass + canonicalization) is
  // microseconds-scale, so its frame must cross it; the line carries the
  // frame verb, width, the last record's tier and the measured
  // microseconds.
  ServeOptions options;
  options.slow_request_us = 1;
  std::ostringstream slow;
  options.slow_log = &slow;
  {
    Session session{store, options};
    ASSERT_EQ(session.lookup({rep}).size(), 1u);
  }
  const std::string logged = slow.str();
  ASSERT_NE(logged.find("facet-serve: slow verb=lookup width=5 src="), std::string::npos)
      << logged;
  EXPECT_EQ(logged.find("src=-"), std::string::npos) << "the record's tier is named: " << logged;
  EXPECT_NE(logged.find(" us="), std::string::npos) << logged;

  // Threshold 0 disables the log entirely.
  store.clear_hot_cache();
  ServeOptions quiet_options;
  std::ostringstream quiet;
  quiet_options.slow_log = &quiet;
  Session quiet_session{store, quiet_options};
  ASSERT_EQ(quiet_session.lookup({rep}).size(), 1u);
  EXPECT_TRUE(quiet.str().empty()) << quiet.str();
}

TEST(ServeProtocolEdge, MemoHitsAppearInSrcAndStats)
{
  // Hot cache off, so an equivalent repeat falls through to the semiclass
  // memo instead of the exact-table cache; width 5, because the NPN4 table
  // answers width <= 4 before the memo and index tiers.
  std::mt19937_64 rng{0xed33ULL};
  std::vector<TruthTable> funcs;
  for (std::size_t i = 0; i < 20; ++i) {
    funcs.push_back(tt_random(5, rng));
  }
  StoreBuildOptions build_options;
  build_options.store.hot_cache_capacity = 0;
  ClassStore store = build_class_store(funcs, build_options);

  const TruthTable rep = store.records().front().representative;
  TruthTable variant = rep;
  do {
    variant = apply_transform(rep, NpnTransform::random(5, rng));
  } while (variant == rep);

  Session session{store};
  const auto first = session.lookup({rep});
  const auto second = session.lookup({variant});
  ASSERT_EQ(first.size(), 1u);
  ASSERT_EQ(second.size(), 1u);
  EXPECT_STREQ(src_of(first[0]), "index");
  EXPECT_STREQ(src_of(second[0]), "memo");
  EXPECT_EQ(second[0].known, 1);
  const auto lines = session.stats();
  ASSERT_FALSE(lines.empty());
  EXPECT_NE(lines[0].find(" memo_hits=1 "), std::string::npos) << lines[0];
  EXPECT_EQ(answered(session.counters(), LookupSource::kMemo), 1u);
  // Both answers name the same class.
  EXPECT_EQ(first[0].class_id, second[0].class_id);
  EXPECT_EQ(store.num_canonicalizations(), 1u) << "the memo hit must not re-canonicalize";
}

}  // namespace
}  // namespace facet
