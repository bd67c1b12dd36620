/// End-to-end tests of the socket serving subsystem: >= 8 concurrent
/// clients over TCP and Unix-domain sockets sharing one router, with class
/// ids bit-identical to the BatchEngine; background compaction collapsing
/// delta runs under live traffic; capacity rejection; readonly fan-out; and
/// graceful shutdown losing zero appends.

#include "facet/net/server.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "facet/engine/batch_engine.hpp"
#include "facet/net/frame.hpp"
#include "facet/net/socket.hpp"
#include "facet/npn/transform.hpp"
#include "facet/store/store_builder.hpp"
#include "facet/tt/tt_generate.hpp"
#include "facet/tt/tt_transform.hpp"

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

/// Sends each request frame in turn over `socket`, then quit, and returns
/// every response read (quit's last); stops early if the server closes.
std::vector<FrameResponse> exchange(const Socket& socket, std::vector<std::string> requests)
{
  requests.push_back(encode_control_request(FrameVerb::kQuit));
  std::vector<FrameResponse> responses;
  for (const std::string& request : requests) {
    std::optional<FrameResponse> response = frame_round_trip(socket, request);
    if (!response.has_value()) {
      break;
    }
    responses.push_back(std::move(*response));
  }
  return responses;
}

/// The class ids of an ok lookup/append response, -1 per miss record;
/// empty for an err response.
std::vector<long> ids_of(const FrameResponse& response)
{
  std::vector<long> ids;
  if (response.status() != FrameStatus::kOk) {
    return ids;
  }
  for (const FrameRecord& record : decode_records(response.payload).value_or(
           std::vector<FrameRecord>{})) {
    ids.push_back(record.class_id == kFrameMissClassId ? -1 : static_cast<long>(record.class_id));
  }
  return ids;
}

/// Whether `response` is the ok answer to quit.
bool is_bye(const FrameResponse& response)
{
  return response.header.verb == static_cast<std::uint8_t>(FrameVerb::kQuit) &&
         response.status() == FrameStatus::kOk && response.payload.size() == 8;
}

std::string lookup_frame(const std::vector<TruthTable>& funcs)
{
  return encode_batch_request(FrameVerb::kLookup, funcs.front().num_vars(), funcs);
}

std::string append_frame(const std::vector<TruthTable>& funcs)
{
  return encode_batch_request(FrameVerb::kAppend, funcs.front().num_vars(), funcs);
}

TEST(NetServer, EightConcurrentClientsMatchBatchEngineBitIdentically)
{
  if (!net_supported()) {
    GTEST_SKIP() << "no sockets on this platform";
  }
  // One store per width, built from the same datasets the BatchEngine
  // classifies — store lookups must answer the engine's exact class ids.
  const auto funcs4 = random_funcs(4, 60, 0x4e01ULL);
  const auto funcs5 = random_funcs(5, 80, 0x4e02ULL);
  const ClassificationResult expected4 = classify_batch(funcs4, ClassifierKind::kExhaustive, {});
  const ClassificationResult expected5 = classify_batch(funcs5, ClassifierKind::kExhaustive, {});

  const std::string path4 = ::testing::TempDir() + "net_server_4.fcs";
  const std::string path5 = ::testing::TempDir() + "net_server_5.fcs";
  build_class_store(funcs4, {}).save(path4);
  build_class_store(funcs5, {}).save(path5);
  std::remove(ClassStore::delta_log_path(path4).c_str());
  std::remove(ClassStore::delta_log_path(path5).c_str());

  StoreRouter router = StoreRouter::open({path4, path5});
  const std::string unix_path = ::testing::TempDir() + "net_server_test.sock";
  ServeServerOptions options;
  options.listen = "127.0.0.1:0";
  options.unix_path = unix_path;
  ServeServer server{router, {{4, path4}, {5, path5}}, options};
  server.start();
  ASSERT_NE(server.tcp_port(), 0);

  // Every client queries the full mixed-width set — originals and one NPN
  // image of each (the image must land in the same class) — in batches of
  // one width per frame, half the fleet over TCP, half over the Unix
  // socket.
  struct Query {
    TruthTable func;
    std::uint32_t expected_id;
  };
  std::vector<std::vector<Query>> queries_by_width(2);
  std::mt19937_64 rng{0x4e03ULL};
  for (std::size_t i = 0; i < funcs4.size(); ++i) {
    queries_by_width[0].push_back({funcs4[i], expected4.class_of[i]});
    queries_by_width[0].push_back(
        {apply_transform(funcs4[i], NpnTransform::random(4, rng)), expected4.class_of[i]});
  }
  for (std::size_t i = 0; i < funcs5.size(); ++i) {
    queries_by_width[1].push_back({funcs5[i], expected5.class_of[i]});
    queries_by_width[1].push_back(
        {apply_transform(funcs5[i], NpnTransform::random(5, rng)), expected5.class_of[i]});
  }

  const std::size_t num_clients = 8;
  std::atomic<std::size_t> mismatches{0};
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < num_clients; ++c) {
    clients.emplace_back([&, c] {
      // Each client walks every width's queries from its own offset,
      // batched.
      std::vector<std::string> requests;
      std::vector<std::vector<std::uint32_t>> expected_ids;
      const std::size_t batch = 25;
      for (const auto& queries : queries_by_width) {
        for (std::size_t start = 0; start < queries.size(); start += batch) {
          std::vector<TruthTable> funcs;
          expected_ids.emplace_back();
          for (std::size_t k = start; k < std::min(start + batch, queries.size()); ++k) {
            const Query& q = queries[(k + c * 37) % queries.size()];
            funcs.push_back(q.func);
            expected_ids.back().push_back(q.expected_id);
          }
          requests.push_back(lookup_frame(funcs));
        }
      }
      const Socket socket = c % 2 == 0 ? connect_tcp({"127.0.0.1", server.tcp_port()})
                                       : connect_unix(unix_path);
      const std::vector<FrameResponse> responses = exchange(socket, requests);
      if (responses.size() != expected_ids.size() + 1 || !is_bye(responses.back())) {
        ++mismatches;
        return;
      }
      for (std::size_t r = 0; r < expected_ids.size(); ++r) {
        const std::vector<long> ids = ids_of(responses[r]);
        if (ids.size() != expected_ids[r].size()) {
          ++mismatches;
          continue;
        }
        for (std::size_t i = 0; i < ids.size(); ++i) {
          if (ids[i] != static_cast<long>(expected_ids[r][i])) {
            ++mismatches;
          }
        }
      }
    });
  }
  for (auto& client : clients) {
    client.join();
  }
  EXPECT_EQ(mismatches.load(), 0u);
  EXPECT_EQ(server.stats().errors.load(), 0u);
  EXPECT_EQ(server.stats().connections_total.load(), num_clients);

  server.request_shutdown();
  server.wait();
  std::remove(path4.c_str());
  std::remove(path5.c_str());
}

TEST(NetServer, BackgroundCompactionCollapsesRunsUnderLiveTraffic)
{
  if (!net_supported()) {
    GTEST_SKIP() << "no sockets on this platform";
  }
  const int n = 5;
  const auto base_funcs = random_funcs(n, 40, 0x4e10ULL);
  const std::string path = ::testing::TempDir() + "net_server_compact.fcs";
  build_class_store(base_funcs, {}).save(path);
  std::remove(ClassStore::delta_log_path(path).c_str());

  ClassStore store = ClassStore::open(path);
  const std::size_t base_records = store.num_records();

  ServeServerOptions options;
  options.listen = "127.0.0.1:0";
  options.compact_after_runs = 1;  // collapse every sealed run immediately
  options.compact_poll = std::chrono::milliseconds{5};
  ServeServer server{store, path, options};
  server.start();

  // Novel classes to append, split across sequential append sessions (each
  // session's exit flush seals one delta run for the compactor)...
  std::vector<TruthTable> novel;
  {
    std::mt19937_64 rng{0x4e11ULL};
    ClassStore probe = ClassStore::open(path);
    while (novel.size() < 12) {
      const TruthTable f = tt_random(n, rng);
      if (!probe.lookup(f).has_value()) {
        novel.push_back(f);
      }
    }
  }

  // ...while a reader hammers known lookups through the compaction swaps.
  std::atomic<bool> stop_reader{false};
  std::atomic<std::size_t> reader_errors{0};
  std::thread reader{[&] {
    const std::vector<TruthTable> known(base_funcs.begin(), base_funcs.begin() + 10);
    while (!stop_reader.load()) {
      const auto responses =
          exchange(connect_tcp({"127.0.0.1", server.tcp_port()}), {lookup_frame(known)});
      const std::vector<long> ids = responses.empty() ? std::vector<long>{} : ids_of(responses[0]);
      if (ids.size() != known.size()) {
        ++reader_errors;
      }
      for (const long id : ids) {
        if (id < 0) {
          ++reader_errors;
        }
      }
    }
  }};

  std::vector<long> appended_ids;
  for (std::size_t start = 0; start < novel.size(); start += 3) {
    const std::vector<TruthTable> chunk(novel.begin() + static_cast<std::ptrdiff_t>(start),
                                        novel.begin() + static_cast<std::ptrdiff_t>(
                                                            std::min(start + 3, novel.size())));
    const auto responses =
        exchange(connect_tcp({"127.0.0.1", server.tcp_port()}), {append_frame(chunk)});
    ASSERT_EQ(responses.size(), 2u);
    const std::vector<long> ids = ids_of(responses[0]);
    ASSERT_EQ(ids.size(), chunk.size()) << responses[0].payload;
    for (const long id : ids) {
      ASSERT_GE(id, 0);
      appended_ids.push_back(id);
    }
    EXPECT_TRUE(is_bye(responses.back()));
  }

  // The compactor runs on a 5ms poll with a 1-run threshold: wait for it to
  // fold the sealed runs into the base.
  for (int spin = 0; spin < 400 && server.stats().compactions.load() == 0; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds{5});
  }
  stop_reader.store(true);
  reader.join();
  EXPECT_GE(server.stats().compactions.load(), 1u) << "no compaction was observed";
  EXPECT_EQ(reader_errors.load(), 0u) << "readers failed during compaction swaps";

  server.request_shutdown();
  server.wait();
  const auto log = server.compaction_log();
  ASSERT_FALSE(log.empty());
  EXPECT_EQ(log.front().width, n);
  EXPECT_GE(log.front().runs, 1u);

  // Zero lost appends: a cold open of the swapped files answers every
  // appended class from the persisted index, under the id the live server
  // handed out.
  ClassStore reopened = ClassStore::open(path);
  EXPECT_GE(reopened.base_segment().size(), base_records + 1) << "the base never grew";
  for (std::size_t i = 0; i < novel.size(); ++i) {
    const auto result = reopened.lookup(novel[i]);
    ASSERT_TRUE(result.has_value()) << "append " << i << " was lost";
    EXPECT_TRUE(result->known);
    EXPECT_EQ(static_cast<long>(result->class_id), appended_ids[i]);
  }
  std::remove(path.c_str());
  std::remove(ClassStore::delta_log_path(path).c_str());
}

TEST(NetServer, ReadonlyServerRejectsAppendsAndServesConcurrentReaders)
{
  if (!net_supported()) {
    GTEST_SKIP() << "no sockets on this platform";
  }
  const int n = 4;
  const auto funcs = random_funcs(n, 30, 0x4e20ULL);
  const std::string path = ::testing::TempDir() + "net_server_ro.fcs";
  build_class_store(funcs, {}).save(path);
  std::remove(ClassStore::delta_log_path(path).c_str());
  ClassStore store = ClassStore::open(path);

  TruthTable novel{n};
  {
    std::mt19937_64 rng{0x4e21ULL};
    do {
      novel = tt_random(n, rng);
    } while (store.lookup(novel).has_value());
    store.clear_hot_cache();
  }

  ServeServerOptions options;
  options.listen = "127.0.0.1:0";
  options.readonly = true;
  ServeServer server{store, path, options};
  server.start();

  std::vector<std::thread> clients;
  std::atomic<std::size_t> failures{0};
  for (std::size_t c = 0; c < 8; ++c) {
    clients.emplace_back([&] {
      // A hit, a miss record (never classified), and a refused append.
      const auto responses = exchange(connect_tcp({"127.0.0.1", server.tcp_port()}),
                                      {lookup_frame({funcs[0], novel}), append_frame({novel})});
      if (responses.size() != 3) {
        ++failures;
        return;
      }
      const std::vector<long> ids = ids_of(responses[0]);
      if (ids.size() != 2 || ids[0] < 0 || ids[1] != -1 ||
          responses[1].status() != FrameStatus::kReadonly || !is_bye(responses[2])) {
        ++failures;
      }
    });
  }
  for (auto& client : clients) {
    client.join();
  }
  EXPECT_EQ(failures.load(), 0u);

  server.request_shutdown();
  server.wait();
  EXPECT_EQ(store.num_appended(), 0u);
  EXPECT_EQ(ClassStore::delta_log_size(ClassStore::delta_log_path(path)), 0u)
      << "a readonly server must never write a delta log";
  std::remove(path.c_str());
}

TEST(NetServer, IdleTimeoutDisconnectsAndFlushesLikeCleanExit)
{
  if (!net_supported()) {
    GTEST_SKIP() << "no sockets on this platform";
  }
  const int n = 4;
  const std::string path = ::testing::TempDir() + "net_server_idle.fcs";
  const std::string dlog = ClassStore::delta_log_path(path);
  build_class_store(random_funcs(n, 20, 0x4e40ULL), {}).save(path);
  std::remove(dlog.c_str());
  ClassStore store = ClassStore::open(path);

  TruthTable novel{n};
  {
    std::mt19937_64 rng{0x4e41ULL};
    do {
      novel = tt_random(n, rng);
    } while (store.lookup(novel).has_value());
  }

  ServeServerOptions options;
  options.listen = "127.0.0.1:0";
  options.idle_timeout = std::chrono::milliseconds{100};
  ServeServer server{store, path, options};
  server.start();

  // Append one class, then go silent: the server must cut the connection
  // (EOF on our read) and the session-exit flush must make the append
  // durable — an idle client neither pins its slot nor loses work.
  const Socket socket = connect_tcp({"127.0.0.1", server.tcp_port()});
  const auto appended = frame_round_trip(socket, append_frame({novel}));
  ASSERT_TRUE(appended.has_value());
  const std::vector<long> ids = ids_of(*appended);
  ASSERT_EQ(ids.size(), 1u);
  EXPECT_GE(ids[0], 0);
  EXPECT_FALSE(frame_round_trip(socket, "").has_value()) << "the idle connection was not cut";

  for (int spin = 0; spin < 200 && server.stats().connections_active.load() != 0; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds{5});
  }
  EXPECT_EQ(server.stats().connections_active.load(), 0u);
  server.request_shutdown();
  server.wait();

  ClassStore reopened = ClassStore::open(path);
  const auto replayed = reopened.lookup(novel);
  ASSERT_TRUE(replayed.has_value()) << "the idle session's append was lost";
  EXPECT_TRUE(replayed->known);
  std::remove(path.c_str());
  std::remove(dlog.c_str());
}

TEST(NetServer, ShutdownDrainsLiveConnectionsWhileOthersExitConcurrently)
{
  if (!net_supported()) {
    GTEST_SKIP() << "no sockets on this platform";
  }
  // Regression: wait()'s drain used to join the front connection with the
  // connections lock released and then pop_front() — a handler exiting in
  // that window could reap the joined entry, so the pop destroyed a
  // different, still-running connection (std::terminate on its joinable
  // thread, use-after-free of the handler's iterator). Hold several
  // connections open across the shutdown while others quit concurrently,
  // so the drain overlaps handler exits.
  const auto funcs = random_funcs(4, 20, 0x4e50ULL);
  const std::string path = ::testing::TempDir() + "net_server_drain.fcs";
  build_class_store(funcs, {}).save(path);
  ClassStore store = ClassStore::open(path);

  ServeServerOptions options;
  options.listen = "127.0.0.1:0";
  ServeServer server{store, path, options};
  server.start();

  // Lingerers connect, get one answer, then sit in a blocking read until
  // the drain cuts them (EOF) — they are the live connections at shutdown.
  const std::size_t num_lingerers = 6;
  std::atomic<std::size_t> lingering{0};
  std::vector<std::thread> lingerers;
  for (std::size_t c = 0; c < num_lingerers; ++c) {
    lingerers.emplace_back([&] {
      const Socket socket = connect_tcp({"127.0.0.1", server.tcp_port()});
      if (!frame_round_trip(socket, lookup_frame({funcs[0]})).has_value()) {
        return;
      }
      ++lingering;
      while (frame_round_trip(socket, "").has_value()) {
        // drain: the server shuts the socket down, the read sees EOF
      }
    });
  }
  // Churners open and quit short sessions straight through the shutdown,
  // so handler exits (and their reaps) race the drain loop.
  std::atomic<bool> stop_churn{false};
  std::vector<std::thread> churners;
  for (std::size_t c = 0; c < 4; ++c) {
    churners.emplace_back([&] {
      while (!stop_churn.load()) {
        try {
          exchange(connect_tcp({"127.0.0.1", server.tcp_port()}), {lookup_frame({funcs[1]})});
        } catch (const NetError&) {
          return;  // listener already closed by the shutdown
        }
      }
    });
  }

  for (int spin = 0; spin < 400 && lingering.load() < num_lingerers; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds{5});
  }
  // Assertions wait until every client thread is joined: an early return
  // with joinable std::threads would escalate to std::terminate and eat
  // the real failure diagnostic.
  const std::size_t lingered = lingering.load();
  server.request_shutdown();
  server.wait();  // must join every connection exactly once, no terminate
  stop_churn.store(true);
  for (auto& t : lingerers) {
    t.join();
  }
  for (auto& t : churners) {
    t.join();
  }
  EXPECT_EQ(lingered, num_lingerers);
  EXPECT_EQ(server.stats().connections_active.load(), 0u);
  EXPECT_GE(server.stats().connections_total.load(), num_lingerers);
  std::remove(path.c_str());
}

/// The per-width striping contract end to end: a fleet hammers width-4
/// reads while width-5 traffic appends, flushes (session exits) and
/// compacts (1-run-threshold background compactor) through the router —
/// reader answers stay bit-identical to the BatchEngine throughout, and the
/// SIGTERM-style drain (request_shutdown + wait, the exact path the CLI's
/// signal handler takes) loses zero width-5 appends.
TEST(NetServer, MixedWidthReadersStayBitIdenticalWhileAnotherWidthAppendsAndCompacts)
{
  if (!net_supported()) {
    GTEST_SKIP() << "no sockets on this platform";
  }
  const auto funcs4 = random_funcs(4, 50, 0x4e60ULL);
  const ClassificationResult expected4 = classify_batch(funcs4, ClassifierKind::kExhaustive, {});
  const auto funcs5 = random_funcs(5, 30, 0x4e61ULL);

  const std::string path4 = ::testing::TempDir() + "net_server_mix4.fcs";
  const std::string path5 = ::testing::TempDir() + "net_server_mix5.fcs";
  build_class_store(funcs4, {}).save(path4);
  build_class_store(funcs5, {}).save(path5);
  std::remove(ClassStore::delta_log_path(path4).c_str());
  std::remove(ClassStore::delta_log_path(path5).c_str());

  // Novel width-5 classes, found against a throwaway probe store.
  std::vector<TruthTable> novel5;
  {
    ClassStore probe = ClassStore::open(path5);
    std::mt19937_64 rng{0x4e62ULL};
    while (novel5.size() < 10) {
      const TruthTable f = tt_random(5, rng);
      if (!probe.lookup(f).has_value()) {
        novel5.push_back(f);
      }
    }
  }

  StoreRouter router = StoreRouter::open({path4, path5});
  const std::size_t base5_records = router.store_for(5)->num_records();
  ServeServerOptions options;
  options.listen = "127.0.0.1:0";
  options.compact_after_runs = 1;
  options.compact_poll = std::chrono::milliseconds{5};
  ServeServer server{router, {{4, path4}, {5, path5}}, options};
  server.start();

  // Width-4 readers: lookup frames of originals + NPN images, checked
  // against the engine's exact ids, looping until the appenders finish.
  std::atomic<bool> stop_readers{false};
  std::atomic<std::size_t> reader_mismatches{0};
  std::vector<std::thread> readers;
  std::mt19937_64 image_rng{0x4e63ULL};
  std::vector<TruthTable> read_funcs;
  std::vector<long> read_ids;
  for (std::size_t i = 0; i < funcs4.size(); ++i) {
    read_funcs.push_back(funcs4[i]);
    read_funcs.push_back(apply_transform(funcs4[i], NpnTransform::random(4, image_rng)));
    read_ids.insert(read_ids.end(), 2, static_cast<long>(expected4.class_of[i]));
  }
  const std::string read_frame = lookup_frame(read_funcs);
  for (std::size_t t = 0; t < 4; ++t) {
    readers.emplace_back([&] {
      while (!stop_readers.load()) {
        const auto responses =
            exchange(connect_tcp({"127.0.0.1", server.tcp_port()}), {read_frame});
        if (responses.size() != 2 || ids_of(responses[0]) != read_ids) {
          ++reader_mismatches;
        }
      }
    });
  }

  // Width-5 appenders: short sequential sessions so each exit flush seals a
  // run and the 1-run compactor folds width 5 under the readers' feet.
  std::vector<long> appended_ids;
  for (std::size_t start = 0; start < novel5.size(); start += 2) {
    const std::vector<TruthTable> chunk(novel5.begin() + static_cast<std::ptrdiff_t>(start),
                                        novel5.begin() + static_cast<std::ptrdiff_t>(
                                                             std::min(start + 2, novel5.size())));
    const auto responses =
        exchange(connect_tcp({"127.0.0.1", server.tcp_port()}), {append_frame(chunk)});
    ASSERT_EQ(responses.size(), 2u);
    const std::vector<long> ids = ids_of(responses[0]);
    ASSERT_EQ(ids.size(), chunk.size()) << responses[0].payload;
    for (const long id : ids) {
      ASSERT_GE(id, 0);
      appended_ids.push_back(id);
    }
    EXPECT_TRUE(is_bye(responses.back()));
  }
  for (int spin = 0; spin < 400 && server.stats().compactions.load() == 0; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds{5});
  }
  stop_readers.store(true);
  for (auto& reader : readers) {
    reader.join();
  }
  EXPECT_EQ(reader_mismatches.load(), 0u)
      << "width-4 readers diverged while width 5 mutated";
  EXPECT_GE(server.stats().compactions.load(), 1u);

  server.request_shutdown();
  server.wait();

  // Every compaction hit width 5 — width 4 had nothing to fold.
  for (const auto& event : server.compaction_log()) {
    EXPECT_EQ(event.width, 5);
  }

  // Zero lost appends across the drain: a cold reopen answers every novel
  // width-5 class from the persisted tiers under its served id, and the
  // width-4 store is untouched.
  StoreRouter reopened = StoreRouter::open({path4, path5});
  EXPECT_GE(reopened.store_for(5)->num_records(), base5_records + 1);
  for (std::size_t i = 0; i < novel5.size(); ++i) {
    const auto result = reopened.lookup(novel5[i]);
    ASSERT_TRUE(result.has_value()) << "width-5 append " << i << " was lost in the drain";
    EXPECT_TRUE(result->known);
    EXPECT_EQ(static_cast<long>(result->class_id), appended_ids[i]);
  }
  for (std::size_t i = 0; i < funcs4.size(); ++i) {
    const auto result = reopened.lookup(funcs4[i]);
    ASSERT_TRUE(result.has_value());
    EXPECT_EQ(result->class_id, expected4.class_of[i]);
  }
  for (const auto& path : {path4, path5}) {
    std::remove(path.c_str());
    std::remove(ClassStore::delta_log_path(path).c_str());
  }
}

TEST(NetServer, CapacityOverflowAnswersErrAndCloses)
{
  if (!net_supported()) {
    GTEST_SKIP() << "no sockets on this platform";
  }
  const auto funcs = random_funcs(3, 10, 0x4e30ULL);
  const std::string path = ::testing::TempDir() + "net_server_cap.fcs";
  build_class_store(funcs, {}).save(path);
  ClassStore store = ClassStore::open(path);

  ServeServerOptions options;
  options.listen = "127.0.0.1:0";
  options.max_connections = 1;
  ServeServer server{store, path, options};
  server.start();

  // Hold one connection open, then connect again: the second must be
  // answered one at_capacity err frame naming the limit, then closed.
  const Socket first = connect_tcp({"127.0.0.1", server.tcp_port()});
  ASSERT_TRUE(frame_round_trip(first, encode_control_request(FrameVerb::kStats)).has_value());

  const Socket second = connect_tcp({"127.0.0.1", server.tcp_port()});
  const auto rejected = frame_round_trip(second, "");
  ASSERT_TRUE(rejected.has_value()) << "no err frame before the close";
  EXPECT_EQ(rejected->status(), FrameStatus::kAtCapacity);
  EXPECT_NE(rejected->payload.find("capacity (1 connections)"), std::string::npos)
      << rejected->payload;
  EXPECT_FALSE(frame_round_trip(second, "").has_value()) << "the rejected connection stayed open";

  const auto bye = frame_round_trip(first, encode_control_request(FrameVerb::kQuit));
  ASSERT_TRUE(bye.has_value());
  EXPECT_TRUE(is_bye(*bye));
  server.request_shutdown();
  server.wait();
  std::remove(path.c_str());
}

}  // namespace
}  // namespace facet
