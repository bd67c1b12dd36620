/// cut_stream: the reads a LUT mapper sends.
///
/// Every (node, cut) of a mapper-style cut enumeration (k = 6, small cuts
/// first, dominated cuts removed, 8 cuts per node) over the synthetic
/// circuit suite plus seeded random control logic, not deduplicated, so
/// the stream repeats functions the way a mapper does. A readonly server
/// with 2 workers serves one mmap-opened store per width behind a
/// StoreRouter; 2 clients send lookup frames of up to 64 same-width
/// operands in stream order. The working set fits in the hot cache and the
/// NPN4 table answers every width <= 4 operand, so the socket, the frame
/// codec and the dispatcher dominate while the canonicalizer stays idle.

#include <array>
#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <numeric>
#include <random>
#include <set>
#include <stdexcept>
#include <thread>
#include <unordered_map>
#include <unordered_set>

#include "facet/facet.hpp"
#include "harness.hpp"

namespace perfbench {

using namespace facet;

namespace {

constexpr std::size_t kClients = 2;
constexpr std::size_t kWorkers = 2;
constexpr std::size_t kFrameOps = 64;
constexpr std::size_t kSetupsPerCpu = 7;
constexpr double kIntervalSeconds = 1.0;


volatile std::uint64_t g_sink = 0;

std::vector<TruthTable> make_cut_stream(std::uint64_t seed, bool smoke)
{
  std::vector<Aig> circuits;
  if (smoke) {
    circuits.push_back(make_adder(8));
    circuits.push_back(make_voter(7));
  } else {
    circuits.push_back(make_adder(16));
    circuits.push_back(make_adder(24));
    circuits.push_back(make_multiplier(6));
    circuits.push_back(make_multiplier(8));
    circuits.push_back(make_barrel_shifter(16));
    circuits.push_back(make_barrel_shifter(32));
    circuits.push_back(make_max(8));
    circuits.push_back(make_max(12));
    circuits.push_back(make_voter(13));
    circuits.push_back(make_voter(15));
    circuits.push_back(make_popcount(14));
    circuits.push_back(make_decoder(5));
    circuits.push_back(make_priority(12));
    circuits.push_back(make_priority(16));
    circuits.push_back(make_parity(12));
    circuits.push_back(make_mux_tree(3));
    circuits.push_back(make_mux_tree(4));
    circuits.push_back(make_alu(6));
    circuits.push_back(make_alu(8));
  }
  std::mt19937_64 rng{seed};
  for (int i = 0; i < (smoke ? 1 : 4); ++i) {
    circuits.push_back(make_random_control(12 + 2 * i, 160 + 120 * i, rng()));
  }

  CutEnumOptions options;
  options.cut_size = 6;
  options.max_cuts_per_node = 8;
  options.remove_dominated = true;
  options.prefer_large_cuts = false;
  std::vector<TruthTable> stream;
  for (const Aig& aig : circuits) {
    const auto cuts = enumerate_cuts(aig, options);
    for (Aig::Node node = 0; node < cuts.size(); ++node) {
      if (!aig.is_and(node)) {
        continue;
      }
      for (const Cut& cut : cuts[node]) {
        const int width = static_cast<int>(cut.leaves.size());
        if (width >= 2) {
          stream.push_back(cut_function(aig, node, cut, width));
        }
      }
    }
  }
  return stream;
}

struct Frame {
  int width = 0;
  std::vector<TruthTable> ops;
  std::vector<std::uint32_t> expected;
  std::string request;
};

/// One build thread: the set-up figure then does not depend on how a
/// worker pool balances the heavy-tailed canonicalizations of wide cuts.
StoreBuildOptions build_options()
{
  StoreBuildOptions options;
  options.num_threads = 1;
  return options;
}

/// The served system: routed stores plus the server holding them.
/// Declaration order makes the server shut down before the router goes.
struct CutServer {
  std::unique_ptr<StoreRouter> router;
  std::unique_ptr<ServeServer> server;
};

std::unique_ptr<CutServer> start_cut_server(const std::map<int, std::vector<TruthTable>>& distinct,
                                            const std::string& dir)
{
  auto served = std::make_unique<CutServer>();
  std::map<int, std::string> paths;
  std::vector<std::string> path_list;
  for (const auto& [width, funcs] : distinct) {
    const std::string path = dir + "/cut_stream_w" + std::to_string(width) + ".fcs";
    build_class_store(funcs, build_options()).save(path);
    paths[width] = path;
    path_list.push_back(path);
  }
  StoreOpenOptions open_options;
  open_options.use_mmap = true;
  served->router = std::make_unique<StoreRouter>(StoreRouter::open(path_list, open_options));
  ServeServerOptions options;
  options.listen = "127.0.0.1:0";
  options.readonly = true;
  options.workers = kWorkers;
  options.max_connections = 2 * kClients + 2;
  served->server = std::make_unique<ServeServer>(*served->router, paths, options);
  served->server->start();
  return served;
}

/// One client's view of a run: its round trips go to the histogram of the
/// interval they fall in.
struct Tally {
  alignas(64) std::atomic<std::uint64_t> answered{0};
  std::uint64_t ops = 0;
  std::uint64_t failed = 0;
  std::uint64_t frames = 0;
  std::array<std::uint64_t, 6> src{};
  std::vector<LatencyHistogram> latency;
  std::vector<Span> spans;
  std::set<std::pair<int, std::uint32_t>> classes;
};

/// Sends `frame` and checks every record against the oracle. The round
/// trip goes to `tally.latency[interval]` when that interval exists.
void send_frame(V2Client& client, const Frame& frame, std::uint64_t request, bool trace,
                bool collect_classes, std::size_t interval, Tally& tally)
{
  FrameHeader header;
  std::string payload;
  const std::uint64_t t0 = now_ns();
  const bool ok = client.round_trip(frame.request, header, payload);
  const std::uint64_t t1 = now_ns();
  const std::size_t n = frame.ops.size();
  tally.ops += n;
  ++tally.frames;
  if (!ok || header.aux != static_cast<std::uint8_t>(FrameStatus::kOk) ||
      payload.size() != 4 + 8 * n ||
      read_u32(reinterpret_cast<const unsigned char*>(payload.data())) != n) {
    tally.failed += n;
    if (!ok) {
      throw std::runtime_error{"cut_stream: connection lost"};
    }
    return;
  }
  std::uint64_t good = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint8_t src = record_src(payload, i);
    const std::uint32_t id = record_class_id(payload, i);
    ++tally.src[std::min<std::size_t>(src, 5)];
    if (src == static_cast<std::uint8_t>(FrameSrc::kMiss) || id != frame.expected[i]) {
      ++tally.failed;
    } else {
      ++good;
    }
    if (collect_classes) {
      tally.classes.emplace(frame.width, id);
    }
  }
  if (trace) {
    tally.spans.push_back({"socket", t0, t1, request});
  } else if (interval < tally.latency.size()) {
    tally.latency[interval].add(t1 - t0);
  }
  tally.answered.fetch_add(good, std::memory_order_relaxed);
}

/// Operands answered, wall time and the machine's steal share per interval
/// of a window.
struct Window {
  std::vector<double> answered;
  std::vector<double> wall_s;
  std::vector<double> steal;
};

/// Closed loop: each client walks the frame list from its own offset,
/// waiting for every reply, until the window closes. The window runs in
/// intervals of `interval_s`: `warmup` intervals, then at least
/// `min_intervals` more, and on until `want_clean` of those ran with a
/// steal share within kMaxStealShare or `max_intervals` of them passed.
/// The main thread samples the answered-operand counters at each boundary
/// and announces it; each client files its round trips under the interval
/// in which they started (frames that finish after the last boundary are
/// not timed).
Window run_window(std::uint16_t port, const std::vector<Frame>& frames, double interval_s,
                  std::size_t warmup, std::size_t min_intervals, std::size_t max_intervals,
                  std::size_t want_clean, bool trace, std::vector<std::unique_ptr<Tally>>& tallies)
{
  std::atomic<bool> stop{false};
  std::atomic<std::size_t> interval{0};
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      Tally& tally = *tallies[c];
      try {
        V2Client client{port};
        std::size_t f = c * frames.size() / kClients;
        while (!stop.load(std::memory_order_relaxed)) {
          send_frame(client, frames[f], f, trace, false, interval.load(std::memory_order_relaxed),
                     tally);
          f = (f + 1) % frames.size();
        }
        FrameHeader header;
        std::string payload;
        if (!client.round_trip(encode_control_request(FrameVerb::kQuit), header, payload)) {
          ++tally.failed;
        }
      } catch (const std::exception&) {
        ++tally.failed;
      }
    });
  }
  const auto total = [&] {
    std::uint64_t sum = 0;
    for (const auto& tally : tallies) {
      sum += tally->answered.load(std::memory_order_relaxed);
    }
    return sum;
  };
  Window window;
  const std::uint64_t start = now_ns();
  std::uint64_t last_ns = start;
  std::uint64_t last = total();
  CpuTicks last_ticks = cpu_ticks();
  std::size_t clean = 0;
  for (std::size_t i = 1; i <= warmup + max_intervals; ++i) {
    const auto boundary = start + static_cast<std::uint64_t>(static_cast<double>(i) * interval_s * 1e9);
    const std::uint64_t before = now_ns();
    if (boundary > before) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(boundary - before));
    }
    const std::uint64_t count = total();
    const std::uint64_t at = now_ns();
    const CpuTicks ticks = cpu_ticks();
    interval.store(i, std::memory_order_relaxed);
    window.answered.push_back(static_cast<double>(count - last));
    window.wall_s.push_back(static_cast<double>(at - last_ns) * 1e-9);
    window.steal.push_back(steal_share(last_ticks, ticks));
    clean += i > warmup && window.steal.back() <= kMaxStealShare ? 1 : 0;
    last = count;
    last_ns = at;
    last_ticks = ticks;
    if (i >= warmup + min_intervals && clean >= want_clean) {
      break;
    }
  }
  stop = true;
  for (auto& client : clients) {
    client.join();
  }
  return window;
}

/// The socket-side per-layer metrics: from the ladder rows (socket, frame,
/// dispatch, store, npn) `store.dispatch_ns`, `net.frame_ns` and
/// `net.socket_us` (per frame of `ops_per_frame`), and from the response
/// `src` bytes of the untraced window the `store.tier.*` shares.
void set_socket_layers(Report& report, const std::vector<LayerRow>& rows, double ops_per_frame,
                       const std::array<std::uint64_t, 6>& src)
{
  const double dispatch = span_per_op(rows, "dispatch");
  const double frame = span_per_op(rows, "frame");
  report.set("store.dispatch_ns", dispatch, "ns");
  report.set("net.frame_ns", frame - dispatch, "ns");
  report.set("net.socket_us", (span_per_op(rows, "socket") - frame) * ops_per_frame / 1e3, "us");
  double total = 0;
  for (const std::uint64_t count : src) {
    total += static_cast<double>(count);
  }
  static const char* const kTiers[] = {"table", "cache", "memo", "index", "live", "miss"};
  for (std::size_t s = 0; s < src.size(); ++s) {
    report.set(std::string{"store.tier."} + kTiers[s],
               total > 0 ? static_cast<double>(src[s]) / total : 0.0, "ratio");
  }
}

std::uint64_t total_canonicalizations(const StoreRouter& router, int max_width)
{
  std::uint64_t sum = 0;
  for (const int width : router.widths()) {
    if (width <= max_width) {
      sum += router.store_for(width)->num_canonicalizations();
    }
  }
  return sum;
}

}  // namespace

Report run_cut_stream(const Args& args)
{
  Report report;
  const std::vector<TruthTable> stream = make_cut_stream(args.seed, args.smoke);

  // Distinct functions per width, in stream order, and the oracle: the
  // per-width BatchEngine{kExhaustive} id of every distinct function.
  std::map<int, std::vector<TruthTable>> distinct;
  std::map<int, std::size_t> width_histogram;
  {
    std::unordered_set<TruthTable, TruthTableHash> seen;
    for (const TruthTable& f : stream) {
      ++width_histogram[f.num_vars()];
      if (seen.insert(f).second) {
        distinct[f.num_vars()].push_back(f);
      }
    }
  }
  std::unordered_map<TruthTable, std::uint32_t, TruthTableHash> oracle;
  std::size_t exact_classes = 0;
  std::size_t distinct_functions = 0;
  for (const auto& [width, funcs] : distinct) {
    BatchEngine engine{ClassifierKind::kExhaustive};
    const ClassificationResult result = engine.classify(funcs);
    for (std::size_t i = 0; i < funcs.size(); ++i) {
      oracle.emplace(funcs[i], result.class_of[i]);
    }
    exact_classes += classify_exact(funcs).num_classes;
    distinct_functions += funcs.size();
  }

  // Lookup frames: up to 64 same-width operands each, in stream order.
  std::vector<Frame> frames;
  {
    std::map<int, Frame> pending;
    const auto seal = [&](Frame& frame) {
      frame.request = encode_batch_request(FrameVerb::kLookup, frame.width, frame.ops);
      frames.push_back(std::move(frame));
      frame = Frame{};
    };
    for (const TruthTable& f : stream) {
      Frame& frame = pending[f.num_vars()];
      frame.width = f.num_vars();
      frame.ops.push_back(f);
      frame.expected.push_back(oracle.at(f));
      if (frame.ops.size() == kFrameOps) {
        seal(frame);
      }
    }
    for (auto& [width, frame] : pending) {
      if (!frame.ops.empty()) {
        seal(frame);
      }
    }
  }
  std::vector<std::size_t> ops_of;
  for (const Frame& frame : frames) {
    ops_of.push_back(frame.ops.size());
  }

  // Set-up, repeated: build, save and mmap-open one store per width, then
  // start the server.
  std::unique_ptr<CutServer> served;
  const double setup_s = timed_setups(
      args.smoke ? 1 : kSetupsPerCpu, [&] { served.reset(); },
      [&] { served = start_cut_server(distinct, args.work_dir); });
  const std::uint16_t port = served->server->tcp_port();
  StoreRouter& router = *served->router;

  // Warm-up: one pass over every frame fills the hot caches and checks
  // every distinct operand once.
  Tally warm;
  {
    V2Client client{port};
    for (std::size_t f = 0; f < frames.size(); ++f) {
      send_frame(client, frames[f], f, false, true, 0, warm);
    }
  }
  report.attempted += warm.ops;
  report.failed += warm.failed;

  auto& registry = obs::MetricRegistry::global();
  obs::Counter& busy_ns = registry.counter("facet_serve_worker_busy_ns");
  obs::Counter& tasks = registry.counter("facet_serve_worker_tasks");

  // An untraced run measures one window of --seconds in 1 s intervals,
  // after a first interval that only warms up, and goes on, up to twice
  // as long, until half that many intervals ran unstolen. A traced run
  // alternates untraced and traced windows (U T U T) of a quarter each, so
  // the tracing overhead compares like with like while the machine's speed
  // drifts.
  const std::size_t windows = args.trace ? 4 : 1;
  const double window_s = args.seconds / static_cast<double>(windows);
  const double interval_s = std::min(kIntervalSeconds, window_s);
  const auto min_intervals = static_cast<std::size_t>(std::max(1.0, std::round(window_s / interval_s)));
  const std::size_t warmup = args.trace ? 0 : 1;
  const std::size_t max_intervals = args.trace ? min_intervals : 2 * min_intervals;
  const std::size_t want_clean = args.trace ? 0 : (min_intervals + 1) / 2;
  const std::uint64_t canon_before = total_canonicalizations(router, kMaxVars);
  Window untraced;
  Window traced;
  std::vector<LatencyHistogram> latency(warmup + max_intervals);
  double busy_ns_sum = 0;
  double busy_wall_s = 0;
  std::uint64_t window_tasks = 0;
  std::uint64_t window_frames = 0;
  std::array<std::uint64_t, 6> src{};
  for (std::size_t w = 0; w < windows; ++w) {
    const bool trace = w % 2 == 1;
    std::vector<std::unique_ptr<Tally>> tallies;
    for (std::size_t c = 0; c < kClients; ++c) {
      tallies.push_back(std::make_unique<Tally>());
      tallies.back()->latency.resize(trace ? 0 : warmup + max_intervals);
    }
    const std::uint64_t busy_before = busy_ns.value();
    const std::uint64_t tasks_before = tasks.value();
    const Window window = run_window(port, frames, interval_s, warmup, min_intervals,
                                     max_intervals, want_clean, trace, tallies);
    for (const auto& tally : tallies) {
      report.attempted += tally->ops;
      report.failed += tally->failed;
    }
    Window& into = trace ? traced : untraced;
    const std::size_t offset = into.answered.size();
    into.answered.insert(into.answered.end(), window.answered.begin(), window.answered.end());
    into.wall_s.insert(into.wall_s.end(), window.wall_s.begin(), window.wall_s.end());
    into.steal.insert(into.steal.end(), window.steal.begin(), window.steal.end());
    if (trace) {
      for (const auto& tally : tallies) {
        report.spans.insert(report.spans.end(), tally->spans.begin(), tally->spans.end());
      }
      continue;
    }
    if (latency.size() < offset + window.answered.size()) {
      latency.resize(offset + window.answered.size());
    }
    for (std::size_t i = 0; i < window.answered.size(); ++i) {
      for (const auto& tally : tallies) {
        latency[offset + i].merge(tally->latency[i]);
      }
    }
    busy_ns_sum += static_cast<double>(busy_ns.value() - busy_before);
    for (const double wall : window.wall_s) {
      busy_wall_s += wall;
    }
    window_tasks += tasks.value() - tasks_before;
    for (const auto& tally : tallies) {
      window_frames += tally->frames;
      for (std::size_t s = 0; s < src.size(); ++s) {
        src[s] += tally->src[s];
      }
    }
  }

  // The figures of record cover the undisturbed intervals; the whole-run
  // figures go to the result file beside them.
  const auto rate_of = [](const Window& window, const std::vector<std::size_t>& chosen) {
    double answered = 0;
    double wall = 0;
    for (const std::size_t i : chosen) {
      answered += window.answered[i];
      wall += window.wall_s[i];
    }
    return wall > 0 ? answered / wall : 0.0;
  };
  const auto latency_of = [&](const std::vector<std::size_t>& chosen) {
    LatencyHistogram merged;
    for (const std::size_t i : chosen) {
      merged.merge(latency[i]);
    }
    return merged;
  };
  // The warm-up interval is never reported.
  const std::vector<double> measured_steal(untraced.steal.begin() + static_cast<std::ptrdiff_t>(warmup),
                                           untraced.steal.end());
  std::vector<std::size_t> chosen =
      undisturbed(measured_steal, args.trace ? (measured_steal.size() + 1) / 2 : want_clean);
  for (std::size_t& i : chosen) {
    i += warmup;
  }
  std::vector<std::size_t> every(measured_steal.size());
  std::iota(every.begin(), every.end(), warmup);
  const double ops_per_s = rate_of(untraced, chosen);
  const LatencyHistogram round_trips = latency_of(chosen);
  const LatencyHistogram all_round_trips = latency_of(every);

  report.add_shape("seed", std::to_string(args.seed));
  report.add_shape("operands", std::to_string(stream.size()));
  report.add_shape("width_histogram", json_histogram(width_histogram));
  report.add_shape("distinct_functions", std::to_string(distinct_functions));
  report.add_shape("distinct_classes", std::to_string(exact_classes));
  report.add_shape("frames", std::to_string(frames.size()));
  report.add_shape("clients", std::to_string(kClients));
  report.add_shape("workers", std::to_string(kWorkers));
  report.add_shape("threads", std::to_string(kClients));
  report.add_shape("nproc", std::to_string(nproc()));
  report.add_shape("hot_cache_capacity", std::to_string(ClassStoreOptions{}.hot_cache_capacity));
  report.add_shape("memo_capacity", std::to_string(ClassStoreOptions{}.semiclass_memo_capacity));
  report.add_shape("intervals", std::to_string(untraced.answered.size()));
  report.add_shape("intervals_reported", std::to_string(chosen.size()));
  report.add_shape("latency_samples", std::to_string(round_trips.count()));
  report.add_shape("whole_run_ops_per_s", json_number(rate_of(untraced, every)));
  report.add_shape("whole_run_p50_us", json_number(all_round_trips.quantile(0.50) / 1e3));
  report.add_shape("whole_run_p99_us", json_number(all_round_trips.quantile(0.99) / 1e3));
  report.add_shape("whole_run_latency_samples", std::to_string(all_round_trips.count()));
  {
    std::string steal = "[";
    std::string rate = "[";
    std::string p99 = "[";
    for (std::size_t i = 0; i < untraced.steal.size(); ++i) {
      steal += (i == 0 ? "" : ", ") + json_number(untraced.steal[i]);
      rate += (i == 0 ? "" : ", ") + json_number(untraced.answered[i] / untraced.wall_s[i]);
      p99 += (i == 0 ? "" : ", ") + json_number(latency[i].quantile(0.99) / 1e3);
    }
    report.add_shape("interval_steal_share", steal + "]");
    report.add_shape("interval_ops_per_s", rate + "]");
    report.add_shape("interval_p99_us", p99 + "]");
  }

  // Hard gates on exact counts.
  report.gate(total_canonicalizations(router, 4) == 0,
              "cut_stream canonicalized an operand of width <= 4");
  report.gate(src[static_cast<std::size_t>(FrameSrc::kLive)] == 0 &&
                  warm.src[static_cast<std::size_t>(FrameSrc::kLive)] == 0,
              "cut_stream answered an operand from the live tier");

  if (!args.trace) {
    report.set("ops_per_s", ops_per_s, "ops/s");
    report.set("request_p50_us", round_trips.quantile(0.50) / 1e3, "us");
    report.set("request_p99_us", round_trips.quantile(0.99) / 1e3, "us");
    report.set("setup_s", setup_s, "s");
    report.set("peak_rss_mib", peak_rss_mib(), "MiB");
    report.set("accuracy",
               warm.classes.empty() ? 0.0
                                    : static_cast<double>(exact_classes) /
                                          static_cast<double>(warm.classes.size()),
               "ratio");
    return report;
  }

  // ---- traced run: ladder replay ---------------------------------------------
  // The overhead compares undisturbed intervals; the per-operand time the
  // ladder rows must sum to covers every traced interval, as the spans do.
  const double traced_rate = rate_of(traced, undisturbed(traced.steal, (traced.steal.size() + 1) / 2));
  std::vector<std::size_t> every_traced(traced.answered.size());
  std::iota(every_traced.begin(), every_traced.end(), std::size_t{0});
  const double traced_all_rate = rate_of(traced, every_traced);
  const double traced_ns_per_op =
      traced_all_rate > 0 ? 1e9 * static_cast<double>(kClients) / traced_all_rate : 0.0;
  const std::uint64_t canonicalized = total_canonicalizations(router, kMaxVars) - canon_before;

  // Ladder replay, one layer at a time over every frame, in process and on
  // the same warm stores: FrameSession::consume -> lookup_binary ->
  // StoreRouter::lookup -> the npn call the store made for that operand.
  const int rounds = args.smoke ? 1 : 8;
  ServeOptions dispatch_options;
  dispatch_options.readonly = true;
  ServeDispatcher dispatcher{nullptr, &router, dispatch_options};
  std::vector<std::vector<std::uint8_t>> src_of(frames.size());
  {
    FrameSession session{&dispatcher};
    std::string in;
    std::string out;
    for (int round = 0; round < rounds; ++round) {
      for (std::size_t r = 0; r < frames.size(); ++r) {
        in = frames[r].request;
        out.clear();
        const std::uint64_t t0 = now_ns();
        (void)session.consume(in, out);
        const std::uint64_t t1 = now_ns();
        report.spans.push_back({"frame", t0, t1, r});
        if (round == 0) {
          const std::string payload =
              out.size() >= kFrameHeaderBytes ? out.substr(kFrameHeaderBytes) : std::string{};
          for (std::size_t i = 0; i < frames[r].ops.size(); ++i) {
            const bool ok = payload.size() == 4 + 8 * frames[r].ops.size() &&
                            record_class_id(payload, i) == frames[r].expected[i];
            report.failed += ok ? 0 : 1;
            src_of[r].push_back(ok ? record_src(payload, i)
                                   : static_cast<std::uint8_t>(FrameSrc::kMiss));
          }
          report.attempted += frames[r].ops.size();
        }
      }
    }
  }
  std::uint64_t sink = 0;
  for (int round = 0; round < rounds; ++round) {
    for (std::size_t r = 0; r < frames.size(); ++r) {
      ClassStore& store = *dispatcher.store_for_width(frames[r].width);
      const std::uint64_t t0 = now_ns();
      for (const TruthTable& f : frames[r].ops) {
        const auto result = dispatcher.lookup_binary(store, f, false);
        sink += result.has_value() ? result->class_id : 0;
      }
      report.spans.push_back({"dispatch", t0, now_ns(), r});
    }
  }
  for (int round = 0; round < rounds; ++round) {
    for (std::size_t r = 0; r < frames.size(); ++r) {
      const std::uint64_t t0 = now_ns();
      for (const TruthTable& f : frames[r].ops) {
        const auto result = router.lookup(f);
        sink += result.has_value() ? result->class_id : 0;
      }
      report.spans.push_back({"store", t0, now_ns(), r});
    }
  }
  for (int round = 0; round < rounds; ++round) {
    for (std::size_t r = 0; r < frames.size(); ++r) {
      const std::uint64_t t0 = now_ns();
      for (std::size_t i = 0; i < frames[r].ops.size(); ++i) {
        const auto src_byte = static_cast<FrameSrc>(src_of[r][i]);
        if (src_byte == FrameSrc::kTable) {
          sink += npn4_lookup(frames[r].ops[i]).class_index;
        } else if (src_byte == FrameSrc::kIndex || src_byte == FrameSrc::kLive) {
          sink += exact_npn_canonical_with_transform(frames[r].ops[i]).canonical.word(0);
        }
      }
      report.spans.push_back({"npn", t0, now_ns(), r});
    }
  }

  // Per-operand layer costs outside the ladder: the table on width <= 4
  // operands and the canonicalizer on the stream's wide operands.
  std::map<int, std::pair<double, std::size_t>> npn_ns;  // width class -> (ns, calls)
  for (int round = 0; round < rounds; ++round) {
    for (const TruthTable& f : stream) {
      const int width = f.num_vars();
      const std::uint64_t t0 = now_ns();
      if (width <= 4) {
        sink += npn4_lookup(f).class_index;
      } else if (round == 0) {
        sink += exact_npn_canonical_with_transform(f).canonical.word(0);
      } else {
        continue;
      }
      auto& slot = npn_ns[width <= 4 ? 4 : width];
      slot.first += static_cast<double>(now_ns() - t0);
      ++slot.second;
    }
  }
  const auto per_call = [&](int key) {
    const auto it = npn_ns.find(key);
    return it == npn_ns.end() || it->second.second == 0
               ? 0.0
               : it->second.first / static_cast<double>(it->second.second);
  };

  const std::vector<std::string> layers = {"socket", "frame", "dispatch", "store", "npn"};
  std::vector<LayerRow> rows = ladder_table(report.spans, layers, ops_of);
  const double mean_frame_ops = static_cast<double>(stream.size()) / static_cast<double>(frames.size());

  HotCacheStats cache{};
  std::uint64_t memo_hits = 0;
  std::uint64_t memo_probes = 0;
  std::uint64_t bypassed = 0;
  std::uint64_t disk_bytes = 0;
  for (const int width : router.widths()) {
    const ClassStore& store = *router.store_for(width);
    const HotCacheStats stats = store.hot_cache_stats();
    cache.hits += stats.hits;
    cache.misses += stats.misses;
    memo_hits += store.num_memo_hits();
    memo_probes += store.num_memo_probes();
    bypassed += store.memo_bypassed() ? 1 : 0;
    disk_bytes += file_bytes(args.work_dir + "/cut_stream_w" + std::to_string(width) + ".fcs");
  }

  // The mismatched-baseline check: cold store lookups (hot caches
  // cleared) and the canonicalizer on the same wide operands, in
  // alternating chunks so drift in the machine's speed lands on both alike.
  double canon_chunk_ns = 0;
  double cold_ns = 0;
  double cold_ops = 0;
  constexpr std::size_t kChunk = 64;
  for (int round = 0; round < rounds; ++round) {
    for (const auto& [width, funcs] : distinct) {
      if (width < 5) {
        continue;
      }
      const ClassStore& store = *router.store_for(width);
      store.clear_hot_cache();
      for (std::size_t begin = 0; begin < funcs.size(); begin += kChunk) {
        const std::size_t end = std::min(begin + kChunk, funcs.size());
        const std::uint64_t t0 = now_ns();
        for (std::size_t i = begin; i < end; ++i) {
          sink += exact_npn_canonical_with_transform(funcs[i]).canonical.word(0);
        }
        const std::uint64_t t1 = now_ns();
        for (std::size_t i = begin; i < end; ++i) {
          const auto hit = store.lookup(funcs[i]);
          sink += hit.has_value() ? hit->class_id : 0;
        }
        canon_chunk_ns += static_cast<double>(t1 - t0);
        cold_ns += static_cast<double>(now_ns() - t1);
        cold_ops += static_cast<double>(end - begin);
      }
    }
  }
  // The same check on seeded uniform-random n = 6 functions, where the
  // semiclass memo cannot help: a fresh store built from them, then cold
  // lookups against the canonicalizer on the same functions.
  double random_canon_ns = 0;
  double random_cold_ns = 0;
  {
    const std::vector<TruthTable> random6 = make_random_dataset(6, args.smoke ? 256 : 4096, args.seed);
    const ClassStore store = build_class_store(random6, build_options());
    for (std::size_t begin = 0; begin < random6.size(); begin += kChunk) {
      const std::size_t end = std::min(begin + kChunk, random6.size());
      const std::uint64_t t0 = now_ns();
      for (std::size_t i = begin; i < end; ++i) {
        sink += exact_npn_canonical_with_transform(random6[i]).canonical.word(0);
      }
      const std::uint64_t t1 = now_ns();
      for (std::size_t i = begin; i < end; ++i) {
        const auto hit = store.lookup(random6[i]);
        sink += hit.has_value() ? hit->class_id : 0;
      }
      random_canon_ns += static_cast<double>(t1 - t0);
      random_cold_ns += static_cast<double>(now_ns() - t1);
    }
  }
  g_sink = sink;
  report.add_shape("cut_cold_lookup_over_canon",
                   json_number(canon_chunk_ns > 0 ? cold_ns / canon_chunk_ns : 0.0));
  report.add_shape("random6_cold_lookup_over_canon",
                   json_number(random_canon_ns > 0 ? random_cold_ns / random_canon_ns : 0.0));

  report.set("npn.table_ns", per_call(4), "ns");
  report.set("npn.canon_ns.w5", per_call(5), "ns");
  report.set("npn.canon_ns.w6", per_call(6), "ns");
  report.set("npn.canonicalizations", static_cast<double>(canonicalized), "count");
  report.set("store.lookup_ns", span_per_op(rows, "store"), "ns");
  report.set("store.cold_lookup_ns", cold_ops > 0 ? cold_ns / cold_ops : 0.0, "ns");
  set_socket_layers(report, rows, mean_frame_ops, src);
  report.set("store.cache_hit_ratio",
             cache.hits + cache.misses > 0
                 ? static_cast<double>(cache.hits) / static_cast<double>(cache.hits + cache.misses)
                 : 0.0,
             "ratio");
  report.set("store.memo_hit_ratio",
             memo_probes > 0 ? static_cast<double>(memo_hits) / static_cast<double>(memo_probes) : 0.0,
             "ratio");
  report.set("store.memo_bypassed",
             static_cast<double>(bypassed) / static_cast<double>(router.num_stores()), "ratio");
  report.set("store.disk_bytes_per_class",
             static_cast<double>(disk_bytes) / static_cast<double>(router.num_classes()), "B/class");
  report.set("net.worker_busy_share",
             busy_ns_sum / (static_cast<double>(kWorkers) * busy_wall_s * 1e9), "ratio");
  report.set("net.tasks_per_request",
             window_frames > 0 ? static_cast<double>(window_tasks) / static_cast<double>(window_frames)
                               : 0.0,
             "ratio");
  finish_trace(report, std::move(rows), traced_ns_per_op, ops_per_s, traced_rate);
  fill_idle_layers(report);
  return report;
}

}  // namespace perfbench
