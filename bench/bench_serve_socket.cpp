/// bench_serve_socket: contention sweep of the socket serving subsystem,
/// with machine-readable JSON output for CI trend tracking.
///
/// Builds class stores, starts in-process ServeServers on loopback TCP
/// ports, and measures three phases at a fleet of client counts (default
/// 1/2/4/8/16), every client speaking protocol v2 frames:
///
///   * read_mostly_v2     — every client streams batched lookup frames over
///                          a warm single-width store: the fleet fan-out
///                          workload. Ids are checked bit-identical to
///                          direct in-process lookups.
///   * append_heavy       — every client streams append frames of its own
///                          run of mostly-novel random functions, then
///                          quits: the live-classify + memtable append path
///                          and the session-exit delta flushes.
///   * mixed_width_router — a StoreRouter serving three widths; every
///                          client interleaves operands of all widths, one
///                          lookup frame per width in each batch, so the
///                          per-width store gates stripe the traffic.
///
/// Each phase reports lookups/s per client count plus `scaling` — fleet
/// throughput over the same phase's single-client throughput. With the
/// store-layer gates (snapshot-epoch reads, per-width striping) the
/// read-mostly fleet scales with available cores instead of serializing on
/// a process-wide lock; `cpus` is recorded so a 1-core runner's flat
/// scaling is not mistaken for contention.
///
/// Also measured: direct warm lookups (the in-process ceiling the protocol
/// overhead is judged against). Defaults are laptop-scale; flags scale the
/// workload (--n, --funcs, --clients, --batch, --append-funcs). The JSON
/// report lands in BENCH_serve_socket.json (--out). Platforms without
/// sockets emit a report with "socket_supported": false and exit 0.

#include <atomic>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "facet/facet.hpp"

namespace {

using namespace facet;

/// One client pass over a fresh connection: streams `funcs` as `verb`
/// frames — each batch of up to `batch` operands sends one frame per width
/// it holds — then quits. Checks every record against `expected` when
/// given, otherwise only that it is no miss. Each batch's round trips
/// record into `latency` — shared lock-free across the fleet's clients, so
/// the phase can report client-observed p50/p99. Returns answered
/// operands.
std::size_t run_client(std::uint16_t port, FrameVerb verb, const std::vector<TruthTable>& funcs,
                       const std::vector<std::uint32_t>* expected, std::size_t batch,
                       std::atomic<std::size_t>& mismatches, obs::LatencyHistogram& latency)
{
  const Socket socket = connect_tcp({"127.0.0.1", port});
  std::size_t answered = 0;
  for (std::size_t start = 0; start < funcs.size(); start += batch) {
    const std::size_t end = std::min(start + batch, funcs.size());
    const std::uint64_t t0 = now_ns();
    std::map<int, std::vector<std::size_t>> by_width;
    for (std::size_t i = start; i < end; ++i) {
      by_width[funcs[i].num_vars()].push_back(i);
    }
    for (const auto& [width, indices] : by_width) {
      std::vector<TruthTable> group;
      for (const std::size_t i : indices) {
        group.push_back(funcs[i]);
      }
      const auto response = frame_round_trip(socket, encode_batch_request(verb, width, group));
      const auto records = response.has_value() && response->status() == FrameStatus::kOk
                               ? decode_records(response->payload)
                               : std::nullopt;
      if (!records.has_value() || records->size() != indices.size()) {
        ++mismatches;
        return answered;
      }
      for (std::size_t k = 0; k < indices.size(); ++k) {
        if ((*records)[k].class_id == kFrameMissClassId ||
            (expected != nullptr && (*records)[k].class_id != (*expected)[indices[k]])) {
          ++mismatches;
        }
        ++answered;
      }
    }
    latency.record_ns(now_ns() - t0);
  }
  const auto bye = frame_round_trip(socket, encode_control_request(FrameVerb::kQuit));
  if (!bye.has_value() || bye->status() != FrameStatus::kOk) {
    ++mismatches;
  }
  return answered;
}

struct PhaseResult {
  std::string phase;
  std::size_t clients = 0;
  std::size_t lookups = 0;
  double seconds = 0;
  double rate = 0;
  double scaling = 1.0;
  double p50_us = 0;  ///< median client-observed batch round-trip
  double p99_us = 0;  ///< tail client-observed batch round-trip
};

/// Runs one fleet: `run_one(c, latency)` is client c's whole pass (connect,
/// stream, disconnect) and returns its answered lookups.
template <typename ClientOf>
PhaseResult run_fleet(const std::string& phase, std::size_t num_clients, const ClientOf& run_one)
{
  PhaseResult result;
  result.phase = phase;
  result.clients = num_clients;
  std::atomic<std::size_t> answered{0};
  obs::LatencyHistogram latency;
  Stopwatch watch;
  {
    std::vector<std::thread> clients;
    for (std::size_t c = 0; c < num_clients; ++c) {
      clients.emplace_back([&, c] { answered += run_one(c, latency); });
    }
    for (auto& client : clients) {
      client.join();
    }
  }
  result.seconds = watch.seconds();
  result.lookups = answered.load();
  result.rate = result.seconds > 0 ? static_cast<double>(result.lookups) / result.seconds : 0.0;
  const obs::HistogramSnapshot snapshot = latency.snapshot();
  result.p50_us = static_cast<double>(snapshot.quantile_ns(0.5)) / 1000.0;
  result.p99_us = static_cast<double>(snapshot.quantile_ns(0.99)) / 1000.0;
  return result;
}

/// Sweeps one phase over every fleet size, computing each run's scaling
/// against the phase's own single-client rate, printing and recording.
/// An unmeasured single-client warm-up run precedes the timed sweep so the
/// c=1 baseline does not absorb server/connection cold-start — without it
/// the scaling ratios read inflated (the baseline is the denominator).
template <typename ClientOf>
void sweep_phase(const std::string& phase, const std::vector<std::size_t>& fleet_sizes,
                 std::vector<PhaseResult>& phases, const ClientOf& run_one)
{
  (void)run_fleet(phase, 1, run_one);
  double single_rate = 0;
  for (const std::size_t c : fleet_sizes) {
    PhaseResult result = run_fleet(phase, c, run_one);
    if (c == 1) {
      single_rate = result.rate;
    }
    result.scaling = single_rate > 0 ? result.rate / single_rate : 0.0;
    std::cout << phase << " " << c << " client(s): " << result.rate << " lookups/s (scaling "
              << result.scaling << ", batch p50 " << result.p50_us << " us, p99 " << result.p99_us
              << " us)\n";
    phases.push_back(result);
  }
}

}  // namespace

int main(int argc, char** argv)
{
  const CliArgs args{argc, argv};
  const int n = static_cast<int>(args.get_int("n", 6));
  const std::size_t max_funcs = static_cast<std::size_t>(args.get_int("funcs", 5000));
  const std::size_t max_clients = static_cast<std::size_t>(args.get_int("clients", 16));
  const std::size_t batch = static_cast<std::size_t>(args.get_int("batch", 64));
  const std::size_t append_funcs = static_cast<std::size_t>(args.get_int("append-funcs", 400));
  const std::string out_path = args.get_string("out", "BENCH_serve_socket.json");
  const unsigned cpus = std::max(1u, std::thread::hardware_concurrency());

  if (!net_supported()) {
    std::ofstream json{out_path, std::ios::trunc};
    json << "{\n  \"bench\": \"serve_socket\",\n  \"socket_supported\": false\n}\n";
    std::cout << "sockets unsupported on this platform; wrote " << out_path << "\n";
    return 0;
  }

  std::vector<std::size_t> fleet_sizes;
  for (std::size_t c = 1; c <= max_clients; c *= 2) {
    fleet_sizes.push_back(c);
  }

  CircuitDatasetOptions dataset_options;
  dataset_options.max_functions = max_funcs;
  std::vector<TruthTable> funcs = make_circuit_dataset(n, dataset_options);
  if (funcs.size() < max_funcs) {
    const auto pad = make_consecutive_dataset(n, max_funcs - funcs.size());
    funcs.insert(funcs.end(), pad.begin(), pad.end());
  }
  std::cout << "dataset: " << funcs.size() << " functions, n = " << n << ", cpus = " << cpus
            << "\n";

  StoreBuildOptions build_options;
  build_options.store.hot_cache_capacity = 2 * funcs.size() + 16;
  ClassStore store = build_class_store(funcs, build_options);
  std::cout << "store:   " << store.num_records() << " classes\n";

  // --- direct warm lookups (the in-process ceiling) ------------------------
  std::vector<std::uint32_t> expected;
  expected.reserve(funcs.size());
  for (const auto& f : funcs) {
    expected.push_back(store.lookup(f)->class_id);  // also warms the cache
  }
  Stopwatch watch;
  bool direct_ok = true;
  for (std::size_t i = 0; i < funcs.size(); ++i) {
    const auto result = store.lookup(funcs[i]);
    direct_ok = direct_ok && result.has_value() && result->class_id == expected[i];
  }
  const double direct_rate =
      watch.seconds() > 0 ? static_cast<double>(funcs.size()) / watch.seconds() : 0.0;

  std::atomic<std::size_t> mismatches{0};
  std::vector<PhaseResult> phases;

  // --- phase: read_mostly_v2 -----------------------------------------------
  {
    ServeServerOptions server_options;
    server_options.listen = "127.0.0.1:0";
    server_options.max_connections = max_clients + 8;
    ServeServer server{store, "bench_serve_socket.fcs", server_options};
    server.start();
    const std::uint16_t port = server.tcp_port();
    sweep_phase("read_mostly_v2", fleet_sizes, phases,
                [&](std::size_t, obs::LatencyHistogram& latency) {
                  return run_client(port, FrameVerb::kLookup, funcs, &expected, batch, mismatches,
                                    latency);
                });
    server.request_shutdown();
    server.wait();
  }

  // --- phase: append_heavy -------------------------------------------------
  // A fresh empty-delta store per phase keeps runs comparable: every client
  // streams its own run of random n-var functions (mostly novel classes),
  // so the traffic is dominated by the live-classify + append path, plus
  // one exit flush per session.
  {
    const std::string append_path = "bench_serve_socket_append.fcs";
    store.save(append_path);
    std::remove(ClassStore::delta_log_path(append_path).c_str());
    ClassStore append_store = ClassStore::open(append_path);
    ServeServerOptions server_options;
    server_options.listen = "127.0.0.1:0";
    server_options.max_connections = max_clients + 8;
    ServeServer server{append_store, append_path, server_options};
    server.start();

    // One fresh stream per client per fleet run (sum of fleet sizes, plus
    // one for sweep_phase's warm-up), handed out through an atomic cursor:
    // every session appends functions never seen before instead of
    // re-hitting earlier appends.
    std::size_t total_streams = 1;
    for (const std::size_t c : fleet_sizes) {
      total_streams += c;
    }
    std::uint64_t seed = 0xbe5eULL;
    std::vector<std::vector<TruthTable>> streams(total_streams);
    for (auto& stream : streams) {
      std::mt19937_64 rng{seed++};
      for (std::size_t i = 0; i < append_funcs; ++i) {
        stream.push_back(tt_random(n, rng));
      }
    }
    std::atomic<std::size_t> next_stream{0};
    const std::uint16_t append_port = server.tcp_port();
    sweep_phase("append_heavy", fleet_sizes, phases,
                [&](std::size_t, obs::LatencyHistogram& latency) {
                  return run_client(append_port, FrameVerb::kAppend,
                                    streams[next_stream.fetch_add(1)], nullptr, batch, mismatches,
                                    latency);
                });
    server.request_shutdown();
    server.wait();
    std::remove(append_path.c_str());
    std::remove(ClassStore::delta_log_path(append_path).c_str());
  }

  // --- phase: mixed_width_router -------------------------------------------
  // Three widths behind one router; every client interleaves operands of
  // all widths, so requests stripe across the per-width store gates.
  {
    StoreRouter router;
    std::vector<TruthTable> mixed_funcs;
    std::vector<std::uint32_t> mixed_expected;
    for (const int width : {std::max(3, n - 2), std::max(4, n - 1), std::max(5, n)}) {
      if (router.store_for(width) != nullptr) {
        continue;
      }
      CircuitDatasetOptions width_options;
      width_options.max_functions = max_funcs / 4;
      std::vector<TruthTable> width_funcs = make_circuit_dataset(width, width_options);
      if (width_funcs.empty()) {
        continue;
      }
      StoreBuildOptions width_build;
      width_build.store.hot_cache_capacity = 2 * width_funcs.size() + 16;
      auto width_store = std::make_unique<ClassStore>(build_class_store(width_funcs, width_build));
      for (const auto& f : width_funcs) {
        mixed_funcs.push_back(f);
        mixed_expected.push_back(width_store->lookup(f)->class_id);
      }
      router.attach(std::move(width_store));
    }
    // Interleave widths: shuffle (function, id) pairs once,
    // deterministically.
    {
      std::mt19937_64 rng{0x51afULL};
      for (std::size_t i = mixed_funcs.size(); i > 1; --i) {
        const std::size_t j = rng() % i;
        std::swap(mixed_funcs[i - 1], mixed_funcs[j]);
        std::swap(mixed_expected[i - 1], mixed_expected[j]);
      }
    }
    ServeServerOptions server_options;
    server_options.listen = "127.0.0.1:0";
    server_options.max_connections = max_clients + 8;
    // Genuinely read-only: the in-memory stores need no index paths to
    // flush or compact against (a lookup miss is caught as a mismatch).
    server_options.readonly = true;
    ServeServer server{router, std::map<int, std::string>{}, server_options};
    server.start();
    const std::uint16_t router_port = server.tcp_port();
    sweep_phase("mixed_width_router", fleet_sizes, phases,
                [&](std::size_t, obs::LatencyHistogram& latency) {
                  return run_client(router_port, FrameVerb::kLookup, mixed_funcs,
                                    &mixed_expected, batch, mismatches, latency);
                });
    server.request_shutdown();
    server.wait();
  }

  const bool identical = direct_ok && mismatches.load() == 0;
  std::cout << "direct:  " << direct_rate << " lookups/s (in-process, warm)\n"
            << "bit-identical over the socket: " << (identical ? "yes" : "NO") << "\n";

  // The headline numbers CI trends: 1-client read-mostly vs the 8-client
  // fleet (falling back to the largest fleet actually run, so a --clients
  // value below 8 never reports a spurious zero).
  double v2_single_rate = 0;
  double v2_fleet_rate = 0;
  double fleet_scaling = 0;
  std::size_t fleet_clients = 0;
  for (const auto& phase : phases) {
    if (phase.phase != "read_mostly_v2") {
      continue;
    }
    if (phase.clients == 1) {
      v2_single_rate = phase.rate;
    }
    if (phase.clients == 8 || (fleet_clients != 8 && phase.clients > fleet_clients)) {
      v2_fleet_rate = phase.rate;
      fleet_scaling = phase.scaling;
      fleet_clients = phase.clients;
    }
  }

  std::ofstream json{out_path, std::ios::trunc};
  json << "{\n"
       << "  \"bench\": \"serve_socket\",\n"
       << "  \"socket_supported\": true,\n"
       << "  \"n\": " << n << ",\n"
       << "  \"functions\": " << funcs.size() << ",\n"
       << "  \"classes\": " << store.num_records() << ",\n"
       << "  \"batch\": " << batch << ",\n"
       << "  \"cpus\": " << cpus << ",\n"
       << "  \"direct_warm_lookups_per_sec\": " << direct_rate << ",\n"
       << "  \"socket_v2_single_client_lookups_per_sec\": " << v2_single_rate << ",\n"
       << "  \"socket_v2_fleet_lookups_per_sec\": " << v2_fleet_rate << ",\n"
       << "  \"fleet_clients\": " << fleet_clients << ",\n"
       << "  \"read_mostly_fleet_scaling\": " << fleet_scaling << ",\n"
       << "  \"phases\": [\n";
  for (std::size_t i = 0; i < phases.size(); ++i) {
    const auto& p = phases[i];
    json << "    {\"phase\": \"" << p.phase << "\", \"clients\": " << p.clients
         << ", \"lookups\": " << p.lookups << ", \"seconds\": " << p.seconds
         << ", \"lookups_per_sec\": " << p.rate << ", \"scaling\": " << p.scaling
         << ", \"batch_p50_us\": " << p.p50_us << ", \"batch_p99_us\": " << p.p99_us << "}"
         << (i + 1 < phases.size() ? "," : "") << "\n";
  }
  json << "  ],\n"
       << "  \"identical_over_socket\": " << (identical ? "true" : "false") << "\n"
       << "}\n";
  std::cout << "wrote " << out_path << "\n";
  return identical ? 0 : 1;
}
