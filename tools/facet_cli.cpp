/// facet_cli: command-line driver for the facet library.
///
/// Subcommands:
///   classify     NPN-classify a list of truth tables (hex, one per line)
///   build-index  classify a dataset and persist it as a `.fcs` class store
///   lookup       resolve functions against a `.fcs` store (live fallback)
///   serve        socket server (--listen TCP and/or --unix) speaking the
///                protocol v2 frames over one `.fcs` store, or — with
///                --route — over one store per width; background
///                compaction and graceful shutdown
///   query        one request frame to a running server, printed as text
///   fleet        one writable primary + N read-only replica processes on
///                one store directory; replicas re-open the base on every
///                compaction the primary adopts (--reload-poll-ms)
///   fcs-merge    union `.fcs` indexes of one width (dedup by canonical
///                form, renumber by first occurrence)
///   compact      merge a store's delta log back into its base segment
///   signatures   print all signature vectors of given functions
///   canon        exact NPN canonical form + witnessing transform (n <= 8)
///   match        decide NPN equivalence of two functions, with witness
///   dataset      emit a circuit-derived benchmark set as hex lines
///   convert      AIGER ascii <-> binary conversion
///
/// Examples:
///   facet_cli classify --n 6 --method fp < functions.txt
///   facet_cli classify --n 6 --method exact --jobs 4 < functions.txt
///   facet_cli build-index --n 6 --input functions.txt --out set6.fcs --jobs 0
///   facet_cli lookup --index set6.fcs --mmap e8e8e8e8e8e8e8e8
///   facet_cli lookup --index set6.fcs --append --flush e8e8e8e8e8e8e8e8
///   facet_cli serve --index set6.fcs --listen 127.0.0.1:7533 --compact-after-runs 4
///   facet_cli serve --route set4.fcs set6.fcs --unix /tmp/facet.sock --readonly
///   facet_cli query --connect 127.0.0.1:7533 lookup --width 6 e8e8e8e8e8e8e8e8
///   facet_cli query --unix /tmp/facet.sock stats
///   facet_cli fcs-merge --out union6.fcs a6.fcs b6.fcs
///   facet_cli compact --index set6.fcs
///   facet_cli signatures --n 3 e8 f0
///   facet_cli canon --n 4 688d
///   facet_cli match --n 3 e8 d4
///   facet_cli dataset --n 5 --max-funcs 1000 > set5.txt
///   facet_cli convert --to-binary circuit.aag circuit.aig

#include <csignal>
#include <fstream>

#if defined(__linux__)
#include <sys/wait.h>
#include <unistd.h>
#endif
#include <iostream>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "facet/facet.hpp"

namespace {

using namespace facet;

/// Reads hex functions from --input (a file, or "-" = stdin), with
/// line-numbered errors for malformed lines (read_hex_functions).
std::vector<TruthTable> read_input_functions(int n, const CliArgs& args)
{
  const std::string input = args.get_string("input", "-");
  if (input == "-") {
    return read_hex_functions(n, std::cin);
  }
  std::ifstream file{input};
  if (!file) {
    throw std::runtime_error{"cannot open " + input};
  }
  try {
    return read_hex_functions(n, file);
  } catch (const std::invalid_argument& e) {
    throw std::invalid_argument{input + ": " + e.what()};
  }
}

int cmd_classify(const CliArgs& args)
{
  const int n = static_cast<int>(args.get_int("n", 6));
  const std::string method = args.get_string("method", "fp");
  // --jobs N: classify on the parallel batch engine with N worker threads
  // (0 = hardware concurrency). Without --jobs the sequential classifiers
  // run directly, as before.
  const bool use_engine = args.has("jobs");
  const std::size_t jobs = static_cast<std::size_t>(args.get_int("jobs", 0));

  const std::vector<TruthTable> funcs = read_input_functions(n, args);
  if (funcs.empty()) {
    std::cerr << "error: no functions read (expected one hex truth table per line)\n";
    return 1;
  }

  // "fp-extended" is the fp kind under the extended signature set.
  const auto kind = classifier_kind_from_name(method == "fp-extended" ? "fp" : method);
  if (!kind.has_value()) {
    std::cerr << "error: unknown method '" << method
              << "' (fp|fp-extended|fp-hashed|exact|kitty|semi|hier|codesign)\n";
    return 1;
  }
  const SignatureConfig config =
      method == "fp-extended" ? SignatureConfig::all_extended() : SignatureConfig::all();

  Stopwatch watch;
  ClassificationResult result;
  BatchEngineStats stats;
  if (use_engine) {
    BatchEngineOptions options;
    options.num_threads = jobs;
    options.signature = config;
    result = classify_batch(funcs, *kind, options, &stats);
  } else {
    switch (*kind) {
      case ClassifierKind::kExact:
        result = classify_exact(funcs);
        break;
      case ClassifierKind::kExhaustive:
        result = classify_exhaustive(funcs);
        break;
      case ClassifierKind::kFp:
        result = classify_fp(funcs, config);
        break;
      case ClassifierKind::kFpHashed:
        result = classify_fp_hashed(funcs, config);
        break;
      case ClassifierKind::kSemiCanonical:
        result = classify_semi_canonical(funcs);
        break;
      case ClassifierKind::kHierarchical:
        result = classify_hierarchical(funcs);
        break;
      case ClassifierKind::kCodesign:
        result = classify_codesign(funcs);
        break;
    }
  }
  const double seconds = watch.seconds();

  std::cout << "functions: " << funcs.size() << "\nclasses:   " << result.num_classes
            << "\ntime:      " << seconds << " s\n";
  if (use_engine) {
    std::cout << "engine:    " << stats.threads << " thread(s), cache " << stats.cache_hits << " hit(s) / "
              << stats.cache_misses << " miss(es)\n";
  }
  if (args.get_bool("print-classes")) {
    for (std::size_t i = 0; i < funcs.size(); ++i) {
      std::cout << to_hex(funcs[i]) << " " << result.class_of[i] << "\n";
    }
  }
  return 0;
}

/// Persists appends when requested, cheapest mode first: `--flush` appends
/// one delta frame to the index's log (O(delta)); `--save` compacts
/// everything back into the base segment (`--save=FILE` writes elsewhere;
/// O(index)). Shared by lookup/serve.
void persist_store_if_requested(const CliArgs& args, ClassStore& store,
                                const std::string& index_path)
{
  if (args.get_bool("flush")) {
    const std::size_t appended = store.num_appended();
    const std::size_t flushed = store.flush_delta(ClassStore::delta_log_path(index_path));
    std::cerr << "flushed " << flushed << " of " << appended << " appended record(s) to "
              << ClassStore::delta_log_path(index_path) << "\n";
  }
  if (!args.has("save")) {
    return;
  }
  const std::string save_flag = args.get_string("save", "1");
  const std::string save_path = save_flag == "1" ? index_path : save_flag;
  const std::size_t records = store.num_records();
  const std::size_t appended = store.num_appended() + store.num_delta_records();
  store.compact(save_path);
  std::cerr << "saved " << records << " record(s) (" << appended << " appended) to " << save_path
            << "\n";
}

/// Shared ClassStoreOptions from --cache / --cache-shards flags.
ClassStoreOptions store_options_from(const CliArgs& args)
{
  ClassStoreOptions options;
  options.hot_cache_capacity = static_cast<std::size_t>(
      args.get_int("cache", static_cast<std::int64_t>(options.hot_cache_capacity)));
  options.hot_cache_shards = static_cast<std::size_t>(
      args.get_int("cache-shards", static_cast<std::int64_t>(options.hot_cache_shards)));
  return options;
}

/// Shared StoreOpenOptions: --mmap serves the base segment zero-copy from a
/// read-only mapping instead of materializing records in RAM.
StoreOpenOptions open_options_from(const CliArgs& args)
{
  StoreOpenOptions options;
  options.use_mmap = args.get_bool("mmap");
  options.store = store_options_from(args);
  return options;
}

int cmd_build_index(const CliArgs& args)
{
  const int n = static_cast<int>(args.get_int("n", 6));
  const std::string out = args.get_string("out", "");
  if (out.empty()) {
    std::cerr << "usage: facet_cli build-index --n N --out FILE.fcs [--input FILE] [--jobs N]\n";
    return 1;
  }
  const std::vector<TruthTable> funcs = read_input_functions(n, args);
  if (funcs.empty()) {
    std::cerr << "error: no functions read (expected one hex truth table per line)\n";
    return 1;
  }

  StoreBuildOptions options;
  options.num_threads = static_cast<std::size_t>(args.get_int("jobs", 0));
  BatchEngineStats stats;
  options.stats = &stats;

  Stopwatch watch;
  const ClassStore store = build_class_store(funcs, options);
  const double build_seconds = watch.seconds();
  store.save(out);

  std::ifstream written{out, std::ios::binary | std::ios::ate};
  std::cout << "functions: " << funcs.size() << "\nclasses:   " << store.num_classes()
            << "\nbuild:     " << build_seconds << " s (" << stats.threads << " thread(s), cache "
            << stats.cache_hits << " hit(s) / " << stats.cache_misses << " miss(es))\nindex:     "
            << out << " (" << (written ? static_cast<long long>(written.tellg()) : -1)
            << " bytes)\n";
  return 0;
}

int cmd_lookup(const CliArgs& args)
{
  const std::string index = args.get_string("index", "");
  if (index.empty()) {
    std::cerr << "usage: facet_cli lookup --index FILE.fcs [<hex>...] [--input FILE] "
                 "[--append] [--mmap] [--flush] [--save[=FILE]]\n";
    return 1;
  }
  ClassStore store = ClassStore::open(index, open_options_from(args));
  const bool append = args.get_bool("append");

  std::vector<TruthTable> funcs;
  if (args.positional().size() > 1) {
    for (std::size_t k = 1; k < args.positional().size(); ++k) {
      funcs.push_back(from_hex(store.num_vars(), args.positional()[k]));
    }
  } else {
    funcs = read_input_functions(store.num_vars(), args);
  }
  if (funcs.empty()) {
    std::cerr << "error: no functions to look up (pass hex arguments or --input)\n";
    return 1;
  }

  for (const auto& f : funcs) {
    const StoreLookupResult result = store.lookup_or_classify(f, append);
    std::cout << to_hex(f) << " id=" << result.class_id
              << " rep=" << to_hex(result.representative)
              << " t=" << transform_to_compact(result.to_representative)
              << " src=" << lookup_source_name(result.source)
              << " known=" << (result.known ? 1 : 0) << "\n";
  }

  persist_store_if_requested(args, store, index);
  return 0;
}

/// Writes `<k> lookup(s), <h> cache / <m> memo / <t> table / <i> index /
/// <l> live` for one `stats` row.
void report_sources(const ServeWidthStats& row)
{
  std::cerr << row.lookups() << " lookup(s), ";
  for (std::size_t src = 0; src < kNumLookupSources; ++src) {
    std::cerr << (src == 0 ? "" : " / ") << row.source[src] << ' '
              << lookup_source_name(static_cast<LookupSource>(src));
  }
}

void report_server_stats(const ServeAggregateStats& stats)
{
  const ServeAggregateSnapshot agg = stats.snapshot();
  std::cerr << "served " << agg.connections_total << " connection(s), " << agg.requests
            << " request(s): ";
  report_sources(agg.total);
  std::cerr << ", " << agg.errors << " error(s), flushed " << agg.flushed_records
            << " record(s), " << agg.compactions << " compaction(s) (" << agg.compacted_runs
            << " run(s), " << agg.compacted_records << " record(s))\n";
  // The `stats` per-width rows, for operators reading the exit log.
  for (std::size_t n = 0; n < agg.width.size(); ++n) {
    const ServeWidthStats& row = agg.width[n];
    if (row.lookups() == 0) {
      continue;
    }
    std::cerr << "  width " << n << ": ";
    report_sources(row);
    std::cerr << ", " << row.appended << " appended\n";
  }
}

// The SIGINT/SIGTERM bridge into the serve server's graceful shutdown
// (request_shutdown is async-signal-safe: an atomic flag + self-pipe write).
ServeServer* g_serve_server = nullptr;

extern "C" void handle_shutdown_signal(int)
{
  if (g_serve_server != nullptr) {
    g_serve_server->request_shutdown();
  }
}

/// `--metrics-json PATH`: dump the whole telemetry registry (every latency
/// histogram, counter and gauge — obs/registry.hpp) as JSON. Runs on every
/// serve exit path, including SIGTERM's graceful drain.
void dump_metrics_json(const std::string& path)
{
  if (path.empty()) {
    return;
  }
  std::ofstream out{path};
  if (!out) {
    std::cerr << "error: cannot write metrics json to " << path << "\n";
    return;
  }
  obs::MetricRegistry::global().render_json(out);
  std::cerr << "metrics dumped to " << path << "\n";
}

/// Runs a started server until SIGINT/SIGTERM (or a client-side
/// request_shutdown), then reports the aggregate session stats.
int run_serve_server(ServeServer& server, const std::string& metrics_json_path = {})
{
  // Handlers go in before start(): a signal arriving during bind/spawn
  // (an orchestrator's immediate TERM) must still reach the graceful
  // drain-and-flush path, not the default disposition. request_shutdown()
  // on a not-yet-started server just sets the stop flag, which
  // start()/wait() honor.
  g_serve_server = &server;
  std::signal(SIGINT, handle_shutdown_signal);
  std::signal(SIGTERM, handle_shutdown_signal);
  try {
    server.start();
    if (server.tcp_port() != 0) {
      std::cerr << "listening on tcp port " << server.tcp_port() << "\n" << std::flush;
    }
    server.wait();
  } catch (...) {
    std::signal(SIGINT, SIG_DFL);
    std::signal(SIGTERM, SIG_DFL);
    g_serve_server = nullptr;
    throw;
  }
  std::signal(SIGINT, SIG_DFL);
  std::signal(SIGTERM, SIG_DFL);
  g_serve_server = nullptr;
  report_server_stats(server.stats());
  dump_metrics_json(metrics_json_path);
  return 0;
}

/// Shared ServeServerOptions from the serve subcommand's network flags.
ServeServerOptions server_options_from(const CliArgs& args)
{
  ServeServerOptions options;
  options.listen = args.get_string("listen", "");
  options.unix_path = args.get_string("unix", "");
  options.readonly = args.get_bool("readonly");
  options.max_connections = static_cast<std::size_t>(args.get_uint64("max-conns", 64));
  const std::uint64_t idle_ms = args.get_uint64("idle-timeout-ms", 0);
  using IdleRep = std::chrono::milliseconds::rep;
  if (idle_ms > static_cast<std::uint64_t>(std::numeric_limits<IdleRep>::max())) {
    throw std::invalid_argument{"--idle-timeout-ms: value too large"};
  }
  options.idle_timeout = std::chrono::milliseconds{static_cast<IdleRep>(idle_ms)};
  const std::uint64_t reload_ms = args.get_uint64("reload-poll-ms", 0);
  if (reload_ms > static_cast<std::uint64_t>(std::numeric_limits<IdleRep>::max())) {
    throw std::invalid_argument{"--reload-poll-ms: value too large"};
  }
  options.reload_poll = std::chrono::milliseconds{static_cast<IdleRep>(reload_ms)};
  options.compact_after_runs =
      static_cast<std::size_t>(args.get_uint64("compact-after-runs", 0));
  options.compact_after_bytes = args.get_uint64("compact-after-bytes", 0);
  options.slow_request_us = args.get_uint64("slow-us", 0);
  options.workers = static_cast<std::size_t>(args.get_uint64("workers", 0));
  return options;
}

int cmd_serve(const CliArgs& args)
{
  if (!args.has("listen") && !args.has("unix")) {
    std::cerr << "usage: facet_cli serve (--index FILE.fcs | --route FILE.fcs [FILE.fcs...])\n"
                 "       (--listen [HOST:]PORT | --unix PATH) [options]\n";
    return 1;
  }
  const std::string metrics_json = args.get_string("metrics-json", "");
  if (args.get_bool("route")) {
    // Route mode: one store per width behind a single server; every .fcs
    // path is positional, widths come from the file headers.
    if (args.positional().size() < 2) {
      std::cerr << "usage: facet_cli serve --route FILE.fcs [FILE.fcs...] --listen ...\n";
      return 1;
    }
    const StoreOpenOptions open_options = open_options_from(args);
    StoreRouter router;
    std::map<int, std::string> paths;  // width -> base path
    for (std::size_t k = 1; k < args.positional().size(); ++k) {
      const std::string& path = args.positional()[k];
      auto store = std::make_unique<ClassStore>(ClassStore::open(path, open_options));
      paths.emplace(store->num_vars(), path);
      router.attach(std::move(store));
    }
    ServeServer server{router, std::move(paths), server_options_from(args)};
    return run_serve_server(server, metrics_json);
  }

  const std::string index = args.get_string("index", "");
  if (index.empty()) {
    std::cerr << "usage: facet_cli serve --index FILE.fcs --listen ...\n";
    return 1;
  }
  ClassStore store = ClassStore::open(index, open_options_from(args));
  ServeServer server{store, index, server_options_from(args)};
  return run_serve_server(server, metrics_json);
}

/// `facet_cli query`: sends one request frame (lookup/append/stats/metrics)
/// to a running server, then `quit`, and prints the answers as text — one
/// `ok id=<id> src=<tier> known=<k>` line per operand (`miss` for a lookup
/// miss), the text payload of stats/metrics, and `ok bye flushed=<k>`. An
/// err frame prints `err <status>: <reason>` and exits 1.
int cmd_query(const CliArgs& args)
{
  const std::string verb = args.positional().size() > 1 ? args.positional()[1] : "";
  const bool batch = verb == "lookup" || verb == "append";
  if ((!batch && verb != "stats" && verb != "metrics") ||
      args.has("connect") == args.has("unix") || (batch && !args.has("width"))) {
    std::cerr << "usage: facet_cli query (--connect HOST:PORT | --unix PATH)\n"
                 "       (lookup|append --width N <hex>... | stats | metrics)\n";
    return 1;
  }
  std::string request;
  if (batch) {
    const int width = static_cast<int>(args.get_int("width", 0));
    std::vector<TruthTable> funcs;
    for (std::size_t k = 2; k < args.positional().size(); ++k) {
      funcs.push_back(from_hex(width, args.positional()[k]));
    }
    request = encode_batch_request(verb == "lookup" ? FrameVerb::kLookup : FrameVerb::kAppend,
                                   width, funcs);
  } else {
    request = encode_control_request(verb == "stats" ? FrameVerb::kStats : FrameVerb::kMetrics);
  }
  const Socket socket = args.has("connect")
                            ? connect_tcp(parse_tcp_endpoint(args.get_string("connect", "")))
                            : connect_unix(args.get_string("unix", ""));
  // The answer to the request, then the answer to quit.
  for (const std::string& frame : {request, encode_control_request(FrameVerb::kQuit)}) {
    const std::optional<FrameResponse> response = frame_round_trip(socket, frame);
    if (!response.has_value()) {
      std::cerr << "error: connection closed before a response frame\n";
      return 1;
    }
    if (response->status() != FrameStatus::kOk) {
      std::cout << "err " << frame_status_name(response->status()) << ": " << response->payload
                << "\n";
      return 1;
    }
    switch (static_cast<FrameVerb>(response->header.verb)) {
      case FrameVerb::kLookup:
      case FrameVerb::kAppend: {
        const auto records = decode_records(response->payload);
        if (!records.has_value()) {
          std::cerr << "error: malformed record payload\n";
          return 1;
        }
        for (const FrameRecord& record : *records) {
          if (record.src == static_cast<std::uint8_t>(FrameSrc::kMiss)) {
            std::cout << "miss\n";
          } else {
            std::cout << "ok id=" << record.class_id << " src=" << frame_src_name(record.src)
                      << " known=" << static_cast<unsigned>(record.known) << "\n";
          }
        }
        break;
      }
      case FrameVerb::kQuit:
        std::cout << "ok bye flushed="
                  << (response->payload.size() == 8
                          ? read_u64(reinterpret_cast<const unsigned char*>(response->payload.data()))
                          : 0)
                  << "\n";
        break;
      default:
        std::cout << response->payload;
        break;
    }
  }
  return 0;
}

/// `facet_cli fleet`: one writable primary plus N read-only replica
/// processes, all serving the SAME store directory. The primary runs
/// in-process (background compaction enabled via --compact-after-*); each
/// replica is this same binary re-exec'ed as
/// `serve --readonly --reload-poll-ms T`, so it adopts every compacted base
/// the primary renames into place. Replica k listens on base port + k + 1.
int cmd_fleet(const CliArgs& args)
{
#if !defined(__linux__)
  std::cerr << "error: fleet needs /proc/self/exe to respawn replicas (Linux only)\n";
  return 1;
#else
  const std::string index = args.get_string("index", "");
  const std::string listen = args.get_string("listen", "");
  if (index.empty() || listen.empty()) {
    std::cerr << "usage: facet_cli fleet --index FILE.fcs --listen HOST:PORT [--replicas N]\n"
                 "       [--reload-poll-ms T] [--mmap]\n"
                 "       [--compact-after-runs K] [--compact-after-bytes B]\n";
    return 1;
  }
  const std::size_t replicas = static_cast<std::size_t>(args.get_uint64("replicas", 2));
  const std::uint64_t reload_ms = args.get_uint64("reload-poll-ms", 200);
  const auto colon = listen.rfind(':');
  const std::string host = colon == std::string::npos ? "127.0.0.1" : listen.substr(0, colon);
  const int base_port =
      std::stoi(colon == std::string::npos ? listen : listen.substr(colon + 1));
  if (base_port == 0) {
    // Replica ports are derived as base + k + 1; an ephemeral primary port
    // would leave them nowhere deterministic to land.
    std::cerr << "error: fleet needs a fixed base port (port 0 is ephemeral)\n";
    return 1;
  }

  std::vector<pid_t> children;
  for (std::size_t k = 0; k < replicas; ++k) {
    std::vector<std::string> argv_strings{
        "facet_cli",  "serve",  "--index",          index,
        "--readonly", "--mmap", "--reload-poll-ms", std::to_string(reload_ms),
        "--listen",   host + ":" + std::to_string(base_port + static_cast<int>(k) + 1)};
    const pid_t pid = ::fork();
    if (pid < 0) {
      std::cerr << "error: fork failed for replica " << k << "\n";
      break;
    }
    if (pid == 0) {
      std::vector<char*> argv_ptrs;
      argv_ptrs.reserve(argv_strings.size() + 1);
      for (auto& s : argv_strings) {
        argv_ptrs.push_back(s.data());
      }
      argv_ptrs.push_back(nullptr);
      ::execv("/proc/self/exe", argv_ptrs.data());
      std::cerr << "error: exec failed for replica " << k << "\n";
      ::_exit(127);
    }
    children.push_back(pid);
    std::cerr << "replica " << k << " (pid " << pid << ") on " << host << ":"
              << base_port + static_cast<int>(k) + 1 << "\n";
  }

  // The primary serves in-process on the base port; SIGINT/SIGTERM drain it
  // through the usual graceful path, then the replicas are reaped below.
  int rc = 1;
  try {
    ClassStore store = ClassStore::open(index, open_options_from(args));
    ServeServer server{store, index, server_options_from(args)};
    rc = run_serve_server(server, args.get_string("metrics-json", ""));
  } catch (const std::exception& e) {
    std::cerr << "error: fleet primary failed: " << e.what() << "\n";
  }
  for (const pid_t pid : children) {
    ::kill(pid, SIGTERM);
  }
  for (const pid_t pid : children) {
    int status = 0;
    ::waitpid(pid, &status, 0);
  }
  return rc;
#endif
}

int cmd_fcs_merge(const CliArgs& args)
{
  const std::string out = args.get_string("out", "");
  if (out.empty() || args.positional().size() < 2) {
    std::cerr << "usage: facet_cli fcs-merge --out MERGED.fcs FILE.fcs [FILE.fcs...]\n";
    return 1;
  }
  std::vector<ClassStore> inputs;
  inputs.reserve(args.positional().size() - 1);
  for (std::size_t k = 1; k < args.positional().size(); ++k) {
    inputs.push_back(ClassStore::open(args.positional()[k], open_options_from(args)));
    std::cout << args.positional()[k] << ": " << inputs.back().num_records() << " record(s), n="
              << inputs.back().num_vars() << "\n";
  }
  std::vector<const ClassStore*> pointers;
  pointers.reserve(inputs.size());
  for (const auto& store : inputs) {
    pointers.push_back(&store);
  }
  const ClassStore merged = merge_class_stores(pointers, store_options_from(args));
  merged.save(out);

  std::ifstream written{out, std::ios::binary | std::ios::ate};
  std::cout << "merged:    " << merged.num_records() << " class(es) from " << inputs.size()
            << " store(s)\nindex:     " << out << " ("
            << (written ? static_cast<long long>(written.tellg()) : -1) << " bytes)\n";
  return 0;
}

int cmd_compact(const CliArgs& args)
{
  const std::string index = args.get_string("index", "");
  if (index.empty()) {
    std::cerr << "usage: facet_cli compact --index FILE.fcs\n";
    return 1;
  }
  ClassStore store = ClassStore::open(index, open_options_from(args));
  const std::size_t delta_records = store.num_delta_records();
  const std::size_t segments = store.num_delta_segments();
  store.compact(index);
  std::cout << "compacted " << segments << " delta segment(s) (" << delta_records
            << " record(s)) into " << index << ": " << store.num_records() << " record(s)\n";
  return 0;
}

int cmd_signatures(const CliArgs& args)
{
  const int n = static_cast<int>(args.get_int("n", 3));
  if (args.positional().size() < 2) {
    std::cerr << "usage: facet_cli signatures --n N <hex>...\n";
    return 1;
  }
  for (std::size_t k = 1; k < args.positional().size(); ++k) {
    const TruthTable tt = from_hex(n, args.positional()[k]);
    const SignatureSummary s = summarize_signatures(tt);
    std::cout << "0x" << to_hex(tt) << ":\n";
    std::cout << "  |f|   = " << tt.count_ones() << (tt.is_balanced() ? " (balanced)" : "") << "\n";
    std::cout << "  OCV1  = " << vector_to_string(s.ocv1) << "\n";
    std::cout << "  OCV2  = " << vector_to_string(s.ocv2) << "\n";
    std::cout << "  OIV   = " << vector_to_string(s.oiv) << "\n";
    std::cout << "  OSV   = " << vector_to_string(s.osv_sorted) << "\n";
    std::cout << "  OSV0  = " << vector_to_string(s.osv0_sorted) << "\n";
    std::cout << "  OSV1  = " << vector_to_string(s.osv1_sorted) << "\n";
    std::cout << "  OSDV  = " << vector_to_string(s.osdv) << "\n";
    std::cout << "  OSDV0 = " << vector_to_string(s.osdv0) << "\n";
    std::cout << "  OSDV1 = " << vector_to_string(s.osdv1) << "\n";
    std::cout << "  OWV   = " << vector_to_string(owv(tt)) << "\n";
  }
  return 0;
}

int cmd_canon(const CliArgs& args)
{
  const int n = static_cast<int>(args.get_int("n", 4));
  if (args.positional().size() != 2) {
    std::cerr << "usage: facet_cli canon --n N <hex>\n";
    return 1;
  }
  const TruthTable tt = from_hex(n, args.positional()[1]);
  const CanonResult result = exact_npn_canonical_with_transform(tt);
  std::cout << "input:     0x" << to_hex(tt) << "\n";
  std::cout << "canonical: 0x" << to_hex(result.canonical) << "\n";
  std::cout << "transform: " << result.transform.to_string() << "\n";
  return 0;
}

int cmd_match(const CliArgs& args)
{
  const int n = static_cast<int>(args.get_int("n", 4));
  if (args.positional().size() != 3) {
    std::cerr << "usage: facet_cli match --n N <hexA> <hexB>\n";
    return 1;
  }
  const TruthTable a = from_hex(n, args.positional()[1]);
  const TruthTable b = from_hex(n, args.positional()[2]);
  const auto witness = npn_match(a, b);
  if (witness.has_value()) {
    std::cout << "EQUIVALENT via " << witness->to_string() << "\n";
    return 0;
  }
  std::cout << "NOT equivalent\n";
  return 2;
}

int cmd_dataset(const CliArgs& args)
{
  const int n = static_cast<int>(args.get_int("n", 6));
  CircuitDatasetOptions options;
  options.max_functions = static_cast<std::size_t>(args.get_int("max-funcs", 10000));
  options.seed = static_cast<std::uint64_t>(args.get_int("seed", 0x5eed));
  for (const auto& tt : make_circuit_dataset(n, options)) {
    std::cout << to_hex(tt) << "\n";
  }
  return 0;
}

int cmd_convert(const CliArgs& args)
{
  if (args.positional().size() != 3) {
    std::cerr << "usage: facet_cli convert (--to-binary|--to-ascii) <in> <out>\n";
    return 1;
  }
  const std::string& in_path = args.positional()[1];
  const std::string& out_path = args.positional()[2];
  std::ifstream in{in_path, std::ios::binary};
  if (!in) {
    std::cerr << "error: cannot open " << in_path << "\n";
    return 1;
  }
  std::ofstream out{out_path, std::ios::binary};
  if (!out) {
    std::cerr << "error: cannot open " << out_path << "\n";
    return 1;
  }
  if (args.get_bool("to-binary")) {
    write_aiger_binary(read_aiger(in), out);
  } else {
    write_aiger(read_aiger_binary(in), out);
  }
  return 0;
}

void print_usage()
{
  std::cout << "facet_cli — NPN classification from face and point characteristics\n\n"
               "subcommands:\n"
               "  classify    --n N [--method fp|fp-extended|fp-hashed|exact|kitty|semi|hier|codesign]\n"
               "              [--jobs N] [--input FILE] [--print-classes]\n"
               "              (hex tables on stdin by default; --jobs N runs the parallel\n"
               "               batch engine with N threads, 0 = all cores)\n"
               "  build-index --n N --out FILE.fcs [--input FILE] [--jobs N]\n"
               "              (classify a dataset and persist it as a class store)\n"
               "  lookup      --index FILE.fcs [<hex>...] [--input FILE] [--append] [--mmap]\n"
               "              [--flush] [--save[=FILE]] [--cache K]\n"
               "              (resolve functions; unknown classes classify live; --mmap\n"
               "               serves the index from a read-only mapping)\n"
               "  serve       (--index FILE.fcs | --route FILE.fcs [FILE.fcs...])\n"
               "              (--listen [HOST:]PORT and/or --unix PATH) [--mmap] [--cache K]\n"
               "              [--readonly] [--max-conns N] [--idle-timeout-ms T] [--workers N]\n"
               "              [--compact-after-runs K] [--compact-after-bytes B]\n"
               "              [--reload-poll-ms T] [--slow-us T] [--metrics-json FILE]\n"
               "              (socket server speaking protocol v2 frames — lookup | append\n"
               "               | stats | metrics | quit — over one store, or one store per\n"
               "               width with --route; --workers epoll loops (default =\n"
               "               hardware threads; Linux only) each run their connections'\n"
               "               frames to completion; port 0 binds an ephemeral port,\n"
               "               reported on stderr; appends flush to the index's delta log\n"
               "               when a session ends;\n"
               "               --readonly refuses appends;\n"
               "               --compact-after-* runs background compaction when a store's\n"
               "               delta runs / .dlog bytes cross the threshold;\n"
               "               --readonly --reload-poll-ms T re-stats the index every T ms\n"
               "               and re-opens it when the primary compacts (replica mode);\n"
               "               --slow-us T logs any request frame slower than T microseconds\n"
               "               to stderr; --metrics-json FILE dumps the registry as JSON on\n"
               "               exit; SIGINT/SIGTERM drain connections and flush before exit)\n"
               "  query       (--connect HOST:PORT | --unix PATH)\n"
               "              (lookup|append --width N <hex>... | stats | metrics)\n"
               "              (one request frame, then quit; prints `ok id=<id> src=<tier>\n"
               "               known=<k>` per operand (`miss` for a miss), the stats/metrics\n"
               "               text, and `ok bye flushed=<k>`; an err frame prints\n"
               "               `err <status>: <reason>` and exits 1)\n"
               "  fleet       --index FILE.fcs --listen HOST:PORT [--replicas N]\n"
               "              [--reload-poll-ms T] [--mmap] [--compact-after-runs K]\n"
               "              (writable primary on PORT + N forked --readonly replicas on\n"
               "               PORT+1..PORT+N, all over one store directory; replicas adopt\n"
               "               each compacted base the primary renames into place)\n"
               "  fcs-merge   --out MERGED.fcs FILE.fcs [FILE.fcs...]\n"
               "              (union same-width indexes: dedup by canonical form,\n"
               "               renumber by first occurrence)\n"
               "  compact     --index FILE.fcs\n"
               "              (merge the delta log back into the base segment)\n"
               "  signatures  --n N <hex>...\n"
               "  canon       --n N <hex>            (n <= 8)\n"
               "  match       --n N <hexA> <hexB>\n"
               "  dataset     --n N [--max-funcs K] [--seed S]\n"
               "  convert     (--to-binary|--to-ascii) <in> <out>\n";
}

}  // namespace

int main(int argc, char** argv)
{
  // Flags that never take a following-token value (use --flag=value for an
  // explicit one) — so `lookup --index s.fcs --append e8...` keeps the hex
  // operand positional, `serve --route a.fcs b.fcs` keeps the index paths
  // positional, and `convert --to-binary in out` keeps both paths.
  const CliArgs args{argc, argv,
                     {"append", "save", "print-classes", "to-binary", "to-ascii", "route", "mmap",
                      "flush", "readonly"}};
  if (args.positional().empty()) {
    print_usage();
    return 1;
  }
  const std::string& command = args.positional()[0];
  try {
    if (command == "classify") {
      return cmd_classify(args);
    }
    if (command == "build-index") {
      return cmd_build_index(args);
    }
    if (command == "lookup") {
      return cmd_lookup(args);
    }
    if (command == "serve") {
      return cmd_serve(args);
    }
    if (command == "query") {
      return cmd_query(args);
    }
    if (command == "fleet") {
      return cmd_fleet(args);
    }
    if (command == "fcs-merge") {
      return cmd_fcs_merge(args);
    }
    if (command == "compact") {
      return cmd_compact(args);
    }
    if (command == "signatures") {
      return cmd_signatures(args);
    }
    if (command == "canon") {
      return cmd_canon(args);
    }
    if (command == "match") {
      return cmd_match(args);
    }
    if (command == "dataset") {
      return cmd_dataset(args);
    }
    if (command == "convert") {
      return cmd_convert(args);
    }
    std::cerr << "error: unknown subcommand '" << command << "'\n\n";
    print_usage();
    return 1;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
