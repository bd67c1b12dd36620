/// library_classify: the paper's own use, `facet_cli classify --method fp`.
///
/// The deduplicated circuit-derived n = 8 set of make_circuit_dataset,
/// classified by BatchEngine{kFp} on 2 threads with the memo cleared before
/// every pass. The signature layer (MSV construction) and the engine's
/// sharding and worker pool do almost all the work; there is no store and
/// no socket. An offline batch: a request is one whole pass.

#include <algorithm>
#include <memory>
#include <sstream>

#include "facet/facet.hpp"
#include "harness.hpp"

namespace perfbench {

using namespace facet;

namespace {

constexpr int kWidth = 8;
constexpr std::size_t kThreads = 2;
/// Unstolen untraced passes a run waits for before it ends.
constexpr std::size_t kWantClean = 5;
constexpr std::size_t kSetupsPerCpu = 5;

volatile std::uint64_t g_sink = 0;

}  // namespace

Report run_library_classify(const Args& args)
{
  Report report;
  CircuitDatasetOptions dataset_options;
  dataset_options.max_functions = args.smoke ? 1500 : 0;
  const std::vector<TruthTable> funcs = make_circuit_dataset(kWidth, dataset_options);
  const double n = static_cast<double>(funcs.size());

  // Oracles: the sequential classifier the engine must reproduce bit for
  // bit, and the exact class count the accuracy is measured against.
  const ClassificationResult sequential = classify_fp(funcs);
  const std::size_t exact_classes = classify_exact(funcs).num_classes;

  // Set-up, repeated: what `facet_cli classify` does before classifying —
  // decode the input set from its hex text and construct the engine
  // (worker pool and shard state). The decoded set is checked against the
  // generated one.
  std::string text;
  for (const TruthTable& f : funcs) {
    text += to_hex(f);
    text += '\n';
  }
  BatchEngineOptions options;
  options.num_threads = kThreads;
  std::unique_ptr<BatchEngine> engine;
  std::istringstream input;
  std::vector<TruthTable> decoded;
  bool decoded_ok = true;
  const double setup_s = timed_setups(
      args.smoke ? 1 : kSetupsPerCpu,
      [&] {
        decoded_ok = decoded_ok && (decoded.empty() || decoded == funcs);
        decoded = {};
        engine.reset();
        input = std::istringstream{text};
      },
      [&] {
        decoded = read_hex_functions(kWidth, input);
        engine = std::make_unique<BatchEngine>(ClassifierKind::kFp, options);
      });
  report.gate(decoded_ok && decoded == funcs,
              "library_classify input did not decode to the generated set");

  // One pass: clear_cache, classify, and the bit-identity check. A traced
  // run alternates untraced and traced passes, so the tracing overhead
  // compares like with like while the machine's speed drifts; each of its
  // first three traced passes is followed by the replay of the lower
  // layers on the same input: sequential classify_fp, then build_msv.
  BatchEngineStats stats;
  std::uint64_t sink = 0;
  std::vector<double> pass_s;
  std::vector<double> pass_steal;
  std::vector<double> traced_s;
  std::vector<double> seq_s;
  std::vector<double> msv_s;
  const auto pass = [&](std::size_t request, bool trace) {
    const std::uint64_t t_pass = now_ns();
    const CpuTicks ticks = cpu_ticks();
    engine->clear_cache();
    const std::uint64_t t0 = now_ns();
    const ClassificationResult result = engine->classify(funcs, &stats);
    const std::uint64_t t1 = now_ns();
    std::uint64_t wrong = 0;
    for (std::size_t i = 0; i < funcs.size(); ++i) {
      wrong += result.class_of[i] == sequential.class_of[i] ? 0 : 1;
    }
    report.attempted += funcs.size();
    report.failed += wrong;
    report.gate(result.num_classes == sequential.num_classes,
                "library_classify engine class count differs from sequential classify_fp");
    const double seconds = static_cast<double>(t1 - t0) * 1e-9;
    if (!trace) {
      pass_s.push_back(seconds);
      pass_steal.push_back(steal_share(ticks, cpu_ticks()));
      return;
    }
    traced_s.push_back(seconds);
    report.spans.push_back({"pass", t_pass, now_ns(), request});
    report.spans.push_back({"engine", t0, t1, request});
    if (seq_s.size() < 3) {
      std::uint64_t t2 = now_ns();
      sink += classify_fp(funcs).num_classes;
      std::uint64_t t3 = now_ns();
      report.spans.push_back({"fp", t2, t3, request});
      seq_s.push_back(static_cast<double>(t3 - t2) * 1e-9);
      t2 = now_ns();
      for (const TruthTable& f : funcs) {
        sink += build_msv(f, SignatureConfig::all()).size();
      }
      t3 = now_ns();
      report.spans.push_back({"msv", t2, t3, request});
      msv_s.push_back(static_cast<double>(t3 - t2) * 1e-9);
    }
  };
  pass(0, false);  // warm-up: first-touch allocation of the shard state
  pass_s.clear();
  pass_steal.clear();

  // The window lasts --seconds and goes on, up to twice as long, until
  // kWantClean untraced passes ran unstolen; the figures cover those.
  const std::size_t min_passes = args.trace ? 2 : (args.smoke ? 1 : 3);
  const std::size_t want_clean = args.trace || args.smoke ? 0 : kWantClean;
  std::size_t requests = 0;
  std::size_t clean = 0;
  const std::uint64_t t_window = now_ns();
  for (;;) {
    const double elapsed = static_cast<double>(now_ns() - t_window) * 1e-9;
    if (requests >= min_passes && elapsed >= args.seconds &&
        (clean >= want_clean || elapsed >= 2 * args.seconds)) {
      break;
    }
    pass(requests, args.trace && requests % 2 == 1);
    ++requests;
    clean = static_cast<std::size_t>(std::count_if(
        pass_steal.begin(), pass_steal.end(), [](double steal) { return steal <= kMaxStealShare; }));
  }
  g_sink = sink;
  const std::vector<std::size_t> chosen = undisturbed(pass_steal, kWantClean);
  std::vector<double> rates;
  std::vector<double> chosen_s;
  for (const std::size_t i : chosen) {
    rates.push_back(n / pass_s[i]);
    chosen_s.push_back(pass_s[i]);
  }
  const double ops_per_s = median(rates);

  report.add_shape("seed", std::to_string(args.seed));
  report.add_shape("operands", std::to_string(funcs.size()));
  report.add_shape("width_histogram", json_histogram({{kWidth, funcs.size()}}));
  report.add_shape("distinct_functions", std::to_string(funcs.size()));
  report.add_shape("distinct_classes", std::to_string(exact_classes));
  report.add_shape("fp_classes", std::to_string(sequential.num_classes));
  report.add_shape("clients", "1");
  report.add_shape("workers", "0");
  report.add_shape("threads", std::to_string(kThreads));
  report.add_shape("nproc", std::to_string(nproc()));
  report.add_shape("hot_cache_capacity", "0");
  report.add_shape("memo_capacity", "0");
  report.add_shape("passes", std::to_string(requests));
  report.add_shape("passes_reported", std::to_string(chosen.size()));
  report.add_shape("latency_samples", std::to_string(chosen_s.size()));
  report.add_shape("whole_run_p50_us", json_number(quantile(pass_s, 0.50) * 1e6));
  report.add_shape("whole_run_p99_us", json_number(quantile(pass_s, 0.99) * 1e6));

  if (!args.trace) {
    report.set("ops_per_s", ops_per_s, "ops/s");
    report.set("request_p50_us", quantile(chosen_s, 0.50) * 1e6, "us");
    report.set("request_p99_us", quantile(chosen_s, 0.99) * 1e6, "us");
    report.set("setup_s", setup_s, "s");
    report.set("peak_rss_mib", peak_rss_mib(), "MiB");
    report.set("accuracy",
               static_cast<double>(exact_classes) / static_cast<double>(sequential.num_classes),
               "ratio");
    return report;
  }

  // ---- traced run: BatchEngine::classify -> classify_fp -> build_msv ---------
  std::vector<double> traced_rates;
  for (const double s : traced_s) {
    traced_rates.push_back(n / s);
  }
  std::vector<LayerRow> rows = ladder_table(report.spans, {"pass", "engine", "fp", "msv"},
                                            std::vector<std::size_t>(requests, funcs.size()));
  const double traced_ns_per_op = rows.front().span_ns_per_op;
  rows.erase(rows.begin());  // the pass row becomes the residual: clear_cache and the check
  const double par = median(traced_s);
  const double seq = median(seq_s);
  report.set("engine.seq_s", seq, "s");
  report.set("engine.par_s", par, "s");
  report.set("engine.parallel_eff", seq / (par * static_cast<double>(kThreads)), "ratio");
  report.set("engine.max_shard_share", static_cast<double>(stats.max_shard_size) / n, "ratio");
  const std::size_t lookups = stats.cache_hits + stats.cache_misses;
  report.set("engine.memo_hit_ratio",
             lookups > 0 ? static_cast<double>(stats.cache_hits) / static_cast<double>(lookups) : 0.0,
             "ratio");
  report.set("sig.msv_ns", median(msv_s) * 1e9 / n, "ns");
  finish_trace(report, std::move(rows), traced_ns_per_op, ops_per_s, median(traced_rates));
  fill_idle_layers(report);
  return report;
}

}  // namespace perfbench
