/// \file harness.hpp
/// \brief Shared pieces of the benchmark of record: run arguments, the
///        metric report, in-memory spans and the ladder table, the v2
///        socket client, and small statistics helpers.
///
/// Every layer is timed from outside, by calling its public functions; the
/// benchmark adds no instrumentation to the library.

#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "facet/net/frame.hpp"
#include "facet/net/socket.hpp"

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Tiny inputs and short windows: the benchmark's own test.
  bool smoke = false;
  /// Index files and other scratch the workloads write.
  std::string work_dir = ".";
  /// Where the result file (shape, metrics, layer table, spans) lands.
  std::string out_dir = ".";
};

/// One timed interval at a layer boundary. Spans of one request share
/// `request`; the replayed layers of the ladder reuse the request ids of
/// the end-to-end run, so a layer's self time is its span minus the
/// next-lower layer's span over the same request.
struct Span {
  const char* layer = "";
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint64_t request = 0;
};

/// One row of the per-layer table: mean span and self time per operand.
struct LayerRow {
  std::string layer;
  double span_ns_per_op = 0;
  double self_ns_per_op = 0;
};

/// Per-layer self times over the requests every layer covered. `layers`
/// runs top to bottom; `ops_of[r]` is request r's operand count. Each
/// layer's per-operand span is the sum over requests of the mean span per
/// request, divided by the operands of those requests; self time is that
/// minus the next-lower layer's. The rows telescope to the top layer's span.
[[nodiscard]] std::vector<LayerRow> ladder_table(const std::vector<Span>& spans,
                                                 const std::vector<std::string>& layers,
                                                 const std::vector<std::size_t>& ops_of);

/// The per-operand span of `layer` in `rows`; 0 when absent.
[[nodiscard]] double span_per_op(const std::vector<LayerRow>& rows, const std::string& layer);

/// Everything one run reports. `metrics` holds the end-to-end set on an
/// untraced run and the per-layer set on a traced one.
struct Report {
  std::map<std::string, std::pair<double, std::string>> metrics;
  /// Workload-shape entries, each a JSON value rendered as text.
  std::vector<std::pair<std::string, std::string>> shape;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Hard-gate violations (exact counts that must hold), one line each.
  std::vector<std::string> gate_failures;
  std::vector<LayerRow> layers;
  double traced_ns_per_op = 0;
  std::vector<Span> spans;

  void set(const std::string& name, double value, const std::string& unit)
  {
    metrics[name] = {value, unit};
  }
  void add_shape(const std::string& key, const std::string& json) { shape.emplace_back(key, json); }
  void gate(bool ok, const std::string& what)
  {
    if (!ok) {
      gate_failures.push_back(what);
    }
  }
  [[nodiscard]] bool correct() const { return failed == 0 && gate_failures.empty(); }
};

/// The per-layer metric names every traced run prints (0 where the layer
/// does no work on that workload), with their units.
[[nodiscard]] const std::vector<std::pair<std::string, std::string>>& per_layer_metrics();

/// Sets every per-layer metric the workload did not measure to 0.
void fill_idle_layers(Report& report);

/// Appends the traced-run rows: the ladder table, the residual that makes
/// the rows sum to `traced_ns_per_op`, and the tracing overhead.
void finish_trace(Report& report, std::vector<LayerRow> rows, double traced_ns_per_op,
                  double untraced_ops_per_s, double traced_ops_per_s);

/// Writes the result file and prints the human-readable summary followed
/// by the one-line JSON result on stdout. Returns whether the run was
/// correct (a non-finite metric also makes it incorrect).
[[nodiscard]] bool emit(const Args& args, const Report& report);

// ---------------------------------------------------------------------------
// Statistics.

[[nodiscard]] double median(std::vector<double> values);
/// Nearest-rank quantile (0 < q <= 1) of `values`.
template <typename T>
[[nodiscard]] double quantile(std::vector<T> values, double q)
{
  if (values.empty()) {
    return 0.0;
  }
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const auto index = static_cast<std::ptrdiff_t>(
      std::clamp(rank, 1.0, static_cast<double>(values.size())) - 1);
  std::nth_element(values.begin(), values.begin() + index, values.end());
  return static_cast<double>(values[static_cast<std::size_t>(index)]);
}

/// Round-trip times in ns, bucketed log-linearly (128 buckets per octave,
/// each under 0.8% wide) in fixed memory, so a window's percentiles cover
/// every one of its samples while memory does not grow with throughput.
class LatencyHistogram {
 public:
  void add(std::uint64_t ns)
  {
    ++counts_[index(ns)];
    ++total_;
  }
  void merge(const LatencyHistogram& other)
  {
    for (std::size_t i = 0; i < counts_.size(); ++i) {
      counts_[i] += other.counts_[i];
    }
    total_ += other.total_;
  }
  [[nodiscard]] std::uint64_t count() const { return total_; }
  /// Nearest-rank quantile (0 < q <= 1), interpolated inside its bucket.
  [[nodiscard]] double quantile(double q) const;

 private:
  static constexpr int kSubBits = 7;
  static std::size_t index(std::uint64_t ns);
  std::vector<std::uint64_t> counts_ = std::vector<std::uint64_t>((64 - kSubBits + 1) << kSubBits);
  std::uint64_t total_ = 0;
};

// ---------------------------------------------------------------------------
// Host steal.

/// The machine's cumulative CPU time from /proc/stat, in clock ticks: all
/// states together, and steal, the time a vCPU was ready to run while the
/// hypervisor ran another guest. Both 0 where /proc/stat is unreadable.
struct CpuTicks {
  double total = 0;
  double steal = 0;
};
[[nodiscard]] CpuTicks cpu_ticks();

/// Share of the machine's CPU time stolen between two readings.
[[nodiscard]] double steal_share(const CpuTicks& from, const CpuTicks& to);

/// Intervals whose steal share is above this were slowed by other guests
/// on the host, not by the program: on the reference machine, 1 s
/// intervals with 10-30% steal ran cut_stream at a fifth to two thirds of
/// its unstolen rate.
constexpr double kMaxStealShare = 0.0125;

/// The intervals a run reports, chosen by steal share alone, never by the
/// measured value: every one within kMaxStealShare when at least `count`
/// are, otherwise the `count` least stolen.
[[nodiscard]] std::vector<std::size_t> undisturbed(const std::vector<double>& steal,
                                                   std::size_t count);

/// The set-up figure. The vCPUs of a shared host run at different speeds
/// (on the reference machine one ran the cut_stream set-up 60% slower than
/// another in the same minute), so the calling thread is pinned to each
/// allowed CPU in turn. On each it runs `reset` untimed and then `setup`
/// timed, until `per_cpu` set-ups were unstolen (at most 4 × `per_cpu`). The figure is the median of the
/// set-ups undisturbed() picks, on the CPU where that median is lowest. A
/// final unpinned reset and set-up then builds the instance the run uses,
/// so the threads it starts may run on every CPU.
[[nodiscard]] double timed_setups(std::size_t per_cpu, const std::function<void()>& reset,
                                  const std::function<void()>& setup);

// ---------------------------------------------------------------------------
// Output and the process.

/// JSON text of a number with all its digits.
[[nodiscard]] std::string json_number(double value);
[[nodiscard]] double peak_rss_mib();
[[nodiscard]] std::uint64_t file_bytes(const std::string& path);
[[nodiscard]] unsigned nproc();

/// JSON text of a map from small integers to counts (histograms).
[[nodiscard]] std::string json_histogram(const std::map<int, std::size_t>& histogram);

// ---------------------------------------------------------------------------
// Protocol v2 client.

/// One blocking loopback connection speaking protocol v2. Requests are
/// pre-encoded; a round trip writes one frame and reads one response frame.
class V2Client {
 public:
  explicit V2Client(std::uint16_t port);

  /// Sends `request` and reads the response into `header`/`payload`.
  /// False on a transport error or a malformed response header.
  bool round_trip(const std::string& request, facet::FrameHeader& header, std::string& payload);

 private:
  facet::Socket socket_;
};

/// class_id / src of record `i` of an ok lookup/append response payload.
[[nodiscard]] std::uint32_t record_class_id(const std::string& payload, std::size_t i);
[[nodiscard]] std::uint8_t record_src(const std::string& payload, std::size_t i);

// ---------------------------------------------------------------------------
// Workloads.

[[nodiscard]] Report run_cut_stream(const Args& args);
[[nodiscard]] Report run_library_classify(const Args& args);

}  // namespace perfbench
