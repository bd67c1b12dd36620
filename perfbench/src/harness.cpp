#include "harness.hpp"

#include "facet/util/timer.hpp"

#include <sched.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/stat.h>

#include <algorithm>
#include <bit>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <limits>
#include <stdexcept>
#include <numeric>
#include <sstream>
#include <thread>
#include <unordered_map>

namespace perfbench {

using namespace facet;

namespace {

std::string number(double value)
{
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

std::string quoted(const std::string& text)
{
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
    }
    out += (c == '\n' ? ' ' : c);
  }
  return out + "\"";
}

/// Median of `values[i]` over the indices `chosen`.
double median_of(const std::vector<double>& values, const std::vector<std::size_t>& chosen)
{
  std::vector<double> picked;
  for (const std::size_t i : chosen) {
    picked.push_back(values[i]);
  }
  return median(std::move(picked));
}

}  // namespace

std::vector<LayerRow> ladder_table(const std::vector<Span>& spans,
                                   const std::vector<std::string>& layers,
                                   const std::vector<std::size_t>& ops_of)
{
  // (layer index, request) -> (sum of durations, number of spans)
  std::vector<std::unordered_map<std::uint64_t, std::pair<double, std::size_t>>> per_layer(
      layers.size());
  for (const Span& span : spans) {
    const auto it = std::find(layers.begin(), layers.end(), span.layer);
    if (it == layers.end() || span.request >= ops_of.size()) {
      continue;
    }
    auto& slot = per_layer[static_cast<std::size_t>(it - layers.begin())][span.request];
    slot.first += static_cast<double>(span.end_ns - span.start_ns);
    ++slot.second;
  }
  std::vector<LayerRow> rows;
  if (layers.empty()) {
    return rows;
  }
  std::vector<std::uint64_t> common;
  for (const auto& [request, slot] : per_layer.front()) {
    bool everywhere = true;
    for (const auto& layer : per_layer) {
      everywhere = everywhere && layer.count(request) != 0;
    }
    if (everywhere) {
      common.push_back(request);
    }
  }
  double ops = 0;
  for (const std::uint64_t request : common) {
    ops += static_cast<double>(ops_of[request]);
  }
  for (std::size_t l = 0; l < layers.size(); ++l) {
    double total = 0;
    for (const std::uint64_t request : common) {
      const auto& [sum, count] = per_layer[l].at(request);
      total += sum / static_cast<double>(count);
    }
    rows.push_back({layers[l], ops > 0 ? total / ops : 0.0, 0.0});
  }
  for (std::size_t l = 0; l < rows.size(); ++l) {
    const double below = l + 1 < rows.size() ? rows[l + 1].span_ns_per_op : 0.0;
    rows[l].self_ns_per_op = rows[l].span_ns_per_op - below;
  }
  return rows;
}

double span_per_op(const std::vector<LayerRow>& rows, const std::string& layer)
{
  for (const LayerRow& row : rows) {
    if (row.layer == layer) {
      return row.span_ns_per_op;
    }
  }
  return 0.0;
}

const std::vector<std::pair<std::string, std::string>>& per_layer_metrics()
{
  static const std::vector<std::pair<std::string, std::string>> metrics = {
      {"npn.table_ns", "ns"},
      {"npn.canon_ns.w5", "ns"},
      {"npn.canon_ns.w6", "ns"},
      {"npn.canonicalizations", "count"},
      {"sig.msv_ns", "ns"},
      {"engine.seq_s", "s"},
      {"engine.par_s", "s"},
      {"engine.parallel_eff", "ratio"},
      {"engine.max_shard_share", "ratio"},
      {"engine.memo_hit_ratio", "ratio"},
      {"store.lookup_ns", "ns"},
      {"store.cold_lookup_ns", "ns"},
      {"store.tier.table", "ratio"},
      {"store.tier.cache", "ratio"},
      {"store.tier.memo", "ratio"},
      {"store.tier.index", "ratio"},
      {"store.tier.live", "ratio"},
      {"store.tier.miss", "ratio"},
      {"store.cache_hit_ratio", "ratio"},
      {"store.memo_hit_ratio", "ratio"},
      {"store.memo_bypassed", "ratio"},
      {"store.disk_bytes_per_class", "B/class"},
      {"store.dispatch_ns", "ns"},
      {"net.frame_ns", "ns"},
      {"net.socket_us", "us"},
      {"net.worker_busy_share", "ratio"},
      {"net.tasks_per_request", "ratio"},
      {"trace.op_ns", "ns"},
      {"trace.residual_ns", "ns"},
      {"trace.overhead", "ratio"},
  };
  return metrics;
}

void fill_idle_layers(Report& report)
{
  for (const auto& [name, unit] : per_layer_metrics()) {
    if (report.metrics.count(name) == 0) {
      report.set(name, 0.0, unit);
    }
  }
}

void finish_trace(Report& report, std::vector<LayerRow> rows, double traced_ns_per_op,
                  double untraced_ops_per_s, double traced_ops_per_s)
{
  const double top = rows.empty() ? 0.0 : rows.front().span_ns_per_op;
  rows.push_back({"residual", traced_ns_per_op - top, traced_ns_per_op - top});
  report.layers = std::move(rows);
  report.traced_ns_per_op = traced_ns_per_op;
  report.set("trace.op_ns", traced_ns_per_op, "ns");
  report.set("trace.residual_ns", traced_ns_per_op - top, "ns");
  report.set("trace.overhead",
             traced_ops_per_s > 0 ? untraced_ops_per_s / traced_ops_per_s - 1.0 : 0.0, "ratio");
}

bool emit(const Args& args, const Report& report)
{
  Report out = report;
  for (auto& [name, metric] : out.metrics) {
    if (!std::isfinite(metric.first)) {
      out.gate_failures.push_back("metric " + name + " is not finite");
      metric.first = 0;
    }
  }
  const bool correct = out.correct();

  std::ostringstream metrics;
  metrics << "{";
  bool first = true;
  for (const auto& [name, metric] : out.metrics) {
    metrics << (first ? "" : ", ") << quoted(name) << ": {\"value\": " << number(metric.first)
            << ", \"unit\": " << quoted(metric.second) << "}";
    first = false;
  }
  metrics << "}";

  const std::string path = args.out_dir + "/" + args.workload + "_seed" +
                           std::to_string(args.seed) + "_trace" + (args.trace ? "1" : "0") +
                           ".json";
  {
    std::ofstream file{path, std::ios::trunc};
    file << "{\n  \"workload\": " << quoted(args.workload) << ",\n  \"seed\": " << args.seed
         << ",\n  \"trace\": " << (args.trace ? 1 : 0) << ",\n  \"seconds\": "
         << number(args.seconds) << ",\n  \"correct\": " << (correct ? "true" : "false")
         << ",\n  \"attempted\": " << out.attempted << ",\n  \"failed\": " << out.failed
         << ",\n  \"gate_failures\": [";
    for (std::size_t i = 0; i < out.gate_failures.size(); ++i) {
      file << (i == 0 ? "" : ", ") << quoted(out.gate_failures[i]);
    }
    file << "],\n  \"shape\": {";
    for (std::size_t i = 0; i < out.shape.size(); ++i) {
      file << (i == 0 ? "" : ", ") << quoted(out.shape[i].first) << ": " << out.shape[i].second;
    }
    file << "},\n  \"metrics\": " << metrics.str() << ",\n  \"layers\": [";
    for (std::size_t i = 0; i < out.layers.size(); ++i) {
      const LayerRow& row = out.layers[i];
      file << (i == 0 ? "" : ", ") << "{\"layer\": " << quoted(row.layer)
           << ", \"span_ns_per_op\": " << number(row.span_ns_per_op)
           << ", \"self_ns_per_op\": " << number(row.self_ns_per_op) << "}";
    }
    file << "],\n  \"traced_ns_per_op\": " << number(out.traced_ns_per_op)
         << ",\n  \"spans\": [";
    const std::uint64_t origin =
        out.spans.empty()
            ? 0
            : std::min_element(out.spans.begin(), out.spans.end(),
                               [](const Span& a, const Span& b) { return a.start_ns < b.start_ns; })
                  ->start_ns;
    for (std::size_t i = 0; i < out.spans.size(); ++i) {
      const Span& span = out.spans[i];
      file << (i == 0 ? "\n    " : ",\n    ") << "{\"name\": " << quoted(span.layer)
           << ", \"start_ns\": " << span.start_ns - origin
           << ", \"end_ns\": " << span.end_ns - origin << ", \"request\": " << span.request
           << "}";
    }
    file << "\n  ]\n}\n";
  }

  std::cout << "workload " << args.workload << " seed " << args.seed << " trace "
            << (args.trace ? 1 : 0) << "\n";
  for (const auto& [key, json] : out.shape) {
    std::cout << "  shape  " << key << " = " << json << "\n";
  }
  for (const auto& [name, metric] : out.metrics) {
    std::cout << "  metric " << name << " = " << number(metric.first) << " " << metric.second
              << "\n";
  }
  if (!out.layers.empty()) {
    std::cout << "  per-layer self time per operand (traced run, " << out.spans.size()
              << " spans):\n";
    double sum = 0;
    for (const LayerRow& row : out.layers) {
      char line[160];
      std::snprintf(line, sizeof line, "    %-10s span %14.1f ns   self %14.1f ns\n",
                    row.layer.c_str(), row.span_ns_per_op, row.self_ns_per_op);
      std::cout << line;
      sum += row.self_ns_per_op;
    }
    char line[160];
    std::snprintf(line, sizeof line, "    %-10s                        sum  %14.1f ns (traced %.1f ns/op)\n",
                  "total", sum, out.traced_ns_per_op);
    std::cout << line;
  }
  for (const std::string& failure : out.gate_failures) {
    std::cout << "  GATE FAILED: " << failure << "\n";
  }
  std::cout << "  result file " << path << "\n";
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << out.attempted << ", \"failed\": " << out.failed
            << ", \"metrics\": " << metrics.str() << "}" << std::endl;
  return correct;
}

double median(std::vector<double> values)
{
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid] : 0.5 * (values[mid - 1] + values[mid]);
}

std::size_t LatencyHistogram::index(std::uint64_t ns)
{
  constexpr std::uint64_t kSub = std::uint64_t{1} << kSubBits;
  if (ns < kSub) {
    return static_cast<std::size_t>(ns);
  }
  const int shift = 63 - std::countl_zero(ns) - kSubBits;
  return (static_cast<std::size_t>(shift + 1) << kSubBits) + static_cast<std::size_t>((ns >> shift) - kSub);
}

double LatencyHistogram::quantile(double q) const
{
  if (total_ == 0) {
    return 0.0;
  }
  const double rank =
      std::clamp(std::ceil(q * static_cast<double>(total_)), 1.0, static_cast<double>(total_));
  double below = 0;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    const auto count = static_cast<double>(counts_[i]);
    if (below + count < rank) {
      below += count;
      continue;
    }
    const std::size_t octave = i >> kSubBits;
    const double width = octave == 0 ? 1.0 : std::ldexp(1.0, static_cast<int>(octave) - 1);
    const double lower =
        octave == 0 ? static_cast<double>(i)
                    : static_cast<double>((i & ((std::size_t{1} << kSubBits) - 1)) + (std::size_t{1} << kSubBits)) * width;
    return lower + (rank - below - 0.5) / count * width;
  }
  return 0.0;
}

CpuTicks cpu_ticks()
{
  std::ifstream in{"/proc/stat"};
  std::string label;
  in >> label;
  CpuTicks ticks;
  if (label != "cpu") {
    return ticks;
  }
  // user nice system idle iowait irq softirq steal (guest time is inside user)
  for (int field = 0; field < 8; ++field) {
    double value = 0;
    if (!(in >> value)) {
      return CpuTicks{};
    }
    ticks.total += value;
    if (field == 7) {
      ticks.steal = value;
    }
  }
  return ticks;
}

double steal_share(const CpuTicks& from, const CpuTicks& to)
{
  const double total = to.total - from.total;
  return total > 0 ? (to.steal - from.steal) / total : 0.0;
}

std::vector<std::size_t> undisturbed(const std::vector<double>& steal, std::size_t count)
{
  std::vector<std::size_t> chosen;
  for (std::size_t i = 0; i < steal.size(); ++i) {
    if (steal[i] <= kMaxStealShare) {
      chosen.push_back(i);
    }
  }
  if (chosen.size() >= std::min(count, steal.size())) {
    return chosen;
  }
  chosen.resize(steal.size());
  std::iota(chosen.begin(), chosen.end(), std::size_t{0});
  std::stable_sort(chosen.begin(), chosen.end(),
                   [&](std::size_t a, std::size_t b) { return steal[a] < steal[b]; });
  chosen.resize(count);
  std::sort(chosen.begin(), chosen.end());
  return chosen;
}

double timed_setups(std::size_t per_cpu, const std::function<void()>& reset,
                    const std::function<void()>& setup)
{
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) {
    throw std::runtime_error{"sched_getaffinity failed"};
  }
  double best = std::numeric_limits<double>::infinity();
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &allowed)) {
      continue;
    }
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    if (sched_setaffinity(0, sizeof one, &one) != 0) {
      continue;
    }
    std::vector<double> seconds;
    std::vector<double> steal;
    for (std::size_t clean = 0; clean < per_cpu && seconds.size() < 4 * per_cpu;) {
      reset();
      const CpuTicks ticks = cpu_ticks();
      const std::uint64_t t0 = now_ns();
      setup();
      seconds.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
      steal.push_back(steal_share(ticks, cpu_ticks()));
      clean += steal.back() <= kMaxStealShare ? 1 : 0;
    }
    best = std::min(best, median_of(seconds, undisturbed(steal, per_cpu)));
  }
  if (sched_setaffinity(0, sizeof allowed, &allowed) != 0) {
    throw std::runtime_error{"sched_setaffinity failed"};
  }
  reset();
  setup();
  return best;
}

std::string json_number(double value)
{
  return number(value);
}

double peak_rss_mib()
{
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

std::uint64_t file_bytes(const std::string& path)
{
  struct stat info{};
  return ::stat(path.c_str(), &info) == 0 ? static_cast<std::uint64_t>(info.st_size) : 0;
}

unsigned nproc()
{
  return std::max(1u, std::thread::hardware_concurrency());
}

std::string json_histogram(const std::map<int, std::size_t>& histogram)
{
  std::string out = "{";
  for (const auto& [key, count] : histogram) {
    out += (out.size() > 1 ? ", \"" : "\"") + std::to_string(key) + "\": " + std::to_string(count);
  }
  return out + "}";
}

// ---------------------------------------------------------------------------

V2Client::V2Client(std::uint16_t port) : socket_{connect_tcp({"127.0.0.1", port})} {}

bool V2Client::round_trip(const std::string& request, FrameHeader& header, std::string& payload)
{
  std::size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t n = ::send(socket_.fd(), request.data() + sent, request.size() - sent, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) {
      continue;
    }
    if (n <= 0) {
      return false;
    }
    sent += static_cast<std::size_t>(n);
  }
  const auto read_exact = [&](char* data, std::size_t size) {
    std::size_t got = 0;
    while (got < size) {
      const ssize_t n = ::recv(socket_.fd(), data + got, size - got, 0);
      if (n < 0 && errno == EINTR) {
        continue;
      }
      if (n <= 0) {
        return false;
      }
      got += static_cast<std::size_t>(n);
    }
    return true;
  };
  unsigned char head[kFrameHeaderBytes];
  if (!read_exact(reinterpret_cast<char*>(head), sizeof head)) {
    return false;
  }
  header = decode_header(head);
  if (header.magic != kFrameResponseMagic || header.payload_bytes > kMaxFramePayloadBytes) {
    return false;
  }
  payload.resize(header.payload_bytes);
  return read_exact(payload.data(), payload.size());
}

std::uint32_t record_class_id(const std::string& payload, std::size_t i)
{
  return read_u32(reinterpret_cast<const unsigned char*>(payload.data()) + 4 + 8 * i);
}

std::uint8_t record_src(const std::string& payload, std::size_t i)
{
  return static_cast<std::uint8_t>(payload[4 + 8 * i + 5]);
}

}  // namespace perfbench
