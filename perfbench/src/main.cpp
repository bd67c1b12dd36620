/// facet_perfbench: the benchmark of record.
///
///   facet_perfbench --workload cut_stream|library_classify
///                   --seed N --seconds S --trace 0|1
///                   [--smoke] [--work-dir DIR] [--out-dir DIR]
///
/// Prints a human-readable summary and, as its last stdout line, one JSON
/// object {correct, attempted, failed, metrics}: the end-to-end metrics
/// with --trace 0, the per-layer metrics with --trace 1. The full result
/// (workload shape, metrics, layer table, spans) is written to
/// <out-dir>/<workload>_seed<N>_trace<T>.json. Exits 1 when any operand
/// failed its oracle check or an exact-count gate failed, 2 on bad usage.

#include <exception>
#include <iostream>
#include <string>

#include "harness.hpp"

int main(int argc, char** argv)
{
  perfbench::Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const bool has_value = i + 1 < argc;
    if (flag == "--smoke") {
      args.smoke = true;
    } else if (flag == "--workload" && has_value) {
      args.workload = argv[++i];
    } else if (flag == "--seed" && has_value) {
      args.seed = std::stoull(argv[++i]);
    } else if (flag == "--seconds" && has_value) {
      args.seconds = std::stod(argv[++i]);
    } else if (flag == "--trace" && has_value) {
      args.trace = std::string{argv[++i]} == "1";
    } else if (flag == "--work-dir" && has_value) {
      args.work_dir = argv[++i];
    } else if (flag == "--out-dir" && has_value) {
      args.out_dir = argv[++i];
    } else {
      std::cerr << "facet_perfbench: unknown or incomplete argument " << flag << "\n";
      return 2;
    }
  }
  if (!(args.seconds > 0)) {
    std::cerr << "facet_perfbench: --seconds must be positive\n";
    return 2;
  }

  try {
    perfbench::Report report;
    if (args.workload == "cut_stream") {
      report = perfbench::run_cut_stream(args);
    } else if (args.workload == "library_classify") {
      report = perfbench::run_library_classify(args);
    } else {
      std::cerr << "facet_perfbench: unknown workload '" << args.workload << "'\n";
      return 2;
    }
    return perfbench::emit(args, report) ? 0 : 1;
  } catch (const std::exception& error) {
    std::cerr << "facet_perfbench: " << error.what() << "\n";
    return 1;
  }
}
