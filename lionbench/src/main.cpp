// lionbench — the LION end-to-end benchmark.
//
//   lionbench --workload batch_fleet|serve_mixed|serve_ingest --seed N
//             --seconds S --trace 0|1 --served PATH --workdir DIR
//             [--size full|tiny] [--drop-responses N]
//
// --trace 0 runs the workload untraced and prints its end-to-end metrics;
// --trace 1 replays the same generated inputs through each layer's public
// entry points with spans and prints the per-layer metrics (the serve
// workloads also run their untraced TCP pass first, for the figures only
// a live daemon gives). Both print a human-readable table and end with one
// JSON line {"correct", "attempted", "failed", "metrics"}. The exit status
// is 0 only when every correctness check passed and no operation failed.
// Normally started through lionbench/run.py, which builds this binary.

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <string>
#include <vector>

#include "workloads.hpp"

namespace {

using namespace lionbench;

/// End-to-end metrics of the JSON line: every workload measures each one
/// (see lionbench/benchmark_record.json for what each means per workload).
/// Tail percentiles are printed in the table only: on a shared 4-vCPU
/// machine their run-to-run spread is too wide to gate on.
const std::vector<std::string> kEndToEnd = {"setup_s", "peak_rss_mb",
                                            "throughput_per_s",
                                            "latency_p50_ms"};

const std::vector<std::string> kPerLayer = {
    "signal.preprocess_ms",     "core.calibrate_ms_p50",
    "core.calibrate_ms_p90",    "core.adaptive_ms",
    "core.adaptive_self_ms",    "core.cell_solve_ms",
    "core.radical_ms",          "core.ransac_ms",
    "linalg.irls_ms",           "core.radical_rows",
    "core.ransac_iterations",   "core.ransac_consensus_share",
    "linalg.irls_iterations",   "core.cells_usable_share",
    "core.cells_selected_share", "engine.steals",
    "engine.job_latency_p50_ms", "engine.idle_share",
    "io.report_json_us",        "serve.chunk_decode_ns",
    "serve.parse_line_ns",      "serve.ingest_line_ns",
    "serve.journal_ns_per_read", "serve.journal_bytes_per_read",
    "serve.journal_fsyncs",     "bench.tracing_overhead_pct"};

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "error: %s\nusage: lionbench --workload "
               "batch_fleet|serve_mixed|serve_ingest --seed N --seconds S "
               "--trace 0|1 --served PATH --workdir DIR [--size full|tiny] "
               "[--drop-responses N]\n",
               msg);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string v = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      opt.workload = v;
    } else if (flag == "--seed") {
      opt.seed = std::strtoull(v.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      opt.seconds = std::strtod(v.c_str(), &end);
    } else if (flag == "--trace") {
      opt.trace = std::strtol(v.c_str(), &end, 10) != 0;
    } else if (flag == "--served") {
      opt.served = v;
    } else if (flag == "--workdir") {
      opt.workdir = v;
    } else if (flag == "--size") {
      if (v != "full" && v != "tiny") usage("--size is full or tiny");
      opt.size = v == "tiny" ? Size::kTiny : Size::kFull;
    } else if (flag == "--drop-responses") {
      opt.drop_responses = std::strtoull(v.c_str(), &end, 10);
    } else {
      usage(("unknown flag " + flag).c_str());
    }
    if (end != nullptr && *end != '\0') usage(("bad value for " + flag).c_str());
  }
  if (opt.workload != "batch_fleet" && opt.workload != "serve_mixed" &&
      opt.workload != "serve_ingest") {
    usage("--workload is batch_fleet, serve_mixed or serve_ingest");
  }
  if (!(opt.seconds > 0.0)) usage("--seconds must be positive");
  if (opt.workdir.empty()) usage("--workdir is required");
  if (opt.served.empty() && opt.workload != "batch_fleet") {
    usage("--served is required for the serve workloads");
  }
  return opt;
}

int run(const Options& opt) {
  const std::string what = opt.workload + ", seed " +
                           std::to_string(opt.seed) + ", " +
                           std::to_string(opt.seconds) + " s";
  WorkloadRun wr;
  if (opt.workload == "batch_fleet") {
    wr = run_batch_fleet(opt, !opt.trace);
  } else if (opt.workload == "serve_mixed") {
    wr = run_serve_mixed(opt);
  } else {
    wr = run_serve_ingest(opt);
  }
  if (!opt.trace) {
    wr.results.require(kEndToEnd);
    wr.results.print_table("end-to-end (untraced): " + what);
    wr.results.print_json(kEndToEnd);
    return wr.results.correct() ? 0 : 1;
  }
  Results layers;
  layers.set_strict(opt.size == Size::kFull);
  if (opt.workload != "batch_fleet") {
    wr.results.print_table("end-to-end pass of the traced run: " + what);
    layers.count(wr.results.attempted(), wr.results.failed());
    layers.check(wr.results.correct(),
                 "the untraced pass of the traced run was correct");
  }
  run_layers(opt, wr, layers);
  layers.require(kPerLayer);
  layers.print_table("per-layer (traced): " + what);
  layers.print_json(kPerLayer);
  return layers.correct() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt = parse(argc, argv);
  // Journals, port files and daemon logs live in a per-process directory,
  // kept only when the run fails.
  opt.scratch = opt.workdir + "/p" + std::to_string(::getpid());
  int status = 2;
  try {
    std::filesystem::create_directories(opt.scratch);
    status = run(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "lionbench: %s\n", e.what());
  }
  if (status == 0) {
    std::error_code ec;
    std::filesystem::remove_all(opt.scratch, ec);
  }
  return status;
}
