// perfbench: the benchmark binary (run through perfbench/run.py).
//
//   perfbench --workload serve|solve_seq|solve_par --seed N --seconds S
//             --trace 0|1 [--trace-out FILE] [--plant-wrong INDEX]
//
// Prints progress to stderr and, as the last stdout line, one JSON object:
// {"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
// are the end-to-end set, with --trace 1 the per-layer set (both listed in
// BENCHMARK.json); every workload prints every metric of its set, and a
// layer a workload does not run reads 0.
#include <cstdio>
#include <exception>
#include <string>

#include "workloads.hpp"

namespace perfbench {
namespace {

const std::vector<MetricSpec> kEndToEnd = {
    {"throughput_qps", "1/s"},  {"latency_p50_ms", "ms"}, {"latency_p99_ms", "ms"},
    {"peak_rss_mb", "MiB"},     {"setup_s", "s"},
};

const std::vector<MetricSpec> kPerLayer = {
    // Setup (every workload).
    {"db.consult_ms", "ms"},
    {"analysis.analyze_ms", "ms"},
    {"service.consult_ms", "ms"},
    {"parallel.pool_start_ms", "ms"},
    // serve: client-side split of each request, shares, sampled calls.
    {"service.submit_us_p50", "us"},
    {"service.submit_us_p99", "us"},
    {"service.run_us_p50", "us"},
    {"service.run_us_p99", "us"},
    {"service.wake_us_p50", "us"},
    {"service.wake_us_p99", "us"},
    {"service.cache_hit_share", "ratio"},
    {"service.queued_share", "ratio"},
    {"service.nodes_per_miss", "count"},
    {"service.canonical_key_us", "us"},
    {"search.lookup_us", "us"},
    {"term.render_us", "us"},
    // solve_seq.
    {"term.parse_us", "us"},
    {"search.solve_ms.queens", "ms"},
    {"search.solve_ms.dag", "ms"},
    {"search.solve_ms.join", "ms"},
    {"search.solve_ms.nrev", "ms"},
    {"term.render_ms", "ms"},
    {"search.nodes_per_s", "1/s"},
    {"search.unify_success_ratio", "ratio"},
    {"search.unify_cells_per_node", "count"},
    {"search.cells_copied_per_node", "count"},
    {"search.trail_writes_per_node", "count"},
    {"search.builtin_calls_per_node", "count"},
    {"search.max_frontier", "count"},
    // solve_par.
    {"parallel.submit_us", "us"},
    {"parallel.run_ms.queens", "ms"},
    {"parallel.run_ms.dag", "ms"},
    {"parallel.wake_us", "us"},
    {"parallel.speedup_3v1", "ratio"},
    {"parallel.worker_balance", "ratio"},
    {"parallel.steal_success_ratio", "ratio"},
    {"parallel.handle_grant_ratio", "ratio"},
    {"parallel.cells_copied_per_node", "count"},
    {"parallel.claim_wait_us", "us"},
    {"parallel.lock_acquisitions_per_node", "count"},
    {"andp.solve_ms", "ms"},
    {"andp.join_ms", "ms"},
    {"andp.forked_items", "count"},
    {"andp.critical_path_share", "ratio"},
    // Every workload: tracing cost and where the traced time went.
    {"trace.overhead", "ratio"},
    {"self.term_share", "ratio"},
    {"self.search_share", "ratio"},
    {"self.parallel_share", "ratio"},
    {"self.andp_share", "ratio"},
    {"self.service_share", "ratio"},
    {"trace.residual_share", "ratio"},
};

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload serve|solve_seq|solve_par --seed N "
               "--seconds S --trace 0|1 [--trace-out FILE] [--plant-wrong INDEX]\n");
  return 2;
}

}  // namespace

void add_end_to_end(Report& rep, double throughput_qps, const LatencyHistogram& latency,
                    double rss_mb, double setup_s) {
  rep.add("throughput_qps", throughput_qps);
  rep.add("latency_p50_ms", latency.percentile_ns(0.50) / 1e6);
  rep.add("latency_p99_ms", latency.percentile_ns(0.99) / 1e6);
  rep.add("peak_rss_mb", rss_mb);
  rep.add("setup_s", setup_s);
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) return usage();
    const std::string v = argv[++i];
    try {
      if (a == "--workload") {
        args.workload = v;
      } else if (a == "--seed") {
        args.seed = std::stoull(v);
      } else if (a == "--seconds") {
        args.seconds = std::stod(v);
      } else if (a == "--trace") {
        args.trace = v == "1";
        have_trace = v == "0" || v == "1";
      } else if (a == "--trace-out") {
        args.trace_out = v;
      } else if (a == "--plant-wrong") {
        args.plant_wrong = std::stoll(v);
      } else {
        return usage();
      }
    } catch (const std::exception&) {
      return usage();
    }
  }
  if (!have_trace || !(args.seconds > 0) || args.seconds > 600) return usage();

  try {
    Report rep;
    if (args.workload == "serve") {
      rep = run_serve(args);
    } else if (args.workload == "solve_seq") {
      rep = run_solve_seq(args);
    } else if (args.workload == "solve_par") {
      rep = run_solve_par(args);
    } else {
      return usage();
    }
    const std::string line = rep.json(args.trace ? kPerLayer : kEndToEnd);
    std::fflush(stderr);
    std::printf("%s\n", line.c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
