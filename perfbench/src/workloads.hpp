// The three workloads. Each builds its program and request sequence from
// the seed, sets up several times (setup_s is the median), warms up, runs a
// closed loop for the requested seconds checking every answer, and returns
// the end-to-end metrics — or, in a traced run, the per-layer metrics.
#pragma once

#include "common.hpp"

namespace perfbench {

/// Company-database size shared by every workload: large enough that a
/// consult takes ~0.1 s, so setup time is measurable.
inline constexpr int kEmployees = 30000;
inline constexpr int kDepartments = 50;

/// Setups per run, before and after the timed window; setup_s and the setup
/// layer metrics are the medians of all of them. Spreading them over the run
/// keeps one slow stretch of the host from deciding setup_s.
inline constexpr int kSetupsBefore = 3;
inline constexpr int kSetupsAfter = 4;

/// Spans kept per thread for the trace file (aggregation covers all spans).
inline constexpr std::size_t kKeptSpans = 20000;

Report run_serve(const Args& args);
Report run_solve_seq(const Args& args);
Report run_solve_par(const Args& args);

/// The end-to-end metrics every workload prints with --trace 0.
void add_end_to_end(Report& rep, double throughput_qps, const LatencyHistogram& latency,
                    double rss_mb, double setup_s);

}  // namespace perfbench
