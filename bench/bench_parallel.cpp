// CL-PAR (§6/§7): OR-parallel speedup.
//
// "OR-parallelism is specially effective in speeding up non-deterministic
// programs, specially when more than one solution is needed."
//
// Measured: simulated makespan (machine simulator) for NP in {1..64} on a
// multi-solution path workload, a thread-engine sanity run showing the
// same solution set on real threads, and the wall-clock cost of §5 weight
// updates at every worker count the host has.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <thread>

#include "blog/machine/sim.hpp"
#include "blog/parallel/engine.hpp"
#include "blog/support/table.hpp"
#include "blog/workloads/workloads.hpp"

using namespace blog;

namespace {

struct Timed {
  double ms = 0.0;
  std::size_t solutions = 0;
};

/// One all-answers ParallelEngine solve on a fresh interpreter (cold
/// weights), timing only the solve: consult and pool start are excluded.
Timed timed_solve(const std::string& program, const char* query,
                  unsigned workers, bool update_weights) {
  engine::Interpreter ip;
  ip.consult_string(program);
  parallel::ParallelOptions po;
  po.workers = workers;
  po.update_weights = update_weights;
  parallel::ParallelEngine pe(ip.program(), ip.weights(), &ip.builtins(), po);
  const search::Query q = ip.parse_query(query);
  const auto t0 = std::chrono::steady_clock::now();
  const auto r = pe.solve(q);
  const auto t1 = std::chrono::steady_clock::now();
  return {std::chrono::duration<double, std::milli>(t1 - t0).count(),
          r.solutions.size()};
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

/// §5 updates on and off at w1..hardware_concurrency: the two arms run
/// interleaved in one process (which goes first alternates per round), so
/// host load falls on both alike. Median of 11 rounds per cell.
void update_cost_table() {
  struct Workload {
    const char* name;
    std::string program;
    const char* query;
  };
  const Workload workloads[] = {
      {"queens 8", workloads::queens(8), "queens8(Qs)"},
      {"DAG 8x3", workloads::layered_dag(8, 3), "path(n0_0,Z,P)"},
  };
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  constexpr int kRounds = 11;
  std::printf("cost of §5 weight updates on the thread engine (all answers, "
              "fresh interpreter per solve, median of %d interleaved "
              "rounds):\n\n", kRounds);
  Table t({"workload", "workers", "updates off ms", "updates on ms",
           "on/off", "solutions"});
  for (const Workload& wl : workloads) {
    for (unsigned w = 1; w <= hw; ++w) {
      std::vector<double> off, on;
      std::size_t sols_off = 0, sols_on = 0;
      for (int round = 0; round < kRounds; ++round) {
        for (int arm = 0; arm < 2; ++arm) {
          const bool updates = (arm + round) % 2 == 1;
          const Timed r = timed_solve(wl.program, wl.query, w, updates);
          (updates ? on : off).push_back(r.ms);
          (updates ? sols_on : sols_off) = r.solutions;
        }
      }
      const double m_off = median(off), m_on = median(on);
      t.add_row({wl.name, std::to_string(w), Table::num(m_off),
                 Table::num(m_on), Table::num(m_on / m_off),
                 sols_on == sols_off ? std::to_string(sols_on)
                                     : std::to_string(sols_off) + " vs " +
                                           std::to_string(sols_on)});
    }
  }
  std::printf("%s\n", t.str().c_str());
}

}  // namespace

int main() {
  const std::string dag = workloads::layered_dag(5, 3);
  const char* query = "path(n0_0,Z,P)";

  std::printf("CL-PAR: simulated speedup of the B-LOG machine "
              "(all paths in a 5x3 DAG)\n\n");
  Table t({"processors", "makespan", "speedup", "efficiency", "utilization"});
  double base = 0.0;
  for (const unsigned np : {1u, 2u, 4u, 8u, 16u, 32u, 64u}) {
    engine::Interpreter ip;
    ip.consult_string(dag);
    machine::MachineConfig cfg;
    cfg.processors = np;
    cfg.tasks_per_processor = 2;
    cfg.update_weights = false;
    cfg.local_memory_blocks = 32;
    machine::MachineSim sim(ip.program(), ip.weights(), &ip.builtins(), cfg);
    const auto rep = sim.run(ip.parse_query(query));
    if (base == 0.0) base = rep.makespan;
    const double speedup = base / rep.makespan;
    t.add_row({std::to_string(np), Table::num(rep.makespan, 0),
               Table::num(speedup), Table::num(speedup / np, 3),
               Table::num(rep.utilization(), 2)});
  }
  std::printf("%s\n", t.str().c_str());

  std::printf("thread-engine sanity (same workload, real std::thread "
              "workers):\n\n");
  Table t2({"workers", "solutions", "nodes expanded"});
  for (const unsigned w : {1u, 4u}) {
    engine::Interpreter ip;
    ip.consult_string(dag);
    parallel::ParallelOptions po;
    po.workers = w;
    po.update_weights = false;
    parallel::ParallelEngine pe(ip.program(), ip.weights(), &ip.builtins(), po);
    const auto r = pe.solve(ip.parse_query(query));
    t2.add_row({std::to_string(w), std::to_string(r.solutions.size()),
                std::to_string(r.nodes_expanded)});
  }
  std::printf("%s\n", t2.str().c_str());
  update_cost_table();
  std::printf(
      "expected shape: near-linear speedup while the frontier is wider than\n"
      "the machine, flattening once NP approaches the tree's usable width\n"
      "(the paper's scheduling caveat: \"the scheduling problem makes it\n"
      "impossible to always use the total number of processors\").  The\n"
      "thread engine finds the identical solution set at every worker\n"
      "count, and §5 updates cost the same small share of a solve at\n"
      "every worker count (on/off near 1).\n");
  return 0;
}
