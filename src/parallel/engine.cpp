#include "blog/parallel/engine.hpp"

#include <algorithm>

#include "blog/parallel/job.hpp"
#include "blog/parallel/topology.hpp"

namespace blog::parallel {

ParallelEngine::ParallelEngine(const db::Program& program, db::WeightStore& weights,
                               search::BuiltinEvaluator* builtins,
                               ParallelOptions opts)
    : program_(program), weights_(weights), builtins_(builtins), opts_(opts) {}

ParallelResult ParallelEngine::solve(const search::Query& q) {
  return solve_forked({&q, 1});
}

ParallelResult ParallelEngine::solve_forked(
    std::span<const search::Query> roots,
    std::atomic<std::uint64_t>* fork_nodes, std::uint32_t fork_tag_count) {
  search::Expander expander(program_, weights_, builtins_, opts_.expander);
  // Zero workers would leave the seeded roots unexpanded and report them
  // Exhausted with no answers; run on one instead, as the Executor does.
  const unsigned workers = std::max(1u, opts_.workers);
  SchedulerTuning tuning;
  tuning.adaptive = opts_.adaptive_capacity;
  tuning.ewma_window = opts_.capacity_ewma_window;
  tuning.local_capacity_seed = opts_.local_capacity;
  tuning.numa_aware = opts_.numa_aware;
  tuning.locality_bias = opts_.numa_locality_bias;
  tuning.trace = opts_.trace;
  // Worker→node placement mirrors the scheduler's deque tagging (both
  // derive it round-robin from the same detected topology); single-node
  // hosts skip placement and pinning entirely.
  const Topology& topo = Topology::system();
  const bool multi_node = opts_.numa_aware && !topo.single_node();
  WorkStealingScheduler net(workers, opts_.steal_deque_capacity, tuning);
  // Every root enters the same partition; push_root bumps the scheduler's
  // outstanding-work counter per call, so one termination detector covers
  // all forked subtrees.
  for (std::size_t i = 0; i < roots.size(); ++i) {
    search::DetachedNode root = expander.make_root(roots[i]);
    root.fork_tag = static_cast<std::uint32_t>(i);
    net.push_root(std::move(root));
  }

  ParallelResult result;
  result.workers.resize(workers);
  JobControls ctl;
  ctl.arm(opts_.limits, opts_.cancel);
  ctl.on_solution = opts_.on_solution;
  ctl.fork_nodes = fork_nodes;
  ctl.fork_tag_count = fork_tag_count;
  JobConfig cfg;
  cfg.d_threshold = opts_.d_threshold;
  cfg.local_capacity = opts_.local_capacity;
  cfg.update_weights = opts_.update_weights;
  cfg.trace = opts_.trace;

  std::vector<std::thread> threads;
  threads.reserve(workers);
  for (unsigned w = 0; w < workers; ++w) {
    threads.emplace_back([&, w] {
      if (multi_node) {
        const unsigned node = topo.node_of_worker(w);
        result.workers[w].numa_node = node;
        if (opts_.numa_pin_workers) pin_current_thread_to_node(topo, node);
      }
      run_job_worker(expander, weights_, net, w,
                     static_cast<std::uint16_t>(w), result.workers[w], cfg,
                     ctl);
    });
  }
  for (auto& t : threads) t.join();

  result.solutions = std::move(ctl.solutions);
  result.network = net.stats();
  result.exhausted = !net.stopped();
  result.outcome = ctl.outcome(result.exhausted);
  for (const auto& ws : result.workers) result.nodes_expanded += ws.expanded;
  return result;
}

}  // namespace blog::parallel
