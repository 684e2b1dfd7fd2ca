#include "blog/parallel/job.hpp"

#include "blog/search/runner.hpp"
#include "blog/search/update.hpp"

namespace blog::parallel {

void report_stop(std::atomic<int>& cause, search::Outcome o) {
  int expected = -1;
  cause.compare_exchange_strong(expected, static_cast<int>(o),
                                std::memory_order_relaxed);
}

void run_job_worker(const search::Expander& expander, db::WeightStore& weights,
                    WorkStealingScheduler& net, unsigned slot,
                    std::uint16_t lane, WorkerStats& ws,
                    const ParallelOptions& opts, JobControls& ctl) {
  search::Runner runner(expander);
  // The parallel loop's local bursts are depth-first and never prune
  // against an incumbent, so the commit path is always sound here; the
  // Expanded handler below keeps the scheduler's outstanding count right.
  runner.set_inplace_commit(true);
  search::ExpandStats estats;
  obs::TraceSink* const trace = opts.trace;
  // Expansions since the last scheduler interaction; flushed as one
  // kExpandBurst event at each boundary so the timeline shows in-place
  // bursts without paying one event per expansion.
  std::uint32_t burst = 0;
  const auto flush_burst = [&] {
    if (burst > 0) {
      obs::trace(trace, lane, obs::EventKind::kExpandBurst, burst);
      burst = 0;
    }
  };

  // Push a migrated-out batch through the scheduler in one call.
  std::vector<search::DetachedNode> spill;
  const auto flush_spills = [&] {
    if (spill.empty()) return;
    ws.spills += spill.size();
    ++ws.spill_batches;
    net.push_batch(slot, std::move(spill));
    spill.clear();
  };
  // Cells deep-copied by `fn`, charged to this worker.
  const auto charge_copies = [&](auto&& fn) {
    const std::size_t before = estats.cells_copied;
    fn();
    ws.cells_copied += estats.cells_copied - before;
  };
  std::vector<std::shared_ptr<search::SpillHandle>> handles;

  for (;;) {
    if (net.stopped()) break;

    // --- service copy-on-steal claims ------------------------------------
    // Thieves that won a claim CAS wait for us to materialize the
    // checkpointed state; one boundary of latency, through the trail's
    // as-of view (the live derivation is untouched).
    if (runner.has_pending_claims()) {
      std::size_t granted = 0;
      charge_copies([&] { granted = runner.fulfill_claims(&estats); });
      if (granted > 0)
        obs::trace(trace, lane, obs::EventKind::kHandleFulfill,
                   static_cast<std::uint32_t>(granted));
    }

    // --- acquire a chain -------------------------------------------------
    if (!runner.has_state()) {
      if (runner.pending() == 0) {
        flush_burst();
        auto taken = net.acquire(slot);
        if (!taken) break;  // terminated or stopped
        runner.load(std::move(*taken));
        ++ws.network_takes;
        obs::trace(trace, lane, obs::EventKind::kNetworkTake);
      } else if (auto better = net.try_acquire_better(
                     slot, runner.min_pending_bound(), opts.d_threshold)) {
        // The network minimum is more than D below our local minimum: the
        // freed task acquires the chain through the network (§6). The whole
        // local pool migrates out with it — copy-on-migration, batched.
        // detach_all resolves published handles on the way out (claimed
        // ones are granted to their thief instead of joining the batch).
        flush_burst();
        charge_copies([&] { spill = runner.detach_all(&estats); });
        obs::trace(trace, lane, obs::EventKind::kMigrate,
                   static_cast<std::uint32_t>(spill.size()));
        flush_spills();
        runner.load(std::move(*better));
        ++ws.network_takes;
        obs::trace(trace, lane, obs::EventKind::kNetworkTake);
      } else {
        // Continue in place on the local pool (trail rollback, no
        // copying). A published top races its claim CAS: losing grants
        // the choice to the claiming thief and we try the next one.
        bool activated = false;
        charge_copies([&] { activated = runner.activate_top(&estats); });
        if (!activated) continue;
        ++ws.local_takes;
      }
    }

    // --- budget / cancellation -------------------------------------------
    if (ctl.cancel != nullptr && ctl.cancel->load(std::memory_order_relaxed)) {
      report_stop(ctl.stop_cause, search::Outcome::Cancelled);
      net.stop();
      break;
    }
    if (ctl.node_budget.fetch_sub(1, std::memory_order_relaxed) <= 0 ||
        search::deadline_passed(ctl.deadline)) {
      report_stop(ctl.stop_cause, search::Outcome::BudgetExceeded);
      net.stop();
      break;
    }
    ++ws.expanded;
    if (ctl.fork_nodes != nullptr && runner.fork_tag() < ctl.fork_tag_count)
      ctl.fork_nodes[runner.fork_tag()].fetch_add(1, std::memory_order_relaxed);
    if (trace != nullptr) ++burst;

    // --- expand in place -------------------------------------------------
    const search::Runner::StepResult step = runner.expand(&estats);

    switch (step.outcome) {
      case search::NodeOutcome::Solution: {
        // Claim a solution slot first: a CAS loop that refuses to go below
        // zero, so concurrent workers can never wrap the counter and
        // publish more than max_solutions answers between the limit being
        // hit and the stop flag propagating.
        std::uint64_t left =
            ctl.solutions_left.load(std::memory_order_relaxed);
        while (left > 0 &&
               !ctl.solutions_left.compare_exchange_weak(
                   left, left - 1, std::memory_order_acq_rel,
                   std::memory_order_relaxed)) {
        }
        if (left == 0) {
          // Over the limit (a racing worker claimed the last slot and the
          // stop is in flight): drop the answer unpublished.
          runner.abandon_state();
          net.on_expanded(0);
          break;
        }
        if (opts.update_weights)
          search::update_on_success(weights, runner.state().chain.get());
        ++ws.solutions;
        obs::trace(trace, lane, obs::EventKind::kSolution,
                   static_cast<std::uint32_t>(ws.solutions));
        search::Solution sol;
        charge_copies([&] { sol = runner.extract_solution(&estats); });
        {
          std::lock_guard lock(ctl.sol_mu);
          if (ctl.on_solution) ctl.on_solution(sol);
          ctl.solutions.push_back(std::move(sol));
        }
        net.on_expanded(0);
        if (left == 1) {  // we consumed the last slot
          report_stop(ctl.stop_cause, search::Outcome::SolutionLimit);
          net.stop();
        }
        break;
      }
      case search::NodeOutcome::Expanded: {
        if (step.inplace_continue) {
          // Static-analysis commit: the chain lives on as its own only
          // child — count it born again (one died, one born, inflight
          // unchanged) and skip the spill/publish machinery, which only
          // handles freshly pushed siblings (there are none).
          net.on_expanded(1);
          break;
        }
        // A statically deterministic single continuation is not OR-work:
        // sharing it would hand a thief the only way forward of a chain
        // this worker activates on its very next boundary anyway. Keep it
        // local and skip the spill/publish pass for this step.
        const bool skip_share = step.deterministic && step.children == 1;
        if (skip_share) {
          net.on_expanded(step.children);
          break;
        }
        // Copy-on-steal: publish handles for everything beyond the
        // (possibly adaptive) local capacity. The choices stay on the
        // stack — sharing costs a shared_ptr per choice, not a copy — and
        // the deep copy happens only if a thief claims one.
        handles.clear();
        runner.publish_overflow(
            slot, net.local_capacity_hint(slot, opts.local_capacity), handles);
        if (!handles.empty()) {
          ws.handles_published += handles.size();
          net.push_handles(slot, std::move(handles));
          handles.clear();
        }
        net.on_expanded(step.children);
        break;
      }
      case search::NodeOutcome::Failure:
        ++ws.failures;
        if (opts.update_weights)
          search::update_on_failure(weights, runner.state().chain.get());
        net.on_expanded(0);
        break;
      case search::NodeOutcome::DepthLimit:
        ++ws.depth_cutoffs;
        net.on_expanded(0);
        break;
    }
  }

  flush_burst();
  // Local leftovers die with the worker (stop or termination): account for
  // them so other workers' acquisition can conclude. drop_top resolves
  // published handles (kDead) so claiming thieves give up instead of
  // waiting on a dead owner.
  while (runner.pending() > 0) {
    runner.drop_top();
    net.on_expanded(0);
  }
  const search::Runner::SpillCounters& sc = runner.spill_counters();
  ws.handles_reclaimed += sc.reclaimed_free;
  ws.handles_granted += sc.granted;
  ws.handles_migrated += sc.migrated;
  ws.trail_writes += runner.trail_pushes();
}

}  // namespace blog::parallel
