#include "blog/parallel/engine.hpp"

#include <algorithm>

#include "blog/parallel/executor.hpp"

namespace blog::parallel {

ParallelEngine::ParallelEngine(const db::Program& program, db::WeightStore& weights,
                               search::BuiltinEvaluator* builtins,
                               ParallelOptions opts)
    : program_(program), weights_(weights), builtins_(builtins), opts_(opts) {
  ExecutorOptions eo;
  eo.workers = std::max(1u, opts_.workers);
  pool_ = std::make_unique<Executor>(eo);
}

ParallelEngine::~ParallelEngine() = default;

ParallelResult ParallelEngine::solve(const search::Query& q) {
  JobRequest req;
  req.program = &program_;
  req.weights = &weights_;
  req.builtins = builtins_;
  req.query = q;
  req.slots = pool_->workers();
  // A one-slot job runs SearchEngine; depth-first keeps the in-place
  // stack order the scheduler loop follows at one worker.
  req.strategy = search::Strategy::DepthFirst;
  req.opts = opts_;
  req.on_answer = opts_.on_solution;
  return pool_->submit(std::move(req)).take();
}

}  // namespace blog::parallel
