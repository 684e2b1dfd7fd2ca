// An interactive B-LOG client speaking to the QueryService serving layer:
// consult publishes copy-on-write snapshots, repeated queries hit the
// answer cache, budgets cut runaway searches, and :stats shows the
// service-side counters.
//
//   $ blog_repl [program.pl ...]
//   ?- gf(sam,G).
//   G=den ;  G=doug.
//   ?- :strategy best        % depth | breadth | best
//   ?- :workers 4            % >1: thread-parallel solve
//   ?- :budget nodes 10000   % nodes | solutions | ms (0 = unlimited)
//   ?- :stream on            % async submit: answers print as found
//   ?- :tree gf(sam,G)       % print the searched OR-tree
//   ?- :session end          % §5: merge session weights conservatively
//   ?- :stats                % service counters + latency percentiles
//   ?- :trace on             % attach the flight recorder
//   ?- :trace dump t.json    % export Chrome/Perfetto trace JSON
//   ?- :analyze gf/2         % consult-time groundness/determinism verdicts
//   ?- :halt
#include <cstdio>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>

#include "blog/analysis/domain.hpp"
#include "blog/obs/chrome_trace.hpp"
#include "blog/service/service.hpp"
#include "blog/term/reader.hpp"
#include "blog/trace/tree.hpp"
#include "blog/workloads/workloads.hpp"

using namespace blog;

namespace {

struct ReplState {
  service::QueryService svc;
  service::QueryRequest req;  // text overwritten per query
  bool stream = false;        // :stream — pull answers as the search runs
  std::unique_ptr<obs::TraceSink> sink;  // owned flight recorder (:trace)
};

void run_query(ReplState& st, const std::string& text) {
  st.req.text = text;
  service::QueryResponse r;
  std::size_t streamed = 0;
  if (st.stream) {
    service::SubmitOptions sub;
    sub.stream = true;
    auto ticket = st.svc.submit(st.req, sub);
    // Print answers in discovery order while the workers search; the
    // stream closes (nullopt) once the response is final.
    for (auto* as = ticket.stream(); as != nullptr;) {
      auto a = as->next();
      if (!a) break;
      std::printf("%s ;\n", a->c_str());
      ++streamed;
    }
    r = ticket.wait();
  } else {
    r = st.svc.query(st.req);
  }
  switch (r.status) {
    case service::QueryStatus::ParseError:
      std::printf("syntax error: %s\n", r.error.c_str());
      return;
    case service::QueryStatus::Rejected:
      std::printf("%% rejected: %s\n", r.error.c_str());
      return;
    default:
      break;
  }
  if (st.stream) {
    if (streamed == 0)
      std::printf("false.\n");
    else
      std::printf("%% %zu answer%s.\n", streamed, streamed == 1 ? "" : "s");
  } else if (r.answers.empty()) {
    std::printf("false.\n");
  } else {
    for (std::size_t i = 0; i < r.answers.size(); ++i)
      std::printf("%s%s", r.answers[i].c_str(),
                  i + 1 < r.answers.size() ? " ;\n" : ".\n");
  }
  if (r.from_cache)
    std::printf("%% cached (epoch %llu)\n",
                static_cast<unsigned long long>(r.epoch));
  if (r.status == service::QueryStatus::Truncated)
    std::printf("%% truncated: %s after %llu nodes\n",
                search::outcome_name(r.outcome),
                static_cast<unsigned long long>(r.nodes_expanded));
  if (r.status == service::QueryStatus::Cancelled)
    std::printf("%% cancelled: %s (answers above are partial)\n",
                r.error.c_str());
}

// :tree runs outside the cache on the service's published snapshot, with
// the tree-recording observer attached to a private engine.
void run_tree(ReplState& st, const std::string& text) {
  try {
    const auto snap = st.svc.snapshot();
    trace::TreeRecorder rec;
    auto obs = rec.observer();
    search::SearchOptions o;
    o.strategy = st.req.strategy;
    o.limits = st.req.budget.limits();
    search::SearchEngine eng(*snap->program, st.svc.weights(),
                             &st.svc.builtins());
    eng.solve(engine::parse_query(text), o, &obs);
    std::printf("%s", rec.render_text().c_str());
  } catch (const term::ParseError& e) {
    std::printf("syntax error at %d:%d: %s\n", e.line, e.col, e.what());
  }
}

bool command(ReplState& st, const std::string& line) {
  std::istringstream is(line.substr(1));
  std::string cmd;
  is >> cmd;
  if (cmd == "halt" || cmd == "quit") return false;
  if (cmd == "strategy") {
    std::string s;
    is >> s;
    if (s == "depth") st.req.strategy = search::Strategy::DepthFirst;
    else if (s == "breadth") st.req.strategy = search::Strategy::BreadthFirst;
    else if (s == "best") st.req.strategy = search::Strategy::BestFirst;
    else std::printf("usage: :strategy depth|breadth|best\n");
  } else if (cmd == "workers") {
    unsigned w = 1;
    if (is >> w && w >= 1) st.req.workers = w;
    else std::printf("usage: :workers <n>\n");
  } else if (cmd == "budget") {
    std::string what;
    long long v = 0;
    if (is >> what >> v && v >= 0) {
      if (what == "nodes")
        st.req.budget.max_nodes =
            v == 0 ? std::numeric_limits<std::size_t>::max()
                   : static_cast<std::size_t>(v);
      else if (what == "solutions")
        st.req.budget.max_solutions =
            v == 0 ? std::numeric_limits<std::size_t>::max()
                   : static_cast<std::size_t>(v);
      else if (what == "ms")
        st.req.budget.deadline = std::chrono::milliseconds(v);
      else
        std::printf("usage: :budget nodes|solutions|ms <n>\n");
    } else {
      std::printf("usage: :budget nodes|solutions|ms <n>\n");
    }
  } else if (cmd == "stream") {
    std::string s;
    is >> s;
    if (s == "on") st.stream = true;
    else if (s == "off") st.stream = false;
    else std::printf("usage: :stream on|off\n");
    if (s == "on" || s == "off")
      std::printf("%% streaming %s\n", st.stream ? "on" : "off");
  } else if (cmd == "tree") {
    std::string q;
    std::getline(is, q);
    if (!q.empty()) run_tree(st, q);
  } else if (cmd == "session") {
    std::string s;
    is >> s;
    if (s == "begin") {
      st.svc.weights().begin_session();
      std::printf("%% session weights discarded\n");
    } else if (s == "end") {
      st.svc.end_session();
      std::printf("%% session merged: %zu global weights (epoch %llu)\n",
                  st.svc.weights().global_size(),
                  static_cast<unsigned long long>(st.svc.stats().epoch));
    } else {
      std::printf("usage: :session begin|end\n");
    }
  } else if (cmd == "stats") {
    const auto s = st.svc.stats();
    std::printf(
        "queries %llu (cache hits %llu, truncated %llu, rejected %llu, "
        "parse errors %llu)\n"
        "latency: n=%llu mean %.3fms p50 %.3fms p95 %.3fms p99 %.3fms "
        "max %.3fms\n"
        "cache: %llu hits / %llu misses, %llu inserted, %llu evicted, "
        "%llu invalidated\n"
        "admission: %zu running, %zu queued, %llu submitted, %llu shed; "
        "epoch %llu, %zu clauses\n",
        static_cast<unsigned long long>(s.queries),
        static_cast<unsigned long long>(s.cache_hits),
        static_cast<unsigned long long>(s.truncated),
        static_cast<unsigned long long>(s.rejected),
        static_cast<unsigned long long>(s.parse_errors),
        static_cast<unsigned long long>(s.latency_count), s.latency_mean_ms,
        s.latency_p50_ms, s.latency_p95_ms, s.latency_p99_ms,
        s.latency_max_ms,
        static_cast<unsigned long long>(s.cache.hits),
        static_cast<unsigned long long>(s.cache.misses),
        static_cast<unsigned long long>(s.cache.insertions),
        static_cast<unsigned long long>(s.cache.evictions),
        static_cast<unsigned long long>(s.cache.invalidated),
        s.admission.running, s.admission.queued,
        static_cast<unsigned long long>(s.admission.submitted),
        static_cast<unsigned long long>(s.admission.rejected),
        static_cast<unsigned long long>(s.epoch), s.program_clauses);
  } else if (cmd == "metrics") {
    std::printf("%s", st.svc.metrics().dump_text().c_str());
  } else if (cmd == "trace") {
    std::string sub;
    is >> sub;
    if (sub == "on") {
      if (!st.sink) st.sink = std::make_unique<obs::TraceSink>();
      st.svc.set_trace(st.sink.get());
      std::printf("%% flight recorder on (%llu events so far)\n",
                  static_cast<unsigned long long>(st.sink->recorded()));
    } else if (sub == "off") {
      st.svc.set_trace(nullptr);
      std::printf("%% flight recorder off\n");
    } else if (sub == "dump") {
      std::string path;
      is >> path;
      if (st.sink == nullptr || path.empty()) {
        std::printf(st.sink == nullptr ? "%% no trace yet — :trace on first\n"
                                       : "usage: :trace dump <file>\n");
      } else if (obs::write_chrome_trace(*st.sink, path)) {
        std::printf("%% wrote %s (%llu events, %llu dropped) — load in "
                    "ui.perfetto.dev\n",
                    path.c_str(),
                    static_cast<unsigned long long>(st.sink->recorded()),
                    static_cast<unsigned long long>(st.sink->dropped()));
      } else {
        std::printf("error: cannot write %s\n", path.c_str());
      }
    } else {
      std::printf("usage: :trace on|off|dump <file>\n");
    }
  } else if (cmd == "analyze") {
    // :analyze <name>[/<arity>] — print the consult-time verdicts for a
    // predicate from the published snapshot's attached analysis.
    std::string spec;
    is >> spec;
    if (spec.empty()) {
      std::printf("usage: :analyze <name>[/<arity>]\n");
      return true;
    }
    long long want_arity = -1;
    if (const auto slash = spec.rfind('/'); slash != std::string::npos) {
      try {
        want_arity = std::stoll(spec.substr(slash + 1));
        spec = spec.substr(0, slash);
      } catch (const std::exception&) {
        std::printf("usage: :analyze <name>[/<arity>]\n");
        return true;
      }
    }
    const auto snap = st.svc.snapshot();
    const auto& a = snap->program->analysis();
    if (a == nullptr) {
      std::printf("%% no analysis attached (empty program?)\n");
      return true;
    }
    bool found = false;
    const Symbol name = intern(spec);
    for (const auto& [pred, pi] : a->preds) {
      if (pred.name != name) continue;
      if (want_arity >= 0 &&
          pred.arity != static_cast<std::uint32_t>(want_arity))
        continue;
      found = true;
      std::printf("%s/%u: %zu clause%s", spec.c_str(), pred.arity,
                  pi.clause_count, pi.clause_count == 1 ? "" : "s");
      if (!pi.proven_succeeds) {
        std::printf(", never proven to succeed\n");
        continue;
      }
      std::printf(", modes(");
      for (std::size_t i = 0; i < pi.success_modes.size(); ++i)
        std::printf("%s%s", i ? "," : "",
                    analysis::mode_name(pi.success_modes[i]));
      std::printf(")");
      if (pi.all_ground_facts)
        std::printf(", all-ground facts");
      else if (pi.all_facts)
        std::printf(", all facts");
      if (pi.det_unique_key) std::printf(", unique-key deterministic");
      if (pi.det_mutex_heads) std::printf(", mutex heads");
      std::printf("\n");
    }
    if (!found)
      std::printf("%% no clauses for %s%s\n", spec.c_str(),
                  want_arity >= 0
                      ? ("/" + std::to_string(want_arity)).c_str()
                      : "");
  } else if (cmd == "consult") {
    std::string path;
    is >> path;
    try {
      st.svc.consult_file(path);
      const auto s = st.svc.stats();
      std::printf("%% consulted %s (%zu clauses, epoch %llu)\n", path.c_str(),
                  s.program_clauses, static_cast<unsigned long long>(s.epoch));
    } catch (const std::exception& e) {
      std::printf("error: %s\n", e.what());
    }
  } else if (cmd == "demo") {
    st.svc.consult(workloads::figure1_family());
    std::printf("%% loaded the Figure 1 family database\n");
  } else {
    std::printf("commands: :strategy :workers :budget :stream :tree :session "
                ":stats :metrics :trace :analyze :consult :demo :halt\n");
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  ReplState st;
  st.req.strategy = search::Strategy::BestFirst;
  for (int i = 1; i < argc; ++i) {
    try {
      st.svc.consult_file(argv[i]);
      std::printf("%% consulted %s\n", argv[i]);
    } catch (const std::exception& e) {
      std::printf("error consulting %s: %s\n", argv[i], e.what());
    }
  }
  std::printf("B-LOG query service REPL. :demo loads the paper's database; "
              ":halt exits.\n");
  std::string line;
  for (;;) {
    std::printf("?- ");
    std::fflush(stdout);
    if (!std::getline(std::cin, line)) break;
    // Trim.
    while (!line.empty() && (line.back() == ' ' || line.back() == '.'))
      line.pop_back();
    if (line.empty()) continue;
    if (line[0] == ':') {
      if (!command(st, line)) break;
      continue;
    }
    run_query(st, line);
  }
  return 0;
}
