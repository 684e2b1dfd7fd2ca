// Flight recorder + metrics registry tests: ring wrap/dropped accounting,
// per-thread event ordering, Chrome-trace JSON parse-back (via a small
// in-test JSON reader — no external deps), registry percentiles, and the
// null-sink guarantee that tracing off records nothing and changes nothing.
#include <gtest/gtest.h>

#include <cctype>
#include <map>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "blog/engine/interpreter.hpp"
#include "blog/obs/chrome_trace.hpp"
#include "blog/obs/metrics.hpp"
#include "blog/obs/trace.hpp"
#include "blog/parallel/engine.hpp"
#include "blog/service/service.hpp"
#include "blog/workloads/workloads.hpp"

namespace blog {
namespace {

using obs::EventKind;
using obs::TraceEvent;
using obs::TraceShard;
using obs::TraceSink;

// ------------------------------------------------------ mini JSON reader --
// Just enough recursive-descent JSON to validate write_chrome_trace output
// and MetricsRegistry::dump_json without pulling in a dependency.

struct JsonValue {
  enum class Type { Null, Bool, Number, String, Array, Object };
  Type type = Type::Null;
  bool boolean = false;
  double number = 0.0;
  std::string str;
  std::vector<JsonValue> items;                // Array
  std::map<std::string, JsonValue> fields;     // Object

  bool is_object() const { return type == Type::Object; }
  bool is_array() const { return type == Type::Array; }
  bool has(const std::string& k) const { return fields.count(k) != 0; }
  const JsonValue& at(const std::string& k) const { return fields.at(k); }
};

class JsonReader {
 public:
  explicit JsonReader(const std::string& text) : s_(text) {}

  /// Parse the whole input; *ok is false on any syntax error or trailing
  /// garbage.
  JsonValue parse(bool* ok) {
    JsonValue v = value(ok);
    skip_ws();
    if (i_ != s_.size()) *ok = false;
    return v;
  }

 private:
  void skip_ws() {
    while (i_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[i_])) != 0)
      ++i_;
  }
  bool eat(char c) {
    skip_ws();
    if (i_ < s_.size() && s_[i_] == c) {
      ++i_;
      return true;
    }
    return false;
  }

  JsonValue value(bool* ok) {
    skip_ws();
    JsonValue v;
    if (i_ >= s_.size()) {
      *ok = false;
      return v;
    }
    const char c = s_[i_];
    if (c == '{') return object(ok);
    if (c == '[') return array(ok);
    if (c == '"') {
      v.type = JsonValue::Type::String;
      v.str = string(ok);
      return v;
    }
    if (s_.compare(i_, 4, "true") == 0) {
      v.type = JsonValue::Type::Bool;
      v.boolean = true;
      i_ += 4;
      return v;
    }
    if (s_.compare(i_, 5, "false") == 0) {
      v.type = JsonValue::Type::Bool;
      i_ += 5;
      return v;
    }
    if (s_.compare(i_, 4, "null") == 0) {
      i_ += 4;
      return v;
    }
    return number(ok);
  }

  JsonValue object(bool* ok) {
    JsonValue v;
    v.type = JsonValue::Type::Object;
    if (!eat('{')) {
      *ok = false;
      return v;
    }
    if (eat('}')) return v;
    do {
      skip_ws();
      const std::string key = string(ok);
      if (!*ok || !eat(':')) {
        *ok = false;
        return v;
      }
      v.fields[key] = value(ok);
      if (!*ok) return v;
    } while (eat(','));
    if (!eat('}')) *ok = false;
    return v;
  }

  JsonValue array(bool* ok) {
    JsonValue v;
    v.type = JsonValue::Type::Array;
    if (!eat('[')) {
      *ok = false;
      return v;
    }
    if (eat(']')) return v;
    do {
      v.items.push_back(value(ok));
      if (!*ok) return v;
    } while (eat(','));
    if (!eat(']')) *ok = false;
    return v;
  }

  std::string string(bool* ok) {
    std::string out;
    if (i_ >= s_.size() || s_[i_] != '"') {
      *ok = false;
      return out;
    }
    ++i_;
    while (i_ < s_.size() && s_[i_] != '"') {
      if (s_[i_] == '\\') {
        ++i_;
        if (i_ >= s_.size()) {
          *ok = false;
          return out;
        }
        switch (s_[i_]) {
          case 'n': out += '\n'; break;
          case 't': out += '\t'; break;
          default: out += s_[i_]; break;  // \" \\ \/ — good enough here
        }
      } else {
        out += s_[i_];
      }
      ++i_;
    }
    if (i_ >= s_.size()) {
      *ok = false;
      return out;
    }
    ++i_;  // closing quote
    return out;
  }

  JsonValue number(bool* ok) {
    JsonValue v;
    v.type = JsonValue::Type::Number;
    const std::size_t start = i_;
    while (i_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[i_])) != 0 ||
            s_[i_] == '-' || s_[i_] == '+' || s_[i_] == '.' || s_[i_] == 'e' ||
            s_[i_] == 'E'))
      ++i_;
    if (i_ == start) {
      *ok = false;
      return v;
    }
    try {
      v.number = std::stod(s_.substr(start, i_ - start));
    } catch (...) {
      *ok = false;
    }
    return v;
  }

  const std::string& s_;
  std::size_t i_ = 0;
};

JsonValue parse_json_or_fail(const std::string& text) {
  bool ok = true;
  JsonReader reader(text);
  JsonValue v = reader.parse(&ok);
  EXPECT_TRUE(ok) << "malformed JSON:\n" << text.substr(0, 400);
  return v;
}

// ----------------------------------------------------------- event table --

TEST(TraceEvents, NamesAndCategoriesComeFromTheTable) {
  EXPECT_STREQ(obs::trace_event_name(EventKind::kSteal), "steal.take");
  EXPECT_STREQ(obs::trace_event_category(EventKind::kSteal), "sched");
  EXPECT_STREQ(obs::trace_event_name(EventKind::kExpandBurst), "runner.burst");
  EXPECT_STREQ(obs::trace_event_category(EventKind::kQueryBegin), "service");
  EXPECT_STREQ(obs::trace_event_name(EventKind::kCount), "?");
  EXPECT_STREQ(obs::trace_event_category(EventKind::kCount), "?");
}

TEST(TraceEvents, ClientLanesStartAtTheBaseAndAreStablePerThread) {
  const std::uint16_t mine = obs::client_lane();
  EXPECT_GE(mine, obs::kClientLaneBase);
  EXPECT_EQ(obs::client_lane(), mine);  // stable on repeat
  std::uint16_t other = 0;
  std::thread([&] { other = obs::client_lane(); }).join();
  EXPECT_GE(other, obs::kClientLaneBase);
  EXPECT_NE(other, mine);  // distinct threads, distinct lanes
}

// -------------------------------------------------------------- the ring --

TEST(TraceShard, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(TraceShard(0).capacity(), 2u);
  EXPECT_EQ(TraceShard(1).capacity(), 2u);
  EXPECT_EQ(TraceShard(5).capacity(), 8u);
  EXPECT_EQ(TraceShard(8).capacity(), 8u);
  EXPECT_EQ(TraceShard(1000).capacity(), 1024u);
}

TEST(TraceShard, WrapOverwritesOldestAndCountsDrops) {
  TraceShard shard(8);
  for (std::uint32_t i = 0; i < 20; ++i) {
    TraceEvent e;
    e.ts_ns = i;
    e.payload = i;
    shard.record(e);
  }
  EXPECT_EQ(shard.written(), 20u);
  EXPECT_EQ(shard.dropped(), 12u);
  const auto events = shard.events();
  ASSERT_EQ(events.size(), 8u);
  // The last 8 events survive, oldest first.
  for (std::uint32_t i = 0; i < 8; ++i)
    EXPECT_EQ(events[i].payload, 12u + i) << "slot " << i;
}

TEST(TraceShard, NoDropsBelowCapacity) {
  TraceShard shard(16);
  for (std::uint32_t i = 0; i < 10; ++i) shard.record(TraceEvent{i, 0, 0, i});
  EXPECT_EQ(shard.written(), 10u);
  EXPECT_EQ(shard.dropped(), 0u);
  EXPECT_EQ(shard.events().size(), 10u);
}

TEST(TraceSink, AccountsWrapAcrossTheSinkSurface) {
  TraceSink sink(8);
  for (std::uint32_t i = 0; i < 20; ++i)
    sink.record(3, EventKind::kStealAttempt, i);
  EXPECT_EQ(sink.recorded(), 20u);
  EXPECT_EQ(sink.dropped(), 12u);
  EXPECT_EQ(sink.shard_count(), 1u);
  const auto events = sink.snapshot();
  ASSERT_EQ(events.size(), 8u);
  for (std::uint32_t i = 0; i < 8; ++i) EXPECT_EQ(events[i].payload, 12u + i);
}

TEST(TraceSink, EventsFromOneThreadStayOrdered) {
  TraceSink sink;
  for (std::uint32_t i = 0; i < 500; ++i)
    sink.record(0, EventKind::kExpandBurst, i);
  const auto events = sink.snapshot();
  ASSERT_EQ(events.size(), 500u);
  for (std::uint32_t i = 0; i < 500; ++i) {
    EXPECT_EQ(events[i].payload, i);
    if (i > 0) EXPECT_GE(events[i].ts_ns, events[i - 1].ts_ns);
  }
}

TEST(TraceSink, EachRecordingThreadGetsItsOwnShard) {
  TraceSink sink;
  constexpr int kThreads = 4;
  constexpr std::uint32_t kPerThread = 200;
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([&sink, t] {
      for (std::uint32_t i = 0; i < kPerThread; ++i)
        sink.record(static_cast<std::uint16_t>(t), EventKind::kSteal, i);
    });
  }
  for (auto& th : ts) th.join();
  EXPECT_EQ(sink.shard_count(), static_cast<std::size_t>(kThreads));
  EXPECT_EQ(sink.recorded(), kThreads * std::uint64_t{kPerThread});
  EXPECT_EQ(sink.dropped(), 0u);
  // Per-lane payload order survives the merge-sort by timestamp.
  std::map<std::uint16_t, std::uint32_t> next;
  for (const auto& e : sink.snapshot()) {
    EXPECT_EQ(e.payload, next[e.lane]) << "lane " << e.lane;
    ++next[e.lane];
  }
}

TEST(TraceSink, NullSinkTraceIsANoOp) {
  obs::trace(nullptr, 0, EventKind::kSolution, 1);  // must not crash
  TraceSink sink;
  EXPECT_EQ(sink.recorded(), 0u);
  EXPECT_EQ(sink.dropped(), 0u);
  EXPECT_EQ(sink.shard_count(), 0u);
  EXPECT_TRUE(sink.snapshot().empty());
}

// ---------------------------------------------------- chrome trace export --

TEST(ChromeTrace, ExportParsesBackWithLaneMetadataAndCounts) {
  TraceSink sink;
  sink.record(0, EventKind::kExpandBurst, 17);
  sink.record(1, EventKind::kSteal, 0);
  sink.record(obs::kClientLaneBase, EventKind::kCacheMiss, 1);

  std::ostringstream out;
  obs::write_chrome_trace(sink, out);
  const JsonValue root = parse_json_or_fail(out.str());

  ASSERT_TRUE(root.is_object());
  ASSERT_TRUE(root.has("traceEvents"));
  ASSERT_TRUE(root.at("traceEvents").is_array());
  ASSERT_TRUE(root.has("otherData"));
  EXPECT_EQ(root.at("otherData").at("recorded_events").number, 3.0);
  EXPECT_EQ(root.at("otherData").at("dropped_events").number, 0.0);
  EXPECT_EQ(root.at("displayTimeUnit").str, "ms");

  std::size_t instants = 0;
  std::map<std::string, std::size_t> thread_names;
  for (const auto& ev : root.at("traceEvents").items) {
    ASSERT_TRUE(ev.is_object());
    ASSERT_TRUE(ev.has("ph"));
    const std::string ph = ev.at("ph").str;
    if (ph == "M") {
      if (ev.at("name").str == "thread_name")
        ++thread_names[ev.at("args").at("name").str];
      continue;
    }
    ASSERT_TRUE(ev.has("name"));
    ASSERT_TRUE(ev.has("ts"));
    ASSERT_TRUE(ev.has("pid"));
    ASSERT_TRUE(ev.has("tid"));
    if (ph == "i") ++instants;
  }
  EXPECT_EQ(instants, 3u);
  EXPECT_EQ(thread_names["worker 0"], 1u);
  EXPECT_EQ(thread_names["worker 1"], 1u);
  EXPECT_EQ(thread_names["client 0"], 1u);
}

TEST(ChromeTrace, QuerySpansArePairedAsyncEvents) {
  TraceSink sink;
  // Two interleaved query spans on one client lane.
  const auto lane = obs::kClientLaneBase;
  sink.record(lane, EventKind::kQueryBegin, 1);
  sink.record(lane, EventKind::kQueryBegin, 2);
  sink.record(lane, EventKind::kCacheHit, 2);
  sink.record(lane, EventKind::kQueryEnd, 2);
  sink.record(lane, EventKind::kQueryEnd, 1);

  std::ostringstream out;
  obs::write_chrome_trace(sink, out);
  const JsonValue root = parse_json_or_fail(out.str());

  std::map<double, int> balance;  // query id -> begins minus ends
  std::size_t begins = 0, ends = 0;
  for (const auto& ev : root.at("traceEvents").items) {
    const std::string ph = ev.at("ph").str;
    if (ph == "b") {
      ++begins;
      ++balance[ev.at("id").number];
      EXPECT_EQ(ev.at("cat").str, "service");
      EXPECT_EQ(ev.at("name").str, "query");
    } else if (ph == "e") {
      ++ends;
      --balance[ev.at("id").number];
    }
  }
  EXPECT_EQ(begins, 2u);
  EXPECT_EQ(ends, 2u);
  for (const auto& [id, b] : balance) EXPECT_EQ(b, 0) << "query id " << id;
}

TEST(ChromeTrace, TracedParallelSolveExportsWorkerEvents) {
  engine::Interpreter ip;
  ip.consult_string(blog::workloads::layered_dag(3, 3));

  TraceSink sink;
  parallel::ParallelOptions po;
  po.workers = 4;
  po.local_capacity = 1;  // force network traffic: spills + steals
  po.update_weights = false;
  po.trace = &sink;
  parallel::ParallelEngine pe(ip.program(), ip.weights(), &ip.builtins(), po);
  const auto r = pe.solve(ip.parse_query("path(n0_0,Z,P)"));
  ASSERT_TRUE(r.exhausted);
  EXPECT_GT(sink.recorded(), 0u);
  EXPECT_EQ(sink.dropped(), 0u);

  // Expansion work must show up as burst events attributed to worker lanes.
  // The solve is one executor job: its submit/done events sit on the
  // caller's client lane, once each.
  std::uint64_t burst_total = 0;
  bool saw_solution = false;
  std::map<std::uint16_t, int> job_events;
  for (const auto& e : sink.snapshot()) {
    if (std::string_view(obs::trace_event_category(
            static_cast<EventKind>(e.kind))) == "executor") {
      ++job_events[e.kind];
      continue;
    }
    EXPECT_LT(e.lane, obs::kClientLaneBase);  // engine events: worker lanes
    EXPECT_LT(e.lane, 4);
    if (e.kind == static_cast<std::uint16_t>(EventKind::kExpandBurst))
      burst_total += e.payload;
    if (e.kind == static_cast<std::uint16_t>(EventKind::kSolution))
      saw_solution = true;
  }
  EXPECT_EQ(burst_total, r.nodes_expanded);
  EXPECT_TRUE(saw_solution);
  EXPECT_EQ(job_events[static_cast<std::uint16_t>(EventKind::kJobSubmit)], 1);
  EXPECT_EQ(job_events[static_cast<std::uint16_t>(EventKind::kJobStart)], 1);
  EXPECT_EQ(job_events[static_cast<std::uint16_t>(EventKind::kJobDone)], 1);

  std::ostringstream out;
  obs::write_chrome_trace(sink, out);
  const JsonValue root = parse_json_or_fail(out.str());
  EXPECT_GT(root.at("traceEvents").items.size(), 0u);
}

TEST(ChromeTrace, ServiceQueriesProduceSpansAndLatencyStats) {
  TraceSink sink;
  service::ServiceOptions so;
  so.update_weights = false;
  so.trace = &sink;
  service::QueryService svc(so);
  svc.consult(blog::workloads::figure1_family());

  const auto r1 = svc.query("gf(sam,G)");
  EXPECT_EQ(r1.status, service::QueryStatus::Ok);
  const auto r2 = svc.query("gf(sam,G)");  // cache hit
  EXPECT_TRUE(r2.from_cache);

  const auto stats = svc.stats();
  EXPECT_EQ(stats.queries, 2u);
  EXPECT_EQ(stats.cache_hits, 1u);
  EXPECT_EQ(stats.latency_count, 2u);
  EXPECT_GE(stats.latency_p99_ms, stats.latency_p50_ms);
  EXPECT_GE(stats.latency_max_ms, 0.0);

  std::ostringstream out;
  obs::write_chrome_trace(sink, out);
  const JsonValue root = parse_json_or_fail(out.str());
  std::size_t begins = 0, ends = 0, hits = 0;
  for (const auto& ev : root.at("traceEvents").items) {
    const std::string ph = ev.at("ph").str;
    if (ph == "b") ++begins;
    if (ph == "e") ++ends;
    if (ph == "i" && ev.at("name").str == "cache.hit") ++hits;
  }
  EXPECT_EQ(begins, 2u);
  EXPECT_EQ(ends, 2u);
  EXPECT_EQ(hits, 1u);
}

TEST(ChromeTrace, NullSinkRunMatchesTracedRunAndRecordsNothing) {
  auto solve = [](obs::TraceSink* sink) {
    engine::Interpreter ip;
    ip.consult_string(blog::workloads::figure1_family());
    parallel::ParallelOptions po;
    po.workers = 2;
    po.update_weights = false;
    po.trace = sink;
    parallel::ParallelEngine pe(ip.program(), ip.weights(), &ip.builtins(),
                                po);
    const auto r = pe.solve(ip.parse_query("gf(sam,G)"));
    std::vector<std::string> got;
    for (const auto& s : r.solutions) got.push_back(s.text);
    std::sort(got.begin(), got.end());
    return got;
  };
  TraceSink sink;
  EXPECT_EQ(solve(nullptr), solve(&sink));
  EXPECT_GT(sink.recorded(), 0u);
}

// ------------------------------------------------------- metrics registry --

TEST(MetricsRegistry, CountersAreStableNamedAndMonotonic) {
  obs::MetricsRegistry reg;
  obs::Counter& c = reg.counter("a.count");
  c.inc();
  c.inc(4);
  EXPECT_EQ(c.value(), 5u);
  EXPECT_EQ(&reg.counter("a.count"), &c);  // find-or-create: same object
  EXPECT_NE(&reg.counter("b.count"), &c);
}

TEST(MetricsRegistry, GaugeHoldsLastValue) {
  obs::MetricsRegistry reg;
  obs::Gauge& g = reg.gauge("depth");
  EXPECT_EQ(g.value(), 0.0);
  g.set(3.5);
  g.set(-1.25);
  EXPECT_EQ(g.value(), -1.25);
}

TEST(MetricsRegistry, HistogramPercentilesInterpolate) {
  obs::MetricsRegistry reg;
  obs::HistogramMetric& h = reg.histogram("lat", 0.0, 100.0, 1000);
  for (int i = 1; i <= 100; ++i) h.observe(static_cast<double>(i));
  EXPECT_EQ(h.count(), 100u);
  EXPECT_NEAR(h.mean(), 50.5, 1e-9);
  EXPECT_NEAR(h.percentile(50), 50.0, 0.5);
  EXPECT_NEAR(h.percentile(95), 95.0, 0.5);
  EXPECT_NEAR(h.percentile(99), 99.0, 0.5);
  EXPECT_EQ(h.min(), 1.0);
  EXPECT_EQ(h.max(), 100.0);
  // Same-name lookup ignores new bounds and returns the original.
  EXPECT_EQ(&reg.histogram("lat", 0.0, 1.0, 2), &h);
}

TEST(MetricsRegistry, EmptyHistogramReadsAreDefined) {
  obs::MetricsRegistry reg;
  obs::HistogramMetric& h = reg.histogram("empty", 5.0, 10.0, 10);
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.percentile(99), 5.0);  // lower edge, not garbage
  EXPECT_EQ(h.mean(), 0.0);
}

TEST(MetricsRegistry, DumpJsonParsesAndCoversEveryMetric) {
  obs::MetricsRegistry reg;
  reg.counter("service.queries").inc(7);
  reg.gauge("load").set(0.5);
  obs::HistogramMetric& h = reg.histogram("lat_ms", 0.0, 10.0, 100);
  h.observe(1.0);
  h.observe(2.0);

  const JsonValue root = parse_json_or_fail(reg.dump_json());
  ASSERT_TRUE(root.is_object());
  EXPECT_EQ(root.at("service.queries").number, 7.0);
  EXPECT_EQ(root.at("load").number, 0.5);
  ASSERT_TRUE(root.at("lat_ms").is_object());
  EXPECT_EQ(root.at("lat_ms").at("count").number, 2.0);
  EXPECT_NEAR(root.at("lat_ms").at("mean").number, 1.5, 1e-9);
  EXPECT_TRUE(root.at("lat_ms").has("p50"));
  EXPECT_TRUE(root.at("lat_ms").has("p99"));

  const std::string text = reg.dump_text();
  EXPECT_NE(text.find("service.queries"), std::string::npos);
  EXPECT_NE(text.find("lat_ms"), std::string::npos);
}

}  // namespace
}  // namespace blog
