#include "common.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <limits>
#include <stdexcept>

#include <sched.h>
#include <sys/resource.h>

namespace perfbench {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ------------------------------------------------------------ histogram --

void LatencyHistogram::add(std::int64_t ns) {
  const std::uint64_t v = ns > 0 ? static_cast<std::uint64_t>(ns) : 0;
  std::size_t idx = 0;
  if (v < kSub) {
    idx = v;
  } else {
    const int e = 63 - std::countl_zero(v);  // >= kSubBits
    const int shift = e - kSubBits;
    idx = static_cast<std::size_t>(e - kSubBits + 1) * kSub +
          static_cast<std::size_t>((v >> shift) - kSub);
  }
  ++buckets_[idx];
  ++n_;
  sum_ += static_cast<double>(v);
}

void LatencyHistogram::merge(const LatencyHistogram& other) {
  for (std::size_t i = 0; i < buckets_.size(); ++i) buckets_[i] += other.buckets_[i];
  n_ += other.n_;
  sum_ += other.sum_;
}

double LatencyHistogram::percentile_ns(double q) const {
  if (n_ == 0) return 0.0;
  const double target = std::clamp(q, 0.0, 1.0) * static_cast<double>(n_);
  double cum = 0.0;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    const auto c = static_cast<double>(buckets_[i]);
    if (c == 0.0) continue;
    if (cum + c >= target) {
      double lo = 0.0;
      double width = 1.0;
      if (i >= static_cast<std::size_t>(kSub)) {
        const std::size_t group = i / kSub;  // >= 1
        const auto mant = static_cast<double>(i % kSub);
        width = std::ldexp(1.0, static_cast<int>(group) - 1);
        lo = (kSub + mant) * width;
      } else {
        lo = static_cast<double>(i);
      }
      return lo + (target - cum) / c * width;
    }
    cum += c;
  }
  return 0.0;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

double peak_rss_mb() {
  rusage ru{};
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0.0;
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux reports KiB
}

// ---------------------------------------------------------- cpu rotation --

CpuRotation::CpuRotation() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return;
  for (int c = 0; c < CPU_SETSIZE; ++c)
    if (CPU_ISSET(c, &set)) cpus_.push_back(c);
}

CpuRotation::~CpuRotation() {
  if (cpus_.empty()) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int c : cpus_) CPU_SET(c, &set);
  sched_setaffinity(0, sizeof set, &set);
}

void CpuRotation::next() {
  if (cpus_.size() < 2) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpus_[pos_], &set);
  pos_ = (pos_ + 1) % cpus_.size();
  sched_setaffinity(0, sizeof set, &set);
}

// ----------------------------------------------------------------- spans --

const char* layer_name(Layer l) {
  switch (l) {
    case Layer::kBench: return "bench";
    case Layer::kTerm: return "term";
    case Layer::kDb: return "db";
    case Layer::kAnalysis: return "analysis";
    case Layer::kSearch: return "search";
    case Layer::kParallel: return "parallel";
    case Layer::kAndp: return "andp";
    case Layer::kService: return "service";
    case Layer::kCount: break;
  }
  return "?";
}

SpanLog::SpanLog(std::uint16_t thread, std::size_t capacity)
    : thread_(thread), capacity_(capacity) {
  spans_.reserve(capacity);
  stack_.reserve(8);
}

std::uint32_t SpanLog::keep(const Span& s) {
  if (spans_.size() >= capacity_) {
    ++dropped_;
    return 0;
  }
  spans_.push_back(s);
  return static_cast<std::uint32_t>(spans_.size());
}

void SpanLog::open(const char* name, Layer layer, std::uint64_t request,
                   std::int64_t start_ns) {
  const std::uint32_t parent = stack_.empty() ? 0 : stack_.back().id;
  const std::uint32_t id =
      keep(Span{name, layer, thread_, parent, request, start_ns, start_ns});
  stack_.push_back(Frame{id, layer, start_ns, 0});
}

void SpanLog::interval(const char* name, Layer layer, std::uint64_t request,
                       std::int64_t start_ns, std::int64_t end_ns) {
  end_ns = std::max(end_ns, start_ns);
  const std::uint32_t parent = stack_.empty() ? 0 : stack_.back().id;
  keep(Span{name, layer, thread_, parent, request, start_ns, end_ns});
  const auto dur = static_cast<double>(end_ns - start_ns);
  self_ns_[static_cast<std::size_t>(layer)] += dur;
  if (stack_.empty()) {
    root_ns_ += dur;
  } else {
    stack_.back().child_ns += end_ns - start_ns;
  }
}

void SpanLog::close(std::int64_t end_ns) {
  const Frame f = stack_.back();
  stack_.pop_back();
  end_ns = std::max(end_ns, f.start);
  if (f.id != 0) spans_[f.id - 1].end_ns = end_ns;
  const std::int64_t dur = end_ns - f.start;
  self_ns_[static_cast<std::size_t>(f.layer)] += static_cast<double>(dur - f.child_ns);
  if (stack_.empty()) {
    root_ns_ += static_cast<double>(dur);
  } else {
    stack_.back().child_ns += dur;
  }
}

bool write_chrome_trace(const std::string& path, const std::vector<const SpanLog*>& logs) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::int64_t t0 = std::numeric_limits<std::int64_t>::max();
  for (const SpanLog* log : logs)
    for (const Span& s : log->spans()) t0 = std::min(t0, s.start_ns);
  std::fputs("{\"traceEvents\":[\n", f);
  bool first = true;
  std::uint64_t dropped = 0;
  for (const SpanLog* log : logs) {
    dropped += log->dropped();
    for (const Span& s : log->spans()) {
      std::fprintf(f,
                   "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                   "\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"request\":%llu,"
                   "\"parent\":%u}}",
                   first ? "" : ",\n", s.name, layer_name(s.layer), s.thread,
                   static_cast<double>(s.start_ns - t0) / 1e3,
                   static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                   static_cast<unsigned long long>(s.request), s.parent);
      first = false;
    }
  }
  std::fprintf(f, "\n],\"otherData\":{\"dropped_spans\":%llu}}\n",
               static_cast<unsigned long long>(dropped));
  return std::fclose(f) == 0;
}

double TraceBlocks::time_in(bool traced, std::int64_t end_ns) const {
  const std::int64_t total = std::max<std::int64_t>(end_ns - start_, 0);
  const std::int64_t pairs = total / (2 * kBlockNs);
  const std::int64_t rest = total - pairs * 2 * kBlockNs;
  const std::int64_t untraced_ns = pairs * kBlockNs + std::min(rest, kBlockNs);
  const std::int64_t traced_ns = total - untraced_ns;
  return static_cast<double>(traced ? traced_ns : untraced_ns) / 1e9;
}

// ---------------------------------------------------------------- report --

void Report::add(const std::string& name, double value) { metrics_.emplace_back(name, value); }

std::string Report::json(const std::vector<MetricSpec>& specs) const {
  for (const auto& [name, value] : metrics_) {
    const bool known = std::any_of(specs.begin(), specs.end(),
                                   [&](const MetricSpec& s) { return name == s.name; });
    if (!known) throw std::logic_error("metric not in the printed set: " + name);
  }
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  char buf[64];
  for (std::size_t i = 0; i < specs.size(); ++i) {
    double v = 0.0;
    for (const auto& [name, value] : metrics_)
      if (name == specs[i].name) v = std::isfinite(value) ? value : 0.0;
    std::snprintf(buf, sizeof buf, "%.17g", v);
    out += std::string(i ? ", \"" : "\"") + specs[i].name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + specs[i].unit + "\"}";
  }
  out += "}}";
  return out;
}

void add_layer_shares(Report& rep, const std::vector<const SpanLog*>& logs) {
  std::array<double, kLayerCount> self{};
  double root = 0.0;
  for (const SpanLog* log : logs) {
    for (std::size_t i = 0; i < kLayerCount; ++i) self[i] += log->self_ns()[i];
    root += log->root_ns();
  }
  if (root <= 0.0) root = 1.0;
  for (Layer l : {Layer::kTerm, Layer::kSearch, Layer::kParallel, Layer::kAndp,
                  Layer::kService}) {
    rep.add(std::string("self.") + layer_name(l) + "_share",
            self[static_cast<std::size_t>(l)] / root);
  }
  rep.add("trace.residual_share", self[static_cast<std::size_t>(Layer::kBench)] / root);
}

}  // namespace perfbench
