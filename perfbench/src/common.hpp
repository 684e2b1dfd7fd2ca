// Shared pieces of the benchmark harness: the clock, fixed-storage latency
// histograms, the traced run's span log, and the result line.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Monotonic time in nanoseconds (steady clock).
std::int64_t now_ns();

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Self-test hook: corrupt the oracle of the operation with this index
  /// (counted from the first timed operation), so a correct answer must be
  /// counted as failed. -1 = off.
  long long plant_wrong = -1;
  /// Traced run: write the kept spans here as Chrome trace JSON.
  std::string trace_out;
};

/// Latency histogram with fixed storage: 128 linear sub-buckets per power of
/// two of nanoseconds (under 1% relative width), so memory does not grow
/// with run length. Percentiles interpolate linearly inside a bucket.
class LatencyHistogram {
public:
  void add(std::int64_t ns);
  void merge(const LatencyHistogram& other);
  [[nodiscard]] std::uint64_t count() const { return n_; }
  [[nodiscard]] double mean_ns() const { return n_ ? sum_ / static_cast<double>(n_) : 0.0; }
  /// q in [0, 1]; 0 when empty.
  [[nodiscard]] double percentile_ns(double q) const;

private:
  static constexpr int kSubBits = 7;
  static constexpr int kSub = 1 << kSubBits;
  static constexpr int kBuckets = (64 - kSubBits + 1) * kSub;
  std::vector<std::uint64_t> buckets_ = std::vector<std::uint64_t>(kBuckets, 0);
  std::uint64_t n_ = 0;
  double sum_ = 0.0;
};

/// Median of a small sample (copied); 0 when empty.
double median(std::vector<double> v);

/// Peak resident set size of this process, MiB (getrusage ru_maxrss).
double peak_rss_mb();

/// Moves the calling thread round-robin over the CPUs it may run on, one
/// CPU per next() call; the destructor restores the original affinity. On
/// a shared host each core has its own neighbours and speeds up or slows
/// down independently, so a single-threaded loop that stays on one core
/// inherits that core's luck for the whole run; rotating averages over all
/// of them. Best effort: a refused affinity call leaves the thread where it
/// is.
class CpuRotation {
public:
  CpuRotation();
  ~CpuRotation();
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;
  void next();

private:
  std::vector<int> cpus_;
  std::size_t pos_ = 0;
};

/// The repository's modules on the query path, plus the benchmark itself
/// (its own loop and answer checks).
enum class Layer : std::uint8_t {
  kBench,
  kTerm,
  kDb,
  kAnalysis,
  kSearch,
  kParallel,
  kAndp,
  kService,
  kCount
};
inline constexpr std::size_t kLayerCount = static_cast<std::size_t>(Layer::kCount);
const char* layer_name(Layer l);

/// One timed public call of the traced run.
struct Span {
  const char* name = "";
  Layer layer = Layer::kBench;
  std::uint16_t thread = 0;
  std::uint32_t parent = 0;  // 1-based index in the same log; 0 = root
  std::uint64_t request = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// Per-thread span log. Spans nest per thread: open() a parent, record its
/// children with interval() (endpoints may have been stamped on another
/// thread), close() it. Self time (duration minus the part covered by child
/// spans) is summed per layer for every span; only the first `capacity`
/// spans are kept for the trace file.
class SpanLog {
public:
  SpanLog(std::uint16_t thread, std::size_t capacity);

  void open(const char* name, Layer layer, std::uint64_t request, std::int64_t start_ns);
  void interval(const char* name, Layer layer, std::uint64_t request, std::int64_t start_ns,
                std::int64_t end_ns);
  void close(std::int64_t end_ns);

  /// Self time per layer, ns, over every closed span.
  [[nodiscard]] const std::array<double, kLayerCount>& self_ns() const { return self_ns_; }
  /// Summed duration of closed root spans (the end-to-end time the layers
  /// must account for).
  [[nodiscard]] double root_ns() const { return root_ns_; }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  [[nodiscard]] std::uint64_t dropped() const { return dropped_; }

private:
  struct Frame {
    std::uint32_t id;  // 1-based kept index, 0 when not kept
    Layer layer;
    std::int64_t start;
    std::int64_t child_ns;
  };
  std::uint32_t keep(const Span& s);

  std::uint16_t thread_;
  std::size_t capacity_;
  std::vector<Span> spans_;
  std::vector<Frame> stack_;
  std::array<double, kLayerCount> self_ns_{};
  double root_ns_ = 0.0;
  std::uint64_t dropped_ = 0;
};

/// Write every kept span of `logs` as Chrome trace JSON ("X" events).
bool write_chrome_trace(const std::string& path, const std::vector<const SpanLog*>& logs);

/// Alternating untraced / traced blocks of the traced run: both halves see
/// the same host drift, so their throughput ratio is the tracing overhead.
class TraceBlocks {
public:
  explicit TraceBlocks(std::int64_t start_ns) : start_(start_ns) {}
  [[nodiscard]] bool traced(std::int64_t t) const { return ((t - start_) / kBlockNs) % 2 == 1; }
  /// Wall time of [start, end) that fell in traced (true) or untraced blocks.
  [[nodiscard]] double time_in(bool traced, std::int64_t end_ns) const;

private:
  static constexpr std::int64_t kBlockNs = 1'000'000'000;
  std::int64_t start_;
};

/// A metric the benchmark prints: its name and unit.
struct MetricSpec {
  const char* name;
  const char* unit;
};

/// The benchmark's last stdout line.
class Report {
public:
  void add(const std::string& name, double value);
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Every metric of `specs`, in order; a metric the workload did not add
  /// (a layer it does not run) reads 0. Throws std::logic_error when the
  /// workload added a metric `specs` does not name.
  [[nodiscard]] std::string json(const std::vector<MetricSpec>& specs) const;

private:
  std::vector<std::pair<std::string, double>> metrics_;
};

/// Layer self-time shares and the unattributed residual of a traced run:
/// `self.<layer>_share` for every query-path layer and `trace.residual_share`
/// (benchmark self time / end-to-end time of the root spans).
void add_layer_shares(Report& rep, const std::vector<const SpanLog*>& logs);

}  // namespace perfbench
