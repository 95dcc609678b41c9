#ifndef VKG_PERFBENCH_HARNESS_H_
#define VKG_PERFBENCH_HARNESS_H_

// Workload-independent pieces of the serving benchmark: the percentile
// rule, the seeded generators (Poisson arrivals, Zipf ranks), metric
// collection and the result line.

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

namespace vkg::perfbench {

/// Nearest-rank percentile: the smallest sample with at least
/// ceil(p * n) samples at or below it (p in (0, 1]). 0 for no samples.
double Percentile(std::vector<double> samples, double p);

/// Median of `samples` (average of the middle pair for even n).
double Median(std::vector<double> samples);

/// The p-percentile of grouped samples (time slices or episodes of a
/// run): the median over groups of each group's percentile, so a stall
/// confined to a minority of groups does not move it. When some group
/// has fewer than ten samples beyond the percentile, the pooled samples
/// are used instead.
double GroupedPercentile(const std::vector<std::vector<double>>& groups,
                         double p);

/// SplitMix64: a small, fully specified generator, so a seed yields the
/// same schedule and key stream with any standard library.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  /// Uniform in [0, 1).
  double Uniform();
  /// Uniform in [0, n).
  size_t Index(size_t n);

 private:
  uint64_t state_;
};

/// Mixes a run seed with a per-use salt into an independent stream seed.
uint64_t StreamSeed(uint64_t seed, uint64_t salt);

/// Zipf(s) over ranks [0, n): P(rank r) proportional to 1 / (r + 1)^s.
class ZipfTable {
 public:
  ZipfTable(size_t n, double s);
  size_t Sample(Rng& rng) const;

 private:
  std::vector<double> cdf_;
};

/// Arrival offsets in seconds of a Poisson process at `rate` per second
/// over [0, duration_s).
std::vector<double> PoissonSchedule(double rate, double duration_s,
                                    uint64_t seed);

/// The sample-count note printed beside a metric: "n=<n>".
inline std::string Count(size_t n) { return "n=" + std::to_string(n); }

/// True when `name` matches [A-Za-z0-9_.-]+.
bool ValidMetricName(std::string_view name);

/// Named measurements of one run, in insertion order. `note` carries the
/// sample count or ratio base printed beside the value.
class MetricSet {
 public:
  void Add(const std::string& name, double value, const std::string& unit,
           const std::string& note = "");
  /// True when every name matches [A-Za-z0-9_.-]+ and none repeats.
  bool NamesValid() const;

  /// One human-readable line per metric.
  void PrintTable() const;
  /// The "metrics" object of the result line.
  std::string Json() const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
    std::string note;
  };
  std::vector<Entry> entries_;
};

/// Peak resident set size (VmHWM) of this process in MiB.
double PeakRssMb();

/// Reads the host's CPU time counters (/proc/stat) every 20 ms on a
/// background thread, from construction to destruction, so that the
/// share of CPU time the hypervisor gave other guests (steal) over any
/// stretch of a phase can be looked up afterwards. The share is 0 where
/// the counters are unavailable.
class StealRecorder {
 public:
  StealRecorder();
  ~StealRecorder();
  StealRecorder(const StealRecorder&) = delete;
  StealRecorder& operator=(const StealRecorder&) = delete;

  /// Steal share over [from_s, to_s] on the NowSeconds() clock, between
  /// the readings nearest those instants.
  double Share(double from_s, double to_s) const;

 private:
  struct Reading {
    double at_s;
    uint64_t total_ticks;
    uint64_t steal_ticks;
  };
  static Reading Read();
  mutable std::mutex mu_;
  std::condition_variable wake_;
  bool stop_ = false;
  std::vector<Reading> readings_;
  std::thread thread_;
};

/// The groups (time slices of a phase) that ran while the host was
/// quiet: those whose steal share in `steal` is within two percentage
/// points of the lowest, or, when fewer than half are, the quieter half
/// (rounded up); in their original order. A hypervisor that runs other
/// guests on this machine's cores stalls every thread of the stack for
/// milliseconds at a time; on the measuring VM such bursts came and went
/// within seconds and inflated a run's latencies up to thirty-fold.
std::vector<std::vector<double>> QuietGroups(
    const std::vector<std::vector<double>>& groups,
    const std::vector<double>& steal);

/// Monotonic seconds since an arbitrary epoch.
double NowSeconds();

/// Checks the harness itself (percentile rule, generator determinism,
/// metric names). Returns the number of failed checks; prints each.
int RunHarnessSelfTests();

}  // namespace vkg::perfbench

#endif  // VKG_PERFBENCH_HARNESS_H_
