#include "harness.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>

namespace vkg::perfbench {

double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double n = static_cast<double>(samples.size());
  size_t rank = static_cast<size_t>(std::ceil(p * n - 1e-9));
  rank = std::clamp<size_t>(rank, 1, samples.size());
  return samples[rank - 1];
}

double Median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

double GroupedPercentile(const std::vector<std::vector<double>>& groups,
                         double p) {
  bool per_group = !groups.empty();
  std::vector<double> pooled;
  for (const auto& g : groups) {
    per_group = per_group && (1.0 - p) * static_cast<double>(g.size()) >= 10;
    pooled.insert(pooled.end(), g.begin(), g.end());
  }
  if (!per_group) return Percentile(std::move(pooled), p);
  std::vector<double> each;
  for (const auto& g : groups) each.push_back(Percentile(g, p));
  return Median(each);
}

uint64_t Rng::Next() {
  uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

double Rng::Uniform() {
  return static_cast<double>(Next() >> 11) * 0x1.0p-53;
}

size_t Rng::Index(size_t n) {
  return static_cast<size_t>(Uniform() * static_cast<double>(n)) % n;
}

uint64_t StreamSeed(uint64_t seed, uint64_t salt) {
  Rng rng(seed ^ (salt * 0xD1B54A32D192ED03ull));
  return rng.Next();
}

ZipfTable::ZipfTable(size_t n, double s) {
  cdf_.resize(n);
  double total = 0.0;
  for (size_t r = 0; r < n; ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), s);
    cdf_[r] = total;
  }
  for (double& c : cdf_) c /= total;
}

size_t ZipfTable::Sample(Rng& rng) const {
  const double u = rng.Uniform();
  const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
  return std::min<size_t>(it - cdf_.begin(), cdf_.size() - 1);
}

std::vector<double> PoissonSchedule(double rate, double duration_s,
                                    uint64_t seed) {
  std::vector<double> out;
  if (rate <= 0.0) return out;
  out.reserve(static_cast<size_t>(rate * duration_s * 1.1) + 16);
  Rng rng(seed);
  double t = 0.0;
  while (true) {
    t += -std::log1p(-rng.Uniform()) / rate;
    if (t >= duration_s) break;
    out.push_back(t);
  }
  return out;
}

bool ValidMetricName(std::string_view name) {
  if (name.empty()) return false;
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '.' ||
                    c == '-';
    if (!ok) return false;
  }
  return true;
}

void MetricSet::Add(const std::string& name, double value,
                    const std::string& unit, const std::string& note) {
  entries_.push_back({name, value, unit, note});
}

bool MetricSet::NamesValid() const {
  for (size_t i = 0; i < entries_.size(); ++i) {
    if (!ValidMetricName(entries_[i].name)) return false;
    for (size_t j = 0; j < i; ++j) {
      if (entries_[j].name == entries_[i].name) return false;
    }
  }
  return true;
}

void MetricSet::PrintTable() const {
  for (const Entry& e : entries_) {
    std::printf("  %-34s %14.6g %-7s %s\n", e.name.c_str(), e.value,
                e.unit.c_str(), e.note.c_str());
  }
}

std::string MetricSet::Json() const {
  std::string out = "{";
  char buf[64];
  for (size_t i = 0; i < entries_.size(); ++i) {
    const Entry& e = entries_[i];
    // %.17g keeps every digit of the measurement; non-finite values
    // cannot be JSON and never come out of a valid run.
    std::snprintf(buf, sizeof(buf), "%.17g",
                  std::isfinite(e.value) ? e.value : 0.0);
    out += (i == 0 ? "\"" : ", \"") + e.name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + e.unit + "\"}";
  }
  return out + "}";
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  return 0.0;
}

StealRecorder::Reading StealRecorder::Read() {
  Reading out{NowSeconds(), 0, 0};
  std::ifstream stat("/proc/stat");
  std::string label;
  stat >> label;
  if (label != "cpu") return out;
  // user nice system idle iowait irq softirq steal
  for (int field = 0; field < 8; ++field) {
    uint64_t value = 0;
    if (!(stat >> value)) return Reading{out.at_s, 0, 0};
    out.total_ticks += value;
    if (field == 7) out.steal_ticks = value;
  }
  return out;
}

StealRecorder::StealRecorder() {
  readings_.push_back(Read());
  thread_ = std::thread([this] {
    std::unique_lock<std::mutex> lock(mu_);
    while (!wake_.wait_for(lock, std::chrono::milliseconds(20),
                           [this] { return stop_; })) {
      lock.unlock();
      const Reading reading = Read();
      lock.lock();
      readings_.push_back(reading);
    }
  });
}

StealRecorder::~StealRecorder() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  wake_.notify_all();
  thread_.join();
}

double StealRecorder::Share(double from_s, double to_s) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto nearest = [&](double t) -> const Reading& {
    const auto it = std::lower_bound(
        readings_.begin(), readings_.end(), t,
        [](const Reading& r, double at) { return r.at_s < at; });
    if (it == readings_.end()) return readings_.back();
    if (it == readings_.begin() || it->at_s - t < t - (it - 1)->at_s) {
      return *it;
    }
    return *(it - 1);
  };
  const Reading& from = nearest(from_s);
  const Reading& to = nearest(to_s);
  if (to.total_ticks <= from.total_ticks) return 0.0;
  return static_cast<double>(to.steal_ticks - from.steal_ticks) /
         static_cast<double>(to.total_ticks - from.total_ticks);
}

std::vector<std::vector<double>> QuietGroups(
    const std::vector<std::vector<double>>& groups,
    const std::vector<double>& steal) {
  if (groups.empty()) return {};
  std::vector<size_t> order(groups.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return steal[a] < steal[b];
  });
  const double limit = steal[order.front()] + 0.02;
  size_t keep = (groups.size() + 1) / 2;
  while (keep < order.size() && steal[order[keep]] <= limit) ++keep;
  order.resize(keep);
  std::sort(order.begin(), order.end());
  std::vector<std::vector<double>> out;
  for (size_t i : order) out.push_back(groups[i]);
  return out;
}

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int RunHarnessSelfTests() {
  int failures = 0;
  auto expect = [&](bool ok, const char* what) {
    if (!ok) {
      std::fprintf(stderr, "self-test FAILED: %s\n", what);
      ++failures;
    }
  };

  // Percentile rank rule: nearest rank, ceil(p * n).
  std::vector<double> hundred;
  for (int i = 100; i >= 1; --i) hundred.push_back(i);
  expect(Percentile(hundred, 0.50) == 50.0, "p50 of 1..100 is 50");
  expect(Percentile(hundred, 0.99) == 99.0, "p99 of 1..100 is 99");
  expect(Percentile(hundred, 1.00) == 100.0, "p100 of 1..100 is 100");
  expect(Percentile(hundred, 0.001) == 1.0, "p0.1 of 1..100 is 1");
  std::vector<double> thousand;
  for (int i = 1; i <= 1000; ++i) thousand.push_back(i);
  expect(Percentile(thousand, 0.99) == 990.0, "p99 of 1..1000 is 990");
  expect(Percentile({7.0}, 0.99) == 7.0, "p99 of one sample");
  expect(Percentile({}, 0.5) == 0.0, "percentile of no samples");
  expect(Median({1.0, 2.0, 3.0, 10.0}) == 2.5, "even median");
  // Three groups with p50s 1, 2 and 100: the median group wins.
  const std::vector<double> ones(30, 1.0), twos(30, 2.0), big(30, 100.0);
  expect(GroupedPercentile({ones, twos, big}, 0.5) == 2.0,
         "grouped percentile is the median group's");
  // Too few samples beyond p99 in a group: pooled instead.
  expect(GroupedPercentile({{1.0, 2.0}, {3.0, 4.0}}, 0.99) == 4.0,
         "small groups fall back to the pooled percentile");

  // Quiet groups: all within two points of the quietest, else the
  // quieter half; in order.
  const std::vector<std::vector<double>> five = {{1}, {2}, {3}, {4}, {5}};
  expect(QuietGroups(five, {0.0, 0.01, 0.02, 0.0, 0.015}) == five,
         "a quiet host keeps every group");
  expect(QuietGroups(five, {0.3, 0.0, 0.2, 0.0, 0.1}) ==
             std::vector<std::vector<double>>{{2}, {4}, {5}},
         "a noisy host keeps the quieter half");

  // Same seed, same schedule and ranks; another seed, another stream.
  const auto a = PoissonSchedule(1000.0, 1.0, 7);
  const auto b = PoissonSchedule(1000.0, 1.0, 7);
  const auto c = PoissonSchedule(1000.0, 1.0, 8);
  expect(a == b, "same seed gives the same schedule");
  expect(a != c, "another seed gives another schedule");
  expect(a.size() > 850 && a.size() < 1150,
         "Poisson count near rate * duration");
  expect(std::is_sorted(a.begin(), a.end()), "schedule is ordered");
  ZipfTable zipf(1000, 1.1);
  auto ranks = [&](uint64_t seed) {
    Rng rng(seed);
    std::vector<size_t> out;
    for (int i = 0; i < 2000; ++i) out.push_back(zipf.Sample(rng));
    return out;
  };
  expect(ranks(3) == ranks(3), "same seed gives the same ranks");
  expect(ranks(3) != ranks(4), "another seed gives other ranks");
  const auto r = ranks(3);
  const auto top = std::count(r.begin(), r.end(), size_t{0});
  expect(top > 100, "Zipf rank 0 is the most frequent");
  expect(StreamSeed(1, 2) != StreamSeed(1, 3), "salts separate streams");

  expect(ValidMetricName("net.call_hit_us.p50"), "dotted name is valid");
  expect(!ValidMetricName("bad name"), "space is invalid");
  expect(!ValidMetricName(""), "empty name is invalid");
  MetricSet duplicate;
  duplicate.Add("a", 1.0, "ms");
  duplicate.Add("a", 2.0, "ms");
  expect(!duplicate.NamesValid(), "a repeated name is invalid");
  return failures;
}

}  // namespace vkg::perfbench
