#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/timer.h"

namespace perfbench {

/// Command line of one benchmark run.
struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  /// false: end-to-end metrics, no spans. true: the per-layer run.
  bool trace = false;
  /// Scratch directory for files the workload writes (the durable store).
  std::string workdir;
};

/// Detector threads, server workers and clients: one per CPU of the
/// 2-CPU reference box, so the load generator never oversubscribes it.
inline constexpr size_t kThreads = 2;

/// Result of one run: metric values, op accounting and correctness.
/// Emit prints a human-readable report, then the one-line JSON result.
class Outcome {
 public:
  /// Records a metric. Names come from the end-to-end or per-layer list
  /// in harness.cc; the run prints the list that matches its mode.
  void Set(const std::string& name, double value) { values_[name] = value; }

  /// Records an extra report line (not part of the JSON result).
  void Note(const std::string& name, double value, const std::string& unit);

  /// Records a failed correctness check; the run exits non-zero.
  void Fail(const std::string& why);

  bool ok() const { return failures_.empty(); }

  uint64_t attempted = 0;
  uint64_t failed = 0;

  /// Prints the report and the JSON line; returns the process exit code.
  int Emit(bool trace) const;

 private:
  std::map<std::string, double> values_;
  std::vector<std::string> notes_;
  std::vector<std::string> failures_;
};

/// Nearest-rank percentile, p in [0, 100]. Failed ops enter as +inf.
double Percentile(std::vector<double> samples, double p);

inline double Median(std::vector<double> samples) {
  return Percentile(std::move(samples), 50.0);
}

/// Peak resident set size of this process, in MB.
double PeakRssMb();

/// Folds the bit pattern of `value` into `hash` (order-sensitive).
uint64_t MixChecksum(uint64_t hash, double value);

/// Times `reps` set-ups spread evenly over a run of `run_seconds`: the first
/// before the timed phase (its state is the one the run uses), the others
/// between timed steps as they fall due, each building a throwaway state
/// that is destroyed untimed. The shared host's speed drifts by tens of
/// percent over seconds; spread out, the repetitions sample it at the same
/// moments as the other metrics, so setup_s does not hinge on how fast the
/// host happened to be in the run's first second. With run_seconds 0 every
/// repetition is due at once.
class SpreadSetup {
 public:
  SpreadSetup(double run_seconds, int reps)
      : run_seconds_(run_seconds), reps_(reps) {}

  /// Runs `build` once, records its wall seconds, returns its state.
  template <typename Fn>
  auto Rep(Fn&& build) {
    dbim::Timer timer;
    auto state = build();
    seconds_.push_back(timer.Seconds());
    return state;
  }

  /// Runs every repetition due `elapsed` seconds into the run.
  template <typename Fn>
  void RepsDue(double elapsed, Fn&& build) {
    while (done() < reps_ &&
           elapsed >= static_cast<double>(done()) * run_seconds_ / reps_) {
      Rep(build);
    }
  }

  /// Runs the repetitions a short run did not reach.
  template <typename Fn>
  void Finish(Fn&& build) {
    while (done() < reps_) Rep(build);
  }

  double MedianSeconds() const { return Median(seconds_); }

 private:
  int done() const { return static_cast<int>(seconds_.size()); }

  double run_seconds_;
  int reps_;
  std::vector<double> seconds_;
};

/// A uniform random sample of at most kCapacity values of a stream
/// (Vitter's Algorithm R), so the memory a run spends on latency samples
/// does not grow with the number of ops it served and peak_rss_mb does not
/// rise when throughput does.
class Reservoir {
 public:
  static constexpr size_t kCapacity = size_t{1} << 16;

  explicit Reservoir(uint64_t seed) : rng_(seed) {}

  void Add(double value) {
    ++seen_;
    if (samples_.size() < kCapacity) {
      samples_.push_back(value);
      return;
    }
    const size_t slot = rng_.UniformIndex(seen_);
    if (slot < kCapacity) samples_[slot] = value;
  }

  const std::vector<double>& samples() const { return samples_; }
  /// Values added, sampled or not.
  size_t seen() const { return seen_; }

 private:
  dbim::Rng rng_;
  size_t seen_ = 0;
  std::vector<double> samples_;
};

/// Spans recorded around calls into one layer, by layer name, kept in
/// memory until the run reports.
class LayerTimes {
 public:
  void Add(const std::string& layer, double seconds) {
    spans_[layer].push_back(seconds);
  }
  const std::vector<double>& Spans(const std::string& layer) const;
  double Total(const std::string& layer) const;
  double TotalAll() const;

 private:
  std::map<std::string, std::vector<double>> spans_;
};

// The three workloads (one source file each).
void RunAudit(const Args& args, Outcome* out);
void RunRepairLoop(const Args& args, Outcome* out);
void RunServiceDurable(const Args& args, Outcome* out);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
