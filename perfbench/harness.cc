// Main program of the repository benchmark: parses the command line, runs
// one workload and prints its metrics. Built and invoked by run.py; see
// BENCHMARK.json at the repository root for the metric contract.
//
//   dbim_perfbench --workload audit|repair-loop|service-durable
//                  --seed N --seconds S --trace 0|1 --workdir DIR
#include "harness.h"

#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace perfbench {
namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Reported by every workload with --trace 0.
const std::vector<MetricSpec> kEndToEnd = {
    {"setup_s", "s"},
    {"ops_per_s", "ops/s"},
    {"evaluate_p50_ms", "ms"},
    {"evaluate_p90_ms", "ms"},
    {"peak_rss_mb", "MB"},
};

// Reported by every workload with --trace 1; a layer a workload does not
// exercise reads 0 there.
const std::vector<MetricSpec> kPerLayer = {
    {"datagen.s", "s"},
    {"session.register_s", "s"},
    {"detector.s", "s"},
    {"detector.subsets", "count"},
    {"incremental.apply_us.p50", "us"},
    {"incremental.apply_us.p99", "us"},
    {"incremental.probed", "count"},
    {"incremental.skipped", "count"},
    {"session.apply_us.p50", "us"},
    {"session.apply_us.p99", "us"},
    {"session.snapshot_ms", "ms"},
    {"conflict_graph.ms", "ms"},
    {"measures.I_d.ms", "ms"},
    {"measures.I_MI.ms", "ms"},
    {"measures.I_P.ms", "ms"},
    {"measures.I_R.ms", "ms"},
    {"measures.I_lin_R.ms", "ms"},
    {"measures.checksum", "count"},
    {"client.apply_us.p50", "us"},
    {"client.apply_us.p99", "us"},
    {"wal.append_us.p50", "us"},
    {"wal.append_us.p99", "us"},
    {"wal.syncs_per_apply", "ratio"},
    {"wal.bytes_per_apply", "bytes"},
    {"storage.recover_s", "s"},
    {"protocol.parse_ns", "ns"},
    {"protocol.format_ns", "ns"},
    {"server.rejected", "count"},
    {"unaccounted_frac", "ratio"},
    {"trace_overhead_frac", "ratio"},
};

// JSON has no infinity; a percentile that landed on a failed op prints as
// this (any real regression gate trips on it).
constexpr double kFailedLatency = 1e300;

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) value = kFailedLatency;
  char buf[64];
  if (value == std::floor(value) && std::fabs(value) < 9e15) {
    std::snprintf(buf, sizeof(buf), "%.0f", value);
  } else {
    std::snprintf(buf, sizeof(buf), "%.17g", value);
  }
  return buf;
}

}  // namespace

void Outcome::Note(const std::string& name, double value,
                   const std::string& unit) {
  notes_.push_back(name + " = " + JsonNumber(value) + " " + unit);
}

void Outcome::Fail(const std::string& why) {
  std::fprintf(stderr, "correctness check failed: %s\n", why.c_str());
  failures_.push_back(why);
}

int Outcome::Emit(bool trace) const {
  const std::vector<MetricSpec>& specs = trace ? kPerLayer : kEndToEnd;
  bool complete = true;
  std::string metrics;
  for (const MetricSpec& spec : specs) {
    auto it = values_.find(spec.name);
    double value = 0.0;
    if (it != values_.end()) {
      value = it->second;
    } else if (!trace) {
      std::fprintf(stderr, "end-to-end metric %s was not measured\n",
                   spec.name);
      complete = false;
    }
    std::printf("%s = %s %s\n", spec.name, JsonNumber(value).c_str(),
                spec.unit);
    if (!metrics.empty()) metrics += ", ";
    metrics += "\"" + std::string(spec.name) + "\": {\"value\": " +
               JsonNumber(value) + ", \"unit\": \"" + spec.unit + "\"}";
  }
  for (const std::string& note : notes_) std::printf("%s\n", note.c_str());
  const bool correct = complete && failures_.empty();
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      correct ? "true" : "false",
      static_cast<unsigned long long>(attempted),
      static_cast<unsigned long long>(failed), metrics.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double rank =
      std::ceil(p / 100.0 * static_cast<double>(samples.size()));
  const size_t index =
      rank <= 1.0 ? 0
                  : std::min(samples.size(), static_cast<size_t>(rank)) - 1;
  return samples[index];
}

double PeakRssMb() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

uint64_t MixChecksum(uint64_t hash, double value) {
  uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  hash ^= bits + 0x9e3779b97f4a7c15ull + (hash << 6) + (hash >> 2);
  // Kept to 48 bits so the value survives a JSON double exactly.
  return hash & ((1ull << 48) - 1);
}

const std::vector<double>& LayerTimes::Spans(const std::string& layer) const {
  static const std::vector<double> kNone;
  auto it = spans_.find(layer);
  return it == spans_.end() ? kNone : it->second;
}

double LayerTimes::Total(const std::string& layer) const {
  double total = 0.0;
  for (const double s : Spans(layer)) total += s;
  return total;
}

double LayerTimes::TotalAll() const {
  double total = 0.0;
  for (const auto& entry : spans_) total += Total(entry.first);
  return total;
}

}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      args.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--workdir") {
      args.workdir = value;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  if (args.seconds <= 0.0 || args.workdir.empty()) {
    std::fprintf(stderr, "need --seconds > 0 and --workdir\n");
    return 2;
  }
  perfbench::Outcome out;
  if (args.workload == "audit") {
    perfbench::RunAudit(args, &out);
  } else if (args.workload == "repair-loop") {
    perfbench::RunRepairLoop(args, &out);
  } else if (args.workload == "service-durable") {
    perfbench::RunServiceDurable(args, &out);
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  return out.Emit(args.trace);
}
