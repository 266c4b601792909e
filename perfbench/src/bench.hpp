// Shared plumbing of the perfbench binary: options, the seeded input
// generator, statistics and the result record every workload fills in.
//
// The benchmark measures the middleware from outside: it calls the public API
// (core::TaskletSystem, core::SimCluster, the codec, the VM, the broker
// actor) and reads the program's own counters. Nothing here changes how the
// program runs.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace tasklets::analysis {
struct WaitGraph;
}
namespace tasklets::metrics {
struct MetricsSnapshot;
}

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a,
                                            Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
[[nodiscard]] inline double seconds_since(Clock::time_point a) {
  return seconds_between(a, Clock::now());
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // Reduced sizes for the benchmark's own self-test; every check stays on.
  bool short_mode = false;
};

// SplitMix64: a fixed, platform-independent stream, so one seed gives the
// same inputs everywhere (the std:: distributions are implementation
// defined).
class InputRng {
 public:
  explicit InputRng(std::uint64_t seed) : state_(seed) {}

  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  // Uniform in [0, n); n > 0.
  std::uint64_t below(std::uint64_t n) { return next() % n; }
  // Uniform in [lo, hi], inclusive.
  std::int64_t range(std::int64_t lo, std::int64_t hi) {
    return lo + static_cast<std::int64_t>(
                    below(static_cast<std::uint64_t>(hi - lo) + 1));
  }
  // Uniform in [0, 1).
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  double exponential(double mean);
  // Log-uniform in [lo, hi].
  double log_uniform(double lo, double hi);

 private:
  std::uint64_t state_;
};

// Derives an independent stream seed for one purpose of one run.
[[nodiscard]] std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt);

// Linear-interpolated quantile (0 when empty).
[[nodiscard]] double quantile(std::vector<double> values, double q);
[[nodiscard]] inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}
[[nodiscard]] inline double per(double numerator, double denominator) {
  return denominator > 0.0 ? numerator / denominator : 0.0;
}

// p50 of a registry histogram in `snapshot`; 0 when absent.
[[nodiscard]] double histogram_p50(const tasklets::metrics::MetricsSnapshot& snapshot,
                                   std::string_view name);

// User plus system CPU time of this process (every thread) so far.
[[nodiscard]] double process_cpu_s();

// Peak resident set of this process so far, MiB.
[[nodiscard]] double peak_rss_mib();

// Diagnostics go to stderr; stdout carries only the result line.
void note(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// What one run reports. `failed` counts operations that ended in another
// status than completed or with a wrong result; `correct` turns false only
// when an invariant of the run breaks (a duplicate terminal report, a
// latency below the physical bound, a non-reproducible simulation, a
// reference that fails its own self-check).
struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  // Records a broken invariant (the first few are printed).
  void violate(const std::string& what);

  // {"correct":..,"attempted":..,"failed":..,"metrics":{..}}
  [[nodiscard]] std::string to_json() const;

 private:
  std::uint64_t violations_ = 0;
};

// The end-to-end metrics every untraced run prints.
struct EndToEnd {
  double setup_s = 0.0;          // median of the run's set-ups
  double completed_per_s = 0.0;  // correct operations per wall second
  double cpu_us_per_op = 0.0;    // process CPU time per correct operation
  double latency_p50_ms = 0.0;   // virtual: submit at the broker -> verdict
  double latency_p99_ms = 0.0;
  double attempts_per_op = 0.0;  // provider attempts per completed operation
  double peak_rss_mib = 0.0;
};
void emit_end_to_end(const EndToEnd& e2e, RunResult& result);

// Per-layer metrics read from a workload's own runs (counters and
// dispositions). Layers a workload does not pass through keep 0, so every
// traced run prints the same set of names.
struct LayerCounters {
  double consumer_submit_us = 0.0;  // mean wall time inside submit
  double broker_program_dedup_hits_per_op = 0.0;
  double broker_memo_hits_per_op = 0.0;
  double broker_reissues_per_op = 0.0;
  double broker_votes_overruled_per_op = 0.0;
  double broker_exhausted_per_op = 0.0;
  double vote_wrong_majority_per_op = 0.0;
  double net_wire_bytes_per_op = 0.0;
  double dag_skipped_nodes_per_dag = 0.0;
  double metrics_series = 0.0;
  double trace_cost_ratio = 0.0;  // untraced over traced completed_per_s
};
void emit_layer_counters(const LayerCounters& layers, RunResult& result);
// A traced run's attribution (analysis::analyze_all) as
// <prefix><phase>_pct, each phase's share of the summed latency, and
// <prefix>total_us, the mean latency they split.
void emit_phases(const tasklets::analysis::WaitGraph& graph, const std::string& prefix,
                 RunResult& result);

// Share of --seconds a traced run gives its untraced and its traced half of
// the load each; the layer probes take the rest (about 10 s).
inline constexpr double kTracedShare = 0.25;

// Per-layer probes shared by every traced run (layers.cpp). `pool` names
// the run's pool_makeup(), which the broker decision replay registers.
void run_layer_probes(const Options& options, const std::string& pool,
                      RunResult& result);

// The threaded-runtime probes (threaded.cpp), part of the layer probes:
// the kernels mix on TaskletSystem in-proc, and x+1 over loopback TCP.
void probe_threaded_kernels(const Options& options, RunResult& result);
void probe_tcp_dispatch(const Options& options, RunResult& result);

void run_kernels_sim(const Options& options, RunResult& result);
void run_pool_sim(const Options& options, RunResult& result);
void run_reliable_sim(const Options& options, RunResult& result);

}  // namespace perfbench
