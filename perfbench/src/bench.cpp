#include "bench.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>

#include "common/metrics.hpp"
#include "common/trace_analysis.hpp"

namespace perfbench {

double InputRng::exponential(double mean) {
  // 1 - u is in (0, 1], so the log is finite.
  return -mean * std::log(1.0 - uniform());
}

double InputRng::log_uniform(double lo, double hi) {
  return lo * std::exp(uniform() * std::log(hi / lo));
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt) {
  InputRng rng(seed ^ (salt * 0xD1B54A32D192ED03ULL));
  rng.next();
  return rng.next();
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double histogram_p50(const tasklets::metrics::MetricsSnapshot& snapshot,
                     std::string_view name) {
  for (const auto& entry : snapshot.histograms) {
    if (entry.name == name) return entry.p50;
  }
  return 0.0;
}

double process_cpu_s() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) / 1e6;
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void note(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  std::vfprintf(stderr, fmt, args);
  va_end(args);
  std::fputc('\n', stderr);
}

void emit_end_to_end(const EndToEnd& e2e, RunResult& result) {
  result.add("setup_s", e2e.setup_s, "s");
  result.add("completed_per_s", e2e.completed_per_s, "1/s");
  result.add("cpu_us_per_op", e2e.cpu_us_per_op, "us");
  result.add("latency_p50_ms", e2e.latency_p50_ms, "ms");
  result.add("latency_p99_ms", e2e.latency_p99_ms, "ms");
  result.add("attempts_per_op", e2e.attempts_per_op, "count");
  result.add("peak_rss_mib", e2e.peak_rss_mib, "MiB");
}

void emit_layer_counters(const LayerCounters& layers, RunResult& result) {
  result.add("consumer.submit_us", layers.consumer_submit_us, "us");
  result.add("broker.program_dedup_hits_per_op",
             layers.broker_program_dedup_hits_per_op, "count");
  result.add("broker.memo_hits_per_op", layers.broker_memo_hits_per_op, "count");
  result.add("broker.reissues_per_op", layers.broker_reissues_per_op, "count");
  result.add("broker.votes_overruled_per_op",
             layers.broker_votes_overruled_per_op, "count");
  result.add("broker.exhausted_per_op", layers.broker_exhausted_per_op, "count");
  result.add("vote.wrong_majority_per_op", layers.vote_wrong_majority_per_op,
             "count");
  result.add("net.wire_bytes_per_op", layers.net_wire_bytes_per_op, "bytes");
  result.add("dag.skipped_nodes_per_dag", layers.dag_skipped_nodes_per_dag,
             "count");
  result.add("metrics.series", layers.metrics_series, "count");
  result.add("trace.cost_ratio", layers.trace_cost_ratio, "ratio");
}

void emit_phases(const tasklets::analysis::WaitGraph& graph, const std::string& prefix,
                 RunResult& result) {
  double total = 0.0;
  for (const auto& phase : graph.phases) total += static_cast<double>(phase.total);
  for (std::size_t i = 0; i < tasklets::analysis::kPhaseCount; ++i) {
    const double share = 100.0 * per(static_cast<double>(graph.phases[i].total), total);
    result.add(prefix +
                   std::string(tasklets::analysis::phase_name(
                       static_cast<tasklets::analysis::Phase>(i))) +
                   "_pct",
               share, "%");
  }
  result.add(prefix + "total_us",
             per(total / 1e3, static_cast<double>(graph.tasklets)), "us");
}

void RunResult::violate(const std::string& what) {
  correct = false;
  if (++violations_ <= 10) note("CHECK FAILED: %s", what.c_str());
}

std::string RunResult::to_json() const {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& metric : metrics) {
    if (!first) out += ", ";
    first = false;
    char value[64];
    // %.17g keeps every digit of the measured double; non-finite values
    // are not JSON and would mean a broken measurement.
    if (std::isfinite(metric.value)) {
      std::snprintf(value, sizeof value, "%.17g", metric.value);
    } else {
      std::snprintf(value, sizeof value, "null");
    }
    out += "\"" + metric.name + "\": {\"value\": " + value + ", \"unit\": \"" +
           metric.unit + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace perfbench
