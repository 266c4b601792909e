// The threaded-runtime probes: the kernels mix on TaskletSystem over the
// in-proc transport, and a near-zero-work kernel over loopback TCP.
//
// Both drive core::TaskletSystem with two one-slot providers from a single
// submitting thread in a closed loop, and check every report against a
// value computed apart from the program.
#include <deque>
#include <functional>
#include <future>
#include <memory>

#include "bench.hpp"
#include "common/trace_analysis.hpp"
#include "core/system.hpp"
#include "kernels_mix.hpp"

namespace perfbench {
namespace {

using namespace tasklets;

struct Case {
  proto::VmBody body;
  tvm::HostArg expected;
};

// Compiled programs plus the system they run on; built inside the timed
// set-up.
struct Rig {
  std::unique_ptr<core::TaskletSystem> system;
  std::vector<Bytes> programs;
};

struct LoadSpec {
  core::Transport transport = core::Transport::kInProc;
  std::size_t outstanding = 1;
  // Kernel sources compiled during set-up.
  std::vector<std::string_view> sources;
  // Draws the next case from the seeded stream, given the compiled
  // programs (index-aligned with `sources`).
  std::function<Case(InputRng&, const std::vector<Bytes>&)> draw;
};

Rig build_rig(const LoadSpec& spec, bool tracing) {
  core::SystemConfig config;
  config.transport = spec.transport;
  config.tracing = tracing;
  Rig rig;
  rig.system = std::make_unique<core::TaskletSystem>(config);
  for (int i = 0; i < 2; ++i) {
    core::ProviderOptions provider;
    provider.capability.slots = 1;  // speed 0: self-calibrated
    rig.system->add_provider(provider);
  }
  for (const auto source : spec.sources) {
    rig.programs.push_back(compile_or_die(source).serialize());
  }
  return rig;
}

// Operations per measurement window: throughput and latency quantiles are
// taken per window of this many completions, and the run reports their
// medians, so a passing disturbance on a shared host moves a few windows
// rather than the figure. 1000 leaves ten samples beyond each window's p99.
constexpr std::size_t kWindowOps = 1000;

struct Segment {
  std::uint64_t attempted = 0;
  std::uint64_t completed_ok = 0;
  std::uint64_t failed = 0;
  double cpu_s = 0.0;  // process CPU time from the first submit to the drain
  std::vector<double> window_rates;  // completions per second
  std::vector<double> window_p50_ms;
  std::vector<double> window_p99_ms;
  double submit_us_total = 0.0;
  broker::BrokerStats stats;
  metrics::MetricsSnapshot snapshot;

  [[nodiscard]] double completed_per_s() const { return median(window_rates); }
  [[nodiscard]] double cpu_us_per_op() const {
    return per(cpu_s * 1e6, static_cast<double>(completed_ok));
  }
};

// Closed loop: keeps `outstanding` tasklets in flight for `seconds` (or
// until `max_ops` have been submitted), then drains. A tasklet's latency
// runs from just before submit() to the moment the loop sees its future
// ready.
Segment run_closed_loop(Rig& rig, const LoadSpec& spec, InputRng& rng,
                        double seconds, std::size_t max_ops, std::size_t window_ops,
                        RunResult& result) {
  struct Inflight {
    std::future<proto::TaskletReport> future;
    Clock::time_point submitted;
    tvm::HostArg expected;
  };
  metrics::MetricsRegistry::instance().reset();
  Segment segment;
  std::deque<Inflight> inflight;
  const double cpu_start = process_cpu_s();
  const auto start = Clock::now();
  const auto deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  auto window_start = start;
  std::vector<double> window_latencies;
  auto harvest = [&](Inflight& entry, Clock::time_point seen) {
    const proto::TaskletReport report = entry.future.get();
    window_latencies.push_back(
        std::chrono::duration<double, std::milli>(seen - entry.submitted).count());
    if (window_latencies.size() == window_ops) {
      segment.window_rates.push_back(static_cast<double>(window_ops) /
                                     seconds_between(window_start, seen));
      segment.window_p50_ms.push_back(quantile(window_latencies, 0.5));
      segment.window_p99_ms.push_back(quantile(window_latencies, 0.99));
      window_latencies.clear();
      window_start = seen;
    }
    if (report.status == proto::TaskletStatus::kCompleted &&
        report.result == entry.expected) {
      ++segment.completed_ok;
      return;
    }
    ++segment.failed;
    if (segment.failed <= 5) {
      note("failed tasklet: status=%s result=%s expected=%s",
           std::string(proto::to_string(report.status)).c_str(),
           tvm::to_string(report.result).c_str(),
           tvm::to_string(entry.expected).c_str());
    }
  };

  while (true) {
    while (inflight.size() < spec.outstanding && segment.attempted < max_ops &&
           Clock::now() < deadline) {
      Case next = spec.draw(rng, rig.programs);
      const auto t0 = Clock::now();
      auto future = rig.system->submit(proto::TaskletBody{std::move(next.body)});
      const auto t1 = Clock::now();
      segment.submit_us_total +=
          std::chrono::duration<double, std::micro>(t1 - t0).count();
      inflight.push_back({std::move(future), t0, std::move(next.expected)});
      ++segment.attempted;
    }
    if (inflight.empty()) break;
    if (inflight.front().future.wait_for(std::chrono::seconds(30)) !=
        std::future_status::ready) {
      result.violate("a tasklet got no terminal report within 30 s");
      break;
    }
    const auto seen = Clock::now();
    // The oldest is ready; collect every other finished one with it.
    for (auto it = inflight.begin(); it != inflight.end();) {
      if (it != inflight.begin() &&
          it->future.wait_for(std::chrono::seconds(0)) !=
              std::future_status::ready) {
        ++it;
        continue;
      }
      harvest(*it, seen);
      it = inflight.erase(it);
    }
  }
  segment.cpu_s = process_cpu_s() - cpu_start;
  segment.stats = rig.system->broker_stats();
  segment.snapshot = core::TaskletSystem::metrics_snapshot();
  return segment;
}

LoadSpec kernels_spec() {
  LoadSpec spec;
  spec.transport = core::Transport::kInProc;
  spec.outstanding = 4;
  for (std::size_t i = 0; i < kKernelCount; ++i) {
    spec.sources.push_back(kernel_source(static_cast<Kernel>(i)));
  }
  spec.draw = [](InputRng& rng, const std::vector<Bytes>& programs) {
    KernelCase drawn = draw_kernel_case(rng);
    Case c;
    c.body.program = programs[static_cast<std::size_t>(drawn.kernel)];
    c.body.args = std::move(drawn.args);
    c.expected = std::move(drawn.expected);
    return c;
  };
  return spec;
}

}  // namespace

void probe_threaded_kernels(const Options& options, RunResult& result) {
  const LoadSpec spec = kernels_spec();
  InputRng rng(mix_seed(options.seed, 1));
  const std::size_t window_ops = options.short_mode ? 50 : kWindowOps;
  const std::size_t max_ops = options.short_mode ? 200 : SIZE_MAX;
  // The kernels mix untraced, then traced, for this long each.
  constexpr double kSegmentSeconds = 3.0;

  const auto setup_start = Clock::now();
  Rig plain = build_rig(spec, false);
  const double setup_s = seconds_since(setup_start);
  const Segment untraced =
      run_closed_loop(plain, spec, rng, kSegmentSeconds, max_ops, window_ops, result);
  plain = Rig{};
  Rig traced_rig = build_rig(spec, true);
  const Segment traced =
      run_closed_loop(traced_rig, spec, rng, kSegmentSeconds, max_ops, window_ops, result);
  if (untraced.failed + traced.failed > 0) {
    result.violate(std::to_string(untraced.failed + traced.failed) +
                   " kernel tasklets on the threaded runtime failed");
  }
  const analysis::WaitGraph graph =
      analysis::analyze_all(traced_rig.system->trace_store()->all());

  result.add("threaded.setup_s", setup_s, "s");
  result.add("threaded.completed_per_s", untraced.completed_per_s(), "1/s");
  result.add("threaded.cpu_us_per_op", untraced.cpu_us_per_op(), "us");
  result.add("threaded.latency_p50_ms", median(untraced.window_p50_ms), "ms");
  result.add("threaded.latency_p99_ms", median(untraced.window_p99_ms), "ms");
  result.add("threaded.submit_us",
             per(untraced.submit_us_total, static_cast<double>(untraced.attempted)), "us");
  result.add("broker.batch_size_p50", histogram_p50(untraced.snapshot, "broker.batch.size"),
             "count");
  result.add("threaded.trace_cost_ratio",
             per(untraced.completed_per_s(), traced.completed_per_s()), "ratio");
  emit_phases(graph, "threaded.phase.", result);
}

void probe_tcp_dispatch(const Options& options, RunResult& result) {
  LoadSpec spec;
  spec.transport = core::Transport::kTcp;
  spec.outstanding = 16;
  spec.sources = {"int main(int x) { return x + 1; }"};
  // Distinct x per tasklet: a seeded base, then consecutive values.
  auto next_x = std::make_shared<std::int64_t>(-1);
  spec.draw = [next_x](InputRng& rng, const std::vector<Bytes>& programs) {
    if (*next_x < 0) *next_x = static_cast<std::int64_t>(rng.next() >> 24);
    const std::int64_t x = (*next_x)++;
    Case c;
    c.body.program = programs[0];
    c.body.args = {x};
    c.expected = x + 1;
    return c;
  };
  InputRng rng(mix_seed(options.seed, 6));
  Rig rig = build_rig(spec, false);
  const std::size_t ops = options.short_mode ? 300 : 20'000;
  const std::size_t window_ops = options.short_mode ? 100 : kWindowOps;
  const Segment segment = run_closed_loop(rig, spec, rng, 5.0, ops, window_ops, result);
  if (segment.failed > 0) {
    result.violate(std::to_string(segment.failed) + " x+1 tasklets over TCP failed");
  }
  const double done = static_cast<double>(segment.attempted);
  const double writevs =
      static_cast<double>(segment.snapshot.counter("net.tcp.writev_calls"));
  result.add("dispatch.tcp_completed_per_s", segment.completed_per_s(), "1/s");
  result.add("dispatch.tcp_cpu_us_per_op", segment.cpu_us_per_op(), "us");
  result.add("dispatch.tcp_latency_p50_us", 1e3 * median(segment.window_p50_ms), "us");
  result.add("dispatch.tcp_submit_us", per(segment.submit_us_total, done), "us");
  result.add("net.tcp.writev_calls_per_op", per(writevs, done), "count");
  result.add("net.tcp.frames_per_writev",
             per(static_cast<double>(segment.snapshot.counter("net.tcp.frames_out")), writevs),
             "count");
  result.add("net.tcp.bytes_per_op",
             per(static_cast<double>(segment.snapshot.counter("net.tcp.bytes_out")), done),
             "bytes");
}

}  // namespace perfbench
