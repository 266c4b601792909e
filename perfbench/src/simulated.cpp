// The simulated workloads: kernels_sim (the core kernels executed by the
// VM inside the simulator on two one-slot providers), pool_sim (placement
// and telemetry on a 1000-provider catalogue pool) and reliable_sim
// (redundant tasklets on a pool whose servers partly corrupt results).
//
// core::SimCluster is bit-deterministic per seed, so a run repeats the same
// seeded round until its time is up: the wall-clock metrics are medians
// over rounds, the virtual-time metrics come from the first round, and
// every later round must reproduce them byte for byte.
#include <cinttypes>
#include <cstdio>
#include <functional>
#include <memory>
#include <unordered_map>

#include "bench.hpp"
#include "common/trace_analysis.hpp"
#include "core/kernels.hpp"
#include "core/sim_cluster.hpp"
#include "kernels_mix.hpp"
#include "pools.hpp"
#include "reference.hpp"

namespace perfbench {

using namespace tasklets;

std::vector<PoolEntry> pool_makeup(const std::string& pool) {
  if (pool == "pair") {
    sim::DeviceProfile desktop = sim::desktop_profile();
    desktop.slots = 1;
    return {{desktop, 2}};
  }
  if (pool == "large") {
    return {{sim::server_profile(), 40},
            {sim::desktop_profile(), 160},
            {sim::laptop_profile(), 250},
            {sim::sbc_profile(), 250},
            {sim::mobile_profile(), 300}};
  }
  sim::DeviceProfile corrupting = sim::server_profile();
  corrupting.fault_rate = pool == "reliable" ? 1.0 : 0.0;
  return {{sim::server_profile(), 14},
          {corrupting, 6},
          {sim::desktop_profile(), 20},
          {sim::laptop_profile(), 20},
          {sim::sbc_profile(), 20},
          {sim::mobile_profile(), 20}};
}

namespace {

// DAG stage kernels over short int vectors.
constexpr std::string_view kShiftSource = R"(
  int[] main(int[] xs, int salt) {
    int n = len(xs);
    int[] out = new int[n];
    for (int i = 0; i < n; i = i + 1) { out[i] = xs[i] + salt; }
    return out;
  }
)";
constexpr std::string_view kCombineSource = R"(
  int[] main(int[] a, int[] b) {
    int n = len(a);
    int[] out = new int[n];
    for (int i = 0; i < n; i = i + 1) { out[i] = a[i] + b[i]; }
    return out;
  }
)";
constexpr std::string_view kTotalSource = R"(
  int main(int[] xs) {
    int acc = 0;
    for (int i = 0; i < len(xs); i = i + 1) { acc = acc + xs[i]; }
    return acc;
  }
)";

// pool_sim's programs, by index in its plan's source list.
enum SimProgram : std::size_t { kFib, kSieve, kShift, kCombine, kTotal };

struct SimOp {
  enum class Kind { kSynthetic, kVm, kDag } kind = Kind::kSynthetic;
  SimTime at = 0;
  proto::Qoc qoc;
  proto::SyntheticBody synthetic;
  // kVm: program (index into the plan's sources) + args. kDag: leaf
  // vectors and salts.
  std::size_t program = kFib;
  std::vector<tvm::HostArg> args;
  bool mapreduce = false;
  std::vector<std::vector<std::int64_t>> leaves;
  std::vector<std::int64_t> salts;
  tvm::HostArg expected;
};

struct SimPlan {
  std::string pool;
  // Compiled during each round's set-up; ops name them by index.
  std::vector<std::string_view> sources;
  std::uint64_t sim_seed = 0;
  bool ops_plane = false;
  std::vector<SimOp> ops;
};

// --- plans --------------------------------------------------------------------

SimOp synthetic_op(InputRng& rng, double min_fuel, double max_fuel) {
  SimOp op;
  op.synthetic.fuel = static_cast<std::uint64_t>(rng.log_uniform(min_fuel, max_fuel));
  op.synthetic.result = static_cast<std::int64_t>(rng.next() >> 1);
  op.synthetic.payload_bytes = static_cast<std::uint64_t>(rng.range(64, 4096));
  op.expected = op.synthetic.result;
  return op;
}

// A small key set, so repeats hit the memo table and the Merkle subtree
// memo skips whole DAG cones.
std::vector<std::int64_t> leaf_vector(std::int64_t key) {
  InputRng rng(mix_seed(static_cast<std::uint64_t>(key), 77));
  std::vector<std::int64_t> xs(static_cast<std::size_t>(16 + key % 49));
  for (auto& x : xs) x = rng.range(-1000, 1000);
  return xs;
}

SimOp dag_op(InputRng& rng) {
  SimOp op;
  op.kind = SimOp::Kind::kDag;
  op.qoc.memoize = true;
  op.mapreduce = rng.below(2) == 1;
  const std::size_t width = op.mapreduce ? 4 : 1;
  const std::size_t stages = op.mapreduce ? 1 : 3;
  // Leaves and salts come from small sets: graphs and subgraphs repeat.
  for (std::size_t i = 0; i < width; ++i) op.leaves.push_back(leaf_vector(rng.range(0, 11)));
  for (std::size_t i = 0; i < width * stages; ++i) op.salts.push_back(rng.range(1, 4));
  if (op.mapreduce) {
    // Leaves from different keys differ in length; fit them to the first
    // leaf's so the element-wise combine is defined.
    const std::size_t n = op.leaves[0].size();
    for (auto& leaf : op.leaves) leaf.resize(n, 1);
    std::vector<std::vector<std::int64_t>> shifted;
    for (std::size_t i = 0; i < 4; ++i) shifted.push_back(ref::shift(op.leaves[i], op.salts[i]));
    op.expected = ref::total(ref::combine(ref::combine(shifted[0], shifted[1]),
                                          ref::combine(shifted[2], shifted[3])));
  } else {
    std::vector<std::int64_t> xs = op.leaves[0];
    for (const auto salt : op.salts) xs = ref::shift(xs, salt);
    op.expected = ref::total(xs);
  }
  return op;
}

SimOp vm_op(InputRng& rng) {
  SimOp op;
  op.kind = SimOp::Kind::kVm;
  op.qoc.memoize = true;
  if (rng.below(2) == 0) {
    const std::int64_t n = rng.range(12, 18);
    op.program = kFib;
    op.args = {n};
    op.expected = ref::fib(n);
  } else {
    const std::int64_t n = 1000 * rng.range(1, 8);
    op.program = kSieve;
    op.args = {n};
    op.expected = ref::count_primes_below(n);
  }
  return op;
}

// pool_sim: open-loop Poisson arrivals of the seeded QoC mix.
SimPlan pool_sim_plan(std::uint64_t seed, std::size_t ops) {
  SimPlan plan;
  plan.pool = "large";
  plan.sources = {core::kernels::kFib, core::kernels::kSieve, kShiftSource,
                  kCombineSource, kTotalSource};
  plan.sim_seed = mix_seed(seed, 2);
  plan.ops_plane = true;
  InputRng rng(mix_seed(seed, 3));
  constexpr double kRatePerSec = 2000.0;
  double t = 0.0;
  for (std::size_t i = 0; i < ops; ++i) {
    t += rng.exponential(1.0 / kRatePerSec);
    const double pick = rng.uniform();
    SimOp op;
    if (pick < 0.50) {
      op = synthetic_op(rng, 2e6, 2e8);
    } else if (pick < 0.70) {
      op = synthetic_op(rng, 2e6, 2e8);
      op.qoc.speed = proto::SpeedGoal::kFast;
    } else if (pick < 0.80) {
      op = synthetic_op(rng, 2e6, 2e8);
      op.qoc.redundancy = 3;
    } else if (pick < 0.92) {
      op = vm_op(rng);
    } else {
      op = dag_op(rng);
    }
    op.at = from_seconds(t);
    plan.ops.push_back(std::move(op));
  }
  return plan;
}

// kernels_sim: the kernels mix on two one-slot desktops, open-loop
// Poisson arrivals at about half their modelled capacity: a slot is held
// ~7 ms per kernel (2 ms start-up, ~1 ms of fuel, and the result and the
// next assignment crossing the links), so two slots serve ~285/s.
SimPlan kernels_plan(std::uint64_t seed, std::size_t ops) {
  SimPlan plan;
  plan.pool = "pair";
  plan.sim_seed = mix_seed(seed, 7);
  for (std::size_t i = 0; i < kKernelCount; ++i) {
    plan.sources.push_back(kernel_source(static_cast<Kernel>(i)));
  }
  InputRng rng(mix_seed(seed, 1));
  constexpr double kRatePerSec = 150.0;
  double t = 0.0;
  for (std::size_t i = 0; i < ops; ++i) {
    t += rng.exponential(1.0 / kRatePerSec);
    KernelCase drawn = draw_kernel_case(rng);
    SimOp op;
    op.kind = SimOp::Kind::kVm;
    op.at = from_seconds(t);
    op.program = static_cast<std::size_t>(drawn.kernel);
    op.args = std::move(drawn.args);
    op.expected = std::move(drawn.expected);
    plan.ops.push_back(std::move(op));
  }
  return plan;
}

// reliable_sim: every tasklet a synthetic redundancy-3 tasklet, open-loop
// Poisson arrivals.
SimPlan reliable_plan(const std::string& pool, std::uint64_t input_seed,
                      std::uint64_t sim_seed, std::size_t ops) {
  SimPlan plan;
  plan.pool = pool;
  plan.sim_seed = sim_seed;
  InputRng rng(input_seed);
  constexpr double kRatePerSec = 400.0;
  double t = 0.0;
  for (std::size_t i = 0; i < ops; ++i) {
    t += rng.exponential(1.0 / kRatePerSec);
    SimOp op = synthetic_op(rng, 2e6, 1e8);
    op.qoc.redundancy = 3;
    op.at = from_seconds(t);
    plan.ops.push_back(std::move(op));
  }
  return plan;
}

// --- one round ----------------------------------------------------------------

struct Round {
  double setup_s = 0.0;
  double run_s = 0.0;  // first submit -> quiescence
  double cpu_s = 0.0;  // process CPU time over the same interval
  std::uint64_t ops = 0;
  std::uint64_t ok = 0;
  std::uint64_t failed = 0;
  std::uint64_t exhausted = 0;
  std::uint64_t wrong = 0;  // completed with a wrong result
  std::vector<double> latencies_ms;  // virtual, every op with a report
  std::uint64_t attempts = 0;
  std::uint64_t wire_bytes = 0;
  std::uint64_t memo_hits = 0;
  std::uint64_t dedup_hits = 0;
  std::uint64_t reissues = 0;
  std::uint64_t overruled = 0;
  std::uint64_t dags = 0;
  std::uint64_t dag_skipped = 0;
  std::size_t series = 0;
  double submit_us_total = 0.0;
  std::string fingerprint;  // everything that must repeat exactly
  analysis::WaitGraph graph;

  void merge(Round other) {
    setup_s += other.setup_s;
    run_s += other.run_s;
    cpu_s += other.cpu_s;
    ops += other.ops;
    ok += other.ok;
    failed += other.failed;
    exhausted += other.exhausted;
    wrong += other.wrong;
    latencies_ms.insert(latencies_ms.end(), other.latencies_ms.begin(),
                        other.latencies_ms.end());
    attempts += other.attempts;
    wire_bytes += other.wire_bytes;
    memo_hits += other.memo_hits;
    dedup_hits += other.dedup_hits;
    reissues += other.reissues;
    overruled += other.overruled;
    dags += other.dags;
    dag_skipped += other.dag_skipped;
    series += other.series;
    submit_us_total += other.submit_us_total;
    fingerprint += "|" + other.fingerprint;
    for (std::size_t i = 0; i < analysis::kPhaseCount; ++i) {
      graph.phases[i].total += other.graph.phases[i].total;
    }
    graph.tasklets += other.graph.tasklets;
  }
};

// Smallest modelled delays of the pool, for the latency lower bound.
struct PoolBounds {
  SimTime min_link = 0;
  SimTime min_startup = 0;
  double max_speed = 0.0;
};

PoolBounds bounds_of(const std::vector<PoolEntry>& pool) {
  PoolBounds b;
  b.min_link = pool.front().profile.link_latency;
  b.min_startup = pool.front().profile.startup_latency;
  for (const auto& entry : pool) {
    b.min_link = std::min(b.min_link, entry.profile.link_latency);
    b.min_startup = std::min(b.min_startup, entry.profile.startup_latency);
    b.max_speed = std::max(b.max_speed, entry.profile.speed_fuel_per_sec);
  }
  return b;
}

std::vector<dag::DagNode> build_dag(const SimOp& op,
                                    const std::vector<Bytes>& programs) {
  auto node = [&](SimProgram program, std::vector<tvm::HostArg> args,
                  std::vector<dag::DagEdge> inputs) {
    proto::VmBody body;
    body.program = programs[program];
    body.args = std::move(args);
    return dag::DagNode{proto::TaskletBody{std::move(body)}, std::move(inputs)};
  };
  const tvm::HostArg placeholder = std::vector<std::int64_t>{};
  std::vector<dag::DagNode> nodes;
  if (op.mapreduce) {
    for (std::size_t i = 0; i < 4; ++i) {
      nodes.push_back(node(kShift, {op.leaves[i], op.salts[i]}, {}));
    }
    nodes.push_back(node(kCombine, {placeholder, placeholder}, {{0, 0}, {1, 1}}));
    nodes.push_back(node(kCombine, {placeholder, placeholder}, {{2, 0}, {3, 1}}));
    nodes.push_back(node(kCombine, {placeholder, placeholder}, {{4, 0}, {5, 1}}));
    nodes.push_back(node(kTotal, {placeholder}, {{6, 0}}));
  } else {
    nodes.push_back(node(kShift, {op.leaves[0], op.salts[0]}, {}));
    for (std::uint32_t i = 1; i < op.salts.size(); ++i) {
      nodes.push_back(node(kShift, {placeholder, op.salts[i]}, {{i - 1, 0}}));
    }
    const auto last = static_cast<std::uint32_t>(nodes.size() - 1);
    nodes.push_back(node(kTotal, {placeholder}, {{last, 0}}));
  }
  return nodes;
}

void fnv(std::uint64_t& h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xFF;
    h *= 0x100000001B3ULL;
  }
}

Round run_round(const SimPlan& plan, TraceStore* trace, RunResult& result) {
  metrics::MetricsRegistry::instance().reset();
  const std::vector<PoolEntry> pool = pool_makeup(plan.pool);
  Round round;

  const auto setup_start = Clock::now();
  core::SimConfig config;
  config.seed = plan.sim_seed;
  config.trace = trace;
  if (plan.ops_plane) {
    config.ops.enabled = true;
    config.ops.rules = {"backlog: broker.queue_depth > 200 for 2s"};
  }
  auto cluster = std::make_unique<core::SimCluster>(config);
  for (const auto& entry : pool) cluster->add_providers(entry.profile, entry.count);
  std::vector<Bytes> programs;
  for (const auto source : plan.sources) {
    programs.push_back(compile_or_die(source).serialize());
  }
  round.setup_s = seconds_since(setup_start);

  // Bodies are built outside the timed phase; only submits and the run
  // itself are timed.
  std::vector<proto::TaskletBody> bodies;
  std::vector<std::vector<dag::DagNode>> graphs;
  for (const auto& op : plan.ops) {
    if (op.kind == SimOp::Kind::kSynthetic) {
      bodies.emplace_back(op.synthetic);
    } else if (op.kind == SimOp::Kind::kVm) {
      proto::VmBody body;
      body.program = programs[op.program];
      body.args = op.args;
      bodies.emplace_back(std::move(body));
    } else {
      graphs.push_back(build_dag(op, programs));
    }
  }

  struct Submitted {
    const SimOp* op;
    std::uint64_t id;  // TaskletId or DagId value
  };
  std::vector<Submitted> submitted;
  submitted.reserve(plan.ops.size());
  std::size_t next_body = 0;
  std::size_t next_graph = 0;
  const double cpu_start = process_cpu_s();
  const auto run_start = Clock::now();
  for (const auto& op : plan.ops) {
    const auto t0 = Clock::now();
    std::uint64_t id = 0;
    if (op.kind == SimOp::Kind::kDag) {
      id = cluster->submit_dag_at(op.at, std::move(graphs[next_graph++]), op.qoc).value();
    } else {
      id = cluster->submit_at(op.at, std::move(bodies[next_body++]), op.qoc).value();
    }
    round.submit_us_total +=
        std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
    submitted.push_back({&op, id});
  }
  const bool quiescent = cluster->run_until_quiescent(3600 * kSecond);
  round.run_s = seconds_since(run_start);
  round.cpu_s = process_cpu_s() - cpu_start;
  if (!quiescent) result.violate("simulation did not reach quiescence");

  // Exactly one terminal report per operation.
  std::unordered_map<std::uint64_t, std::size_t> report_count;
  for (const auto& report : cluster->reports()) ++report_count[report.id.value()];
  std::unordered_map<std::uint64_t, std::size_t> dag_count;
  for (const auto& status : cluster->dag_statuses()) ++dag_count[status.dag.value()];

  const PoolBounds bounds = bounds_of(pool);
  std::uint64_t hash = 0xCBF29CE484222325ULL;
  for (const auto& [op, id] : submitted) {
    ++round.ops;
    bool ok = false;
    SimTime latency = 0;
    if (op->kind == SimOp::Kind::kDag) {
      ++round.dags;
      if (dag_count[id] != 1) {
        result.violate("DAG " + std::to_string(id) + " got " +
                       std::to_string(dag_count[id]) + " terminal statuses");
        ++round.failed;
        continue;
      }
      const proto::DagStatus& status = *cluster->dag_status_for(DagId{id});
      latency = status.latency;
      for (const auto disposition : status.nodes) {
        if (disposition == proto::DagNodeDisposition::kSkipped) ++round.dag_skipped;
      }
      ok = status.status == proto::TaskletStatus::kCompleted &&
           status.outputs.size() == 1 && status.outputs[0].result == op->expected;
      if (status.status == proto::TaskletStatus::kExhausted) ++round.exhausted;
      fnv(hash, static_cast<std::uint64_t>(status.status));
    } else {
      if (report_count[id] != 1) {
        result.violate("tasklet " + std::to_string(id) + " got " +
                       std::to_string(report_count[id]) + " terminal reports");
        ++round.failed;
        continue;
      }
      const proto::TaskletReport& report = *cluster->report_for(TaskletId{id});
      latency = report.latency;
      const bool completed = report.status == proto::TaskletStatus::kCompleted;
      ok = completed && report.result == op->expected;
      if (report.status == proto::TaskletStatus::kExhausted) ++round.exhausted;
      if (completed && !ok) ++round.wrong;
      if (completed) {
        // A report's latency runs from the submit reaching the broker to
        // the verdict. An executed tasklet cannot beat the broker-provider
        // round trip on the smallest links plus its fuel at the fastest
        // class speed; a memo hit (no attempt) only has to be non-negative.
        SimTime floor = 0;
        if (report.attempts > 0) {
          const double fuel = op->kind == SimOp::Kind::kSynthetic
                                  ? static_cast<double>(op->synthetic.fuel)
                                  : static_cast<double>(report.fuel_used);
          floor = 2 * config.broker_link_latency + 2 * bounds.min_link +
                  bounds.min_startup + from_seconds(fuel / bounds.max_speed);
        }
        if (latency < floor) {
          result.violate("tasklet " + std::to_string(id) + " completed in " +
                         std::to_string(latency) + " ns, below the " +
                         std::to_string(floor) + " ns bound");
        }
      }
      fnv(hash, static_cast<std::uint64_t>(report.status));
      fnv(hash, report.attempts);
      fnv(hash, report.executed_by.value());
    }
    fnv(hash, static_cast<std::uint64_t>(latency));
    round.latencies_ms.push_back(static_cast<double>(latency) / 1e6);
    if (ok) {
      ++round.ok;
    } else {
      ++round.failed;
    }
  }
  if (cluster->reports().size() != cluster->submitted() ||
      cluster->dag_statuses().size() != cluster->dags_submitted()) {
    result.violate("terminal report count differs from submissions");
  }

  const broker::BrokerStats& stats = cluster->broker().stats();
  round.attempts = stats.attempts_issued;
  round.wire_bytes = cluster->wire_bytes();
  round.memo_hits = stats.memo_hits;
  round.dedup_hits = stats.program_dedup_hits;
  round.reissues = stats.reissues;
  round.overruled = stats.votes_overruled;
  if (cluster->ops() != nullptr) round.series = cluster->ops()->history().names().size();
  // Drained, so a second cluster of the same round starts from an empty
  // store (tasklet ids restart at 1 in every cluster).
  if (trace != nullptr) round.graph = analysis::analyze_all(trace->drain());

  char text[512];
  std::snprintf(text, sizeof text,
                "ops=%" PRIu64 " ok=%" PRIu64 " attempts=%" PRIu64
                " wire=%" PRIu64 " memo=%" PRIu64 " overruled=%" PRIu64
                " p50=%.17g p99=%.17g ops_hash=%016" PRIx64,
                round.ops, round.ok, round.attempts, round.wire_bytes,
                round.memo_hits, round.overruled,
                quantile(round.latencies_ms, 0.5),
                quantile(round.latencies_ms, 0.99), hash);
  round.fingerprint = text;
  // The cluster is torn down outside the timed phases.
  cluster.reset();
  return round;
}

// --- the run ------------------------------------------------------------------

using RoundFn = std::function<Round(TraceStore* trace)>;

// Repeats `round_fn` until `seconds` have passed (at least `min_rounds`
// times) and checks every round against the first.
std::vector<Round> repeat_rounds(const RoundFn& round_fn, double seconds,
                                 std::size_t min_rounds, RunResult& result) {
  std::vector<Round> rounds;
  const auto start = Clock::now();
  while (rounds.size() < min_rounds || seconds_since(start) < seconds) {
    rounds.push_back(round_fn(nullptr));
    const Round& round = rounds.back();
    result.attempted += round.ops;
    result.failed += round.failed;
    if (round.fingerprint != rounds.front().fingerprint) {
      result.violate("round " + std::to_string(rounds.size() - 1) +
                     " did not reproduce round 0: " + round.fingerprint +
                     " vs " + rounds.front().fingerprint);
    }
  }
  return rounds;
}

double median_rate(const std::vector<Round>& rounds) {
  std::vector<double> rates;
  for (const auto& round : rounds) {
    rates.push_back(per(static_cast<double>(round.ok), round.run_s));
  }
  return median(rates);
}

void run_simulated(const Options& options, const RoundFn& round_fn,
                   const std::string& pool, RunResult& result) {
  if (!options.trace) {
    const std::vector<Round> rounds =
        repeat_rounds(round_fn, options.seconds, 3, result);
    const Round& first = rounds.front();
    std::vector<double> setups;
    for (const auto& round : rounds) setups.push_back(round.setup_s);
    EndToEnd e2e;
    e2e.setup_s = median(setups);
    e2e.completed_per_s = median_rate(rounds);
    std::vector<double> cpu_per_op;
    for (const auto& round : rounds) {
      cpu_per_op.push_back(per(round.cpu_s * 1e6, static_cast<double>(round.ok)));
    }
    e2e.cpu_us_per_op = median(cpu_per_op);
    e2e.latency_p50_ms = quantile(first.latencies_ms, 0.5);
    e2e.latency_p99_ms = quantile(first.latencies_ms, 0.99);
    e2e.attempts_per_op = per(static_cast<double>(first.attempts),
                              static_cast<double>(first.ok));
    e2e.peak_rss_mib = peak_rss_mib();
    std::vector<double> rates;
    for (const auto& round : rounds) rates.push_back(per(static_cast<double>(round.ok), round.run_s));
    note("%s: %zu rounds of %" PRIu64 " ops (%" PRIu64 " failed: %" PRIu64
         " exhausted, %" PRIu64 " wrong result), rate p10/p25/p50/p75/p90 "
         "%.0f %.0f %.0f %.0f %.0f; round 0: %s",
         options.workload.c_str(), rounds.size(), first.ops, first.failed,
         first.exhausted, first.wrong, quantile(rates, 0.1), quantile(rates, 0.25),
         quantile(rates, 0.5), quantile(rates, 0.75), quantile(rates, 0.9),
         first.fingerprint.c_str());
    emit_end_to_end(e2e, result);
    return;
  }

  // The load untraced and traced, then the layer probes (after the load, so
  // the metrics they register do not show in the ops plane's series count).
  const double share = kTracedShare * options.seconds;
  const std::vector<Round> rounds = repeat_rounds(round_fn, share, 1, result);
  const Round& first = rounds.front();
  std::vector<Round> traced;
  const auto traced_start = Clock::now();
  while (traced.empty() || seconds_since(traced_start) < share) {
    TraceStore store(1u << 22);
    traced.push_back(round_fn(&store));
    result.attempted += traced.back().ops;
    result.failed += traced.back().failed;
  }
  const Round& traced_first = traced.front();

  LayerCounters layers;
  const double ops = static_cast<double>(first.ops);
  layers.consumer_submit_us = per(first.submit_us_total, ops);
  layers.broker_program_dedup_hits_per_op = per(static_cast<double>(first.dedup_hits), ops);
  layers.broker_memo_hits_per_op = per(static_cast<double>(first.memo_hits), ops);
  layers.broker_reissues_per_op = per(static_cast<double>(first.reissues), ops);
  layers.broker_votes_overruled_per_op = per(static_cast<double>(first.overruled), ops);
  layers.broker_exhausted_per_op = per(static_cast<double>(first.exhausted), ops);
  layers.vote_wrong_majority_per_op = per(static_cast<double>(first.wrong), ops);
  layers.net_wire_bytes_per_op = per(static_cast<double>(first.wire_bytes), ops);
  layers.dag_skipped_nodes_per_dag =
      per(static_cast<double>(first.dag_skipped), static_cast<double>(first.dags));
  layers.metrics_series = static_cast<double>(first.series);
  layers.trace_cost_ratio = per(median_rate(rounds), median_rate(traced));
  note("%s traced: %zu untraced and %zu traced rounds, %zu tasklets analysed",
       options.workload.c_str(), rounds.size(), traced.size(),
       traced_first.graph.tasklets);
  emit_layer_counters(layers, result);
  emit_phases(traced_first.graph, "phase.", result);
  run_layer_probes(options, pool, result);
}

}  // namespace

void run_kernels_sim(const Options& options, RunResult& result) {
  const SimPlan plan = kernels_plan(options.seed, options.short_mode ? 100 : 1500);
  run_simulated(
      options, [&](TraceStore* trace) { return run_round(plan, trace, result); },
      "pair", result);
}

void run_pool_sim(const Options& options, RunResult& result) {
  const SimPlan plan = pool_sim_plan(options.seed, options.short_mode ? 400 : 4000);
  run_simulated(
      options, [&](TraceStore* trace) { return run_round(plan, trace, result); },
      "large", result);
}

void run_reliable_sim(const Options& options, RunResult& result) {
  const std::size_t ops = options.short_mode ? 300 : 2000;
  // The fault probe: inputs fixed, independent of --seed, so the operations
  // the broker fault fails are the same ones in every run.
  const SimPlan probe = reliable_plan("reliable", 0xFA017ULL, 0x7E57ULL, ops);
  // The seeded half: the same load shape on the same make-up with every
  // server honest, so its operations never fail and its figures move with
  // the seed.
  const SimPlan seeded = reliable_plan("reliable_honest", mix_seed(options.seed, 4),
                                       mix_seed(options.seed, 5), ops);
  run_simulated(
      options,
      [&](TraceStore* trace) {
        Round round = run_round(probe, trace, result);
        // The probe's latencies are the same in every run, since its inputs
        // are fixed; the latency figures come from the seeded half alone.
        // Its attempts and failures still count.
        round.latencies_ms.clear();
        round.merge(run_round(seeded, trace, result));
        return round;
      },
      "reliable", result);
}

}  // namespace perfbench
