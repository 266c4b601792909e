// Per-layer probes: each times calls into one module's public functions,
// from outside, on inputs shaped like the workload the layer serves.
//
//   tcl / tvm   the kernels mix (compile, analyze, bare execute with a
//               cached plan)
//   proto/store messages shaped like the TCP dispatch probe's steady state
//               (digest-only submit and assign, an int result and report)
//   threaded    the kernels mix on TaskletSystem in-proc, untraced and
//               traced, and x+1 tasklets over loopback TCP (threaded.cpp)
//   broker      Broker::on_message for one SubmitTasklet, driven directly on
//               one thread against the run's pool, with every assignment
//               answered at once so slots free up (E6's replay)
#include <array>
#include <cstdio>

#include "bench.hpp"
#include "broker/broker.hpp"
#include "kernels_mix.hpp"
#include "pools.hpp"
#include "proto/messages.hpp"
#include "store/digest.hpp"
#include "tvm/verifier.hpp"

namespace perfbench {
namespace {

using namespace tasklets;

// Keeps the optimizer from discarding work whose result is otherwise unused.
volatile std::uint64_t g_sink = 0;

double micros(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

// Median over `batches` of the mean per-call time of `fn` in ns.
template <typename Fn>
double per_call_ns(std::size_t batches, std::size_t calls, Fn&& fn) {
  std::vector<double> means;
  for (std::size_t b = 0; b < batches; ++b) {
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < calls; ++i) fn(i);
    means.push_back(micros(t0, Clock::now()) * 1e3 / static_cast<double>(calls));
  }
  return median(means);
}

void probe_tcl_tvm(const Options& options, RunResult& result) {
  const std::size_t reps = options.short_mode ? 2 : 15;
  std::vector<double> compile_us;
  std::vector<double> analyze_us;
  std::array<tvm::Program, kKernelCount> programs;
  for (std::size_t r = 0; r < reps; ++r) {
    for (std::size_t k = 0; k < kKernelCount; ++k) {
      const auto t0 = Clock::now();
      programs[k] = compile_or_die(kernel_source(static_cast<Kernel>(k)));
      compile_us.push_back(micros(t0, Clock::now()));
      const auto t1 = Clock::now();
      auto plan = tvm::analyze(programs[k]);
      analyze_us.push_back(micros(t1, Clock::now()));
      if (!plan.is_ok()) result.violate("tvm::analyze rejected a kernel");
    }
  }
  result.add("tcl.compile_us", median(compile_us), "us");
  result.add("tvm.analyze_us", median(analyze_us), "us");

  // Bare execution over the seeded mix with one cached plan per kernel.
  std::vector<tvm::ExecPlan> plans;
  for (const auto& program : programs) {
    plans.push_back(std::move(tvm::analyze(program)).value());
  }
  // The same stream kernels_sim draws its tasklets from, so its first
  // cases are exactly the workload's first tasklets.
  InputRng rng(mix_seed(options.seed, 1));
  const std::size_t cases = options.short_mode ? 24 : 400;
  std::uint64_t fuel = 0;
  double busy_s = 0.0;
  for (std::size_t i = 0; i < cases; ++i) {
    const KernelCase c = draw_kernel_case(rng);
    const auto k = static_cast<std::size_t>(c.kernel);
    tvm::ExecOptions exec;
    exec.plan = &plans[k];
    const auto t0 = Clock::now();
    auto outcome = tvm::execute(programs[k], c.args, {}, exec);
    busy_s += seconds_since(t0);
    if (!outcome.is_ok() || outcome->result != c.expected) {
      result.violate("bare tvm::execute disagrees with the reference on " +
                     std::string(kernel_name(c.kernel)));
      continue;
    }
    fuel += outcome->fuel_used;
  }
  result.add("tvm.execute_mfuel_per_s", static_cast<double>(fuel) / busy_s / 1e6,
             "Mfuel/s");
  result.add("tvm.fuel_per_op", static_cast<double>(fuel) / static_cast<double>(cases),
             "fuel");
}

void probe_proto_store(const Options& options, RunResult& result) {
  const Bytes program =
      compile_or_die("int main(int x) { return x + 1; }").serialize();
  const store::Digest digest = store::digest_bytes(program);
  const std::int64_t x = 123456789;

  proto::TaskletSpec spec;
  spec.id = TaskletId{1001};
  spec.job = JobId{7};
  spec.body = proto::DigestBody{digest, {x}};
  proto::AttemptOutcome outcome;
  outcome.result = x + 1;
  outcome.fuel_used = 4;
  outcome.instructions = 4;
  proto::TaskletReport report;
  report.id = spec.id;
  report.job = spec.job;
  report.result = x + 1;
  report.fuel_used = 4;
  report.instructions = 4;
  report.attempts = 1;
  report.executed_by = NodeId{4};
  report.latency = 85'000;
  const std::array<std::pair<const char*, proto::Envelope>, 4> messages = {{
      {"SubmitTasklet",
       {NodeId{2}, NodeId{1}, proto::SubmitTasklet{spec, {}}}},
      {"AssignTasklet",
       {NodeId{1}, NodeId{4},
        proto::AssignTasklet{AttemptId{77}, spec.id, spec.body, 0, {}, {}}}},
      {"AttemptResult",
       {NodeId{4}, NodeId{1}, proto::AttemptResult{AttemptId{77}, spec.id, outcome}}},
      {"TaskletReport", {NodeId{1}, NodeId{2}, proto::TaskletDone{report}}},
  }};

  const std::size_t batches = options.short_mode ? 3 : 7;
  const std::size_t calls = options.short_mode ? 2'000 : 20'000;
  for (const auto& [name, envelope] : messages) {
    Bytes buffer;
    const double encode_ns = per_call_ns(batches, calls, [&](std::size_t) {
      buffer.clear();
      proto::encode_into(envelope, buffer);
      g_sink = g_sink + buffer.size();
    });
    const double decode_ns = per_call_ns(batches, calls, [&](std::size_t) {
      auto decoded = proto::decode(std::span<const std::byte>(buffer.data(), buffer.size()));
      g_sink = g_sink + (decoded.is_ok() ? decoded->payload.index() : 99);
    });
    auto decoded = proto::decode(std::span<const std::byte>(buffer.data(), buffer.size()));
    if (!decoded.is_ok() || decoded->payload.index() != envelope.payload.index()) {
      result.violate(std::string("codec round trip failed for ") + name);
    }
    result.add(std::string("proto.encode_ns.") + name, encode_ns, "ns");
    result.add(std::string("proto.decode_ns.") + name, decode_ns, "ns");
    result.add(std::string("proto.bytes.") + name, static_cast<double>(buffer.size()),
               "bytes");
  }

  const double digest_ns = per_call_ns(batches, calls, [&](std::size_t) {
    g_sink = g_sink + store::digest_bytes(program).lo;
  });
  result.add("store.digest_ns", digest_ns, "ns");
}

// Capabilities of the run's pool, as the broker sees them at registration.
std::vector<proto::Capability> pool_capabilities(const std::string& pool) {
  std::vector<proto::Capability> caps;
  for (const auto& entry : pool_makeup(pool)) {
    caps.insert(caps.end(), entry.count, entry.profile.capability());
  }
  return caps;
}

// The QoC of the run's flat tasklets, drawn as its workload draws them.
proto::Qoc draw_qoc(const std::string& pool, InputRng& rng) {
  proto::Qoc qoc;
  if (pool == "reliable") {
    qoc.redundancy = 3;
  } else if (pool == "large") {
    const double pick = rng.uniform();
    if (pick < 0.25) {
      qoc.speed = proto::SpeedGoal::kFast;
    } else if (pick < 0.375) {
      qoc.redundancy = 3;
    }
  }
  return qoc;
}

void probe_broker(const Options& options, const std::string& pool,
                  RunResult& result) {
  const NodeId broker_id{1};
  const NodeId consumer_id{2};
  broker::Broker broker(broker_id, broker::make_qoc_aware(), broker::BrokerConfig{});
  proto::Outbox start(broker_id);
  broker.on_start(0, start);
  const std::vector<proto::Capability> caps = pool_capabilities(pool);
  for (std::size_t i = 0; i < caps.size(); ++i) {
    proto::Outbox out(broker_id);
    broker.on_message({NodeId{100 + i}, broker_id, proto::RegisterProvider{caps[i], 1}},
                      0, out);
  }

  InputRng rng(mix_seed(options.seed, 10));
  const std::size_t submissions = options.short_mode ? 300 : 3'000;
  std::vector<double> decide_us;
  std::size_t unplaced = 0;
  for (std::size_t i = 0; i < submissions; ++i) {
    proto::TaskletSpec spec;
    spec.id = TaskletId{i + 1};
    spec.job = JobId{1};
    const auto value = static_cast<std::int64_t>(rng.next() >> 1);
    spec.body = proto::SyntheticBody{static_cast<std::uint64_t>(rng.range(2'000'000, 200'000'000)),
                                     value, 256};
    spec.qoc = draw_qoc(pool, rng);
    const auto now = static_cast<SimTime>(i) * 1000;
    proto::Outbox out(broker_id);
    const auto t0 = Clock::now();
    broker.on_message({consumer_id, broker_id, proto::SubmitTasklet{std::move(spec), {}}},
                      now, out);
    decide_us.push_back(micros(t0, Clock::now()));
    // Answer every assignment at once, and any that answering triggers.
    std::vector<proto::Envelope> pending = out.take_messages();
    bool assigned = false;
    while (!pending.empty()) {
      std::vector<proto::Envelope> next;
      for (const auto& envelope : pending) {
        const auto* assign = std::get_if<proto::AssignTasklet>(&envelope.payload);
        if (assign == nullptr) continue;
        assigned = true;
        proto::AttemptOutcome outcome;
        outcome.result = value;
        outcome.fuel_used = std::get<proto::SyntheticBody>(assign->body).fuel;
        proto::Outbox reply(broker_id);
        broker.on_message({envelope.to, broker_id,
                           proto::AttemptResult{assign->attempt, assign->tasklet, outcome}},
                          now, reply);
        for (auto& more : reply.take_messages()) next.push_back(std::move(more));
      }
      pending = std::move(next);
    }
    if (!assigned) ++unplaced;
  }
  if (unplaced > 0) {
    result.violate("broker replay left " + std::to_string(unplaced) +
                   " submissions unplaced");
  }
  result.add("broker.decide_us_p50", quantile(decide_us, 0.5), "us");
  result.add("broker.decide_us_p99", quantile(decide_us, 0.99), "us");
}

}  // namespace

void run_layer_probes(const Options& options, const std::string& pool,
                      RunResult& result) {
  const auto start = Clock::now();
  probe_tcl_tvm(options, result);
  probe_proto_store(options, result);
  probe_broker(options, pool, result);
  probe_threaded_kernels(options, result);
  probe_tcp_dispatch(options, result);
  note("layer probes: %.2f s", seconds_since(start));
}

}  // namespace perfbench
