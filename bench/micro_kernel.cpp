// google-benchmark micro benchmarks of the simulation substrate, so users
// can size their own sweeps: event-queue throughput (heap and broadcast
// fan-out), network send/deliver cost, one reliable-transport frame and one
// reliable broadcast, kind-table message dispatch, per-type stats counters, trace emission, and
// an end-to-end simulated-CS rate for the core algorithm.
#include <benchmark/benchmark.h>

#include <array>
#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "harness/experiment.hpp"
#include "net/delay_model.hpp"
#include "net/network.hpp"
#include "net/reliable_transport.hpp"
#include "obs/event.hpp"
#include "obs/sinks.hpp"
#include "obs/tracer.hpp"
#include "runtime/dispatch.hpp"
#include "sim/simulator.hpp"
#include "stats/kind_counter.hpp"

namespace {

void BM_EventQueueScheduleRun(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    dmx::sim::Simulator sim;
    std::uint64_t sink = 0;
    for (std::size_t i = 0; i < n; ++i) {
      sim.schedule_at(dmx::sim::SimTime::ticks(static_cast<std::int64_t>(i % 1024)),
                      [&sink] { ++sink; });
    }
    sim.run();
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_EventQueueScheduleRun)->Arg(1 << 10)->Arg(1 << 14)->Arg(1 << 17);

// Steady state in the shape of broadcast_n1000: every tick one broadcast
// schedules 999 deliveries at T_msg plus one jittered one-off timer, and the
// clock advances a tenth of T_msg, so ten broadcasts are in flight (~10k
// pending events).  BM_EventQueueScheduleRun above gives consecutive events
// distinct delays, so it prices the heap; this one prices the lanes.
void BM_EventQueueFanout(benchmark::State& state) {
  constexpr int kFanout = 999;
  const dmx::sim::SimTime t_msg = dmx::sim::SimTime::units(0.1);
  const dmx::sim::SimTime tick = dmx::sim::SimTime::units(0.01);
  dmx::sim::Simulator sim;
  std::uint64_t fired = 0;
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  const auto broadcast = [&] {
    for (int i = 0; i < kFanout; ++i) {
      sim.schedule_after(t_msg, [&fired] { ++fired; });
    }
    x ^= x << 13; x ^= x >> 7; x ^= x << 17;  // xorshift64
    const auto jitter = static_cast<std::int64_t>(x % 1'000'000);
    sim.schedule_after(dmx::sim::SimTime::units(1.0) +
                           dmx::sim::SimTime::ticks(jitter),
                       [&fired] { ++fired; });
  };
  for (int i = 0; i < 200; ++i) {  // fill the pipeline
    broadcast();
    sim.run_until(sim.now() + tick);
  }
  for (auto _ : state) {
    broadcast();
    sim.run_until(sim.now() + tick);
  }
  benchmark::DoNotOptimize(fired);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          (kFanout + 1));
}
BENCHMARK(BM_EventQueueFanout);

struct NullHandler final : dmx::net::MessageHandler {
  std::uint64_t count = 0;
  void on_message(const dmx::net::Envelope&) override { ++count; }
};

struct PingPayload final : dmx::net::Msg<PingPayload> {
  DMX_REGISTER_MESSAGE(PingPayload, "PING");
};

void BM_NetworkSendDeliver(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    dmx::sim::Simulator sim;
    dmx::net::Network net(
        sim, 2,
        std::make_unique<dmx::net::ConstantDelay>(dmx::sim::SimTime::units(0.1)),
        1);
    NullHandler h0, h1;
    net.attach(dmx::net::NodeId{0}, &h0);
    net.attach(dmx::net::NodeId{1}, &h1);
    auto payload = dmx::net::make_payload<PingPayload>();
    for (std::size_t i = 0; i < n; ++i) {
      net.send(dmx::net::NodeId{0}, dmx::net::NodeId{1}, payload);
    }
    sim.run();
    benchmark::DoNotOptimize(h1.count);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_NetworkSendDeliver)->Arg(1 << 10)->Arg(1 << 14);

// One frame per iteration through a warmed pair of ReliableEndpoints: the
// RT-DATA send and its RTO timer, the in-order delivery upcall, the
// delayed-ack timer and standalone RT-ACK, and the retirement of the frame.
void BM_ReliableSendDeliver(benchmark::State& state) {
  dmx::sim::Simulator sim;
  dmx::net::Network net(
      sim, 2,
      std::make_unique<dmx::net::ConstantDelay>(dmx::sim::SimTime::units(0.1)),
      1);
  NullHandler h0, h1;
  const auto cfg = dmx::net::ReliableTransportConfig::scaled_to(
      dmx::sim::SimTime::units(0.1));
  dmx::net::ReliableEndpoint ep0(net, dmx::net::NodeId{0}, h0, cfg, 11);
  dmx::net::ReliableEndpoint ep1(net, dmx::net::NodeId{1}, h1, cfg, 22);
  net.attach(dmx::net::NodeId{0}, &ep0);
  net.attach(dmx::net::NodeId{1}, &ep1);
  const auto payload = dmx::net::make_payload<PingPayload>();
  // First contact materializes both peer states outside the timed loop.
  ep0.send(dmx::net::NodeId{0}, dmx::net::NodeId{1}, payload);
  sim.run();
  for (auto _ : state) {
    ep0.send(dmx::net::NodeId{0}, dmx::net::NodeId{1}, payload);
    sim.run();
  }
  benchmark::DoNotOptimize(h1.count);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ReliableSendDeliver);

// One broadcast per iteration from one endpoint to N-1 warmed peer
// endpoints, run to drain: N-1 RT-DATA frames with their RTO timers,
// deliveries, delayed acks, standalone RT-ACKs and retirements.  This is
// the path a NEW-ARBITER broadcast takes; unlike the two-endpoint bench
// above it touches N-1 peer states per iteration, so it sees their layout.
void BM_ReliableBroadcast(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  dmx::sim::Simulator sim;
  dmx::net::Network net(
      sim, n,
      std::make_unique<dmx::net::ConstantDelay>(dmx::sim::SimTime::units(0.1)),
      1);
  const auto cfg = dmx::net::ReliableTransportConfig::scaled_to(
      dmx::sim::SimTime::units(0.1));
  std::vector<NullHandler> handlers(n);
  std::vector<std::unique_ptr<dmx::net::ReliableEndpoint>> endpoints;
  for (std::size_t i = 0; i < n; ++i) {
    const dmx::net::NodeId id{static_cast<std::int32_t>(i)};
    endpoints.push_back(std::make_unique<dmx::net::ReliableEndpoint>(
        net, id, handlers[i], cfg, 100 + i));
    net.attach(id, endpoints.back().get());
  }
  const dmx::net::NodeId src{0};
  const auto payload = dmx::net::make_payload<PingPayload>();
  // First contact materializes every peer state outside the timed loop.
  endpoints[0]->broadcast(src, payload);
  sim.run();
  for (auto _ : state) {
    endpoints[0]->broadcast(src, payload);
    sim.run();
  }
  benchmark::DoNotOptimize(handlers[n - 1].count);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n - 1));
}
BENCHMARK(BM_ReliableBroadcast)->Arg(1000);

// --- message dispatch through the kind-indexed table ------------------------
//
// Ten payload types, matching the arbiter protocol's message count, so the
// dispatch table is as wide as a real algorithm's.

struct Bm0 final : dmx::net::Msg<Bm0> { DMX_REGISTER_MESSAGE(Bm0, "BENCH-0"); std::uint64_t v = 0; };
struct Bm1 final : dmx::net::Msg<Bm1> { DMX_REGISTER_MESSAGE(Bm1, "BENCH-1"); std::uint64_t v = 1; };
struct Bm2 final : dmx::net::Msg<Bm2> { DMX_REGISTER_MESSAGE(Bm2, "BENCH-2"); std::uint64_t v = 2; };
struct Bm3 final : dmx::net::Msg<Bm3> { DMX_REGISTER_MESSAGE(Bm3, "BENCH-3"); std::uint64_t v = 3; };
struct Bm4 final : dmx::net::Msg<Bm4> { DMX_REGISTER_MESSAGE(Bm4, "BENCH-4"); std::uint64_t v = 4; };
struct Bm5 final : dmx::net::Msg<Bm5> { DMX_REGISTER_MESSAGE(Bm5, "BENCH-5"); std::uint64_t v = 5; };
struct Bm6 final : dmx::net::Msg<Bm6> { DMX_REGISTER_MESSAGE(Bm6, "BENCH-6"); std::uint64_t v = 6; };
struct Bm7 final : dmx::net::Msg<Bm7> { DMX_REGISTER_MESSAGE(Bm7, "BENCH-7"); std::uint64_t v = 7; };
struct Bm8 final : dmx::net::Msg<Bm8> { DMX_REGISTER_MESSAGE(Bm8, "BENCH-8"); std::uint64_t v = 8; };
struct Bm9 final : dmx::net::Msg<Bm9> { DMX_REGISTER_MESSAGE(Bm9, "BENCH-9"); std::uint64_t v = 9; };

struct DispatchTarget {
  std::uint64_t sum = 0;
  void on0(const dmx::net::Envelope&, const Bm0& m) { sum += m.v; }
  void on1(const dmx::net::Envelope&, const Bm1& m) { sum += m.v; }
  void on2(const dmx::net::Envelope&, const Bm2& m) { sum += m.v; }
  void on3(const dmx::net::Envelope&, const Bm3& m) { sum += m.v; }
  void on4(const dmx::net::Envelope&, const Bm4& m) { sum += m.v; }
  void on5(const dmx::net::Envelope&, const Bm5& m) { sum += m.v; }
  void on6(const dmx::net::Envelope&, const Bm6& m) { sum += m.v; }
  void on7(const dmx::net::Envelope&, const Bm7& m) { sum += m.v; }
  void on8(const dmx::net::Envelope&, const Bm8& m) { sum += m.v; }
  void on9(const dmx::net::Envelope&, const Bm9& m) { sum += m.v; }
};

const dmx::runtime::MsgDispatcher<DispatchTarget>& bench_dispatch_table() {
  static const auto kTable = [] {
    dmx::runtime::MsgDispatcher<DispatchTarget> t;
    t.on<&DispatchTarget::on0>().on<&DispatchTarget::on1>()
        .on<&DispatchTarget::on2>().on<&DispatchTarget::on3>()
        .on<&DispatchTarget::on4>().on<&DispatchTarget::on5>()
        .on<&DispatchTarget::on6>().on<&DispatchTarget::on7>()
        .on<&DispatchTarget::on8>().on<&DispatchTarget::on9>();
    return t;
  }();
  return kTable;
}

/// A deterministic pseudo-random mix of the ten bench message types, so the
/// dispatch gets no branch-predictor-friendly repeating pattern.
std::vector<dmx::net::Envelope> make_bench_envelopes(std::size_t n) {
  std::vector<dmx::net::Envelope> envs;
  envs.reserve(n);
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  for (std::size_t i = 0; i < n; ++i) {
    x ^= x << 13; x ^= x >> 7; x ^= x << 17;  // xorshift64
    dmx::net::Envelope env;
    env.src = dmx::net::NodeId{0};
    env.dst = dmx::net::NodeId{1};
    switch (x % 10) {
      case 0: env.payload = dmx::net::make_payload<Bm0>(); break;
      case 1: env.payload = dmx::net::make_payload<Bm1>(); break;
      case 2: env.payload = dmx::net::make_payload<Bm2>(); break;
      case 3: env.payload = dmx::net::make_payload<Bm3>(); break;
      case 4: env.payload = dmx::net::make_payload<Bm4>(); break;
      case 5: env.payload = dmx::net::make_payload<Bm5>(); break;
      case 6: env.payload = dmx::net::make_payload<Bm6>(); break;
      case 7: env.payload = dmx::net::make_payload<Bm7>(); break;
      case 8: env.payload = dmx::net::make_payload<Bm8>(); break;
      default: env.payload = dmx::net::make_payload<Bm9>(); break;
    }
    envs.push_back(std::move(env));
  }
  return envs;
}

void BM_MessageDispatchKindTable(benchmark::State& state) {
  const auto envs = make_bench_envelopes(4096);
  const auto& table = bench_dispatch_table();
  DispatchTarget t;
  for (auto _ : state) {
    for (const auto& env : envs) table.dispatch(t, env);
    benchmark::DoNotOptimize(t.sum);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(envs.size()));
}
BENCHMARK(BM_MessageDispatchKindTable);

// --- per-type send statistics through the kind-indexed counter -------------

void BM_StatsCounterKindVector(benchmark::State& state) {
  const auto envs = make_bench_envelopes(4096);
  dmx::stats::KindCounter counts;
  for (auto _ : state) {
    for (const auto& env : envs) {
      counts.increment(env.payload->kind().index());
    }
    benchmark::DoNotOptimize(counts.total());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(envs.size()));
}
BENCHMARK(BM_StatsCounterKindVector);

// --- trace emission: the disabled branch, and two enabled sink paths --------
//
// The disabled path is the one every protocol hot loop pays when tracing is
// off: it must be a single predictable branch, no Event construction, no
// formatting.  The enabled paths size the cost of capturing (a counting
// null sink isolates the chain itself; the JSONL sink adds serialization).

DMX_REGISTER_EVENT(kEvBench, "bench.emit", "bench");

struct TraceEmitter {
  dmx::obs::Tracer tracer;
  dmx::sim::SimTime now;
  std::int32_t node = 3;

  // Mirrors the emit helpers on Process / CsDriver: guard, then construct.
  void emit(std::uint64_t req, std::int64_t arg) {
    if (!tracer.enabled()) return;
    tracer.write(dmx::obs::Event{now, kEvBench, node, req, arg, 0.0});
  }
  void emitf(std::uint64_t req, std::int64_t arg) {
    if (!tracer.enabled()) return;
    const auto fmt = [arg] { return "arg is " + std::to_string(arg); };
    tracer.write(dmx::obs::Event{now, kEvBench, node, req, arg, 0.0},
                 dmx::obs::DetailRef(fmt));
  }
};

struct CountingSink final : dmx::obs::Sink {
  std::uint64_t events = 0;
  void on_event(const dmx::obs::Event&, const dmx::obs::DetailRef&) override {
    ++events;
  }
};

void BM_TraceEmitDisabled(benchmark::State& state) {
  TraceEmitter e;  // default tracer: disabled
  std::uint64_t req = 0;
  for (auto _ : state) {
    for (int i = 0; i < 4096; ++i) e.emit(++req, i);
    benchmark::DoNotOptimize(req);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 4096);
}
BENCHMARK(BM_TraceEmitDisabled);

void BM_TraceEmitDisabledWithFormatter(benchmark::State& state) {
  TraceEmitter e;
  std::uint64_t req = 0;
  for (auto _ : state) {
    for (int i = 0; i < 4096; ++i) e.emitf(++req, i);
    benchmark::DoNotOptimize(req);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 4096);
}
BENCHMARK(BM_TraceEmitDisabledWithFormatter);

void BM_TraceEmitCountingSink(benchmark::State& state) {
  auto sink = std::make_shared<CountingSink>();
  TraceEmitter e{dmx::obs::Tracer(sink), dmx::sim::SimTime::units(1.0)};
  std::uint64_t req = 0;
  for (auto _ : state) {
    for (int i = 0; i < 4096; ++i) e.emitf(++req, i);
    benchmark::DoNotOptimize(sink->events);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 4096);
}
BENCHMARK(BM_TraceEmitCountingSink);

void BM_TraceEmitJsonlSink(benchmark::State& state) {
  std::ostringstream os;
  auto sink = std::make_shared<dmx::obs::JsonlSink>(os);
  TraceEmitter e{dmx::obs::Tracer(sink), dmx::sim::SimTime::units(1.0)};
  std::uint64_t req = 0;
  for (auto _ : state) {
    os.str({});  // keep the buffer from growing without bound
    for (int i = 0; i < 4096; ++i) e.emitf(++req, i);
    sink->flush();
    benchmark::DoNotOptimize(os);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 4096);
}
BENCHMARK(BM_TraceEmitJsonlSink);

void BM_ArbiterEndToEnd(benchmark::State& state) {
  const auto requests = static_cast<std::uint64_t>(state.range(0));
  for (auto _ : state) {
    dmx::harness::ExperimentConfig cfg;
    cfg.n_nodes = 10;
    cfg.lambda = 0.5;
    cfg.total_requests = requests;
    cfg.seed = 42;
    const auto r = dmx::harness::run_experiment(cfg);
    benchmark::DoNotOptimize(r.completed);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(requests));
  state.SetLabel("simulated CS grants");
}
BENCHMARK(BM_ArbiterEndToEnd)->Arg(2'000)->Arg(20'000)
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
