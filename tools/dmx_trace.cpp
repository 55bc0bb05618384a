// dmx_trace: script a small mutual exclusion scenario and watch every
// protocol event and message.
//
// Examples:
//   # the paper's §2.2 walk-through
//   dmx_trace --algo arbiter-tp --n 5 --unit-times
//       --submit 1:0 --submit 4:0.2 --submit 3:1.9
//   # token loss with recovery
//   dmx_trace --algo arbiter-tp --n 5 --param recovery=1
//       --drop PRIVILEGE --submit 1:0 --submit 2:0.1
//   # crash the token holder
//   dmx_trace --n 5 --param recovery=1 --submit 1:0 --crash 1:0.45
#include <fstream>
#include <iostream>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "harness/cli.hpp"
#include "mutex/mutex_cluster.hpp"
#include "mutex/registry.hpp"
#include "net/delay_model.hpp"
#include "net/msg_kind.hpp"
#include "obs/sinks.hpp"
#include "obs/span.hpp"
#include "obs/tracer.hpp"

namespace {

struct Action {
  enum Kind { kSubmit, kCrash, kRestart } kind;
  std::size_t node;
  double time;
};

[[noreturn]] void usage_error(const std::string& msg) {
  std::cerr << "dmx_trace: " << msg << R"(

usage: dmx_trace [flags]
  --algo NAME           algorithm                      [arbiter-tp]
  --n N                 nodes                          [5]
  --t-msg X / --t-exec X                               [0.1 / 0.1]
  --unit-times          shorthand for t-msg=t-exec=t_req=t_fwd=1
  --param key=value     algorithm parameter (repeatable)
  --submit NODE:TIME    demand at NODE at TIME (repeatable)
  --crash NODE:TIME     crash NODE at TIME (repeatable)
  --restart NODE:TIME   restart NODE at TIME (repeatable)
  --drop TYPE           drop the next message of TYPE, or of any type
                        for * (repeatable)
  --until T             stop the clock at T            [200]
  --trace-out FILE      also write a machine-readable trace (with
                        request-lifecycle spans) to FILE
  --trace-format FMT    jsonl | chrome | text          [jsonl]
)";
  std::exit(2);
}

Action parse_action(Action::Kind kind, const std::string& flag,
                    const std::string& v) {
  const auto colon = v.find(':');
  if (colon == std::string::npos) usage_error("expected NODE:TIME, got " + v);
  const auto node = static_cast<std::size_t>(
      dmx::harness::parse_u64(flag, v.substr(0, colon)));
  const double time = dmx::harness::parse_double(flag, v.substr(colon + 1));
  if (time < 0.0) usage_error(flag + " time must be >= 0, got " + v);
  return Action{kind, node, time};
}

}  // namespace

// Every std::exception, from a malformed flag value (the shared parsers in
// harness/cli.hpp and obs/sinks.hpp throw std::invalid_argument) to a
// cluster that cannot be built or run, is a usage error: never an abort.
int main(int argc, char** argv) try {
  using namespace dmx;
  std::string algo = "arbiter-tp";
  std::size_t n = 5;
  double t_msg = 0.1, t_exec = 0.1, until = 200.0;
  mutex::ParamSet params;
  std::vector<Action> actions;
  std::vector<std::string> drops;
  std::string trace_out;
  obs::TraceFormat trace_format = obs::TraceFormat::kJsonl;

  const std::vector<std::string> args(argv + 1, argv + argc);
  for (std::size_t i = 0; i < args.size(); ++i) {
    auto value = [&](const char* flag) {
      if (i + 1 >= args.size()) {
        usage_error(std::string("missing value for ") + flag);
      }
      return args[++i];
    };
    const std::string& a = args[i];
    if (a == "--algo") {
      algo = value("--algo");
    } else if (a == "--n") {
      n = static_cast<std::size_t>(harness::parse_u64(a, value("--n")));
    } else if (a == "--t-msg") {
      t_msg = harness::parse_double(a, value("--t-msg"));
    } else if (a == "--t-exec") {
      t_exec = harness::parse_double(a, value("--t-exec"));
    } else if (a == "--unit-times") {
      t_msg = t_exec = 1.0;
      params.set("t_req", 1.0).set("t_fwd", 1.0);
    } else if (a == "--param") {
      harness::parse_param(a, value("--param"), params);
    } else if (a == "--submit") {
      actions.push_back(parse_action(Action::kSubmit, a, value("--submit")));
    } else if (a == "--crash") {
      actions.push_back(parse_action(Action::kCrash, a, value("--crash")));
    } else if (a == "--restart") {
      actions.push_back(
          parse_action(Action::kRestart, a, value("--restart")));
    } else if (a == "--drop") {
      drops.push_back(value("--drop"));
    } else if (a == "--until") {
      until = harness::parse_double(a, value("--until"));
    } else if (a == "--trace-out") {
      trace_out = value("--trace-out");
    } else if (a == "--trace-format") {
      trace_format = obs::parse_trace_format(a, value("--trace-format"));
    } else if (a == "--help" || a == "-h") {
      usage_error("help");
    } else {
      usage_error("unknown flag " + a);
    }
  }
  if (actions.empty()) usage_error("no --submit actions given");
  if (n == 0) usage_error("--n must be at least 1");
  if (!(t_msg > 0.0)) usage_error("--t-msg must be positive");
  if (!(t_exec > 0.0)) usage_error("--t-exec must be positive");
  if (until < 0.0) usage_error("--until must be >= 0");
  for (const Action& act : actions) {
    if (act.node >= n) usage_error("action node out of range");
  }

  harness::register_builtin_algorithms();
  if (!mutex::Registry::instance().contains(algo)) {
    usage_error("unknown algorithm " + algo + " (see dmx_sweep --list)");
  }
  if (const std::string e = mutex::build_error(algo, n, params); !e.empty()) {
    usage_error(e);
  }
  for (const std::string& type : drops) {
    if (type != "*" && !net::MsgKindRegistry::instance().find(type).valid()) {
      usage_error("--drop names no registered message type: " + type);
    }
  }

  // The console view: an unbuffered text sink, so the event log interleaves
  // correctly with the network tap below (which writes std::cout directly).
  // `trace_file` is declared before the sinks so the Chrome sink's destructor
  // can still close its JSON envelope while the stream is alive.
  std::ofstream trace_file;
  auto console = std::make_shared<obs::TextSink>(std::cout, 0);
  std::shared_ptr<obs::SpanCollector> file_chain;
  std::shared_ptr<obs::Sink> cluster_sink = console;
  if (!trace_out.empty()) {
    trace_file.open(trace_out);
    if (!trace_file) usage_error("cannot open --trace-out file " + trace_out);
    file_chain = std::make_shared<obs::SpanCollector>(
        obs::make_format_sink(trace_format, trace_file));
    cluster_sink = std::make_shared<obs::TeeSink>(
        std::vector<std::shared_ptr<obs::Sink>>{console, file_chain});
  }
  mutex::MutexCluster mc(
      algo, n, params, sim::SimTime::units(t_exec),
      std::make_unique<net::ConstantDelay>(sim::SimTime::units(t_msg)), 7,
      obs::Tracer(cluster_sink));
  mc.network().set_tap([&](const net::Envelope& env, bool dropped) {
    std::cout << "[" << env.sent_at.to_string() << "] msg     " << env.src
              << " -> " << env.dst << "  " << env.payload->describe()
              << (dropped ? "  [DROPPED]" : "") << "\n";
  });
  for (const auto& type : drops) {
    mc.network().faults().drop_next_of_type(type);
  }

  for (const Action& act : actions) {
    mc.simulator().schedule_at(sim::SimTime::units(act.time), [&, act] {
      const net::NodeId nid{static_cast<std::int32_t>(act.node)};
      switch (act.kind) {
        case Action::kSubmit:
          mc.driver(act.node).submit();
          break;
        case Action::kCrash:
          mc.cluster().crash_node(nid);
          break;
        case Action::kRestart:
          mc.cluster().restart_node(nid);
          break;
      }
    });
  }
  mc.simulator().run_until(sim::SimTime::units(until));

  const std::uint64_t violations = mc.monitor().violations();
  std::cout << "\n" << mc.total_completed() << " critical sections, "
            << mc.network().stats().sent << " messages, " << violations
            << " safety violations\n";
  return violations == 0 ? 0 : 1;
} catch (const std::exception& e) {
  usage_error(e.what());
}
