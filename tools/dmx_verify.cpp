// dmx_verify: exhaustive small-N schedule exploration and counterexample
// replay (src/verify/).
//
//   explore:  dmx_verify --algo arbiter-tp --n 3 --requests 1
//             [--fault "t=0 crash 1; t=1 restart 1"] [--cex-out ce.cex]
//   replay:   dmx_verify --replay ce.cex [--trace-out ce.jsonl
//             --trace-format jsonl|chrome|text]
//
// Explore exits 0 when every schedule satisfies the invariants, 1 when a
// violation was found (writing --cex-out if given), 2 on usage errors —
// an unwritable --cex-out among them, reported before the search starts.
// Replay exits 0 when the recorded violation reproduces, 1 when it does
// not — so CI can assert both directions.
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "harness/cli.hpp"
#include "mutex/registry.hpp"
#include "obs/sinks.hpp"
#include "verify/counterexample.hpp"
#include "verify/explorer.hpp"
#include "verify/mutants.hpp"

namespace {

using dmx::harness::parse_double;
using dmx::harness::parse_param;
using dmx::harness::parse_u64;
using dmx::verify::Counterexample;
using dmx::verify::VerifyConfig;
using dmx::verify::VerifyResult;

struct Options {
  VerifyConfig cfg;
  std::string cex_out;
  std::string replay_file;
  std::string trace_out;
  dmx::obs::TraceFormat trace_format = dmx::obs::TraceFormat::kJsonl;
  bool list = false;
  bool help = false;
};

const char kUsage[] =
    "usage: dmx_verify [flags]\n"
    "  --algo NAME          algorithm to verify (default arbiter-tp)\n"
    "  --n N                nodes, 1..4 (default 3)\n"
    "  --requests K         CS requests per node (default 1)\n"
    "  --t-msg X            constant message delay (default 0.1)\n"
    "  --t-exec X           CS hold time (default 0.1)\n"
    "  --param key=value    algorithm parameter (repeatable)\n"
    "  --fault \"SPEC\"       crash/restart/lose-next/partition/heal choices;\n"
    "                       t= is ignored\n"
    "  --quorum             shorthand for --param recovery=1 --param\n"
    "                       recovery_quorum=1 (partition-safe regeneration)\n"
    "  --reliable           run nodes behind the reliable transport (jitter\n"
    "                       off); lose-next then attacks transport frames\n"
    "  --slack X            enabled-window width in time units; < 0 explores\n"
    "                       full asynchrony (default 0.25)\n"
    "  --no-fifo            also explore per-link message reordering\n"
    "  --depth D            schedule depth bound (default 48)\n"
    "  --max-schedules M    exploration budget (default 2000000)\n"
    "  --cex-out FILE       write the counterexample if a violation is found\n"
    "  --replay FILE        replay a dmx.cex.v1 file instead of exploring\n"
    "  --trace-out FILE     structured trace of the replayed execution\n"
    "  --trace-format FMT   jsonl | chrome | text (default jsonl)\n"
    "  --list               list algorithms and choice-key families, exit\n"
    "  --help               this text\n";

Options parse_args(const std::vector<std::string>& args) {
  Options o;
  auto need = [&args](std::size_t& i, const std::string& flag) {
    if (i + 1 >= args.size()) {
      throw std::invalid_argument(flag + " needs a value");
    }
    return args[++i];
  };
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& a = args[i];
    if (a == "--algo") {
      o.cfg.algorithm = need(i, a);
    } else if (a == "--n") {
      o.cfg.n_nodes = parse_u64(a, need(i, a));
    } else if (a == "--requests") {
      o.cfg.requests_per_node = parse_u64(a, need(i, a));
    } else if (a == "--t-msg") {
      o.cfg.t_msg = parse_double(a, need(i, a));
    } else if (a == "--t-exec") {
      o.cfg.t_exec = parse_double(a, need(i, a));
    } else if (a == "--param") {
      parse_param(a, need(i, a), o.cfg.params);
    } else if (a == "--fault") {
      o.cfg.fault_plan = need(i, a);
    } else if (a == "--quorum") {
      o.cfg.params.set("recovery", 1.0).set("recovery_quorum", 1.0);
    } else if (a == "--reliable") {
      o.cfg.reliable = true;
    } else if (a == "--slack") {
      o.cfg.time_slack = parse_double(a, need(i, a));
    } else if (a == "--no-fifo") {
      o.cfg.fifo_links = false;
    } else if (a == "--depth") {
      o.cfg.max_depth = parse_u64(a, need(i, a));
    } else if (a == "--max-schedules") {
      o.cfg.max_schedules = parse_u64(a, need(i, a));
    } else if (a == "--cex-out") {
      o.cex_out = need(i, a);
    } else if (a == "--replay") {
      o.replay_file = need(i, a);
    } else if (a == "--trace-out") {
      o.trace_out = need(i, a);
    } else if (a == "--trace-format") {
      o.trace_format = dmx::obs::parse_trace_format(a, need(i, a));
    } else if (a == "--list") {
      o.list = true;
    } else if (a == "--help") {
      o.help = true;
    } else {
      throw std::invalid_argument("unknown flag: " + a);
    }
  }
  return o;
}

// Proves `path` writable by opening it for append, which creates it without
// truncating an existing file; a file created here is removed again, so a
// clean run leaves nothing behind.
void require_writable(const std::string& path) {
  const bool existed = std::filesystem::exists(path);
  {
    std::ofstream probe(path, std::ios::app);
    if (!probe) {
      throw std::invalid_argument("cannot open --cex-out file '" + path + "'");
    }
  }
  if (!existed) std::filesystem::remove(path);
}

int run_explore(const Options& o) {
  const VerifyConfig& cfg = o.cfg;
  if (!o.cex_out.empty()) require_writable(o.cex_out);
  std::cout << "dmx_verify: algo=" << cfg.algorithm << " n=" << cfg.n_nodes
            << " requests=" << cfg.requests_per_node
            << " slack=" << cfg.time_slack
            << " fifo=" << (cfg.fifo_links ? 1 : 0)
            << " depth=" << cfg.max_depth;
  if (!cfg.fault_plan.empty()) {
    std::cout << " fault=\"" << cfg.fault_plan << "\"";
  }
  std::cout << "\n";

  const VerifyResult res = dmx::verify::explore(cfg);
  const auto& s = res.stats;
  std::cout << "schedules explored: " << s.schedules << " (terminal "
            << s.terminal << ", truncated " << s.truncated
            << ", sleep-blocked " << s.sleep_blocked << ")\n"
            << "transitions: " << s.transitions << " fresh + " << s.replayed
            << " replayed; sleep-pruned branches: " << s.sleep_pruned
            << "\nmax frontier: " << s.max_frontier
            << "  max depth reached: " << s.max_depth_reached << "\n";
  if (res.ok()) {
    std::cout << "result: OK — no violation in any explored schedule"
              << (s.complete ? " (exploration complete)"
                             : " (budget capped: INCOMPLETE)")
              << "\n";
    return s.complete ? 0 : 2;
  }
  std::cout << "result: VIOLATION " << res.violation->describe() << "\n";
  std::cout << "counterexample (" << res.counterexample.size()
            << " choices):\n";
  for (std::size_t i = 0; i < res.counterexample.size(); ++i) {
    std::cout << "  " << i + 1 << ". " << res.counterexample[i] << "\n";
  }
  std::cout << "diagnosis:\n" << res.diagnosis;
  if (!o.cex_out.empty()) {
    Counterexample cex;
    cex.config = cfg;
    cex.violation_kind =
        std::string(dmx::mutex::violation_kind_name(res.violation->kind));
    cex.choices = res.counterexample;
    std::ofstream out(o.cex_out);
    if (!out) {
      std::cerr << "cannot open --cex-out file '" << o.cex_out << "'\n";
      return 2;
    }
    out << cex.to_string();
    std::cout << "counterexample written: " << o.cex_out << "\n";
  }
  return 1;
}

int run_replay(const Options& o) {
  std::ifstream in(o.replay_file);
  if (!in) {
    std::cerr << "cannot open --replay file '" << o.replay_file << "'\n";
    return 2;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  const Counterexample cex = Counterexample::parse(buf.str());

  // The stream must outlive the sink (the Chrome sink closes its JSON
  // envelope from its destructor).
  std::ofstream trace_file;
  std::shared_ptr<dmx::obs::Sink> sink;
  if (!o.trace_out.empty()) {
    trace_file.open(o.trace_out);
    if (!trace_file) {
      std::cerr << "cannot open --trace-out file '" << o.trace_out << "'\n";
      return 2;
    }
    sink = dmx::obs::make_format_sink(o.trace_format, trace_file);
  }

  const dmx::verify::ReplayResult res = dmx::verify::replay(cex, sink);
  if (sink) sink->flush();
  std::cout << "replayed " << res.steps << "/" << cex.choices.size()
            << " choices of " << o.replay_file << "\n";
  if (!res.error.empty()) {
    std::cout << "replay FAILED: " << res.error << "\ndiagnosis:\n"
              << res.diagnosis;
    return 1;
  }
  if (res.violation.has_value()) {
    std::cout << "violation reproduced: " << res.violation->describe()
              << "\ndiagnosis:\n" << res.diagnosis;
    if (!o.trace_out.empty()) {
      std::cout << "trace written: " << o.trace_out << "\n";
    }
    return 0;
  }
  std::cout << "no violation reproduced (clean execution)\n";
  return cex.violation_kind.empty() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  try {
    const Options o = parse_args(args);
    if (o.help) {
      std::cout << kUsage;
      return 0;
    }
    if (o.list) {
      dmx::verify::VerifyConfig probe;  // registration side effect
      (void)probe.validate();
      std::cout << "algorithms:\n";
      for (const auto& name : dmx::mutex::Registry::instance().names()) {
        std::cout << "  " << name << "\n";
      }
      std::cout
          << "choice-key families (counterexample steps):\n"
             "  d SRC>DST TYPE #I   deliver in-flight message (FIFO head)\n"
             "  t NODE #I           fire a pending timer on NODE\n"
             "  x NODE #I           NODE exits its critical section\n"
             "  fN crash NODE       fault-plan action N crashes NODE\n"
             "  fN restart NODE     fault-plan action N restarts NODE\n"
             "  lN d SRC>DST ...    fault-plan action N drops that delivery\n"
             "  pN cut G0|G1|...    fault-plan action N cuts the network into\n"
             "                      groups (e.g. \"p0 cut 0,1|2\")\n"
             "  hN heal             fault-plan action N heals the active cut\n";
      return 0;
    }
    if (!o.replay_file.empty()) return run_replay(o);
    return run_explore(o);
  } catch (const std::exception& e) {
    std::cerr << "dmx_verify: " << e.what() << "\n" << kUsage;
    return 2;
  }
}
