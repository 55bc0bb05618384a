#include "harness/cli.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <fstream>
#include <memory>
#include <optional>
#include <ostream>
#include <stdexcept>
#include <utility>

#include "harness/lock_service.hpp"
#include "harness/manifest.hpp"
#include "harness/parallel.hpp"
#include "harness/table.hpp"
#include "mutex/registry.hpp"
#include "obs/sinks.hpp"
#include "stats/confidence.hpp"

namespace dmx::harness {

namespace {

/// The number the whole of `value` spells, finite or not; nullopt when it
/// spells none ("5s", "priority").
std::optional<double> whole_number(const std::string& value) {
  try {
    std::size_t pos = 0;
    const double d = std::stod(value, &pos);
    if (pos == value.size()) return d;
  } catch (const std::exception&) {
  }
  return std::nullopt;
}

[[noreturn]] void bad_number(const std::string& flag,
                             const std::string& value) {
  throw std::invalid_argument("bad numeric value for " + flag + ": '" +
                              value + "'");
}

std::vector<double> parse_double_list(const std::string& flag,
                                      const std::string& value) {
  std::vector<double> out;
  std::size_t start = 0;
  while (start <= value.size()) {
    const std::size_t comma = value.find(',', start);
    const std::string item = value.substr(
        start, comma == std::string::npos ? std::string::npos : comma - start);
    if (!item.empty()) out.push_back(parse_double(flag, item));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  if (out.empty()) {
    throw std::invalid_argument("empty list for " + flag);
  }
  return out;
}

std::pair<std::string, std::string> split_kv(const std::string& flag,
                                             const std::string& value) {
  const std::size_t eq = value.find('=');
  if (eq == std::string::npos || eq == 0 || eq + 1 >= value.size()) {
    throw std::invalid_argument(flag + " expects key=value, got '" + value +
                                "'");
  }
  return {value.substr(0, eq), value.substr(eq + 1)};
}

}  // namespace

double parse_double(const std::string& flag, const std::string& value) {
  const std::optional<double> d = whole_number(value);
  if (!d || !std::isfinite(*d)) bad_number(flag, value);
  return *d;
}

std::uint64_t parse_u64(const std::string& flag, const std::string& value) {
  std::uint64_t out = 0;
  const auto [ptr, ec] =
      std::from_chars(value.data(), value.data() + value.size(), out);
  if (ec != std::errc{} || ptr != value.data() + value.size()) {
    throw std::invalid_argument("bad integer value for " + flag + ": '" +
                                value + "'");
  }
  return out;
}

void set_param(mutex::ParamSet& params, const std::string& key,
               const std::string& value) {
  const std::optional<double> d = whole_number(value);
  if (!d) {
    params.set(key, value);
  } else if (std::isfinite(*d)) {
    params.set(key, *d);
  } else {
    bad_number(key, value);
  }
}

void parse_param(const std::string& flag, const std::string& kv,
                 mutex::ParamSet& params) {
  const auto [key, value] = split_kv(flag, kv);
  set_param(params, key, value);
}

CliOptions::CliOptions() {
  cfg.total_requests = 100'000;
  service.n_resources = 1;
}

namespace {

/// One message per flag that the chosen mode never reads, spotted by its
/// setting differing from the CLI default: the lock-service run reads none
/// of the flags that only shape the lambda sweep, and the sweep reads none
/// of the lock-service flags.
std::vector<std::string> unread_flags(const CliOptions& opts) {
  const CliOptions d;
  const ExperimentConfig& cfg = opts.cfg;
  const LockServiceConfig& ls = opts.service;
  std::vector<std::string> errors;
  std::string why;
  const auto check = [&errors, &why](bool moved, const char* flag) {
    if (moved) errors.push_back(flag + why);
  };
  if (ls.n_resources > 1) {
    why = " is not read by the lock-service run (--resources > 1)";
    check(cfg.algorithm != d.cfg.algorithm, "--algo");
    check(opts.seeds != d.seeds, "--seeds");
    check(opts.lambdas.size() > 1, "--lambda beyond its first rate");
    check(cfg.delay_kind != d.cfg.delay_kind, "--delay");
    check(cfg.delay_jitter != d.cfg.delay_jitter, "--jitter");
    check(cfg.loss_by_type != d.cfg.loss_by_type, "--loss");
    check(cfg.fault_plan != d.cfg.fault_plan, "--fault");
    check(cfg.transport != d.cfg.transport, "--transport");
    check(cfg.stall_threshold != d.cfg.stall_threshold, "--stall");
  } else {
    why = " is read only by the lock-service run (--resources > 1)";
    check(ls.zipf_s != d.service.zipf_s, "--zipf-s");
    check(ls.hot_algorithm != d.service.hot_algorithm ||
              ls.cold_algorithm != d.service.cold_algorithm,
          "--shard-algo");
  }
  return errors;
}

/// The lock-service run of `ls` (--resources/--zipf-s/--shard-algo)
/// with every field it shares with the sweep derived from `first`, the
/// sweep's first point.
LockServiceConfig service_run(LockServiceConfig ls,
                              const ExperimentConfig& first) {
  ls.total_demands = first.total_requests;
  ls.hot_nodes = first.n_nodes;
  ls.cold_nodes = std::max<std::size_t>(2, first.n_nodes / 2);
  ls.t_msg = first.t_msg;
  ls.t_exec = first.t_exec;
  ls.think_mean = 1.0 / first.lambda;
  ls.params = first.params;
  ls.seed = seed_schedule(first, 0);
  ls.jobs = first.jobs;
  return ls;
}

/// The sharded lock-service branch of run_cli (--resources > 1): one
/// scenario run of the validated `ls` instead of a lambda×seed sweep.
/// --requests is the aggregate demand, Zipf-split per shard; the table
/// reports per-shard SLOs (p99 time-to-grant, Jain fairness) for the
/// hottest shards plus service-wide aggregates, and --emit-json embeds the
/// full per-shard scorecard in the dmx.run.v1 manifest's lock_service
/// block.
int run_lock_service_cli(const CliOptions& opts, const ExperimentConfig& first,
                         const LockServiceConfig& ls, std::ostream& os,
                         std::ostream& manifest) {
  const LockServiceReport report = run_lock_service(ls);

  os << "lock service: " << ls.n_resources << " resources  zipf_s="
     << Table::num(ls.zipf_s, 2) << "  demand=" << ls.total_demands
     << "  hot=" << ls.hot_algorithm << "/" << ls.hot_nodes
     << "  cold=" << ls.cold_algorithm << "/" << ls.cold_nodes << "\n";

  // Shards sorted hottest-first for the report; CSV mode emits every shard,
  // the pretty table the head of the ranking.
  std::vector<const ShardResult*> ranked;
  ranked.reserve(report.shards.size());
  for (const ShardResult& s : report.shards) ranked.push_back(&s);
  std::stable_sort(ranked.begin(), ranked.end(),
                   [](const ShardResult* a, const ShardResult* b) {
                     return a->demand > b->demand;
                   });
  const std::size_t shown =
      opts.csv ? ranked.size() : std::min<std::size_t>(ranked.size(), 10);
  Table table({"shard", "algo", "class", "clients", "demand", "completed",
               "msgs/cs", "grant p50", "grant p99", "fairness", "safety",
               "drained"});
  for (std::size_t k = 0; k < shown; ++k) {
    const ShardResult& s = *ranked[k];
    table.add_row({Table::integer(s.resource), s.algorithm,
                   s.hot ? "hot" : "cold", Table::integer(s.nodes),
                   Table::integer(s.demand), Table::integer(s.completed),
                   Table::num(s.messages_per_cs, 3),
                   Table::num(s.grant_p50, 3), Table::num(s.grant_p99, 3),
                   Table::num(s.fairness, 4),
                   s.safety_violations == 0 ? "ok" : "VIOLATED",
                   s.drained ? "yes" : "NO"});
  }
  if (opts.csv) {
    table.print_csv(os);
  } else {
    table.print(os);
    if (shown < ranked.size()) {
      os << "(" << ranked.size() - shown
         << " colder shards elided; --csv or --emit-json for all)\n";
    }
  }
  os << "\naggregate: completed " << report.total_completed << "/"
     << report.total_demands << "  hot shards " << report.hot_shards << "/"
     << report.shards.size() << "  msgs/cs "
     << Table::num(report.messages_per_cs, 3) << "  worst p99 "
     << Table::num(report.grant_p99_worst, 3) << "  min fairness "
     << Table::num(report.fairness_min, 4) << "  safety "
     << (report.safety_violations == 0 ? "ok" : "VIOLATED") << "  drained "
     << (report.drained ? "yes" : "NO") << "\n";

  if (!opts.emit_json.empty()) {
    write_run_manifest(manifest, {lock_service_record(first, ls, report)});
  }
  return report.drained && report.safety_violations == 0 ? 0 : 1;
}

}  // namespace

std::string cli_usage() {
  return R"(dmx_sweep — sweep the distributed mutual exclusion simulator

usage: dmx_sweep [flags]
  --algo NAME            algorithm (see --list)        [arbiter-tp]
  --n N                  number of nodes               [10]
  --lambda X[,Y,...]     per-node arrival rate sweep   [0.5]
  --requests K           CS requests per run           [100000]
  --seeds R              replications per point        [3]
  --t-msg X              message delay, time units     [0.1]
  --t-exec X             CS execution time             [0.1]
  --param key=value      algorithm parameter (repeatable), e.g.
                         --param t_req=0.2 --param recovery=1
  --delay KIND           constant | uniform | exponential [constant]
  --jitter X             jitter width / mean for non-constant delays
  --loss TYPE=P          drop probability per message type (repeatable)
  --fault "SPEC"         scripted chaos campaign, e.g.
                         --fault "t=5 crash 3; t=9 restart 3"
  --transport KIND       raw | reliable                [raw]
                         reliable adds per-peer acks, backoff retransmission
                         and exactly-once in-order delivery under loss
  --stall X              liveness stall threshold in sim units
                         (< 0 off; default: auto when --fault is given)
  --jobs J               run the seed×point job list on J worker threads
                         (default 1 = serial, 0 = one per hardware thread);
                         table, manifest and trace output is byte-identical
                         for every J
  --resources K          lock resources                [1]
                         K > 1 switches into the sharded lock-service
                         scenario: --requests becomes aggregate demand,
                         Zipf-split over the resources; --n sizes hot
                         shards; shards fan out over --jobs workers
  --zipf-s S             Zipf popularity skew          [0.9]
  --shard-algo SPEC      per-shard algorithms, e.g.
                         hot=arbiter-tp,cold=path-reversal (key alone ok)
  --trace-out FILE       write a structured event trace of the sweep's
                         first run (first lambda, first seed)
  --trace-format FMT     jsonl | chrome | text         [jsonl]
                         chrome loads in Perfetto / chrome://tracing with
                         per-request latency spans
  --emit-json FILE       write a dmx.run.v1 JSON manifest of every run
                         (config + metrics + span phase histograms)
  --csv                  CSV output
  --list                 list registered algorithms
  --help                 this text
)";
}

CliOptions parse_cli(const std::vector<std::string>& args) {
  CliOptions o;
  auto need_value = [&](std::size_t i, const std::string& flag) {
    if (i + 1 >= args.size()) {
      throw std::invalid_argument("missing value for " + flag);
    }
    return args[i + 1];
  };
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& a = args[i];
    if (a == "--help" || a == "-h") {
      o.help = true;
    } else if (a == "--list") {
      o.list = true;
    } else if (a == "--csv") {
      o.csv = true;
    } else if (a == "--algo") {
      o.cfg.algorithm = need_value(i++, a);
    } else if (a == "--n") {
      o.cfg.n_nodes =
          static_cast<std::size_t>(parse_u64(a, need_value(i++, a)));
      if (o.cfg.n_nodes == 0) throw std::invalid_argument("--n must be > 0");
    } else if (a == "--lambda") {
      o.lambdas = parse_double_list(a, need_value(i++, a));
      for (double l : o.lambdas) {
        if (!(l > 0)) {
          throw std::invalid_argument("--lambda entries must be > 0");
        }
      }
    } else if (a == "--requests") {
      o.cfg.total_requests = parse_u64(a, need_value(i++, a));
    } else if (a == "--seeds") {
      o.seeds = static_cast<std::size_t>(parse_u64(a, need_value(i++, a)));
      if (o.seeds == 0) throw std::invalid_argument("--seeds must be > 0");
    } else if (a == "--t-msg") {
      o.cfg.t_msg = parse_double(a, need_value(i++, a));
    } else if (a == "--t-exec") {
      o.cfg.t_exec = parse_double(a, need_value(i++, a));
    } else if (a == "--param") {
      parse_param(a, need_value(i++, a), o.cfg.params);
    } else if (a == "--delay") {
      const std::string v = need_value(i++, a);
      if (v == "constant") {
        o.cfg.delay_kind = DelayKind::kConstant;
      } else if (v == "uniform") {
        o.cfg.delay_kind = DelayKind::kUniform;
      } else if (v == "exponential") {
        o.cfg.delay_kind = DelayKind::kExponential;
      } else {
        throw std::invalid_argument("unknown --delay kind: " + v);
      }
    } else if (a == "--jitter") {
      o.cfg.delay_jitter = parse_double(a, need_value(i++, a));
    } else if (a == "--loss") {
      const auto [k, v] = split_kv(a, need_value(i++, a));
      o.cfg.loss_by_type[k] = parse_double(a, v);
    } else if (a == "--fault") {
      o.cfg.fault_plan = need_value(i++, a);
    } else if (a == "--transport") {
      const std::string v = need_value(i++, a);
      if (v == "raw") {
        o.cfg.transport = TransportKind::kRaw;
      } else if (v == "reliable") {
        o.cfg.transport = TransportKind::kReliable;
      } else {
        throw std::invalid_argument("unknown --transport kind: " + v);
      }
    } else if (a == "--stall") {
      o.cfg.stall_threshold = parse_double(a, need_value(i++, a));
    } else if (a == "--jobs") {
      o.cfg.jobs = static_cast<std::size_t>(parse_u64(a, need_value(i++, a)));
    } else if (a == "--resources") {
      o.service.n_resources =
          static_cast<std::size_t>(parse_u64(a, need_value(i++, a)));
      if (o.service.n_resources == 0) {
        throw std::invalid_argument("--resources must be > 0");
      }
    } else if (a == "--zipf-s") {
      o.service.zipf_s = parse_double(a, need_value(i++, a));
      if (!(o.service.zipf_s >= 0.0)) {
        throw std::invalid_argument("--zipf-s must be >= 0");
      }
    } else if (a == "--shard-algo") {
      // hot=NAME,cold=NAME — either key alone is fine, unknown keys are not.
      const std::string spec = need_value(i++, a);
      std::size_t start = 0;
      while (start <= spec.size()) {
        const std::size_t comma = spec.find(',', start);
        const std::string item = spec.substr(
            start,
            comma == std::string::npos ? std::string::npos : comma - start);
        if (!item.empty()) {
          const auto [k, v] = split_kv(a, item);
          if (k == "hot") {
            o.service.hot_algorithm = v;
          } else if (k == "cold") {
            o.service.cold_algorithm = v;
          } else {
            throw std::invalid_argument(
                "--shard-algo keys are hot/cold, got '" + k + "'");
          }
        }
        if (comma == std::string::npos) break;
        start = comma + 1;
      }
    } else if (a == "--trace-out") {
      o.trace_out = need_value(i++, a);
    } else if (a == "--trace-format") {
      o.trace_format = obs::parse_trace_format(a, need_value(i++, a));
    } else if (a == "--emit-json") {
      o.emit_json = need_value(i++, a);
    } else {
      throw std::invalid_argument("unknown flag: " + a);
    }
  }
  return o;
}

int run_cli(const CliOptions& opts, std::ostream& os) {
  register_builtin_algorithms();
  if (opts.help) {
    os << cli_usage();
    return 0;
  }
  if (opts.list) {
    for (const auto& name : mutex::Registry::instance().names()) {
      os << name << "\n";
    }
    return 0;
  }
  // File streams must outlive the sinks writing to them: the Chrome-trace
  // sink closes its JSON envelope in its destructor, so both streams are
  // declared before anything that may hold a sink, and destroyed last.
  std::ofstream trace_file;
  std::ofstream manifest;
  // Surface every configuration problem (a flag the chosen mode never
  // reads, unknown algorithm, malformed fault plan, bad loss spec, ...)
  // before opening the output files: opening one truncates it, and a
  // rejected configuration must leave earlier output intact.  The lambda
  // points differ only in lambda, which parse_cli has already checked.
  ExperimentConfig first = opts.cfg;
  first.lambda = opts.lambdas.front();
  const bool lock_service = opts.service.n_resources > 1;
  LockServiceConfig service;
  if (lock_service) service = service_run(opts.service, first);
  std::vector<std::string> errors = unread_flags(opts);
  for (std::string& e : lock_service ? service.validate() : first.validate()) {
    errors.push_back(std::move(e));
  }
  if (!errors.empty()) {
    os << "invalid configuration:\n";
    for (const std::string& e : errors) os << "  - " << e << "\n";
    return 2;
  }
  // Both output files are opened before any run, so a bad path fails at
  // once instead of after the sweep.
  std::shared_ptr<obs::Sink> trace_sink;
  if (!opts.trace_out.empty()) {
    trace_file.open(opts.trace_out);
    if (!trace_file) {
      os << "cannot open --trace-out file '" << opts.trace_out << "'\n";
      return 2;
    }
    trace_sink = obs::make_format_sink(opts.trace_format, trace_file);
  }
  if (!opts.emit_json.empty()) {
    manifest.open(opts.emit_json);
    if (!manifest) {
      os << "cannot open --emit-json file '" << opts.emit_json << "'\n";
      return 2;
    }
  }

  if (lock_service) {
    // Sharded lock-service scenario: one Zipf-split run, not a lambda
    // sweep.  The trace sink (if any) captures the hottest shard.
    service.trace_sink = std::move(trace_sink);
    return run_lock_service_cli(opts, first, service, os, manifest);
  }

  const bool chaos = !opts.cfg.fault_plan.empty();
  const bool reliable = opts.cfg.transport == TransportKind::kReliable;
  std::vector<std::string> cols = {"lambda",   "msgs/cs", "response",
                                   "service",  "sojourn", "fwd_frac",
                                   "drained",  "safety"};
  if (chaos) {
    cols.insert(cols.end(),
                {"faults", "recovered", "ttr_mean", "ttr_max", "unavail",
                 "aborted", "stall"});
  }
  if (reliable) {
    cols.insert(cols.end(), {"retrans", "dup_dropped", "acks"});
  }
  Table table(cols);
  bool sound = true;
  bool first_run = true;
  std::vector<std::string> stall_reports;
  std::vector<RunRecord> records;
  // Flatten the sweep into the indexed seed×point job list.  The first job
  // (first lambda, first seed) carries the trace sink; seeds follow the one
  // seed_schedule shared with run_replicated.
  std::vector<ExperimentConfig> jobs;
  jobs.reserve(opts.lambdas.size() * opts.seeds);
  for (double lambda : opts.lambdas) {
    ExperimentConfig point = opts.cfg;
    point.lambda = lambda;
    for (std::size_t s = 0; s < opts.seeds; ++s) {
      ExperimentConfig run_cfg = point;
      run_cfg.seed = seed_schedule(point, s);
      run_cfg.collect_spans =
          !opts.emit_json.empty() || (first_run && trace_sink != nullptr);
      if (first_run && trace_sink) run_cfg.trace_sink = trace_sink;
      first_run = false;
      jobs.push_back(std::move(run_cfg));
    }
  }
  // Each job is a fully independent simulation; the runner returns results
  // in job-index order, so everything below — table rows, stall reports,
  // manifest records, the exit code — is byte-identical for any --jobs.
  const std::vector<ExperimentResult> results =
      ParallelRunner(opts.cfg.jobs).run(jobs);
  if (!opts.emit_json.empty()) {
    records.reserve(jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      records.push_back(RunRecord{jobs[i], results[i]});
    }
  }
  std::size_t next_job = 0;
  for (double lambda : opts.lambdas) {
    const auto runs_begin = results.begin() +
                            static_cast<std::ptrdiff_t>(next_job);
    const std::vector<ExperimentResult> runs(
        runs_begin, runs_begin + static_cast<std::ptrdiff_t>(opts.seeds));
    next_job += opts.seeds;
    stats::Welford msgs, resp, svc, soj, fwd, ttr, unavail;
    bool drained = true;
    bool stalled = false;
    bool event_limited = false;
    std::uint64_t violations = 0;
    std::uint64_t faults = 0, recovered = 0, aborted = 0;
    std::uint64_t retrans = 0, dup_dropped = 0, acks = 0;
    double ttr_max = 0.0;
    for (const auto& r : runs) {
      msgs.add(r.messages_per_cs);
      resp.add(r.response_time.mean());
      svc.add(r.service_time.mean());
      soj.add(r.sojourn_time.mean());
      fwd.add(r.forwarded_fraction_of_requests);
      drained = drained && r.drained;
      violations += r.safety_violations;
      faults += r.faults_injected;
      recovered += r.faults_recovered;
      aborted += r.aborted_by_crash;
      retrans += r.transport.retransmits;
      dup_dropped += r.transport.dup_dropped;
      acks += r.transport.acks_sent;
      if (r.time_to_recovery.count() > 0) {
        ttr.add(r.time_to_recovery.mean());
        ttr_max = std::max(ttr_max, r.time_to_recovery.max());
      }
      unavail.add(r.unavailability);
      if (r.stalled) {
        stalled = true;
        std::string report = "lambda=" + Table::num(lambda, 3) +
                             " STALLED at t=" + Table::num(r.stall_time, 3);
        for (const auto& line : r.fault_log) {
          report += "\n  fault: " + line;
        }
        report += "\n" + r.stall_diagnosis;
        stall_reports.push_back(std::move(report));
      }
      if (r.hit_event_limit) {
        event_limited = true;
        stall_reports.push_back("lambda=" + Table::num(lambda, 3) +
                                " EVENT LIMIT\n" + r.event_limit_diagnosis);
      }
    }
    sound =
        sound && drained && violations == 0 && !stalled && !event_limited;
    std::vector<std::string> row = {Table::num(lambda, 3),
                                    stats::mean_ci_95(msgs).to_string(3),
                                    Table::num(resp.mean(), 4),
                                    Table::num(svc.mean(), 4),
                                    Table::num(soj.mean(), 4),
                                    Table::num(fwd.mean(), 4),
                                    drained ? "yes" : "NO",
                                    violations == 0 ? "ok" : "VIOLATED"};
    if (chaos) {
      row.insert(row.end(),
                 {std::to_string(faults), std::to_string(recovered),
                  Table::num(ttr.mean(), 3), Table::num(ttr_max, 3),
                  Table::num(unavail.mean(), 3), std::to_string(aborted),
                  stalled ? "STALL" : "no"});
    }
    if (reliable) {
      row.insert(row.end(), {std::to_string(retrans),
                             std::to_string(dup_dropped),
                             std::to_string(acks)});
    }
    table.add_row(std::move(row));
  }
  os << "algorithm: " << opts.cfg.algorithm << "  N=" << opts.cfg.n_nodes
     << "  requests/run=" << opts.cfg.total_requests
     << "  seeds=" << opts.seeds << "\n";
  if (chaos) {
    os << "fault plan: " << opts.cfg.fault_plan << "\n";
  }
  if (reliable) {
    os << "transport: reliable\n";
  }
  if (opts.csv) {
    table.print_csv(os);
  } else {
    table.print(os);
  }
  for (const auto& report : stall_reports) {
    os << "\n" << report << "\n";
  }
  if (!opts.emit_json.empty()) write_run_manifest(manifest, records);
  return sound ? 0 : 1;
}

}  // namespace dmx::harness
