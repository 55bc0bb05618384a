#include "harness/experiment.hpp"

#include <memory>
#include <optional>
#include <stdexcept>

#include "fault/campaign.hpp"
#include "fault/fault_plan.hpp"
#include "harness/parallel.hpp"
#include "mutex/mutex_cluster.hpp"
#include "mutex/progress_monitor.hpp"
#include "mutex/registry.hpp"
#include "net/delay_model.hpp"
#include "net/msg_kind.hpp"
#include "obs/tracer.hpp"
#include "stats/recovery_metrics.hpp"
#include "workload/arrivals.hpp"
#include "workload/generator.hpp"

namespace dmx::harness {

namespace {

std::unique_ptr<net::DelayModel> make_delay(const ExperimentConfig& cfg) {
  const sim::SimTime base = sim::SimTime::units(cfg.t_msg);
  switch (cfg.delay_kind) {
    case DelayKind::kConstant:
      return std::make_unique<net::ConstantDelay>(base);
    case DelayKind::kUniform:
      return std::make_unique<net::UniformDelay>(
          base, sim::SimTime::units(cfg.delay_jitter));
    case DelayKind::kExponential:
      return std::make_unique<net::ExponentialDelay>(
          base, sim::SimTime::units(cfg.delay_jitter));
  }
  throw std::logic_error("unknown delay kind");
}

double auto_sim_bound(const ExperimentConfig& cfg) {
  // Generous liveness backstop: the time to generate all requests at rate
  // N*lambda plus the time to serve them all back-to-back, times ten.
  const double gen_time = static_cast<double>(cfg.total_requests) /
                          (cfg.lambda * static_cast<double>(cfg.n_nodes));
  const double serve_time = static_cast<double>(cfg.total_requests) *
                            (cfg.t_exec + 2.0 * cfg.t_msg + 0.5);
  return 10.0 * (gen_time + serve_time) + 1000.0;
}

void check_positive(std::vector<std::string>& errors, const char* what,
                    double v) {
  if (!(v > 0.0)) {
    errors.push_back(std::string(what) + " must be positive, got " +
                     std::to_string(v));
  }
}

std::uint64_t auto_event_bound(const ExperimentConfig& cfg) {
  // The sim-time wall cannot catch a schedule that spins without advancing
  // the clock (a zero-delay retry loop, say); a wall on executed events
  // can.  Generous: a healthy run costs O(N) messages per CS (the broadcast
  // baselines) plus timer/arrival chatter; give 100x headroom over that and
  // a large absolute floor for tiny runs.  Computed in double to saturate
  // instead of overflowing for astronomic request counts.
  const double bound = 100.0 * static_cast<double>(cfg.total_requests) *
                           (static_cast<double>(cfg.n_nodes) + 16.0) +
                       10'000'000.0;
  if (bound >= 9e18) return UINT64_MAX;
  return static_cast<std::uint64_t>(bound);
}

double auto_stall_threshold(const ExperimentConfig& cfg) {
  // Must comfortably exceed the longest legitimate service pause: a node's
  // worst-case queueing plus one complete recovery episode (token timeout,
  // an enquiry round per node, the previous-arbiter watchdog and probe),
  // with 3x margin.  Still orders of magnitude below auto_sim_bound, which
  // is the point: a stalled run fails fast with a diagnosis.
  const double recovery = cfg.params.get_num("token_timeout", 3.0) +
                          cfg.params.get_num("enquiry_timeout", 1.0) *
                              static_cast<double>(cfg.n_nodes) +
                          cfg.params.get_num("arbiter_timeout", 6.0) +
                          cfg.params.get_num("probe_timeout", 1.0);
  const double service = static_cast<double>(cfg.n_nodes) *
                         (cfg.t_exec + 2.0 * cfg.t_msg);
  return 3.0 * (recovery + service) + 10.0;
}

}  // namespace

std::vector<std::string> ExperimentConfig::validate() const {
  register_builtin_algorithms();
  std::vector<std::string> errors;
  if (!mutex::Registry::instance().contains(algorithm)) {
    std::string known;
    for (const std::string& n : mutex::Registry::instance().names()) {
      if (!known.empty()) known += ", ";
      known += n;
    }
    errors.push_back("unknown algorithm \"" + algorithm + "\" (known: " +
                     known + ")");
  } else if (n_nodes > 0) {
    std::string e = mutex::build_error(algorithm, n_nodes, params);
    if (!e.empty()) errors.push_back(std::move(e));
  }
  if (n_nodes == 0) errors.emplace_back("n_nodes must be at least 1");
  check_positive(errors, "lambda", lambda);
  check_positive(errors, "t_msg", t_msg);
  check_positive(errors, "t_exec", t_exec);
  if (total_requests == 0) {
    errors.emplace_back("total_requests must be at least 1");
  }
  if (!(max_sim_units >= 0.0)) {
    errors.push_back("max_sim_units must be >= 0 (0 = auto), got " +
                     std::to_string(max_sim_units));
  }
  if (!(delay_jitter >= 0.0)) {
    errors.push_back("delay_jitter must be >= 0, got " +
                     std::to_string(delay_jitter));
  }
  if (delay_kind != DelayKind::kConstant && !(delay_jitter > 0.0)) {
    errors.emplace_back(
        "non-constant delay model needs a positive delay_jitter");
  }
  for (const auto& [type, p] : loss_by_type) {
    // Every shipped message type registers its kind during static
    // initialization, so an unknown name here is a configuration typo (e.g.
    // --loss PRIVILEDGE=0.1) that would otherwise silently never match.
    if (!net::MsgKindRegistry::instance().find(type).valid()) {
      errors.push_back("loss_by_type names unregistered message type \"" +
                       type + "\"");
    }
    if (!(p >= 0.0 && p <= 1.0)) {
      errors.push_back("loss probability for \"" + type +
                       "\" must be in [0, 1], got " + std::to_string(p));
    }
  }
  if (!fault_plan.empty()) {
    try {
      for (std::string& e :
           fault::FaultPlan::parse(fault_plan).validate(n_nodes)) {
        errors.push_back(std::move(e));
      }
    } catch (const std::exception& e) {
      errors.emplace_back(e.what());  // already says "fault plan: "
    }
  }
  return errors;
}

stats::CounterMap ExperimentResult::messages_by_type() const {
  return net::counts_by_name(messages_by_kind);
}

ExperimentResult run_experiment(const ExperimentConfig& cfg) {
  register_builtin_algorithms();
  if (const std::vector<std::string> errors = cfg.validate();
      !errors.empty()) {
    std::string joined = "run_experiment: invalid config:";
    for (const std::string& e : errors) joined += "\n  - " + e;
    throw std::invalid_argument(joined);
  }

  // Sink chain: [SpanCollector ->] cfg.trace_sink.  The collector forwards
  // events downstream, so one tracer serves both consumers.
  std::shared_ptr<obs::SpanCollector> span_collector;
  std::shared_ptr<obs::Sink> sink = cfg.trace_sink;
  if (cfg.collect_spans) {
    span_collector = std::make_shared<obs::SpanCollector>(
        sink, 50.0 * (cfg.t_msg + cfg.t_exec) *
                  static_cast<double>(cfg.n_nodes));
    sink = span_collector;
  }
  const obs::Tracer tracer =
      sink ? obs::Tracer(sink) : obs::Tracer();

  std::optional<net::ReliableTransportConfig> reliable;
  if (cfg.transport == TransportKind::kReliable) {
    reliable = net::ReliableTransportConfig::scaled_to(
        sim::SimTime::units(cfg.t_msg));
  }
  mutex::MutexCluster mc(cfg.algorithm, cfg.n_nodes, cfg.params,
                         sim::SimTime::units(cfg.t_exec), make_delay(cfg),
                         cfg.seed ^ 0x5eedULL, tracer, reliable);
  sim::Simulator& sim = mc.simulator();
  // Starting the cluster sent nothing, so loss applies from the first send.
  for (const auto& [type, p] : cfg.loss_by_type) {
    mc.network().faults().set_loss_probability(type, p);
  }

  // Service-time distribution for percentile reporting.  The range covers
  // saturation-level waits (~N * (t_msg + t_exec)) with margin; overflow is
  // clamped to the top edge by Histogram::quantile.
  stats::Histogram service_hist(
      0.0, 50.0 * (cfg.t_msg + cfg.t_exec) * static_cast<double>(cfg.n_nodes),
      4'096);
  stats::RecoveryMetrics recovery;
  for (std::size_t i = 0; i < cfg.n_nodes; ++i) {
    mc.driver(i).set_completion_callback(
        [&service_hist, &sim, &recovery](const mutex::CsRequest& req) {
          const double now = sim.now().to_units();
          service_hist.add(now - req.issued_at.to_units());
          recovery.on_progress(now, req.node.value());
        });
  }

  // Scripted chaos campaign: parse + validate up front, execute on the
  // virtual clock, and measure each disruptive action's recovery window.
  std::optional<fault::CampaignRunner> campaign;
  if (!cfg.fault_plan.empty()) {
    campaign.emplace(mc.cluster(), fault::FaultPlan::parse(cfg.fault_plan));
    campaign->set_observer(
        [&recovery](sim::SimTime t, const fault::FaultAction& a) {
          if (a.disruptive()) recovery.on_fault(t.to_units(), a.describe());
          if (a.kind == fault::FaultAction::Kind::kPartition) {
            recovery.on_partition(t.to_units(), a.groups);
          }
        });
  }

  // Liveness watchdog: on when requested or whenever a campaign runs.
  std::optional<mutex::ProgressMonitor> progress;
  if (cfg.stall_threshold > 0.0 ||
      (cfg.stall_threshold == 0.0 && campaign.has_value())) {
    mutex::ProgressMonitor::Config pm;
    pm.stall_threshold = sim::SimTime::units(cfg.stall_threshold > 0.0
                                                 ? cfg.stall_threshold
                                                 : auto_stall_threshold(cfg));
    progress.emplace(sim, pm);
    for (std::size_t i = 0; i < cfg.n_nodes; ++i) {
      progress->watch(&mc.driver(i), &mc.algorithm(i));
    }
  }

  std::vector<std::unique_ptr<workload::ArrivalProcess>> arrivals;
  for (std::size_t i = 0; i < cfg.n_nodes; ++i) {
    arrivals.push_back(std::make_unique<workload::PoissonArrivals>(cfg.lambda));
  }
  workload::OpenLoopGenerator gen(sim, mc.drivers(), std::move(arrivals),
                                  cfg.total_requests, cfg.seed);

  gen.start();
  if (campaign) campaign->start();
  if (progress) progress->start();
  const double bound =
      cfg.max_sim_units > 0.0 ? cfg.max_sim_units : auto_sim_bound(cfg);
  sim.set_event_limit(auto_event_bound(cfg));
  sim.run_until(sim::SimTime::units(bound));
  if (progress) progress->stop();
  recovery.end_run(sim.now().to_units());

  ExperimentResult r;
  r.algorithm = cfg.algorithm;
  r.lambda = cfg.lambda;
  r.submitted = gen.submitted();
  // Live demand excludes requests that died with a crashed node: demand
  // aborted mid-flight plus demand that arrived while the node was down
  // (the generator counts it; the driver of a dead node swallows it).
  std::uint64_t live_demand = 0;
  for (const mutex::CsDriver* d : mc.drivers()) {
    r.completed += d->completed();
    r.aborted_by_crash += d->aborted_by_crash();
    live_demand += d->submitted() - d->aborted_by_crash();
    r.response_time.merge(d->response_time());
    r.service_time.merge(d->service_time());
    r.sojourn_time.merge(d->sojourn_time());
    r.completions_per_node.push_back(d->completed());
  }
  r.drained = (r.completed == live_demand) && r.submitted > 0;

  if (campaign) {
    r.faults_injected = recovery.faults();
    r.faults_recovered = recovery.recovered();
    r.time_to_recovery = recovery.ttr();
    r.unavailability = recovery.unavailability();
    r.unfired_targeted_drops = campaign->unfired_targeted_drops();
    r.fault_log = campaign->log();
    for (const auto& g : recovery.partitions()) {
      r.partition_groups_blocked += g.recovered ? 0 : 1;
      r.group_blocked_total += g.blocked;
    }
    r.group_blocked_max = recovery.max_group_blocked();
  }
  if (progress) {
    r.stalled = progress->stalled();
    r.stall_time = progress->stall_time().to_units();
    r.stall_diagnosis = progress->diagnosis();
  }
  if (sim.event_limit_hit()) {
    r.hit_event_limit = true;
    r.event_limit_diagnosis =
        "event limit of " + std::to_string(sim.event_limit()) +
        " events hit at t=" + sim.now().to_string() + " with " +
        std::to_string(sim.pending_count()) +
        " events still pending (runaway schedule?)\n";
    for (std::size_t i = 0; i < cfg.n_nodes; ++i) {
      const mutex::MutexAlgorithm& algo = mc.algorithm(i);
      r.event_limit_diagnosis +=
          "  node " + std::to_string(i) + ": " +
          (algo.crashed() ? std::string("CRASHED") : algo.debug_state()) +
          "\n";
    }
  }

  const auto& net_stats = mc.network().stats();
  r.messages_total = net_stats.sent;
  r.messages_by_kind = net_stats.sent_by_kind;
  r.messages_per_cs =
      r.completed > 0 ? static_cast<double>(net_stats.sent) /
                            static_cast<double>(r.completed)
                      : 0.0;
  r.bytes_total = net_stats.bytes_sent;
  r.bytes_per_cs =
      r.completed > 0 ? static_cast<double>(net_stats.bytes_sent) /
                            static_cast<double>(r.completed)
                      : 0.0;
  r.service_p50 = service_hist.quantile(0.50);
  r.service_p95 = service_hist.quantile(0.95);
  r.service_p99 = service_hist.quantile(0.99);

  for (std::size_t i = 0; i < cfg.n_nodes; ++i) {
    if (auto* arb = dynamic_cast<core::ArbiterMutex*>(&mc.algorithm(i))) {
      r.protocol.merge(arb->protocol_stats());
      r.arbiter_terms_per_node.push_back(arb->times_arbiter());
    }
  }
  const std::uint64_t request_msgs =
      r.messages_by_kind.get(core::RequestMsg::message_kind().index());
  if (request_msgs > 0) {
    r.forwarded_fraction_of_requests =
        static_cast<double>(r.protocol.requests_forwarded) /
        static_cast<double>(request_msgs);
  }
  if (net_stats.sent > 0) {
    r.forwarded_fraction_of_all =
        static_cast<double>(r.protocol.requests_forwarded) /
        static_cast<double>(net_stats.sent);
  }

  if (span_collector) {
    r.spans = std::make_shared<obs::SpanReport>(span_collector->report());
  }
  if (sink) sink->flush();

  r.transport = mc.cluster().transport_stats();
  r.safety_violations = mc.monitor().violations();
  r.max_occupancy = mc.monitor().max_occupancy();
  r.sim_duration_units = sim.now().to_units();
  r.sim_events = sim.events_executed();
  return r;
}

std::vector<ExperimentResult> run_replicated(ExperimentConfig cfg,
                                             std::size_t replications) {
  const ExperimentConfig base = cfg;
  std::vector<ExperimentConfig> configs;
  configs.reserve(replications);
  for (std::size_t i = 0; i < replications; ++i) {
    cfg.seed = seed_schedule(base, i);
    configs.push_back(cfg);
  }
  return ParallelRunner(base.jobs).run(configs);
}

}  // namespace dmx::harness
