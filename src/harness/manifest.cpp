#include "harness/manifest.hpp"

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string_view>
#include <utility>

#include "obs/json.hpp"

namespace dmx::harness {

namespace {

std::string_view delay_name(DelayKind k) {
  switch (k) {
    case DelayKind::kConstant:
      return "constant";
    case DelayKind::kUniform:
      return "uniform";
    case DelayKind::kExponential:
      return "exponential";
  }
  return "?";
}

std::string_view transport_name(TransportKind k) {
  return k == TransportKind::kReliable ? "reliable" : "raw";
}

void write_config(obs::JsonWriter& w, const RunRecord& run) {
  const ExperimentConfig& cfg = run.config;
  const std::optional<LockServiceConfig>& ls = run.lock_service;
  w.begin_object();
  w.key("algorithm");
  w.string(cfg.algorithm);
  w.key("n_nodes");
  w.number(static_cast<std::uint64_t>(cfg.n_nodes));
  w.key("lambda");
  w.number(cfg.lambda);
  w.key("t_msg");
  w.number(cfg.t_msg);
  w.key("t_exec");
  w.number(cfg.t_exec);
  w.key("total_requests");
  w.number(cfg.total_requests);
  w.key("seed");
  w.number(cfg.seed);
  w.key("transport");
  w.string(transport_name(cfg.transport));
  w.key("n_resources");
  w.number(static_cast<std::uint64_t>(ls ? ls->n_resources : 1));
  w.key("zipf_s");
  w.number(ls ? ls->zipf_s : 0.0);
  w.key("shard_algo_hot");
  w.string(ls ? ls->hot_algorithm : "arbiter-tp");
  w.key("shard_algo_cold");
  w.string(ls ? ls->cold_algorithm : "path-reversal");
  w.key("delay");
  w.string(delay_name(cfg.delay_kind));
  w.key("delay_jitter");
  w.number(cfg.delay_jitter);
  w.key("fault_plan");
  w.string(cfg.fault_plan);
  w.key("stall_threshold");
  w.number(cfg.stall_threshold);
  w.key("params");
  w.begin_object();
  for (const auto& [k, v] : cfg.params.nums()) {
    w.key(k);
    w.number(v);
  }
  for (const auto& [k, v] : cfg.params.strs()) {
    w.key(k);
    w.string(v);
  }
  w.end_object();
  w.key("loss_by_type");
  w.begin_object();
  for (const auto& [k, v] : cfg.loss_by_type) {
    w.key(k);
    w.number(v);
  }
  w.end_object();
  w.end_object();
}

void write_welford(obs::JsonWriter& w, const stats::Welford& s) {
  w.begin_object();
  w.key("count");
  w.number(s.count());
  w.key("mean");
  w.number(s.mean());
  w.key("stddev");
  w.number(s.stddev());
  w.key("min");
  w.number(s.count() > 0 ? s.min() : 0.0);
  w.key("max");
  w.number(s.count() > 0 ? s.max() : 0.0);
  w.end_object();
}

void write_phase(obs::JsonWriter& w, const obs::PhaseStats& p) {
  w.begin_object();
  w.key("count");
  w.number(p.moments.count());
  w.key("mean");
  w.number(p.moments.mean());
  w.key("p50");
  w.number(p.hist.quantile(0.50));
  w.key("p95");
  w.number(p.hist.quantile(0.95));
  w.key("p99");
  w.number(p.hist.quantile(0.99));
  w.key("max");
  w.number(p.moments.count() > 0 ? p.moments.max() : 0.0);
  w.end_object();
}

void write_result(obs::JsonWriter& w, const ExperimentResult& r) {
  w.begin_object();
  w.key("submitted");
  w.number(r.submitted);
  w.key("completed");
  w.number(r.completed);
  w.key("messages_total");
  w.number(r.messages_total);
  w.key("bytes_total");
  w.number(r.bytes_total);
  w.key("messages_per_cs");
  w.number(r.messages_per_cs);
  w.key("bytes_per_cs");
  w.number(r.bytes_per_cs);
  w.key("messages_by_type");
  w.begin_object();
  const stats::CounterMap by_type = r.messages_by_type();
  for (const auto& [type, count] : by_type.entries()) {
    w.key(type);
    w.number(count);
  }
  w.end_object();
  w.key("forwarded_fraction_of_requests");
  w.number(r.forwarded_fraction_of_requests);
  w.key("response_time");
  write_welford(w, r.response_time);
  w.key("service_time");
  write_welford(w, r.service_time);
  w.key("sojourn_time");
  write_welford(w, r.sojourn_time);
  w.key("service_p50");
  w.number(r.service_p50);
  w.key("service_p95");
  w.number(r.service_p95);
  w.key("service_p99");
  w.number(r.service_p99);
  w.key("safety_violations");
  w.number(r.safety_violations);
  w.key("max_occupancy");
  w.number(static_cast<std::int64_t>(r.max_occupancy));
  w.key("drained");
  w.boolean(r.drained);
  w.key("stalled");
  w.boolean(r.stalled);
  w.key("hit_event_limit");
  w.boolean(r.hit_event_limit);
  w.key("aborted_by_crash");
  w.number(r.aborted_by_crash);
  w.key("faults_injected");
  w.number(r.faults_injected);
  w.key("faults_recovered");
  w.number(r.faults_recovered);
  w.key("unavailability");
  w.number(r.unavailability);
  w.key("time_to_recovery");
  write_welford(w, r.time_to_recovery);
  w.key("transport");
  w.begin_object();
  w.key("data_sent");
  w.number(r.transport.data_sent);
  w.key("retransmits");
  w.number(r.transport.retransmits);
  w.key("acks_sent");
  w.number(r.transport.acks_sent);
  w.key("dup_dropped");
  w.number(r.transport.dup_dropped);
  w.key("reorder_buffered");
  w.number(r.transport.reorder_buffered);
  w.key("stale_dropped");
  w.number(r.transport.stale_dropped);
  w.key("abandoned");
  w.number(r.transport.abandoned);
  w.end_object();
  w.key("sim_duration_units");
  w.number(r.sim_duration_units);
  w.key("sim_events");
  w.number(r.sim_events);
  if (r.spans) {
    w.key("spans");
    w.begin_object();
    w.key("completed");
    w.number(r.spans->completed);
    w.key("aborted");
    w.number(r.spans->aborted);
    w.key("open");
    w.number(r.spans->open);
    w.key("phases");
    w.begin_object();
    w.key("queue");
    write_phase(w, r.spans->queue);
    w.key("transit");
    write_phase(w, r.spans->transit);
    w.key("token_wait");
    write_phase(w, r.spans->token_wait);
    w.key("acquire");
    write_phase(w, r.spans->acquire);
    w.key("grant_wait");
    write_phase(w, r.spans->grant_wait);
    w.key("cs");
    write_phase(w, r.spans->cs);
    w.end_object();
    w.end_object();
  }
  if (r.lock_service) {
    const LockServiceReport& ls = *r.lock_service;
    w.key("lock_service");
    w.begin_object();
    w.key("total_demands");
    w.number(ls.total_demands);
    w.key("total_completed");
    w.number(ls.total_completed);
    w.key("total_messages");
    w.number(ls.total_messages);
    w.key("messages_per_cs");
    w.number(ls.messages_per_cs);
    w.key("safety_violations");
    w.number(ls.safety_violations);
    w.key("hot_shards");
    w.number(static_cast<std::uint64_t>(ls.hot_shards));
    w.key("grant_p99_worst");
    w.number(ls.grant_p99_worst);
    w.key("fairness_min");
    w.number(ls.fairness_min);
    w.key("drained");
    w.boolean(ls.drained);
    w.key("shards");
    w.begin_array();
    for (const ShardResult& s : ls.shards) {
      w.begin_object();
      w.key("resource");
      w.number(static_cast<std::uint64_t>(s.resource));
      w.key("algorithm");
      w.string(s.algorithm);
      w.key("hot");
      w.boolean(s.hot);
      w.key("nodes");
      w.number(static_cast<std::uint64_t>(s.nodes));
      w.key("demand");
      w.number(s.demand);
      w.key("completed");
      w.number(s.completed);
      w.key("messages");
      w.number(s.messages);
      w.key("messages_per_cs");
      w.number(s.messages_per_cs);
      w.key("grant_mean");
      w.number(s.grant_mean);
      w.key("grant_p50");
      w.number(s.grant_p50);
      w.key("grant_p99");
      w.number(s.grant_p99);
      w.key("fairness");
      w.number(s.fairness);
      w.key("safety_violations");
      w.number(s.safety_violations);
      w.key("drained");
      w.boolean(s.drained);
      w.key("sim_duration_units");
      w.number(s.sim_duration_units);
      w.end_object();
    }
    w.end_array();
    w.end_object();
  }
  w.end_object();
}

}  // namespace

RunRecord lock_service_record(ExperimentConfig cfg,
                              const LockServiceConfig& ls,
                              const LockServiceReport& report) {
  cfg.algorithm = ls.hot_algorithm;
  ExperimentResult result;
  result.algorithm = "lock-service";
  result.lambda = cfg.lambda;
  result.submitted = report.total_demands;
  result.completed = report.total_completed;
  result.messages_total = report.total_messages;
  result.messages_per_cs = report.messages_per_cs;
  result.safety_violations = report.safety_violations;
  result.drained = report.drained;
  for (const ShardResult& s : report.shards) {
    result.sim_duration_units =
        std::max(result.sim_duration_units, s.sim_duration_units);
  }
  result.lock_service = std::make_shared<const LockServiceReport>(report);
  return RunRecord{std::move(cfg), std::move(result), ls};
}

void write_run_manifest(std::ostream& os, const std::vector<RunRecord>& runs) {
  obs::JsonWriter w;
  w.begin_object();
  w.key("schema");
  w.string("dmx.run.v1");
  w.key("runs");
  w.begin_array();
  for (const RunRecord& run : runs) {
    w.begin_object();
    w.key("config");
    write_config(w, run);
    w.key("result");
    write_result(w, run.result);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  os << w.str() << "\n";
}

}  // namespace dmx::harness
