#include "core/params.hpp"

#include <stdexcept>

namespace dmx::core {

ArbiterParams ArbiterParams::from_params(const mutex::ParamSet& p) {
  ArbiterParams a;
  a.t_req = p.get_time("t_req", a.t_req);
  a.t_fwd = p.get_time("t_fwd", a.t_fwd);
  a.initial_arbiter =
      net::NodeId{static_cast<std::int32_t>(p.get_count("initial_arbiter", 0))};
  const std::string order = p.get_str("order", "fcfs");
  if (order == "fcfs") {
    a.order = BatchOrder::kFcfs;
  } else if (order == "sequence") {
    a.order = BatchOrder::kSequence;
  } else if (order == "priority") {
    a.order = BatchOrder::kPriority;
  } else {
    throw std::invalid_argument(
        "param order must be fcfs, sequence or priority, got '" + order + "'");
  }
  a.sequenced = p.get_bool("sequenced", a.sequenced);
  a.suppress_self_broadcast =
      p.get_bool("suppress_self_broadcast", a.suppress_self_broadcast);
  a.resubmit_after_misses =
      p.get_count("resubmit_after_misses", a.resubmit_after_misses);
  a.request_retry_timeout =
      p.get_time("request_retry_timeout", a.request_retry_timeout);
  a.monitor = net::NodeId{static_cast<std::int32_t>(
      p.get_count("monitor", static_cast<std::uint32_t>(a.monitor.value())))};
  a.tau = p.get_count("tau", a.tau);
  a.rotate_monitor = p.get_bool("rotate_monitor", a.rotate_monitor);
  a.monitor_patience = p.get_time("monitor_patience", a.monitor_patience);
  a.recovery = p.get_bool("recovery", a.recovery);
  a.token_timeout = p.get_time("token_timeout", a.token_timeout);
  a.enquiry_timeout = p.get_time("enquiry_timeout", a.enquiry_timeout);
  a.arbiter_timeout = p.get_time("arbiter_timeout", a.arbiter_timeout);
  a.probe_timeout = p.get_time("probe_timeout", a.probe_timeout);
  a.recovery_quorum = p.get_bool("recovery_quorum", a.recovery_quorum);
  return a;
}

}  // namespace dmx::core
