#include "verify/config.hpp"

#include <stdexcept>

#include "fault/fault_plan.hpp"
#include "harness/experiment.hpp"
#include "mutex/registry.hpp"
#include "net/msg_kind.hpp"
#include "verify/mutants.hpp"

namespace dmx::verify {

namespace {

// Every problem with `cfg`, one message each; a well-formed fault plan is
// parsed into `actions` on the way, so check() parses it only once.
std::vector<std::string> problems(const VerifyConfig& cfg,
                                  std::vector<fault::FaultAction>& actions) {
  harness::register_builtin_algorithms();
  register_mutant_algorithms();
  std::vector<std::string> errors;
  if (!mutex::Registry::instance().contains(cfg.algorithm)) {
    errors.push_back("unknown algorithm \"" + cfg.algorithm + "\"");
  }
  if (cfg.n_nodes == 0 || cfg.n_nodes > 4) {
    errors.push_back("n_nodes must be in [1, 4] for exhaustive exploration, "
                     "got " + std::to_string(cfg.n_nodes));
  }
  if (cfg.requests_per_node == 0) {
    errors.emplace_back("requests_per_node must be at least 1");
  }
  if (!(cfg.t_msg > 0.0)) errors.emplace_back("t_msg must be positive");
  if (!(cfg.t_exec > 0.0)) errors.emplace_back("t_exec must be positive");
  if (cfg.max_depth == 0) errors.emplace_back("max_depth must be at least 1");
  if (cfg.max_schedules == 0) {
    errors.emplace_back("max_schedules must be at least 1");
  }
  if (!cfg.fault_plan.empty()) {
    try {
      actions = fault::FaultPlan::parse(cfg.fault_plan).actions;
      for (const fault::FaultAction& act : actions) {
        switch (act.kind) {
          case fault::FaultAction::Kind::kCrash:
          case fault::FaultAction::Kind::kRestart:
            if (act.node < 0 ||
                static_cast<std::size_t>(act.node) >= cfg.n_nodes) {
              errors.push_back("fault plan targets node " +
                               std::to_string(act.node) +
                               " outside the cluster");
            }
            break;
          case fault::FaultAction::Kind::kLoseNext:
            if (act.msg_type != "*" &&
                !net::MsgKindRegistry::instance().find(act.msg_type)
                     .valid()) {
              errors.push_back("lose-next names unregistered message type \"" +
                               act.msg_type + "\"");
            }
            break;
          case fault::FaultAction::Kind::kPartition:
            if (act.groups.empty()) {
              errors.emplace_back("partition action has no groups");
            }
            for (const auto& group : act.groups) {
              for (const int n : group) {
                if (n < 0 || static_cast<std::size_t>(n) >= cfg.n_nodes) {
                  errors.push_back("partition group names node " +
                                   std::to_string(n) +
                                   " outside the cluster");
                }
              }
            }
            break;
          case fault::FaultAction::Kind::kHeal:
            break;
          default:
            errors.push_back(
                "fault plan action \"" + act.describe() +
                "\": only crash, restart, lose-next, partition and heal "
                "become explorable choices");
            break;
        }
      }
    } catch (const std::exception& e) {
      errors.emplace_back(e.what());  // already says "fault plan: "
    }
  }
  return errors;
}

}  // namespace

std::vector<std::string> VerifyConfig::validate() const {
  std::vector<fault::FaultAction> actions;
  return problems(*this, actions);
}

std::vector<fault::FaultAction> VerifyConfig::check() const {
  std::vector<fault::FaultAction> actions;
  const std::vector<std::string> errors = problems(*this, actions);
  if (errors.empty()) return actions;
  std::string joined = "invalid verify config:";
  for (const std::string& e : errors) joined += "\n  - " + e;
  throw std::invalid_argument(joined);
}

}  // namespace dmx::verify
