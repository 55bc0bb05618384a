#include "verify/config.hpp"

#include <stdexcept>
#include <utility>

#include "fault/fault_plan.hpp"
#include "harness/experiment.hpp"
#include "mutex/registry.hpp"
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
  } else if (errors.empty()) {
    std::string e = mutex::build_error(cfg.algorithm, cfg.n_nodes, cfg.params);
    if (!e.empty()) errors.push_back(std::move(e));
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
      fault::FaultPlan plan = fault::FaultPlan::parse(cfg.fault_plan);
      for (std::string& e : plan.validate(cfg.n_nodes)) {
        errors.push_back(std::move(e));
      }
      for (const fault::FaultAction& act : plan.actions) {
        switch (act.kind) {
          case fault::FaultAction::Kind::kCrash:
          case fault::FaultAction::Kind::kRestart:
          case fault::FaultAction::Kind::kLoseNext:
          case fault::FaultAction::Kind::kPartition:
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
      actions = std::move(plan.actions);
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
