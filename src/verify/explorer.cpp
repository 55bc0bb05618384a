#include "verify/explorer.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "verify/choice.hpp"
#include "verify/world.hpp"

namespace dmx::verify {

namespace {

/// One committed decision level of the DFS.
struct Frame {
  std::vector<Choice> enabled;
  std::vector<char> sleeping;  ///< Inherited sleep set (indices into enabled).
  std::vector<char> done;      ///< Subtrees already fully explored.
  std::size_t chosen = 0;

  [[nodiscard]] bool select_first(std::size_t from = 0) {
    for (std::size_t i = from; i < enabled.size(); ++i) {
      if (sleeping[i] == 0 && done[i] == 0) {
        chosen = i;
        return true;
      }
    }
    return false;
  }
};

}  // namespace

VerifyResult explore(const VerifyConfig& cfg) {
  const std::vector<fault::FaultAction> actions = cfg.check();
  VerifyResult res;
  std::vector<Frame> stack;
  bool capped = false;

  auto path_keys = [&stack]() {
    std::vector<std::string> keys;
    keys.reserve(stack.size());
    for (const Frame& f : stack) keys.push_back(f.enabled[f.chosen].key());
    return keys;
  };

  while (true) {
    // ---- one execution: replay the committed prefix statelessly ----
    // Each frame's stored choice is applied to a fresh World after
    // World::replay() checks it against that world's enabled set (same
    // identity, event and time), so a nondeterministic world throws.
    // The last frame holds the branch's freshly selected sibling, which has
    // never been executed: a violation there is a genuine finding.  A
    // violation at any earlier frame re-executes a choice that was clean
    // the first time, which can only mean the world is nondeterministic.
    World world(cfg, actions);
    for (std::size_t depth = 0; depth < stack.size(); ++depth) {
      const Frame& f = stack[depth];
      world.replay(f.enabled[f.chosen]);
      ++res.stats.replayed;
      if (std::optional<mutex::Violation> v = world.check()) {
        if (depth + 1 == stack.size()) {
          ++res.stats.schedules;
          res.violation = std::move(v);
          res.counterexample = path_keys();
          res.diagnosis = world.debug_dump();
          return res;
        }
        std::string msg =
            "verify: a violation appeared while replaying a clean prefix: " +
            v->describe() + "\nprefix:";
        for (const std::string& k : path_keys()) msg += "\n  " + k;
        throw std::logic_error(msg);
      }
    }
    // Sleep set inherited by the state the prefix just reached: siblings
    // already explored (or slept) at the parent stay asleep across every
    // transition independent of them.
    std::vector<Choice> sleep;
    if (!stack.empty()) {
      const Frame& f = stack.back();
      const Choice& taken = f.enabled[f.chosen];
      for (std::size_t i = 0; i < f.enabled.size(); ++i) {
        if (i == f.chosen) continue;
        if ((f.sleeping[i] != 0 || f.done[i] != 0) &&
            f.enabled[i].independent_with(taken)) {
          sleep.push_back(f.enabled[i]);
        }
      }
    }

    // ---- extend the execution until it ends ----
    while (true) {
      if (world.quiescent()) {
        ++res.stats.schedules;
        ++res.stats.terminal;
        break;
      }
      std::vector<Choice> enabled = world.enabled();
      if (enabled.empty()) {
        ++res.stats.schedules;
        if (std::optional<mutex::Violation> v = world.terminal_check()) {
          res.violation = std::move(v);
          res.counterexample = path_keys();
          res.diagnosis = world.debug_dump();
          return res;
        }
        ++res.stats.terminal;
        break;
      }
      if (stack.size() >= cfg.max_depth) {
        ++res.stats.schedules;
        ++res.stats.truncated;
        break;
      }
      Frame f;
      f.enabled = std::move(enabled);
      f.sleeping.assign(f.enabled.size(), 0);
      f.done.assign(f.enabled.size(), 0);
      for (std::size_t i = 0; i < f.enabled.size(); ++i) {
        for (const Choice& z : sleep) {
          if (same_choice(f.enabled[i], z)) {
            f.sleeping[i] = 1;
            ++res.stats.sleep_pruned;
            break;
          }
        }
      }
      res.stats.max_frontier =
          std::max(res.stats.max_frontier, f.enabled.size());
      if (!f.select_first()) {
        // Every enabled choice is asleep: this whole subtree commutes with
        // schedules explored elsewhere.
        ++res.stats.schedules;
        ++res.stats.sleep_blocked;
        break;
      }
      const Choice taken = f.enabled[f.chosen];
      world.apply(taken);
      ++res.stats.transitions;
      std::vector<Choice> next_sleep;
      for (std::size_t i = 0; i < f.enabled.size(); ++i) {
        if (f.sleeping[i] != 0 && i != f.chosen &&
            f.enabled[i].independent_with(taken)) {
          next_sleep.push_back(f.enabled[i]);
        }
      }
      stack.push_back(std::move(f));
      res.stats.max_depth_reached =
          std::max(res.stats.max_depth_reached, stack.size());
      sleep = std::move(next_sleep);
      if (std::optional<mutex::Violation> v = world.check()) {
        ++res.stats.schedules;
        res.violation = std::move(v);
        res.counterexample = path_keys();
        res.diagnosis = world.debug_dump();
        return res;
      }
    }

    // ---- backtrack to the next unexplored branch ----
    if (res.stats.schedules >= cfg.max_schedules) capped = true;
    bool advanced = false;
    while (!stack.empty()) {
      Frame& f = stack.back();
      f.done[f.chosen] = 1;
      if (!capped && f.select_first(f.chosen + 1)) {
        advanced = true;
        break;
      }
      stack.pop_back();
    }
    if (!advanced) {
      res.stats.complete = !capped;
      return res;
    }
  }
}

}  // namespace dmx::verify
