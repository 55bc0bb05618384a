// Loosely typed parameter bag for algorithm construction.
//
// Benches and the harness sweep algorithm parameters by name ("t_req",
// "t_fwd", "tau", ...); each algorithm factory reads what it understands and
// falls back to its documented defaults.
#pragma once

#include <map>
#include <stdexcept>
#include <string>

#include "sim/time.hpp"

namespace dmx::mutex {

class ParamSet {
 public:
  ParamSet& set(const std::string& key, double value) {
    nums_[key] = value;
    return *this;
  }
  ParamSet& set(const std::string& key, const std::string& value) {
    strs_[key] = value;
    return *this;
  }

  [[nodiscard]] bool has(const std::string& key) const {
    return nums_.contains(key) || strs_.contains(key);
  }

  [[nodiscard]] double get_num(const std::string& key,
                               double fallback) const {
    auto it = nums_.find(key);
    return it == nums_.end() ? fallback : it->second;
  }

  [[nodiscard]] double require_num(const std::string& key) const {
    auto it = nums_.find(key);
    if (it == nums_.end()) {
      throw std::invalid_argument("missing required parameter: " + key);
    }
    return it->second;
  }

  [[nodiscard]] sim::SimTime get_time(const std::string& key,
                                      sim::SimTime fallback) const {
    auto it = nums_.find(key);
    return it == nums_.end() ? fallback : sim::SimTime::units(it->second);
  }

  [[nodiscard]] bool get_bool(const std::string& key, bool fallback) const {
    auto it = nums_.find(key);
    return it == nums_.end() ? fallback : it->second != 0.0;
  }

  [[nodiscard]] std::string get_str(const std::string& key,
                                    const std::string& fallback) const {
    auto it = strs_.find(key);
    return it == strs_.end() ? fallback : it->second;
  }

  [[nodiscard]] const std::map<std::string, double>& nums() const {
    return nums_;
  }
  [[nodiscard]] const std::map<std::string, std::string>& strs() const {
    return strs_;
  }

 private:
  std::map<std::string, double> nums_;
  std::map<std::string, std::string> strs_;
};

}  // namespace dmx::mutex
