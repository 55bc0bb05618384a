// Loosely typed parameter bag for algorithm construction.
//
// Benches and the harness sweep algorithm parameters by name ("t_req",
// "t_fwd", "tau", ...); each algorithm factory reads what it understands and
// falls back to its documented defaults.  A typed read of a key that is set
// checks its value: a name where a number belongs (or the reverse), a
// negative time, or a count that is negative or fractional throws
// std::invalid_argument naming the key.
#pragma once

#include <charconv>
#include <cmath>
#include <cstdint>
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
    const double* v = num(key);
    return v == nullptr ? fallback : *v;
  }

  /// A duration in time units, at least 0.
  [[nodiscard]] sim::SimTime get_time(const std::string& key,
                                      sim::SimTime fallback) const {
    const double* v = num(key);
    if (v == nullptr) return fallback;
    if (!(*v >= 0.0)) bad(key, "a time >= 0", *v);
    return sim::SimTime::units(*v);
  }

  /// A count or a node id: a whole number in [0, 2^31).
  [[nodiscard]] std::uint32_t get_count(const std::string& key,
                                        std::uint32_t fallback) const {
    const double* v = num(key);
    if (v == nullptr) return fallback;
    if (!(*v >= 0.0 && *v < 2147483648.0 && *v == std::trunc(*v))) {
      bad(key, "a whole number >= 0", *v);
    }
    return static_cast<std::uint32_t>(*v);
  }

  [[nodiscard]] bool get_bool(const std::string& key, bool fallback) const {
    const double* v = num(key);
    return v == nullptr ? fallback : *v != 0.0;
  }

  [[nodiscard]] std::string get_str(const std::string& key,
                                    const std::string& fallback) const {
    auto it = strs_.find(key);
    if (it != strs_.end()) return it->second;
    if (auto n = nums_.find(key); n != nums_.end()) {
      bad(key, "a name", n->second);
    }
    return fallback;
  }

  [[nodiscard]] const std::map<std::string, double>& nums() const {
    return nums_;
  }
  [[nodiscard]] const std::map<std::string, std::string>& strs() const {
    return strs_;
  }

 private:
  /// The number set for `key`, or null when it is unset.
  [[nodiscard]] const double* num(const std::string& key) const {
    auto it = nums_.find(key);
    if (it != nums_.end()) return &it->second;
    if (auto s = strs_.find(key); s != strs_.end()) {
      throw std::invalid_argument("param " + key +
                                  " must be a number, got '" + s->second +
                                  "'");
    }
    return nullptr;
  }

  [[noreturn]] static void bad(const std::string& key, const char* want,
                               double got) {
    char buf[32];
    const auto end = std::to_chars(buf, buf + sizeof buf, got).ptr;
    throw std::invalid_argument("param " + key + " must be " + want +
                                ", got " + std::string(buf, end));
  }

  std::map<std::string, double> nums_;
  std::map<std::string, std::string> strs_;
};

}  // namespace dmx::mutex
