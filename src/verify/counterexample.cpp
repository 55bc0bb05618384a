#include "verify/counterexample.hpp"

#include <cstdio>
#include <cstdlib>
#include <limits>
#include <stdexcept>
#include <utility>

#include "harness/cli.hpp"
#include "verify/choice.hpp"
#include "verify/world.hpp"

namespace dmx::verify {

namespace {

/// Round-trip-exact double formatting (max_digits10 significant digits).
std::string fmt_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*g",
                std::numeric_limits<double>::max_digits10, v);
  return buf;
}

double parse_double(const std::string& s, const std::string& line) {
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  if (end == s.c_str() || *end != '\0') {
    throw std::invalid_argument("dmx.cex: bad number in line: " + line);
  }
  return v;
}

std::uint64_t parse_u64(const std::string& s, const std::string& line) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s.c_str(), &end, 10);
  if (end == s.c_str() || *end != '\0') {
    throw std::invalid_argument("dmx.cex: bad integer in line: " + line);
  }
  return v;
}

}  // namespace

std::string Counterexample::to_string() const {
  std::string out = "dmx.cex.v1\n";
  out += "algo " + config.algorithm + "\n";
  out += "n " + std::to_string(config.n_nodes) + "\n";
  out += "requests " + std::to_string(config.requests_per_node) + "\n";
  out += "t_msg " + fmt_double(config.t_msg) + "\n";
  out += "t_exec " + fmt_double(config.t_exec) + "\n";
  out += "slack " + fmt_double(config.time_slack) + "\n";
  out += "fifo " + std::string(config.fifo_links ? "1" : "0") + "\n";
  if (config.reliable) out += "reliable 1\n";
  out += "depth " + std::to_string(config.max_depth) + "\n";
  for (const auto& [key, value] : config.params.nums()) {
    out += "param " + key + " " + fmt_double(value) + "\n";
  }
  for (const auto& [key, value] : config.params.strs()) {
    out += "param " + key + " " + value + "\n";
  }
  if (!config.fault_plan.empty()) {
    out += "fault " + config.fault_plan + "\n";
  }
  if (!violation_kind.empty()) {
    out += "violation " + violation_kind + "\n";
  }
  for (const std::string& c : choices) out += "choice " + c + "\n";
  out += "end\n";
  return out;
}

Counterexample Counterexample::parse(std::string_view text) {
  Counterexample cex;
  bool saw_magic = false;
  bool saw_end = false;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    const std::size_t nl = text.find('\n', pos);
    std::string line(text.substr(
        pos, nl == std::string_view::npos ? text.size() - pos : nl - pos));
    pos = nl == std::string_view::npos ? text.size() + 1 : nl + 1;
    while (!line.empty() && (line.back() == ' ' || line.back() == '\r')) {
      line.pop_back();
    }
    // Whole-line comments only: choice keys legitimately contain '#'.
    if (line.empty() || line.front() == '#') continue;
    if (!saw_magic) {
      if (line != "dmx.cex.v1") {
        throw std::invalid_argument(
            "dmx.cex: expected header dmx.cex.v1, got: " + line);
      }
      saw_magic = true;
      continue;
    }
    if (saw_end) {
      throw std::invalid_argument("dmx.cex: content after end: " + line);
    }
    const std::size_t sp = line.find(' ');
    const std::string kw = line.substr(0, sp);
    const std::string rest =
        sp == std::string::npos ? std::string() : line.substr(sp + 1);
    if (kw == "end") {
      saw_end = true;
    } else if (kw == "algo") {
      cex.config.algorithm = rest;
    } else if (kw == "n") {
      cex.config.n_nodes = parse_u64(rest, line);
    } else if (kw == "requests") {
      cex.config.requests_per_node = parse_u64(rest, line);
    } else if (kw == "t_msg") {
      cex.config.t_msg = parse_double(rest, line);
    } else if (kw == "t_exec") {
      cex.config.t_exec = parse_double(rest, line);
    } else if (kw == "slack") {
      cex.config.time_slack = parse_double(rest, line);
    } else if (kw == "fifo") {
      cex.config.fifo_links = parse_u64(rest, line) != 0;
    } else if (kw == "reliable") {
      cex.config.reliable = parse_u64(rest, line) != 0;
    } else if (kw == "depth") {
      cex.config.max_depth = parse_u64(rest, line);
    } else if (kw == "param") {
      const std::size_t sep = rest.find(' ');
      if (sep == std::string::npos) {
        throw std::invalid_argument("dmx.cex: param needs key value: " + line);
      }
      harness::set_param(cex.config.params, rest.substr(0, sep),
                         rest.substr(sep + 1));
    } else if (kw == "fault") {
      cex.config.fault_plan = rest;
    } else if (kw == "violation") {
      cex.violation_kind = rest;
    } else if (kw == "choice") {
      if (rest.empty()) {
        throw std::invalid_argument("dmx.cex: empty choice line");
      }
      cex.choices.push_back(rest);
    } else {
      throw std::invalid_argument("dmx.cex: unknown keyword in line: " + line);
    }
  }
  if (!saw_magic) throw std::invalid_argument("dmx.cex: empty input");
  if (!saw_end) throw std::invalid_argument("dmx.cex: missing end line");
  return cex;
}

ReplayResult replay(const Counterexample& cex,
                    std::shared_ptr<obs::Sink> sink) {
  World world(cex.config, std::move(sink));
  ReplayResult res;
  for (const std::string& key : cex.choices) {
    std::optional<Choice> c = world.find_enabled(key);
    if (!c.has_value()) {
      res.error = "recorded choice not enabled at step " +
                  std::to_string(res.steps) + ": " + key;
      res.diagnosis = world.debug_dump();
      return res;
    }
    world.apply(*c);
    ++res.steps;
    if (std::optional<mutex::Violation> v = world.check()) {
      res.violation = std::move(v);
      res.diagnosis = world.debug_dump();
      return res;
    }
  }
  // A liveness counterexample ends in a dry state rather than on a
  // violating transition: run the terminal verdict if nothing is enabled.
  if (world.enabled().empty()) {
    if (std::optional<mutex::Violation> v = world.terminal_check()) {
      res.violation = std::move(v);
    }
  }
  res.diagnosis = world.debug_dump();
  return res;
}

}  // namespace dmx::verify
