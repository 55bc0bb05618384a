#include "fault/fault_plan.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>

#include "net/msg_kind.hpp"

namespace dmx::fault {

namespace {

[[noreturn]] void fail(const std::string& what, std::string_view action) {
  throw std::invalid_argument("fault plan: " + what + " in action '" +
                              std::string(action) + "'");
}

std::vector<std::string> tokenize(std::string_view action) {
  std::vector<std::string> out;
  std::string tok;
  for (char c : action) {
    if (c == ' ' || c == '\t' || c == '\n') {
      if (!tok.empty()) out.push_back(std::move(tok)), tok.clear();
    } else {
      tok.push_back(c);
    }
  }
  if (!tok.empty()) out.push_back(std::move(tok));
  return out;
}

double parse_num(const std::string& text, std::string_view what,
                 std::string_view action) {
  try {
    std::size_t pos = 0;
    const double d = std::stod(text, &pos);
    if (pos != text.size()) throw std::invalid_argument("trailing junk");
    if (!std::isfinite(d)) throw std::invalid_argument("not finite");
    return d;
  } catch (const std::exception&) {
    fail("bad " + std::string(what) + " '" + text + "'", action);
  }
}

int parse_node(const std::string& text, std::string_view action) {
  const double d = parse_num(text, "node index", action);
  const int n = static_cast<int>(d);
  if (d != static_cast<double>(n) || n < 0) {
    fail("bad node index '" + text + "'", action);
  }
  return n;
}

std::vector<std::vector<int>> parse_groups(const std::string& text,
                                           std::string_view action) {
  std::vector<std::vector<int>> groups;
  std::vector<int> group;
  std::string item;
  auto flush_item = [&] {
    if (item.empty()) fail("empty node in partition groups", action);
    group.push_back(parse_node(item, action));
    item.clear();
  };
  for (char c : text) {
    if (c == ',') {
      flush_item();
    } else if (c == '|') {
      flush_item();
      groups.push_back(std::move(group));
      group.clear();
    } else {
      item.push_back(c);
    }
  }
  flush_item();
  groups.push_back(std::move(group));
  return groups;
}

std::string fmt_num(double v) {
  std::ostringstream os;
  os << v;
  return os.str();
}

FaultAction parse_action(std::string_view action) {
  const std::vector<std::string> toks = tokenize(action);
  if (toks.empty()) fail("empty action", action);
  if (toks[0] == "reorder-window") {
    // Verb-first special form: 'reorder-window t=<a>..<b>'.  The window
    // start doubles as the fire time.
    if (toks.size() != 2 || toks[1].rfind("t=", 0) != 0) {
      fail("'reorder-window' takes t=<a>..<b>", action);
    }
    const std::string range = toks[1].substr(2);
    const std::size_t dots = range.find("..");
    if (dots == std::string::npos || dots == 0 || dots + 2 >= range.size()) {
      fail("'reorder-window' takes t=<a>..<b>", action);
    }
    FaultAction a;
    a.kind = FaultAction::Kind::kReorderWindow;
    a.at = parse_num(range.substr(0, dots), "time", action);
    a.until = parse_num(range.substr(dots + 2), "time", action);
    if (!(a.at >= 0.0)) fail("negative time", action);
    if (!(a.until > a.at)) {
      fail("'reorder-window' end must be after its start", action);
    }
    return a;
  }
  if (toks[0].rfind("t=", 0) != 0) {
    fail("expected 't=TIME' first", action);
  }
  FaultAction a;
  a.at = parse_num(toks[0].substr(2), "time", action);
  if (!(a.at >= 0.0)) fail("negative time", action);
  if (toks.size() < 2) fail("missing verb", action);
  const std::string& verb = toks[1];
  auto expect_argc = [&](std::size_t n) {
    if (toks.size() != n) fail("wrong argument count for '" + verb + "'",
                               action);
  };
  if (verb == "crash" || verb == "restart") {
    expect_argc(3);
    a.kind = verb == "crash" ? FaultAction::Kind::kCrash
                             : FaultAction::Kind::kRestart;
    a.node = parse_node(toks[2], action);
  } else if (verb == "lose-next" || verb == "dup-next") {
    if (toks.size() < 3 || toks.size() > 5) {
      fail("'" + verb + "' takes TYPE [from=N] [to=N]", action);
    }
    a.kind = verb == "lose-next" ? FaultAction::Kind::kLoseNext
                                 : FaultAction::Kind::kDupNext;
    a.msg_type = toks[2];
    for (std::size_t i = 3; i < toks.size(); ++i) {
      if (toks[i].rfind("from=", 0) == 0) {
        a.src = parse_node(toks[i].substr(5), action);
      } else if (toks[i].rfind("to=", 0) == 0) {
        a.dst = parse_node(toks[i].substr(3), action);
      } else {
        fail("unknown " + verb + " option '" + toks[i] + "'", action);
      }
    }
  } else if (verb == "loss") {
    if (toks.size() < 3 || toks.size() > 4) {
      fail("'loss' takes TYPE=P [until=TIME]", action);
    }
    a.kind = FaultAction::Kind::kSetLoss;
    const std::size_t eq = toks[2].find('=');
    if (eq == std::string::npos || eq == 0 || eq + 1 >= toks[2].size()) {
      fail("'loss' expects TYPE=P, got '" + toks[2] + "'", action);
    }
    a.msg_type = toks[2].substr(0, eq);
    a.probability = parse_num(toks[2].substr(eq + 1), "probability", action);
    if (!(a.probability >= 0.0 && a.probability <= 1.0)) {
      fail("probability outside [0,1]", action);
    }
    if (toks.size() == 4) {
      if (toks[3].rfind("until=", 0) != 0) {
        fail("unknown loss option '" + toks[3] + "'", action);
      }
      a.until = parse_num(toks[3].substr(6), "time", action);
      if (!(a.until > a.at)) {
        fail("'until' must be after the action time", action);
      }
    }
  } else if (verb == "partition") {
    expect_argc(3);
    a.kind = FaultAction::Kind::kPartition;
    a.groups = parse_groups(toks[2], action);
  } else if (verb == "heal") {
    expect_argc(2);
    a.kind = FaultAction::Kind::kHeal;
  } else {
    fail("unknown verb '" + verb + "'", action);
  }
  return a;
}

}  // namespace

bool FaultAction::disruptive() const {
  switch (kind) {
    case Kind::kCrash:
    case Kind::kLoseNext:
    case Kind::kPartition:
    case Kind::kReorderWindow:
      return true;
    case Kind::kSetLoss:
      return probability > 0.0;
    case Kind::kRestart:
    case Kind::kDupNext:
    case Kind::kHeal:
      return false;
  }
  return false;
}

std::string FaultAction::describe() const {
  std::ostringstream os;
  if (kind == Kind::kReorderWindow) {  // Verb-first form.
    os << "reorder-window t=" << fmt_num(at) << ".." << fmt_num(until);
    return os.str();
  }
  os << "t=" << fmt_num(at) << ' ';
  switch (kind) {
    case Kind::kCrash:
      os << "crash " << node;
      break;
    case Kind::kRestart:
      os << "restart " << node;
      break;
    case Kind::kLoseNext:
    case Kind::kDupNext:
      os << (kind == Kind::kLoseNext ? "lose-next " : "dup-next ") << msg_type;
      if (src >= 0) os << " from=" << src;
      if (dst >= 0) os << " to=" << dst;
      break;
    case Kind::kSetLoss:
      os << "loss " << msg_type << '=' << fmt_num(probability);
      if (until >= 0.0) os << " until=" << fmt_num(until);
      break;
    case Kind::kPartition: {
      os << "partition ";
      for (std::size_t g = 0; g < groups.size(); ++g) {
        if (g > 0) os << '|';
        for (std::size_t i = 0; i < groups[g].size(); ++i) {
          if (i > 0) os << ',';
          os << groups[g][i];
        }
      }
      break;
    }
    case Kind::kHeal:
      os << "heal";
      break;
    case Kind::kReorderWindow:
      break;  // Handled above (verb-first form).
  }
  return os.str();
}

FaultPlan FaultPlan::parse(std::string_view spec) {
  FaultPlan plan;
  std::size_t start = 0;
  while (start <= spec.size()) {
    const std::size_t semi = spec.find(';', start);
    const std::string_view action = spec.substr(
        start, semi == std::string_view::npos ? std::string_view::npos
                                              : semi - start);
    if (!tokenize(action).empty()) {
      plan.actions.push_back(parse_action(action));
    }
    if (semi == std::string_view::npos) break;
    start = semi + 1;
  }
  std::stable_sort(
      plan.actions.begin(), plan.actions.end(),
      [](const FaultAction& a, const FaultAction& b) { return a.at < b.at; });
  return plan;
}

std::vector<std::string> FaultPlan::validate(std::size_t n_nodes) const {
  std::vector<std::string> errors;
  for (const FaultAction& a : actions) {
    auto problem = [&](const std::string& what) {
      errors.push_back("fault plan: " + what + " in action '" + a.describe() +
                       "'");
    };
    auto check_node = [&](int n) {
      if (n < 0 || static_cast<std::size_t>(n) >= n_nodes) {
        problem("node " + std::to_string(n) + " outside the " +
                std::to_string(n_nodes) + "-node cluster");
      }
    };
    auto check_type = [&] {
      // Every shipped message type registers during static initialization,
      // so an unknown name is a typo that would otherwise never match.
      if (a.msg_type != "*" &&
          !net::MsgKindRegistry::instance().find(a.msg_type).valid()) {
        problem("unregistered message type \"" + a.msg_type + "\"");
      }
    };
    switch (a.kind) {
      case FaultAction::Kind::kCrash:
      case FaultAction::Kind::kRestart:
        check_node(a.node);
        break;
      case FaultAction::Kind::kLoseNext:
      case FaultAction::Kind::kDupNext:
        check_type();
        if (a.src >= 0) check_node(a.src);  // -1 = from any node
        if (a.dst >= 0) check_node(a.dst);
        break;
      case FaultAction::Kind::kSetLoss:
        check_type();
        break;
      case FaultAction::Kind::kPartition:
        if (a.groups.empty()) problem("no partition groups");
        for (const auto& group : a.groups) {
          if (group.empty()) problem("empty partition group");
          for (int n : group) check_node(n);
        }
        break;
      case FaultAction::Kind::kReorderWindow:
      case FaultAction::Kind::kHeal:
        break;
    }
  }
  return errors;
}

std::string FaultPlan::to_string() const {
  std::string out;
  for (const FaultAction& a : actions) {
    if (!out.empty()) out += "; ";
    out += a.describe();
  }
  return out;
}

}  // namespace dmx::fault
