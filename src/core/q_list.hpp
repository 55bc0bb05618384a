// The token's ordered list of scheduled requests (the paper's "Q-list").
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "net/node_id.hpp"

namespace dmx::core {

/// One scheduled request inside the token / NEW-ARBITER Q-list.
struct QEntry {
  net::NodeId node;
  std::uint64_t request_id = 0;
  std::uint64_t sequence = 0;  ///< The requester's CS count (1-based).
  int priority = 0;
  int forward_count = 0;       ///< How many times the REQUEST was forwarded.
};

using QList = std::vector<QEntry>;

/// How an arbiter orders the batch it collected (paper §2.4, §5.2).
enum class BatchOrder {
  kFcfs,      ///< Arrival order at the arbiter (the basic algorithm).
  kSequence,  ///< Fewest prior CS entries first (Suzuki–Kasami-style fairness).
  kPriority,  ///< Higher priority first, FCFS within a level (§5.2).
};

[[nodiscard]] inline bool q_contains(const QList& q, std::uint64_t request_id) {
  return std::any_of(q.begin(), q.end(), [&](const QEntry& e) {
    return e.request_id == request_id;
  });
}

/// Apply the configured batch ordering.  All orderings are stable so FCFS is
/// the tie-break within equal keys.
inline void order_batch(QList& q, BatchOrder order) {
  switch (order) {
    case BatchOrder::kFcfs:
      break;
    case BatchOrder::kSequence:
      std::stable_sort(q.begin(), q.end(), [](const QEntry& a, const QEntry& b) {
        return a.sequence < b.sequence;
      });
      break;
    case BatchOrder::kPriority:
      std::stable_sort(q.begin(), q.end(), [](const QEntry& a, const QEntry& b) {
        return a.priority > b.priority;
      });
      break;
  }
}

[[nodiscard]] std::string q_to_string(const QList& q);

}  // namespace dmx::core
