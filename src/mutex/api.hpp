// Algorithm-agnostic distributed mutual exclusion API.
//
// Every algorithm in this library — the paper's arbiter token-passing
// algorithm, its variants, and the seven baselines — implements
// MutexAlgorithm.  The per-node CsDriver submits at most one outstanding
// CsRequest at a time and the algorithm calls grant() when that node may
// enter its critical section; the driver later calls release() when the
// critical section completes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "net/node_id.hpp"
#include "obs/lifecycle.hpp"
#include "runtime/process.hpp"
#include "sim/time.hpp"

namespace dmx::mutex {

/// Typed handle for one lock demand submitted to a multi-resource
/// LockSpace (lock_space.hpp).  Ids are assigned at acquire() time, are
/// unique and strictly increasing within one LockSpace, and identify the
/// demand in every on_granted / on_released notification, so clients
/// correlate grants with their own submissions instead of polling
/// aggregate counters.
///
/// The LockSpace notification contract:
///  * acquire() returns the demand's LockRequestId immediately; the demand
///    queues FIFO per (resource, node).
///  * on_granted fires exactly once per demand, when its node enters the
///    critical section of its resource, with the id, resource, node and
///    grant time.
///  * on_released fires exactly once per demand, after the critical
///    section completes — the closed-loop resubmission point.
///  * Hooks are sim::SmallCallback<void(const LockEvent&)> (callback.hpp):
///    captures up to the inline budget never allocate, keeping the grant
///    path on the zero-allocation plane.
///  * This id is the *client-facing* identity.  The protocol-level
///    CsRequest::request_id underneath is assigned later (at issue time,
///    when the demand leaves the local FIFO) and is what traces and spans
///    key on; the two are distinct by design.
struct LockRequestId {
  std::uint64_t value = 0;  ///< 0 = invalid / never assigned.

  [[nodiscard]] explicit operator bool() const { return value != 0; }
  friend bool operator==(LockRequestId a, LockRequestId b) {
    return a.value == b.value;
  }
  friend bool operator!=(LockRequestId a, LockRequestId b) {
    return a.value != b.value;
  }
};

/// Payload of a LockSpace grant / release notification.
struct LockEvent {
  LockRequestId id;          ///< The demand this notification is about.
  std::size_t resource = 0;  ///< Resource the lock guards.
  std::size_t node = 0;      ///< Node (tenant) holding / releasing it.
  sim::SimTime at;           ///< Grant or release time.
};

/// One critical-section request.
struct CsRequest {
  std::uint64_t request_id = 0;       ///< Globally unique.
  net::NodeId node;                   ///< Requesting node.
  std::uint64_t sequence = 0;         ///< Per-node CS count (1-based).
  sim::SimTime submitted_at;          ///< Workload arrival time.
  sim::SimTime issued_at;             ///< Handed to the algorithm.
  int priority = 0;                   ///< Higher value = higher priority.
};

/// The per-node party an algorithm reports to (mutex::CsDriver): each grant
/// of the node's outstanding request, and the crash of the node.
class CsListener {
 public:
  virtual void on_grant(const CsRequest& req) = 0;
  virtual void on_node_crashed() = 0;

 protected:
  ~CsListener() = default;
};

/// Base class for one node's half of a mutual exclusion protocol.
///
/// Contract:
///  * request() is called only when no request by this node is outstanding.
///  * The algorithm eventually calls grant() exactly once per request()
///    (assuming no failures), after which the node is in its CS.
///  * release() is called exactly once after each grant.
class MutexAlgorithm : public runtime::Process {
 public:
  /// The driver attaches itself before the cluster starts.
  void set_listener(CsListener* listener) { listener_ = listener; }

  /// Ask for the critical section on behalf of this node.
  virtual void request(const CsRequest& req) = 0;

  /// The critical section granted earlier is complete; pass on permission.
  virtual void release() = 0;

  /// Short algorithm name for tables and traces (e.g. "arbiter-tp").
  [[nodiscard]] virtual std::string_view algorithm_name() const = 0;

  /// One-line snapshot of this node's protocol state for stall diagnostics
  /// (who do I think holds the token / arbiters / my pending request...).
  /// The ProgressMonitor dumps it per node when liveness is lost, so the
  /// richer the better; the default names only the algorithm.
  [[nodiscard]] virtual std::string debug_state() const {
    return std::string(algorithm_name()) + ": <no debug state>";
  }

  /// Does this node currently hold the (a) token?  Token-passing algorithms
  /// override this so global checkers (src/verify/) can assert token
  /// uniqueness: at most one live node answers true at any instant.
  /// Algorithms with no token concept (permission-based, quorum) return
  /// nullopt and are excluded from the invariant.
  [[nodiscard]] virtual std::optional<bool> holds_token() const {
    return std::nullopt;
  }

  /// The generation (epoch) of the token this node holds or last saw, for
  /// duplicate-token diagnostics: when token uniqueness is violated the
  /// checker reports each holder's epoch, distinguishing a regenerated
  /// second token (different epochs — the split-brain signature) from a
  /// plain duplication bug.  nullopt when the algorithm has no epochs.
  [[nodiscard]] virtual std::optional<std::uint64_t> token_epoch() const {
    return std::nullopt;
  }

 protected:
  /// Subclasses call this when the local node may enter its CS.  Every
  /// algorithm's grant path funnels through here, so this is the single
  /// point that stamps cs.granted onto the request's lifecycle span.
  void grant(const CsRequest& req) {
    emit(obs::kEvCsGranted, req.request_id);
    if (listener_ != nullptr) listener_->on_grant(req);
  }

  /// Every crash (Cluster::crash_node) funnels through here, right after
  /// the node.crashed event, so a crash reaches the driver the way a grant
  /// does.  Final: an algorithm keeps its state across a crash and resets
  /// what it must in on_restart().
  void on_crash() final {
    if (listener_ != nullptr) listener_->on_node_crashed();
  }

 private:
  CsListener* listener_ = nullptr;
};

}  // namespace dmx::mutex
