// The paper's arbiter token-passing distributed mutual exclusion algorithm.
//
// One node at a time is the *arbiter*: it collects REQUESTs, and once it
// holds the token it runs a timed request-collection window (T_req), then
// dispatches the token — PRIVILEGE(Q) — down the ordered batch Q while
// broadcasting NEW-ARBITER(tail(Q)) so everyone learns the next arbiter.
// After handing off, the old arbiter forwards late REQUESTs for T_fwd, then
// drops them.  The token visits each scheduled node in Q order; each node
// executes its critical section, pops its entry and passes the token on.
// The token reaching the tail (= the new arbiter) closes the cycle.
//
// Variants, all selected through ArbiterParams:
//  * sequenced        — REQUEST(j,n) + PRIVILEGE(Q,L) duplicate suppression
//                       and fewest-entries-first fairness (§2.4).
//  * starvation_free  — monitor node, forward-count threshold tau, and the
//                       adaptive token-to-monitor period (§4.1).
//  * order=priority   — incremental static-priority scheduling (§5.2).
//  * recovery         — lost-request retransmission, WARNING + two-phase
//                       token invalidation/regeneration, previous-arbiter
//                       watchdog with PROBE/takeover (§6).
//
// arbiter_mutex.cpp holds the basic algorithm and its variants;
// arbiter_recovery.cpp holds the §6 recovery and quorum-guard members.
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "core/messages.hpp"
#include "core/params.hpp"
#include "core/q_list.hpp"
#include "mutex/api.hpp"
#include "runtime/dispatch.hpp"
#include "stats/moving_window.hpp"

namespace dmx::core {

/// Per-node protocol counters, summed across nodes by the harness.
struct ArbiterStats {
  // Request plane.
  std::uint64_t requests_sent = 0;        ///< First transmissions to arbiter.
  std::uint64_t requests_forwarded = 0;   ///< Forwarding-phase relays.
  std::uint64_t requests_dropped_stale = 0;      ///< Arrived outside phases.
  std::uint64_t requests_dropped_overforwarded = 0;  ///< fwd count > tau.
  std::uint64_t duplicates_dropped = 0;   ///< Dedup at arbiter / sequenced L.
  std::uint64_t resubmissions = 0;        ///< Retransmits to the arbiter.
  std::uint64_t monitor_resubmissions = 0;  ///< Diverted to the monitor.
  // Arbiter plane.
  std::uint64_t dispatches = 0;
  std::uint64_t monitor_dispatches = 0;   ///< Token routed via the monitor.
  std::uint64_t new_arbiter_broadcasts = 0;
  // Monitor plane.
  std::uint64_t monitor_buffered = 0;
  std::uint64_t monitor_patience_releases = 0;
  std::uint64_t monitor_visits = 0;
  // Token plane.
  std::uint64_t stale_token_entries = 0;  ///< Q heads popped without a match.
  std::uint64_t stale_tokens_discarded = 0;  ///< Old-epoch PRIVILEGE killed.
  // Recovery plane.
  std::uint64_t warnings_sent = 0;
  std::uint64_t enquiries_sent = 0;
  std::uint64_t resumes_sent = 0;
  std::uint64_t invalidates_sent = 0;
  std::uint64_t tokens_regenerated = 0;
  std::uint64_t probes_sent = 0;
  std::uint64_t arbiter_takeovers = 0;
  std::uint64_t broadcast_retries = 0;   ///< Last-resort REQUEST broadcasts.
  std::uint64_t arbiter_reasserts = 0;   ///< Token holder re-claimed the role.
  std::uint64_t arbiter_abdications = 0; ///< Token-less arbiter stepped down.
  // Partition-safe recovery plane (quorum mode).
  std::uint64_t quorum_blocked = 0;      ///< Regenerations refused (no quorum).
  std::uint64_t quorum_reconciles = 0;   ///< Heal-time NEW-ARBITER reasserts.

  void merge(const ArbiterStats& o);
};

// Cache-line aligned: a large-N run keeps one instance per node and every
// delivery touches fields across the object, so the alignment keeps the
// number of lines a handler touches independent of the field count.  At
// malloc's 16-byte alignment, shrinking the object from 1024 to 984 bytes
// cost broadcast_n1000 4% wall time.
class alignas(64) ArbiterMutex final : public mutex::MutexAlgorithm {
 public:
  ArbiterMutex(ArbiterParams params, std::size_t n_nodes);

  // --- mutex::MutexAlgorithm -------------------------------------------------
  void request(const mutex::CsRequest& req) override;
  void release() override;
  [[nodiscard]] std::string_view algorithm_name() const override;
  [[nodiscard]] std::string debug_state() const override;

  // --- introspection (tests, harness) ----------------------------------------
  [[nodiscard]] const ArbiterStats& protocol_stats() const { return stats_; }
  [[nodiscard]] bool is_arbiter() const { return is_arbiter_; }
  [[nodiscard]] bool has_token() const { return have_token_; }
  [[nodiscard]] std::optional<bool> holds_token() const override {
    return have_token_;
  }
  [[nodiscard]] std::optional<std::uint64_t> token_epoch() const override {
    return epoch_;
  }
  [[nodiscard]] net::NodeId known_arbiter() const { return arbiter_; }
  [[nodiscard]] std::uint64_t times_arbiter() const { return times_arbiter_; }

 protected:
  void on_start() override;
  void handle(const net::Envelope& env) override;
  void on_restart() override;

 private:
  enum class ArbiterPhase { kNone, kAwaitingToken, kIdleWithToken, kWindow };
  enum class PendingState { kNone, kSent, kScheduled, kInCs };

  // Message handlers, dispatched by kind through dispatch_table().
  void on_request(const net::Envelope& env, const RequestMsg& msg);
  void on_privilege(const net::Envelope& env, const PrivilegeMsg& msg);
  void on_new_arbiter(const net::Envelope& env, const NewArbiterMsg& msg);
  // §6 handlers, in arbiter_recovery.cpp.
  void on_warning(const net::Envelope& env, const WarningMsg& msg);
  void on_enquiry(const net::Envelope& env, const EnquiryMsg& msg);
  void on_enquiry_reply(const net::Envelope& env, const EnquiryReplyMsg& msg);
  void on_resume(const net::Envelope& env, const ResumeMsg& msg);
  void on_invalidate(const net::Envelope& env, const InvalidateMsg& msg);
  void on_probe(const net::Envelope& env, const ProbeMsg& msg);
  void on_probe_reply(const net::Envelope& env, const ProbeReplyMsg& msg);

  static const runtime::MsgDispatcher<ArbiterMutex>& dispatch_table();

  // Arbiter plane.
  void become_arbiter(net::NodeId prev_arbiter, QList last_batch);
  void arbiter_add_request(const QEntry& entry, bool from_monitor);
  void open_collection_window();
  void resume_collection();   ///< Idle with the token, or a fresh window.
  void dispatch();
  void announce(net::NodeId new_arbiter, const QList& q);  ///< NEW-ARBITER.
  void await_own_batch();     ///< Stay arbiter; the token comes back here.
  void step_down();           ///< Leave arbitership: forwarding + watchdog.

  // Token plane.
  void arbiter_token_arrived();
  void process_token();
  void send_privilege(net::NodeId dst, bool via_monitor);  ///< Pass the token.
  void monitor_token_visit();

  // Requester plane.
  void note_scheduled_batch(const QList& q);
  void mark_scheduled();      ///< Our request is in a dispatched batch.
  void resubmit_pending(bool to_monitor);
  void arm_request_retry();

  // Monitor plane (§4.1).  `via` is the REQUEST that carried the entry
  // (traced), or null for the monitor's own entry.
  void buffer_at_monitor(const QEntry& e, const RequestMsg* via);
  void monitor_release_buffer();

  // Recovery plane (§6), in arbiter_recovery.cpp.
  void arm_token_timeout();
  void on_token_timeout();
  void start_invalidation();
  void conclude_invalidation();
  void arm_arbiter_watchdog();
  void on_successor_silent();
  void takeover_arbitership();

  // Partition-safe recovery plane (quorum mode), in arbiter_recovery.cpp.
  void note_dispatch_view(std::uint64_t epoch, net::NodeId arb,
                          const QList& q);
  [[nodiscard]] bool quorum_regeneration_allowed() const;
  void park_invalidation();
  void clear_quorum_backoff();

  [[nodiscard]] QEntry make_own_entry() const;
  [[nodiscard]] std::uint32_t monitor_period() const;
  [[nodiscard]] bool already_granted(const QEntry& e) const;  ///< §2.4 L.
  void dedup_batch(QList& q) const;

  ArbiterParams params_;
  std::size_t n_;
  ArbiterStats stats_;

  // Shared beliefs.
  net::NodeId arbiter_;
  net::NodeId monitor_;
  std::uint64_t epoch_ = 1;
  std::uint32_t counter_ = 0;           ///< NEW-ARBITER dispatch counter.
  stats::MovingWindow q_sizes_;         ///< Q-list sizes; §4.1 variant only.

  // Requester state.
  std::optional<mutex::CsRequest> pending_;
  PendingState pending_state_ = PendingState::kNone;
  std::uint32_t miss_count_ = 0;
  std::uint32_t retry_count_ = 0;
  runtime::TimerId token_timeout_timer_;
  runtime::TimerId request_retry_timer_;

  // Token state.
  bool have_token_ = false;
  bool suspended_ = false;              ///< Held still during invalidation.
  QList q_;
  std::vector<std::uint64_t> last_granted_;  ///< Sequenced variant's L array.

  // Arbiter state.
  bool is_arbiter_ = false;
  ArbiterPhase phase_ = ArbiterPhase::kNone;
  QList collect_q_;
  runtime::TimerId window_timer_;
  net::NodeId prev_arbiter_;
  QList last_batch_q_;                  ///< Q that elected me (ENQUIRY set).
  std::uint64_t times_arbiter_ = 0;

  // Forwarding phase.
  bool forwarding_ = false;
  runtime::TimerId forwarding_timer_;

  // Monitor state.
  QList monitor_buffer_;
  runtime::TimerId monitor_patience_timer_;

  // Recovery state.
  bool invalidation_running_ = false;
  std::uint64_t enquiry_round_ = 0;
  std::uint64_t replied_waiting_round_ = 0;  ///< Round I told "waiting".
  std::size_t round_enquiries_ = 0;     ///< ENQUIRYs sent this round.
  struct ReplyInfo {
    TokenStatus status = TokenStatus::kWaiting;
    std::uint64_t view_epoch = 0;
    net::NodeId view_arbiter{-1};
    QList view_q;
  };
  std::unordered_map<net::NodeId, ReplyInfo> replies_;
  QList waiting_entries_;
  runtime::TimerId enquiry_timer_;
  runtime::TimerId watchdog_timer_;
  runtime::TimerId probe_timer_;

  // Partition-safe recovery state (quorum mode).  The freshest dispatch
  // view this node has witnessed: the epoch, the arbiter it elected, and
  // the Q-list it scheduled — i.e. who could legitimately hold the token.
  // Kept only under recovery, the one mode that reads it.
  std::uint64_t view_epoch_ = 0;
  net::NodeId view_arbiter_{-1};
  QList view_q_;
  std::uint64_t last_regen_round_ = 0;   ///< Round that last minted a token.
  std::uint32_t quorum_blocked_streak_ = 0;
  runtime::TimerId quorum_retry_timer_;
};

}  // namespace dmx::core
