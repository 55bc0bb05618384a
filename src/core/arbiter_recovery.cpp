// ArbiterMutex's §6 failure recovery and its partition-safe quorum guard:
// the lost-token WARNING and two-phase invalidation, the failed-arbiter
// watchdog with PROBE/takeover, and the guard on token regeneration.  The
// basic algorithm and its §2.4/§4.1/§5.2 variants are in arbiter_mutex.cpp.
#include "core/arbiter_mutex.hpp"

#include <algorithm>
#include <cstdint>
#include <string>
#include <unordered_set>
#include <utility>

#include "core/events.hpp"

namespace dmx::core {

namespace {

/// Retry delay after a quorum-blocked invalidation round; it doubles per
/// consecutive blocked round up to the cap.
constexpr sim::SimTime kQuorumBackoff =
    sim::SimTime::ticks(sim::SimTime::kTicksPerUnit);
constexpr sim::SimTime kQuorumBackoffCap = kQuorumBackoff * 8;

}  // namespace

// ---------------------------------------------------------------------------
// Recovery plane (§6)
// ---------------------------------------------------------------------------

void ArbiterMutex::arm_token_timeout() {
  if (!params_.recovery) return;
  cancel_timer(token_timeout_timer_);
  token_timeout_timer_ =
      set_timer(params_.token_timeout, [this] { on_token_timeout(); });
}

void ArbiterMutex::on_token_timeout() {
  if (have_token_) return;
  if (is_arbiter_) {
    if (!invalidation_running_) start_invalidation();
  } else if (arbiter_.valid() && arbiter_ != id()) {
    ++stats_.warnings_sent;
    const std::uint64_t rid = pending_ ? pending_->request_id : 0;
    auto w = net::make_payload_mut<WarningMsg>();
    w->request_id = rid;
    send(arbiter_, std::move(w));
  }
  arm_token_timeout();  // keep watching until the token shows up
}

void ArbiterMutex::on_warning(const net::Envelope&, const WarningMsg&) {
  if (!params_.recovery) return;
  if (!is_arbiter_ || have_token_ || invalidation_running_) return;
  start_invalidation();
}

void ArbiterMutex::start_invalidation() {
  invalidation_running_ = true;
  ++enquiry_round_;
  replies_.clear();
  waiting_entries_.clear();
  std::unordered_set<net::NodeId> targets;
  if (params_.recovery_quorum) {
    // Quorum mode enquires the whole cluster: the majority count is over N,
    // and any node may carry the freshest view of who could hold the token.
    for (std::size_t i = 0; i < n_; ++i) {
      const net::NodeId nid{static_cast<std::int32_t>(i)};
      if (nid != id()) targets.insert(nid);
    }
  } else {
    for (const QEntry& e : last_batch_q_) {
      if (e.node != id()) targets.insert(e.node);
    }
    if (prev_arbiter_.valid() && prev_arbiter_ != id()) {
      targets.insert(prev_arbiter_);
    }
    if (targets.empty()) {
      // Takeover case: no known batch — ask everyone.
      for (std::size_t i = 0; i < n_; ++i) {
        const net::NodeId nid{static_cast<std::int32_t>(i)};
        if (nid != id()) targets.insert(nid);
      }
    }
  }
  emitf(kEvRecoveryInvalidation,
        [&] {
          return "two-phase invalidation round " +
                 std::to_string(enquiry_round_) + " (" +
                 std::to_string(targets.size()) + " enquiries)";
        },
        0, static_cast<std::int64_t>(enquiry_round_),
        static_cast<double>(targets.size()));
  round_enquiries_ = targets.size();
  for (net::NodeId t : targets) {
    auto e = net::make_payload_mut<EnquiryMsg>();
    e->round = enquiry_round_;
    send(t, std::move(e));
    ++stats_.enquiries_sent;
  }
  cancel_timer(enquiry_timer_);
  enquiry_timer_ =
      set_timer(params_.enquiry_timeout, [this] { conclude_invalidation(); });
}

void ArbiterMutex::on_enquiry(const net::Envelope& env, const EnquiryMsg& msg) {
  auto reply = net::make_payload_mut<EnquiryReplyMsg>();
  reply->round = msg.round;
  if (have_token_) {
    reply->status = TokenStatus::kHaveToken;
    suspended_ = true;  // phase 1: freeze the token until RESUME/INVALIDATE
  } else if (pending_.has_value() &&
             pending_state_ == PendingState::kScheduled) {
    reply->status = TokenStatus::kWaiting;
    reply->entry = make_own_entry();
    replied_waiting_round_ = msg.round;
  } else {
    reply->status = TokenStatus::kExecutedAndPassed;
  }
  reply->view_epoch = view_epoch_;
  reply->view_arbiter = view_arbiter_;
  reply->view_q = view_q_;
  send(env.src, std::move(reply));
  if (params_.recovery_quorum && have_token_ && is_arbiter_) {
    // Heal-time reconciliation: an ENQUIRY reaching a token-holding arbiter
    // means some other node believes arbitership is orphaned — typically a
    // candidate on the far side of a healed partition.  Its arrival is
    // proof the link works again; re-announce arbitership so that side
    // repoints without replaying stale grants (our epoch rides along,
    // superseding older beliefs).
    ++stats_.quorum_reconciles;
    emitf(kEvQuorumReconcile,
          [&env] {
            return "re-announcing arbitership to healed node " +
                   std::to_string(env.src.value());
          },
          0, env.src.value());
    announce(id(), {});
  }
}

void ArbiterMutex::on_enquiry_reply(const net::Envelope& env,
                                    const EnquiryReplyMsg& msg) {
  if (!invalidation_running_ || msg.round != enquiry_round_) {
    if (msg.status == TokenStatus::kHaveToken) {
      if (params_.recovery_quorum && last_regen_round_ < msg.round) {
        // Quorum mode parked that round without regenerating: the surfaced
        // token is the genuine one, not a superseded duplicate — let it
        // proceed instead of ordering the only token destroyed.
        auto r = net::make_payload_mut<ResumeMsg>();
        r->round = msg.round;
        send(env.src, std::move(r));
        ++stats_.resumes_sent;
        arm_token_timeout();
        clear_quorum_backoff();
        return;
      }
      // A token surfaced after we concluded loss and regenerated: it is
      // stale under the new epoch — order it discarded.
      auto inv = net::make_payload_mut<InvalidateMsg>();
      inv->round = msg.round;
      inv->new_epoch = epoch_;
      send(env.src, std::move(inv));
      ++stats_.invalidates_sent;
    }
    return;
  }
  ReplyInfo& info = replies_[env.src];
  info.status = msg.status;
  info.view_epoch = msg.view_epoch;
  info.view_arbiter = msg.view_arbiter;
  info.view_q = msg.view_q;
  if (msg.status == TokenStatus::kHaveToken) {
    // Phase 2, token found: everything resumes.
    auto r = net::make_payload_mut<ResumeMsg>();
    r->round = msg.round;
    send(env.src, std::move(r));
    ++stats_.resumes_sent;
    invalidation_running_ = false;
    cancel_timer(enquiry_timer_);
    arm_token_timeout();  // keep waiting for the token to finish its route
    clear_quorum_backoff();
    return;
  }
  if (msg.status == TokenStatus::kWaiting) {
    if (!q_contains(waiting_entries_, msg.entry.request_id)) {
      waiting_entries_.push_back(msg.entry);
    }
  }
  if (replies_.size() >= round_enquiries_) {
    conclude_invalidation();
  }
}

void ArbiterMutex::conclude_invalidation() {
  if (!invalidation_running_) return;
  invalidation_running_ = false;
  cancel_timer(enquiry_timer_);
  if (params_.recovery_quorum && !quorum_regeneration_allowed()) {
    park_invalidation();
    return;
  }
  // Phase 2, token lost: invalidate the waiting nodes' expectations and
  // regenerate the token under a new epoch, with the waiters at the front
  // of the Q-list.  Non-responders are presumed failed and excluded.
  ++epoch_;
  last_regen_round_ = enquiry_round_;
  clear_quorum_backoff();
  for (const QEntry& e : waiting_entries_) {
    auto inv = net::make_payload_mut<InvalidateMsg>();
    inv->round = enquiry_round_;
    inv->new_epoch = epoch_;
    send(e.node, std::move(inv));
    ++stats_.invalidates_sent;
  }
  collect_q_.insert(collect_q_.begin(), waiting_entries_.begin(),
                    waiting_entries_.end());
  if (pending_.has_value() && pending_state_ == PendingState::kScheduled &&
      !q_contains(collect_q_, pending_->request_id)) {
    collect_q_.insert(collect_q_.begin(), make_own_entry());
  }
  waiting_entries_.clear();
  have_token_ = true;
  suspended_ = false;
  q_.clear();
  last_batch_q_.clear();
  // The regenerated token lives here until the next dispatch.
  view_epoch_ = epoch_;
  view_arbiter_ = id();
  view_q_.clear();
  ++stats_.tokens_regenerated;
  emitf(kEvTokenRegenerated,
        [this] {
          return "token regenerated, epoch " + std::to_string(epoch_);
        },
        0, static_cast<std::int64_t>(epoch_));
  resume_collection();
}

void ArbiterMutex::on_resume(const net::Envelope&, const ResumeMsg& msg) {
  if (replied_waiting_round_ == msg.round) replied_waiting_round_ = 0;
  if (!suspended_) return;
  suspended_ = false;
  emitf(kEvRecoveryResumed, [] { return std::string("resumed"); });
  if (have_token_ && pending_state_ != PendingState::kInCs) process_token();
}

void ArbiterMutex::on_invalidate(const net::Envelope&,
                                 const InvalidateMsg& msg) {
  if (params_.recovery_quorum && msg.new_epoch <= epoch_ && have_token_) {
    // Quorum mode: only a genuinely newer epoch may destroy a held token.
    // A candidate that parked (no epoch bump) knows less than we do — its
    // stale INVALIDATE must not kill the cluster's only token.  Treat it
    // as a resume so a phase-1 freeze cannot wedge us.
    replied_waiting_round_ = 0;
    if (suspended_) {
      suspended_ = false;
      if (pending_state_ != PendingState::kInCs) process_token();
    }
    return;
  }
  if (msg.new_epoch > epoch_) epoch_ = msg.new_epoch;
  replied_waiting_round_ = 0;
  if (have_token_) {
    // Our (suspended or late-arriving) token has been superseded.
    have_token_ = false;
    suspended_ = false;
    q_.clear();
    ++stats_.stale_tokens_discarded;
    emitf(kEvTokenInvalidated,
          [] { return std::string("held token invalidated"); });
  }
  if (pending_.has_value() && pending_state_ == PendingState::kScheduled) {
    arm_token_timeout();  // the regenerated token will reach us
  }
}

void ArbiterMutex::arm_arbiter_watchdog() {
  if (!params_.recovery) return;
  cancel_timer(watchdog_timer_);
  watchdog_timer_ =
      set_timer(params_.arbiter_timeout, [this] { on_successor_silent(); });
}

void ArbiterMutex::on_successor_silent() {
  if (is_arbiter_ || arbiter_ == id()) return;
  // A probe is already in flight: let it reach its verdict (a reply, or the
  // probe_timeout takeover) instead of resetting the clock.  Under loss,
  // repeated broadcast-retry escalations would otherwise keep cancelling
  // and re-arming the probe, and a live-but-slow arbiter whose replies are
  // being dropped would be usurped by whichever probe happens to time out.
  if (timer_pending(probe_timer_)) return;
  ++stats_.probes_sent;
  emitf(kEvRecoveryProbe,
        [this] {
          return "probing silent arbiter " + std::to_string(arbiter_.value());
        },
        0, arbiter_.value());
  send(arbiter_, net::make_payload<ProbeMsg>());
  cancel_timer(probe_timer_);
  probe_timer_ =
      set_timer(params_.probe_timeout, [this] { takeover_arbitership(); });
}

void ArbiterMutex::on_probe(const net::Envelope& env, const ProbeMsg&) {
  send(env.src, net::make_payload<ProbeReplyMsg>(is_arbiter_));
}

void ArbiterMutex::on_probe_reply(const net::Envelope& env,
                                  const ProbeReplyMsg& msg) {
  cancel_timer(probe_timer_);
  if (msg.is_arbiter || is_arbiter_ || arbiter_ != env.src) {
    // The successor is alive and on duty (it may simply have no demand to
    // dispatch yet): the hand-off window is confirmed and the watchdog's
    // job is done.  Not re-arming also lets an idle system go quiet.
  } else {
    // The successor is alive but never learned it was elected (its
    // NEW-ARBITER was lost): arbitership is orphaned — take over.
    takeover_arbitership();
  }
}

void ArbiterMutex::takeover_arbitership() {
  ++stats_.arbiter_takeovers;
  emitf(kEvRecoveryTakeover, [] { return std::string("arbiter takeover"); });
  arbiter_ = id();
  become_arbiter(net::NodeId{}, QList{});
  announce(id(), {});
  if (pending_.has_value() && pending_state_ != PendingState::kInCs &&
      !q_contains(collect_q_, pending_->request_id)) {
    pending_state_ = PendingState::kSent;
    arbiter_add_request(make_own_entry(), /*from_monitor=*/true);
  }
}

// ---------------------------------------------------------------------------
// Partition-safe recovery plane (quorum mode, beyond the paper)
// ---------------------------------------------------------------------------

void ArbiterMutex::note_dispatch_view(std::uint64_t epoch, net::NodeId arb,
                                      const QList& q) {
  // Only §6 ENQUIRY replies and the quorum guard read the view.
  if (!params_.recovery || epoch < view_epoch_) return;
  // An empty Q at the same epoch is a role announcement (takeover,
  // reassert), not a dispatch: it moves no token, so it must not erase the
  // holder knowledge carried by the last real dispatch (or the initial
  // configuration).
  if (epoch == view_epoch_ && q.empty()) return;
  view_epoch_ = epoch;
  view_arbiter_ = arb;
  view_q_ = q;
}

bool ArbiterMutex::quorum_regeneration_allowed() const {
  // (a) Fresh ENQUIRY-REPLYs from a strict majority of N (the candidate
  // counts itself).  A minority partition can never pass this — that alone
  // rules out simultaneous regeneration on both sides of a single cut.
  if (2 * (replies_.size() + 1) <= n_) return false;
  // (b) A majority is not sufficient: the token may sit in the minority
  // (the classic hazard has the cut isolate the in-CS holder).  Every node
  // the freshest views name as a possible holder — the believed arbiter
  // and the Q-list members of each max-epoch dispatch view — must have
  // replied it does not hold the token.  Views at older epochs describe
  // superseded tokens and are ignored.
  std::uint64_t max_epoch = view_epoch_;
  for (const auto& [node, r] : replies_) {
    max_epoch = std::max(max_epoch, r.view_epoch);
  }
  bool unaccounted = false;
  auto check_holder = [&](net::NodeId h) {
    if (h.valid() && h != id() && replies_.find(h) == replies_.end()) {
      unaccounted = true;
    }
  };
  auto scan_view = [&](std::uint64_t e, net::NodeId arb, const QList& q) {
    if (e != max_epoch) return;
    check_holder(arb);
    for (const QEntry& qe : q) check_holder(qe.node);
  };
  scan_view(view_epoch_, view_arbiter_, view_q_);
  for (const auto& [node, r] : replies_) {
    scan_view(r.view_epoch, r.view_arbiter, r.view_q);
  }
  return !unaccounted;
}

void ArbiterMutex::park_invalidation() {
  // Graceful degradation: no second token without the quorum's blessing.
  // Release the round's "waiting" repliers (so a genuinely surfacing token
  // is not stuck suspended at them), keep the collected demand, and retry
  // the invalidation round under bounded exponential backoff — on heal the
  // retried ENQUIRYs reach the other side and resolve the round properly.
  ++stats_.quorum_blocked;
  ++quorum_blocked_streak_;
  emitf(kEvQuorumBlocked,
        [this] {
          return "regeneration blocked: " + std::to_string(replies_.size()) +
                 "/" + std::to_string(n_ - 1) +
                 " replies, quorum or holder coverage unmet (round " +
                 std::to_string(enquiry_round_) + ")";
        },
        0, static_cast<std::int64_t>(enquiry_round_),
        static_cast<double>(replies_.size()));
  for (const auto& [node, r] : replies_) {
    if (r.status == TokenStatus::kWaiting) {
      auto resume = net::make_payload_mut<ResumeMsg>();
      resume->round = enquiry_round_;
      send(node, std::move(resume));
      ++stats_.resumes_sent;
    }
  }
  waiting_entries_.clear();
  replies_.clear();
  const std::uint32_t shift =
      std::min<std::uint32_t>(quorum_blocked_streak_ - 1, 20);
  const sim::SimTime delay =
      std::min(kQuorumBackoff * (std::int64_t{1} << shift), kQuorumBackoffCap);
  cancel_timer(quorum_retry_timer_);
  quorum_retry_timer_ = set_timer(delay, [this] {
    if (is_arbiter_ && !have_token_ && !invalidation_running_) {
      start_invalidation();
    }
  });
}

void ArbiterMutex::clear_quorum_backoff() {
  quorum_blocked_streak_ = 0;
  cancel_timer(quorum_retry_timer_);
}

}  // namespace dmx::core
