// Message-kind registry: dense-kind assignment, idempotent interning, eager
// registration of every shipped message type, separation from the event-kind
// registry that shares its implementation, and agreement between the
// kind-indexed KindCounter and the string-keyed CounterMap it replaced on the
// network send path.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "core/events.hpp"
#include "core/messages.hpp"
#include "harness/experiment.hpp"
#include "net/msg_kind.hpp"
#include "net/payload.hpp"
#include "obs/event.hpp"
#include "stats/counter_map.hpp"
#include "stats/kind_counter.hpp"

namespace dmx {
namespace {

struct AlphaMsg final : net::Msg<AlphaMsg> {
  DMX_REGISTER_MESSAGE(AlphaMsg, "TEST-ALPHA");
};

struct BetaMsg final : net::Msg<BetaMsg> {
  DMX_REGISTER_MESSAGE(BetaMsg, "TEST-BETA");
};

TEST(MsgKindRegistry, KindsAreStableAndIdempotent) {
  const net::MsgKind a1 = AlphaMsg::message_kind();
  const net::MsgKind a2 = AlphaMsg::message_kind();
  EXPECT_EQ(a1, a2);
  EXPECT_TRUE(a1.valid());

  // Interning the same name again yields the same kind; a different name
  // yields a different one.
  auto& reg = net::MsgKindRegistry::instance();
  EXPECT_EQ(reg.intern("TEST-ALPHA"), a1);
  EXPECT_NE(BetaMsg::message_kind(), a1);

  const std::size_t size_before = reg.size();
  (void)reg.intern("TEST-ALPHA");
  (void)reg.intern("TEST-BETA");
  EXPECT_EQ(reg.size(), size_before);
}

TEST(MsgKindRegistry, NameRoundTripsAndInvalidKindIsSafe) {
  EXPECT_EQ(net::MsgKindRegistry::instance().name(AlphaMsg::message_kind()),
            "TEST-ALPHA");
  EXPECT_EQ(net::MsgKindRegistry::instance().name(net::MsgKind{}),
            "<invalid>");
  EXPECT_FALSE(net::MsgKind{}.valid());
}

TEST(MsgKindRegistry, FindDoesNotCreate) {
  auto& reg = net::MsgKindRegistry::instance();
  const std::size_t size_before = reg.size();
  EXPECT_FALSE(reg.find("NO-SUCH-MESSAGE-TYPE").valid());
  EXPECT_EQ(reg.size(), size_before);
  EXPECT_EQ(reg.find("TEST-ALPHA"), AlphaMsg::message_kind());
}

TEST(MsgKindRegistry, PayloadInstancesCarryTheirKind) {
  const AlphaMsg a;
  EXPECT_EQ(a.kind(), AlphaMsg::message_kind());
  EXPECT_EQ(a.type_name(), "TEST-ALPHA");

  const net::PayloadPtr p = net::make_payload<BetaMsg>();
  EXPECT_NE(net::payload_cast<BetaMsg>(p), nullptr);
  EXPECT_EQ(net::payload_cast<AlphaMsg>(p), nullptr);
}

TEST(MsgKindRegistry, EveryShippedMessageTypeRegistersAtStartup) {
  // Msg<T>'s eager hook registers each linked payload type during static
  // initialization — that is what lets the harness validate name-keyed
  // loss configuration up front.  Guard the full shipped vocabulary.
  const std::vector<std::string> expected = {
      // core arbiter protocol
      "REQUEST", "PRIVILEGE", "NEW-ARBITER", "WARNING", "ENQUIRY",
      "ENQUIRY-REPLY", "RESUME", "INVALIDATE", "PROBE", "PROBE-REPLY",
      // baselines
      "SK-REQUEST", "SK-TOKEN", "LP-REQUEST", "LP-REPLY", "LP-RELEASE",
      "RA-REQUEST", "RA-REPLY", "MK-REQUEST", "MK-LOCKED", "MK-FAILED",
      "MK-INQUIRE", "MK-YIELD", "MK-RELEASE", "C-REQUEST", "C-GRANT",
      "C-RELEASE", "RING-TOKEN", "RING-WAKEUP", "SG-REQUEST", "SG-REPLY",
      "RY-REQUEST", "RY-PRIVILEGE"};
  auto& reg = net::MsgKindRegistry::instance();
  for (const auto& name : expected) {
    EXPECT_TRUE(reg.find(name).valid()) << "unregistered: " << name;
  }
}

TEST(MsgKindRegistry, KindsAreDensePerName) {
  // No two registered names share a kind.
  auto& reg = net::MsgKindRegistry::instance();
  std::set<std::string> names;
  for (const auto& name : reg.names()) {
    EXPECT_TRUE(names.insert(std::string(name)).second)
        << "duplicate name: " << name;
  }
  EXPECT_EQ(names.size(), reg.size());
}

TEST(MsgKindRegistry, MessageAndEventTablesAreSeparate) {
  // One registry template serves both vocabularies; each instance keeps its
  // own names and its own index space.
  const auto& msgs = net::MsgKindRegistry::instance();
  const auto& events = obs::EventKindRegistry::instance();
  ASSERT_TRUE(msgs.find("PRIVILEGE").valid());
  ASSERT_TRUE(events.find("arbiter.dispatch").valid());
  EXPECT_FALSE(msgs.find("arbiter.dispatch").valid());
  EXPECT_FALSE(events.find("PRIVILEGE").valid());
  EXPECT_NE(static_cast<const void*>(&msgs), static_cast<const void*>(&events));
}

TEST(KindCounter, MatchesCounterMapTotals) {
  // Drive both counter styles with the same message stream; translating the
  // kind counter back to names must reproduce the string map exactly.
  stats::KindCounter by_kind;
  stats::CounterMap by_name;
  const std::vector<net::PayloadPtr> stream = {
      net::make_payload<AlphaMsg>(), net::make_payload<BetaMsg>(),
      net::make_payload<AlphaMsg>(), net::make_payload<AlphaMsg>(),
      net::make_payload<BetaMsg>()};
  for (const auto& p : stream) {
    by_kind.increment(p->kind().index());
    by_name.increment(std::string(p->type_name()));
  }
  EXPECT_EQ(by_kind.total(), by_name.total());

  stats::CounterMap translated;
  auto& reg = net::MsgKindRegistry::instance();
  for (std::size_t i = 0; i < by_kind.size(); ++i) {
    if (by_kind.get(i) == 0) continue;
    translated.increment(std::string(reg.name(net::MsgKind::from_index(i))),
                         by_kind.get(i));
  }
  EXPECT_EQ(translated.entries(), by_name.entries());
}

TEST(KindCounter, MergeAndReset) {
  stats::KindCounter a, b;
  a.increment(0, 2);
  a.increment(3);
  b.increment(3, 5);
  b.increment(7);
  a.merge(b);
  EXPECT_EQ(a.get(0), 2u);
  EXPECT_EQ(a.get(3), 6u);
  EXPECT_EQ(a.get(7), 1u);
  EXPECT_EQ(a.total(), 9u);
  a.reset();
  EXPECT_EQ(a.total(), 0u);
}

TEST(LossConfig, UnregisteredTypeNameIsRejected) {
  harness::ExperimentConfig cfg;
  cfg.n_nodes = 3;
  cfg.lambda = 0.5;
  cfg.total_requests = 5;
  cfg.loss_by_type["PRIVILEDGE"] = 0.1;  // typo: must be caught up front
  EXPECT_THROW(harness::run_experiment(cfg), std::invalid_argument);

  cfg.loss_by_type.clear();
  cfg.loss_by_type["PRIVILEGE"] = 0.0;  // registered: accepted
  const auto r = harness::run_experiment(cfg);
  EXPECT_EQ(r.completed, 5u);
}

}  // namespace
}  // namespace dmx
