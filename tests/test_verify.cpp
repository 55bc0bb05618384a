// Tests for the exhaustive small-N schedule explorer (src/verify/): clean
// algorithms verify with exact deterministic statistics, every seeded
// mutant is caught with the designed violation kind, and counterexamples
// round-trip through the dmx.cex.v1 format and replay byte-identically.
#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "mutex/registry.hpp"
#include "obs/sinks.hpp"
#include "verify/counterexample.hpp"
#include "verify/explorer.hpp"
#include "verify/mutants.hpp"

namespace dmx::verify {
namespace {

VerifyConfig base_config(const std::string& algo) {
  VerifyConfig cfg;
  cfg.algorithm = algo;
  cfg.n_nodes = 3;
  cfg.requests_per_node = 1;
  return cfg;
}

// ------------------------------------------------- clean algorithms

TEST(Explorer, ArbiterN3IsExhaustivelyClean) {
  const VerifyResult res = explore(base_config("arbiter-tp"));
  EXPECT_TRUE(res.ok()) << res.violation->describe();
  EXPECT_TRUE(res.stats.complete);
  EXPECT_EQ(res.stats.truncated, 0u);
  // Exact deterministic counts: any drift means the schedule space (or the
  // pruning) changed and the golden numbers below must be re-derived.
  EXPECT_EQ(res.stats.schedules, 358u);
  EXPECT_EQ(res.stats.terminal, 104u);
  EXPECT_EQ(res.stats.sleep_blocked, 254u);
}

TEST(Explorer, SuzukiKasamiN3IsExhaustivelyClean) {
  const VerifyResult res = explore(base_config("suzuki-kasami"));
  EXPECT_TRUE(res.ok()) << res.violation->describe();
  EXPECT_TRUE(res.stats.complete);
  EXPECT_EQ(res.stats.schedules, 76u);
  EXPECT_EQ(res.stats.terminal, 18u);
}

TEST(Explorer, PathReversalN3IsExhaustivelyClean) {
  const VerifyResult res = explore(base_config("path-reversal"));
  EXPECT_TRUE(res.ok()) << res.violation->describe();
  EXPECT_TRUE(res.stats.complete);
  EXPECT_EQ(res.stats.truncated, 0u);
  EXPECT_EQ(res.stats.schedules, 20u);
  EXPECT_EQ(res.stats.terminal, 10u);
  EXPECT_EQ(res.stats.sleep_blocked, 10u);
}

TEST(Explorer, PathReversalN4IsExhaustivelyClean) {
  VerifyConfig cfg = base_config("path-reversal");
  cfg.n_nodes = 4;
  const VerifyResult res = explore(cfg);
  EXPECT_TRUE(res.ok()) << res.violation->describe();
  EXPECT_TRUE(res.stats.complete);
  EXPECT_EQ(res.stats.schedules, 168u);
  EXPECT_EQ(res.stats.terminal, 102u);
  EXPECT_EQ(res.stats.sleep_blocked, 66u);
}

TEST(Explorer, PathReversalN3TwoRequestsEachIsClean) {
  // Back-to-back requests exercise re-entry through a reversed tree (the
  // second round starts from whatever probable-owner shape round one left).
  VerifyConfig cfg = base_config("path-reversal");
  cfg.requests_per_node = 2;
  const VerifyResult res = explore(cfg);
  EXPECT_TRUE(res.ok()) << res.violation->describe();
  EXPECT_TRUE(res.stats.complete);
  EXPECT_EQ(res.stats.schedules, 101u);
  EXPECT_EQ(res.stats.terminal, 68u);
}

TEST(Explorer, ArbiterWithRecoverySurvivesCrashChoices) {
  // The benchmark's world (perfbench verify_recovery_n3): every statistic
  // is pinned, so a change to how prefixes are replayed must walk exactly
  // the same search.
  VerifyConfig cfg = base_config("arbiter-tp");
  cfg.params.set("recovery", 1.0);
  cfg.fault_plan = "t=0 crash 2";
  const VerifyResult res = explore(cfg);
  EXPECT_TRUE(res.ok()) << res.violation->describe();
  EXPECT_TRUE(res.stats.complete);
  EXPECT_EQ(res.stats.schedules, 12312u);
  EXPECT_EQ(res.stats.terminal, 7344u);
  EXPECT_EQ(res.stats.truncated, 0u);
  EXPECT_EQ(res.stats.sleep_blocked, 4968u);
  EXPECT_EQ(res.stats.transitions, 26741u);
  EXPECT_EQ(res.stats.replayed, 193844u);
  EXPECT_EQ(res.stats.sleep_pruned, 11284u);
  EXPECT_EQ(res.stats.max_frontier, 6u);
  EXPECT_EQ(res.stats.max_depth_reached, 30u);
}

TEST(Explorer, StarvationFreeN3IsExhaustivelyClean) {
  // The §4.1 variant: the adaptive period starts at one dispatch, so the
  // token's route through the monitor (inline at the arbiter, and as a
  // via-monitor PRIVILEGE) and the monitor's NEW-ARBITER are in this
  // search, and the exact counts pin them.
  const VerifyResult res = explore(base_config("arbiter-tp-sf"));
  EXPECT_TRUE(res.ok()) << res.violation->describe();
  EXPECT_TRUE(res.stats.complete);
  EXPECT_EQ(res.stats.truncated, 0u);
  EXPECT_EQ(res.stats.schedules, 5556u);
  EXPECT_EQ(res.stats.terminal, 2699u);
  EXPECT_EQ(res.stats.sleep_blocked, 2857u);
}

TEST(Explorer, StarvationFreeWithRecoverySurvivesCrashChoices) {
  // §6 recovery on top of the monitor route: a crash of node 1 at every
  // reachable state.
  VerifyConfig cfg = base_config("arbiter-tp-sf");
  cfg.params.set("recovery", 1.0);
  cfg.fault_plan = "t=0 crash 1";
  const VerifyResult res = explore(cfg);
  EXPECT_TRUE(res.ok()) << res.violation->describe();
  EXPECT_TRUE(res.stats.complete);
  EXPECT_EQ(res.stats.schedules, 51794u);
  EXPECT_EQ(res.stats.terminal, 40465u);
  EXPECT_EQ(res.stats.truncated, 0u);
  EXPECT_EQ(res.stats.sleep_blocked, 11329u);
}

TEST(Explorer, IdenticalConfigsProduceIdenticalStats) {
  const VerifyResult a = explore(base_config("arbiter-tp"));
  const VerifyResult b = explore(base_config("arbiter-tp"));
  EXPECT_EQ(a.stats.schedules, b.stats.schedules);
  EXPECT_EQ(a.stats.transitions, b.stats.transitions);
  EXPECT_EQ(a.stats.replayed, b.stats.replayed);
  EXPECT_EQ(a.stats.sleep_pruned, b.stats.sleep_pruned);
  EXPECT_EQ(a.stats.max_frontier, b.stats.max_frontier);
  EXPECT_EQ(a.stats.max_depth_reached, b.stats.max_depth_reached);
}

// ------------------------------------------------- nondeterministic worlds
//
// The explorer replays stored choices into fresh Worlds, so a world that is
// not a pure function of its config must make it throw, not explore.  The
// test-only "test-flipping-arbiter" is arbiter-tp with one parameter that
// reads a process-wide count of node builds: the first World's nodes get
// one value, every later World's nodes another.

struct Flip {
  std::string key;
  double first = 0.0;
  double later = 0.0;
  std::size_t builds = 0;
};
Flip g_flip;

VerifyConfig flipping_config(const std::string& key, double first,
                             double later) {
  VerifyConfig cfg = base_config("test-flipping-arbiter");
  (void)cfg.validate();  // registers arbiter-tp before the wrapper
  mutex::Registry::instance().add(
      "test-flipping-arbiter", [](const mutex::FactoryContext& ctx) {
        const bool first_world = g_flip.builds++ < ctx.n_nodes;
        mutex::ParamSet params = ctx.params;
        params.set(g_flip.key, first_world ? g_flip.first : g_flip.later);
        return mutex::Registry::instance().create(
            "arbiter-tp", mutex::FactoryContext{ctx.id, ctx.n_nodes, params});
      });
  g_flip = Flip{key, first, later, 0};
  return cfg;
}

// The explorer's error, or "" if it returned.
std::string replay_error(const VerifyConfig& cfg) {
  try {
    (void)explore(cfg);
  } catch (const std::logic_error& e) {
    return e.what();
  }
  return "";
}

TEST(Explorer, ReplayCatchesAWorldWhoseChoicesChange) {
  // After the first World the arbiter moves: REQUESTs go to another node,
  // so a stored choice's key is no longer enabled.
  const VerifyConfig cfg = flipping_config("initial_arbiter", 0.0, 1.0);
  const std::string error = replay_error(cfg);
  EXPECT_NE(error.find("replay diverged"), std::string::npos) << error;
}

TEST(Explorer, ReplayCatchesAWorldWhoseTimesChange) {
  // After the first World the arbiter's request-collection window (t_req)
  // closes 0.05 units later: every key stays the same, only a pending
  // timer's time moves.  Full asynchrony (negative slack) leaves no window
  // that could hide the shift, so only the check of the stored event time
  // sees it, when the committed collection timer is replayed.  The budget
  // keeps a check that misses it short.
  VerifyConfig cfg = flipping_config("t_req", 0.1, 0.15);
  cfg.time_slack = -1.0;
  cfg.max_schedules = 2000;
  const std::string error = replay_error(cfg);
  EXPECT_NE(error.find("replay diverged"), std::string::npos) << error;
  EXPECT_NE(error.find("\"t 0 #1\""), std::string::npos) << error;
}

// ------------------------------------------------- seeded mutants

TEST(Mutants, BaseNaiveTokenIsCleanWithoutFaults) {
  const VerifyResult res = explore(base_config("mutant-naive-token"));
  EXPECT_TRUE(res.ok()) << res.violation->describe();
  EXPECT_TRUE(res.stats.complete);
}

TEST(Mutants, TokenRegenCausesMutualExclusionViolation) {
  const VerifyResult res = explore(base_config("mutant-token-regen"));
  ASSERT_FALSE(res.ok());
  EXPECT_EQ(res.violation->kind, mutex::Violation::Kind::kMutualExclusion);
  ASSERT_FALSE(res.counterexample.empty());
  // The schedule that races the regeneration watchdog against the live
  // token holder: the final choice fires node 2's regen timer.
  EXPECT_EQ(res.counterexample.back(), "t 2 #1");
}

TEST(Mutants, ReleaseAmnesiaCausesStarvation) {
  const VerifyResult res = explore(base_config("mutant-release-amnesia"));
  ASSERT_FALSE(res.ok());
  EXPECT_EQ(res.violation->kind, mutex::Violation::Kind::kStarvation);
  // Both remaining requesters starve once node 0 parks the token.
  EXPECT_EQ(res.violation->nodes.size(), 2u);
}

TEST(Mutants, AmnesiacRestartIsOnlyWrongUnderCrashRestart) {
  // Without fault choices the restart hook never runs: clean.
  const VerifyResult clean = explore(base_config("mutant-amnesiac-restart"));
  EXPECT_TRUE(clean.ok()) << clean.violation->describe();
  EXPECT_TRUE(clean.stats.complete);

  // With crash+restart of node 0 the resurrected token breaks safety.
  VerifyConfig cfg = base_config("mutant-amnesiac-restart");
  cfg.fault_plan = "t=0 crash 0; t=1 restart 0";
  const VerifyResult res = explore(cfg);
  ASSERT_FALSE(res.ok());
  EXPECT_EQ(res.violation->kind, mutex::Violation::Kind::kMutualExclusion);
}

TEST(Mutants, NoReversalCausesStarvation) {
  // Naimi–Trehel minus the probable-owner flip: the old root gives the
  // token away but stays root, so a later REQUEST parks behind it (and a
  // busy root's single next slot gets overwritten) — a requester starves.
  const VerifyResult res = explore(base_config("mutant-no-reversal"));
  ASSERT_FALSE(res.ok());
  EXPECT_EQ(res.violation->kind, mutex::Violation::Kind::kStarvation);
  ASSERT_FALSE(res.counterexample.empty());

  // The schedule round-trips through dmx.cex.v1 and replays to the same
  // violation.
  Counterexample cex;
  cex.config = base_config("mutant-no-reversal");
  cex.violation_kind =
      std::string(mutex::violation_kind_name(res.violation->kind));
  cex.choices = res.counterexample;
  const Counterexample back = Counterexample::parse(cex.to_string());
  EXPECT_EQ(back.choices, cex.choices);
  const ReplayResult rep = replay(back);
  EXPECT_TRUE(rep.reproduced()) << rep.error;
  EXPECT_EQ(rep.violation->kind, mutex::Violation::Kind::kStarvation);
  EXPECT_EQ(rep.violation->describe(), res.violation->describe());
}

TEST(Mutants, PathReversalStarvesWhenTheTokenHolderCrashes) {
  // Not a seeded mutant: the plain baseline has no crash recovery, so a
  // crash choice that swallows the token is a genuine liveness gap the
  // explorer must find.
  VerifyConfig cfg = base_config("path-reversal");
  cfg.fault_plan = "t=0 crash 0";
  const VerifyResult res = explore(cfg);
  ASSERT_FALSE(res.ok());
  EXPECT_EQ(res.violation->kind, mutex::Violation::Kind::kStarvation);
}

TEST(Mutants, SuzukiKasamiStarvesWhenTheTokenHolderCrashes) {
  // Not a seeded mutant: plain Suzuki–Kasami has no crash recovery, so a
  // crash choice that swallows the token is a genuine liveness gap the
  // explorer must find (and the replay must reproduce).
  VerifyConfig cfg = base_config("suzuki-kasami");
  cfg.fault_plan = "t=0 crash 1";
  const VerifyResult res = explore(cfg);
  ASSERT_FALSE(res.ok());
  EXPECT_EQ(res.violation->kind, mutex::Violation::Kind::kStarvation);

  Counterexample cex;
  cex.config = cfg;
  cex.choices = res.counterexample;
  const ReplayResult rep = replay(cex);
  EXPECT_TRUE(rep.reproduced()) << rep.error;
  EXPECT_EQ(rep.violation->kind, mutex::Violation::Kind::kStarvation);
}

// ------------------------------------------------- counterexample files

TEST(Counterexamples, RoundTripThroughTextFormat) {
  VerifyConfig cfg = base_config("mutant-amnesiac-restart");
  cfg.fault_plan = "t=0 crash 0; t=1 restart 0";
  cfg.params.set("regen_delay", 0.3);
  const VerifyResult res = explore(cfg);
  ASSERT_FALSE(res.ok());

  Counterexample cex;
  cex.config = cfg;
  cex.violation_kind =
      std::string(mutex::violation_kind_name(res.violation->kind));
  cex.choices = res.counterexample;

  const Counterexample back = Counterexample::parse(cex.to_string());
  EXPECT_EQ(back.config.algorithm, cfg.algorithm);
  EXPECT_EQ(back.config.n_nodes, cfg.n_nodes);
  EXPECT_EQ(back.config.fault_plan, cfg.fault_plan);
  EXPECT_EQ(back.config.t_msg, cfg.t_msg);
  EXPECT_EQ(back.config.time_slack, cfg.time_slack);
  EXPECT_EQ(back.config.params.get_num("regen_delay", 0.0), 0.3);
  EXPECT_EQ(back.violation_kind, cex.violation_kind);
  EXPECT_EQ(back.choices, cex.choices);
  // Serialization is canonical: parse∘to_string is the identity on text.
  EXPECT_EQ(back.to_string(), cex.to_string());
}

TEST(Counterexamples, RoundTripKeepsStringParams) {
  // order is the one string-valued key: a file written for order=priority
  // must not replay under FCFS.
  Counterexample cex;
  cex.config = base_config("arbiter-tp");
  cex.config.params.set("order", std::string("priority")).set("t_req", 0.2);
  const std::string text = cex.to_string();
  EXPECT_NE(text.find("\nparam order priority\n"), std::string::npos)
      << text;
  const Counterexample back = Counterexample::parse(text);
  EXPECT_EQ(back.config.params.get_str("order", "fcfs"), "priority");
  EXPECT_EQ(back.config.params.get_num("t_req", 0.0), 0.2);
  EXPECT_EQ(back.to_string(), text);
}

TEST(Counterexamples, ReplayReproducesTheViolation) {
  const VerifyResult res = explore(base_config("mutant-token-regen"));
  ASSERT_FALSE(res.ok());

  Counterexample cex;
  cex.config = base_config("mutant-token-regen");
  cex.choices = res.counterexample;
  const ReplayResult rep = replay(cex);
  EXPECT_TRUE(rep.reproduced()) << rep.error;
  EXPECT_EQ(rep.steps, cex.choices.size());
  EXPECT_EQ(rep.violation->kind, res.violation->kind);
  EXPECT_EQ(rep.violation->describe(), res.violation->describe());
}

TEST(Counterexamples, ReplayTracesAreByteIdentical) {
  const VerifyResult res = explore(base_config("mutant-token-regen"));
  ASSERT_FALSE(res.ok());
  Counterexample cex;
  cex.config = base_config("mutant-token-regen");
  cex.choices = res.counterexample;

  auto trace_once = [&cex] {
    std::ostringstream out;
    {
      auto sink = obs::make_format_sink(obs::TraceFormat::kJsonl, out);
      const ReplayResult rep = replay(cex, sink);
      EXPECT_TRUE(rep.reproduced()) << rep.error;
      sink->flush();
    }
    return out.str();
  };
  const std::string first = trace_once();
  const std::string second = trace_once();
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, second);
}

TEST(Counterexamples, ParserRejectsMalformedInput) {
  EXPECT_THROW(Counterexample::parse(""), std::invalid_argument);
  EXPECT_THROW(Counterexample::parse("dmx.cex.v1\nalgo x\n"),
               std::invalid_argument);  // missing end
  EXPECT_THROW(Counterexample::parse("dmx.cex.v1\nbogus 1\nend\n"),
               std::invalid_argument);  // unknown keyword
  EXPECT_THROW(Counterexample::parse("dmx.cex.v1\nn banana\nend\n"),
               std::invalid_argument);  // bad integer
  EXPECT_THROW(Counterexample::parse("dmx.cex.v1\nend\njunk\n"),
               std::invalid_argument);  // content after end
}

TEST(Counterexamples, ReplayReportsStaleChoiceFiles) {
  // A recorded choice that no longer matches any enabled transition must
  // fail loudly with the step index, not silently diverge.
  Counterexample cex;
  cex.config = base_config("mutant-naive-token");
  cex.choices = {"d 9>9 NO-SUCH-MSG #0"};
  const ReplayResult rep = replay(cex);
  EXPECT_FALSE(rep.reproduced());
  EXPECT_NE(rep.error.find("step 0"), std::string::npos);
}

// ------------------------------------------------- partition-safe recovery
//
// The two directions of the quorum-guard claim, on the same world: one cut
// that isolates the token holder (node 1 after the first dispatch) plus one
// heal, explored exhaustively at slack 0.
//
// All schedule counts below are golden: any drift means the schedule space
// (or the pruning) changed and the numbers must be re-derived.

VerifyConfig partition_config(bool quorum) {
  VerifyConfig cfg = base_config("arbiter-tp");
  cfg.params.set("recovery", 1.0);
  if (quorum) cfg.params.set("recovery_quorum", 1.0);
  cfg.fault_plan = "t=0 partition 1|0,2; t=1 heal";
  cfg.time_slack = 0.0;
  return cfg;
}

TEST(Partition, QuorumGuardedRegenerationIsExhaustivelySafe) {
  const VerifyResult res = explore(partition_config(/*quorum=*/true));
  EXPECT_TRUE(res.ok()) << res.violation->describe();
  EXPECT_TRUE(res.stats.complete);
  EXPECT_EQ(res.stats.schedules, 183961u);
  EXPECT_EQ(res.stats.terminal, 39414u);
  EXPECT_EQ(res.stats.truncated, 19679u);
  EXPECT_EQ(res.stats.sleep_blocked, 124868u);
}

TEST(Partition, QuorumlessRegenerationSplitBrainCounterexample) {
  // Positive control: the same world without the quorum guard regenerates
  // on both sides of the cut and the explorer catches two live tokens.
  const VerifyResult res = explore(partition_config(/*quorum=*/false));
  ASSERT_FALSE(res.ok());
  EXPECT_EQ(res.violation->kind, mutex::Violation::Kind::kTokenDuplicated);
  EXPECT_EQ(res.violation->nodes.size(), 2u);
  EXPECT_NE(res.violation->detail.find("epoch"), std::string::npos)
      << res.violation->detail;
  EXPECT_EQ(res.stats.schedules, 363u);

  // The split-brain schedule round-trips through dmx.cex.v1 and replays.
  Counterexample cex;
  cex.config = partition_config(/*quorum=*/false);
  cex.violation_kind =
      std::string(mutex::violation_kind_name(res.violation->kind));
  cex.choices = res.counterexample;
  const Counterexample back = Counterexample::parse(cex.to_string());
  EXPECT_EQ(back.config.fault_plan, cex.config.fault_plan);
  EXPECT_EQ(back.choices, cex.choices);
  const ReplayResult rep = replay(back);
  EXPECT_TRUE(rep.reproduced()) << rep.error;
  EXPECT_EQ(rep.violation->kind, mutex::Violation::Kind::kTokenDuplicated);
}

// Recovery matrix over the quorum-guarded arbiter: crash-and-restart and
// adversarial token loss, with the guard active, stay exhaustively clean.
// (The N=4 crash cell runs in scripts/verify_smoke.sh, pinned at 830220
// schedules: ~20 s on one core, too slow for the unit suite.)

TEST(Partition, QuorumGuardSurvivesCrashRestartChoices) {
  VerifyConfig cfg = base_config("arbiter-tp");
  cfg.params.set("recovery", 1.0).set("recovery_quorum", 1.0);
  cfg.fault_plan = "t=0 crash 1; t=1 restart 1";
  cfg.time_slack = 0.0;
  const VerifyResult res = explore(cfg);
  EXPECT_TRUE(res.ok()) << res.violation->describe();
  EXPECT_TRUE(res.stats.complete);
  EXPECT_EQ(res.stats.schedules, 123686u);
  EXPECT_EQ(res.stats.terminal, 40732u);
}

TEST(Partition, QuorumGuardSurvivesTokenLossAtN4) {
  VerifyConfig cfg = base_config("arbiter-tp");
  cfg.n_nodes = 4;
  cfg.params.set("recovery", 1.0).set("recovery_quorum", 1.0);
  cfg.fault_plan = "t=0 lose-next PRIVILEGE";
  cfg.time_slack = 0.0;
  const VerifyResult res = explore(cfg);
  EXPECT_TRUE(res.ok()) << res.violation->describe();
  EXPECT_TRUE(res.stats.complete);
  EXPECT_EQ(res.stats.schedules, 80569u);
  EXPECT_EQ(res.stats.terminal, 18906u);
  EXPECT_EQ(res.stats.truncated, 0u);
}

// ------------------------------------------------- reliable transport
//
// With cfg.reliable the nodes run behind the retransmitting transport
// (jitter off), so a lose-next choice attacks the transport frame carrying
// the named protocol message — exactly-once delivery must absorb the drop
// wherever the explorer places it, with no recovery machinery enabled.

TEST(ReliableTransport, ExactlyOnceSurvivesAdversarialDropPlacement) {
  VerifyConfig cfg = base_config("arbiter-tp");
  cfg.reliable = true;
  cfg.time_slack = 0.0;

  cfg.fault_plan = "t=0 lose-next REQUEST";
  const VerifyResult req = explore(cfg);
  EXPECT_TRUE(req.ok()) << req.violation->describe();
  EXPECT_TRUE(req.stats.complete);
  EXPECT_EQ(req.stats.schedules, 2030u);
  EXPECT_EQ(req.stats.truncated, 0u);

  cfg.fault_plan = "t=0 lose-next RT-ACK";  // attack the ack path itself
  const VerifyResult ack = explore(cfg);
  EXPECT_TRUE(ack.ok()) << ack.violation->describe();
  EXPECT_TRUE(ack.stats.complete);
  EXPECT_EQ(ack.stats.schedules, 2918u);

  // The reliable flag is part of counterexample identity.
  Counterexample cex;
  cex.config = cfg;
  cex.choices = {"t 0 #1"};
  const Counterexample back = Counterexample::parse(cex.to_string());
  EXPECT_TRUE(back.config.reliable);
  EXPECT_EQ(back.to_string(), cex.to_string());
}

TEST(ReliableTransport, PathReversalSurvivesAdversarialDropPlacement) {
  // The baseline has no retransmission of its own; behind the reliable
  // transport an adversarially placed drop of either message type must be
  // absorbed with no safety or liveness loss.
  VerifyConfig cfg = base_config("path-reversal");
  cfg.reliable = true;
  cfg.time_slack = 0.0;

  cfg.fault_plan = "t=0 lose-next PR-REQUEST";
  const VerifyResult req = explore(cfg);
  EXPECT_TRUE(req.ok()) << req.violation->describe();
  EXPECT_TRUE(req.stats.complete);
  EXPECT_EQ(req.stats.schedules, 100u);
  EXPECT_EQ(req.stats.truncated, 0u);

  cfg.fault_plan = "t=0 lose-next PR-TOKEN";  // attack the token itself
  const VerifyResult tok = explore(cfg);
  EXPECT_TRUE(tok.ok()) << tok.violation->describe();
  EXPECT_TRUE(tok.stats.complete);
  EXPECT_EQ(tok.stats.schedules, 30u);
}

// ------------------------------------------------- config validation

TEST(VerifyConfig, RejectsOutOfScopeConfigs) {
  VerifyConfig cfg = base_config("arbiter-tp");
  cfg.n_nodes = 5;  // exhaustive exploration is capped at 4
  EXPECT_THROW(cfg.check(), std::invalid_argument);

  cfg = base_config("no-such-algorithm");
  EXPECT_THROW(cfg.check(), std::invalid_argument);

  cfg = base_config("arbiter-tp");
  cfg.fault_plan = "t=1 loss PRIVILEGE=0.5";  // verb outside the verify set
  EXPECT_THROW(cfg.check(), std::invalid_argument);

  cfg = base_config("arbiter-tp");
  cfg.fault_plan = "t=1 partition 0,1|5";  // group names node outside cluster
  EXPECT_THROW(cfg.check(), std::invalid_argument);

  cfg = base_config("arbiter-tp");
  cfg.fault_plan = "t=0 lose-next PRIVILEGE from=9";  // can never fire
  EXPECT_THROW(cfg.check(), std::invalid_argument);

  // A malformed plan reports the parser's message, which already names the
  // fault plan: no second prefix.
  cfg = base_config("arbiter-tp");
  cfg.fault_plan = "t=abc crash 1";
  EXPECT_EQ(cfg.validate(),
            std::vector<std::string>{
                "fault plan: bad time 'abc' in action 't=abc crash 1'"});
  EXPECT_THROW(cfg.check(), std::invalid_argument);

  // Partition and heal are inside the verify set since the partition-safe
  // recovery work: a well-formed cut must be accepted.
  cfg = base_config("arbiter-tp");
  cfg.fault_plan = "t=1 partition 0,1|2; t=2 heal";
  EXPECT_NO_THROW(cfg.check());

  // A parameter value that node 0 cannot be built from is a config error,
  // reported before any World is built.
  const auto bad_param = [](const std::string& algorithm, const char* key,
                            const auto& value) {
    VerifyConfig c = base_config(algorithm);
    c.params.set(key, value);
    return c;
  };
  for (const VerifyConfig& c :
       {bad_param("arbiter-tp", "order", std::string("bogus")),
        bad_param("arbiter-tp", "order", 3.0),
        bad_param("arbiter-tp", "t_req", -1.0),
        bad_param("arbiter-tp", "recovery", std::string("banana")),
        bad_param("arbiter-tp", "initial_arbiter", 5.0),
        bad_param("arbiter-tp-sf", "tau", -1.0)}) {
    EXPECT_THROW(c.check(), std::invalid_argument) << c.algorithm;
  }
  EXPECT_EQ(bad_param("arbiter-tp", "t_req", -1.0).validate(),
            std::vector<std::string>{"param t_req must be a time >= 0, got -1"});
}

}  // namespace
}  // namespace dmx::verify
