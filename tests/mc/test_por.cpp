// The partial-order-reduction subsystem (mc/por/): the differential
// soundness sweep over every bundled scenario — on exhaustive runs kSleep
// must report the identical violation set, the identical unique-state and
// quiescent-state counts, and fewer (or equal) transitions than the
// unreduced search — plus strict-reduction checks on the paper scenarios,
// parallel/frontier composition, and SleepStore mechanics.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "apps/scenarios.h"
#include "mc/checker.h"
#include "mc/por/sleep.h"

namespace nicemc::mc {
namespace {

CheckerResult run_reduced(apps::Scenario s, Reduction reduction,
                          unsigned threads = 1,
                          FrontierKind frontier = FrontierKind::kDfs) {
  CheckerOptions opt;
  opt.stop_at_first_violation = false;
  opt.reduction = reduction;
  opt.threads = threads;
  opt.frontier = frontier;
  Checker checker(s.config, opt, s.properties);
  return checker.run();
}

// The hard contract of the tentpole: a sound reduction prunes only
// redundant interleavings, never states or violations. Unique-state and
// quiescent-state counts are exact equalities because this checker's
// properties are state predicates (quiescence checks run at every
// terminal state; monitor state is part of state identity).
TEST(Por, DifferentialSoundnessSweepAllBundledScenarios) {
  for (const apps::NamedScenario& ns : apps::bundled_scenarios()) {
    const CheckerResult none = run_reduced(ns.make(), Reduction::kNone);
    ASSERT_TRUE(none.exhausted) << ns.name;
    const CheckerResult red = run_reduced(ns.make(), Reduction::kSleep);
    EXPECT_TRUE(red.exhausted) << ns.name;
    EXPECT_EQ(red.unique_states, none.unique_states) << ns.name;
    EXPECT_EQ(red.quiescent_states, none.quiescent_states) << ns.name;
    EXPECT_EQ(violation_key_set(red), violation_key_set(none)) << ns.name;
    EXPECT_LE(red.transitions, none.transitions) << ns.name;
    // Every state but the root is discovered by exactly one non-revisit
    // transition: transitions = (unique-1) + revisits + violating.
    EXPECT_GE(red.transitions - red.revisits, red.unique_states - 1)
        << ns.name;
  }
}

TEST(Por, StrictReductionOnPaperScenarios) {
  // The acceptance bar: strictly fewer transitions on the 2-ping pyswitch
  // chain and the load-balancer scenarios.
  const auto strict = [](apps::Scenario a, apps::Scenario b,
                         const char* name) {
    const CheckerResult none = run_reduced(std::move(a), Reduction::kNone);
    const CheckerResult red = run_reduced(std::move(b), Reduction::kSleep);
    EXPECT_LT(red.transitions, none.transitions) << name;
  };
  strict(apps::pyswitch_ping_chain(2), apps::pyswitch_ping_chain(2),
         "pyswitch-ping2");
  apps::LbScenarioOptions lb;
  lb.fix_release_packet = true;
  lb.fix_install_before_delete = true;
  lb.fix_discard_arp = true;
  lb.fix_check_assignments = true;
  lb.client_sends_arp = true;
  strict(apps::lb_scenario(lb), apps::lb_scenario(lb), "lb-fixed");
  strict(apps::lb_scenario({}), apps::lb_scenario({}), "lb-bugs");
}

TEST(Por, ReductionFindsKnownBugStopAtFirst) {
  // Default stop-at-first mode still finds BUG-II under reduction, with a
  // replayable trace.
  auto s = apps::pyswitch_bug2();
  CheckerOptions opt;
  opt.reduction = Reduction::kSleep;
  Checker checker(s.config, opt, s.properties);
  const CheckerResult r = checker.run();
  ASSERT_TRUE(r.found_violation());
  EXPECT_FALSE(r.violations.front().trace.empty());
  EXPECT_EQ(r.violations.front().violation.property, "StrictDirectPaths");
}

TEST(Por, ParallelDriverComposesWithReduction) {
  // Sleep sets ride on SearchNodes and the SleepStore is lock-striped, so
  // the parallel driver keeps the soundness contract: same states, same
  // violations. (Which arrival claims a re-expansion is schedule-
  // dependent, so the exact transition count may vary between parallel
  // runs — but it never exceeds the unreduced count.)
  apps::LbScenarioOptions o;
  o.fix_install_before_delete = true;
  o.client_sends_arp = true;
  const CheckerResult none = run_reduced(apps::lb_scenario(o),
                                         Reduction::kNone);
  const CheckerResult seq = run_reduced(apps::lb_scenario(o),
                                        Reduction::kSleep);
  for (unsigned threads : {2u, 4u}) {
    const std::string tag = std::to_string(threads) + " threads";
    const CheckerResult par =
        run_reduced(apps::lb_scenario(o), Reduction::kSleep, threads);
    EXPECT_TRUE(par.exhausted) << tag;
    EXPECT_EQ(par.unique_states, seq.unique_states) << tag;
    EXPECT_EQ(violation_key_set(par), violation_key_set(seq)) << tag;
    EXPECT_LE(par.transitions, none.transitions) << tag;
  }
}

TEST(Por, AlternativeFrontiersKeepTheContract) {
  // BFS/random arrival orders shuffle which sleep sets reach a state
  // first; the stored-sleep re-expansion rule keeps coverage exact.
  const CheckerResult none =
      run_reduced(apps::pyswitch_ping_chain(2), Reduction::kNone);
  for (const FrontierKind kind :
       {FrontierKind::kBfs, FrontierKind::kRandom}) {
    const std::string tag = frontier_name(kind);
    const CheckerResult red = run_reduced(apps::pyswitch_ping_chain(2),
                                          Reduction::kSleep, 1, kind);
    EXPECT_TRUE(red.exhausted) << tag;
    EXPECT_EQ(red.unique_states, none.unique_states) << tag;
    EXPECT_EQ(violation_key_set(red), violation_key_set(none)) << tag;
    EXPECT_LE(red.transitions, none.transitions) << tag;
  }
}

TEST(Por, ReductionIsInertUnderNoDelay) {
  // NO-DELAY's drain_lockstep runs inside every apply — controller
  // dispatches and installs at arbitrary switches that no per-transition
  // footprint could attribute. compute_footprint therefore returns a
  // universal (conflicts-with-everything) footprint under cfg.no_delay:
  // the reduced search must degenerate to exactly the unreduced one —
  // same states, same violations, same transition count.
  const auto make = [](auto factory) {
    auto s = factory();
    CheckerOptions opt;
    opt.stop_at_first_violation = false;
    apps::set_strategy(s, opt, Strategy::kNoDelay);
    return std::pair{std::move(s), opt};
  };
  const auto sweep = [&](auto factory, const char* name) {
    auto [s_none, opt_none] = make(factory);
    Checker c_none(s_none.config, opt_none, s_none.properties);
    const CheckerResult none = c_none.run();
    auto [s_red, opt_red] = make(factory);
    opt_red.reduction = Reduction::kSleep;
    Checker c_red(s_red.config, opt_red, s_red.properties);
    const CheckerResult red = c_red.run();
    EXPECT_EQ(red.transitions, none.transitions) << name;
    EXPECT_EQ(red.unique_states, none.unique_states) << name;
    EXPECT_EQ(violation_key_set(red), violation_key_set(none)) << name;
    EXPECT_EQ(red.exhausted, none.exhausted) << name;
  };
  sweep([] { return apps::pyswitch_bug3(); }, "pyswitch-bug3");
  sweep([] { return apps::lb_scenario({}); }, "lb-bugs");
}

TEST(Por, ReductionComposesWithFlowIr) {
  // Strategies prune the enabled set before the reduction layer sees it.
  // FLOW-IR is a pure function of the canonical state (flow grouping over
  // packet headers), so reduction under FLOW-IR keeps the exact same
  // contract as under PKT-SEQ. UNUSUAL is deliberately absent here: its
  // filter keys on controller→switch send-order tags that are excluded
  // from canonical state identity, so which orderings survive depends on
  // which path first reaches a state — any change in arrival order
  // (reduction included) legitimately shifts its explored subspace.
  CheckerOptions base;
  base.stop_at_first_violation = false;
  base.strategy = Strategy::kFlowIr;
  auto s1 = apps::pyswitch_ping_chain(2);
  Checker c1(s1.config, base, s1.properties);
  const CheckerResult none = c1.run();

  CheckerOptions opt = base;
  opt.reduction = Reduction::kSleep;
  auto s2 = apps::pyswitch_ping_chain(2);
  Checker c2(s2.config, opt, s2.properties);
  const CheckerResult red = c2.run();

  EXPECT_TRUE(red.exhausted);
  EXPECT_EQ(red.unique_states, none.unique_states);
  EXPECT_LE(red.transitions, none.transitions);
}

TEST(Por, SleepStoreArrivalSemantics) {
  por::SleepStore store(4);
  const std::string id = "state-identity";
  por::Footprint fp;

  por::SleepSet z1;
  z1.push_back(por::SleepEntry{10, fp});
  z1.push_back(por::SleepEntry{20, fp});
  const auto first = store.arrive(id, z1);
  EXPECT_TRUE(first.first);
  EXPECT_TRUE(first.explore.empty());

  // Revisit with a smaller sleep set: the difference must be re-expanded
  // and the stored set shrinks to the intersection.
  por::SleepSet z2;
  z2.push_back(por::SleepEntry{20, fp});
  const auto second = store.arrive(id, z2);
  EXPECT_FALSE(second.first);
  EXPECT_EQ(second.explore, (std::vector<std::uint64_t>{10}));

  // 10 is no longer stored-slept; arriving without it re-expands nothing.
  const auto third = store.arrive(id, {});
  EXPECT_FALSE(third.first);
  EXPECT_EQ(third.explore, (std::vector<std::uint64_t>{20}));
  const auto fourth = store.arrive(id, {});
  EXPECT_FALSE(fourth.first);
  EXPECT_TRUE(fourth.explore.empty());

  EXPECT_EQ(store.states(), 1u);
}

TEST(Por, SleepStoreKeysOnTrueIdentity) {
  // Two distinct states must keep separate sleep sets even if they land
  // in the same shard: the store keys on the seen-set's true identity
  // (blob or id tuple); an internal hash of those bytes only selects the
  // shard.
  por::SleepStore store(4);
  por::Footprint fp;

  por::SleepSet z;
  z.push_back(por::SleepEntry{10, fp});
  EXPECT_TRUE(store.arrive("state-a", z).first);
  // A different state colliding on the hash is a fresh first arrival, and
  // its empty sleep set must not dig into state-a's bookkeeping.
  const auto other = store.arrive("state-b", {});
  EXPECT_TRUE(other.first);
  EXPECT_TRUE(other.explore.empty());
  EXPECT_EQ(store.states(), 2u);

  // state-a's stored sleep set survived the collision untouched.
  const auto revisit = store.arrive("state-a", {});
  EXPECT_FALSE(revisit.first);
  EXPECT_EQ(revisit.explore, (std::vector<std::uint64_t>{10}));
}

}  // namespace
}  // namespace nicemc::mc
