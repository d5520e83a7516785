// Three-way differential sweep over the explored-state store modes: on
// every bundled scenario, kHash, kFullState and kCollapsed must explore
// the identical state space — identical violation key sets, unique-state
// and quiescent-state counts, and transitions — under the sequential
// driver, the threads=4 shared-deque driver, and partial-order reduction
// (kSleep). Collapsed mode must also deliver its reason to
// exist: collision-proof storage at a fraction of full-state bytes.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "apps/scenarios.h"
#include "mc/checker.h"
#include "util/seen_set.h"

namespace nicemc::mc {
namespace {

using StoreMode = util::ShardedSeenSet::Mode;

const char* mode_name(StoreMode m) {
  switch (m) {
    case StoreMode::kHash:
      return "kHash";
    case StoreMode::kFullState:
      return "kFullState";
    case StoreMode::kCollapsed:
      return "kCollapsed";
  }
  return "?";
}

CheckerResult run_mode(apps::Scenario s, StoreMode mode, unsigned threads = 1,
                       Reduction reduction = Reduction::kNone) {
  CheckerOptions opt;
  opt.stop_at_first_violation = false;
  opt.state_store = mode;
  opt.threads = threads;
  opt.reduction = reduction;
  Checker checker(s.config, opt, s.properties);
  return checker.run();
}

constexpr StoreMode kAllModes[] = {StoreMode::kHash, StoreMode::kFullState,
                                   StoreMode::kCollapsed};

// The store representation must be invisible to the search: same states,
// same counts, same violations, transition for transition. Hash mode is
// the baseline; any divergence would mean either a real 128-bit collision
// (astronomically unlikely on these state counts) or a bug in the
// blob/id-tuple keying.
TEST(CollapseModes, SequentialSweepAllBundledScenarios) {
  for (const apps::NamedScenario& ns : apps::bundled_scenarios()) {
    const CheckerResult base = run_mode(ns.make(), StoreMode::kHash);
    ASSERT_TRUE(base.exhausted) << ns.name;
    for (const StoreMode mode :
         {StoreMode::kFullState, StoreMode::kCollapsed}) {
      const CheckerResult r = run_mode(ns.make(), mode);
      const std::string tag = ns.name + " / " + mode_name(mode);
      EXPECT_TRUE(r.exhausted) << tag;
      EXPECT_EQ(r.unique_states, base.unique_states) << tag;
      EXPECT_EQ(r.quiescent_states, base.quiescent_states) << tag;
      EXPECT_EQ(r.transitions, base.transitions) << tag;
      EXPECT_EQ(violation_key_set(r), violation_key_set(base)) << tag;
    }
  }
}

TEST(CollapseModes, ParallelSweepAllBundledScenarios) {
  // threads=4 exhaustive runs are count-equivalent to sequential in every
  // store mode (transitions included — only ordering differs).
  for (const apps::NamedScenario& ns : apps::bundled_scenarios()) {
    const CheckerResult base = run_mode(ns.make(), StoreMode::kHash);
    for (const StoreMode mode : kAllModes) {
      const CheckerResult r = run_mode(ns.make(), mode, /*threads=*/4);
      const std::string tag = ns.name + " / " + mode_name(mode) + " / par4";
      EXPECT_TRUE(r.exhausted) << tag;
      EXPECT_EQ(r.unique_states, base.unique_states) << tag;
      EXPECT_EQ(r.quiescent_states, base.quiescent_states) << tag;
      EXPECT_EQ(r.transitions, base.transitions) << tag;
      EXPECT_EQ(violation_key_set(r), violation_key_set(base)) << tag;
    }
  }
}

TEST(CollapseModes, ReducedSweepAllBundledScenarios) {
  // Under kSleep the SleepStore keys on the store's true state
  // identity (hash bytes / blob / id tuple), so the reduced search must
  // be mode-invariant too: the sequential reduced run is deterministic,
  // transitions included.
  for (const apps::NamedScenario& ns : apps::bundled_scenarios()) {
    const CheckerResult base = run_mode(ns.make(), StoreMode::kHash,
                                        /*threads=*/1, Reduction::kSleep);
    ASSERT_TRUE(base.exhausted) << ns.name;
    for (const StoreMode mode :
         {StoreMode::kFullState, StoreMode::kCollapsed}) {
      const CheckerResult r =
          run_mode(ns.make(), mode, /*threads=*/1, Reduction::kSleep);
      const std::string tag =
          ns.name + " / " + mode_name(mode) + " / reduced";
      EXPECT_TRUE(r.exhausted) << tag;
      EXPECT_EQ(r.unique_states, base.unique_states) << tag;
      EXPECT_EQ(r.quiescent_states, base.quiescent_states) << tag;
      EXPECT_EQ(r.transitions, base.transitions) << tag;
      EXPECT_EQ(violation_key_set(r), violation_key_set(base)) << tag;
    }
  }
}

TEST(CollapseModes, ReducedParallelKeepsTheSoundnessContract) {
  // Parallel + reduction: which arrival claims a sleep re-expansion is
  // schedule-dependent, so transition counts may vary — states and
  // violations may not.
  for (const apps::NamedScenario& ns : apps::bundled_scenarios()) {
    const CheckerResult base = run_mode(ns.make(), StoreMode::kHash);
    for (const StoreMode mode : kAllModes) {
      const CheckerResult r =
          run_mode(ns.make(), mode, /*threads=*/4, Reduction::kSleep);
      const std::string tag =
          ns.name + " / " + mode_name(mode) + " / reduced par4";
      EXPECT_TRUE(r.exhausted) << tag;
      EXPECT_EQ(r.unique_states, base.unique_states) << tag;
      EXPECT_EQ(r.quiescent_states, base.quiescent_states) << tag;
      EXPECT_LE(r.transitions, base.transitions) << tag;
      EXPECT_EQ(violation_key_set(r), violation_key_set(base)) << tag;
    }
  }
}

TEST(CollapseModes, CollapsedShrinksFullStateStore) {
  // The acceptance bar of the COLLAPSE PR on its canonical workload: on
  // the 2-ping chain the id-tuple store (tuples + interned table) must be
  // at most 0.2× the full blobs, with heavy component-level dedupe.
  const CheckerResult full =
      run_mode(apps::pyswitch_ping_chain(2), StoreMode::kFullState);
  const CheckerResult collapsed =
      run_mode(apps::pyswitch_ping_chain(2), StoreMode::kCollapsed);
  ASSERT_EQ(full.unique_states, collapsed.unique_states);
  EXPECT_LE(5 * collapsed.store_bytes, full.store_bytes);
  // Far fewer distinct component blobs than state·component slots.
  EXPECT_LT(collapsed.collapse.unique_blobs, collapsed.unique_states);
  EXPECT_GT(collapsed.collapse.dedupe_ratio, 1.0);
  // Hash mode reports no interning activity.
  const CheckerResult hash =
      run_mode(apps::pyswitch_ping_chain(2), StoreMode::kHash);
  EXPECT_EQ(hash.collapse.unique_blobs, 0u);
  EXPECT_EQ(hash.collapse.intern_calls, 0u);
}

}  // namespace
}  // namespace nicemc::mc
