// The symmetry-reduction layer (mc/sym_reduce.h): orbit validation, the
// canonical-key unit contract on hand-built states, the differential
// soundness sweep (symmetry on must report the identical canonicalized
// violation set as symmetry off across stores, reduction knobs and thread
// counts, with no more unique states), the k!-collapse acceptance ratios,
// the uid-draw-order regression (states differing only in uid allocation
// history merge), and checkpoint/resume identity with symmetry on.
#include <gtest/gtest.h>

#include <cstdio>
#include <functional>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "apps/scenarios.h"
#include "mc/checker.h"
#include "mc/checkpoint.h"
#include "mc/sym_reduce.h"
#include "util/ser.h"

namespace nicemc::mc {
namespace {

using StoreMode = util::ShardedSeenSet::Mode;

CheckerResult run_opt(const apps::Scenario& s, const CheckerOptions& opt) {
  Checker checker(s.config, opt, s.properties);
  return checker.run();
}

CheckerResult run_sym(const apps::Scenario& s, bool symmetry,
                      StoreMode store = StoreMode::kHash,
                      unsigned threads = 1,
                      Reduction reduction = Reduction::kNone) {
  CheckerOptions opt;
  opt.stop_at_first_violation = false;
  opt.symmetry = symmetry;
  opt.state_store = store;
  opt.threads = threads;
  opt.reduction = reduction;
  return run_opt(s, opt);
}

/// Violation keys with orbit-member identifiers rewritten to orbit-slot
/// placeholders: the unreduced search reports one message per member, the
/// reduced search one per orbit, so *sets* are compared post-rewrite.
std::set<std::string> sym_violation_set(const CheckerResult& r,
                                        const SymContext& sym) {
  std::vector<Violation> vs;
  vs.reserve(r.violations.size());
  for (const ViolationRecord& rec : r.violations) {
    vs.push_back(Violation{rec.violation.property,
                           sym.canonicalize_violation(rec.violation.message)});
  }
  const std::vector<std::string> keys = violation_keys(vs);
  return {keys.begin(), keys.end()};
}

/// Host-send transitions of the initial state, indexed by host id.
std::vector<Transition> initial_sends(const Executor& ex,
                                      const SystemState& initial) {
  DiscoveryCache cache;
  std::vector<Transition> sends;
  for (const Transition& t : ex.enabled(initial, cache)) {
    if (t.kind == TKind::kHostSendScript) sends.push_back(t);
  }
  return sends;
}

// ---- Canonical-key unit contract ------------------------------------------

TEST(SymContext, SingleSendStatesShareOneCanonicalKey) {
  // Three interchangeable clients; after exactly one of them sent its
  // ping, the three successor states are images of each other under the
  // orbit permutation — one canonical key, three raw keys.
  const apps::Scenario s = apps::sym_ping_scenario(3);
  const SymContext sym(s.config);
  EXPECT_EQ(sym.orbit_count(), 1u);
  EXPECT_EQ(sym.orbit_host_count(), 3u);
  EXPECT_FALSE(sym.includes_next_uid());  // scripted senders only

  const Executor ex(s.config, s.properties);
  const SystemState initial = ex.make_initial();
  const std::vector<Transition> sends = initial_sends(ex, initial);
  ASSERT_EQ(sends.size(), 3u);

  std::set<std::string> canonical;
  std::set<std::string> raw;
  for (const Transition& t : sends) {
    SystemState next = initial.clone();
    std::vector<Violation> vs;
    ex.apply(next, t, vs);
    canonical.insert(sym.canonical_key(next, nullptr).key);
    util::Ser ser;
    next.serialize(ser, s.config.canonical_flowtables);
    raw.insert(ser.take());
  }
  EXPECT_EQ(canonical.size(), 1u);  // exactness: one orbit, one key
  EXPECT_EQ(raw.size(), 3u);
  EXPECT_EQ(sym.canonicalizations(), 3u);
}

TEST(SymContext, TwoSendInterleavingsMergeAcrossUidAndRole) {
  // All six ordered pairs (client i sends, then client j) land in three
  // raw two-sent states per unordered pair choice — but a single
  // canonical key: the role permutation maps any sent-pair onto any
  // other, and uid renumbering erases which send drew uid 0.
  const apps::Scenario s = apps::sym_ping_scenario(3);
  const SymContext sym(s.config);
  const Executor ex(s.config, s.properties);
  const SystemState initial = ex.make_initial();
  const std::vector<Transition> sends = initial_sends(ex, initial);
  ASSERT_EQ(sends.size(), 3u);

  std::set<std::string> canonical;
  int pairs = 0;
  for (const Transition& first : sends) {
    for (const Transition& second : sends) {
      if (first.a == second.a) continue;
      SystemState next = initial.clone();
      std::vector<Violation> vs;
      ex.apply(next, first, vs);
      ex.apply(next, second, vs);
      canonical.insert(sym.canonical_key(next, nullptr).key);
      ++pairs;
    }
  }
  EXPECT_EQ(pairs, 6);
  EXPECT_EQ(canonical.size(), 1u);
}

TEST(SymContext, UidDrawOrderAloneMergesWithoutAnyOrbit) {
  // The uid-canonicalization bugfix in isolation: no orbits declared, so
  // only the renumbering pass is active. Two interleavings that differ
  // only in which send drew which uid must produce one canonical key
  // while their raw serializations differ.
  apps::Scenario s = apps::sym_ping_scenario(2);
  s.symmetry.clear();
  s.config.symmetry_orbits.clear();
  const SymContext sym(s.config);
  EXPECT_EQ(sym.orbit_count(), 0u);

  const Executor ex(s.config, s.properties);
  const SystemState initial = ex.make_initial();
  const std::vector<Transition> sends = initial_sends(ex, initial);
  ASSERT_EQ(sends.size(), 2u);

  std::vector<std::string> canonical;
  std::set<std::string> raw;
  for (const auto& [first, second] :
       {std::pair{0, 1}, std::pair{1, 0}}) {
    SystemState next = initial.clone();
    std::vector<Violation> vs;
    ex.apply(next, sends[static_cast<std::size_t>(first)], vs);
    ex.apply(next, sends[static_cast<std::size_t>(second)], vs);
    canonical.push_back(sym.canonical_key(next, nullptr).key);
    util::Ser ser;
    next.serialize(ser, s.config.canonical_flowtables);
    raw.insert(ser.take());
  }
  EXPECT_EQ(raw.size(), 2u);  // next_uid draw order leaks into raw keys
  EXPECT_EQ(canonical[0], canonical[1]);
}

// ---- Orbit validation -----------------------------------------------------

TEST(SymContext, RejectsInvalidOrbitDeclarations) {
  {
    // Members attached to different switches are not interchangeable.
    apps::Scenario s = apps::pyswitch_ping_chain(2);
    s.config.symmetry_orbits = {{0, 1}};
    EXPECT_THROW(SymContext{s.config}, std::invalid_argument);
  }
  {
    apps::Scenario s = apps::sym_ping_scenario(2);
    s.config.symmetry_orbits = {{0}};  // singleton orbit
    EXPECT_THROW(SymContext{s.config}, std::invalid_argument);
  }
  {
    apps::Scenario s = apps::sym_ping_scenario(2);
    s.config.symmetry_orbits = {{0, 0}};  // repeated member
    EXPECT_THROW(SymContext{s.config}, std::invalid_argument);
  }
  {
    apps::Scenario s = apps::sym_ping_scenario(2);
    s.config.symmetry_orbits = {{0, 7}};  // out of range
    EXPECT_THROW(SymContext{s.config}, std::invalid_argument);
  }
  {
    apps::Scenario s = apps::sym_ping_scenario(3);
    s.config.symmetry_orbits = {{0, 1}, {1, 2}};  // overlapping orbits
    EXPECT_THROW(SymContext{s.config}, std::invalid_argument);
  }
  {
    // Client and replica have different behaviours and scripts.
    apps::Scenario s = apps::lb_scenario({});
    s.config.symmetry_orbits = {{0, 1}};
    EXPECT_THROW(SymContext{s.config}, std::invalid_argument);
  }
  {
    // Mobile hosts cannot be renamed (alt locations are per-host).
    apps::Scenario s = apps::pyswitch_bug1();
    s.config.symmetry_orbits = {{0, 1}};
    EXPECT_THROW(SymContext{s.config}, std::invalid_argument);
  }
}

// ---- Differential soundness sweep -----------------------------------------

struct SweepCase {
  std::string name;
  std::function<apps::Scenario()> make;
};

std::vector<SweepCase> sweep_cases() {
  return {
      {"sym-ping2", [] { return apps::sym_ping_scenario(2); }},
      {"lb-sym3", [] { return apps::lb_sym_scenario(3); }},
      {"lb-sym3-bugs", [] { return apps::lb_sym_scenario(3, false); }},
      {"te-sym2", [] { return apps::te_sym_scenario(2); }},
  };
}

TEST(SymDifferential, IdenticalViolationSetsAcrossStoresThreadsReductions) {
  for (const SweepCase& c : sweep_cases()) {
    const apps::Scenario ref = c.make();
    const SymContext sym(ref.config);
    const CheckerResult off = run_sym(ref, /*symmetry=*/false);
    ASSERT_TRUE(off.exhausted) << c.name;
    const std::set<std::string> off_vs = sym_violation_set(off, sym);

    for (const StoreMode store :
         {StoreMode::kHash, StoreMode::kFullState, StoreMode::kCollapsed}) {
      for (const unsigned threads : {1u, 4u}) {
        for (const Reduction red : {Reduction::kNone, Reduction::kSleep}) {
          const apps::Scenario s = c.make();
          const CheckerResult on = run_sym(s, true, store, threads, red);
          const std::string tag = c.name + " / store=" +
                                  std::to_string(static_cast<int>(store)) +
                                  " threads=" + std::to_string(threads) +
                                  " red=" + reduction_name(red);
          EXPECT_TRUE(on.exhausted) << tag;
          EXPECT_EQ(sym_violation_set(on, sym), off_vs) << tag;
          EXPECT_LE(on.unique_states, off.unique_states) << tag;
          EXPECT_LE(on.quiescent_states, off.quiescent_states) << tag;
          EXPECT_TRUE(on.symmetry.enabled) << tag;
          EXPECT_EQ(on.symmetry.orbits, 1u) << tag;
          EXPECT_GT(on.symmetry.canonicalizations, 0u) << tag;
          // Symmetry forces partial-order reduction off: symmetric merges
          // break the sleep-set label contract, so no footprint is ever
          // computed.
          EXPECT_EQ(on.memo.footprint_hits + on.memo.footprint_misses, 0u)
              << tag;
        }
      }
    }
  }
}

TEST(SymDifferential, FactorialCollapseOnBundledFamilies) {
  // The acceptance ratio: on a k-client symmetric scenario the reduced
  // search explores at most 1/(k-1)! of the unreduced unique states.
  {
    const apps::Scenario off_s = apps::lb_sym_scenario(4);  // k = 4
    const CheckerResult off = run_sym(off_s, false);
    const CheckerResult on = run_sym(apps::lb_sym_scenario(4), true);
    ASSERT_TRUE(off.exhausted);
    ASSERT_TRUE(on.exhausted);
    EXPECT_LE(on.unique_states * 6, off.unique_states);  // 1/(4-1)!
  }
  {
    const CheckerResult off = run_sym(apps::sym_ping_scenario(3), false);
    const CheckerResult on = run_sym(apps::sym_ping_scenario(3), true);
    ASSERT_TRUE(off.exhausted);
    ASSERT_TRUE(on.exhausted);
    EXPECT_LE(on.unique_states * 2, off.unique_states);  // 1/(3-1)!
  }
}

// ---- Fault accounting: duplicate SYN spends the packet-fault budget -------

TEST(SymFaults, DupSynSpendsPacketFaultBudget) {
  apps::LbScenarioOptions o;
  o.fix_release_packet = true;
  o.fix_install_before_delete = true;
  o.client_can_dup_syn = true;
  o.data_segments = 2;
  o.check_flow_affinity = true;

  // Default packet-fault budget (2): the duplicate SYN fires and BUG-VII
  // (flow affinity broken across the dup) is found.
  const CheckerResult with_budget = run_sym(apps::lb_scenario(o), false);
  ASSERT_TRUE(with_budget.exhausted);
  ASSERT_FALSE(with_budget.violations.empty());
  EXPECT_EQ(with_budget.violations.front().violation.property,
            "FlowAffinity");

  // Budget 0: the dup is a packet-class fault and must be disabled — the
  // bug becomes unreachable and the state space shrinks.
  apps::Scenario s = apps::lb_scenario(o);
  s.config.max_packet_faults = 0;
  const CheckerResult no_budget = run_sym(s, false);
  ASSERT_TRUE(no_budget.exhausted);
  EXPECT_TRUE(no_budget.violations.empty());
  EXPECT_LT(no_budget.unique_states, with_budget.unique_states);
}

// ---- Checkpoint / resume --------------------------------------------------

std::string sym_ckpt_path(const std::string& tag) {
  const std::string path = ::testing::TempDir() + "nicemc_sym_" + tag;
  std::remove(checkpoint_slot_a(path).c_str());
  std::remove(checkpoint_slot_b(path).c_str());
  return path;
}

void drop_sym_slots(const std::string& path) {
  std::remove(checkpoint_slot_a(path).c_str());
  std::remove(checkpoint_slot_b(path).c_str());
}

TEST(SymResume, InterruptedPlusResumedEqualsUninterrupted) {
  for (const StoreMode store :
       {StoreMode::kHash, StoreMode::kFullState, StoreMode::kCollapsed}) {
    SCOPED_TRACE(static_cast<int>(store));
    CheckerOptions base;
    base.stop_at_first_violation = false;
    base.symmetry = true;
    base.state_store = store;

    const CheckerResult full = run_opt(apps::sym_ping_scenario(3), base);
    ASSERT_TRUE(full.exhausted);

    const std::string path =
        sym_ckpt_path("resume_" + std::to_string(static_cast<int>(store)));
    CheckerOptions opt = base;
    opt.checkpoint_path = path;
    opt.checkpoint_interval_seconds = 0;
    opt.max_transitions = full.transitions / 2 + 1;
    const CheckerResult part = run_opt(apps::sym_ping_scenario(3), opt);
    ASSERT_GE(part.durability.checkpoints_written, 1u);

    opt.max_transitions = ~0ULL;
    opt.resume = true;
    const CheckerResult resumed = run_opt(apps::sym_ping_scenario(3), opt);
    EXPECT_TRUE(resumed.exhausted);
    if (part.hit_limit == LimitReason::kTransitions) {
      EXPECT_TRUE(resumed.durability.resumed);
    }
    EXPECT_EQ(resumed.unique_states, full.unique_states);
    EXPECT_EQ(resumed.quiescent_states, full.quiescent_states);
    EXPECT_EQ(resumed.transitions, full.transitions);
    EXPECT_EQ(violation_key_set(resumed), violation_key_set(full));
    drop_sym_slots(path);
  }
}

TEST(SymResume, SymmetryKnobIsPartOfTheConfigFingerprint) {
  // A checkpoint written without symmetry must not be resumed into a
  // symmetric search (and vice versa): the stored keys mean different
  // things. The mismatch falls back to a fresh run.
  const std::string path = sym_ckpt_path("fingerprint");
  CheckerOptions opt;
  opt.stop_at_first_violation = false;
  opt.checkpoint_path = path;
  opt.checkpoint_interval_seconds = 0;
  const CheckerResult off = run_opt(apps::sym_ping_scenario(2), opt);
  ASSERT_TRUE(off.exhausted);
  ASSERT_GE(off.durability.checkpoints_written, 1u);

  opt.symmetry = true;
  opt.resume = true;
  const CheckerResult on = run_opt(apps::sym_ping_scenario(2), opt);
  EXPECT_TRUE(on.exhausted);
  EXPECT_FALSE(on.durability.resumed);
  drop_sym_slots(path);
}

}  // namespace
}  // namespace nicemc::mc
