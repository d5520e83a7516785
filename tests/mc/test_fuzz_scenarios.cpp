// Randomized scenario differential fuzz: ≥100 seeded mini-scenarios
// (fuzz_scenarios.h — random topology, random app, random host mix and
// packet counts), each swept across every reduction mode × every
// state-store representation × sequential and 4-thread drivers. On an
// exhaustive run every combination must agree with the unreduced
// hash-store baseline on the violation key set, the unique-state count
// and the quiescent-state count; the reducing mode must never explore
// more transitions (parallel transition counts are schedule-dependent
// and only bounded by the unreduced count).
//
// This is the mechanical soundness argument for the reduction layer: the
// algebra of sleep sets and store identities is easy to get subtly
// wrong, so it is established by differential search over a generated
// corpus rather than by inspection.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "fuzz_scenarios.h"
#include "mc/checker.h"
#include "mc/checkpoint.h"
#include "util/hash.h"

namespace nicemc::mc {
namespace {

constexpr std::uint64_t kSeedBase = 1000;
constexpr std::uint64_t kSeeds = 120;  // ≥ 100, per the harness contract

CheckerResult run(std::uint64_t seed, Reduction reduction,
                  util::ShardedSeenSet::Mode store, unsigned threads,
                  bool memo = true, bool telemetry = false) {
  apps::Scenario s = apps::fuzz_scenario(seed);
  CheckerOptions opt;
  opt.stop_at_first_violation = false;
  opt.reduction = reduction;
  opt.state_store = store;
  opt.threads = threads;
  opt.memo = memo;
  opt.telemetry = telemetry;
  Checker checker(s.config, opt, s.properties);
  return checker.run();
}

constexpr Reduction kReductions[] = {Reduction::kNone, Reduction::kSleep};
constexpr util::ShardedSeenSet::Mode kStores[] = {
    util::ShardedSeenSet::Mode::kHash,
    util::ShardedSeenSet::Mode::kFullState,
    util::ShardedSeenSet::Mode::kCollapsed};

TEST(FuzzScenarios, DifferentialSweepAcrossReductionsStoresAndThreads) {
  for (std::uint64_t seed = kSeedBase; seed < kSeedBase + kSeeds; ++seed) {
    const CheckerResult base =
        run(seed, Reduction::kNone, util::ShardedSeenSet::Mode::kHash, 1);
    const std::string tag = apps::fuzz_scenario_name(seed);
    ASSERT_TRUE(base.exhausted) << tag;
    // Generator contract: mini-scenarios stay exhaustively searchable.
    ASSERT_LT(base.transitions, 40000u) << tag;

    const auto base_keys = violation_key_set(base);
    for (const util::ShardedSeenSet::Mode store : kStores) {
      for (const Reduction r : kReductions) {
        for (const unsigned threads : {1u, 4u}) {
          if (r == Reduction::kNone && threads == 1 &&
              store == util::ShardedSeenSet::Mode::kHash) {
            continue;  // that run is `base` itself
          }
          const CheckerResult cr = run(seed, r, store, threads);
          const std::string cell = tag + " / " + reduction_name(r) +
                                   " store=" +
                                   std::to_string(static_cast<int>(store)) +
                                   " threads=" + std::to_string(threads);
          EXPECT_TRUE(cr.exhausted) << cell;
          EXPECT_EQ(cr.unique_states, base.unique_states) << cell;
          EXPECT_EQ(cr.quiescent_states, base.quiescent_states) << cell;
          EXPECT_EQ(violation_key_set(cr), base_keys) << cell;
          if (r == Reduction::kNone) {
            // Unreduced exhaustive runs are count-equivalent in every
            // store and thread configuration.
            EXPECT_EQ(cr.transitions, base.transitions) << cell;
          } else {
            EXPECT_LE(cr.transitions, base.transitions) << cell;
          }
        }
      }
    }
  }
}

TEST(FuzzScenarios, FaultBudgetAxisIsCountIdenticalAcrossTheGrid) {
  // The bounded fault-injection axis: layer one seeded fault class (link
  // failures / controller-channel loss / switch restarts) with a seeded
  // budget of 0–2 onto generated worlds and require the full reduction ×
  // store × thread grid to agree with the unreduced hash-store baseline
  // of the same faulty configuration. Budget 0 pins the cap-gate (the
  // class is enabled but can never fire); budgets 1–2 grow the space with
  // real fault interleavings.
  constexpr std::uint64_t kSubset = 18;
  std::uint64_t swept = 0;
  for (std::uint64_t seed = kSeedBase;
       swept < kSubset && seed < kSeedBase + kSeeds; ++seed) {
    const CheckerResult plain =
        run(seed, Reduction::kNone, util::ShardedSeenSet::Mode::kHash, 1);
    // Faults multiply the space; keep the grid affordable by lifting the
    // axis only onto the smaller worlds.
    if (!plain.exhausted || plain.transitions > 2000) continue;
    const std::uint64_t i = swept++;
    const std::uint32_t budget = static_cast<std::uint32_t>(i % 3);
    const std::uint64_t fault_class = (i / 3) % 3;

    auto make_faulty = [&] {
      apps::Scenario s = apps::fuzz_scenario(seed);
      switch (fault_class) {
        case 0:
          if (!s.topology->links().empty()) {
            s.config.enable_link_faults = true;
            s.config.max_link_failures = budget;
            break;
          }
          [[fallthrough]];  // single-switch world: no links to fail
        case 1:
          s.config.enable_ctrl_channel_faults = true;
          s.config.max_channel_losses = budget;
          break;
        default:
          // Restarts are the heaviest class (they re-enable from any
          // state until the budget runs dry): cap at one reboot.
          s.config.enable_switch_restarts = true;
          s.config.max_switch_restarts = budget == 0 ? 0 : 1;
          break;
      }
      return s;
    };
    auto frun = [&](Reduction r, util::ShardedSeenSet::Mode store,
                    unsigned threads) {
      apps::Scenario s = make_faulty();
      CheckerOptions opt;
      opt.stop_at_first_violation = false;
      opt.reduction = r;
      opt.state_store = store;
      opt.threads = threads;
      Checker checker(s.config, opt, s.properties);
      return checker.run();
    };

    const CheckerResult base =
        frun(Reduction::kNone, util::ShardedSeenSet::Mode::kHash, 1);
    const std::string tag = apps::fuzz_scenario_name(seed) + " class=" +
                            std::to_string(fault_class) + " budget=" +
                            std::to_string(budget);
    ASSERT_TRUE(base.exhausted) << tag;
    if (budget == 0) {
      // Cap 0: the class contributes no transitions at all.
      EXPECT_EQ(base.transitions, plain.transitions) << tag;
      EXPECT_EQ(base.unique_states, plain.unique_states) << tag;
    }
    const auto base_keys = violation_key_set(base);
    for (const util::ShardedSeenSet::Mode store : kStores) {
      for (const Reduction r : kReductions) {
        for (const unsigned threads : {1u, 4u}) {
          if (r == Reduction::kNone && threads == 1 &&
              store == util::ShardedSeenSet::Mode::kHash) {
            continue;  // that run is `base` itself
          }
          const CheckerResult cr = frun(r, store, threads);
          const std::string cell = tag + " / " + reduction_name(r) +
                                   " store=" +
                                   std::to_string(static_cast<int>(store)) +
                                   " threads=" + std::to_string(threads);
          EXPECT_TRUE(cr.exhausted) << cell;
          EXPECT_EQ(cr.unique_states, base.unique_states) << cell;
          EXPECT_EQ(cr.quiescent_states, base.quiescent_states) << cell;
          EXPECT_EQ(violation_key_set(cr), base_keys) << cell;
          if (r == Reduction::kNone) {
            EXPECT_EQ(cr.transitions, base.transitions) << cell;
          } else {
            EXPECT_LE(cr.transitions, base.transitions) << cell;
          }
        }
      }
    }
  }
  EXPECT_EQ(swept, kSubset);
}

TEST(FuzzScenarios, MemoKnobIsCountInvisibleAcrossReductionsAndStores) {
  // The memoization layer (CheckerOptions::memo) caches pure functions —
  // footprints and discovery results — so flipping it must change wall
  // time only, never what the search explores or reports. Differential
  // sweep on a corpus subset: memo-off must reproduce the memo-on counts
  // exactly, per reduction × store cell (sequential, where counts are
  // deterministic).
  constexpr std::uint64_t kSubset = 24;
  for (std::uint64_t seed = kSeedBase; seed < kSeedBase + kSubset; ++seed) {
    const std::string tag = apps::fuzz_scenario_name(seed);
    for (const util::ShardedSeenSet::Mode store : kStores) {
      for (const Reduction r : kReductions) {
        const CheckerResult on = run(seed, r, store, 1, /*memo=*/true);
        const CheckerResult off = run(seed, r, store, 1, /*memo=*/false);
        const std::string cell = tag + " / " + reduction_name(r) +
                                 " store=" +
                                 std::to_string(static_cast<int>(store));
        EXPECT_EQ(on.transitions, off.transitions) << cell;
        EXPECT_EQ(on.unique_states, off.unique_states) << cell;
        EXPECT_EQ(on.quiescent_states, off.quiescent_states) << cell;
        EXPECT_EQ(violation_key_set(on), violation_key_set(off)) << cell;
        // The off runs must not touch the memo at all.
        EXPECT_EQ(off.memo.footprint_hits + off.memo.footprint_misses +
                      off.memo.discover_hits + off.memo.discover_misses +
                      off.memo.bytes,
                  0u)
            << cell;
      }
    }
  }
}

TEST(FuzzScenarios, TelemetryKnobIsCountInvisibleAcrossDrivers) {
  // The observability axis: telemetry is pure observation, so flipping it
  // must never change what the search explores or reports — per
  // reduction, sequential and 4-thread (the parallel driver has its own
  // instrumentation points: idle scopes, gauge publication under the
  // shared lock). Full-binary sanitizer CI jobs run this sweep under
  // TSan/ASan, which is where the reporter-vs-worker relaxed-atomic
  // protocol earns its keep.
  constexpr std::uint64_t kSubset = 16;
  for (std::uint64_t seed = kSeedBase; seed < kSeedBase + kSubset; ++seed) {
    const std::string tag = apps::fuzz_scenario_name(seed);
    for (const Reduction r : kReductions) {
      for (const unsigned threads : {1u, 4u}) {
        const CheckerResult off =
            run(seed, r, util::ShardedSeenSet::Mode::kHash, threads,
                /*memo=*/true, /*telemetry=*/false);
        const CheckerResult on =
            run(seed, r, util::ShardedSeenSet::Mode::kHash, threads,
                /*memo=*/true, /*telemetry=*/true);
        const std::string cell = tag + " / " + reduction_name(r) +
                                 " threads=" + std::to_string(threads);
        EXPECT_EQ(on.unique_states, off.unique_states) << cell;
        EXPECT_EQ(on.quiescent_states, off.quiescent_states) << cell;
        EXPECT_EQ(violation_key_set(on), violation_key_set(off)) << cell;
        if (threads == 1) {
          // Sequential searches are fully deterministic, so the
          // transition count must match exactly too.
          EXPECT_EQ(on.transitions, off.transitions) << cell;
        }
        EXPECT_TRUE(on.telemetry.enabled) << cell;
        EXPECT_FALSE(off.telemetry.enabled) << cell;
      }
    }
  }
}

TEST(FuzzScenarios, SleepKeepsTheContractAcrossFrontiers) {
  // The only corpus-wide reduced sweep under non-DFS frontiers: BFS and
  // random-priority orders shuffle which sleep sets reach a state first,
  // so revisits with smaller sleep sets (and the stored-intersection
  // re-expansion rule) are exercised far more than under DFS.
  for (std::uint64_t seed = kSeedBase; seed < kSeedBase + kSeeds; ++seed) {
    const CheckerResult base =
        run(seed, Reduction::kNone, util::ShardedSeenSet::Mode::kHash, 1);
    for (const FrontierKind kind :
         {FrontierKind::kBfs, FrontierKind::kRandom}) {
      apps::Scenario s = apps::fuzz_scenario(seed);
      CheckerOptions opt;
      opt.stop_at_first_violation = false;
      opt.reduction = Reduction::kSleep;
      opt.frontier = kind;
      Checker checker(s.config, opt, s.properties);
      const CheckerResult cr = checker.run();
      const std::string cell =
          apps::fuzz_scenario_name(seed) + " / " + frontier_name(kind);
      EXPECT_TRUE(cr.exhausted) << cell;
      EXPECT_EQ(cr.unique_states, base.unique_states) << cell;
      EXPECT_EQ(cr.quiescent_states, base.quiescent_states) << cell;
      EXPECT_EQ(violation_key_set(cr), violation_key_set(base)) << cell;
      EXPECT_LE(cr.transitions, base.transitions) << cell;
    }
  }
}

TEST(FuzzScenarios, InterruptAtSeededPointAndResumeIsCountIdentical) {
  // The durability axis (mc/checkpoint.h) of the differential harness:
  // each scenario's search is cut at a seeded random transition count
  // (the halt writes the at-halt checkpoint), resumed without the cap,
  // and must report totals identical to the uninterrupted run. The
  // reduction, store, frontier and thread axes rotate per seed so the
  // subset still covers every combination class (the reduction rotates
  // every two seeds, so each mode meets both thread counts). Kill points past the
  // end of the search double as resume-of-a-finished-run coverage.
  constexpr std::uint64_t kSubset = 32;
  constexpr FrontierKind kFrontiers[] = {
      FrontierKind::kDfs, FrontierKind::kBfs, FrontierKind::kRandom};
  util::SplitMix64 kill_rng(0xD00DFEEDULL);
  for (std::uint64_t seed = kSeedBase; seed < kSeedBase + kSubset; ++seed) {
    const std::uint64_t i = seed - kSeedBase;
    CheckerOptions opt;
    opt.stop_at_first_violation = false;
    opt.reduction = kReductions[(i / 2) % 2];
    opt.state_store = kStores[i % 3];
    opt.frontier = kFrontiers[i % 3];
    opt.threads = (i % 2) == 0 ? 1u : 4u;

    apps::Scenario s = apps::fuzz_scenario(seed);
    const CheckerResult full = [&] {
      apps::Scenario sf = apps::fuzz_scenario(seed);
      Checker c(sf.config, opt, sf.properties);
      return c.run();
    }();
    const std::string cell = apps::fuzz_scenario_name(seed) + " / " +
                             reduction_name(opt.reduction) + " store=" +
                             std::to_string(static_cast<int>(opt.state_store)) +
                             " " + frontier_name(opt.frontier) +
                             " threads=" + std::to_string(opt.threads);
    ASSERT_TRUE(full.exhausted) << cell;

    const std::string path =
        ::testing::TempDir() + "nicemc_fuzz_ckpt_" + std::to_string(seed);
    std::remove(checkpoint_slot_a(path).c_str());
    std::remove(checkpoint_slot_b(path).c_str());
    CheckerOptions cut = opt;
    cut.checkpoint_path = path;
    cut.checkpoint_interval_seconds = 0;
    cut.max_transitions = 1 + kill_rng.next_below(full.transitions + 1);
    {
      apps::Scenario sc = apps::fuzz_scenario(seed);
      Checker c(sc.config, cut, sc.properties);
      (void)c.run();
    }
    cut.max_transitions = ~0ULL;
    cut.resume = true;
    apps::Scenario sr = apps::fuzz_scenario(seed);
    Checker c(sr.config, cut, sr.properties);
    const CheckerResult resumed = c.run();
    EXPECT_TRUE(resumed.exhausted) << cell;
    EXPECT_EQ(resumed.unique_states, full.unique_states) << cell;
    EXPECT_EQ(resumed.quiescent_states, full.quiescent_states) << cell;
    EXPECT_EQ(violation_key_set(resumed), violation_key_set(full)) << cell;
    if (opt.threads == 1 || opt.reduction == Reduction::kNone) {
      EXPECT_EQ(resumed.transitions, full.transitions) << cell;
    }
    std::remove(checkpoint_slot_a(path).c_str());
    std::remove(checkpoint_slot_b(path).c_str());
  }
}

TEST(FuzzScenarios, SymmetryAxisKeepsViolationSetsOnTheCorpus) {
  // The symmetry axis over generated worlds. No fuzz scenario declares
  // orbits, so this isolates the uid-renumbering half of the canonical
  // key (plus the next_uid exclusion rule): across stores and drivers,
  // a symmetry-on run may merge states that differ only in uid
  // allocation history but must report the identical violation key set
  // (violation keys already normalize uid digits) and never *more*
  // unique states than the unreduced baseline.
  constexpr std::uint64_t kSubset = 24;
  for (std::uint64_t seed = kSeedBase; seed < kSeedBase + kSubset; ++seed) {
    const CheckerResult base =
        run(seed, Reduction::kNone, util::ShardedSeenSet::Mode::kHash, 1);
    const std::string tag = apps::fuzz_scenario_name(seed);
    ASSERT_TRUE(base.exhausted) << tag;
    const auto base_keys = violation_key_set(base);
    for (const util::ShardedSeenSet::Mode store : kStores) {
      for (const unsigned threads : {1u, 4u}) {
        apps::Scenario s = apps::fuzz_scenario(seed);
        CheckerOptions opt;
        opt.stop_at_first_violation = false;
        opt.symmetry = true;
        opt.state_store = store;
        opt.threads = threads;
        Checker checker(s.config, opt, s.properties);
        const CheckerResult cr = checker.run();
        const std::string cell = tag + " / sym store=" +
                                 std::to_string(static_cast<int>(store)) +
                                 " threads=" + std::to_string(threads);
        EXPECT_TRUE(cr.exhausted) << cell;
        EXPECT_EQ(violation_key_set(cr), base_keys) << cell;
        EXPECT_LE(cr.unique_states, base.unique_states) << cell;
        EXPECT_LE(cr.quiescent_states, base.quiescent_states) << cell;
        EXPECT_TRUE(cr.symmetry.enabled) << cell;
        EXPECT_EQ(cr.symmetry.orbits, 0u) << cell;
      }
    }
  }
}

TEST(FuzzScenarios, GeneratorIsDeterministicPerSeed) {
  // Same seed → same scenario: the differential sweep compares runs of
  // independently constructed Scenario objects, which is only meaningful
  // if reconstruction is bit-stable.
  for (const std::uint64_t seed : {kSeedBase, kSeedBase + 17}) {
    const CheckerResult a =
        run(seed, Reduction::kNone, util::ShardedSeenSet::Mode::kHash, 1);
    const CheckerResult b =
        run(seed, Reduction::kNone, util::ShardedSeenSet::Mode::kHash, 1);
    EXPECT_EQ(a.transitions, b.transitions);
    EXPECT_EQ(a.unique_states, b.unique_states);
    EXPECT_EQ(violation_key_set(a), violation_key_set(b));
    EXPECT_EQ(apps::fuzz_scenario_name(seed), apps::fuzz_scenario_name(seed));
  }
}

TEST(FuzzScenarios, CorpusCoversAllFamiliesAndFindsViolations) {
  // The corpus must actually exercise the interesting axes: every app
  // family appears, some scenario reports a violation, and some scenario
  // is violation-free (so the equality checks are not vacuous).
  bool pyswitch = false, lb = false, te = false;
  bool violating = false, clean = false;
  for (std::uint64_t seed = kSeedBase; seed < kSeedBase + kSeeds; ++seed) {
    const std::string name = apps::fuzz_scenario_name(seed);
    pyswitch = pyswitch || name.find("pyswitch") != std::string::npos;
    lb = lb || name.find("[lb") != std::string::npos;
    te = te || name.find("[te") != std::string::npos;
    const CheckerResult r =
        run(seed, Reduction::kNone, util::ShardedSeenSet::Mode::kHash, 1);
    violating = violating || r.found_violation();
    clean = clean || (!r.found_violation() && r.exhausted);
  }
  EXPECT_TRUE(pyswitch);
  EXPECT_TRUE(lb);
  EXPECT_TRUE(te);
  EXPECT_TRUE(violating);
  EXPECT_TRUE(clean);
}

}  // namespace
}  // namespace nicemc::mc
