// Unit tests for the observability layer (util/telemetry.h): phase
// slicing, histogram invariants, flight-ring wraparound, the NDJSON
// snapshot round-trip, and the reporter's file stream.
#include "util/telemetry.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

namespace nicemc::util {
namespace {

void spin_for(std::chrono::microseconds d) {
  const auto until = std::chrono::steady_clock::now() + d;
  while (std::chrono::steady_clock::now() < until) {
  }
}

TEST(Telemetry, PhaseScopesAttributeTimeAndSumToWall) {
  Telemetry t(1);
  {
    const Telemetry::Binding bind(&t, 0);
    {
      const PhaseScope ps(Phase::kApply);
      spin_for(std::chrono::microseconds(2000));
      {
        // Nested scope slices: kClone time must not double-count into
        // kApply.
        const PhaseScope inner(Phase::kClone);
        spin_for(std::chrono::microseconds(2000));
      }
    }
  }
  const WorkerTelemetry& w = t.worker(0);
  const std::uint64_t apply = w.phase(Phase::kApply).total_ns;
  const std::uint64_t clone = w.phase(Phase::kClone).total_ns;
  EXPECT_GE(apply, 1000000u);
  EXPECT_GE(clone, 1000000u);

  // Exhaustive attribution: phases partition the bound wall time.
  std::uint64_t sum = 0;
  for (std::size_t p = 0; p < kPhaseCount; ++p) {
    sum += w.phase(static_cast<Phase>(p)).total_ns;
  }
  const std::uint64_t wall = w.wall_ns();
  EXPECT_GT(wall, 0u);
  // Calibration error bounds: the TSC-derived sum tracks the wall total
  // to within a few percent plus a small absolute slack.
  EXPECT_LE(sum, wall + wall / 10 + 1000000);
  EXPECT_GE(sum + wall / 10 + 1000000, wall);
}

TEST(Telemetry, HistogramCountEqualsBucketSum) {
  Telemetry t(1);
  {
    const Telemetry::Binding bind(&t, 0);
    for (int i = 0; i < 100; ++i) {
      const PhaseScope ps(Phase::kRemember);
    }
  }
  const PhaseStat s = t.worker(0).phase(Phase::kRemember);
  EXPECT_EQ(s.count, 100u);
  std::uint64_t bucket_sum = 0;
  for (const std::uint64_t b : s.buckets) bucket_sum += b;
  EXPECT_EQ(bucket_sum, s.count);
}

TEST(Telemetry, PhaseStatMergeAddsEverything) {
  PhaseStat a;
  a.count = 3;
  a.total_ns = 30;
  a.buckets[2] = 3;
  PhaseStat b;
  b.count = 5;
  b.total_ns = 70;
  b.buckets[2] = 1;
  b.buckets[4] = 4;
  a.merge(b);
  EXPECT_EQ(a.count, 8u);
  EXPECT_EQ(a.total_ns, 100u);
  EXPECT_EQ(a.buckets[2], 4u);
  EXPECT_EQ(a.buckets[4], 4u);
}

TEST(Telemetry, NullBindingMakesEverythingNoOp) {
  // Telemetry off: no slot bound, scopes and counters must be inert.
  EXPECT_EQ(Telemetry::current(), nullptr);
  {
    const Telemetry::Binding bind(nullptr, 0);
    EXPECT_EQ(Telemetry::current(), nullptr);
    const PhaseScope ps(Phase::kApply);
    WorkerTelemetry* const wt = Telemetry::current();
    EXPECT_EQ(wt, nullptr);
  }
}

TEST(Telemetry, BindingRestoresPreviousSlot) {
  Telemetry t(2);
  {
    const Telemetry::Binding outer(&t, 0);
    EXPECT_EQ(Telemetry::current(), &t.worker(0));
    {
      const Telemetry::Binding inner(&t, 1);
      EXPECT_EQ(Telemetry::current(), &t.worker(1));
    }
    EXPECT_EQ(Telemetry::current(), &t.worker(0));
  }
  EXPECT_EQ(Telemetry::current(), nullptr);
}

TEST(Telemetry, CountersAggregateIntoTotalsWithBase) {
  Telemetry t(2);
  t.set_base(100, 10, 5, 1);
  t.worker(0).add_transitions(7);
  t.worker(1).add_transitions(3);
  t.worker(0).add_unique(2);
  t.worker(1).add_revisits(4);
  t.worker(0).add_quiescent();
  const Telemetry::Totals totals = t.totals();
  EXPECT_EQ(totals.transitions, 110u);
  EXPECT_EQ(totals.unique_states, 12u);
  EXPECT_EQ(totals.revisits, 9u);
  EXPECT_EQ(totals.quiescent_states, 2u);
}

TEST(Telemetry, FlightRingWrapsKeepingTheMostRecent) {
  FlightRing ring;
  for (std::uint64_t i = 0; i < FlightRing::kSize + 40; ++i) {
    FlightEvent e;
    e.value = i;
    ring.push(e);
  }
  EXPECT_EQ(ring.recorded(), FlightRing::kSize + 40);
  const std::vector<FlightEvent> events = ring.events();
  ASSERT_EQ(events.size(), FlightRing::kSize);
  // Oldest surviving event first; values are the last kSize pushes.
  EXPECT_EQ(events.front().value, 40u);
  EXPECT_EQ(events.back().value, FlightRing::kSize + 39);
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_EQ(events[i].seq, events[i - 1].seq + 1);
  }
}

TEST(Telemetry, RecordExpandLandsInTheRing) {
  Telemetry t(1);
  {
    const Telemetry::Binding bind(&t, 0);
    WorkerTelemetry* const wt = Telemetry::current();
    ASSERT_NE(wt, nullptr);
    wt->record_expand(3, 7, 9);
    wt->record_event(FlightEvent::Kind::kCheckpoint, 4096, "slot_a");
  }
  const std::vector<FlightEvent> events = t.worker(0).ring().events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].kind, FlightEvent::Kind::kExpand);
  EXPECT_EQ(events[0].a, 3u);
  EXPECT_EQ(events[0].b, 7u);
  EXPECT_EQ(events[0].c, 9u);
  EXPECT_EQ(events[1].kind, FlightEvent::Kind::kCheckpoint);
  EXPECT_EQ(events[1].value, 4096u);
  EXPECT_STREQ(events[1].detail, "slot_a");
}

TEST(Telemetry, SnapshotNdjsonRoundTrips) {
  ProgressSnapshot s;
  s.event = "progress";
  s.seq = 42;
  s.elapsed_seconds = 1.5;
  s.workers = 4;
  s.transitions = 123456;
  s.unique_states = 9999;
  s.revisits = 88;
  s.quiescent_states = 7;
  s.frontier = 321;
  s.transitions_per_sec = 25000.5;
  s.unique_per_sec = 1234.25;
  s.utilization = 0.75;
  s.memo_footprint_hit_rate = 0.5;
  s.memo_discover_hit_rate = 0.25;
  s.engine_bytes = 1 << 20;
  s.peak_rss_bytes = 1 << 22;
  for (std::size_t p = 0; p < kPhaseCount; ++p) s.phase_ns[p] = p * 1000;

  const std::string line = s.to_ndjson();
  ASSERT_FALSE(line.empty());
  EXPECT_EQ(line.back(), '\n');

  ProgressSnapshot back;
  ASSERT_TRUE(ProgressSnapshot::parse(line, back));
  EXPECT_EQ(back.event, s.event);
  EXPECT_EQ(back.seq, s.seq);
  EXPECT_EQ(back.workers, s.workers);
  EXPECT_EQ(back.transitions, s.transitions);
  EXPECT_EQ(back.unique_states, s.unique_states);
  EXPECT_EQ(back.revisits, s.revisits);
  EXPECT_EQ(back.quiescent_states, s.quiescent_states);
  EXPECT_EQ(back.frontier, s.frontier);
  EXPECT_EQ(back.engine_bytes, s.engine_bytes);
  EXPECT_EQ(back.peak_rss_bytes, s.peak_rss_bytes);
  EXPECT_NEAR(back.elapsed_seconds, s.elapsed_seconds, 1e-6);
  EXPECT_NEAR(back.transitions_per_sec, s.transitions_per_sec, 1e-3);
  EXPECT_NEAR(back.unique_per_sec, s.unique_per_sec, 1e-3);
  EXPECT_NEAR(back.utilization, s.utilization, 1e-6);
  EXPECT_NEAR(back.memo_footprint_hit_rate, s.memo_footprint_hit_rate, 1e-6);
  EXPECT_NEAR(back.memo_discover_hit_rate, s.memo_discover_hit_rate, 1e-6);
  for (std::size_t p = 0; p < kPhaseCount; ++p) {
    EXPECT_EQ(back.phase_ns[p], s.phase_ns[p]) << p;
  }

  ProgressSnapshot halt;
  halt.event = "halt";
  halt.reason = "memory";
  ProgressSnapshot halt_back;
  ASSERT_TRUE(ProgressSnapshot::parse(halt.to_ndjson(), halt_back));
  EXPECT_EQ(halt_back.event, "halt");
  EXPECT_EQ(halt_back.reason, "memory");

  ProgressSnapshot junk;
  EXPECT_FALSE(ProgressSnapshot::parse("not json\n", junk));
  EXPECT_FALSE(ProgressSnapshot::parse("{}", junk));
}

TEST(Telemetry, ReporterStreamsParseableMonotoneLines) {
  const std::string path =
      ::testing::TempDir() + "nicemc_test_progress.ndjson";
  std::remove(path.c_str());
  Telemetry t(1);
  {
    ProgressReporter::Options po;
    po.path = path;
    po.interval_seconds = 0.01;
    ProgressReporter reporter(t, po);
    ASSERT_TRUE(reporter.start());
    const Telemetry::Binding bind(&t, 0);
    WorkerTelemetry* const wt = Telemetry::current();
    for (int i = 0; i < 50; ++i) {
      wt->add_transitions(10);
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    reporter.stop("transitions");
    EXPECT_GE(reporter.snapshots_emitted(), 2u);
  }

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string line;
  std::uint64_t lines = 0;
  std::uint64_t prev_seq = 0;
  std::uint64_t prev_transitions = 0;
  std::string last_event;
  while (std::getline(in, line)) {
    ProgressSnapshot snap;
    ASSERT_TRUE(ProgressSnapshot::parse(line + "\n", snap)) << line;
    if (lines > 0) {
      EXPECT_GT(snap.seq, prev_seq);
      EXPECT_GE(snap.transitions, prev_transitions);
    }
    prev_seq = snap.seq;
    prev_transitions = snap.transitions;
    last_event = snap.event;
    ++lines;
  }
  EXPECT_GE(lines, 2u);
  EXPECT_EQ(last_event, "halt");
  EXPECT_EQ(prev_transitions, 500u);
  std::remove(path.c_str());
}

TEST(Telemetry, ReporterAppendContinuesSequenceNumbers) {
  const std::string path =
      ::testing::TempDir() + "nicemc_test_progress_append.ndjson";
  std::remove(path.c_str());
  auto run_once = [&](bool append) {
    Telemetry t(1);
    ProgressReporter::Options po;
    po.path = path;
    po.interval_seconds = 0.005;
    po.append = append;
    ProgressReporter reporter(t, po);
    ASSERT_TRUE(reporter.start());
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    reporter.stop("none");
  };
  run_once(false);
  run_once(true);

  std::ifstream in(path);
  std::string line;
  std::uint64_t prev_seq = 0;
  std::uint64_t lines = 0;
  while (std::getline(in, line)) {
    ProgressSnapshot snap;
    ASSERT_TRUE(ProgressSnapshot::parse(line + "\n", snap)) << line;
    if (lines > 0) {
      EXPECT_GT(snap.seq, prev_seq) << "line " << lines;
    }
    prev_seq = snap.seq;
    ++lines;
  }
  EXPECT_GE(lines, 4u);  // two runs x (>=1 progress + 1 halt)
  std::remove(path.c_str());
}

TEST(Telemetry, PhaseNamesAreStable) {
  EXPECT_STREQ(phase_name(Phase::kClone), "clone");
  EXPECT_STREQ(phase_name(Phase::kApply), "apply");
  EXPECT_STREQ(phase_name(Phase::kEnabled), "enabled");
  EXPECT_STREQ(phase_name(Phase::kFootprint), "footprint");
  EXPECT_STREQ(phase_name(Phase::kPropertyCheck), "property_check");
  EXPECT_STREQ(phase_name(Phase::kRemember), "remember");
  EXPECT_STREQ(phase_name(Phase::kCheckpoint), "checkpoint");
  EXPECT_STREQ(phase_name(Phase::kIdle), "idle");
  EXPECT_STREQ(phase_name(Phase::kOther), "other");
}

}  // namespace
}  // namespace nicemc::util
