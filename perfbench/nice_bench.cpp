// The NICE-MC benchmark program: four fixed workloads driven through the
// library's public API (see perfbench/README.md for the metric table).
//
//   nice_bench measure <workload> <seed> <seconds>
//       Untraced: rebuilds the scenario and the Checker, times setup and
//       Checker::run() repeatedly for <seconds>, and reports every sample
//       plus one entry per distinct verdict. The first run is a cold
//       warm-up, reported separately and excluded from the samples.
//   nice_bench trace <workload> <seed> <seconds> [<spans.json>]
//       Traced: replays the search from outside, calling each layer's
//       public function in SearchCore::expand's order with a span around
//       every call, and checks that the replay's counts equal an untraced
//       Checker::run() of the same configuration. Reports per-layer
//       metrics, the program's own telemetry phase split (cross-check
//       only) and the tracing overhead. Optionally writes the first spans
//       in Chrome trace-event format.
//   nice_bench rss <workload>
//       One run of the workload (bughunt: one sweep) in a fresh process,
//       reporting the process's peak resident set size.
//   nice_bench verdicts <workload> <store>
//       One untraced run per scenario of the workload under the given
//       store (hash, full, collapsed), printing its verdicts: the
//       cross-validation of the pinned answers.
//
// Every mode prints one JSON object on the last line of stdout. Verdicts
// are reported, not judged: run.py compares them with pinned.json.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <random>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "apps/scenarios.h"
#include "mc/checker.h"
#include "mc/discover.h"
#include "mc/execute.h"
#include "mc/frontier.h"
#include "mc/por/footprint.h"
#include "mc/strategy.h"
#include "mc/sym_reduce.h"
#include "mc/system.h"
#include "mc/trace.h"
#include "util/collapse.h"
#include "util/seen_set.h"
#include "util/telemetry.h"

using namespace nicemc;

namespace {

using Clock = std::chrono::steady_clock;
using Mode = util::ShardedSeenSet::Mode;

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

double seconds_between(std::uint64_t a, std::uint64_t b) {
  return static_cast<double>(b - a) * 1e-9;
}

/// Process CPU seconds (user + system, all threads).
double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

/// CPU time the hypervisor gave to other guests (the steal column of
/// /proc/stat), summed over all CPUs, in seconds; 0 where not reported.
double steal_seconds() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  double v[8] = {0, 0, 0, 0, 0, 0, 0, 0};
  in >> cpu;
  for (double& x : v) in >> x;
  return v[7] / static_cast<double>(sysconf(_SC_CLK_TCK));
}

// --- workloads --------------------------------------------------------------

struct Workload {
  std::string name;
  std::vector<std::string> scenarios;
  mc::CheckerOptions options;
  /// reduce-parallel only: the unreduced 1-thread configuration the
  /// traced replay runs on the same input.
  bool replay_unreduced{false};
};

Workload make_workload(const std::string& name) {
  Workload w;
  w.name = name;
  mc::CheckerOptions& o = w.options;
  if (name == "exhaust") {
    w.scenarios = {"lb-sym4"};
    o.stop_at_first_violation = false;
    o.state_store = Mode::kHash;
    o.reduction = mc::Reduction::kNone;
    o.frontier = mc::FrontierKind::kDfs;
    o.threads = 1;
  } else if (name == "reduce-parallel") {
    w.scenarios = {"sym-ping3"};
    o.stop_at_first_violation = false;
    o.state_store = Mode::kCollapsed;
    o.reduction = mc::Reduction::kSleep;
    o.threads = 4;
    w.replay_unreduced = true;
  } else if (name == "symmetry") {
    w.scenarios = {"sym-ping3"};
    o.stop_at_first_violation = false;
    o.state_store = Mode::kHash;
    o.symmetry = true;
    o.threads = 1;
  } else if (name == "bughunt") {
    // Every bundled scenario whose DFS reaches a violation; default
    // options (stop at the first violation).
    w.scenarios = {"pyswitch-bug1", "pyswitch-bug2",   "pyswitch-bug3",
                   "lb-bugs",       "lb-affinity",     "te",
                   "te-routing",    "pyswitch-linkfail",
                   "pyswitch-linkfail-react",          "lb-linkfail",
                   "te-linkfail"};
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  return w;
}

using Factory = std::function<apps::Scenario()>;

Factory factory_of(const std::string& scenario) {
  for (apps::NamedScenario& ns : apps::bundled_scenarios()) {
    if (ns.name == scenario) return std::move(ns.make);
  }
  throw std::invalid_argument("no bundled scenario '" + scenario + "'");
}

// --- JSON output ------------------------------------------------------------

std::string jstr(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string jnum(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  return buf;
}

std::string jarr(const std::vector<double>& vs) {
  std::string out = "[";
  for (std::size_t i = 0; i < vs.size(); ++i) {
    if (i != 0) out += ",";
    out += jnum(vs[i]);
  }
  return out + "]";
}

std::string jarr(const std::vector<std::string>& vs) {
  std::string out = "[";
  for (std::size_t i = 0; i < vs.size(); ++i) {
    if (i != 0) out += ",";
    out += jstr(vs[i]);
  }
  return out + "]";
}

/// Ordered JSON object builder (values are pre-rendered JSON).
class JObj {
 public:
  JObj& add(const std::string& key, const std::string& rendered) {
    if (!body_.empty()) body_ += ",";
    body_ += jstr(key) + ":" + rendered;
    return *this;
  }
  JObj& num(const std::string& key, double v) { return add(key, jnum(v)); }
  JObj& str(const std::string& key, const std::string& v) {
    return add(key, jstr(v));
  }
  JObj& boolean(const std::string& key, bool v) {
    return add(key, v ? "true" : "false");
  }
  [[nodiscard]] std::string render() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

// --- verdicts ---------------------------------------------------------------

/// What run.py compares with the pinned answer of a scenario.
struct Verdict {
  std::string scenario;
  bool exhausted{false};
  std::uint64_t unique{0};
  std::uint64_t quiescent{0};
  std::vector<std::string> violations;  // mc::violation_key_set
  std::string first_property;           // property of the first violation

  [[nodiscard]] std::string key() const {
    std::string k = scenario + "|" + (exhausted ? "1" : "0") + "|" +
                    std::to_string(unique) + "|" + std::to_string(quiescent) +
                    "|" + first_property;
    for (const std::string& v : violations) k += "|" + v;
    return k;
  }
};

Verdict verdict_of(const std::string& scenario, const mc::CheckerResult& r) {
  Verdict v;
  v.scenario = scenario;
  v.exhausted = r.exhausted;
  v.unique = r.unique_states;
  v.quiescent = r.quiescent_states;
  v.violations = mc::violation_key_set(r);
  if (!r.violations.empty()) {
    v.first_property = r.violations.front().violation.property;
  }
  return v;
}

/// Distinct verdicts with their run counts and transition range.
class VerdictTally {
 public:
  void add(const Verdict& v, std::uint64_t transitions) {
    auto [it, fresh] = entries_.try_emplace(v.key());
    Entry& e = it->second;
    if (fresh) {
      e.verdict = v;
      e.tmin = e.tmax = transitions;
    }
    ++e.count;
    e.tmin = std::min(e.tmin, transitions);
    e.tmax = std::max(e.tmax, transitions);
  }

  [[nodiscard]] std::string render() const {
    std::string out = "[";
    bool first = true;
    for (const auto& [key, e] : entries_) {
      if (!first) out += ",";
      first = false;
      out += JObj()
                 .str("scenario", e.verdict.scenario)
                 .num("count", static_cast<double>(e.count))
                 .boolean("exhausted", e.verdict.exhausted)
                 .num("unique", static_cast<double>(e.verdict.unique))
                 .num("quiescent", static_cast<double>(e.verdict.quiescent))
                 .add("violations", jarr(e.verdict.violations))
                 .str("property", e.verdict.first_property)
                 .num("transitions_min", static_cast<double>(e.tmin))
                 .num("transitions_max", static_cast<double>(e.tmax))
                 .render();
    }
    return out + "]";
  }

 private:
  struct Entry {
    Verdict verdict;
    std::uint64_t count{0};
    std::uint64_t tmin{0};
    std::uint64_t tmax{0};
  };
  std::map<std::string, Entry> entries_;
};

// --- untraced measurement ----------------------------------------------------

struct RunSample {
  double setup_s{0};    // factory + Checker construction
  double verdict_s{0};  // Checker::run()
  mc::CheckerResult result;
};

RunSample run_once(const Factory& make, const mc::CheckerOptions& options) {
  RunSample s;
  const std::uint64_t t0 = now_ns();
  apps::Scenario sc = make();
  mc::Checker checker(sc.config, options, sc.properties);
  const std::uint64_t t1 = now_ns();
  s.result = checker.run();
  const std::uint64_t t2 = now_ns();
  s.setup_s = seconds_between(t0, t1);
  s.verdict_s = seconds_between(t1, t2);
  return s;
}

std::string measure(const Workload& w, std::uint64_t seed, double seconds) {
  std::vector<Factory> factories;
  for (const std::string& name : w.scenarios) {
    factories.push_back(factory_of(name));
  }
  std::mt19937_64 rng(seed);
  std::vector<std::size_t> order(w.scenarios.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;

  std::vector<double> setup_s;    // per run (bughunt: per sweep)
  std::vector<double> verdict_s;  // per run (bughunt: per sweep)
  std::vector<double> ttv_ms;     // per scenario, factory call → run() return
  std::vector<double> unique;     // unique states per run (bughunt: sweep)
  std::vector<double> steal_s;    // hypervisor steal during each run
  VerdictTally tally;

  // One run (bughunt: one sweep in workload-seeded order). Returns the
  // wall time it took.
  const auto sweep = [&](bool record) {
    std::shuffle(order.begin(), order.end(), rng);
    double su = 0;
    double ve = 0;
    double un = 0;
    const double steal0 = steal_seconds();
    for (const std::size_t i : order) {
      RunSample s = run_once(factories[i], w.options);
      su += s.setup_s;
      ve += s.verdict_s;
      un += static_cast<double>(s.result.unique_states);
      if (record) {
        ttv_ms.push_back((s.setup_s + s.verdict_s) * 1e3);
        tally.add(verdict_of(w.scenarios[i], s.result),
                  s.result.transitions);
      }
    }
    if (record) {
      setup_s.push_back(su);
      verdict_s.push_back(ve);
      unique.push_back(un);
      steal_s.push_back(steal_seconds() - steal0);
    }
    return su + ve;
  };

  // Cold first run: caches, page faults and (4 threads) thread start-up
  // make it unrepresentative, so it is reported apart and not sampled.
  const double cold_s = sweep(false);

  // Set-up alone: one set-up takes microseconds, too short to time singly,
  // so each sample is the mean over a batch (bughunt: of whole sweeps of
  // set-ups). Batches are spread over the run, at most one per half
  // second, so they see the same machine conditions as the runs.
  constexpr int kSetupBatch = 100;
  std::vector<double> setup_batch_s;
  const auto setup_batch = [&] {
    const std::uint64_t t0 = now_ns();
    for (int b = 0; b < kSetupBatch; ++b) {
      for (const Factory& make : factories) {
        apps::Scenario sc = make();
        mc::Checker checker(sc.config, w.options, sc.properties);
      }
    }
    setup_batch_s.push_back(seconds_between(t0, now_ns()) / kSetupBatch);
  };

  // Stop once another run would most likely end past the deadline, but
  // take at least three.
  const std::uint64_t deadline =
      now_ns() + static_cast<std::uint64_t>(seconds * 1e9);
  double last = 0;
  std::uint64_t next_batch = 0;
  while (verdict_s.size() < 3 ||
         static_cast<double>(now_ns()) + 0.5e9 * last <
             static_cast<double>(deadline)) {
    if (now_ns() >= next_batch) {
      setup_batch();
      next_batch = now_ns() + 500'000'000;
    }
    last = sweep(true);
  }

  return JObj()
      .str("mode", "measure")
      .str("workload", w.name)
      .num("seed", static_cast<double>(seed))
      .num("threads", w.options.threads)
      .num("cold_s", cold_s)
      .add("setup_s", jarr(setup_s))
      .add("setup_batch_s", jarr(setup_batch_s))
      .add("verdict_s", jarr(verdict_s))
      .add("ttv_ms", jarr(ttv_ms))
      .add("unique", jarr(unique))
      .add("steal_s", jarr(steal_s))
      .add("verdicts", tally.render())
      .render();
}

// --- tracing ----------------------------------------------------------------

/// Layers the replay puts spans around. kSearch is the root span of one
/// replay; its self time is the search loop's own (unattributed) work.
enum Layer : std::uint8_t {
  kSearch,
  kMakeInitial,
  kClone,
  kApply,
  kStateHash,
  kCollapseKey,
  kCanonicalKey,
  kSeenInsert,
  kEnabled,   // Executor::enabled calls that ran no fresh discovery
  kDiscover,  // Executor::enabled calls during which discovery ran
  kQuiescence,
  kFootprint,  // probe: por::compute_footprint per enabled transition
  kLayerCount,
};

constexpr std::array<const char*, kLayerCount> kLayerNames = {
    "search",           "execute.make_initial", "system.clone",
    "execute.apply",    "state.hash",           "collapse.key",
    "sym.canonical_key", "seen.insert",         "execute.enabled",
    "discover",         "props.at_quiescence",  "por.footprint",
};

struct LayerStat {
  std::uint64_t calls{0};
  std::uint64_t total_ns{0};  // span durations
  std::uint64_t self_ns{0};   // durations minus child spans
};

/// Spans kept in memory and aggregated as they close. Spans nest strictly
/// (one thread), so a stack gives each span its parent and self time. The
/// first kKeep spans are retained verbatim for the trace file.
class Tracer {
 public:
  static constexpr std::size_t kKeep = 50000;

  struct Span {
    std::uint64_t start_ns;
    std::uint64_t end_ns;
    std::uint32_t id;
    std::uint32_t parent;  // 0 = none
    Layer layer;
  };

  void open(Layer layer) {
    stack_.push_back(Open{now_ns(), 0, ++next_id_, layer});
  }

  /// Close the innermost span, optionally renaming its layer (an enabled
  /// call is classified as discovery only once it returns).
  void close() { close_as(stack_.back().layer); }
  void close_as(Layer layer) {
    const std::uint64_t end = now_ns();
    const Open o = stack_.back();
    stack_.pop_back();
    const std::uint64_t dur = end - o.start;
    LayerStat& st = stats_[layer];
    ++st.calls;
    st.total_ns += dur;
    st.self_ns += dur - std::min(dur, o.child_ns);
    if (!stack_.empty()) stack_.back().child_ns += dur;
    if (kept_.size() < kKeep) {
      kept_.push_back(Span{o.start, end, o.id,
                           stack_.empty() ? 0 : stack_.back().id, layer});
    }
  }

  [[nodiscard]] const LayerStat& stat(Layer l) const { return stats_[l]; }
  [[nodiscard]] const std::vector<Span>& kept() const { return kept_; }

 private:
  struct Open {
    std::uint64_t start;
    std::uint64_t child_ns;
    std::uint32_t id;
    Layer layer;
  };
  std::vector<Open> stack_;
  std::array<LayerStat, kLayerCount> stats_{};
  std::vector<Span> kept_;
  std::uint32_t next_id_{0};
};

/// RAII span.
class SpanScope {
 public:
  SpanScope(Tracer& t, Layer l) : t_(t) { t_.open(l); }
  ~SpanScope() { t_.close(); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  Tracer& t_;
};

/// Counters the replay records at the same boundaries as its spans.
struct ReplayCounts {
  std::uint64_t transitions{0};
  std::uint64_t unique{0};
  std::uint64_t revisits{0};
  std::uint64_t quiescent{0};
  std::vector<mc::Violation> violations;
  /// Components no longer shared with the parent after apply, summed.
  std::uint64_t components_touched{0};
  std::uint64_t key_bytes{0};  // canonical key bytes, summed (symmetry)
  mc::DiscoveryStats discovery;
};

std::uint64_t components_touched(const mc::SystemState& child,
                                 const mc::SystemState& parent) {
  std::uint64_t n = child.shares_ctrl(parent) ? 0 : 1;
  for (std::size_t i = 0; i < child.switch_count(); ++i) {
    n += child.shares_switch(parent, i) ? 0 : 1;
  }
  for (std::size_t i = 0; i < child.host_count(); ++i) {
    n += child.shares_host(parent, i) ? 0 : 1;
  }
  for (std::size_t i = 0; i < child.prop_count(); ++i) {
    n += child.shares_prop(parent, i) ? 0 : 1;
  }
  return n;
}

/// The single-threaded DFS search of SearchCore::run_sequential rebuilt
/// from public calls, with a span around each call into a layer, in
/// SearchCore::expand's order: clone, apply, store key, seen-set insert,
/// strategy-filtered enabled set, quiescence check. Mirrors the Checker's
/// single-thread wiring (one shard, discovery memo on when options.memo).
/// `probe_footprints` additionally times por::compute_footprint on every
/// enabled transition of every new state (the unreduced search does not
/// call it; these spans are excluded from the replay's own wall time).
ReplayCounts replay(const apps::Scenario& sc, const mc::CheckerOptions& opt,
                    bool probe_footprints, Tracer& tr) {
  if (opt.threads > 1 || opt.reduction != mc::Reduction::kNone ||
      opt.frontier != mc::FrontierKind::kDfs ||
      opt.state_store == Mode::kFullState) {
    throw std::invalid_argument("replay: unsupported configuration");
  }
  const mc::SystemConfig& cfg = sc.config;
  const bool canon = cfg.canonical_flowtables;
  const bool stop = opt.stop_at_first_violation;
  mc::Executor exec(cfg, sc.properties);
  util::ShardedSeenSet seen(opt.state_store, 1);
  auto collapse = opt.state_store == Mode::kCollapsed
                      ? std::make_unique<util::CollapseTable>(1)
                      : nullptr;
  auto memo = opt.memo ? std::make_unique<mc::DiscoveryMemo>(
                             collapse.get(), 1,
                             opt.memo_budget_bytes - opt.memo_budget_bytes / 2)
                       : nullptr;
  exec.set_discovery_memo(memo.get());
  auto sym = opt.symmetry ? std::make_unique<mc::SymContext>(cfg) : nullptr;
  mc::DiscoveryCache cache;
  ReplayCounts rc;

  const auto remember = [&](const mc::SystemState& st) -> bool {
    if (sym != nullptr) {
      mc::SymKey k;
      {
        const SpanScope s(tr, kCanonicalKey);
        k = sym->canonical_key(st, collapse.get());
      }
      rc.key_bytes += k.key.size();
      const SpanScope s(tr, kSeenInsert);
      return opt.state_store == Mode::kHash ? seen.insert(k.hash)
                                            : seen.insert_key(std::move(k.key));
    }
    if (opt.state_store == Mode::kHash) {
      util::Hash128 h;
      {
        const SpanScope s(tr, kStateHash);
        h = st.hash(canon);
      }
      const SpanScope s(tr, kSeenInsert);
      return seen.insert(h);
    }
    // kCollapsed: SearchCore::state_key interns, then hashes for the shard.
    std::string key;
    {
      const SpanScope s(tr, kCollapseKey);
      key = st.collapse_key(*collapse, canon);
    }
    {
      const SpanScope s(tr, kStateHash);
      (void)st.hash(canon);
    }
    const SpanScope s(tr, kSeenInsert);
    return seen.insert_key(std::move(key));
  };

  const auto enabled = [&](const mc::SystemState& st) {
    const mc::DiscoveryStats before = cache.stats();
    tr.open(kEnabled);
    std::vector<mc::Transition> ts =
        mc::apply_strategy(opt.strategy, cfg, st, exec.enabled(st, cache));
    const mc::DiscoveryStats& after = cache.stats();
    const bool discovered =
        after.packet_discoveries != before.packet_discoveries ||
        after.stats_discoveries != before.stats_discoveries;
    tr.close_as(discovered ? kDiscover : kEnabled);
    if (probe_footprints) {
      for (const mc::Transition& t : ts) {
        const SpanScope s(tr, kFootprint);
        (void)mc::por::compute_footprint(cfg, st, t);
      }
    }
    return ts;
  };

  const auto quiescence = [&](mc::SystemState& st) {
    std::vector<mc::Violation> vs;
    {
      const SpanScope s(tr, kQuiescence);
      exec.at_quiescence(st, vs);
    }
    for (mc::Violation& v : vs) rc.violations.push_back(std::move(v));
  };

  tr.open(kSearch);
  std::shared_ptr<const mc::SystemState> initial;
  {
    const SpanScope s(tr, kMakeInitial);
    initial = std::make_shared<const mc::SystemState>(exec.make_initial());
  }
  remember(*initial);
  rc.unique = 1;
  auto frontier = mc::make_frontier(mc::FrontierKind::kDfs, opt.frontier_seed);
  {
    std::vector<mc::Transition> ts = enabled(*initial);
    if (ts.empty()) {
      ++rc.quiescent;
      mc::SystemState tmp = initial->clone();
      quiescence(tmp);
    }
    for (mc::Transition& t : ts) {
      frontier->push(mc::SearchNode{initial, std::move(t), nullptr, 1, {}, {},
                                    {}, false});
    }
  }

  while (!frontier->empty()) {
    if (stop && !rc.violations.empty()) break;
    mc::SearchNode node;
    frontier->pop(node);

    mc::SystemState next;
    {
      const SpanScope s(tr, kClone);
      next = node.state->clone();
    }
    std::vector<mc::Violation> vs;
    {
      const SpanScope s(tr, kApply);
      exec.apply(next, node.transition, vs);
    }
    ++rc.transitions;
    rc.components_touched += components_touched(next, *node.state);
    auto path = std::make_shared<const mc::PathNode>(
        mc::PathNode{node.path, node.transition});

    if (!vs.empty()) {
      (void)mc::trace_of(path);  // the search builds the counterexample too
      for (mc::Violation& v : vs) rc.violations.push_back(std::move(v));
      if (stop) break;
      continue;
    }
    if (!remember(next)) {
      ++rc.revisits;
      continue;
    }
    ++rc.unique;
    if (node.depth >= opt.max_depth) continue;

    std::vector<mc::Transition> ts = enabled(next);
    if (ts.empty()) {
      ++rc.quiescent;
      const std::size_t before = rc.violations.size();
      quiescence(next);
      if (rc.violations.size() != before) {
        (void)mc::trace_of(path);
        if (stop) break;
      }
      continue;
    }
    auto next_sp = std::make_shared<const mc::SystemState>(std::move(next));
    for (mc::Transition& t : ts) {
      frontier->push(mc::SearchNode{next_sp, std::move(t), path,
                                    node.depth + 1, {}, {}, {}, false});
    }
  }
  tr.close();  // kSearch
  rc.discovery = cache.stats();
  return rc;
}

/// Write the kept spans in Chrome trace-event format (chrome://tracing,
/// Perfetto): one complete event per span, microsecond timestamps.
void write_spans(const std::string& path, const Tracer& tr) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write " + path);
  // Spans are kept in closing order, so the earliest start is not first.
  std::uint64_t t0 = ~std::uint64_t{0};
  for (const Tracer::Span& s : tr.kept()) t0 = std::min(t0, s.start_ns);
  out << "{\"traceEvents\":[\n";
  bool first = true;
  for (const Tracer::Span& s : tr.kept()) {
    if (!first) out << ",\n";
    first = false;
    out << JObj()
               .str("name", kLayerNames[s.layer])
               .str("ph", "X")
               .num("ts", static_cast<double>(s.start_ns - t0) * 1e-3)
               .num("dur", static_cast<double>(s.end_ns - s.start_ns) * 1e-3)
               .num("pid", 1)
               .num("tid", 1)
               .add("args", JObj()
                                .num("id", s.id)
                                .num("parent", s.parent)
                                .render())
               .render();
  }
  out << "\n]}\n";
}

bool counts_match(const ReplayCounts& rc, const mc::CheckerResult& r) {
  return rc.transitions == r.transitions && rc.unique == r.unique_states &&
         rc.revisits == r.revisits && rc.quiescent == r.quiescent_states &&
         mc::violation_keys(rc.violations) == mc::violation_keys(r);
}

std::string counts_json(std::uint64_t transitions, std::uint64_t unique,
                        std::uint64_t revisits, std::uint64_t quiescent) {
  return JObj()
      .num("transitions", static_cast<double>(transitions))
      .num("unique", static_cast<double>(unique))
      .num("revisits", static_cast<double>(revisits))
      .num("quiescent", static_cast<double>(quiescent))
      .render();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double per(double num, double den) { return den > 0 ? num / den : 0.0; }

/// One untraced run: Checker construction, then run() with its wall and
/// process CPU time.
struct TimedRun {
  mc::CheckerResult result;
  double construct_ns{0};
  double wall_s{0};
  double cpu_s{0};
};

TimedRun timed_run(const Factory& make, const mc::CheckerOptions& options) {
  TimedRun t;
  apps::Scenario sc = make();
  const std::uint64_t c0 = now_ns();
  mc::Checker checker(sc.config, options, sc.properties);
  const std::uint64_t c1 = now_ns();
  const double cpu0 = cpu_seconds();
  t.result = checker.run();
  t.wall_s = seconds_between(c1, now_ns());
  t.cpu_s = cpu_seconds() - cpu0;
  t.construct_ns = static_cast<double>(c1 - c0);
  return t;
}

std::string trace(const Workload& w, std::uint64_t seed, double seconds,
                  const std::string& spans_path) {
  const std::uint64_t deadline =
      now_ns() + static_cast<std::uint64_t>(seconds * 1e9);
  // The replayed configuration: the workload's own, except that
  // reduce-parallel replays its input unreduced on one thread.
  mc::CheckerOptions ropt = w.options;
  if (w.replay_unreduced) {
    ropt.reduction = mc::Reduction::kNone;
    ropt.threads = 1;
  }
  std::vector<Factory> factories;
  for (const std::string& name : w.scenarios) {
    factories.push_back(factory_of(name));
  }
  std::mt19937_64 rng(seed);
  std::vector<std::size_t> order(w.scenarios.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;

  JObj m;  // per-layer metrics, by the names in perfbench/README.md
  // reduce-parallel: the workload's own reduced run on 4 threads against
  // the same configuration on 1 thread, which runs first and so also
  // warms the process. Process-level counters only.
  TimedRun par;
  if (w.replay_unreduced) {
    mc::CheckerOptions one = w.options;
    one.threads = 1;
    const TimedRun r1 = timed_run(factories[0], one);
    par = timed_run(factories[0], w.options);
    const auto cpu_per_state = [](const TimedRun& r) {
      return r.cpu_s / static_cast<double>(r.result.unique_states);
    };
    m.num("parallel.utilization",
          par.cpu_s / (w.options.threads * par.wall_s))
        .num("parallel.cpu_inflation", cpu_per_state(par) / cpu_per_state(r1))
        .num("collapse.dedupe_ratio", par.result.collapse.dedupe_ratio);
  }

  Tracer tr;
  ReplayCounts total;  // summed over every replay
  std::uint64_t replays = 0;
  std::uint64_t sweeps = 0;
  std::vector<std::string> mismatches;
  VerdictTally tally;  // of the reference runs
  double untraced_s = 0;  // reference Checker::run() wall, summed
  double traced_s = 0;    // replay wall minus footprint probes, summed
  double ref_cpu_s = 0;
  std::vector<double> construct_ns;
  double store_bytes = 0;
  do {
    std::shuffle(order.begin(), order.end(), rng);
    for (const std::size_t i : order) {
      // Untraced reference of the replayed configuration: the counts the
      // replay must reproduce, and the time tracing is compared against.
      const TimedRun ref = timed_run(factories[i], ropt);
      const apps::Scenario sc = factories[i]();
      const std::uint64_t search0 = tr.stat(kSearch).total_ns;
      const std::uint64_t fp0 = tr.stat(kFootprint).total_ns;
      const ReplayCounts rc = replay(sc, ropt, w.replay_unreduced, tr);
      traced_s += static_cast<double>((tr.stat(kSearch).total_ns - search0) -
                                      (tr.stat(kFootprint).total_ns - fp0)) *
                  1e-9;
      untraced_s += ref.wall_s;
      ref_cpu_s += ref.cpu_s;
      construct_ns.push_back(ref.construct_ns);
      store_bytes += static_cast<double>(ref.result.store_bytes);
      tally.add(verdict_of(w.scenarios[i], ref.result),
                ref.result.transitions);
      if (!counts_match(rc, ref.result)) {
        mismatches.push_back(
            w.scenarios[i] + ": replay " +
            counts_json(rc.transitions, rc.unique, rc.revisits,
                        rc.quiescent) +
            " vs checker " +
            counts_json(ref.result.transitions, ref.result.unique_states,
                        ref.result.revisits, ref.result.quiescent_states));
      }
      ++replays;
      total.transitions += rc.transitions;
      total.unique += rc.unique;
      total.revisits += rc.revisits;
      total.quiescent += rc.quiescent;
      total.components_touched += rc.components_touched;
      total.key_bytes += rc.key_bytes;
      mc::add_discovery_stats(total.discovery, rc.discovery);
    }
    ++sweeps;
  } while (now_ns() < deadline);

  // The program's own telemetry phase split for the same input, next to
  // the replay's span split: a cross-check, not a source of metrics.
  std::array<double, util::kPhaseCount> phase_ns{};
  double phase_wall_ns = 0;
  for (const Factory& make : factories) {
    mc::CheckerOptions topt = ropt;
    topt.telemetry = true;
    const TimedRun r = timed_run(make, topt);
    for (std::size_t p = 0; p < util::kPhaseCount; ++p) {
      phase_ns[p] += static_cast<double>(r.result.telemetry.phases[p].total_ns);
    }
    phase_wall_ns += static_cast<double>(r.result.telemetry.wall_ns);
  }

  const auto mean_self = [&](Layer l) {
    return per(static_cast<double>(tr.stat(l).self_ns),
               static_cast<double>(tr.stat(l).calls));
  };
  const auto ran = [&](Layer l) { return tr.stat(l).calls > 0; };
  const double transitions = static_cast<double>(total.transitions);
  const double disc_runs = static_cast<double>(tr.stat(kDiscover).calls);
  const double search_ns = static_cast<double>(tr.stat(kSearch).total_ns -
                                               tr.stat(kFootprint).total_ns);

  if (!w.replay_unreduced) {
    m.num("parallel.utilization", per(ref_cpu_s, untraced_s));
  }
  m.num("checker.construct_ns", median(construct_ns))
      .num("execute.make_initial_ns", mean_self(kMakeInitial))
      .num("system.clone_ns", mean_self(kClone))
      .num("system.components_touched",
           per(static_cast<double>(total.components_touched), transitions))
      .num("execute.apply_ns", mean_self(kApply))
      .num("execute.enabled_ns", mean_self(kEnabled))
      .num("discover.runs",
           per(disc_runs, static_cast<double>(sweeps)))
      .num("discover.wall_share",
           per(static_cast<double>(tr.stat(kDiscover).total_ns), search_ns))
      .num("store.key_ns",
           per(static_cast<double>(tr.stat(kStateHash).self_ns +
                                   tr.stat(kCollapseKey).self_ns +
                                   tr.stat(kCanonicalKey).self_ns),
               static_cast<double>(tr.stat(kSeenInsert).calls)))
      .num("seen.insert_ns", mean_self(kSeenInsert))
      .num("seen.revisit_ratio",
           per(static_cast<double>(total.revisits), transitions))
      .num("seen.store_bytes_per_state",
           per(store_bytes, static_cast<double>(total.unique)))
      .num("props.at_quiescence_ns", mean_self(kQuiescence))
      .num("search.transitions_per_s", per(transitions, search_ns * 1e-9))
      .num("search.unattributed_ns",
           per(static_cast<double>(tr.stat(kSearch).self_ns), transitions))
      .num("trace.overhead", per(traced_s, untraced_s));
  // Layers only some workloads reach: emitted where they ran.
  if (ran(kDiscover)) {
    m.num("discover.ns_per_run", mean_self(kDiscover))
        .num("discover.solver_queries_per_run",
             per(static_cast<double>(total.discovery.solver_queries),
                 disc_runs))
        .num("discover.handler_runs_per_run",
             per(static_cast<double>(total.discovery.handler_runs),
                 disc_runs));
  }
  if (ran(kStateHash)) m.num("state.hash_ns", mean_self(kStateHash));
  if (ran(kCollapseKey)) m.num("collapse.key_ns", mean_self(kCollapseKey));
  if (ran(kCanonicalKey)) {
    m.num("sym.canonical_key_ns", mean_self(kCanonicalKey))
        .num("sym.key_bytes",
             per(static_cast<double>(total.key_bytes),
                 static_cast<double>(tr.stat(kCanonicalKey).calls)));
  }
  if (ran(kFootprint)) m.num("por.footprint_ns", mean_self(kFootprint));
  if (w.replay_unreduced) {
    m.num("por.transitions_saved",
          1.0 - per(static_cast<double>(par.result.transitions),
                    per(transitions, static_cast<double>(replays))));
  }

  JObj layers;
  for (std::size_t l = 0; l < kLayerCount; ++l) {
    const LayerStat& st = tr.stat(static_cast<Layer>(l));
    layers.add(kLayerNames[l],
               JObj()
                   .num("calls", static_cast<double>(st.calls))
                   .num("total_ns", static_cast<double>(st.total_ns))
                   .num("self_ns", static_cast<double>(st.self_ns))
                   .render());
  }
  JObj phases;
  for (std::size_t p = 0; p < util::kPhaseCount; ++p) {
    phases.num(util::phase_name(static_cast<util::Phase>(p)),
               per(phase_ns[p], phase_wall_ns));
  }

  if (!spans_path.empty()) write_spans(spans_path, tr);

  return JObj()
      .str("mode", "trace")
      .str("workload", w.name)
      .num("seed", static_cast<double>(seed))
      .num("threads", w.options.threads)
      .num("replays", static_cast<double>(replays))
      .num("sweeps", static_cast<double>(sweeps))
      .add("verdicts", tally.render())
      .add("mismatches", jarr(mismatches))
      .add("replay_counts",
           counts_json(total.transitions, total.unique, total.revisits,
                       total.quiescent))
      .num("untraced_s", untraced_s)
      .num("traced_s", traced_s)
      .add("metrics", m.render())
      .add("layers", layers.render())
      .add("telemetry_phase_share", phases.render())
      .num("spans_kept", static_cast<double>(tr.kept().size()))
      .render();
}

// --- peak memory ---------------------------------------------------------------

/// Peak resident set size of this process (VmHWM of /proc/self/status).
/// getrusage's ru_maxrss would also count the parent's pages: on Linux it
/// keeps the high-water mark of the image an exec replaced, so a child
/// started by a large interpreter reports the interpreter's size.
std::uint64_t peak_rss_bytes() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stoull(line.substr(6)) * 1024;  // reported in kB
    }
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

/// One run of the workload (bughunt: one sweep) in this fresh process.
std::string rss(const Workload& w) {
  for (const std::string& name : w.scenarios) {
    (void)run_once(factory_of(name), w.options);
  }
  return JObj()
      .str("mode", "rss")
      .str("workload", w.name)
      .num("peak_rss_bytes", static_cast<double>(peak_rss_bytes()))
      .render();
}

// --- pinned-answer cross-validation ------------------------------------------

std::string verdicts(const Workload& w, const std::string& store) {
  mc::CheckerOptions o = w.options;
  if (store == "hash") {
    o.state_store = Mode::kHash;
  } else if (store == "full") {
    o.state_store = Mode::kFullState;
  } else if (store == "collapsed") {
    o.state_store = Mode::kCollapsed;
  } else {
    throw std::invalid_argument("unknown store '" + store + "'");
  }
  VerdictTally tally;
  for (const std::string& name : w.scenarios) {
    const RunSample s = run_once(factory_of(name), o);
    tally.add(verdict_of(name, s.result), s.result.transitions);
  }
  return JObj()
      .str("mode", "verdicts")
      .str("workload", w.name)
      .str("store", store)
      .add("verdicts", tally.render())
      .render();
}

int usage() {
  std::fprintf(stderr,
               "usage: nice_bench measure|trace <workload> <seed> <seconds> "
               "[spans.json]\n"
               "       nice_bench rss <workload>\n"
               "       nice_bench verdicts <workload> hash|full|collapsed\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    if (argc < 3) return usage();
    const std::string mode = argv[1];
    const Workload w = make_workload(argv[2]);
    if (mode == "rss") {
      std::printf("%s\n", rss(w).c_str());
      return 0;
    }
    if (argc < 4) return usage();
    if (mode == "verdicts") {
      std::printf("%s\n", verdicts(w, argv[3]).c_str());
      return 0;
    }
    if (argc < 5) return usage();
    const std::uint64_t seed = std::stoull(argv[3]);
    const double seconds = std::stod(argv[4]);
    if (mode == "measure") {
      std::printf("%s\n", measure(w, seed, seconds).c_str());
    } else if (mode == "trace") {
      std::printf("%s\n",
                  trace(w, seed, seconds, argc > 5 ? argv[5] : "").c_str());
    } else {
      return usage();
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "nice_bench: %s\n", e.what());
    return 1;
  }
}
