#include "mc/search_core.h"

#include <algorithm>
#include <array>
#include <cstdio>
#include <memory>
#include <regex>
#include <string>
#include <string_view>
#include <utility>

#include "mc/checkpoint.h"
#include "util/hash.h"
#include "util/resource.h"
#include "util/ser.h"

namespace nicemc::mc {

using detail::SearchClock;
using detail::seconds_since;

const char* limit_reason_name(LimitReason r) noexcept {
  switch (r) {
    case LimitReason::kNone: return "none";
    case LimitReason::kTransitions: return "transitions";
    case LimitReason::kUniqueStates: return "unique_states";
    case LimitReason::kTime: return "time";
    case LimitReason::kMemory: return "memory";
    case LimitReason::kInterrupted: return "interrupted";
  }
  return "?";
}

std::vector<std::string> violation_keys(const std::vector<Violation>& vs) {
  static const std::regex uid_re("uid=[0-9]+(\\.[0-9]+)?");
  std::vector<std::string> keys;
  keys.reserve(vs.size());
  for (const Violation& v : vs) {
    keys.push_back(v.property + "|" +
                   std::regex_replace(v.message, uid_re, "uid=#"));
  }
  std::sort(keys.begin(), keys.end());
  return keys;
}

std::vector<std::string> violation_keys(const CheckerResult& r) {
  std::vector<Violation> vs;
  vs.reserve(r.violations.size());
  for (const ViolationRecord& v : r.violations) vs.push_back(v.violation);
  return violation_keys(vs);
}

std::vector<std::string> violation_key_set(const CheckerResult& r) {
  std::vector<std::string> keys = violation_keys(r);
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  return keys;
}

namespace {

/// The 16 bytes of a Hash128 in a fixed order — hash mode's state
/// identity key for the sleep store.
std::array<char, 16> hash_identity(const util::Hash128& h) {
  std::array<char, 16> out;
  for (int i = 0; i < 8; ++i) {
    out[static_cast<std::size_t>(i)] =
        static_cast<char>(h.lo >> (8 * (7 - i)));
    out[static_cast<std::size_t>(8 + i)] =
        static_cast<char>(h.hi >> (8 * (7 - i)));
  }
  return out;
}

}  // namespace

SearchCore::StateKey SearchCore::state_key(const SystemState& state) const {
  // Byte-keyed modes only (kFullState / kCollapsed). One implementation
  // feeds both the plain remember() and the reduction path, so a future
  // change to the key construction cannot make reduced and unreduced
  // searches key states differently.
  const bool canon = cfg_.canonical_flowtables;
  StateKey k;
  if (sym_ != nullptr) {
    // Symmetry mode: the store key is the canonical serialization of a
    // permuted/renamed/uid-renumbered image of the state, so symmetric
    // states merge. In kCollapsed mode the canonicalizer interns each
    // renamed component itself (the Snap-memoized form ids belong to the
    // *un*-renamed bytes and cannot be reused — the renaming is
    // per-state).
    SymKey sk = sym_->canonical_key(
        state, seen_.mode() == util::ShardedSeenSet::Mode::kCollapsed
                   ? collapse_
                   : nullptr);
    k.hash = sk.hash;
    k.key = std::move(sk.key);
    return k;
  }
  if (seen_.mode() == util::ShardedSeenSet::Mode::kFullState) {
    // Serialize first so each changed component's bytes + hash are
    // memoized in one pass (hash() below then reads the memoized
    // hashes), assembling the blob pre-sized to the previous state's
    // length. The hash only selects the shard; the blob itself is the
    // store key, so collisions can never merge states.
    util::Ser s;
    s.reserve(last_blob_size_.load(std::memory_order_relaxed));
    state.serialize(s, canon);
    last_blob_size_.store(s.size(), std::memory_order_relaxed);
    k.key = s.take();
  } else {
    // Interning memoizes each component's form hash, so the hash() for
    // shard selection reads memos only.
    k.key = state.collapse_key(*collapse_, canon);
  }
  k.hash = state.hash(canon);
  return k;
}

bool SearchCore::remember(const SystemState& state) const {
  const util::PhaseScope ps(util::Phase::kRemember);
  if (seen_.mode() == util::ShardedSeenSet::Mode::kHash) {
    if (sym_ != nullptr) {
      // Hash of the canonical symmetric image (the blob is built and
      // dropped — hash mode keeps the memory trade, paying one full
      // canonicalization per arrival instead of per-component memos).
      return seen_.insert(sym_->canonical_key(state, nullptr).hash);
    }
    // Combined from the per-component hashes memoized on the shared
    // snapshots: only components the transition touched are re-serialized
    // (and no component bytes are retained — hash mode is Section 6's
    // computation-for-memory trade).
    return seen_.insert(state.hash(cfg_.canonical_flowtables));
  }
  StateKey k = state_key(state);
  return seen_.insert_key(std::move(k.key));
}

SearchCore::StateKey SearchCore::identity_key(const SystemState& state) const {
  // The store's true identity: packed hash bytes in kHash mode (memoized
  // on the snapshots, so this is cheap), the canonical blob / id tuple in
  // the byte-keyed modes.
  if (seen_.mode() == util::ShardedSeenSet::Mode::kHash) {
    StateKey k;
    // Reduction never runs together with symmetry (the Checker enforces
    // it), but keep the identity consistent with remember() regardless.
    k.hash = sym_ != nullptr ? sym_->canonical_key(state, nullptr).hash
                             : state.hash(cfg_.canonical_flowtables);
    const std::array<char, 16> id = hash_identity(k.hash);
    k.key.assign(id.data(), id.size());
    return k;
  }
  return state_key(state);
}

SearchCore::ArriveOutcome SearchCore::arrive_reduced(
    const SystemState& state, const por::SleepSet& sleep) const {
  // One lock in the SleepStore covers the first/revisit verdict and the
  // sleep bookkeeping (parallel workers agree); the seen-set insert is
  // deferred to sync_seen(), which reuses the identity bytes computed
  // here. The sleep keying is therefore exactly as collision-proof as the
  // seen-set mode.
  const util::PhaseScope ps(util::Phase::kRemember);
  ArriveOutcome at;
  StateKey k = identity_key(state);
  at.hash = k.hash;
  at.identity = std::move(k.key);
  at.arr = sleep_->arrive(at.identity, sleep);
  return at;
}

void SearchCore::sync_seen(ArriveOutcome&& at) const {
  const util::PhaseScope ps(util::Phase::kRemember);
  if (seen_.mode() == util::ShardedSeenSet::Mode::kHash) {
    seen_.insert(at.hash);
  } else {
    seen_.insert_key(std::move(at.identity));
  }
}

void SearchCore::fill_store_stats(CheckerResult& result) const {
  result.store_bytes = seen_.store_bytes();
  if (collapse_ != nullptr) {
    result.store_bytes += collapse_->interned_bytes();
    result.collapse.unique_blobs = collapse_->unique_blobs();
    result.collapse.interned_bytes = collapse_->interned_bytes();
    result.collapse.intern_calls = collapse_->intern_calls();
    result.collapse.dedupe_ratio = collapse_->dedupe_ratio();
  }
  if (fp_memo_ != nullptr) {
    const util::MemoCore::Stats s = fp_memo_->stats();
    result.memo.footprint_hits = s.hits;
    result.memo.footprint_misses = s.misses;
    result.memo.evictions += s.evictions;
    result.memo.bytes += s.bytes;
  }
  if (disc_memo_ != nullptr) {
    for (const util::MemoCore::Stats& s :
         {disc_memo_->packet_stats(), disc_memo_->stats_stats()}) {
      result.memo.discover_hits += s.hits;
      result.memo.discover_misses += s.misses;
      result.memo.evictions += s.evictions;
      result.memo.bytes += s.bytes;
    }
  }
}

namespace {

/// Human rendering of one flight-recorder entry. The per-worker rings
/// store compact payloads (no strings on the hot path); the transition
/// label is reconstructed here, at dump time, from (kind, actor, aux).
std::string render_flight_event(const util::FlightEvent& e) {
  char head[48];
  std::snprintf(head, sizeof head, "w%u +%.3fs ",
                static_cast<unsigned>(e.seq),
                static_cast<double>(e.t_ns) / 1e9);
  std::string out = head;
  switch (e.kind) {
    case util::FlightEvent::Kind::kExpand: {
      Transition t;
      t.kind = static_cast<TKind>(e.a);
      t.a = e.b;
      t.aux = e.c;
      out += "expand ";
      out += t.label();
      break;
    }
    case util::FlightEvent::Kind::kCheckpoint:
      out += "checkpoint ";
      if (e.detail != nullptr) {
        out += e.detail;
        out += ' ';
      }
      out += std::to_string(e.value) + "B";
      break;
    case util::FlightEvent::Kind::kWatchdog:
      out += "watchdog ";
      if (e.detail != nullptr) {
        out += e.detail;
        out += ' ';
      }
      out += "bytes=" + std::to_string(e.value);
      break;
    case util::FlightEvent::Kind::kSignal:
      out += "signal ";
      if (e.detail != nullptr) out += e.detail;
      break;
    case util::FlightEvent::Kind::kLimit:
      out += "halt ";
      if (e.detail != nullptr) out += e.detail;
      break;
  }
  return out;
}

}  // namespace

void SearchCore::fill_telemetry(CheckerResult& result) const {
  if (telem_ == nullptr) return;
  CheckerResult::TelemetryStats& t = result.telemetry;
  t.enabled = true;
  t.workers = telem_->workers();
  // The sequential drivers reach here still bound; close the live phase
  // slice so the reported profile sums to the wall time exactly. (The
  // parallel drivers joined their workers first — already flushed.)
  if (util::WorkerTelemetry* wt = util::Telemetry::current();
      wt != nullptr) {
    wt->flush_if_current();
  }
  t.phases = telem_->merged_phases();
  t.wall_ns = 0;
  for (std::size_t i = 0; i < telem_->workers(); ++i) {
    t.wall_ns += telem_->worker(i).wall_ns();
  }
  if (result.hit_limit != LimitReason::kNone) {
    const std::vector<util::FlightEvent> events = telem_->merged_flight();
    t.flight.reserve(events.size());
    for (const util::FlightEvent& e : events) {
      t.flight.push_back(render_flight_event(e));
    }
  }
}

void SearchCore::finish_stats(CheckerResult& result, Durability* dur) const {
  fill_store_stats(result);
  if (sym_ != nullptr) {
    result.symmetry.enabled = true;
    result.symmetry.orbits = sym_->orbit_count();
    result.symmetry.orbit_hosts = sym_->orbit_host_count();
    result.symmetry.canonicalizations = sym_->canonicalizations();
  }
  if (dur != nullptr) dur->fill(result);
  fill_telemetry(result);
  result.peak_rss_bytes = util::peak_rss_bytes();
}

void SearchCore::publish_gauges(std::uint64_t frontier_nodes) const {
  if (telem_ == nullptr) return;
  telem_->frontier.store(frontier_nodes, std::memory_order_relaxed);
  telem_->engine_bytes.store(resident_bytes(frontier_nodes),
                             std::memory_order_relaxed);
  if (fp_memo_ != nullptr) {
    const util::MemoCore::Stats s = fp_memo_->stats();
    telem_->memo_fp_hits.store(s.hits, std::memory_order_relaxed);
    telem_->memo_fp_misses.store(s.misses, std::memory_order_relaxed);
  }
  if (disc_memo_ != nullptr) {
    const util::MemoCore::Stats p = disc_memo_->packet_stats();
    const util::MemoCore::Stats q = disc_memo_->stats_stats();
    telem_->memo_disc_hits.store(p.hits + q.hits,
                                 std::memory_order_relaxed);
    telem_->memo_disc_misses.store(p.misses + q.misses,
                                   std::memory_order_relaxed);
  }
}

std::vector<SearchNode> SearchCore::init(CheckerResult& result,
                                         DiscoveryCache& cache) const {
  // Build the shared initial state exactly once (the seed cloned it twice:
  // make_initial → local → clone into the shared_ptr).
  auto initial_sp =
      std::make_shared<const SystemState>(executor_.make_initial());
  ArriveOutcome root_at;
  if (sleep_ != nullptr) {
    // Register the root arrival (empty sleep set) so later re-arrivals at
    // the initial state are pure revisits.
    root_at = arrive_reduced(*initial_sp, {});
  } else {
    remember(*initial_sp);
  }
  result.unique_states = 1;

  std::vector<SearchNode> roots;
  auto ts = apply_strategy(options_.strategy, cfg_, *initial_sp,
                           executor_.enabled(*initial_sp, cache));
  if (ts.empty()) {
    if (sleep_ != nullptr) sync_seen(std::move(root_at));
    ++result.quiescent_states;
    std::vector<Violation> vs;
    // COW clone: O(#components) pointer copies. Monitors may mutate their
    // local state in at_quiescence, which must not leak into the published
    // initial state.
    SystemState tmp = initial_sp->clone();
    executor_.at_quiescence(tmp, vs);
    for (Violation& v : vs) {
      result.violations.push_back(ViolationRecord{std::move(v), {}});
    }
    return roots;
  }
  if (sleep_ != nullptr) {
    make_reduced_children(initial_sp, nullptr, 1, std::move(ts), {}, nullptr,
                          roots);
    sync_seen(std::move(root_at));
    return roots;
  }
  roots.reserve(ts.size());
  for (Transition& t : ts) {
    roots.push_back(
        SearchNode{initial_sp, std::move(t), nullptr, 1, {}, {}, {}, false});
  }
  return roots;
}

SearchCore::Expansion SearchCore::expand(const SearchNode& node,
                                         DiscoveryCache& cache) const {
  Expansion out;

  SystemState next = [&node] {
    const util::PhaseScope ps(util::Phase::kClone);
    return node.state->clone();
  }();
  std::vector<Violation> violations;
  executor_.apply(next, node.transition, violations);

  auto path = std::make_shared<const PathNode>(
      PathNode{node.path, node.transition});

  if (!violations.empty()) {
    out.transition_violated = true;
    const auto trace = trace_of(path);
    out.violations.reserve(violations.size());
    for (Violation& v : violations) {
      out.violations.push_back(ViolationRecord{std::move(v), trace});
    }
    return out;  // do not remember or expand beyond an erroneous state
  }

  if (sleep_ != nullptr) {
    expand_reduced(out, std::move(next), node, std::move(path), cache);
    return out;
  }

  if (!remember(next)) return out;  // revisit
  out.new_state = true;

  if (node.depth >= options_.max_depth) return out;

  auto ts = apply_strategy(options_.strategy, cfg_, next,
                           executor_.enabled(next, cache));
  if (ts.empty()) {
    out.quiescent = true;
    std::vector<Violation> vs;
    executor_.at_quiescence(next, vs);
    if (!vs.empty()) {
      const auto trace = trace_of(path);
      for (Violation& v : vs) {
        out.violations.push_back(ViolationRecord{std::move(v), trace});
      }
    }
    return out;
  }

  auto next_sp = std::make_shared<const SystemState>(std::move(next));
  out.children.reserve(ts.size());
  for (Transition& t : ts) {
    out.children.push_back(
        SearchNode{next_sp, std::move(t), path, node.depth + 1, {}, {}, {}, false});
  }
  return out;
}

void SearchCore::expand_reduced(Expansion& out, SystemState&& next,
                                const SearchNode& node,
                                std::shared_ptr<const PathNode> path,
                                DiscoveryCache& cache) const {
  ArriveOutcome at = arrive_reduced(next, node.sleep);
  out.new_state = at.arr.first;

  if (!at.arr.first && at.arr.explore.empty()) {
    return sync_seen(std::move(at));  // pure revisit
  }
  if (node.depth >= options_.max_depth) return sync_seen(std::move(at));

  auto ts = apply_strategy(options_.strategy, cfg_, next,
                           executor_.enabled(next, cache));
  if (ts.empty()) {
    // Quiescence is a state predicate on the strategy-filtered enabled
    // set, never affected by sleep filtering; check it once (first
    // arrival), exactly like the unreduced search.
    if (at.arr.first) {
      out.quiescent = true;
      std::vector<Violation> vs;
      executor_.at_quiescence(next, vs);
      if (!vs.empty()) {
        const auto trace = trace_of(path);
        for (Violation& v : vs) {
          out.violations.push_back(ViolationRecord{std::move(v), trace});
        }
      }
    }
    return sync_seen(std::move(at));
  }

  auto next_sp = std::make_shared<const SystemState>(std::move(next));
  make_reduced_children(next_sp, path, node.depth + 1, std::move(ts),
                        node.sleep,
                        at.arr.first ? nullptr : &at.arr.explore,
                        out.children);
  sync_seen(std::move(at));
}

void SearchCore::make_reduced_children(
    const std::shared_ptr<const SystemState>& sp,
    const std::shared_ptr<const PathNode>& path, std::size_t depth,
    std::vector<Transition>&& ts, const por::SleepSet& arrival_sleep,
    const std::vector<std::uint64_t>* explore_only,
    std::vector<SearchNode>& out) const {
  std::vector<std::uint64_t> th(ts.size());
  for (std::size_t i = 0; i < ts.size(); ++i) {
    th[i] = por::transition_hash(ts[i]);
  }
  const auto slept = [&arrival_sleep](std::uint64_t x) {
    for (const por::SleepEntry& z : arrival_sleep) {
      if (z.thash == x) return true;
    }
    return false;
  };

  // First arrival: everything outside the arrival sleep set. Revisit:
  // exactly the transitions every earlier arrival slept but this one does
  // not (intersected with the enabled set — stored entries can reference
  // inherited sleep members not enabled here; those need no exploration).
  std::vector<std::size_t> sel;
  sel.reserve(ts.size());
  for (std::size_t i = 0; i < ts.size(); ++i) {
    if (explore_only != nullptr) {
      if (std::find(explore_only->begin(), explore_only->end(), th[i]) !=
          explore_only->end()) {
        sel.push_back(i);
      }
    } else if (!slept(th[i])) {
      sel.push_back(i);
    }
  }
  if (sel.empty()) return;

  std::vector<por::Footprint> fps(ts.size());
  {
    // One scope around the whole batch, not one per call: at ~200ns of
    // total telemetry budget per transition, per-footprint boundaries
    // would cost more than they attribute.
    const util::PhaseScope ps(util::Phase::kFootprint);
    for (const std::size_t i : sel) {
      fps[i] = footprint_of(*sp, ts[i]);
    }
  }

  out.reserve(out.size() + sel.size());
  for (std::size_t k = 0; k < sel.size(); ++k) {
    const std::size_t i = sel[k];
    por::SleepSet child;
    // Inherit arrival-sleep entries still independent of this transition.
    for (const por::SleepEntry& z : arrival_sleep) {
      if (!por::may_conflict(z.fp, fps[i], packet_keys_)) child.push_back(z);
    }
    // Earlier-expanded independent siblings go to sleep: exploring them
    // after `ts[i]` would only commute into states the sibling-first
    // order already reaches.
    for (std::size_t j = 0; j < k; ++j) {
      const std::size_t pj = sel[j];
      if (!por::may_conflict(fps[pj], fps[i], packet_keys_)) {
        child.push_back(por::SleepEntry{th[pj], fps[pj]});
      }
    }
    out.push_back(SearchNode{sp, std::move(ts[i]), path, depth,
                             std::move(child), {}, {}, false});
  }
}

CheckerResult SearchCore::run_sequential(Frontier& frontier,
                                         DiscoveryCache& cache,
                                         Durability* dur) const {
  const auto start = SearchClock::now();
  CheckerResult result;

  // Snapshot of the run as of *now*: counters (seeded totals + this run),
  // the frontier in reconstruction order, and the combined discovery
  // stats the caller passes in.
  const auto make_snapshot = [&](const DiscoveryStats& disc) {
    Durability::Snapshot snap;
    snap.transitions = result.transitions;
    snap.unique_states = result.unique_states;
    snap.revisits = result.revisits;
    snap.quiescent_states = result.quiescent_states;
    snap.violations = &result.violations;
    snap.discovery = disc;
    snap.frontier_rng = frontier.rng_state();
    snap.for_each_node =
        [&frontier](const std::function<void(const SearchNode&)>& fn) {
          frontier.for_each(fn);
        };
    return snap;
  };

  // Worker slot 0 for the single-threaded search; a null telemetry
  // context binds nothing and every scope below degrades to one branch.
  const util::Telemetry::Binding bind(telem_, 0);
  util::WorkerTelemetry* const wt = util::Telemetry::current();

  const auto finalize = [&](LimitReason reason) -> CheckerResult& {
    result.hit_limit = reason;
    result.seconds = seconds_since(start);
    // Accumulate, not assign: a resumed run's seed discovery counters are
    // already in result.discovery.
    add_discovery_stats(result.discovery, cache.stats());
    if (wt != nullptr && reason != LimitReason::kNone) {
      wt->record_event(util::FlightEvent::Kind::kLimit, 0,
                       limit_reason_name(reason));
    }
    publish_gauges(frontier.size());
    if (dur != nullptr) {
      // Every halt — limit, interrupt, memory, exhaustion — leaves a
      // final checkpoint, so resuming a finished run is an idempotent
      // no-op and an interrupted one continues where it stopped.
      dur->save(*this, make_snapshot(result.discovery));
    }
    finish_stats(result, dur);
    return result;
  };

  if (dur != nullptr && dur->resumed()) {
    // The stores were already reloaded by Durability::resume; seed the
    // carried counters/violations and re-push the rebuilt frontier.
    dur->seed(result);
    frontier.set_rng_state(dur->frontier_rng());
    for (SearchNode& node : dur->take_nodes()) {
      frontier.push(std::move(node));
    }
  } else {
    for (SearchNode& root : init(result, cache)) {
      frontier.push(std::move(root));
    }
  }
  if (telem_ != nullptr) {
    // Seed the reporter's cumulative totals: the resumed counters (or
    // init's root state) are not re-counted by the per-worker counters.
    telem_->set_base(result.transitions, result.unique_states,
                     result.revisits, result.quiescent_states);
  }

  // Interrupt/watchdog polls, checkpoint-due checks, and telemetry gauge
  // publication run every kPollStride expansions — cheap enough to never
  // show up in profiles, frequent enough that a signal halts promptly.
  constexpr std::uint64_t kPollStride = 32;
  std::uint64_t since_poll = 0;
  std::uint64_t polls = 0;

  while (!frontier.empty()) {
    if (result.transitions >= options_.max_transitions) {
      return finalize(LimitReason::kTransitions);  // hit a limit: not exhausted
    }
    if (result.unique_states >= options_.max_unique_states) {
      return finalize(LimitReason::kUniqueStates);
    }
    if (options_.time_limit_seconds > 0 &&
        seconds_since(start) >= options_.time_limit_seconds) {
      return finalize(LimitReason::kTime);
    }
    if ((dur != nullptr || telem_ != nullptr) &&
        ++since_poll >= kPollStride) {
      since_poll = 0;
      ++polls;
      if (dur != nullptr) {
        const LimitReason r = dur->poll(*this, frontier.size());
        if (r != LimitReason::kNone) return finalize(r);
        if (dur->due()) {
          DiscoveryStats disc = result.discovery;
          add_discovery_stats(disc, cache.stats());
          dur->save(*this, make_snapshot(disc));
        }
      }
      if (telem_ != nullptr) {
        telem_->frontier.store(frontier.size(), std::memory_order_relaxed);
        // The expensive gauges (engine bytes, memo stats) every ~1k
        // expansions; they take shard locks, so not every poll.
        if (polls % 32 == 0) publish_gauges(frontier.size());
      }
    }
    if (options_.stop_at_first_violation && result.found_violation()) break;

    SearchNode node;
    frontier.pop(node);

    if (wt != nullptr) {
      wt->record_expand(static_cast<std::uint32_t>(node.transition.kind),
                        node.transition.a, node.transition.aux);
    }
    Expansion e = expand(node, cache);
    ++result.transitions;
    if (wt != nullptr) wt->add_transitions();

    if (e.transition_violated) {
      for (ViolationRecord& v : e.violations) {
        result.violations.push_back(std::move(v));
      }
      if (options_.stop_at_first_violation) break;
      continue;
    }

    if (!e.new_state) {
      ++result.revisits;
      if (wt != nullptr) wt->add_revisits();
      // Reduction mode only: a revisit carrying a smaller sleep set
      // re-expands the difference; e.children is empty otherwise.
      for (SearchNode& child : e.children) {
        frontier.push(std::move(child));
      }
      continue;
    }
    ++result.unique_states;
    if (wt != nullptr) wt->add_unique();

    if (e.quiescent) {
      ++result.quiescent_states;
      if (wt != nullptr) wt->add_quiescent();
      if (!e.violations.empty()) {
        for (ViolationRecord& v : e.violations) {
          result.violations.push_back(std::move(v));
        }
        if (options_.stop_at_first_violation) break;
      }
      continue;
    }

    for (SearchNode& child : e.children) {
      frontier.push(std::move(child));
    }
  }

  // "Exhausted" = the bounded state space was fully explored. In
  // collect-all mode a violation does not negate exhaustion; in
  // stop-at-first mode it does (the search was cut short).
  result.exhausted =
      frontier.empty() &&
      !(options_.stop_at_first_violation && result.found_violation());
  return finalize(LimitReason::kNone);
}

}  // namespace nicemc::mc
