// Multi-threaded exploration drivers built on SearchCore.
//
// run_parallel: N workers pull SearchNodes from one shared work deque
// (LIFO, for DFS-like locality), expand them through the shared SearchCore
// (lock-striped seen-set, per-worker discovery caches), and publish
// progress through atomic counters. On exhaustive runs the result is
// count-equivalent to the single-threaded search: same unique states, same
// transitions/revisits/quiescent counts, same violation set modulo
// path-dependent packet copy-ids in the messages (when several
// interleavings reach the same canonical state, the thread that wins the
// seen-set insert reports its own path's packet uids) — and the order of
// violations differs. Under CheckerOptions::reduction the driver keeps
// the soundness contract (same unique states, same violation set, ≤
// transitions of the unreduced run); exact transition counts become
// schedule-dependent because which arrival claims a sleep re-expansion
// races (see mc/por/sleep.h). Sleep sets ride on SearchNode and the
// per-state bookkeeping lives in the lock-striped SleepStore, so the
// driver needs no reduction-specific shared state of its own.
//
// run_random_walk_portfolio: the simulator mode as a portfolio — each
// worker runs an independent share of the walks with its own seeded RNG,
// all publishing into the shared seen-set.
#ifndef NICE_MC_PARALLEL_H
#define NICE_MC_PARALLEL_H

#include <cstdint>

#include "mc/search_core.h"

namespace nicemc::mc {

/// Exhaustive (bounded) search with `threads` workers. `threads` is
/// clamped to at least 1; with 1 it still runs the shared-deque driver on
/// the calling thread (prefer SearchCore::run_sequential for determinism).
/// `dur` (optional) enables the durability layer: resume seeding, periodic
/// checkpoints behind a quiesce barrier (workers drain before the snapshot
/// is taken), a final at-halt checkpoint, the memory watchdog, and
/// cooperative interrupts.
CheckerResult run_parallel(const SearchCore& core, unsigned threads,
                           Durability* dur = nullptr);

/// `walks` random walks split across `threads` workers; worker w takes
/// walks w, w+threads, ... and draws from its own SplitMix64 stream
/// derived from `seed`, so a given (seed, threads) pair is reproducible.
CheckerResult run_random_walk_portfolio(const SearchCore& core,
                                        unsigned threads,
                                        std::uint64_t seed, int walks,
                                        int max_steps);

}  // namespace nicemc::mc

#endif  // NICE_MC_PARALLEL_H
