#include "mc/por/sleep.h"

#include <algorithm>
#include <string>

namespace nicemc::mc::por {

namespace {
/// Coarse per-entry accounting overhead (map node, slept vector) used by
/// the running store_bytes() counter — the watchdog needs honest
/// magnitudes, not exact heap telemetry.
constexpr std::uint64_t kEntryOverhead = 96;
}  // namespace

SleepStore::SleepStore(std::size_t shards) : select_(shards) {
  shards_.reserve(select_.count());
  for (std::size_t i = 0; i < select_.count(); ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

SleepStore::Arrival SleepStore::arrive(std::string_view identity,
                                       const SleepSet& sleep) {
  std::vector<std::uint64_t> mine;
  mine.reserve(sleep.size());
  for (const SleepEntry& z : sleep) mine.push_back(z.thash);
  std::sort(mine.begin(), mine.end());
  mine.erase(std::unique(mine.begin(), mine.end()), mine.end());

  Shard& sh = shard_of(identity);
  std::lock_guard<std::mutex> lock(sh.mu);
  auto it = sh.slept.find(identity);
  if (it == sh.slept.end()) {
    bytes_.fetch_add(identity.size() + kEntryOverhead +
                         mine.size() * sizeof(std::uint64_t),
                     std::memory_order_relaxed);
    sh.slept.emplace(std::string(identity), std::move(mine));
    return Arrival{.first = true, .explore = {}};
  }

  Arrival out;
  std::vector<std::uint64_t>& stored = it->second;
  if (stored.empty()) return out;

  // Revisit: expand what every earlier arrival slept but this one does
  // not, and shrink the stored set to the intersection (an entry stays
  // slept only while *all* arrivals justify sleeping it).
  std::vector<std::uint64_t> kept;
  kept.reserve(stored.size());
  for (const std::uint64_t th : stored) {
    if (std::binary_search(mine.begin(), mine.end(), th)) {
      kept.push_back(th);
    } else {
      out.explore.push_back(th);
    }
  }
  stored = std::move(kept);
  bytes_.fetch_sub(out.explore.size() * sizeof(std::uint64_t),
                   std::memory_order_relaxed);
  return out;
}

std::uint64_t SleepStore::states() const {
  std::uint64_t n = 0;
  for (const auto& sh : shards_) {
    std::lock_guard<std::mutex> lock(sh->mu);
    n += sh->slept.size();
  }
  return n;
}

void SleepStore::serialize(util::Ser& s) const {
  s.put_u64(states());
  for (const auto& sh : shards_) {
    std::lock_guard<std::mutex> lock(sh->mu);
    for (const auto& [identity, slept] : sh->slept) {
      s.put_str(identity);
      s.put_u64(slept.size());
      for (const std::uint64_t th : slept) s.put_u64(th);
    }
  }
}

bool SleepStore::restore(util::Des& d) {
  if (states() != 0) return false;
  const std::uint64_t n = d.get_count(sizeof(std::uint32_t));
  if (!d.ok()) return false;
  for (std::uint64_t i = 0; i < n; ++i) {
    const std::string_view identity = d.get_str();
    const std::uint64_t slept_n = d.get_count(sizeof(std::uint64_t));
    if (!d.ok()) return false;
    std::vector<std::uint64_t> slept;
    slept.reserve(slept_n);
    for (std::uint64_t j = 0; j < slept_n; ++j) {
      slept.push_back(d.get_u64());
    }
    if (!d.ok()) return false;
    const std::uint64_t bytes = identity.size() + kEntryOverhead +
                                slept.size() * sizeof(std::uint64_t);
    Shard& sh = shard_of(identity);
    std::lock_guard<std::mutex> lock(sh.mu);
    if (!sh.slept.emplace(std::string(identity), std::move(slept)).second) {
      d.fail();  // duplicate identity: the section is corrupt
      return false;
    }
    bytes_.fetch_add(bytes, std::memory_order_relaxed);
  }
  return d.ok();
}

void SleepStore::clear() {
  for (const auto& sh : shards_) {
    std::lock_guard<std::mutex> lock(sh->mu);
    sh->slept.clear();
  }
  bytes_.store(0, std::memory_order_relaxed);
}

}  // namespace nicemc::mc::por
