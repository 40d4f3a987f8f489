// Thread-safe sharded LRU cache of PlanArtifacts, keyed by structural
// fingerprint.
//
// One Compiler session owns one PlanCache; every compile() of a structure
// already seen anywhere in the session — at any bounds — is a lookup, not
// an analysis. Sharding: the fingerprint hash picks a shard, each shard is
// an independent mutex + LRU list + key map, so concurrent compiles of
// distinct structures rarely contend on one lock. Lookups compare full
// canonical keys (the hash only routes), so hash collisions cost sharing,
// never correctness.
#pragma once

#include <cstddef>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "api/compiled_loop.h"

namespace vdep {

/// Aggregate counters of a PlanCache (or Compiler::cache_stats()).
struct CacheStats {
  i64 hits = 0;
  i64 misses = 0;
  i64 evictions = 0;
  std::size_t entries = 0;

  double hit_rate() const {
    i64 total = hits + misses;
    return total > 0 ? static_cast<double>(hits) / static_cast<double>(total)
                     : 0.0;
  }
};

class PlanCache {
 public:
  /// `capacity` artifacts total, split evenly over `shards` independent
  /// LRU lists (each shard holds at least one entry). Use shards = 1 when
  /// deterministic global LRU order matters more than lock spreading.
  explicit PlanCache(std::size_t capacity, std::size_t shards = 8);

  PlanCache(const PlanCache&) = delete;
  PlanCache& operator=(const PlanCache&) = delete;

  /// The artifact for `fp`, bumped to most-recently-used; nullptr on miss.
  std::shared_ptr<const PlanArtifact> find(const Fingerprint& fp);

  /// Inserts `artifact`, evicting the shard's LRU tail at capacity.
  /// Returns the resident artifact: when another thread raced the same
  /// structure in first, the earlier artifact wins and is returned so all
  /// handles share one instance.
  std::shared_ptr<const PlanArtifact> insert(
      std::shared_ptr<const PlanArtifact> artifact);

  CacheStats stats() const;
  void clear();

  std::size_t capacity() const { return per_shard_cap_ * shards_.size(); }

 private:
  using LruList = std::list<std::shared_ptr<const PlanArtifact>>;

  struct Shard {
    mutable std::mutex mu;
    LruList lru;  ///< front = most recently used
    /// Indexed by the fingerprint's precomputed hash (no re-hashing of the
    /// canonical key on lookup); the bucket vector disambiguates 64-bit
    /// collisions by full-key comparison and is almost always size 1.
    std::unordered_map<std::uint64_t, std::vector<LruList::iterator>> by_hash;
    i64 hits = 0;
    i64 misses = 0;
    i64 evictions = 0;

    LruList::iterator* lookup(const Fingerprint& fp);
    void erase_index(const Fingerprint& fp, LruList::iterator it);
  };

  Shard& shard_for(const Fingerprint& fp) {
    return shards_[fp.hash % shards_.size()];
  }

  std::vector<Shard> shards_;
  std::size_t per_shard_cap_ = 1;
};

}  // namespace vdep
