// Flat pair-keyed storage for social statistics — the table behind
// every θ(u,v) lookup.
//
// std::unordered_map<UserPair, PairEventStats> puts each entry in its
// own heap node: a θ probe costs a hash, a bucket-array load, and at
// least one pointer chase to a cache line shared with nothing useful.
// PairStore packs the canonical pair into one 64-bit key and stores
// key + counters inline in a single contiguous power-of-two slot array
// with linear probing, so a probe is a multiply-shift hash plus a short
// streak of adjacent cache lines. Deletion is backward-shift (no
// tombstones), so chains never decay. A frozen table also carries a
// neighbor index: for every user u, the ascending partners v > u it has
// recorded history with — the iteration order graph construction wants
// and the hash table cannot give. A frozen store is built in one pass
// by SortedBuilder from entries in ascending pair order.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "s3/analysis/events.h"
#include "s3/util/error.h"
#include "s3/util/ids.h"

namespace s3::social {

class PairStore {
 public:
  using Stats = analysis::PairEventStats;

  PairStore() = default;
  /// Pre-sizes the table for `expected_pairs` entries (no rehash until
  /// the load-factor bound is crossed).
  explicit PairStore(std::size_t expected_pairs) { reserve(expected_pairs); }

  /// Canonical 64-bit key: high word = smaller id, low word = larger.
  static constexpr std::uint64_t pack(UserPair p) noexcept {
    return (static_cast<std::uint64_t>(p.a) << 32) | p.b;
  }
  static constexpr UserPair unpack(std::uint64_t key) noexcept {
    return UserPair(static_cast<UserId>(key >> 32),
                    static_cast<UserId>(key & 0xffffffffULL));
  }

  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }
  /// Slot-array length (power of two; 0 before the first insert).
  std::size_t capacity() const noexcept { return slots_.size(); }

  /// Pointer to the pair's counters, or nullptr if absent. Never
  /// invalidated by other lookups; invalidated by any mutation.
  const Stats* find(UserPair p) const noexcept {
    if (size_ == 0) return nullptr;
    const std::uint64_t key = pack(p);
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = hash(key) & mask;; i = (i + 1) & mask) {
      if (slots_[i].key == key) return &slots_[i].stats;
      if (slots_[i].key == kEmptyKey) return nullptr;
    }
  }
  Stats* find(UserPair p) noexcept {
    return const_cast<Stats*>(std::as_const(*this).find(p));
  }

  /// find() over a row: calls fn(i, stats) for every i in ascending
  /// order, with the counters of the pair (u, vs[i]) or nullptr (always
  /// nullptr for vs[i] == u: a self pair is never stored). find()'s
  /// probe loop waits on each load before the next; a row instead goes
  /// in chunks of kRowChunk pairs: first every pair's home slot is
  /// loaded — independent loads, so their cache misses overlap — then
  /// each pair resolves in order: a hit or an empty slot at home, or
  /// the linear probe continues past it.
  template <typename Fn>
  void find_row(UserId u, std::span<const UserId> vs, Fn&& fn) const {
    if (size_ == 0) {
      for (std::size_t i = 0; i < vs.size(); ++i) fn(i, nullptr);
      return;
    }
    const std::size_t mask = slots_.size() - 1;
    std::uint64_t keys[kRowChunk];
    std::size_t home[kRowChunk];
    std::uint64_t at_home[kRowChunk];
    for (std::size_t begin = 0; begin < vs.size(); begin += kRowChunk) {
      const std::size_t n = std::min(kRowChunk, vs.size() - begin);
      for (std::size_t j = 0; j < n; ++j) {
        keys[j] = pack(UserPair(u, vs[begin + j]));
        home[j] = hash(keys[j]) & mask;
        at_home[j] = slots_[home[j]].key;
      }
      for (std::size_t j = 0; j < n; ++j) {
        const Stats* hit = nullptr;
        if (vs[begin + j] != u) {
          std::size_t i = home[j];
          std::uint64_t seen = at_home[j];
          while (seen != keys[j] && seen != kEmptyKey) {
            i = (i + 1) & mask;
            seen = slots_[i].key;
          }
          if (seen == keys[j]) hit = &slots_[i].stats;
        }
        fn(begin + j, hit);
      }
    }
  }

  /// Counters for `p`, default-constructed on first touch.
  Stats& upsert(UserPair p);

  /// Applies fn(Stats&) to the pair's counters, creating them first if
  /// absent: zero-initialized, or copied from `init_if_new` when given.
  /// Returns true when the pair was new.
  template <typename Fn>
  bool update(UserPair p, Fn&& fn, const Stats* init_if_new = nullptr) {
    if (Stats* hit = find(p)) {
      fn(*hit);
      return false;
    }
    Stats& slot = upsert(p);
    if (init_if_new != nullptr) slot = *init_if_new;
    fn(slot);
    return true;
  }

  /// Inserts or overwrites; returns true when the pair was new.
  bool assign(UserPair p, const Stats& stats);

  /// Removes the pair (backward-shift, no tombstone). Returns whether
  /// it existed.
  bool erase(UserPair p);

  void clear();
  /// Sizes the table so `expected_pairs` entries fit without a rehash.
  /// Rejects (std::invalid_argument) a count no table could hold.
  void reserve(std::size_t expected_pairs);

  /// Applies fn(UserPair, const Stats&) to every entry, in slot order
  /// (deterministic for a fixed insertion history, but not sorted).
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const Slot& s : slots_) {
      if (s.key != kEmptyKey) fn(unpack(s.key), s.stats);
    }
  }

  using Entry = analysis::PairEventEntry;
  /// All entries sorted by (a, b) — the canonical order serialization
  /// uses so written models do not depend on table capacity or
  /// insertion order.
  std::vector<Entry> sorted_entries() const;

 private:
  struct Slot;  // defined below; declared here for const_iterator

 public:
  // Range-for support: yields {UserPair pair, const Stats& stats}.
  class const_iterator {
   public:
    struct value_type {
      UserPair pair;
      const Stats& stats;
    };
    value_type operator*() const { return {unpack(at_->key), at_->stats}; }
    const_iterator& operator++() {
      ++at_;
      skip();
      return *this;
    }
    bool operator==(const const_iterator& o) const { return at_ == o.at_; }
    bool operator!=(const const_iterator& o) const { return at_ != o.at_; }

   private:
    friend class PairStore;
    const_iterator(const Slot* at, const Slot* end) : at_(at), end_(end) {
      skip();
    }
    void skip() {
      while (at_ != end_ && at_->key == kEmptyKey) ++at_;
    }
    const Slot* at_;
    const Slot* end_;
  };
  const_iterator begin() const {
    return {slots_.data(), slots_.data() + slots_.size()};
  }
  const_iterator end() const {
    return {slots_.data() + slots_.size(), slots_.data() + slots_.size()};
  }

  // ---- Neighbor index -------------------------------------------------
  //
  // Frozen-table accelerator: partners_above(u) is the ascending list of
  // users v > u that share a recorded pair with u — the b column of the
  // entries in sorted order. The index holds no slot positions, so a
  // rehash keeps it; updating counters of an existing pair keeps it; a
  // fresh insert or an erase drops it.

  class SortedBuilder;

  /// Builds the index (one sort of the keys). Every recorded user id
  /// must be < num_users.
  void build_neighbor_index(std::size_t num_users);
  bool has_neighbor_index() const noexcept { return !nbr_offsets_.empty(); }
  /// User count the index was built for; 0 without an index.
  std::size_t neighbor_index_users() const noexcept {
    return nbr_offsets_.empty() ? 0 : nbr_offsets_.size() - 1;
  }
  void drop_neighbor_index();

  std::span<const UserId> partners_above(UserId u) const {
    S3_REQUIRE(has_neighbor_index(), "PairStore: no neighbor index");
    S3_REQUIRE(std::size_t{u} < neighbor_index_users(),
               "PairStore::partners_above: user out of range");
    return std::span<const UserId>(nbr_ids_)
        .subspan(nbr_offsets_[u], nbr_offsets_[u + 1] - nbr_offsets_[u]);
  }

  // ---- Conversions ------------------------------------------------------
  static PairStore from_map(const analysis::PairStatsMap& map);
  analysis::PairStatsMap to_map() const;

 private:
  struct Slot {
    std::uint64_t key = kEmptyKey;
    Stats stats{};
  };
  static constexpr std::uint64_t kEmptyKey = ~0ULL;  // pair (max, max): a == b,
                                                     // never storable
  static constexpr std::size_t kMinCapacity = 16;
  /// Pairs whose home slots find_row loads before resolving any.
  static constexpr std::size_t kRowChunk = 16;

  /// splitmix64 finalizer — the same mix UserPairHash uses, so the two
  /// backends agree on distribution quality.
  static std::size_t hash(std::uint64_t z) noexcept {
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return static_cast<std::size_t>(z ^ (z >> 31));
  }

  /// Slot for `key`: either its current position or the empty slot
  /// where it belongs. Requires a non-full table.
  std::size_t probe(std::uint64_t key) const noexcept {
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = hash(key) & mask;
    while (slots_[i].key != kEmptyKey && slots_[i].key != key) {
      i = (i + 1) & mask;
    }
    return i;
  }

  void rehash(std::size_t new_capacity);
  void grow_if_needed() {
    if (slots_.empty() || size_ + 1 > max_load_) {
      rehash(slots_.empty() ? kMinCapacity : slots_.size() * 2);
    }
  }

  std::vector<Slot> slots_;
  std::size_t size_ = 0;
  std::size_t max_load_ = 0;  ///< rehash when size_ would exceed this

  // Neighbor index (empty = not built): row u is
  // nbr_ids_[nbr_offsets_[u], nbr_offsets_[u + 1]).
  std::vector<std::size_t> nbr_offsets_;
  std::vector<UserId> nbr_ids_;
};

/// Builds a frozen store from entries that arrive in strictly ascending
/// pair order, filling the hash table and the neighbor index in the
/// same pass. A table pre-sized for the expected count is laid out
/// exactly as assigning the same entries in the same order would lay
/// it out; more entries than expected grow it as upsert would.
class PairStore::SortedBuilder {
 public:
  /// Every appended id must be < num_users.
  SortedBuilder(std::size_t expected_pairs, std::size_t num_users);

  /// Adds one entry. Rejects (std::invalid_argument) a self pair, an id
  /// >= num_users, and a pair not greater than the previous one.
  void append(UserPair p, const Stats& stats);

  std::size_t size() const noexcept { return store_.size(); }

  /// The store, with its neighbor index built for num_users.
  PairStore finish() &&;

 private:
  PairStore store_;
  std::vector<std::size_t> offsets_;  ///< per-user counts until finish()
  std::vector<UserId> ids_;
  std::uint64_t last_key_ = 0;
};

}  // namespace s3::social
