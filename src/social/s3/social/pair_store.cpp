#include "s3/social/pair_store.h"

#include <algorithm>

namespace s3::social {

PairStore::Stats& PairStore::upsert(UserPair p) {
  S3_REQUIRE(p.a != p.b, "PairStore: self pair");
  grow_if_needed();
  const std::uint64_t key = pack(p);
  const std::size_t i = probe(key);
  if (slots_[i].key == kEmptyKey) {
    slots_[i].key = key;
    slots_[i].stats = Stats{};
    ++size_;
    drop_neighbor_index();
  }
  return slots_[i].stats;
}

bool PairStore::assign(UserPair p, const Stats& stats) {
  S3_REQUIRE(p.a != p.b, "PairStore: self pair");
  grow_if_needed();
  const std::uint64_t key = pack(p);
  const std::size_t i = probe(key);
  const bool fresh = slots_[i].key == kEmptyKey;
  if (fresh) {
    slots_[i].key = key;
    ++size_;
    drop_neighbor_index();
  }
  slots_[i].stats = stats;
  return fresh;
}

bool PairStore::erase(UserPair p) {
  if (size_ == 0) return false;
  const std::uint64_t key = pack(p);
  const std::size_t mask = slots_.size() - 1;
  std::size_t hole = hash(key) & mask;
  while (slots_[hole].key != key) {
    if (slots_[hole].key == kEmptyKey) return false;
    hole = (hole + 1) & mask;
  }
  // Backward-shift deletion: walk the chain after the hole and pull
  // back every entry whose home position lies cyclically at or before
  // the hole, so probe chains stay gap-free without tombstones.
  std::size_t j = (hole + 1) & mask;
  while (slots_[j].key != kEmptyKey) {
    const std::size_t home = hash(slots_[j].key) & mask;
    if (((j - home) & mask) >= ((j - hole) & mask)) {
      slots_[hole] = slots_[j];
      hole = j;
    }
    j = (j + 1) & mask;
  }
  slots_[hole].key = kEmptyKey;
  slots_[hole].stats = Stats{};
  --size_;
  drop_neighbor_index();
  return true;
}

void PairStore::clear() {
  slots_.clear();
  size_ = 0;
  max_load_ = 0;
  drop_neighbor_index();
}

void PairStore::reserve(std::size_t expected_pairs) {
  // Bounds the doubling below: the loop ends at cap < 4 * expected_pairs,
  // which cannot overflow and stays within what a vector can hold.
  S3_REQUIRE(expected_pairs <= slots_.max_size() / 4,
             "PairStore::reserve: pair count too large to size a table");
  std::size_t cap = kMinCapacity;
  // Load-factor bound 1/2: misses in a linear-probe table cost
  // ~(1 + 1/(1-a)^2)/2 probes — 8.5 at a=3/4 but only 2.5 at a=1/2,
  // and the selector hot path is roughly half misses (candidate pairs
  // with no recorded history). Half-full costs 2x slots but keeps the
  // probe streak inside one or two cache lines.
  while (cap / 2 < expected_pairs) cap *= 2;
  if (cap > slots_.size()) rehash(cap);
}

void PairStore::rehash(std::size_t new_capacity) {
  std::vector<Slot> old;
  old.swap(slots_);
  slots_.assign(new_capacity, Slot{});
  max_load_ = new_capacity / 2;
  const std::size_t mask = new_capacity - 1;
  for (const Slot& s : old) {
    if (s.key == kEmptyKey) continue;
    std::size_t i = hash(s.key) & mask;
    while (slots_[i].key != kEmptyKey) i = (i + 1) & mask;
    slots_[i] = s;
  }
}

std::vector<PairStore::Entry> PairStore::sorted_entries() const {
  std::vector<Entry> entries;
  entries.reserve(size_);
  for_each([&](UserPair p, const Stats& s) { entries.push_back({p, s}); });
  // s3lint: allow(det-sort-ties): total order: pairs are unique keys
  std::sort(entries.begin(), entries.end(),
            [](const Entry& x, const Entry& y) { return x.pair < y.pair; });
  return entries;
}

void PairStore::build_neighbor_index(std::size_t num_users) {
  std::vector<std::uint64_t> keys;
  keys.reserve(size_);
  for (const Slot& s : slots_) {
    if (s.key != kEmptyKey) keys.push_back(s.key);
  }
  std::sort(keys.begin(), keys.end());
  std::vector<std::size_t> offsets(num_users + 1, 0);
  std::vector<UserId> ids;
  ids.reserve(keys.size());
  for (const std::uint64_t key : keys) {
    const UserPair p = unpack(key);
    S3_REQUIRE(p.b < num_users,
               "PairStore::build_neighbor_index: user out of range");
    ++offsets[p.a + 1];
    ids.push_back(p.b);
  }
  for (std::size_t u = 0; u < num_users; ++u) offsets[u + 1] += offsets[u];
  nbr_offsets_ = std::move(offsets);
  nbr_ids_ = std::move(ids);
}

void PairStore::drop_neighbor_index() {
  nbr_offsets_.clear();
  nbr_ids_.clear();
}

PairStore::SortedBuilder::SortedBuilder(std::size_t expected_pairs,
                                        std::size_t num_users)
    : store_(expected_pairs), offsets_(num_users + 1, 0) {
  ids_.reserve(expected_pairs);
}

void PairStore::SortedBuilder::append(UserPair p, const Stats& stats) {
  S3_REQUIRE(p.a != p.b, "PairStore::SortedBuilder: self pair");
  S3_REQUIRE(p.b + std::size_t{1} < offsets_.size(),
             "PairStore::SortedBuilder: user out of range");
  const std::uint64_t key = pack(p);
  S3_REQUIRE(store_.size_ == 0 || key > last_key_,
             "PairStore::SortedBuilder: pairs must be strictly ascending");
  // Ascending keys are all new, so the probe always ends on an empty
  // slot — the same slot assign() would pick.
  store_.grow_if_needed();
  Slot& slot = store_.slots_[store_.probe(key)];
  slot.key = key;
  slot.stats = stats;
  ++store_.size_;
  ++offsets_[p.a + 1];
  ids_.push_back(p.b);
  last_key_ = key;
}

PairStore PairStore::SortedBuilder::finish() && {
  for (std::size_t u = 0; u + 1 < offsets_.size(); ++u) {
    offsets_[u + 1] += offsets_[u];
  }
  store_.nbr_offsets_ = std::move(offsets_);
  store_.nbr_ids_ = std::move(ids_);
  return std::move(store_);
}

PairStore PairStore::from_map(const analysis::PairStatsMap& map) {
  PairStore store(map.size());
  for (const auto& [pair, stats] : map) store.assign(pair, stats);
  return store;
}

analysis::PairStatsMap PairStore::to_map() const {
  analysis::PairStatsMap map;
  map.reserve(size_);
  for_each([&](UserPair p, const Stats& s) { map.emplace(p, s); });
  return map;
}

}  // namespace s3::social
