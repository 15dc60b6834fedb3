#include "s3/social/pair_store.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <random>
#include <unordered_map>

#include "s3/social/social_index.h"

namespace s3::social {
namespace {

using Stats = PairStore::Stats;

UserPair random_pair(std::mt19937_64& rng, UserId universe) {
  std::uniform_int_distribution<UserId> pick(0, universe - 1);
  UserId a = pick(rng);
  UserId b = pick(rng);
  while (b == a) b = pick(rng);
  return UserPair(a, b);
}

TEST(PairStore, PackUnpackRoundTrip) {
  const UserPair p(3, 0x7fffffffu);
  EXPECT_EQ(PairStore::unpack(PairStore::pack(p)), p);
  EXPECT_EQ(PairStore::pack(UserPair(0, 1)), 1u);
}

TEST(PairStore, EmptyTableBehaves) {
  PairStore store;
  EXPECT_TRUE(store.empty());
  EXPECT_EQ(store.size(), 0u);
  EXPECT_EQ(store.capacity(), 0u);
  EXPECT_EQ(store.find(UserPair(0, 1)), nullptr);
  EXPECT_FALSE(store.erase(UserPair(0, 1)));
  EXPECT_EQ(store.begin(), store.end());
  std::size_t visited = 0;
  store.for_each([&](UserPair, const Stats&) { ++visited; });
  EXPECT_EQ(visited, 0u);
}

TEST(PairStore, UpsertFindEraseBasics) {
  PairStore store;
  Stats& s = store.upsert(UserPair(1, 2));
  s.encounters = 7;
  s.co_leaves = 3;
  EXPECT_EQ(store.size(), 1u);
  const Stats* found = store.find(UserPair(2, 1));  // canonical order
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->encounters, 7u);
  EXPECT_TRUE(store.erase(UserPair(1, 2)));
  EXPECT_EQ(store.find(UserPair(1, 2)), nullptr);
  EXPECT_TRUE(store.empty());
}

TEST(PairStore, AssignReportsNewVsOverwrite) {
  PairStore store;
  EXPECT_TRUE(store.assign(UserPair(0, 1), {1, 1, 0}));
  EXPECT_FALSE(store.assign(UserPair(0, 1), {9, 2, 0}));
  EXPECT_EQ(store.find(UserPair(0, 1))->encounters, 9u);
  EXPECT_EQ(store.size(), 1u);
}

TEST(PairStore, GrowsThroughRehashesKeepingEntries) {
  PairStore store;
  // Far past kMinCapacity so several rehashes happen.
  for (UserId v = 1; v <= 3000; ++v) {
    store.upsert(UserPair(0, v)).encounters = v;
  }
  EXPECT_EQ(store.size(), 3000u);
  // Power-of-two capacity with headroom.
  EXPECT_EQ(store.capacity() & (store.capacity() - 1), 0u);
  EXPECT_GT(store.capacity(), store.size());
  for (UserId v = 1; v <= 3000; ++v) {
    const Stats* s = store.find(UserPair(0, v));
    ASSERT_NE(s, nullptr) << v;
    EXPECT_EQ(s->encounters, v);
  }
}

TEST(PairStore, RandomizedDifferentialAgainstUnorderedMap) {
  // 1e5 random upsert/assign/erase/find operations over a small id
  // universe (forcing dense collision chains and backward-shift
  // deletions), mirrored into the reference std::unordered_map. The
  // two backends must agree after every mutation batch and at the end.
  std::mt19937_64 rng(20260805);
  PairStore store;
  analysis::PairStatsMap reference;
  constexpr UserId kUniverse = 64;  // ~2016 distinct pairs
  constexpr std::size_t kOps = 100'000;
  std::uniform_int_distribution<int> op(0, 9);
  for (std::size_t i = 0; i < kOps; ++i) {
    const UserPair p = random_pair(rng, kUniverse);
    switch (op(rng)) {
      case 0:
      case 1:
      case 2:
      case 3: {  // upsert + bump
        Stats& s = store.upsert(p);
        Stats& r = reference[p];
        ++s.encounters;
        ++r.encounters;
        break;
      }
      case 4:
      case 5: {  // co-leave bump through upsert
        Stats& s = store.upsert(p);
        Stats& r = reference[p];
        ++s.co_leaves;
        ++r.co_leaves;
        break;
      }
      case 6: {  // assign (overwrite)
        const Stats fresh{static_cast<std::uint32_t>(i % 97), 0, 1};
        store.assign(p, fresh);
        reference[p] = fresh;
        break;
      }
      case 7:
      case 8: {  // erase
        const bool a = store.erase(p);
        const bool b = reference.erase(p) > 0;
        ASSERT_EQ(a, b) << "op " << i;
        break;
      }
      default: {  // find
        const Stats* s = store.find(p);
        const auto it = reference.find(p);
        ASSERT_EQ(s != nullptr, it != reference.end()) << "op " << i;
        if (s != nullptr) {
          ASSERT_EQ(s->encounters, it->second.encounters) << "op " << i;
          ASSERT_EQ(s->co_leaves, it->second.co_leaves) << "op " << i;
        }
        break;
      }
    }
    if (i % 10'000 == 0) {
      ASSERT_EQ(store.size(), reference.size()) << "op " << i;
    }
  }
  // Full-state equivalence both directions.
  ASSERT_EQ(store.size(), reference.size());
  store.for_each([&](UserPair p, const Stats& s) {
    const auto it = reference.find(p);
    ASSERT_NE(it, reference.end());
    EXPECT_EQ(s.encounters, it->second.encounters);
    EXPECT_EQ(s.co_leaves, it->second.co_leaves);
    EXPECT_EQ(s.co_comings, it->second.co_comings);
  });
  for (const auto& [p, r] : reference) {
    const Stats* s = store.find(p);
    ASSERT_NE(s, nullptr);
    EXPECT_EQ(s->encounters, r.encounters);
  }
}

TEST(PairStore, SortedEntriesAreCanonicallyOrdered) {
  std::mt19937_64 rng(7);
  PairStore store;
  for (int i = 0; i < 500; ++i) {
    store.upsert(random_pair(rng, 40)).encounters = 1;
  }
  const std::vector<PairStore::Entry> entries = store.sorted_entries();
  EXPECT_EQ(entries.size(), store.size());
  for (std::size_t i = 1; i < entries.size(); ++i) {
    const UserPair& a = entries[i - 1].pair;
    const UserPair& b = entries[i].pair;
    EXPECT_TRUE(a.a < b.a || (a.a == b.a && a.b < b.b));
  }
}

TEST(PairStore, MapConversionsRoundTrip) {
  std::mt19937_64 rng(11);
  analysis::PairStatsMap map;
  for (int i = 0; i < 800; ++i) {
    map[random_pair(rng, 60)] = {static_cast<std::uint32_t>(i), 2, 1};
  }
  const PairStore store = PairStore::from_map(map);
  EXPECT_EQ(store.size(), map.size());
  const analysis::PairStatsMap back = store.to_map();
  EXPECT_EQ(back.size(), map.size());
  for (const auto& [p, s] : map) {
    const auto it = back.find(p);
    ASSERT_NE(it, back.end());
    EXPECT_EQ(it->second.encounters, s.encounters);
  }
}

TEST(PairStore, RangeForIterationMatchesForEach) {
  std::mt19937_64 rng(3);
  PairStore store;
  for (int i = 0; i < 200; ++i) store.upsert(random_pair(rng, 30));
  std::vector<UserPair> via_for_each;
  store.for_each(
      [&](UserPair p, const Stats&) { via_for_each.push_back(p); });
  std::vector<UserPair> via_range;
  for (const auto& [pair, stats] : store) {
    via_range.push_back(pair);
    (void)stats;
  }
  EXPECT_EQ(via_range, via_for_each);  // same slot order
}

TEST(PairStore, NeighborIndexListsSortedPartners) {
  PairStore store;
  store.upsert(UserPair(0, 3)).encounters = 1;
  store.upsert(UserPair(0, 1)).encounters = 2;
  store.upsert(UserPair(2, 3)).encounters = 3;
  EXPECT_FALSE(store.has_neighbor_index());
  store.build_neighbor_index(5);
  ASSERT_TRUE(store.has_neighbor_index());
  EXPECT_EQ(store.neighbor_index_users(), 5u);

  const std::span<const UserId> p0 = store.partners_above(0);
  ASSERT_EQ(p0.size(), 2u);
  EXPECT_EQ(p0[0], 1u);
  EXPECT_EQ(p0[1], 3u);
  // Only partners above u: (0, 1) is listed under 0, not under 1.
  EXPECT_TRUE(store.partners_above(1).empty());
  ASSERT_EQ(store.partners_above(2).size(), 1u);
  EXPECT_EQ(store.partners_above(2)[0], 3u);
  EXPECT_TRUE(store.partners_above(3).empty());
  EXPECT_TRUE(store.partners_above(4).empty());
  EXPECT_THROW(store.partners_above(5), std::invalid_argument);
  EXPECT_THROW(store.partners_above(0xffffffffu), std::invalid_argument);
  EXPECT_THROW(store.build_neighbor_index(3), std::invalid_argument);
}

TEST(PairStore, NeighborIndexMatchesBruteForceOnRandomTable) {
  std::mt19937_64 rng(17);
  PairStore store;
  constexpr UserId kUsers = 50;
  for (int i = 0; i < 400; ++i) store.upsert(random_pair(rng, kUsers));
  store.build_neighbor_index(kUsers);
  for (UserId u = 0; u < kUsers; ++u) {
    std::vector<UserId> expected;
    store.for_each([&](UserPair p, const Stats&) {
      if (p.a == u) expected.push_back(p.b);
    });
    std::sort(expected.begin(), expected.end());
    const std::span<const UserId> got = store.partners_above(u);
    ASSERT_EQ(got.size(), expected.size()) << "u=" << u;
    EXPECT_TRUE(std::equal(got.begin(), got.end(), expected.begin()));
  }
}

TEST(PairStore, MutationInvalidatesNeighborIndex) {
  PairStore store;
  store.upsert(UserPair(0, 1));
  store.build_neighbor_index(2);
  EXPECT_TRUE(store.has_neighbor_index());
  ++store.upsert(UserPair(0, 1)).encounters;  // existing pair: index kept
  EXPECT_TRUE(store.has_neighbor_index());
  store.reserve(10'000);  // rehash: the index holds no slots, so it stays
  EXPECT_TRUE(store.has_neighbor_index());
  ASSERT_EQ(store.partners_above(0).size(), 1u);
  store.upsert(UserPair(0, 2));  // fresh pair: dropped
  EXPECT_FALSE(store.has_neighbor_index());

  store.build_neighbor_index(3);
  store.erase(UserPair(0, 2));
  EXPECT_FALSE(store.has_neighbor_index());
  EXPECT_EQ(store.neighbor_index_users(), 0u);
  EXPECT_THROW(store.partners_above(0), std::invalid_argument);
}

TEST(PairStore, SortedBuilderMatchesAssignInTheSameOrder) {
  // Ascending entries through the builder give the same slot layout as
  // assign() in the same order into a table reserved for the same count
  // (and the same growth when the count is short), plus the index
  // build_neighbor_index would produce.
  std::mt19937_64 rng(29);
  constexpr UserId kUsers = 70;
  std::vector<PairStore::Entry> entries;
  {
    PairStore unordered;
    for (int i = 0; i < 600; ++i) {
      Stats& st = unordered.upsert(random_pair(rng, kUsers));
      ++st.encounters;
      st.co_comings = static_cast<std::uint32_t>(i);
    }
    entries = unordered.sorted_entries();
  }
  for (const std::size_t expected : {entries.size(), std::size_t{0}}) {
    PairStore::SortedBuilder builder(expected, kUsers);
    for (const PairStore::Entry& e : entries) builder.append(e.pair, e.stats);
    EXPECT_EQ(builder.size(), entries.size());
    const PairStore built = std::move(builder).finish();

    PairStore reference(expected);
    for (const PairStore::Entry& e : entries) reference.assign(e.pair, e.stats);
    reference.build_neighbor_index(kUsers);

    ASSERT_EQ(built.size(), reference.size());
    EXPECT_EQ(built.capacity(), reference.capacity());
    std::vector<std::uint64_t> built_slots, reference_slots;
    for (const auto& [pair, stats] : built) {
      built_slots.push_back(PairStore::pack(pair));
    }
    for (const auto& [pair, stats] : reference) {
      reference_slots.push_back(PairStore::pack(pair));
    }
    EXPECT_EQ(built_slots, reference_slots);
    for (const PairStore::Entry& e : entries) {
      const Stats* st = built.find(e.pair);
      ASSERT_NE(st, nullptr);
      EXPECT_EQ(st->co_comings, e.stats.co_comings);
    }
    ASSERT_TRUE(built.has_neighbor_index());
    EXPECT_EQ(built.neighbor_index_users(), std::size_t{kUsers});
    for (UserId u = 0; u < kUsers; ++u) {
      const std::span<const UserId> x = built.partners_above(u);
      const std::span<const UserId> y = reference.partners_above(u);
      EXPECT_TRUE(std::equal(x.begin(), x.end(), y.begin(), y.end()));
    }
  }
}

TEST(PairStore, SortedBuilderRefusesBadInput) {
  PairStore::SortedBuilder builder(4, 10);
  builder.append(UserPair(1, 5), {});
  EXPECT_THROW(builder.append(UserPair(1, 5), {}), std::invalid_argument);
  EXPECT_THROW(builder.append(UserPair(0, 9), {}), std::invalid_argument);
  EXPECT_THROW(builder.append(UserPair(1, 4), {}), std::invalid_argument);
  EXPECT_THROW(builder.append(UserPair(2, 10), {}), std::invalid_argument);
  EXPECT_THROW(builder.append(UserPair(3, 3), {}), std::invalid_argument);
  builder.append(UserPair(1, 6), {});
  const PairStore store = std::move(builder).finish();
  EXPECT_EQ(store.size(), 2u);
  ASSERT_EQ(store.partners_above(1).size(), 2u);
}

TEST(PairStore, SortedBuilderWithNoEntriesHasAnEmptyIndex) {
  const PairStore store = PairStore::SortedBuilder(0, 3).finish();
  EXPECT_TRUE(store.empty());
  ASSERT_TRUE(store.has_neighbor_index());
  EXPECT_TRUE(store.partners_above(2).empty());
}

TEST(PairStore, ReserveRejectsCountsNoTableCanHold) {
  // Doubling toward 2^64 - 1 used to wrap the capacity to 0 and spin.
  PairStore store;
  EXPECT_THROW(store.reserve(~std::size_t{0}), std::invalid_argument);
  EXPECT_THROW(store.reserve(std::size_t{1} << 62), std::invalid_argument);
  EXPECT_THROW(PairStore(~std::size_t{0}), std::invalid_argument);
  EXPECT_EQ(store.capacity(), 0u);
}

TEST(PairStore, ReservePreventsRehash) {
  PairStore store;
  store.reserve(1000);
  const std::size_t cap = store.capacity();
  for (UserId v = 1; v <= 1000; ++v) store.upsert(UserPair(0, v));
  EXPECT_EQ(store.capacity(), cap);
}

TEST(PairStore, ClearResetsEverything) {
  PairStore store;
  store.upsert(UserPair(0, 1));
  store.build_neighbor_index(2);
  store.clear();
  EXPECT_TRUE(store.empty());
  EXPECT_EQ(store.capacity(), 0u);
  EXPECT_FALSE(store.has_neighbor_index());
  EXPECT_EQ(store.find(UserPair(0, 1)), nullptr);
}

// ---- find_row: the chunked two-phase probe ------------------------------

constexpr UserId kRowUsers = 60;

/// A 64-slot table of 30 pairs, six of whose home slot is one of the
/// last two: at least four of those sit past the end, at the front of
/// the table, where only a probe that wraps finds them. The slot
/// arithmetic uses UserPairHash, the mix PairStore hashes with.
PairStore wrapped_store() {
  PairStore store(32);
  const std::size_t mask = store.capacity() - 1;
  std::size_t near_end = 0;
  for (UserId a = 0; a < kRowUsers && near_end < 6; ++a) {
    for (UserId b = a + 1; b < kRowUsers && near_end < 6; ++b) {
      if ((UserPairHash{}(UserPair(a, b)) & mask) + 2 > mask) {
        store.assign(UserPair(a, b), {4, a % 5, 0});
        ++near_end;
      }
    }
  }
  std::mt19937_64 rng(41);
  while (store.size() < 30) {
    const UserPair p = random_pair(rng, kRowUsers);
    store.assign(p, {1 + p.a % 4, p.b % 2, 0});
  }
  return store;
}

/// Calls fn(u, vs) on rows of 1, 15, 16, 17 and 33 users around every
/// stored pair, from each end: the partner first and last, u itself in
/// the middle, the rest drawn at random.
template <typename Fn>
void for_each_test_row(const PairStore& store, Fn&& fn) {
  std::mt19937_64 rng(43);
  std::uniform_int_distribution<UserId> pick(0, kRowUsers - 1);
  for (const std::size_t len : {1u, 15u, 16u, 17u, 33u}) {
    for (const auto& e : store.sorted_entries()) {
      for (const auto& [u, partner] :
           {std::pair(e.pair.a, e.pair.b), std::pair(e.pair.b, e.pair.a)}) {
        std::vector<UserId> vs(len);
        for (UserId& v : vs) v = pick(rng);
        vs.front() = partner;
        vs.back() = partner;
        if (len > 2) vs[len / 2] = u;
        fn(u, vs);
      }
    }
  }
}

TEST(PairStore, FindRowMatchesFind) {
  const auto expect_row = [](const PairStore& store, UserId u,
                             const std::vector<UserId>& vs,
                             std::size_t* hits) {
    std::vector<std::size_t> order;
    store.find_row(u, vs, [&](std::size_t i, const Stats* stats) {
      order.push_back(i);
      const Stats* want = vs[i] == u ? nullptr : store.find(UserPair(u, vs[i]));
      EXPECT_EQ(stats, want) << "u=" << u << " v=" << vs[i] << " at " << i;
      if (stats != nullptr) ++*hits;
    });
    std::vector<std::size_t> every(vs.size());
    std::iota(every.begin(), every.end(), std::size_t{0});
    EXPECT_EQ(order, every);
  };

  std::size_t hits = 0;
  const PairStore empty;
  expect_row(empty, 3, {1, 3, 5}, &hits);
  EXPECT_EQ(hits, 0u);

  const PairStore store = wrapped_store();
  ASSERT_EQ(store.capacity(), 64u);
  std::size_t rows = 0;
  for_each_test_row(store, [&](UserId u, const std::vector<UserId>& vs) {
    expect_row(store, u, vs, &hits);
    ++rows;
  });
  EXPECT_EQ(rows, 5u * 2u * store.size());
  // Every row holds its partner at least once.
  EXPECT_GE(hits, rows);
}

TEST(SocialIndexModel, ThetaRowMatchesThetaOnFindRowRows) {
  // The same rows through the model: theta_row's find_row sweep must
  // give theta()'s find() answers bit for bit, wrapped chains included.
  PairStore stats = wrapped_store();
  const PairStore probe = stats;
  UserTyping typing;
  typing.num_types = 3;
  for (UserId u = 0; u < kRowUsers; ++u) typing.type_of_user.push_back(u % 3);
  typing.centroids.assign(3 * apps::kNumCategories, 0.0);
  TypeCoLeaveMatrix matrix(3);
  matrix.set(0, 0, 0.6);
  matrix.set(0, 1, 0.15);
  matrix.set(1, 2, 0.35);
  matrix.set(2, 2, 0.05);
  SocialModelConfig cfg;
  cfg.alpha = 0.3;
  cfg.min_encounters = 2;  // some stored pairs stay below it
  const SocialIndexModel model = SocialIndexModel::from_parts(
      cfg, std::move(stats), std::move(typing), std::move(matrix));
  std::vector<double> out;
  for_each_test_row(probe, [&](UserId u, const std::vector<UserId>& vs) {
    out.assign(vs.size(), -1.0);
    model.theta_row(u, vs, out);
    for (std::size_t i = 0; i < vs.size(); ++i) {
      ASSERT_TRUE(out[i] == model.theta(u, vs[i]))
          << "u=" << u << " v=" << vs[i] << " at " << i;
    }
  });
}

}  // namespace
}  // namespace s3::social
