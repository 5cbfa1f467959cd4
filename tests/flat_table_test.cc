// FlatTable, the keyed state of window panes (src/common/flat_table.h):
// lookups and insertions agree with std::unordered_map under random keys,
// extreme keys and keys that collide in the probe sequence, across several
// growths; iteration visits every entry exactly once, in insertion order.

#include <gtest/gtest.h>

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "src/common/flat_table.h"
#include "src/common/hash.h"
#include "src/common/rng.h"

namespace klink {
namespace {

struct Value {
  int64_t count = 0;
  double sum = 0.0;
};

/// Checks `table` against the reference map and the insertion order.
void ExpectSameContents(const FlatTable<Value>& table,
                        const std::unordered_map<uint64_t, Value>& reference,
                        const std::vector<uint64_t>& inserted) {
  ASSERT_EQ(table.size(), reference.size());
  ASSERT_EQ(table.size(), inserted.size());
  size_t i = 0;
  for (const auto& [key, value] : table) {
    ASSERT_LT(i, inserted.size());
    EXPECT_EQ(key, inserted[i]) << "entry " << i;
    const auto it = reference.find(key);
    ASSERT_NE(it, reference.end());
    EXPECT_EQ(value.count, it->second.count);
    EXPECT_EQ(value.sum, it->second.sum);
    ++i;
  }
  EXPECT_EQ(i, inserted.size());
  for (const auto& [key, value] : reference) {
    const Value* found = table.Find(key);
    ASSERT_NE(found, nullptr) << key;
    EXPECT_EQ(found->count, value.count);
  }
}

/// Applies `key` to both containers the way a pane folds an element.
void Fold(uint64_t key, double v, FlatTable<Value>& table,
          std::unordered_map<uint64_t, Value>& reference,
          std::vector<uint64_t>& inserted) {
  const auto [slot, was_inserted] = table.TryEmplace(key);
  const auto [it, ref_inserted] = reference.try_emplace(key);
  ASSERT_EQ(was_inserted, ref_inserted) << key;
  if (was_inserted) inserted.push_back(key);
  ++slot->count;
  slot->sum += v;
  ++it->second.count;
  it->second.sum += v;
}

TEST(FlatTableTest, MatchesUnorderedMapUnderRandomKeys) {
  Rng rng(7);
  FlatTable<Value> table;
  std::unordered_map<uint64_t, Value> reference;
  std::vector<uint64_t> inserted;
  // Keys drawn from ranges of different density, plus the extremes, so
  // lookups hit and miss and the table grows from 8 slots past 8192.
  for (int i = 0; i < 20000; ++i) {
    const int64_t pick = rng.NextInt(0, 9);
    uint64_t key;
    if (pick == 0) {
      key = 0;
    } else if (pick == 1) {
      key = UINT64_MAX;
    } else if (pick < 6) {
      key = static_cast<uint64_t>(rng.NextInt(0, 300));
    } else {
      key = rng.NextUint64() % 5000 * 0x100000001ULL;
    }
    Fold(key, rng.NextDouble(), table, reference, inserted);
    if (i % 997 == 0) ExpectSameContents(table, reference, inserted);
  }
  ExpectSameContents(table, reference, inserted);
  EXPECT_EQ(table.Find(0x123456789ULL * 7 + 3), nullptr);
}

TEST(FlatTableTest, CollidingKeysProbePastEachOther) {
  // Keys whose Mix64 agrees in the low 12 bits share a home slot in every
  // index of up to 4096 slots, so each insertion and lookup walks the
  // probe chain of the ones before it, across four growths.
  const uint64_t home = Mix64(0) & 0xfff;
  std::vector<uint64_t> colliding;
  for (uint64_t k = 0; colliding.size() < 40; ++k) {
    if ((Mix64(k) & 0xfff) == home) colliding.push_back(k);
  }
  ASSERT_EQ(colliding[0], 0u);
  FlatTable<Value> table;
  std::unordered_map<uint64_t, Value> reference;
  std::vector<uint64_t> inserted;
  for (int round = 0; round < 3; ++round) {
    for (const uint64_t key : colliding) {
      Fold(key, 1.0 + round, table, reference, inserted);
    }
    ExpectSameContents(table, reference, inserted);
  }
  for (const uint64_t key : colliding) {
    ASSERT_NE(table.Find(key), nullptr);
    EXPECT_EQ(table.Find(key)->count, 3);
  }
  // A colliding key never inserted misses at the end of the chain.
  uint64_t absent = colliding.back() + 1;
  while ((Mix64(absent) & 0xfff) != home) ++absent;
  EXPECT_EQ(table.Find(absent), nullptr);
}

TEST(FlatTableTest, ReserveKeepsContentsExact) {
  FlatTable<Value> table;
  EXPECT_EQ(table.size(), 0u);
  EXPECT_EQ(table.Find(0), nullptr);  // no index allocated yet
  std::unordered_map<uint64_t, Value> reference;
  std::vector<uint64_t> inserted;
  for (uint64_t k = 0; k < 10; ++k) {
    Fold(k * 31, 1.0, table, reference, inserted);
  }
  // Reserving past the current size re-indexes the entries in place.
  table.Reserve(300);
  ExpectSameContents(table, reference, inserted);
  for (uint64_t k = 300; k > 0; --k) Fold(k, 2.0, table, reference, inserted);
  ExpectSameContents(table, reference, inserted);
}

}  // namespace
}  // namespace klink
