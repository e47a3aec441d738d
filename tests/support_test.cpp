#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "support/fifo.h"
#include "support/flat_map.h"
#include "support/inline_fn.h"
#include "support/options.h"
#include "support/rng.h"
#include "support/small_vector.h"
#include "support/stats.h"
#include "support/table.h"

namespace dpa {
namespace {

// ---------- Rng ----------

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a.next_u64() == b.next_u64());
  EXPECT_LT(same, 3);
}

TEST(Rng, NextBelowInRange) {
  Rng rng(7);
  for (std::uint64_t n : {1ull, 2ull, 3ull, 10ull, 1000ull, 1ull << 40}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(rng.next_below(n), n);
  }
}

TEST(Rng, NextBelowZeroIsZero) {
  Rng rng(7);
  EXPECT_EQ(rng.next_below(0), 0u);
}

TEST(Rng, DoubleInUnitInterval) {
  Rng rng(9);
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, UniformMeanConverges) {
  Rng rng(11);
  Accumulator acc;
  for (int i = 0; i < 100000; ++i) acc.add(rng.uniform(2.0, 4.0));
  EXPECT_NEAR(acc.mean(), 3.0, 0.02);
  EXPECT_GE(acc.min(), 2.0);
  EXPECT_LT(acc.max(), 4.0);
}

TEST(Rng, NormalMomentsConverge) {
  Rng rng(13);
  Accumulator acc;
  for (int i = 0; i < 200000; ++i) acc.add(rng.normal());
  EXPECT_NEAR(acc.mean(), 0.0, 0.02);
  EXPECT_NEAR(acc.stddev(), 1.0, 0.02);
}

// ---------- Accumulator ----------

TEST(Accumulator, BasicStats) {
  Accumulator acc;
  for (double v : {1.0, 2.0, 3.0, 4.0}) acc.add(v);
  EXPECT_EQ(acc.count(), 4u);
  EXPECT_DOUBLE_EQ(acc.mean(), 2.5);
  EXPECT_DOUBLE_EQ(acc.min(), 1.0);
  EXPECT_DOUBLE_EQ(acc.max(), 4.0);
  EXPECT_NEAR(acc.variance(), 5.0 / 3.0, 1e-12);
}

TEST(Accumulator, EmptyIsZero) {
  Accumulator acc;
  EXPECT_EQ(acc.count(), 0u);
  EXPECT_EQ(acc.mean(), 0.0);
  EXPECT_EQ(acc.variance(), 0.0);
}

TEST(Accumulator, MergeMatchesCombinedStream) {
  Rng rng(17);
  Accumulator whole, left, right;
  for (int i = 0; i < 2000; ++i) {
    const double v = rng.normal() * 3 + 1;
    whole.add(v);
    (i % 2 ? left : right).add(v);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), whole.count());
  EXPECT_NEAR(left.mean(), whole.mean(), 1e-9);
  EXPECT_NEAR(left.variance(), whole.variance(), 1e-7);
  EXPECT_DOUBLE_EQ(left.min(), whole.min());
  EXPECT_DOUBLE_EQ(left.max(), whole.max());
}

TEST(Accumulator, MergeWithEmpty) {
  Accumulator a, b;
  a.add(5.0);
  a.merge(b);
  EXPECT_EQ(a.count(), 1u);
  b.merge(a);
  EXPECT_EQ(b.count(), 1u);
  EXPECT_DOUBLE_EQ(b.mean(), 5.0);
}

// ---------- Pow2Histogram ----------

TEST(Pow2Histogram, BucketsByPowerOfTwo) {
  Pow2Histogram h;
  h.add(0);
  h.add(1);
  h.add(2);
  h.add(3);
  h.add(1024);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_EQ(h.bucket(0), 2u);  // 0 and 1
  EXPECT_EQ(h.bucket(1), 1u);  // 2
  EXPECT_EQ(h.bucket(2), 1u);  // 3..4
  EXPECT_EQ(h.bucket(10), 1u); // 513..1024
}

TEST(Pow2Histogram, QuantileBound) {
  Pow2Histogram h;
  for (int i = 0; i < 90; ++i) h.add(1);
  for (int i = 0; i < 10; ++i) h.add(1000);
  EXPECT_EQ(h.quantile_bound(0.5), 1u);
  EXPECT_EQ(h.quantile_bound(0.99), 1024u);
}

// ---------- Gauge ----------

TEST(Gauge, TracksHighWater) {
  Gauge g;
  g.add(3);
  g.add(4);
  g.add(-5);
  EXPECT_EQ(g.current(), 2);
  EXPECT_EQ(g.high_water(), 7);
  g.set(100);
  EXPECT_EQ(g.high_water(), 100);
  g.set(1);
  EXPECT_EQ(g.high_water(), 100);
}

// ---------- SmallVector ----------

TEST(SmallVector, StaysInlineUnderCapacity) {
  SmallVector<int, 4> v;
  for (int i = 0; i < 4; ++i) v.push_back(i);
  EXPECT_TRUE(v.is_inline());
  EXPECT_EQ(v.size(), 4u);
}

TEST(SmallVector, SpillsToHeapAndPreservesContents) {
  SmallVector<int, 4> v;
  for (int i = 0; i < 100; ++i) v.push_back(i);
  EXPECT_FALSE(v.is_inline());
  for (int i = 0; i < 100; ++i) EXPECT_EQ(v[std::size_t(i)], i);
}

TEST(SmallVector, MoveTransfersHeapBuffer) {
  SmallVector<std::string, 2> v;
  for (int i = 0; i < 10; ++i) v.push_back("s" + std::to_string(i));
  SmallVector<std::string, 2> w = std::move(v);
  EXPECT_EQ(w.size(), 10u);
  EXPECT_EQ(w[9], "s9");
  EXPECT_TRUE(v.empty());
}

TEST(SmallVector, MoveInlineContents) {
  SmallVector<std::string, 8> v;
  v.push_back("a");
  v.push_back("b");
  SmallVector<std::string, 8> w = std::move(v);
  EXPECT_EQ(w.size(), 2u);
  EXPECT_EQ(w[0], "a");
}

TEST(SmallVector, CopyIsDeep) {
  SmallVector<int, 2> v;
  for (int i = 0; i < 8; ++i) v.push_back(i);
  SmallVector<int, 2> w(v);
  w[0] = 99;
  EXPECT_EQ(v[0], 0);
  EXPECT_EQ(w[0], 99);
}

TEST(SmallVector, PopBackDestroys) {
  SmallVector<std::string, 2> v;
  v.push_back("x");
  v.pop_back();
  EXPECT_TRUE(v.empty());
}

TEST(SmallVector, ClearThenReuse) {
  SmallVector<int, 2> v;
  for (int i = 0; i < 10; ++i) v.push_back(i);
  v.clear();
  EXPECT_TRUE(v.empty());
  v.push_back(42);
  EXPECT_EQ(v[0], 42);
}

// ---------- Fifo ----------

TEST(Fifo, KeepsOrderWhileGrowingCompactingAndSwapping) {
  Fifo<std::unique_ptr<int>> q;
  int in = 0, out = 0;
  // The backlog grows, then holds steady without ever draining, so pushes
  // keep finding the vector full with a consumed prefix to compact away.
  for (int round = 0; round < 4000; ++round) {
    q.push(std::make_unique<int>(in++));
    if (round < 300) q.push(std::make_unique<int>(in++));
    ASSERT_EQ(*q.front(), out);
    ASSERT_EQ(*q.pop(), out++);
  }
  EXPECT_EQ(q.size(), 300u);
  Fifo<std::unique_ptr<int>> other;
  other.swap(q);
  EXPECT_TRUE(q.empty());
  while (!other.empty()) ASSERT_EQ(*other.pop(), out++);
  EXPECT_EQ(out, in);
  q.push(std::make_unique<int>(in));
  EXPECT_EQ(*q.pop(), in);
}

// ---------- Options ----------

TEST(Options, ParsesAllKinds) {
  bool flag = false;
  std::int64_t i = 0;
  std::uint64_t u = 0;
  double f = 0;
  std::string s;
  Options o;
  o.flag("verbose", &flag, "v")
      .i64("count", &i, "c")
      .u64("nodes", &u, "n")
      .f64("theta", &f, "t")
      .str("name", &s, "s");
  const char* argv[] = {"prog",      "--verbose",   "--count=-5",
                        "--nodes=64", "--theta=1.5", "--name=barnes"};
  ASSERT_TRUE(o.parse(6, const_cast<char**>(argv)));
  EXPECT_TRUE(flag);
  EXPECT_EQ(i, -5);
  EXPECT_EQ(u, 64u);
  EXPECT_DOUBLE_EQ(f, 1.5);
  EXPECT_EQ(s, "barnes");
}

TEST(Options, HelpReturnsFalse) {
  Options o;
  const char* argv[] = {"prog", "--help"};
  EXPECT_FALSE(o.parse(2, const_cast<char**>(argv)));
}

TEST(Options, UnknownOptionDies) {
  Options o;
  const char* argv[] = {"prog", "--nope=1"};
  EXPECT_DEATH(o.parse(2, const_cast<char**>(argv)), "unknown option");
}

TEST(Options, BadIntegerDies) {
  std::int64_t i = 0;
  Options o;
  o.i64("count", &i, "c");
  const char* argv[] = {"prog", "--count=abc"};
  EXPECT_DEATH(o.parse(2, const_cast<char**>(argv)), "");
}

// ---------- Table ----------

TEST(Table, AlignsColumns) {
  Table t({"version", "P=1", "P=64"});
  t.add_row({"DPA(50)", "118.02", "2.63"});
  t.add_row({"Caching", "115.15", "2.90"});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("DPA(50)"), std::string::npos);
  EXPECT_NE(s.find("115.15"), std::string::npos);
  // Header and separator and two rows.
  EXPECT_EQ(std::count(s.begin(), s.end(), '\n'), 4);
}

TEST(Table, NumFormatting) {
  EXPECT_EQ(Table::num(3.14159, 2), "3.14");
  EXPECT_EQ(Table::num(2.0, 0), "2");
  EXPECT_EQ(Table::pct(0.5, 1), "50.0%");
}

TEST(Table, ShortRowsPadded) {
  Table t({"a", "b"});
  t.add_row({"only"});
  EXPECT_NE(t.to_string().find("only"), std::string::npos);
}

// ---------- FlatMap ----------

TEST(FlatMap, BasicInsertFindErase) {
  FlatMap<std::uint64_t, int> m;
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.find(7), m.end());

  auto [it, inserted] = m.try_emplace(7, 70);
  EXPECT_TRUE(inserted);
  EXPECT_EQ(it->second, 70);
  EXPECT_FALSE(m.try_emplace(7, 99).second);
  EXPECT_EQ(m.find(7)->second, 70);

  m[7] = 71;
  EXPECT_EQ(m.find(7)->second, 71);
  m[8] = 80;  // operator[] default-constructs then assigns
  EXPECT_EQ(m.size(), 2u);

  EXPECT_EQ(m.erase(7), 1u);
  EXPECT_EQ(m.erase(7), 0u);
  EXPECT_EQ(m.find(7), m.end());
  EXPECT_EQ(m.find(8)->second, 80);
}

TEST(FlatMap, GrowsPastManyRehashes) {
  FlatMap<std::uint64_t, std::uint64_t> m;
  for (std::uint64_t k = 0; k < 10000; ++k) m.try_emplace(k, k * 3);
  EXPECT_EQ(m.size(), 10000u);
  for (std::uint64_t k = 0; k < 10000; ++k) {
    ASSERT_NE(m.find(k), m.end()) << k;
    EXPECT_EQ(m.find(k)->second, k * 3);
  }
}

TEST(FlatMap, ClearKeepsCapacityAndWorks) {
  FlatMap<std::uint64_t, int> m;
  for (std::uint64_t k = 0; k < 100; ++k) m.try_emplace(k, 1);
  const std::size_t cap = m.capacity();
  m.clear();
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.capacity(), cap);
  for (std::uint64_t k = 50; k < 150; ++k) m.try_emplace(k, 2);
  EXPECT_EQ(m.size(), 100u);
  EXPECT_EQ(m.find(149)->second, 2);
}

TEST(FlatMap, MoveOnlyValues) {
  FlatMap<std::uint64_t, std::unique_ptr<int>> m;
  m.try_emplace(1, std::make_unique<int>(10));
  m.emplace(2, std::make_unique<int>(20));
  // Force rehash (moves values) and backward-shift erase (move-assigns).
  for (std::uint64_t k = 3; k < 200; ++k)
    m.try_emplace(k, std::make_unique<int>(int(k)));
  EXPECT_EQ(*m.find(1)->second, 10);
  m.erase(1);
  EXPECT_EQ(m.find(1), m.end());
  EXPECT_EQ(*m.find(2)->second, 20);
}

// Seeded fuzz: random insert/erase/lookup churn must agree with
// std::unordered_map at every step, across growth and backward-shift
// deletion. Keys are drawn from a small universe so collisions, erases of
// present keys, and duplicate inserts all happen constantly.
TEST(FlatMap, FuzzAgainstUnorderedMapOracle) {
  for (const std::uint64_t seed : {1u, 2u, 42u, 1997u}) {
    Rng rng(seed);
    FlatMap<std::uint64_t, std::uint64_t> map;
    std::unordered_map<std::uint64_t, std::uint64_t> oracle;
    for (int step = 0; step < 20000; ++step) {
      const std::uint64_t key = rng.next_below(512);
      switch (rng.next_below(8)) {
        case 0:
        case 1:
        case 2: {  // try_emplace
          const std::uint64_t v = rng.next_u64();
          const bool a = map.try_emplace(key, v).second;
          const bool b = oracle.try_emplace(key, v).second;
          ASSERT_EQ(a, b);
          break;
        }
        case 3: {  // operator[] overwrite
          const std::uint64_t v = rng.next_u64();
          map[key] = v;
          oracle[key] = v;
          break;
        }
        case 4: {  // erase
          ASSERT_EQ(map.erase(key), oracle.erase(key));
          break;
        }
        case 5: {  // clear, occasionally
          if (rng.next_below(64) == 0) {
            map.clear();
            oracle.clear();
          }
          break;
        }
        default: {  // lookup
          const auto it = map.find(key);
          const auto oit = oracle.find(key);
          ASSERT_EQ(it != map.end(), oit != oracle.end());
          if (oit != oracle.end()) {
            ASSERT_EQ(it->second, oit->second);
          }
          break;
        }
      }
      ASSERT_EQ(map.size(), oracle.size());
    }
    // Full final sweep: every oracle entry present with the same value, and
    // iteration visits exactly size() live entries.
    for (const auto& [k, v] : oracle) {
      ASSERT_NE(map.find(k), map.end()) << "seed " << seed << " key " << k;
      ASSERT_EQ(map.find(k)->second, v);
    }
    std::size_t visited = 0;
    for (const auto& kv : map) {
      ASSERT_EQ(oracle.at(kv.first), kv.second);
      ++visited;
    }
    ASSERT_EQ(visited, oracle.size());
  }
}

TEST(FlatSet, InsertEraseContains) {
  FlatSet<const void*> s;
  int a = 0, b = 0;
  EXPECT_TRUE(s.insert(&a).second);
  EXPECT_FALSE(s.insert(&a).second);
  EXPECT_TRUE(s.contains(&a));
  EXPECT_EQ(s.count(&b), 0u);
  EXPECT_EQ(s.erase(&a), 1u);
  EXPECT_FALSE(s.contains(&a));
  EXPECT_EQ(s.size(), 0u);
}

// ---------- InlineFn ----------

TEST(InlineFn, EmptyAndNullptr) {
  InlineFn<int(int)> fn;
  EXPECT_FALSE(fn);
  EXPECT_TRUE(fn == nullptr);
  fn = [](int x) { return x + 1; };
  EXPECT_TRUE(fn);
  EXPECT_EQ(fn(1), 2);
  fn = nullptr;
  EXPECT_FALSE(fn);
}

TEST(InlineFn, CaptureSizesStraddlingTheInlineBuffer) {
  // 8B, 32B, 48B captures fit a 48-byte buffer; 64B and 128B spill to the
  // heap. Both paths must produce identical results and report accordingly.
  auto check = [](auto make_fn, bool want_inline) {
    auto fn = make_fn();
    EXPECT_EQ(fn.is_inline(), want_inline);
    EXPECT_EQ(fn(), 42);
  };
  using Fn = InlineFn<int(), 48>;
  check([] { return Fn([] { return 42; }); }, true);
  check(
      [] {
        std::uint64_t a = 40, b = 2;
        return Fn([a, b] { return int(a + b); });
      },
      true);
  check(
      [] {
        std::uint64_t w[6] = {36, 1, 1, 1, 1, 2};
        return Fn([w] { return int(w[0] + w[1] + w[2] + w[3] + w[4] + w[5]); });
      },
      true);
  check(
      [] {
        std::uint64_t w[8] = {35, 1, 1, 1, 1, 1, 1, 1};
        return Fn([w] {
          int s = 0;
          for (auto v : w) s += int(v);
          return s;
        });
      },
      false);
  check(
      [] {
        std::uint64_t w[16] = {};
        w[0] = 27;
        w[15] = 15;
        return Fn([w] { return int(w[0] + w[15]); });
      },
      false);
}

TEST(InlineFn, MoveTransfersOwnershipBothPaths) {
  // Inline path: move relocates the capture into the destination buffer.
  {
    auto p = std::make_shared<int>(7);
    InlineFn<int(), 48> a([p] { return *p; });
    EXPECT_EQ(p.use_count(), 2);
    InlineFn<int(), 48> b = std::move(a);
    EXPECT_FALSE(a);  // NOLINT(bugprone-use-after-move): documented empty
    EXPECT_EQ(p.use_count(), 2);  // moved, not copied
    EXPECT_EQ(b(), 7);
    InlineFn<int(), 48> c;
    c = std::move(b);
    EXPECT_EQ(c(), 7);
    EXPECT_EQ(p.use_count(), 2);
  }
  // Heap path: move hands over the heap pointer; the capture never moves.
  {
    auto p = std::make_shared<int>(9);
    std::uint64_t pad[8] = {};
    InlineFn<int(), 48> a([p, pad] { return *p + int(pad[0]); });
    EXPECT_FALSE(a.is_inline());
    EXPECT_EQ(p.use_count(), 2);
    InlineFn<int(), 48> b = std::move(a);
    EXPECT_FALSE(a);  // NOLINT(bugprone-use-after-move)
    EXPECT_EQ(p.use_count(), 2);
    EXPECT_EQ(b(), 9);
  }
}

TEST(InlineFn, DestroysCaptureExactlyOnce) {
  auto p = std::make_shared<int>(1);
  {
    InlineFn<void(), 48> fn([p] {});
    EXPECT_EQ(p.use_count(), 2);
    fn = nullptr;  // destroy without invoking
    EXPECT_EQ(p.use_count(), 1);
  }
  {
    std::uint64_t pad[8] = {};
    InlineFn<void(), 48> fn([p, pad] { (void)pad; });
    EXPECT_FALSE(fn.is_inline());
    EXPECT_EQ(p.use_count(), 2);
  }
  EXPECT_EQ(p.use_count(), 1);
}

TEST(InlineFn, SelfMoveAssignSafe) {
  InlineFn<int(), 48> fn([] { return 5; });
  auto* alias = &fn;
  fn = std::move(*alias);
  // Self-move leaves the object valid (empty or unchanged); must not crash.
  if (fn) {
    EXPECT_EQ(fn(), 5);
  }
}

TEST(InlineFn, InvocableWithArgumentsAndConst) {
  const InlineFn<int(int, int), 48> fn([](int a, int b) { return a * b; });
  EXPECT_EQ(fn(6, 7), 42);
}

}  // namespace
}  // namespace dpa
