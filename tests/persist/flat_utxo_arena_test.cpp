// FlatUtxoArena: the compact UTXO backing store. Covers the
// open-addressing tables, script interning, canonical chain order,
// tombstone compaction, exact byte accounting, the bulk-load path, and a
// randomized differential check against the node-map oracle backend.
#include "persist/flat_utxo_arena.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "persist/shard_store.h"
#include "util/rng.h"

namespace icbtc::persist {
namespace {

bitcoin::OutPoint op(std::uint8_t tag, std::uint32_t vout = 0) {
  bitcoin::OutPoint o;
  o.txid.data.fill(tag);
  o.vout = vout;
  return o;
}

util::Bytes script(std::uint8_t tag, std::size_t len = 25) {
  util::Bytes s(len, tag);
  if (!s.empty()) s[0] = 0x76;  // arbitrary leading byte; content is opaque here
  return s;
}

struct Utxo {
  bitcoin::OutPoint outpoint;
  bitcoin::Amount value;
  int height;
};

std::vector<Utxo> collect(const FlatUtxoArena& arena, const util::Bytes& s) {
  std::vector<Utxo> out;
  auto fn = [&](const bitcoin::OutPoint& o, bitcoin::Amount v, int h) {
    out.push_back(Utxo{o, v, h});
  };
  arena.for_each_of_script(s, FlatUtxoArena::UtxoVisitor(fn));
  return out;
}

TEST(FlatUtxoArenaTest, InsertFindErase) {
  FlatUtxoArena arena;
  EXPECT_TRUE(arena.insert(op(1), 500, 10, script(1)));
  EXPECT_EQ(arena.size(), 1u);
  EXPECT_TRUE(arena.contains(op(1)));
  auto found = arena.find(op(1));
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(found->value, 500);
  EXPECT_EQ(found->height, 10);
  EXPECT_FALSE(arena.find(op(2)).has_value());

  auto erased = arena.erase(op(1));
  ASSERT_TRUE(erased.has_value());
  EXPECT_EQ(erased->value, 500);
  EXPECT_EQ(erased->script_len, 25u);
  EXPECT_EQ(arena.size(), 0u);
  EXPECT_FALSE(arena.contains(op(1)));
  EXPECT_FALSE(arena.erase(op(1)).has_value());
}

TEST(FlatUtxoArenaTest, FirstWriteWinsOnDuplicateOutpoint) {
  FlatUtxoArena arena;
  EXPECT_TRUE(arena.insert(op(1), 100, 5, script(1)));
  EXPECT_FALSE(arena.insert(op(1), 999, 9, script(2)));
  auto found = arena.find(op(1));
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(found->value, 100);
  EXPECT_EQ(found->height, 5);
  // The losing insert must not have grown the script table either.
  EXPECT_EQ(arena.script_utxo_count(script(2)), 0u);
}

TEST(FlatUtxoArenaTest, ScriptChainCanonicalOrder) {
  // Canonical get_utxos order: height descending, outpoint ascending within
  // a height — regardless of insertion order.
  FlatUtxoArena arena;
  util::Bytes s = script(7);
  arena.insert(op(3), 30, 5, s);
  arena.insert(op(1), 10, 9, s);
  arena.insert(op(2), 20, 5, s);
  arena.insert(op(4), 40, 12, s);

  auto utxos = collect(arena, s);
  ASSERT_EQ(utxos.size(), 4u);
  EXPECT_EQ(utxos[0].height, 12);
  EXPECT_EQ(utxos[1].height, 9);
  EXPECT_EQ(utxos[2].height, 5);
  EXPECT_EQ(utxos[3].height, 5);
  EXPECT_EQ(utxos[2].outpoint, op(2));  // outpoint asc within height 5
  EXPECT_EQ(utxos[3].outpoint, op(3));
  EXPECT_EQ(arena.script_utxo_count(s), 4u);
}

TEST(FlatUtxoArenaTest, ScriptInterning) {
  FlatUtxoArena arena;
  util::Bytes s = script(3, 500);  // large script, shared by many UTXOs
  std::uint64_t before = 0;
  for (std::uint8_t i = 0; i < 50; ++i) {
    arena.insert(op(i), 100, i, s);
    if (i == 0) before = arena.live_bytes();
  }
  EXPECT_EQ(arena.distinct_scripts(), 1u);
  // 49 further entries share the interned bytes: growth per entry must be
  // far below the script length.
  std::uint64_t growth = (arena.live_bytes() - before) / 49;
  EXPECT_LT(growth, 100u);

  util::Bytes out;
  ASSERT_TRUE(arena.script_of(op(7), out));
  EXPECT_EQ(out, s);
}

TEST(FlatUtxoArenaTest, ScriptRecordRetiredWhenChainEmpties) {
  FlatUtxoArena arena;
  arena.insert(op(1), 100, 1, script(1));
  arena.insert(op(2), 200, 2, script(2));
  arena.erase(op(1));
  EXPECT_EQ(arena.distinct_scripts(), 1u);
  EXPECT_EQ(arena.script_utxo_count(script(1)), 0u);
  // Reinserting the same script works after retirement.
  arena.insert(op(3), 300, 3, script(1));
  EXPECT_EQ(arena.distinct_scripts(), 2u);
  EXPECT_EQ(arena.script_utxo_count(script(1)), 1u);
}

TEST(FlatUtxoArenaTest, CompactionPreservesStateAndReclaimsBytes) {
  FlatUtxoArena arena;
  for (int i = 0; i < 5000; ++i) {
    bitcoin::OutPoint o = op(static_cast<std::uint8_t>(i % 251), static_cast<std::uint32_t>(i));
    arena.insert(o, i, i, script(static_cast<std::uint8_t>(i % 17)));
  }
  // Erase 80%: compaction must trigger off the deterministic dead-count
  // thresholds alone.
  for (int i = 0; i < 5000; ++i) {
    if (i % 5 == 0) continue;
    arena.erase(op(static_cast<std::uint8_t>(i % 251), static_cast<std::uint32_t>(i)));
  }
  EXPECT_GT(arena.compactions(), 0u);
  EXPECT_EQ(arena.size(), 1000u);
  for (int i = 0; i < 5000; i += 5) {
    auto found = arena.find(op(static_cast<std::uint8_t>(i % 251), static_cast<std::uint32_t>(i)));
    ASSERT_TRUE(found.has_value()) << i;
    EXPECT_EQ(found->value, i);
  }
  // After an explicit compact the resident capacity must be within a small
  // multiple of the live bytes (tables are pow2-sized, entries exact).
  arena.compact();
  EXPECT_LT(arena.resident_bytes(), 4 * arena.live_bytes());
}

TEST(FlatUtxoArenaTest, DeterministicAcrossIdenticalHistories) {
  // Two arenas fed the same operation sequence must visit in identical
  // order — the checkpoint determinism contract.
  auto run = [] {
    FlatUtxoArena arena;
    util::Rng rng(42);
    for (int i = 0; i < 3000; ++i) {
      auto o = op(static_cast<std::uint8_t>(rng.next_below(256)),
                  static_cast<std::uint32_t>(rng.next_below(64)));
      if (rng.chance(0.35)) {
        arena.erase(o);
      } else {
        arena.insert(o, static_cast<bitcoin::Amount>(rng.next_below(100000)),
                     static_cast<int>(rng.next_below(1000)),
                     script(static_cast<std::uint8_t>(rng.next_below(40))));
      }
    }
    std::vector<std::pair<bitcoin::OutPoint, bitcoin::Amount>> order;
    auto fn = [&](const bitcoin::OutPoint& o, bitcoin::Amount v, int, util::ByteSpan) {
      order.emplace_back(o, v);
    };
    arena.visit(FlatUtxoArena::EntryVisitor(fn));
    return order;
  };
  EXPECT_EQ(run(), run());
}

TEST(FlatUtxoArenaTest, DifferentialAgainstMapBackend) {
  // Random op soup applied to both backends: every read must agree.
  ArenaShardStore arena;
  MapShardStore map;
  util::Rng rng(7);
  std::vector<bitcoin::OutPoint> pool;
  for (int i = 0; i < 8000; ++i) {
    if (!pool.empty() && rng.chance(0.4)) {
      auto o = pool[rng.next_below(pool.size())];
      auto a = arena.erase(o);
      auto b = map.erase(o);
      ASSERT_EQ(a.has_value(), b.has_value());
      if (a) {
        EXPECT_EQ(a->value, b->value);
        EXPECT_EQ(a->script_len, b->script_len);
      }
    } else {
      auto o = op(static_cast<std::uint8_t>(rng.next_below(256)),
                  static_cast<std::uint32_t>(rng.next_below(16)));
      auto v = static_cast<bitcoin::Amount>(rng.next_below(1000000));
      int h = static_cast<int>(rng.next_below(500));
      util::Bytes s = script(static_cast<std::uint8_t>(rng.next_below(64)),
                             10 + rng.next_below(60));
      ASSERT_EQ(arena.insert(o, v, h, s), map.insert(o, v, h, s));
      pool.push_back(o);
    }
  }
  ASSERT_EQ(arena.size(), map.size());
  ASSERT_EQ(arena.distinct_scripts(), map.distinct_scripts());
  for (std::uint8_t tag = 0; tag < 64; ++tag) {
    for (std::size_t len = 10; len < 70; ++len) {
      util::Bytes s = script(tag, len);
      ASSERT_EQ(arena.script_utxo_count(s), map.script_utxo_count(s));
      std::vector<Utxo> a_list, m_list;
      auto fa = [&](const bitcoin::OutPoint& o, bitcoin::Amount v, int h) {
        a_list.push_back(Utxo{o, v, h});
      };
      auto fm = [&](const bitcoin::OutPoint& o, bitcoin::Amount v, int h) {
        m_list.push_back(Utxo{o, v, h});
      };
      arena.for_each_of_script(s, ShardStore::UtxoVisitor(fa));
      map.for_each_of_script(s, ShardStore::UtxoVisitor(fm));
      ASSERT_EQ(a_list.size(), m_list.size());
      for (std::size_t i = 0; i < a_list.size(); ++i) {
        EXPECT_EQ(a_list[i].outpoint, m_list[i].outpoint);
        EXPECT_EQ(a_list[i].value, m_list[i].value);
        EXPECT_EQ(a_list[i].height, m_list[i].height);
      }
    }
  }
}

TEST(FlatUtxoArenaTest, ByteAccountingTracksLiveSet) {
  FlatUtxoArena arena;
  EXPECT_EQ(arena.live_bytes(), 0u);
  arena.insert(op(1), 100, 1, script(1));
  std::uint64_t one = arena.live_bytes();
  EXPECT_GT(one, 0u);
  arena.insert(op(2), 200, 2, script(2));
  std::uint64_t two = arena.live_bytes();
  EXPECT_GT(two, one);
  arena.erase(op(2));
  EXPECT_EQ(arena.live_bytes(), one);
  // Resident capacity is never below live bytes.
  EXPECT_GE(arena.resident_bytes(), arena.live_bytes());
}

TEST(FlatUtxoArenaTest, ArenaBeatsMapResidencyAtScale) {
  // The headline claim: at realistic shape (25-byte scripts, some sharing)
  // the arena holds the same set in a fraction of the map backend's bytes.
  ArenaShardStore arena;
  MapShardStore map;
  util::Rng rng(11);
  for (int i = 0; i < 20000; ++i) {
    auto o = op(static_cast<std::uint8_t>(i % 256), static_cast<std::uint32_t>(i / 256));
    util::Bytes s = script(static_cast<std::uint8_t>(rng.next_below(200)), 25);
    arena.insert(o, 1000 + i, i / 10, s);
    map.insert(o, 1000 + i, i / 10, s);
  }
  EXPECT_GE(static_cast<double>(map.resident_bytes()),
            2.0 * static_cast<double>(arena.resident_bytes()));
}

/// Every read the arena offers, in its own order: per-script chains for the
/// given scripts, then the full visit() sequence.
struct ArenaView {
  std::vector<std::vector<std::pair<bitcoin::OutPoint, int>>> chains;
  std::vector<bitcoin::OutPoint> visit_order;
  std::size_t size = 0;
  std::size_t scripts = 0;
  std::uint64_t live_bytes = 0;

  bool operator==(const ArenaView&) const = default;
};

ArenaView view_of(const FlatUtxoArena& arena, const std::vector<util::Bytes>& scripts) {
  ArenaView v;
  for (const auto& s : scripts) {
    auto& chain = v.chains.emplace_back();
    auto fn = [&](const bitcoin::OutPoint& o, bitcoin::Amount, int h) { chain.emplace_back(o, h); };
    arena.for_each_of_script(s, FlatUtxoArena::UtxoVisitor(fn));
    EXPECT_EQ(arena.script_utxo_count(s), chain.size());
  }
  auto fn = [&](const bitcoin::OutPoint& o, bitcoin::Amount, int, util::ByteSpan) {
    v.visit_order.push_back(o);
  };
  arena.visit(FlatUtxoArena::EntryVisitor(fn));
  v.size = arena.size();
  v.scripts = arena.distinct_scripts();
  v.live_bytes = arena.live_bytes();
  return v;
}

TEST(FlatUtxoArenaTest, BulkLoadInOutpointOrderMatchesIncrementalInsert) {
  // A checkpoint restore loads entries in outpoint order, which is unrelated
  // to the canonical chain order (height desc, outpoint asc). The bulk path
  // must reach exactly the arena the incremental path builds — and stay
  // identical under further identical mutations.
  util::Rng rng(5);
  struct Row {
    bitcoin::OutPoint outpoint;
    int height;
    util::Bytes script;
  };
  std::vector<Row> rows;
  for (int i = 0; i < 4000; ++i) {
    rows.push_back(Row{bitcoin::OutPoint{rng.next_hash(), static_cast<std::uint32_t>(i % 3)},
                       static_cast<int>(rng.next_below(50)),
                       script(static_cast<std::uint8_t>(rng.next_below(6)))});
  }
  rows.push_back(rows[17]);  // a duplicate outpoint: first write wins on both paths
  rows.back().height = 99;
  std::sort(rows.begin(), rows.end(),
            [](const Row& a, const Row& b) { return a.outpoint < b.outpoint; });
  std::vector<util::Bytes> scripts;
  for (std::uint8_t tag = 0; tag < 6; ++tag) scripts.push_back(script(tag));

  FlatUtxoArena inserted;
  FlatUtxoArena loaded;
  for (const Row& r : rows) {
    bool a = inserted.insert(r.outpoint, 1000, r.height, r.script);
    bool b = loaded.load(r.outpoint, 1000, r.height, r.script);
    EXPECT_EQ(a, b);
  }
  loaded.finish_load();
  ASSERT_EQ(view_of(loaded, scripts), view_of(inserted, scripts));
  EXPECT_GE(loaded.resident_bytes(), loaded.live_bytes());

  for (std::size_t i = 0; i < rows.size(); i += 3) {
    EXPECT_EQ(inserted.erase(rows[i].outpoint).has_value(),
              loaded.erase(rows[i].outpoint).has_value());
  }
  for (int i = 0; i < 200; ++i) {
    bitcoin::OutPoint o{rng.next_hash(), 0};
    int h = static_cast<int>(rng.next_below(60));
    const util::Bytes& s = scripts[rng.next_below(scripts.size())];
    EXPECT_EQ(inserted.insert(o, 7, h, s), loaded.insert(o, 7, h, s));
  }
  EXPECT_EQ(view_of(loaded, scripts), view_of(inserted, scripts));
}

TEST(FlatUtxoArenaTest, BulkLoadMergesIntoExistingChains) {
  // Loads after inserts merge into the chains the inserts built.
  util::Rng rng(6);
  std::vector<util::Bytes> scripts = {script(1), script(2)};
  FlatUtxoArena inserted;
  FlatUtxoArena mixed;
  for (int i = 0; i < 600; ++i) {
    bitcoin::OutPoint o{rng.next_hash(), 0};
    int h = static_cast<int>(rng.next_below(20));
    const util::Bytes& s = scripts[i % 2];
    inserted.insert(o, 1, h, s);
    if (i < 300) {
      mixed.insert(o, 1, h, s);
    } else {
      mixed.load(o, 1, h, s);
    }
  }
  mixed.finish_load();
  EXPECT_EQ(view_of(mixed, scripts), view_of(inserted, scripts));
}

}  // namespace
}  // namespace icbtc::persist
