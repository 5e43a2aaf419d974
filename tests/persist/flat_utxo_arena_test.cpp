// FlatUtxoArena: the compact per-shard UTXO backing store. Covers the
// open-addressing tables and their backward-shift erase, script interning
// and in-place reuse of retired script bytes, canonical chain order,
// compaction, exact byte accounting, and a randomized differential check
// against the node-map oracle backend.
#include "persist/flat_utxo_arena.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
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

/// Requires both backends to return the same UTXO list for `s`.
void expect_same_script_reads(const ArenaShardStore& arena, const MapShardStore& map,
                              const util::Bytes& s) {
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

/// Outpoints sharing txid bytes 0-15 (and the vout) that differ only in
/// bytes 16-31: `k` is stored in bytes 28-31, and flips a bit in 16-27.
bitcoin::OutPoint high_bytes_op(std::uint32_t k) {
  bitcoin::OutPoint o = op(0x3c);
  for (int b = 0; b < 4; ++b) o.txid.data[28 + b] = static_cast<std::uint8_t>(k >> (8 * b));
  o.txid.data[16 + k % 12] ^= 0x80;
  return o;
}

TEST(FlatUtxoArenaTest, DifferentialAgainstMapBackend) {
  // Random op soup applied to both backends: every read must agree. Three
  // outpoint shapes: single-byte-fill txids, txids differing only in bytes
  // 16-31, and one txid differing only in vout — the hash must spread all
  // of them, and the slot tags must never stand in for a key compare.
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
      bitcoin::OutPoint o;
      switch (rng.next_below(3)) {
        case 0:
          o = op(static_cast<std::uint8_t>(rng.next_below(256)),
                 static_cast<std::uint32_t>(rng.next_below(16)));
          break;
        case 1: o = high_bytes_op(static_cast<std::uint32_t>(rng.next_below(2048))); break;
        default: o = op(0xa5, static_cast<std::uint32_t>(rng.next_below(2048))); break;
      }
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
      expect_same_script_reads(arena, map, script(tag, len));
    }
  }

  // Erase/re-insert churn at a constant live count over a universe of 8192
  // keys, 512 live at a time, all paying one script that stays live. Each
  // erase refills its slot by backward shift and each insert reuses the row
  // the erase freed, so nothing in the arena rebuilds, compacts or grows:
  // with tombstones, this churn forced four same-capacity outpoint-table
  // rebuilds within ~35k steps.
  constexpr std::uint32_t kUniverse = 8192;
  constexpr int kSteps = 40000;
  const util::Bytes churn_script = script(0xee, 40);
  auto churn_key = [](std::uint32_t k) {
    return k % 2 == 0 ? high_bytes_op(2048 + k / 2) : op(0xa5, 4096 + k / 2);
  };
  std::vector<std::uint32_t> live_keys, dead_keys;
  for (std::uint32_t k = 0; k < kUniverse; ++k) {
    if (k % 16 == 0) {
      ASSERT_TRUE(arena.insert(churn_key(k), k, static_cast<int>(k % 97), churn_script));
      ASSERT_TRUE(map.insert(churn_key(k), k, static_cast<int>(k % 97), churn_script));
      live_keys.push_back(k);
    } else {
      dead_keys.push_back(k);
    }
  }
  const FlatUtxoArena& flat = arena.arena();
  const std::uint64_t rehashes = flat.outpoint_rehashes();
  const std::uint64_t compactions = flat.compactions();
  const std::uint64_t resident = arena.resident_bytes();
  for (int step = 0; step < kSteps; ++step) {
    std::size_t out = rng.next_below(live_keys.size());
    std::size_t in = rng.next_below(dead_keys.size());
    std::swap(live_keys[out], dead_keys[in]);
    ASSERT_TRUE(arena.erase(churn_key(dead_keys[in])).has_value());
    ASSERT_TRUE(map.erase(churn_key(dead_keys[in])).has_value());
    bitcoin::OutPoint o = churn_key(live_keys[out]);
    auto v = static_cast<bitcoin::Amount>(step);
    int h = static_cast<int>(rng.next_below(97));
    ASSERT_TRUE(arena.insert(o, v, h, churn_script));
    ASSERT_TRUE(map.insert(o, v, h, churn_script));
    ASSERT_EQ(arena.resident_bytes(), resident) << step;
  }
  EXPECT_EQ(flat.outpoint_rehashes(), rehashes);
  EXPECT_EQ(flat.compactions(), compactions);
  ASSERT_EQ(arena.size(), map.size());
  expect_same_script_reads(arena, map, churn_script);
  for (std::uint32_t k = 0; k < kUniverse; ++k) {
    auto a = arena.find(churn_key(k));
    auto m = map.find(churn_key(k));
    ASSERT_EQ(a.has_value(), m.has_value()) << k;
    if (a) {
      EXPECT_EQ(a->value, m->value);
    }
  }
}

TEST(FlatUtxoArenaTest, BackwardShiftEraseAcrossWrap) {
  // Keys homed at the last slots of a new arena's table, so that their
  // cluster wraps past slot 0. Inserted in this order (homes 14, 14, 0, 15,
  // 0, 15) they fill slots 14, 15, 0, 1, 2 and 3: one key homed at 0 sits at
  // its home, which a shift into slot 15 must leave alone, and the other
  // sits two past it. The first, a middle and the last member by slot are
  // erased in every order, once in the outpoint table and once in the
  // script table.
  constexpr std::size_t kSlots = FlatUtxoArena::kInitialSlots;
  const std::vector<std::size_t> homes = {kSlots - 2, kSlots - 2, 0, kSlots - 1, 0, kSlots - 1};
  const std::array<std::size_t, 3> victims = {0, 3, 5};
  util::Rng rng(25);
  auto random_bytes = [&](std::uint8_t* p, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) p[i] = static_cast<std::uint8_t>(rng.next_below(256));
  };
  struct Member {
    bitcoin::OutPoint outpoint;
    util::Bytes script;
  };
  // Draws from the seed until each home has a key; `key_hash` hashes the
  // member's key for the table under test.
  auto draw = [&](auto make, auto key_hash) {
    std::vector<Member> cluster;
    for (std::size_t home : homes) {
      Member m = make(cluster.size());
      while (FlatUtxoArena::home_slot(key_hash(m), kSlots) != home) m = make(cluster.size());
      cluster.push_back(m);
    }
    return cluster;
  };
  const std::vector<Member> by_outpoint = draw(
      [&](std::size_t i) {
        Member m{op(0), script(static_cast<std::uint8_t>(i % 2))};
        random_bytes(m.outpoint.txid.data.data(), 32);
        return m;
      },
      [](const Member& m) { return FlatUtxoArena::hash_outpoint(m.outpoint); });
  const std::vector<Member> by_script = draw(
      [&](std::size_t i) {
        Member m{op(static_cast<std::uint8_t>(0x40 + i)), util::Bytes(25)};
        random_bytes(m.script.data(), m.script.size());
        return m;
      },
      [](const Member& m) { return FlatUtxoArena::hash_script(m.script); });

  for (const std::vector<Member>* cluster : {&by_outpoint, &by_script}) {
    std::array<std::size_t, 3> order = victims;
    do {
      SCOPED_TRACE(testing::Message() << (cluster == &by_outpoint ? "outpoints" : "scripts")
                                      << ", erase order " << order[0] << order[1] << order[2]);
      ArenaShardStore arena;
      MapShardStore map;
      for (std::size_t i = 0; i < cluster->size(); ++i) {
        const Member& m = (*cluster)[i];
        ASSERT_TRUE(arena.insert(m.outpoint, 1000 + static_cast<int>(i), 1, m.script));
        ASSERT_TRUE(map.insert(m.outpoint, 1000 + static_cast<int>(i), 1, m.script));
      }
      ASSERT_EQ(arena.arena().outpoint_rehashes(), 0u);  // still the 16-slot table
      std::vector<bool> erased(cluster->size(), false);
      for (std::size_t victim : order) {
        ASSERT_TRUE(arena.erase((*cluster)[victim].outpoint).has_value());
        ASSERT_TRUE(map.erase((*cluster)[victim].outpoint).has_value());
        erased[victim] = true;
        for (std::size_t i = 0; i < cluster->size(); ++i) {
          const Member& m = (*cluster)[i];
          auto found = arena.find(m.outpoint);
          ASSERT_EQ(found.has_value(), !erased[i]) << "member " << i;
          if (found) {
            EXPECT_EQ(found->value, 1000 + static_cast<int>(i));
          }
          expect_same_script_reads(arena, map, m.script);
        }
        ASSERT_EQ(arena.distinct_scripts(), map.distinct_scripts());
      }
    } while (std::next_permutation(order.begin(), order.end()));
  }
}

TEST(FlatUtxoArenaTest, RetiredScriptBytesAreReused) {
  // Constant-live churn where every insert pays a fresh script of a standard
  // output-template length. Each takes a retired record of its length and
  // overwrites the record's bytes in place, so the arena neither grows nor
  // compacts; only a length never retired appends.
  constexpr std::array<std::size_t, 4> kLengths = {22, 23, 25, 34};
  constexpr std::size_t kLive = 256;
  constexpr std::size_t kSpare = 32;  // retired records held in reserve
  constexpr std::size_t kSteps = 10 * kLive;
  FlatUtxoArena arena;
  util::Rng rng(34);
  struct Live {
    bitcoin::OutPoint outpoint;
    util::Bytes script;
  };
  std::vector<Live> live;
  std::array<std::size_t, kLengths.size()> retired{};  // per length
  std::uint32_t next_vout = 0;
  auto add = [&](std::size_t length) {
    Live u{op(0x77, next_vout++), util::Bytes(length)};
    for (auto& b : u.script) b = static_cast<std::uint8_t>(rng.next_below(256));
    ASSERT_TRUE(arena.insert(u.outpoint, 1, 0, u.script));
    live.push_back(std::move(u));
  };
  auto remove = [&](std::size_t i) {
    auto erased = arena.erase(live[i].outpoint);
    ASSERT_TRUE(erased.has_value());
    auto length = std::find(kLengths.begin(), kLengths.end(), erased->script_len);
    ASSERT_NE(length, kLengths.end());
    ++retired[static_cast<std::size_t>(length - kLengths.begin())];
    live[i] = std::move(live.back());
    live.pop_back();
  };
  auto expect_scripts_read_back = [&] {
    util::Bytes out;
    for (const Live& u : live) {
      ASSERT_TRUE(arena.script_of(u.outpoint, out));
      ASSERT_EQ(out, u.script);
    }
  };

  for (std::size_t i = 0; i < kLive + kSpare; ++i) add(kLengths[i % kLengths.size()]);
  for (std::size_t i = 0; i < kSpare; ++i) remove(live.size() - 1);  // 8 of each length
  const std::uint64_t resident = arena.resident_bytes();
  const std::uint64_t arena_bytes = arena.script_arena_bytes();
  for (std::size_t step = 0; step < kSteps; ++step) {
    remove(rng.next_below(live.size()));
    std::size_t pick;
    do {
      pick = rng.next_below(kLengths.size());
    } while (retired[pick] == 0);
    --retired[pick];
    add(kLengths[pick]);
    ASSERT_EQ(arena.resident_bytes(), resident) << step;
    ASSERT_EQ(arena.script_arena_bytes(), arena_bytes) << step;
    if (step % 64 == 0) expect_scripts_read_back();
  }
  EXPECT_EQ(arena.compactions(), 0u);
  expect_scripts_read_back();

  add(40);  // no 40-byte script ever retired
  EXPECT_EQ(arena.script_arena_bytes(), arena_bytes + 40);
  expect_scripts_read_back();
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

}  // namespace
}  // namespace icbtc::persist
