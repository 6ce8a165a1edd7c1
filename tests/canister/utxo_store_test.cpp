// Stable UTXO store: backend invariance (arena vs map) of digests, queries,
// metering, metrics and pagination; point ops vs apply_block semantics; and
// move semantics.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "bitcoin/address.h"
#include "bitcoin/script.h"
#include "canister/bitcoin_canister.h"
#include "canister/utxo_index.h"
#include "chain/block_builder.h"
#include "obs/metrics.h"
#include "util/rng.h"

namespace icbtc::canister {
namespace {

using bitcoin::Block;
using bitcoin::ChainParams;
using util::Hash256;

util::Bytes script(std::uint8_t tag) {
  util::Hash160 h;
  h.data[0] = tag;
  return bitcoin::p2pkh_script(h);
}

// ---------------------------------------------------------------------------
// Backend invariance at the UtxoIndex level

/// Deterministic block stream exercising every apply_block path: inserts
/// across many scripts, spends of prior blocks' outputs, spends of
/// same-block outputs (earlier or later in the block), spends of unknown
/// outpoints (charged misses), OP_RETURN outputs, and occasional duplicate
/// spends.
std::vector<Block> block_workload(std::uint64_t seed, int n_blocks) {
  util::Rng rng(seed);
  std::vector<bitcoin::OutPoint> live;
  std::vector<Block> blocks;
  for (int h = 0; h < n_blocks; ++h) {
    Block block;
    bitcoin::Transaction coinbase;
    bitcoin::TxIn cb_in;
    cb_in.prevout = bitcoin::OutPoint::null();
    cb_in.script_sig = rng.next_bytes(4);  // unique txid per block
    coinbase.inputs.push_back(cb_in);
    coinbase.outputs.push_back(
        bitcoin::TxOut{50, script(static_cast<std::uint8_t>(rng.next() % 32))});
    if (rng.next() % 4 == 0) {
      coinbase.outputs.push_back(
          bitcoin::TxOut{0, bitcoin::op_return_script(util::Bytes{0x42})});
    }
    block.transactions.push_back(coinbase);

    std::vector<bitcoin::OutPoint> created_this_block;
    {
      Hash256 txid = block.transactions[0].txid();
      for (std::uint32_t v = 0; v < block.transactions[0].outputs.size(); ++v) {
        created_this_block.push_back(bitcoin::OutPoint{txid, v});
      }
    }
    int n_txs = 2 + static_cast<int>(rng.next() % 6);
    for (int t = 0; t < n_txs; ++t) {
      bitcoin::Transaction tx;
      int n_ins = 1 + static_cast<int>(rng.next() % 3);
      for (int i = 0; i < n_ins; ++i) {
        bitcoin::TxIn in;
        std::uint64_t dice = rng.next() % 10;
        if (dice < 5 && !live.empty()) {
          std::size_t pick = rng.next() % live.size();
          in.prevout = live[pick];
          live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
        } else if (dice < 7 && !created_this_block.empty()) {
          in.prevout = created_this_block[rng.next() % created_this_block.size()];
        } else {
          in.prevout.txid = rng.next_hash();  // unknown: tolerated miss
        }
        tx.inputs.push_back(in);
      }
      int n_outs = 1 + static_cast<int>(rng.next() % 4);
      for (int o = 0; o < n_outs; ++o) {
        auto tag = static_cast<std::uint8_t>(rng.next() % 32);
        tx.outputs.push_back(
            bitcoin::TxOut{static_cast<bitcoin::Amount>(100 + 7 * o), script(tag)});
      }
      Hash256 txid = tx.txid();
      for (std::uint32_t v = 0; v < tx.outputs.size(); ++v) {
        created_this_block.push_back(bitcoin::OutPoint{txid, v});
      }
      block.transactions.push_back(std::move(tx));
    }
    for (const auto& outpoint : created_this_block) live.push_back(outpoint);
    blocks.push_back(std::move(block));
  }
  return blocks;
}

struct ReplayResult {
  Hash256 digest;
  std::uint64_t metered = 0;
  std::size_t size = 0;
  std::uint64_t memory = 0;
  std::size_t scripts = 0;
  std::vector<std::vector<StoredUtxo>> per_script;
  std::vector<std::uint64_t> per_script_cost;
  std::int64_t inserts = 0;
  std::int64_t removes = 0;
};

ReplayResult replay(const std::vector<Block>& blocks, persist::UtxoBackend backend) {
  obs::MetricsRegistry registry;
  UtxoIndex index(InstructionCosts{}, backend);
  index.set_metrics(&registry);
  ic::InstructionMeter meter;
  ReplayResult result;
  for (std::size_t h = 0; h < blocks.size(); ++h) {
    BlockApplyStats stats = index.apply_block(blocks[h], static_cast<int>(h + 1), meter);
    EXPECT_EQ(stats.instructions + (h == 0 ? 0 : result.metered), meter.count());
    EXPECT_EQ(stats.instructions,
              stats.transactions * InstructionCosts{}.per_tx_overhead +
                  stats.insert_instructions + stats.remove_instructions);
    result.metered = meter.count();
  }
  result.digest = index.digest();
  result.size = index.size();
  result.memory = index.memory_bytes();
  result.scripts = index.distinct_scripts();
  for (std::uint8_t tag = 0; tag < 32; ++tag) {
    ic::InstructionMeter read_meter;
    result.per_script.push_back(index.utxos_for_script(script(tag), read_meter));
    result.per_script_cost.push_back(read_meter.count());
  }
  result.inserts = registry.counter("utxo.inserts").value();
  result.removes = registry.counter("utxo.removes").value();
  EXPECT_EQ(registry.gauge("utxo.size").value(), static_cast<std::int64_t>(result.size));
  EXPECT_EQ(registry.gauge("utxo.memory_bytes").value(),
            static_cast<std::int64_t>(result.memory));
  return result;
}

TEST(UtxoStoreBackendTest, DigestQueriesAndMeteringIdenticalAcrossBackends) {
  std::vector<Block> blocks = block_workload(717, 30);
  ReplayResult arena = replay(blocks, persist::UtxoBackend::kArena);
  ReplayResult map = replay(blocks, persist::UtxoBackend::kMap);
  ASSERT_GT(arena.size, 0u);
  EXPECT_EQ(map.digest, arena.digest);
  EXPECT_EQ(map.metered, arena.metered);
  EXPECT_EQ(map.size, arena.size);
  EXPECT_EQ(map.memory, arena.memory);
  EXPECT_EQ(map.scripts, arena.scripts);
  EXPECT_EQ(map.per_script, arena.per_script);
  EXPECT_EQ(map.per_script_cost, arena.per_script_cost);
}

TEST(UtxoStoreBackendTest, MetricsSnapshotsMatchAcrossBackends) {
  // replay() checks the size and memory gauges against the index; here the
  // insert/remove counters must agree across backends and with the size.
  std::vector<Block> blocks = block_workload(717, 30);
  ReplayResult arena = replay(blocks, persist::UtxoBackend::kArena);
  ReplayResult map = replay(blocks, persist::UtxoBackend::kMap);
  ASSERT_GT(arena.inserts, 0);
  ASSERT_GT(arena.removes, 0);
  EXPECT_EQ(map.inserts, arena.inserts);
  EXPECT_EQ(map.removes, arena.removes);
  EXPECT_EQ(static_cast<std::size_t>(arena.inserts - arena.removes), arena.size);
  EXPECT_EQ(static_cast<std::size_t>(map.inserts - map.removes), map.size);
}

TEST(UtxoStoreBackendTest, BulkLoadInOutpointOrderMatchesIncrementalInsert) {
  // The checkpoint restore path: entries arrive sorted by outpoint through
  // load_entry(). The result must equal inserting the same entries one by
  // one — digest, per-script order, and modelled footprint — on both
  // backends.
  util::Rng rng(41);
  std::vector<std::pair<bitcoin::OutPoint, bitcoin::TxOut>> rows;
  std::vector<int> heights;
  for (int i = 0; i < 3000; ++i) {
    rows.emplace_back(bitcoin::OutPoint{rng.next_hash(), static_cast<std::uint32_t>(i % 4)},
                      bitcoin::TxOut{static_cast<bitcoin::Amount>(1 + i),
                                     script(static_cast<std::uint8_t>(rng.next() % 8))});
  }
  std::sort(rows.begin(), rows.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  for (std::size_t i = 0; i < rows.size(); ++i) heights.push_back(static_cast<int>(rng.next() % 40));

  for (persist::UtxoBackend backend : {persist::UtxoBackend::kArena, persist::UtxoBackend::kMap}) {
    UtxoIndex inserted(InstructionCosts{}, backend);
    UtxoIndex loaded(InstructionCosts{}, backend);
    ic::InstructionMeter meter;
    for (std::size_t i = 0; i < rows.size(); ++i) {
      inserted.insert(rows[i].first, rows[i].second, heights[i], meter);
      loaded.load_entry(rows[i].first, rows[i].second.value, heights[i],
                        rows[i].second.script_pubkey);
    }
    loaded.finish_load();
    EXPECT_EQ(loaded.digest(), inserted.digest()) << persist::to_string(backend);
    EXPECT_EQ(loaded.size(), inserted.size());
    EXPECT_EQ(loaded.memory_bytes(), inserted.memory_bytes());
    for (std::uint8_t tag = 0; tag < 8; ++tag) {
      ic::InstructionMeter a;
      ic::InstructionMeter b;
      EXPECT_EQ(loaded.utxos_for_script(script(tag), a), inserted.utxos_for_script(script(tag), b))
          << "script " << int{tag};
    }
  }
}

// ---------------------------------------------------------------------------
// Point mutations and value semantics

TEST(UtxoStorePointOpTest, PointOpsMatchApplyBlockSemantics) {
  // Replaying each block as point ops — per transaction the per-tx charge,
  // then remove() per input, then insert() per output — must land on the
  // state and meter total apply_block reaches, on either backend.
  std::vector<Block> blocks = block_workload(31, 20);
  for (persist::UtxoBackend backend : {persist::UtxoBackend::kArena, persist::UtxoBackend::kMap}) {
    UtxoIndex applied(InstructionCosts{}, backend);
    UtxoIndex pointwise(InstructionCosts{}, backend);
    ic::InstructionMeter applied_meter;
    ic::InstructionMeter pointwise_meter;
    for (std::size_t h = 0; h < blocks.size(); ++h) {
      int height = static_cast<int>(h + 1);
      applied.apply_block(blocks[h], height, applied_meter);
      for (const auto& tx : blocks[h].transactions) {
        pointwise_meter.charge(InstructionCosts{}.per_tx_overhead);
        if (!tx.is_coinbase()) {
          for (const auto& in : tx.inputs) pointwise.remove(in.prevout, pointwise_meter);
        }
        for (std::uint32_t v = 0; v < tx.outputs.size(); ++v) {
          pointwise.insert(bitcoin::OutPoint{tx.txid(), v}, tx.outputs[v], height,
                           pointwise_meter);
        }
      }
      ASSERT_EQ(pointwise_meter.count(), applied_meter.count()) << "block " << h;
    }
    EXPECT_EQ(pointwise.digest(), applied.digest()) << persist::to_string(backend);
    EXPECT_EQ(pointwise.size(), applied.size());
    EXPECT_EQ(pointwise.memory_bytes(), applied.memory_bytes());
  }
}

TEST(UtxoStorePointOpTest, PointOpsIdenticalAcrossBackends) {
  UtxoIndex arena(InstructionCosts{}, persist::UtxoBackend::kArena);
  UtxoIndex map(InstructionCosts{}, persist::UtxoBackend::kMap);
  ic::InstructionMeter arena_meter;
  ic::InstructionMeter map_meter;
  util::Rng rng(31);
  std::vector<bitcoin::OutPoint> created;
  for (int i = 0; i < 400; ++i) {
    if (rng.next() % 3 != 0 || created.empty()) {
      bitcoin::OutPoint outpoint{rng.next_hash(), static_cast<std::uint32_t>(rng.next() % 3)};
      bitcoin::TxOut out{static_cast<bitcoin::Amount>(1 + rng.next() % 1000),
                         script(static_cast<std::uint8_t>(rng.next() % 24))};
      int height = static_cast<int>(rng.next() % 100);
      arena.insert(outpoint, out, height, arena_meter);
      map.insert(outpoint, out, height, map_meter);
      created.push_back(outpoint);
    } else {
      std::size_t pick = rng.next() % created.size();
      arena.remove(created[pick], arena_meter);
      map.remove(created[pick], map_meter);
      created.erase(created.begin() + static_cast<std::ptrdiff_t>(pick));
    }
  }
  // A miss, charged on both.
  bitcoin::OutPoint missing{rng.next_hash(), 0};
  arena.remove(missing, arena_meter);
  map.remove(missing, map_meter);

  EXPECT_EQ(arena_meter.count(), map_meter.count());
  EXPECT_EQ(arena.digest(), map.digest());
  EXPECT_EQ(arena.size(), map.size());
  for (const auto& outpoint : created) {
    auto a = arena.find(outpoint);
    auto b = map.find(outpoint);
    ASSERT_TRUE(a.has_value());
    ASSERT_TRUE(b.has_value());
    EXPECT_EQ(*a, *b);
  }
}

TEST(UtxoStorePointOpTest, MovePreservesContents) {
  UtxoIndex index(InstructionCosts{}, persist::UtxoBackend::kMap);
  ic::InstructionMeter meter;
  for (std::uint8_t tag = 0; tag < 12; ++tag) {
    index.insert(bitcoin::OutPoint{util::Hash256{}, tag}, bitcoin::TxOut{100, script(tag)},
                 5, meter);
  }
  Hash256 digest = index.digest();
  std::uint64_t memory = index.memory_bytes();

  UtxoIndex moved(std::move(index));
  EXPECT_EQ(moved.digest(), digest);
  EXPECT_EQ(moved.memory_bytes(), memory);
  EXPECT_EQ(moved.backend(), persist::UtxoBackend::kMap);

  UtxoIndex assigned;
  assigned = std::move(moved);
  EXPECT_EQ(assigned.digest(), digest);
  EXPECT_EQ(assigned.size(), 12u);
  EXPECT_EQ(assigned.backend(), persist::UtxoBackend::kMap);
  // The moved-from index stays a valid (empty) store.
  EXPECT_EQ(moved.size(), 0u);  // NOLINT(bugprone-use-after-move): contract under test
  EXPECT_EQ(moved.memory_bytes(), 0u);
}

// ---------------------------------------------------------------------------
// Canister-level randomized pagination across backends

class BackendPaginationTest : public ::testing::Test {
 protected:
  static CanisterConfig config(persist::UtxoBackend backend) {
    auto c = CanisterConfig::for_params(ChainParams::regtest());
    c.utxos_per_page = 5;  // force multi-page walks
    c.utxo_backend = backend;
    return c;
  }

  std::string address(std::uint8_t tag) {
    util::Hash160 h;
    h.data[0] = tag;
    return bitcoin::p2pkh_address(h, bitcoin::Network::kRegtest);
  }

  util::Bytes pay_script(std::uint8_t tag) {
    util::Hash160 h;
    h.data[0] = tag;
    return bitcoin::p2pkh_script(h);
  }
};

TEST_F(BackendPaginationTest, PageSequencesAndTokensByteIdenticalAcrossBackends) {
  const ChainParams& params = ChainParams::regtest();
  std::vector<std::unique_ptr<BitcoinCanister>> canisters;
  canisters.push_back(std::make_unique<BitcoinCanister>(params, config(persist::UtxoBackend::kArena)));
  canisters.push_back(std::make_unique<BitcoinCanister>(params, config(persist::UtxoBackend::kMap)));

  // A single chain paying a small tag set repeatedly, with extra same-script
  // outputs per block so stable pages span many heights; enough blocks that
  // the anchor advances (δ=6) and most UTXOs are stable.
  util::Rng rng(929);
  chain::HeaderTree build_tree(params, params.genesis_header);
  Hash256 tip = params.genesis_header.hash();
  std::uint32_t time = params.genesis_header.time;
  constexpr std::uint8_t kTags = 3;
  for (int i = 0; i < 24; ++i) {
    time += 600;
    auto tag = static_cast<std::uint8_t>(1 + rng.next() % kTags);
    std::vector<bitcoin::Transaction> txs;
    bitcoin::Transaction extra;
    bitcoin::TxIn in;
    in.prevout.txid = rng.next_hash();
    extra.inputs.push_back(in);
    int n_outs = 1 + static_cast<int>(rng.next() % 3);
    for (int o = 0; o < n_outs; ++o) {
      extra.outputs.push_back(bitcoin::TxOut{
          static_cast<bitcoin::Amount>(100 + o), pay_script(static_cast<std::uint8_t>(
                                                     1 + rng.next() % kTags))});
    }
    txs.push_back(std::move(extra));
    Block b = chain::build_child_block(build_tree, tip, time, pay_script(tag),
                                       50 * bitcoin::kCoin, std::move(txs),
                                       static_cast<std::uint64_t>(i + 1));
    tip = b.hash();
    ASSERT_EQ(build_tree.accept(b.header, static_cast<std::int64_t>(time) + 4000),
              chain::AcceptResult::kAccepted);
    adapter::AdapterResponse response;
    response.blocks.emplace_back(b, b.header);
    for (auto& canister : canisters) {
      canister->process_response(response, static_cast<std::int64_t>(time) + 4000);
    }
  }
  ASSERT_GT(canisters[0]->anchor_height(), 0);

  // Randomized page walks: every page's UTXO list AND its opaque token must
  // be byte-identical across backends.
  for (int round = 0; round < 8; ++round) {
    auto tag = static_cast<std::uint8_t>(1 + rng.next() % kTags);
    int minconf = static_cast<int>(rng.next() % 7);
    std::vector<GetUtxosRequest> requests(canisters.size());
    for (auto& request : requests) {
      request.address = address(tag);
      request.min_confirmations = minconf;
    }
    for (int page = 0; page < 64; ++page) {
      auto baseline = canisters[0]->get_utxos(requests[0]);
      for (std::size_t c = 1; c < canisters.size(); ++c) {
        auto got = canisters[c]->get_utxos(requests[c]);
        ASSERT_EQ(baseline.status, got.status);
        if (!baseline.ok()) continue;
        ASSERT_EQ(baseline.value.utxos, got.value.utxos) << "page " << page;
        ASSERT_EQ(baseline.value.tip_hash, got.value.tip_hash);
        ASSERT_EQ(baseline.value.next_page, got.value.next_page) << "token diverged, page " << page;
        if (got.value.next_page) requests[c].page = got.value.next_page;
      }
      if (!baseline.ok() || !baseline.value.next_page) break;
      requests[0].page = baseline.value.next_page;
    }
  }
}

}  // namespace
}  // namespace icbtc::canister
