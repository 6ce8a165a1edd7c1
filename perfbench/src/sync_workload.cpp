// sync: catch-up ingestion. Simulated Bitcoin nodes serve a pre-generated
// chain; each round, a fresh adapter and a fresh canister (default config,
// δ=144) sync it through multi-block Algorithm 1 responses, then the
// canister writes a checkpoint and restores from it.
#include <climits>

#include "adapter/adapter.h"
#include "btcnet/harness.h"
#include "checks.h"
#include "parallel/thread_pool.h"
#include "workloads.h"

namespace perfbench {

namespace {

using namespace icbtc;

constexpr int kBlocks = 1200;
constexpr std::size_t kAddresses = 32768;
constexpr std::size_t kNodes = 2;
/// Addresses whose balances and UTXOs are checked on each canister per round.
constexpr std::size_t kSample = 160;

/// Mainnet blocks carry ~2000 inputs and ~2300 outputs; these carry ~1/9
/// of the inputs and ~1/5 of the outputs, so the UTXO set grows by ~200
/// per block, to several hundred thousand entries.
BlockShape sync_shape() {
  BlockShape shape;
  shape.transactions = 150;
  shape.inputs_per_tx = 1.5;
  shape.outputs_per_tx = 2.8;
  shape.jitter = 0.3;
  return shape;
}

}  // namespace

RunResult run_sync(const Options& options) {
  RunResult result;
  const std::size_t threads = install_pool();
  const auto& params = bitcoin::ChainParams::mainnet();
  const canister::CanisterConfig config;  // default: δ = 144, 8 shards, arena
  const int delta = config.stability_delta;
  auto expect = [&](const std::string& error) { result.check(error.empty(), error); };
  // Declared before every object it is attached to, so it outlives them.
  obs::MetricsRegistry registry;

  // ----------------------------- set-up ----------------------------------
  AddressBook book(params, kAddresses, options.seed);
  Ledger ledger;
  ChainGenerator generator(params, ledger, book, options.seed);
  util::Simulation sim;
  // Start the clock at the chain's last timestamp so every node accepts it.
  sim.run_until(static_cast<util::SimTime>(kBlocks) * 600 * util::kSecond + util::kMinute);
  btcnet::BitcoinNetworkConfig net_config;
  net_config.num_nodes = kNodes;
  net_config.connections_per_node = 1;
  net_config.num_dns_seeds = kNodes;
  net_config.num_miners = 0;
  net_config.ipv6_fraction = 1.0;
  btcnet::BitcoinNetworkHarness harness(sim, params, net_config, options.seed);
  util::Rng pick(options.seed ^ 0x51c0ULL);
  const BlockShape shape = sync_shape();
  for (int h = 1; h <= kBlocks; ++h) {
    bitcoin::Block block = generator.next_block(
        shape, [&] { return static_cast<std::uint32_t>(pick.next_below(kAddresses)); });
    for (std::size_t n = 0; n < kNodes; ++n) harness.node(n).submit_block(block);
  }
  sim.run_until(sim.now() + 10 * util::kSecond);
  for (std::size_t n = 0; n < kNodes; ++n) {
    if (harness.node(n).best_height() != kBlocks) {
      throw std::runtime_error("sync set-up: a node did not accept the generated chain");
    }
  }
  ledger.index_by_address(kAddresses);
  const int tip = kBlocks;
  // The anchor is the highest block with δ blocks of work on it, itself
  // included: δ - 1 blocks stand above it.
  const int anchor_expected = tip - delta + 1;
  const std::size_t stable_utxos_expected = ledger.unspent_count(anchor_expected);
  std::uint64_t stable_txs_expected = 0;
  for (int h = 1; h <= anchor_expected; ++h) {
    stable_txs_expected += ledger.block_transactions[static_cast<std::size_t>(h - 1)];
  }
  const double setup_s = now_s();

  // ----------------------------- rounds ----------------------------------
  obs::MetricsRegistry* attached = nullptr;
  CallStats reads;
  Series round_times;
  std::vector<double> sync_rates;  // transactions per host second, per round
  std::uint64_t txs_synced = 0;
  std::vector<double> write_times;
  std::uint64_t round_index = 0;
  LayerTallies tallies;  // traced pass
  auto round = [&](bool traced) {
    ++round_index;
    adapter::AdapterConfig adapter_config;
    adapter_config.outbound_connections = kNodes;
    adapter_config.addr_lower_threshold = 1;
    adapter_config.addr_upper_threshold = kNodes;
    adapter_config.multi_block_below_height = INT_MAX;  // catch-up: multi-block responses
    adapter::BitcoinAdapter adapter(harness.network(), params, adapter_config,
                                    util::Rng(options.seed * 7919 + round_index));
    canister::BitcoinCanister canister(params, config);
    adapter.set_metrics(attached);
    canister.set_metrics(attached);
    const std::uint64_t meter_base = canister.meter().count();
    std::uint64_t metered = 0;
    std::uint64_t blocks_seen = 0, txs_seen = 0;

    adapter.start();
    const double start = now_s();
    for (int iteration = 0;; ++iteration) {
      if (iteration > 100000) throw std::runtime_error("sync: canister never caught up");
      const RoundCarried carried = timed_round(
          canister, adapter,
          static_cast<std::int64_t>(params.genesis_header.time) + sim.now() / util::kSecond,
          metered);
      blocks_seen += carried.blocks;
      txs_seen += carried.transactions;
      if (traced) tallies.add(carried);
      // Rounds that carried blocks; the others are polls while blocks download.
      if (carried.blocks > 0) round_times.add_s(carried.seconds);
      // Synced: the canister holds every block (anchor plus unstable ones).
      if (canister.tip_height() == tip &&
          canister.anchor_height() + static_cast<int>(canister.unstable_block_count()) == tip) {
        break;
      }
      ScopedSpan span("btcnet.run");
      sim.run_until(sim.now() + util::kSecond);  // one IC round of the Bitcoin network
    }
    sync_rates.push_back(static_cast<double>(txs_seen) / (now_s() - start));
    if (traced == options.trace) txs_synced += txs_seen;  // the reported pass
    adapter.stop();

    util::Bytes checkpoint;
    {
      ScopedSpan span("persist.write_checkpoint");
      checkpoint = canister.write_checkpoint();
      write_times.push_back(span.stop());
      if (traced) tallies.write_s.push_back(write_times.back());
    }
    ScopedSpan restore_span("persist.from_checkpoint");
    canister::BitcoinCanister restored =
        canister::BitcoinCanister::from_checkpoint(params, config, checkpoint);
    const double restore_s = restore_span.stop();
    if (traced) tallies.restore_s.push_back(restore_s);

    // --------------------------- checks ---------------------------------
    expect(check_equal("anchor height",
                       static_cast<std::uint64_t>(canister.anchor_height()),
                       static_cast<std::uint64_t>(anchor_expected)));
    expect(check_equal("blocks in adapter responses vs ledger", blocks_seen, ledger.blocks));
    expect(check_equal("transactions in adapter responses vs ledger", txs_seen,
                       ledger.transactions));
    std::uint64_t stable_txs = 0;
    for (const auto& stats : canister.ingest_log()) stable_txs += stats.transactions;
    expect(check_equal("stable blocks ingested vs ledger", canister.ingest_log().size(),
                       static_cast<std::uint64_t>(anchor_expected)));
    expect(check_equal("stable transactions ingested vs ledger", stable_txs, stable_txs_expected));
    expect(check_equal("utxo_count vs ledger unspent set at the anchor", canister.utxo_count(),
                       stable_utxos_expected));
    expect(check_digest(canister.utxo_digest(), restored.utxo_digest()));

    util::Rng sample(options.seed * 104729 + round_index);
    CanisterCalls writer_calls(canister, reads);
    CanisterCalls restored_calls(restored, reads);
    const int height = considered_height(tip, anchor_expected, delta);
    for (std::size_t i = 0; i < kSample; ++i) {
      auto address = static_cast<std::uint32_t>(sample.next_below(kAddresses));
      const std::string& text = book.address(address);
      const auto expected = ledger.unspent(address, height);
      const auto expected_balance = ledger.balance(address, height);
      for (CanisterCalls* calls : {&writer_calls, &restored_calls}) {
        const char* which = calls == &writer_calls ? "synced " : "restored ";
        auto balance = calls->get_balance(text, delta);
        result.check(balance.ok(), std::string(which) + "get_balance failed");
        expect(check_balance(which + text, expected_balance, balance.value));
        auto pages = calls->get_utxos_all(text, delta);
        result.check(pages.ok(), std::string(which) + "get_utxos failed");
        expect(check_pages(which + text, expected, pages.value, config.utxos_per_page, height,
                           balance.value));
      }
    }
    expect(check_equal("per-call meter segments vs meter total", metered + writer_calls.metered(),
                       canister.meter().count() - meter_base));

    if (traced) {
      tallies.add_canister(canister);
      tallies.checkpoint_bytes = checkpoint.size();
    }
    adapter.set_metrics(nullptr);
    canister.set_metrics(nullptr);
  };

  Passes passes = run_passes(options, round, [&] {
    attached = &registry;
    harness.network().set_metrics(&registry);
    if (auto* pool = parallel::shared_pool()) pool->set_metrics(&registry);
  });
  harness.network().set_metrics(nullptr);
  if (auto* pool = parallel::shared_pool()) pool->set_metrics(nullptr);

  result.attempted = txs_synced;
  auto& e2e = result.end_to_end;
  e2e["setup_s"] = {setup_s, "s"};
  e2e["peak_rss_mb"] = {peak_rss_mb(), "MB"};
  e2e["ops_per_s"] = {median(sync_rates), "1/s"};
  e2e["checkpoint_write_s"] = {median(write_times), "s"};
  report_reads(result, reads, round_times.percentile(50));

  if (options.trace) {
    report_layers(result, registry, threads, passes, reads, tallies);
    expect(check_equal("canister.blocks_ingested counter vs stable blocks ingested",
                       static_cast<std::uint64_t>(
                           registry_value(registry, "canister.blocks_ingested")),
                       tallies.stable_blocks));
  }
  return result;
}

}  // namespace perfbench
