// Attack lab: walks through the three §IV-A attack scenarios against a live
// stack and shows each defence doing its job — the adapter's validation, the
// δ-stability margin, and the N-set/τ sync gate after downtime — plus a
// fourth scenario: restoring the canister from a stable-memory checkpoint
// after an outage and replaying a fork injection against the restored
// canister and a never-stopped twin.
//
// Build & run:  cmake --build build && ./build/examples/attack_lab
#include <cstdio>

#include "bitcoin/script.h"
#include "btcnet/harness.h"
#include "canister/integration.h"
#include "chain/block_builder.h"
#include "persist/checkpoint.h"

using namespace icbtc;

int main() {
  std::printf("=== attack lab: the §IV-A scenarios, live ===\n\n");

  util::Simulation sim;
  const auto& params = bitcoin::ChainParams::regtest();
  btcnet::BitcoinNetworkConfig btc_config;
  btc_config.num_nodes = 12;
  btc_config.num_miners = 1;
  btc_config.ipv6_fraction = 1.0;
  btcnet::BitcoinNetworkHarness bitcoin_net(sim, params, btc_config, 61);
  sim.run();

  ic::SubnetConfig subnet_config;
  subnet_config.num_nodes = 13;
  subnet_config.num_byzantine = 4;  // f = 4: the tolerated maximum
  ic::Subnet subnet(sim, subnet_config, 62);
  canister::IntegrationConfig config;
  config.adapter.addr_lower_threshold = 3;
  config.adapter.addr_upper_threshold = 8;
  config.adapter.multi_block_below_height = 0;  // single-block (production) mode
  config.canister = canister::CanisterConfig::for_params(params);
  canister::BitcoinIntegration integration(subnet, bitcoin_net.network(), params, config, 63);
  subnet.start();
  integration.start();

  auto mine = [&](int n) {
    for (int i = 0; i < n; ++i) {
      sim.run_until(sim.now() + 600 * util::kSecond);
      bitcoin_net.miners()[0]->mine_one();
    }
    sim.run_until(sim.now() + 5 * util::kMinute);
  };

  mine(4);
  std::printf("steady state: canister at height %d, synced=%s, anchors archived=%zu\n\n",
              integration.canister().tip_height(),
              integration.canister().is_synced() ? "yes" : "no",
              integration.canister().archived_headers());

  // --- Scenario 1: a racing fork (Lemma IV.2) --------------------------
  std::printf("--- scenario 1: private fork released onto the network ---\n");
  auto& node = bitcoin_net.node(0);
  auto chain_hashes = node.tree().current_chain();
  btcnet::AdversaryMiner fork1(node, chain_hashes[chain_hashes.size() - 2], 0.3,
                               util::Rng(64));
  std::uint32_t t = static_cast<std::uint32_t>(params.genesis_header.time +
                                               sim.now() / util::kSecond);
  fork1.mine_next(t += 600);  // one-block fork: ties the honest tip's height
  for (const auto& b : fork1.private_blocks()) node.submit_block(b);
  sim.run_until(sim.now() + 10 * util::kMinute);
  auto tip_hash = integration.canister().header_tree().best_tip();
  int stability = integration.canister().header_tree().confirmation_stability(tip_hash);
  std::printf("fork released at tip height %d: the canister sees %zu block(s) there,\n",
              integration.canister().tip_height(),
              integration.canister().header_tree().blocks_at_height(
                  integration.canister().tip_height()).size());
  std::printf("tip stability is %d -> a contract waiting for c*=3 confirmations\n", stability);
  std::printf("simply keeps waiting; the honest chain resolves the race:\n");
  mine(3);
  std::printf("after 3 honest blocks: tip height %d, fork dead (stability of honest tip "
              "chain restored)\n\n",
              integration.canister().tip_height());

  // --- Scenario 2: Byzantine block makers censor updates ---------------
  std::printf("--- scenario 2: byzantine makers (f=4/13) stonewall responses ---\n");
  integration.set_byzantine_response_provider(
      [](const adapter::AdapterRequest&, const ic::RoundInfo&) {
        return adapter::AdapterResponse{};  // serve nothing when chosen
      });
  int before = integration.canister().tip_height();
  mine(3);
  std::printf("3 blocks mined; canister height %d -> %d: honest makers (9/13 of rounds)\n",
              before, integration.canister().tip_height());
  std::printf("keep the canister in sync — censorship only adds latency\n\n");

  // --- Scenario 3: downtime + fork injection (Lemma IV.3) --------------
  std::printf("--- scenario 3: fork injection after canister downtime ---\n");
  integration.set_canister_down(true);
  btcnet::AdversaryMiner fork3(node, integration.canister().header_tree().best_tip(), 0.3,
                               util::Rng(65));
  t = static_cast<std::uint32_t>(params.genesis_header.time + sim.now() / util::kSecond);
  for (int i = 0; i < 3; ++i) fork3.mine_next(t += 600);
  mine(5);  // the honest chain grows during the outage
  std::printf("during downtime: adversary prepared %zu private blocks; honest chain at %d\n",
              fork3.private_blocks().size(), node.best_height());

  std::size_t next_block = 0;
  integration.set_byzantine_response_provider(
      [&](const adapter::AdapterRequest&, const ic::RoundInfo&) {
        adapter::AdapterResponse response;  // one fork block per round, N = {}
        if (next_block < fork3.private_blocks().size()) {
          const auto& b = fork3.private_blocks()[next_block++];
          response.blocks.emplace_back(b, b.header);
        }
        return response;
      });
  integration.set_canister_down(false);
  sim.run_until(sim.now() + 5 * util::kMinute);
  bool on_honest = integration.canister().header_tree().best_tip() == node.best_tip();
  std::printf("recovery: byzantine makers fed %zu fork blocks, but the first honest\n",
              next_block);
  std::printf("maker's N set revealed the true headers -> canister on honest chain: %s,\n",
              on_honest ? "YES" : "no");
  std::printf("synced: %s (Lemma IV.3: success would need %d byzantine makers in a row,\n",
              integration.canister().is_synced() ? "yes" : "no", 3);
  std::printf("probability < 3^-3 = %.3f)\n", 1.0 / 27.0);

  // --- Scenario 4: checkpoint/restore after downtime --------------------
  // The operator checkpoints the canister, the canister goes down, and the
  // state is restored into a deployment on the other backend (the node-map
  // backend instead of the flat arena). A byzantine maker then
  // replays a fork injection against the restored canister and against a
  // never-stopped twin: every observable — UTXO digest, queries, the
  // instruction meter — must stay identical, or the restore changed
  // consensus-visible state.
  std::printf("\n--- scenario 4: post-downtime restore from a stable-memory checkpoint ---\n");
  auto& live = integration.canister();
  live.checkpoint("attack_lab.ckpt");
  std::printf("checkpointed canister at height %d (%zu utxos) to attack_lab.ckpt\n",
              live.tip_height(), live.utxo_count());

  auto restore_config = config.canister;
  restore_config.utxo_backend = persist::UtxoBackend::kMap;
  auto restored = canister::BitcoinCanister::restore(params, restore_config, "attack_lab.ckpt");
  auto twin = canister::BitcoinCanister::restore(params, config.canister, "attack_lab.ckpt");
  std::printf("restored on the map backend; twin kept the writer's config\n");
  std::printf("digest after restore: %s (writer: %s)\n",
              restored.utxo_digest() == live.utxo_digest() ? "MATCHES writer" : "DIFFERS",
              live.utxo_digest().hex().substr(0, 16).c_str());

  // Replay: a two-block fork off the tip's parent, then three honest blocks,
  // fed identically to both canisters.
  util::Hash160 payee;
  payee.data[0] = 0x42;
  util::Bytes coinbase_script = bitcoin::p2pkh_script(payee);
  std::string payee_addr = bitcoin::p2pkh_address(payee, params.network);
  t = static_cast<std::uint32_t>(params.genesis_header.time + sim.now() / util::kSecond);
  std::uint64_t tag = 0x5c4;
  auto feed_both = [&](const util::Hash256& parent) {
    auto block = chain::build_child_block(twin.header_tree(), parent, t += 600, coinbase_script,
                                          bitcoin::block_subsidy(0), {}, tag++);
    adapter::AdapterResponse response;
    response.blocks.emplace_back(block, block.header);
    restored.process_response(response, static_cast<std::int64_t>(t) + 10000);
    twin.process_response(response, static_cast<std::int64_t>(t) + 10000);
    return block.hash();
  };
  util::Hash256 fork_parent =
      twin.header_tree().find(twin.header_tree().best_tip())->header.prev_hash;
  auto fork_tip = feed_both(fork_parent);
  feed_both(fork_tip);  // fork overtakes by one: both canisters reorg
  for (int i = 0; i < 3; ++i) feed_both(twin.header_tree().best_tip());

  bool digests = restored.utxo_digest() == twin.utxo_digest();
  bool meters = restored.meter().count() == twin.meter().count();
  bool balances = restored.get_balance(payee_addr).value == twin.get_balance(payee_addr).value;
  std::printf("replayed 2 fork + 3 honest blocks through both canisters:\n");
  std::printf("  utxo digest equal: %s, meter totals equal: %s (%llu instructions),\n",
              digests ? "YES" : "no", meters ? "YES" : "no",
              static_cast<unsigned long long>(twin.meter().count()));
  std::printf("  %s balance equal: %s -> the checkpoint is consensus-invisible\n",
              payee_addr.c_str(), balances ? "YES" : "no");

  std::printf("\n=== all four defences held ===\n");
  return (digests && meters && balances) ? 0 : 1;
}
