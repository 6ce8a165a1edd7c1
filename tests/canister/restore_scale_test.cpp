// Checkpoint restore is linear in a script's UTXO count. One address holding
// 100k stable UTXOs must restore well inside this executable's 10 s ctest
// timeout; a restore that walks the script's chain from its head for every
// entry (checkpoints store entries in outpoint order) is quadratic and does
// not finish in time.
#include <gtest/gtest.h>

#include <vector>

#include "bitcoin/script.h"
#include "canister/bitcoin_canister.h"
#include "chain/block_builder.h"

namespace icbtc::canister {
namespace {

TEST(RestoreScaleTest, HundredThousandUtxosOnOneAddressRestore) {
  const bitcoin::ChainParams& params = bitcoin::ChainParams::regtest();
  const CanisterConfig config = CanisterConfig::for_params(params);
  util::Hash160 payee;
  payee.data[0] = 7;
  const util::Bytes script = bitcoin::p2pkh_script(payee);

  BitcoinCanister writer(params, config);
  chain::HeaderTree tree(params, params.genesis_header);
  util::Hash256 tip = params.genesis_header.hash();
  std::uint32_t time = params.genesis_header.time;
  constexpr int kPaidBlocks = 100;
  constexpr std::uint32_t kOutputsPerBlock = 1000;
  // δ more blocks after the paying ones make every paying block stable.
  for (int i = 0; i < kPaidBlocks + config.stability_delta + 1; ++i) {
    std::vector<bitcoin::Transaction> txs;
    if (i < kPaidBlocks) {
      bitcoin::Transaction tx;
      bitcoin::TxIn in;
      in.prevout.txid.data[0] = static_cast<std::uint8_t>(i + 1);  // unvalidated spend
      tx.inputs.push_back(in);
      tx.outputs.assign(kOutputsPerBlock, bitcoin::TxOut{546, script});
      txs.push_back(std::move(tx));
    }
    time += 600;
    bitcoin::Block block = chain::build_child_block(tree, tip, time, script, 50 * bitcoin::kCoin,
                                                    std::move(txs), static_cast<std::uint64_t>(i));
    ASSERT_EQ(tree.accept(block.header, time + 4000), chain::AcceptResult::kAccepted);
    tip = block.hash();
    adapter::AdapterResponse response;
    response.blocks.emplace_back(block, block.header);
    writer.process_response(response, time + 4000);
  }
  ASSERT_GE(writer.utxo_count(), static_cast<std::size_t>(kPaidBlocks) * kOutputsPerBlock);

  const util::Bytes checkpoint = writer.write_checkpoint();
  ic::InstructionMeter meter;
  const std::vector<StoredUtxo> expected = writer.stable_utxos().utxos_for_script(script, meter);
  for (persist::UtxoBackend backend : {persist::UtxoBackend::kArena, persist::UtxoBackend::kMap}) {
    CanisterConfig restore_config = config;
    restore_config.utxo_backend = backend;
    auto restored = BitcoinCanister::from_checkpoint(params, restore_config, checkpoint);
    EXPECT_EQ(restored.utxo_digest(), writer.utxo_digest()) << persist::to_string(backend);
    EXPECT_EQ(restored.stable_utxos().utxos_for_script(script, meter), expected);
    EXPECT_EQ(restored.write_checkpoint(), checkpoint);
  }
}

}  // namespace
}  // namespace icbtc::canister
