// The benchmark's own record of the chain it generates: every output created
// and every outpoint spent, with height and paying address. All correctness
// checks compare the program's answers against this ledger, never against a
// saved copy of an earlier run's output.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "bitcoin/block.h"
#include "bitcoin/params.h"
#include "chain/header_tree.h"
#include "util/rng.h"

namespace perfbench {

/// A deterministic population of P2PKH addresses: address i's key hash is a
/// pure function of (seed, i).
class AddressBook {
 public:
  AddressBook(const icbtc::bitcoin::ChainParams& params, std::size_t count, std::uint64_t seed);

  /// Appends an address the caller owns (e.g. a wallet's); returns its index.
  std::uint32_t add(icbtc::util::Bytes script, std::string address);

  std::size_t size() const { return scripts_.size(); }
  const icbtc::util::Bytes& script(std::size_t i) const { return scripts_[i]; }
  const std::string& address(std::size_t i) const { return addresses_[i]; }

 private:
  std::vector<icbtc::util::Bytes> scripts_;
  std::vector<std::string> addresses_;
};

constexpr int kUnspent = std::numeric_limits<int>::max();

struct OutputRecord {
  icbtc::bitcoin::OutPoint outpoint;
  icbtc::bitcoin::Amount value = 0;
  int height = 0;
  int spent_height = kUnspent;
  std::uint32_t address = 0;  // index into the AddressBook
};

/// One expected UTXO as a query endpoint reports it.
struct ExpectedUtxo {
  icbtc::bitcoin::OutPoint outpoint;
  icbtc::bitcoin::Amount value = 0;
  int height = 0;
};

class Ledger {
 public:
  std::uint32_t add_output(const icbtc::bitcoin::OutPoint& outpoint,
                           icbtc::bitcoin::Amount value, int height, std::uint32_t address);
  void spend(std::uint32_t record, int height);

  const OutputRecord& record(std::uint32_t i) const { return records_[i]; }

  /// Groups records by address; call once after generation, before queries.
  void index_by_address(std::size_t address_count);

  /// Outputs of `address` unspent as of `height` (created at or below it,
  /// not spent at or below it), sorted by outpoint.
  std::vector<ExpectedUtxo> unspent(std::uint32_t address, int height) const;
  icbtc::bitcoin::Amount balance(std::uint32_t address, int height) const;
  /// Size of the whole unspent set as of `height`.
  std::size_t unspent_count(int height) const;

  std::uint64_t blocks = 0;        // generated blocks (genesis excluded)
  std::uint64_t transactions = 0;  // generated transactions, coinbases included
  /// Transactions of the block at height h + 1, coinbase included.
  std::vector<std::size_t> block_transactions;

 private:
  std::vector<OutputRecord> records_;
  std::vector<std::vector<std::uint32_t>> by_address_;
};

/// Shape of a generated block. Counts are per block; each is jittered
/// uniformly by +-jitter.
struct BlockShape {
  std::size_t transactions = 100;
  double inputs_per_tx = 2.0;
  double outputs_per_tx = 3.0;
  double jitter = 0.3;
  icbtc::bitcoin::Amount min_value = 10'000;
  icbtc::bitcoin::Amount max_value = 5'000'000;
};

/// Generates a valid chain on top of the genesis block, recording every
/// output in the ledger. Spends are drawn from outputs of earlier blocks
/// (never from the same block), so full nodes accept every block. Block
/// timestamps are `spacing_s` apart from the genesis time.
class ChainGenerator {
 public:
  ChainGenerator(const icbtc::bitcoin::ChainParams& params, Ledger& ledger, const AddressBook& book,
                 std::uint64_t seed, std::uint32_t spacing_s = 600);

  /// Next block: about shape.transactions transactions, each spending about
  /// shape.inputs_per_tx earlier outputs and paying about
  /// shape.outputs_per_tx outputs to addresses drawn by `pick()`. Early
  /// blocks are smaller while few outputs are spendable.
  template <typename Pick>
  icbtc::bitcoin::Block next_block(const BlockShape& shape, Pick&& pick);

  /// A block of transactions that each spend one earlier output and pay
  /// `per_tx` of the (address, value) pairs in `payments`, in order.
  icbtc::bitcoin::Block funding_block(
      const std::vector<std::pair<std::uint32_t, icbtc::bitcoin::Amount>>& payments,
      std::size_t per_tx);

  /// Pays every later coinbase to this address instead of a random one.
  void set_coinbase_address(std::uint32_t address) { coinbase_address_ = address; }

  int height() const { return height_; }
  std::uint32_t time() const { return time_; }

 private:
  /// Takes a random spendable output created below the block being built.
  std::uint32_t take_spendable();
  icbtc::bitcoin::Block seal(std::vector<icbtc::bitcoin::Transaction> txs,
                             const std::vector<std::vector<std::uint32_t>>& payees);
  std::size_t jittered(double base, double jitter);

  const icbtc::bitcoin::ChainParams* params_;
  Ledger* ledger_;
  const AddressBook* book_;
  icbtc::util::Rng rng_;
  icbtc::chain::HeaderTree tree_;
  icbtc::util::Hash256 tip_;
  int height_ = 0;
  std::uint32_t time_;
  std::uint32_t spacing_s_;
  std::uint64_t tag_;
  std::int64_t coinbase_address_ = -1;
  /// Ledger records that later blocks may spend.
  std::vector<std::uint32_t> spendable_;
};

template <typename Pick>
icbtc::bitcoin::Block ChainGenerator::next_block(const BlockShape& shape, Pick&& pick) {
  std::size_t n_tx = jittered(static_cast<double>(shape.transactions), shape.jitter);
  std::vector<icbtc::bitcoin::Transaction> txs;
  std::vector<std::vector<std::uint32_t>> payees;
  txs.reserve(n_tx);
  payees.reserve(n_tx);
  for (std::size_t t = 0; t < n_tx && !spendable_.empty(); ++t) {
    icbtc::bitcoin::Transaction tx;
    std::size_t n_in = jittered(shape.inputs_per_tx, shape.jitter);
    for (std::size_t i = 0; i < n_in && !spendable_.empty(); ++i) {
      icbtc::bitcoin::TxIn in;
      in.prevout = ledger_->record(take_spendable()).outpoint;
      tx.inputs.push_back(in);
    }
    std::size_t n_out = jittered(shape.outputs_per_tx, shape.jitter);
    std::vector<std::uint32_t> to;
    to.reserve(n_out);
    for (std::size_t o = 0; o < n_out; ++o) {
      std::uint32_t address = pick();
      auto value = static_cast<icbtc::bitcoin::Amount>(
          rng_.next_range(static_cast<std::uint64_t>(shape.min_value),
                          static_cast<std::uint64_t>(shape.max_value)));
      tx.outputs.push_back(icbtc::bitcoin::TxOut{value, book_->script(address)});
      to.push_back(address);
    }
    txs.push_back(std::move(tx));
    payees.push_back(std::move(to));
  }
  return seal(std::move(txs), payees);
}

}  // namespace perfbench
