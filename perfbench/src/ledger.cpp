#include "ledger.h"

#include <algorithm>
#include <stdexcept>

#include "bitcoin/address.h"
#include "bitcoin/script.h"
#include "chain/block_builder.h"

namespace perfbench {

using icbtc::bitcoin::Amount;
using icbtc::bitcoin::Block;
using icbtc::bitcoin::OutPoint;
using icbtc::bitcoin::Transaction;

AddressBook::AddressBook(const icbtc::bitcoin::ChainParams& params, std::size_t count,
                         std::uint64_t seed) {
  icbtc::util::Rng rng(seed ^ 0xadd7e55b00cULL);
  scripts_.reserve(count);
  addresses_.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    icbtc::util::Hash160 key_hash;
    auto bytes = rng.next_bytes(20);
    std::copy(bytes.begin(), bytes.end(), key_hash.data.begin());
    scripts_.push_back(icbtc::bitcoin::p2pkh_script(key_hash));
    addresses_.push_back(icbtc::bitcoin::p2pkh_address(key_hash, params.network));
  }
}

std::uint32_t AddressBook::add(icbtc::util::Bytes script, std::string address) {
  scripts_.push_back(std::move(script));
  addresses_.push_back(std::move(address));
  return static_cast<std::uint32_t>(scripts_.size() - 1);
}

// -------------------------------- Ledger ----------------------------------

std::uint32_t Ledger::add_output(const OutPoint& outpoint, Amount value, int height,
                                 std::uint32_t address) {
  records_.push_back(OutputRecord{outpoint, value, height, kUnspent, address});
  return static_cast<std::uint32_t>(records_.size() - 1);
}

void Ledger::spend(std::uint32_t record, int height) {
  OutputRecord& r = records_.at(record);
  if (r.spent_height != kUnspent) throw std::logic_error("ledger: output spent twice");
  r.spent_height = height;
}

void Ledger::index_by_address(std::size_t address_count) {
  by_address_.assign(address_count, {});
  for (std::uint32_t i = 0; i < records_.size(); ++i) {
    by_address_.at(records_[i].address).push_back(i);
  }
}

std::vector<ExpectedUtxo> Ledger::unspent(std::uint32_t address, int height) const {
  std::vector<ExpectedUtxo> out;
  for (std::uint32_t i : by_address_.at(address)) {
    const OutputRecord& r = records_[i];
    if (r.height <= height && r.spent_height > height) {
      out.push_back(ExpectedUtxo{r.outpoint, r.value, r.height});
    }
  }
  std::sort(out.begin(), out.end(),
            [](const ExpectedUtxo& a, const ExpectedUtxo& b) { return a.outpoint < b.outpoint; });
  return out;
}

Amount Ledger::balance(std::uint32_t address, int height) const {
  Amount sum = 0;
  for (std::uint32_t i : by_address_.at(address)) {
    const OutputRecord& r = records_[i];
    if (r.height <= height && r.spent_height > height) sum += r.value;
  }
  return sum;
}

std::size_t Ledger::unspent_count(int height) const {
  std::size_t n = 0;
  for (const auto& r : records_) {
    if (r.height <= height && r.spent_height > height) ++n;
  }
  return n;
}

// ----------------------------- ChainGenerator -----------------------------

ChainGenerator::ChainGenerator(const icbtc::bitcoin::ChainParams& params, Ledger& ledger,
                               const AddressBook& book, std::uint64_t seed,
                               std::uint32_t spacing_s)
    : params_(&params),
      ledger_(&ledger),
      book_(&book),
      rng_(seed),
      tree_(params, params.genesis_header),
      tip_(params.genesis_header.hash()),
      time_(params.genesis_header.time),
      spacing_s_(spacing_s),
      tag_(seed << 24) {}

std::size_t ChainGenerator::jittered(double base, double jitter) {
  if (base <= 0) return 0;
  double factor = 1.0 + jitter * (2.0 * rng_.next_double() - 1.0);
  return std::max<std::size_t>(1, static_cast<std::size_t>(base * factor + 0.5));
}

std::uint32_t ChainGenerator::take_spendable() {
  auto at = static_cast<std::size_t>(rng_.next_below(spendable_.size()));
  std::uint32_t rec = spendable_[at];
  spendable_[at] = spendable_.back();
  spendable_.pop_back();
  ledger_->spend(rec, height_ + 1);
  return rec;
}

Block ChainGenerator::funding_block(const std::vector<std::pair<std::uint32_t, Amount>>& payments,
                                    std::size_t per_tx) {
  std::vector<Transaction> txs;
  std::vector<std::vector<std::uint32_t>> payees;
  for (std::size_t at = 0; at < payments.size(); at += per_tx) {
    if (spendable_.empty()) throw std::logic_error("funding_block: nothing spendable");
    Transaction tx;
    icbtc::bitcoin::TxIn in;
    in.prevout = ledger_->record(take_spendable()).outpoint;
    tx.inputs.push_back(in);
    std::vector<std::uint32_t> to;
    for (std::size_t i = at; i < std::min(payments.size(), at + per_tx); ++i) {
      tx.outputs.push_back(
          icbtc::bitcoin::TxOut{payments[i].second, book_->script(payments[i].first)});
      to.push_back(payments[i].first);
    }
    txs.push_back(std::move(tx));
    payees.push_back(std::move(to));
  }
  return seal(std::move(txs), payees);
}

Block ChainGenerator::seal(std::vector<Transaction> txs,
                           const std::vector<std::vector<std::uint32_t>>& payees) {
  int height = height_ + 1;
  time_ += spacing_s_;
  // The coinbase pays a book address too, so every output the canister
  // stores is in the ledger.
  auto coinbase_payee = coinbase_address_ >= 0
                            ? static_cast<std::uint32_t>(coinbase_address_)
                            : static_cast<std::uint32_t>(rng_.next_below(book_->size()));
  Block block = icbtc::chain::build_child_block(tree_, tip_, time_, book_->script(coinbase_payee),
                                                icbtc::bitcoin::block_subsidy(0),
                                                std::move(txs), ++tag_);
  if (tree_.accept(block.header, static_cast<std::int64_t>(time_)) !=
      icbtc::chain::AcceptResult::kAccepted) {
    throw std::logic_error("ChainGenerator: generated block rejected");
  }
  tip_ = block.hash();
  height_ = height;

  for (std::size_t t = 0; t < block.transactions.size(); ++t) {
    const Transaction& tx = block.transactions[t];
    icbtc::util::Hash256 txid = tx.txid();
    for (std::uint32_t v = 0; v < tx.outputs.size(); ++v) {
      std::uint32_t payee = t == 0 ? coinbase_payee : payees[t - 1][v];
      spendable_.push_back(ledger_->add_output(OutPoint{txid, v}, tx.outputs[v].value, height, payee));
    }
  }
  ++ledger_->blocks;
  ledger_->transactions += block.transactions.size();
  ledger_->block_transactions.push_back(block.transactions.size());
  return block;
}

}  // namespace perfbench
