// Correctness checks of the program's outputs against the benchmark's ledger
// or against properties. Each returns an empty string when the output is
// correct and a description of the first difference otherwise. The self
// test (run.py --self-test) feeds each check one corrupted value and shows
// that it fails.
#pragma once

#include <string>
#include <vector>

#include "canister/bitcoin_canister.h"
#include "ledger.h"

namespace perfbench {

/// A balance the canister reported against the ledger's.
std::string check_balance(const std::string& what, icbtc::bitcoin::Amount expected,
                          icbtc::bitcoin::Amount got);

/// A get_utxos page sequence against the ledger's set for that address and
/// depth: every page holds at most `page_limit` UTXOs, no outpoint repeats,
/// none is missing or extra, values and heights match, every page reports
/// `considered_height`, and the values sum to `balance` (the get_balance
/// answer for the same request).
std::string check_pages(const std::string& what, const std::vector<ExpectedUtxo>& expected,
                        const std::vector<icbtc::canister::GetUtxosResponse>& pages,
                        std::size_t page_limit, int considered_height,
                        icbtc::bitcoin::Amount balance);

/// Two UTXO-set digests (writer vs restored canister).
std::string check_digest(const icbtc::util::Hash256& writer, const icbtc::util::Hash256& restored);

/// Two independent counts of the same quantity.
std::string check_equal(const std::string& what, std::uint64_t a, std::uint64_t b);

/// Value conservation of the wallet workload.
std::string check_conservation(icbtc::bitcoin::Amount funded, icbtc::bitcoin::Amount wallets,
                               icbtc::bitcoin::Amount recipients, icbtc::bitcoin::Amount fees);

/// Feeds each check one corrupted value; returns the number of checks that
/// failed to notice (0 = every check can fail). Prints one line per case.
int self_test();

}  // namespace perfbench
