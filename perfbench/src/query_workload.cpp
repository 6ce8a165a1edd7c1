// query: read-heavy service. A canister holds a large stable UTXO set whose
// address population has the paper's UTXO-count skew and outnumbers the
// 4096-entry delta-index memo; a full δ=144 window of unstable blocks also
// pays and spends those addresses. One closed-loop client issues a seeded
// Zipf stream of requests; each request walks get_utxos to its last page
// and then asks get_balance for the same address and depth.
#include <algorithm>
#include <cmath>
#include <optional>

#include "checks.h"
#include "parallel/thread_pool.h"
#include "workloads.h"

namespace perfbench {

namespace {

using namespace icbtc;

/// 1.5x the delta-index memo capacity (4096); with four confirmation depths
/// the stream touches ~6x as many memo keys as the memo holds.
constexpr std::size_t kPopulation = 6144;
constexpr std::size_t kOutputsPerFundingBlock = 2300;
constexpr std::size_t kOutputsPerFundingTx = 23;
constexpr int kRequestsPerRound = 16;
/// The repository's load model's address skew (bench/load_sim.h, DESIGN.md
/// §14: s = 0.99, the usual web/YCSB hot-set skew).
constexpr double kZipfExponent = 0.99;
/// Upper bound on the generated chain's time span (~1000 blocks at 600 s).
constexpr std::uint64_t kChainSpan = 1200 * 600;

/// min_confirmations mix: (depth, share). An assumption, not a measured
/// trace: 0 (the API default) most often, 1 and 6 (common wallet and
/// exchange thresholds) next, and δ = 144 rarely. A read at 144 costs
/// several times one at 0-6 (BitcoinCanister::considered_tip is O(c²) in
/// the depth), so its 10 % share sets much of ops_per_s and the p99s.
constexpr std::pair<int, double> kDepthMix[] = {{0, 0.4}, {1, 0.3}, {6, 0.2}, {144, 0.1}};

/// The paper's measured UTXO-count skew (§IV-B): per 1000 addresses, 517
/// hold fewer than 50 UTXOs, 159 hold 50-199, 113 hold 200-999 and 211 hold
/// 1000 or more (here 1050-1149, so that those addresses page even after
/// the unstable window spends a few of their outputs).
constexpr int kClassShare[] = {517, 159, 113, 211};  // per 1000 addresses

/// Skew class of the address at each Zipf rank: a smooth weighted round
/// robin over the paper's shares, the same for every seed, so every seed's
/// hot set has the same make-up of light and heavy addresses.
std::vector<int> classes_by_rank(std::size_t n) {
  std::vector<int> out(n);
  double assigned[4] = {0, 0, 0, 0};
  for (std::size_t r = 0; r < n; ++r) {
    int best = 0;
    double best_deficit = -1e300;
    for (int c = 0; c < 4; ++c) {
      double deficit = kClassShare[c] / 1000.0 * static_cast<double>(r + 1) - assigned[c];
      if (deficit > best_deficit) {
        best_deficit = deficit;
        best = c;
      }
    }
    out[r] = best;
    assigned[best] += 1;
  }
  return out;
}

std::size_t count_in_class(int c, util::Rng& rng) {
  switch (c) {
    case 0: return 1 + rng.next_below(49);
    case 1: return 50 + rng.next_below(150);
    case 2: return 200 + rng.next_below(800);
    default: return 1050 + rng.next_below(100);
  }
}

class Zipf {
 public:
  Zipf(std::size_t n, double exponent) : cdf_(n) {
    double sum = 0;
    for (std::size_t k = 0; k < n; ++k) {
      sum += 1.0 / std::pow(static_cast<double>(k + 1), exponent);
      cdf_[k] = sum;
    }
    for (double& c : cdf_) c /= sum;
  }
  std::size_t rank(util::Rng& rng) const {
    auto it = std::lower_bound(cdf_.begin(), cdf_.end(), rng.next_double());
    return std::min<std::size_t>(static_cast<std::size_t>(it - cdf_.begin()), cdf_.size() - 1);
  }

 private:
  std::vector<double> cdf_;
};

}  // namespace

RunResult run_query(const Options& options) {
  RunResult result;
  const std::size_t threads = install_pool();
  const auto& params = bitcoin::ChainParams::mainnet();
  const canister::CanisterConfig config;
  const int delta = config.stability_delta;
  // Declared before every object it is attached to, so it outlives them.
  obs::MetricsRegistry registry;

  // ----------------------------- set-up ----------------------------------
  AddressBook book(params, kPopulation, options.seed);
  Ledger ledger;
  ChainGenerator generator(params, ledger, book, options.seed);
  util::Rng rng(options.seed ^ 0x9e37ULL);
  auto uniform = [&] { return static_cast<std::uint32_t>(rng.next_below(kPopulation)); };

  // Blocks go to the canister in multi-block responses of 16 as they are
  // generated; timestamps are checked against the chain's final time.
  std::optional<canister::BitcoinCanister> canister;
  canister.emplace(params, config);
  const std::int64_t now = static_cast<std::int64_t>(params.genesis_header.time) +
                           static_cast<std::int64_t>(kChainSpan);
  adapter::AdapterResponse response;
  auto feed = [&](bitcoin::Block block) {
    bitcoin::BlockHeader header = block.header;
    response.blocks.emplace_back(std::move(block), header);
    if (response.blocks.size() == 16) {
      canister->process_response(response, now);
      response.blocks.clear();
    }
  };

  // A few ordinary blocks first, so funding transactions have outputs to spend.
  BlockShape bootstrap;
  bootstrap.transactions = 100;
  bootstrap.inputs_per_tx = 1;
  bootstrap.outputs_per_tx = 3;
  for (int i = 0; i < 8; ++i) feed(generator.next_block(bootstrap, uniform));

  // Address a is the one at Zipf rank a.
  const std::vector<int> classes = classes_by_rank(kPopulation);
  std::vector<std::pair<std::uint32_t, bitcoin::Amount>> funding;
  for (std::uint32_t a = 0; a < kPopulation; ++a) {
    std::size_t n = count_in_class(classes[a], rng);
    for (std::size_t i = 0; i < n; ++i) {
      funding.emplace_back(a, static_cast<bitcoin::Amount>(rng.next_range(10'000, 5'000'000)));
    }
  }
  rng.shuffle(funding);
  for (std::size_t at = 0; at < funding.size(); at += kOutputsPerFundingBlock) {
    std::vector<std::pair<std::uint32_t, bitcoin::Amount>> chunk(
        funding.begin() + static_cast<std::ptrdiff_t>(at),
        funding.begin() +
            static_cast<std::ptrdiff_t>(std::min(funding.size(), at + kOutputsPerFundingBlock)));
    feed(generator.funding_block(chunk, kOutputsPerFundingTx));
  }
  funding.clear();
  funding.shrink_to_fit();
  // A full δ window of unstable blocks paying and spending the population.
  BlockShape unstable;
  unstable.transactions = 100;
  unstable.inputs_per_tx = 2;
  unstable.outputs_per_tx = 3;
  for (int i = 0; i < delta; ++i) feed(generator.next_block(unstable, uniform));
  if (!response.blocks.empty()) canister->process_response(response, now);
  response.blocks.clear();
  if (static_cast<std::int64_t>(generator.time()) > now) {
    throw std::logic_error("query set-up: chain outgrew its time span");
  }
  ledger.index_by_address(kPopulation);
  const int tip = generator.height();
  // The anchor is the highest block with δ blocks of work on it, itself
  // included: δ - 1 blocks stand above it.
  const int anchor = tip - delta + 1;
  auto expect = [&](const std::string& error) { result.check(error.empty(), error); };
  expect(check_equal("tip height", static_cast<std::uint64_t>(canister->tip_height()),
                     static_cast<std::uint64_t>(tip)));
  expect(check_equal("anchor height",
                     static_cast<std::uint64_t>(canister->anchor_height()),
                     static_cast<std::uint64_t>(anchor)));
  expect(check_equal("utxo_count vs ledger unspent set at the anchor", canister->utxo_count(),
                     ledger.unspent_count(anchor)));

  const Zipf zipf(kPopulation, kZipfExponent);
  const double setup_s = now_s();

  // ----------------------------- rounds ----------------------------------
  CallStats reads;
  CallStats traced_reads;
  CanisterCalls calls(*canister, reads);
  CanisterCalls traced_calls(*canister, traced_reads);
  const std::uint64_t meter_base = canister->meter().count();

  auto round = [&](bool traced) {
    CanisterCalls& c = traced ? traced_calls : calls;
    for (int r = 0; r < kRequestsPerRound; ++r) {
      auto address = static_cast<std::uint32_t>(zipf.rank(rng));
      double roll = rng.next_double();
      int depth = kDepthMix[0].first;
      for (const auto& [d, share] : kDepthMix) {
        depth = d;
        if (roll < share) break;
        roll -= share;
      }
      const std::string& text = book.address(address);
      auto pages = c.get_utxos_all(text, depth);
      auto balance = c.get_balance(text, depth);

      result.check(pages.ok() && balance.ok(), "query call failed");
      const int height = considered_height(tip, anchor, depth);
      const auto expected = ledger.unspent(address, height);
      expect(check_balance(text, ledger.balance(address, height), balance.value));
      expect(check_pages(text, expected, pages.value, config.utxos_per_page, height, balance.value));
    }
  };
  Passes passes = run_passes(options, round, [&] {
    canister->set_metrics(&registry);
    if (auto* pool = parallel::shared_pool()) pool->set_metrics(&registry);
  });
  canister->set_metrics(nullptr);
  if (auto* pool = parallel::shared_pool()) pool->set_metrics(nullptr);
  expect(check_equal("per-call meter segments vs meter total",
                     calls.metered() + traced_calls.metered(),
                     canister->meter().count() - meter_base));

  // Upgrade: the canister writes a checkpoint. It is not restored here:
  // FlatUtxoArena::chain_link walks an address's UTXO chain per inserted
  // entry and a restore inserts in outpoint order, so restoring addresses
  // with ~1000 UTXOs each is quadratic (over 90 s for this set). The sync
  // and wallet workloads time restores.
  LayerTallies tallies;
  tallies.add_canister(*canister);
  util::Bytes checkpoint;
  double write_s = 0;
  {
    ScopedSpan span("persist.write_checkpoint");
    checkpoint = canister->write_checkpoint();
    write_s = span.stop();
  }
  result.check(!checkpoint.empty(), "empty checkpoint");
  tallies.checkpoint_bytes = checkpoint.size();
  tallies.write_s.push_back(write_s);

  CallStats& measured = options.trace ? traced_reads : reads;
  result.attempted = measured.calls();
  auto& e2e = result.end_to_end;
  e2e["setup_s"] = {setup_s, "s"};
  e2e["peak_rss_mb"] = {peak_rss_mb(), "MB"};
  e2e["ops_per_s"] = {static_cast<double>(reads.calls()) / reads.call_seconds(), "1/s"};
  e2e["checkpoint_write_s"] = {write_s, "s"};
  report_reads(result, reads, reads.any.percentile(50));
  if (options.trace) report_layers(result, registry, threads, passes, traced_reads, tallies);
  return result;
}

}  // namespace perfbench
