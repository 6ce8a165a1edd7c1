// wallet: live service with reads beside writes. The paper's 13-replica
// subnet runs one adapter per replica over a simulated Bitcoin network with
// one miner at 10-minute blocks. Funded BtcWallets pay fresh recipients in
// waves; every fourth wallet pays twice in a row before its first payment
// confirms (the back-to-back case of the BtcWallet::send fault). Users read
// balances and UTXOs on a Poisson schedule in simulated time.
//
// The Algorithm 1/2 round that BitcoinIntegration::on_round runs is driven
// here from the benchmark's own subnet heartbeat (make_request -> the block
// maker's handle_request -> process_response), so each call is timed alone.
#include <algorithm>
#include <functional>

#include "bitcoin/script.h"
#include "btcnet/harness.h"
#include "canister/integration.h"
#include "checks.h"
#include "contracts/btc_wallet.h"
#include "obs/trace.h"
#include "parallel/thread_pool.h"
#include "workloads.h"

namespace perfbench {

namespace {

using namespace icbtc;

constexpr std::size_t kWallets = 16;
/// Wallets w with w % kPairEvery == 0 pay twice in a row each wave.
constexpr std::size_t kPairEvery = 4;
constexpr std::size_t kFundingUtxos = 200;  // per wallet
constexpr std::size_t kFiller = 64;         // addresses that are neither wallet nor recipient
constexpr std::size_t kBitcoinNodes = 12;
constexpr double kReadsPerSimSecond = 0.5;
constexpr int kRoundsPerRequest = 2;  // IntegrationConfig::request_every_rounds default
/// Seed of the system's structure: subnet keys and block-maker order,
/// Bitcoin network topology, adapter peer choice. It is the same for every
/// --seed, so that runs differ in their payments and reads, not in how many
/// hops a transaction or block travels.
constexpr std::uint64_t kSystemSeed = 0x5eed;

struct PaymentRecord {
  std::size_t wallet = 0;
  std::string recipient;
  bitcoin::Amount amount = 0;
  contracts::SendResult sent;
  bool paired = false;  // member of a back-to-back pair
  std::size_t partner = 0;
  bool traced_pass = false;
};

}  // namespace

RunResult run_wallet(const Options& options) {
  RunResult result;
  const std::size_t threads = install_pool();
  const auto& params = bitcoin::ChainParams::mainnet();
  auto expect = [&](const std::string& error) { result.check(error.empty(), error); };
  // Declared before every object they are attached to, so they outlive them.
  obs::MetricsRegistry registry;
  obs::TracerConfig tracer_config;
  tracer_config.max_spans = 1 << 20;
  obs::Tracer canister_tracer(tracer_config);
  obs::Tracer ecdsa_tracer(tracer_config);
  auto host_us = [] { return static_cast<obs::TraceTime>(now_ns() / 1000); };
  canister_tracer.set_clock(host_us);
  ecdsa_tracer.set_clock(host_us);

  // ----------------------------- set-up ----------------------------------
  // The funding chain: 4 ordinary blocks, 4 funding blocks, then ordinary
  // blocks up to a full δ window, so the anchor advances with every mined
  // block and the unstable window (and so per-call cost) stays the same
  // size for the whole run.
  constexpr int kPrefix = 150;
  util::Simulation sim;
  sim.run_until(static_cast<util::SimTime>(kPrefix) * 600 * util::kSecond + util::kMinute);

  ic::SubnetConfig subnet_config;  // 13 replicas, 1 s rounds
  ic::Subnet subnet(sim, subnet_config, kSystemSeed);
  btcnet::BitcoinNetworkConfig net_config;
  net_config.num_nodes = kBitcoinNodes;
  net_config.connections_per_node = 3;
  net_config.num_dns_seeds = 3;
  net_config.num_miners = 1;
  net_config.ipv6_fraction = 1.0;
  btcnet::BitcoinNetworkHarness harness(sim, params, net_config, kSystemSeed);
  canister::IntegrationConfig integration_config;
  integration_config.adapter.outbound_connections = 3;
  integration_config.adapter.addr_lower_threshold = 3;
  integration_config.adapter.addr_upper_threshold = kBitcoinNodes;
  canister::BitcoinIntegration integration(subnet, harness.network(), params, integration_config,
                                           kSystemSeed);
  canister::BitcoinCanister& canister = integration.canister();

  std::vector<std::unique_ptr<contracts::BtcWallet>> wallets;
  AddressBook book(params, kFiller, options.seed);
  std::vector<std::uint32_t> wallet_index;
  for (std::size_t w = 0; w < kWallets; ++w) {
    wallets.push_back(std::make_unique<contracts::BtcWallet>(
        integration, crypto::DerivationPath{{0x77, static_cast<std::uint8_t>(w)}}));
    wallet_index.push_back(book.add(wallets.back()->script_pubkey(), wallets.back()->address()));
  }

  Ledger ledger;
  ChainGenerator generator(params, ledger, book, options.seed);
  generator.set_coinbase_address(0);
  util::Rng rng(options.seed ^ 0xa11e7ULL);
  auto filler = [&] { return static_cast<std::uint32_t>(rng.next_below(kFiller)); };
  BlockShape bootstrap;
  bootstrap.transactions = 40;
  bootstrap.inputs_per_tx = 1;
  bootstrap.outputs_per_tx = 4;
  std::vector<bitcoin::Block> prefix;
  for (int i = 0; i < 4; ++i) prefix.push_back(generator.next_block(bootstrap, filler));
  std::vector<std::pair<std::uint32_t, bitcoin::Amount>> funding;
  for (std::size_t w = 0; w < kWallets; ++w) {
    for (std::size_t i = 0; i < kFundingUtxos; ++i) {
      funding.emplace_back(wallet_index[w],
                           static_cast<bitcoin::Amount>(rng.next_range(2'000'000, 5'000'000)));
    }
  }
  rng.shuffle(funding);
  const std::size_t per_block = (funding.size() + 3) / 4;
  for (std::size_t at = 0; at < funding.size(); at += per_block) {
    std::vector<std::pair<std::uint32_t, bitcoin::Amount>> chunk(
        funding.begin() + static_cast<std::ptrdiff_t>(at),
        funding.begin() + static_cast<std::ptrdiff_t>(std::min(funding.size(), at + per_block)));
    prefix.push_back(generator.funding_block(chunk, 20));
  }
  while (generator.height() < kPrefix) prefix.push_back(generator.next_block(bootstrap, filler));
  ledger.index_by_address(book.size());
  bitcoin::Amount funded = 0;
  for (std::uint32_t index : wallet_index) funded += ledger.balance(index, kPrefix);
  for (const auto& block : prefix) {
    for (std::size_t n = 0; n < harness.num_nodes(); ++n) harness.node(n).submit_block(block);
  }
  prefix.clear();

  // The benchmark's own Algorithm 1/2 round, every kRoundsPerRequest rounds.
  const std::uint64_t meter_base = canister.meter().count();
  std::uint64_t metered = 0;
  LayerTallies tallies;  // traced pass
  bool tracing = false;
  subnet.register_heartbeat([&](const ic::RoundInfo& info) {
    if (info.round % kRoundsPerRequest != 0) return;
    const RoundCarried carried = timed_round(
        canister, integration.adapter_of(info.block_maker),
        static_cast<std::int64_t>(params.genesis_header.time) + sim.now() / util::kSecond,
        metered);
    if (tracing) tallies.add(carried);
  });
  for (std::size_t i = 0; i < integration.num_adapters(); ++i) integration.adapter_of(i).start();
  subnet.start();

  auto run_sim = [&](util::SimTime until) {
    ScopedSpan span("btcnet.run");
    sim.run_until(until);
  };
  auto canister_caught_up = [&] {
    int best = harness.max_best_height();
    return canister.tip_height() == best &&
           canister.anchor_height() + static_cast<int>(canister.unstable_block_count()) == best;
  };
  for (int i = 0; !canister_caught_up() || canister.tip_height() < kPrefix; ++i) {
    if (i > 7200) throw std::runtime_error("wallet set-up: canister never synced the funding chain");
    run_sim(sim.now() + util::kSecond);
  }
  // One block every 10 simulated minutes on a fixed cadence, so every wave
  // waits out the same interval.
  bool mining = true;
  std::function<void()> mine = [&] {
    if (!mining) return;
    harness.miners()[0]->mine_one();
    sim.schedule(10 * util::kMinute, mine);
  };
  sim.schedule(10 * util::kMinute, mine);
  const double setup_s = now_s();

  // ----------------------------- waves -----------------------------------
  double send_transaction_s = 0;
  double sign_s = 0;  // host time in the signing service's tecdsa.sign spans

  CallStats reads;
  CanisterCalls read_calls(canister, reads);
  Series payment_times;
  std::vector<PaymentRecord> payments;
  std::vector<std::string> recipients;
  std::vector<double> wave_seconds;
  util::SimTime next_read = sim.now() + static_cast<util::SimTime>(
                                            rng.next_exponential(1.0 / kReadsPerSimSecond) * 1e6);
  std::uint64_t recipient_counter = 0;

  auto read = [&] {
    bool wallet_target = recipients.empty() || rng.chance(0.5);
    const std::string& address = wallet_target
                                     ? wallets[rng.next_below(kWallets)]->address()
                                     : recipients[rng.next_below(recipients.size())];
    int depth = static_cast<int>(rng.next_below(3)) == 0 ? 0 : (rng.chance(0.5) ? 1 : 6);
    if (rng.chance(0.5)) {
      result.check(read_calls.get_balance(address, depth).ok(), "get_balance failed");
    } else {
      result.check(read_calls.get_utxos_all(address, depth).ok(), "get_utxos failed");
    }
  };
  auto mined = [&](const PaymentRecord& p) {
    return harness.node(0).utxos().find(bitcoin::OutPoint{p.sent.txid, 0}).has_value();
  };

  auto wave = [&](bool traced) {
    const double start = now_s();
    const int height_before = harness.node(0).best_height();
    const std::size_t first = payments.size();
    for (std::size_t w = 0; w < kWallets; ++w) {
      const std::size_t n = w % kPairEvery == 0 ? 2 : 1;
      for (std::size_t k = 0; k < n; ++k) {
        PaymentRecord p;
        p.wallet = w;
        util::Hash160 key_hash;
        key_hash.data[0] = 0x52;
        for (int b = 0; b < 8; ++b) {
          key_hash.data[static_cast<std::size_t>(4 + b)] =
              static_cast<std::uint8_t>((options.seed * 31 + recipient_counter) >> (8 * b));
        }
        ++recipient_counter;
        p.recipient = bitcoin::p2pkh_address(key_hash, params.network);
        // Below every funding UTXO: each payment spends exactly one input,
        // the largest, so a back-to-back pair always conflicts.
        p.amount = static_cast<bitcoin::Amount>(rng.next_range(100'000, 1'000'000));
        p.paired = n == 2;
        p.partner = k == 0 ? payments.size() + 1 : payments.size() - 1;
        p.traced_pass = traced;
        if (traced) {
          canister.set_tracer(&canister_tracer);
          subnet.ecdsa().set_tracer(&ecdsa_tracer);
        }
        ic::InstructionMeter::Segment segment(canister.meter());
        ScopedSpan span("wallet.send");
        p.sent = wallets[w]->send({contracts::Payment{p.recipient, p.amount}});
        double seconds = span.stop();
        metered += segment.sample();
        payment_times.add_s(seconds);
        if (traced) {
          canister.set_tracer(nullptr);
          subnet.ecdsa().set_tracer(nullptr);
          // Host time from the start of the canister's send_transaction
          // span (the last step of send) to the return of send.
          obs::TraceTime end = host_us();
          for (const auto& s : canister_tracer.finished_spans()) {
            if (s.name == "canister.send_transaction") {
              send_transaction_s += static_cast<double>(end - s.start) * 1e-6;
            }
          }
          canister_tracer.clear();
          for (const auto& s : ecdsa_tracer.finished_spans()) {
            if (s.name == "tecdsa.sign") sign_s += static_cast<double>(s.duration()) * 1e-6;
          }
          ecdsa_tracer.clear();
        }
        recipients.push_back(p.recipient);
        payments.push_back(std::move(p));
      }
    }
    // Until every payment (or, for a pair, one of its two) is mined and the
    // canister holds the tip, with users reading on their schedule.
    auto settled = [&] {
      if (harness.node(0).best_height() <= height_before || !canister_caught_up()) return false;
      if (canister.pending_transactions() != 0) return false;
      for (std::size_t i = first; i < payments.size(); ++i) {
        const PaymentRecord& p = payments[i];
        if (!p.sent.ok()) continue;
        if (!mined(p) && !(p.paired && mined(payments[p.partner]))) return false;
      }
      return true;
    };
    const util::SimTime deadline = sim.now() + 24 * util::kHour;
    while (!settled()) {
      if (sim.now() > deadline) throw std::runtime_error("wallet: a wave never confirmed");
      util::SimTime step = std::min(next_read, sim.now() + util::kSecond);
      run_sim(step);
      if (sim.now() >= next_read) {
        read();
        next_read = sim.now() + static_cast<util::SimTime>(
                                    rng.next_exponential(1.0 / kReadsPerSimSecond) * 1e6);
      }
    }
    wave_seconds.push_back(now_s() - start);
  };

  Passes passes = run_passes(options, wave, [&] {
    tracing = true;
    harness.network().set_metrics(&registry);
    for (std::size_t n = 0; n < harness.num_nodes(); ++n) harness.node(n).set_metrics(&registry);
    for (std::size_t i = 0; i < integration.num_adapters(); ++i) {
      integration.adapter_of(i).set_metrics(&registry);
    }
    subnet.set_metrics(&registry);
    subnet.ecdsa().set_metrics(&registry);
    canister.set_metrics(&registry);
    if (auto* pool = parallel::shared_pool()) pool->set_metrics(&registry);
  });
  mining = false;
  tracing = false;
  // The shared pool outlives this function; the registry does not.
  if (auto* pool = parallel::shared_pool()) pool->set_metrics(nullptr);

  // ----------------------------- checks ----------------------------------
  // Payments whose output never reached the recipient failed; the only
  // accepted cause is the back-to-back fault: its partner confirmed.
  CallStats check_reads;
  CanisterCalls check_calls(canister, check_reads);
  bitcoin::Amount recipient_total = 0, fees = 0;
  std::uint64_t confirmed_reported = 0, failed = 0, attempted = 0;
  std::vector<bool> ok(payments.size());
  for (std::size_t i = 0; i < payments.size(); ++i) {
    const PaymentRecord& p = payments[i];
    auto balance = check_calls.get_balance(p.recipient, 0);
    result.check(balance.ok(), "recipient get_balance failed");
    recipient_total += balance.value;
    ok[i] = p.sent.ok() && balance.value == p.amount;
    if (p.sent.ok() && !ok[i]) {
      expect(check_balance("unconfirmed payment to " + p.recipient, 0, balance.value));
    }
    if (ok[i]) {
      fees += p.sent.fee;
      bitcoin::Transaction tx = bitcoin::Transaction::parse(p.sent.raw_tx);
      for (std::size_t in = 0; in < tx.inputs.size(); ++in) {
        result.check(bitcoin::verify_p2pkh_input(tx, in, wallets[p.wallet]->script_pubkey()),
                     "confirmed input signature does not verify");
      }
    }
  }
  for (std::size_t i = 0; i < payments.size(); ++i) {
    const PaymentRecord& p = payments[i];
    if (p.traced_pass != options.trace) continue;
    ++attempted;
    if (ok[i]) {
      ++confirmed_reported;
      continue;
    }
    ++failed;
    result.check(p.paired && ok[p.partner],
                 "payment to " + p.recipient + " failed outside the back-to-back case");
  }
  bitcoin::Amount wallet_total = 0;
  for (const auto& wallet : wallets) {
    auto balance = check_calls.get_balance(wallet->address(), 0);
    result.check(balance.ok(), "wallet get_balance failed");
    wallet_total += balance.value;
  }
  expect(check_conservation(funded, wallet_total, recipient_total, fees));
  expect(check_equal("per-call meter segments vs meter total",
                     metered + read_calls.metered() + check_calls.metered(),
                     canister.meter().count() - meter_base));

  // Upgrade of the live canister: checkpoint and restore. One write takes
  // ~20 ms, so the median of 15 keeps one slow write from setting it.
  std::vector<double> write_times;
  for (int rep = 0; rep < 15; ++rep) {
    util::Bytes checkpoint;
    {
      ScopedSpan span("persist.write_checkpoint");
      checkpoint = canister.write_checkpoint();
      write_times.push_back(span.stop());
    }
    tallies.checkpoint_bytes = checkpoint.size();
    ScopedSpan restore_span("persist.from_checkpoint");
    canister::BitcoinCanister restored =
        canister::BitcoinCanister::from_checkpoint(params, canister.config(), checkpoint);
    tallies.restore_s.push_back(restore_span.stop());
    expect(check_digest(canister.utxo_digest(), restored.utxo_digest()));
    if (rep == 0) {
      for (const auto& wallet : wallets) {
        expect(check_balance("restored " + wallet->address(),
                             canister.get_balance(wallet->address(), 0).value,
                             restored.get_balance(wallet->address(), 0).value));
      }
    }
  }

  result.attempted = attempted;
  result.failed = failed;
  auto& e2e = result.end_to_end;
  e2e["setup_s"] = {setup_s, "s"};
  e2e["peak_rss_mb"] = {peak_rss_mb(), "MB"};
  // Confirmed payments per host second of the reported pass's waves. On a
  // shared host wave times fall into a fast and a slow group as other
  // tenants come and go; the total moves with the slow share, where a
  // median jumps between the groups.
  double reported_wave_s = 0;
  for (std::size_t i = wave_seconds.size() - passes.rounds; i < wave_seconds.size(); ++i) {
    reported_wave_s += wave_seconds[i];
  }
  e2e["ops_per_s"] = {static_cast<double>(confirmed_reported) / reported_wave_s, "1/s"};
  e2e["checkpoint_write_s"] = {median(write_times), "s"};
  report_reads(result, reads, payment_times.percentile(50));

  if (options.trace) {
    tallies.write_s = write_times;
    tallies.add_canister(canister);
    report_layers(result, registry, threads, passes, reads, tallies);
    auto& m = result.per_layer;
    const double send_s = spans().total_s("wallet.send");
    m["wallet.send_s"] = {send_s, "s"};
    m["wallet.send_self_s"] = {send_s - send_transaction_s - sign_s, "s"};
    m["canister.send_transaction_s"] = {send_transaction_s, "s"};
    m["ic.sign_s"] = {sign_s, "s"};
  }
  return result;
}

}  // namespace perfbench
