// The three workloads and the timed wrappers they share around calls into
// the Bitcoin canister.
#pragma once

#include <memory>

#include "adapter/adapter.h"
#include "canister/bitcoin_canister.h"
#include "common.h"
#include "ledger.h"
#include "obs/metrics.h"

namespace perfbench {

RunResult run_sync(const Options& options);
RunResult run_query(const Options& options);
RunResult run_wallet(const Options& options);

/// How a run spends its measured time. Untraced, rounds repeat until
/// `seconds` have passed. Traced, rounds repeat untraced for half of it,
/// then the same number of rounds run again with spans and metrics on;
/// the wall-time difference of the two passes is the tracing overhead.
struct Passes {
  std::uint64_t rounds = 0;     // rounds of the reported pass
  double wall_s = 0;            // wall time of the reported pass
  double untraced_wall_s = 0;   // traced mode: wall time of the untraced pass
  std::int64_t from_ns = 0;     // bounds of the reported pass
  std::int64_t to_ns = 0;
};

/// `round(traced)` runs one whole round; `start_traced()` attaches the
/// program's metrics registry before the traced pass.
template <typename Round, typename StartTraced>
Passes run_passes(const Options& options, Round&& round, StartTraced&& start_traced) {
  Passes p;
  double budget = options.trace ? options.seconds / 2 : options.seconds;
  std::int64_t start = now_ns();
  do {
    round(false);
    ++p.rounds;
  } while (static_cast<double>(now_ns() - start) * 1e-9 < budget);
  p.from_ns = start;
  p.to_ns = now_ns();
  p.wall_s = static_cast<double>(p.to_ns - p.from_ns) * 1e-9;
  if (!options.trace) return p;

  p.untraced_wall_s = p.wall_s;
  start_traced();
  spans().set_enabled(true);
  p.from_ns = now_ns();
  for (std::uint64_t i = 0; i < p.rounds; ++i) round(true);
  p.to_ns = now_ns();
  spans().set_enabled(false);
  p.wall_s = static_cast<double>(p.to_ns - p.from_ns) * 1e-9;
  return p;
}

/// Host-time and instruction bookkeeping of canister calls made from the
/// benchmark's own code.
struct CallStats {
  Series get_utxos;    // one get_utxos call (one page), µs
  Series get_balance;  // one get_balance call, µs
  Series any;          // every call of either kind, µs
  std::uint64_t page_walks = 0;

  std::uint64_t calls() const { return get_utxos.size() + get_balance.size(); }
  double call_seconds() const { return (get_utxos.sum_us() + get_balance.sum_us()) * 1e-6; }
};

/// Timed wrappers: each call is one span (traced mode), one latency sample
/// and one meter segment.
class CanisterCalls {
 public:
  CanisterCalls(icbtc::canister::BitcoinCanister& canister, CallStats& stats)
      : canister_(&canister), stats_(&stats) {}

  /// Instructions charged inside this wrapper's calls (the per-call meter
  /// segments).
  std::uint64_t metered() const { return metered_; }

  icbtc::canister::Outcome<icbtc::bitcoin::Amount> get_balance(const std::string& address,
                                                              int min_confirmations);
  /// Follows next_page to the end; each page is one timed get_utxos call.
  icbtc::canister::Outcome<std::vector<icbtc::canister::GetUtxosResponse>> get_utxos_all(
      const std::string& address, int min_confirmations);

 private:
  icbtc::canister::BitcoinCanister* canister_;
  CallStats* stats_;
  std::uint64_t metered_ = 0;
};

/// What one Algorithm 1/2 round carried, and its host time.
struct RoundCarried {
  std::size_t blocks = 0;
  std::uint64_t transactions = 0;
  double seconds = 0;
};

/// One Algorithm 1/2 round as BitcoinIntegration::on_round runs it for an
/// honest block maker: make_request -> `adapter.handle_request` ->
/// process_response at `now_unix`. The round and each call are spans; the
/// two canister calls are meter segments added to `metered`.
RoundCarried timed_round(icbtc::canister::BitcoinCanister& canister,
                         icbtc::adapter::BitcoinAdapter& adapter, std::int64_t now_unix,
                         std::uint64_t& metered);

/// Per-layer tallies every workload reports the same way (traced pass).
struct LayerTallies {
  std::uint64_t blocks = 0;        // blocks in adapter responses that carried any
  std::uint64_t responses = 0;     // adapter responses that carried blocks
  std::uint64_t transactions = 0;  // transactions in those responses
  std::uint64_t stable_blocks = 0;
  std::uint64_t instructions = 0;  // modelled, over `stable_blocks` ingest-log entries
  std::uint64_t checkpoint_bytes = 0;
  std::vector<double> write_s, restore_s;
  double resident_bytes = 0;  // UtxoIndex::resident_bytes() of the last canister seen
  double utxos = 0;

  void add(const RoundCarried& round);
  /// The canister's ingest log and stable UTXO set.
  void add_canister(const icbtc::canister::BitcoinCanister& canister);
};

/// Expected considered height of a query with `min_confirmations` on a
/// single linear chain with constant difficulty (what every workload
/// generates): the tip for 0, else the highest block with that many
/// confirmations, never below the anchor.
int considered_height(int tip, int anchor, int min_confirmations);

/// Fills the read latencies every workload reports from its call stats, and
/// the workload's main-operation p50 (`op_p50_us`).
void report_reads(RunResult& result, CallStats& stats, double op_p50_us);

/// Fills the per-layer metrics from the span log, the program's metrics
/// registry, the traced pass's reads and the tallies (traced runs).
void report_layers(RunResult& result, const icbtc::obs::MetricsRegistry& registry,
                   std::size_t pool_threads, const Passes& passes, const CallStats& reads,
                   const LayerTallies& tallies);

/// Writes the span log to `<trace_dir>/<workload>-seed<seed>.json`.
void write_trace(const Options& options);

/// Reads a counter or gauge of the registry (0 when absent).
double registry_value(const icbtc::obs::MetricsRegistry& registry, const std::string& name);

}  // namespace perfbench
