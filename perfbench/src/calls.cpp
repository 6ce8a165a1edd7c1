#include <algorithm>
#include <cstdio>
#include <filesystem>

#include "workloads.h"

namespace perfbench {

using icbtc::canister::GetUtxosRequest;
using icbtc::canister::GetUtxosResponse;
using icbtc::canister::Outcome;
using icbtc::canister::Status;

Outcome<icbtc::bitcoin::Amount> CanisterCalls::get_balance(const std::string& address,
                                                           int min_confirmations) {
  icbtc::ic::InstructionMeter::Segment segment(canister_->meter());
  ScopedSpan span("canister.get_balance");
  auto outcome = canister_->get_balance(address, min_confirmations);
  stats_->get_balance.add_s(span.stop());
  stats_->any.add_s(span.stop());
  metered_ += segment.sample();
  return outcome;
}

Outcome<std::vector<GetUtxosResponse>> CanisterCalls::get_utxos_all(const std::string& address,
                                                                     int min_confirmations) {
  GetUtxosRequest request;
  request.address = address;
  request.min_confirmations = min_confirmations;
  std::vector<GetUtxosResponse> pages;
  ++stats_->page_walks;
  for (;;) {
    icbtc::ic::InstructionMeter::Segment segment(canister_->meter());
    ScopedSpan span("canister.get_utxos");
    auto outcome = canister_->get_utxos(request);
    stats_->get_utxos.add_s(span.stop());
    stats_->any.add_s(span.stop());
    metered_ += segment.sample();
    if (!outcome.ok()) return {outcome.status, std::move(pages)};
    bool more = outcome.value.next_page.has_value();
    request.page = outcome.value.next_page;
    pages.push_back(std::move(outcome.value));
    if (!more) break;
  }
  return {Status::kOk, std::move(pages)};
}

RoundCarried timed_round(icbtc::canister::BitcoinCanister& canister,
                         icbtc::adapter::BitcoinAdapter& adapter, std::int64_t now_unix,
                         std::uint64_t& metered) {
  RoundCarried carried;
  ScopedSpan round("ic.round");
  icbtc::adapter::AdapterRequest request;
  {
    icbtc::ic::InstructionMeter::Segment segment(canister.meter());
    ScopedSpan span("canister.make_request");
    request = canister.make_request();
    metered += segment.sample();
  }
  icbtc::adapter::AdapterResponse response;
  {
    ScopedSpan span("adapter.handle_request");
    response = adapter.handle_request(request);
  }
  carried.blocks = response.blocks.size();
  for (const auto& [block, header] : response.blocks) {
    carried.transactions += block.transactions.size();
  }
  {
    icbtc::ic::InstructionMeter::Segment segment(canister.meter());
    ScopedSpan span("canister.process_response");
    canister.process_response(response, now_unix);
    metered += segment.sample();
  }
  carried.seconds = round.stop();
  return carried;
}

void LayerTallies::add(const RoundCarried& round) {
  if (round.blocks == 0) return;
  blocks += round.blocks;
  ++responses;
  transactions += round.transactions;
}

void LayerTallies::add_canister(const icbtc::canister::BitcoinCanister& canister) {
  stable_blocks += canister.ingest_log().size();
  for (const auto& stats : canister.ingest_log()) instructions += stats.instructions;
  resident_bytes = static_cast<double>(canister.stable_utxos().resident_bytes());
  utxos = static_cast<double>(canister.utxo_count());
}

int considered_height(int tip, int anchor, int min_confirmations) {
  if (min_confirmations <= 0) return tip;
  return std::max(anchor, tip - min_confirmations + 1);
}

void report_reads(RunResult& result, CallStats& stats, double op_p50_us) {
  auto& m = result.end_to_end;
  m["get_utxos_p50_us"] = {stats.get_utxos.percentile(50), "us"};
  m["get_balance_p50_us"] = {stats.get_balance.percentile(50), "us"};
  // Too unsteady between runs on a shared host to carry a bound (see
  // README.md): reported with the per-layer figures of traced runs.
  auto& layer = result.per_layer;
  layer["canister.get_utxos_p99_us"] = {stats.get_utxos.percentile(99), "us"};
  layer["canister.get_balance_p99_us"] = {stats.get_balance.percentile(99), "us"};
  layer["workload.op_p50_us"] = {op_p50_us, "us"};
}

double registry_value(const icbtc::obs::MetricsRegistry& registry, const std::string& name) {
  if (auto it = registry.counters().find(name); it != registry.counters().end()) {
    return static_cast<double>(it->second.value());
  }
  if (auto it = registry.gauges().find(name); it != registry.gauges().end()) {
    return static_cast<double>(it->second.value());
  }
  return 0;
}

void report_layers(RunResult& result, const icbtc::obs::MetricsRegistry& registry,
                   std::size_t pool_threads, const Passes& passes, const CallStats& reads,
                   const LayerTallies& tallies) {
  auto& m = result.per_layer;
  const SpanLog& log = spans();
  auto count = [&](const char* metric, const char* name, const char* unit) {
    m[metric] = {registry_value(registry, name), unit};
  };
  auto ratio = [](double a, double b) { return b > 0 ? a / b : 0; };
  m["btcnet.run_s"] = {log.self_s("btcnet.run"), "s"};
  count("net.messages", "net.messages", "count");
  count("net.bytes", "net.bytes", "bytes");
  count("mempool.rbf_replaced", "mempool.rbf_replaced", "count");

  m["adapter.handle_request_s"] = {log.total_s("adapter.handle_request"), "s"};
  count("adapter.requests", "adapter.requests_handled", "count");
  m["adapter.blocks_per_response"] = {
      ratio(static_cast<double>(tallies.blocks), static_cast<double>(tallies.responses)),
      "blocks"};
  count("adapter.block_request_retries", "adapter.block_request_retries", "count");

  count("ic.rounds", "ic.rounds", "count");
  count("ic.signatures", "tecdsa.sign.requests", "count");
  count("tecdsa.pool.exhaustion_stalls", "tecdsa.pool.exhaustion_stalls", "count");

  m["canister.make_request_s"] = {log.total_s("canister.make_request"), "s"};
  m["canister.process_response_s"] = {log.total_s("canister.process_response"), "s"};
  count("canister.blocks_ingested", "canister.blocks_ingested", "count");
  m["canister.txs_ingested"] = {static_cast<double>(tallies.transactions), "count"};
  count("canister.delta.builds", "canister.delta.builds", "count");
  m["canister.get_utxos_s"] = {log.total_s("canister.get_utxos"), "s"};
  m["canister.get_balance_s"] = {log.total_s("canister.get_balance"), "s"};
  m["canister.pages_per_read"] = {
      ratio(static_cast<double>(reads.get_utxos.size()), static_cast<double>(reads.page_walks)),
      "pages"};
  double hits = registry_value(registry, "canister.delta.memo_hits");
  double misses = registry_value(registry, "canister.delta.memo_misses");
  m["canister.delta.memo_hit_ratio"] = {ratio(hits, hits + misses), "ratio"};
  m["canister.instructions_per_block"] = {
      ratio(static_cast<double>(tallies.instructions), static_cast<double>(tallies.stable_blocks)),
      "instructions"};

  m["persist.checkpoint_bytes"] = {static_cast<double>(tallies.checkpoint_bytes), "bytes"};
  m["persist.write_checkpoint_s"] = {tallies.write_s.empty() ? 0 : median(tallies.write_s), "s"};
  m["persist.from_checkpoint_s"] = {tallies.restore_s.empty() ? 0 : median(tallies.restore_s),
                                    "s"};
  m["utxo.resident_bytes_per_utxo"] = {ratio(tallies.resident_bytes, tallies.utxos), "bytes"};

  count("pool.tasks_executed", "pool.tasks_executed", "count");
  m["pool.threads"] = {static_cast<double>(pool_threads), "count"};

  m["bench.unattributed_s"] = {log.unattributed_s(passes.from_ns, passes.to_ns), "s"};
  m["bench.trace_overhead_s"] = {passes.wall_s - passes.untraced_wall_s, "s"};
}

void write_trace(const Options& options) {
  std::error_code ec;
  std::filesystem::create_directories(options.trace_dir, ec);
  std::string path = options.trace_dir + "/" + options.workload + "-seed" +
                     std::to_string(options.seed) + ".json";
  if (spans().write_json(path)) {
    std::fprintf(stderr, "trace: %zu spans written to %s\n", spans().spans().size(), path.c_str());
  } else {
    std::fprintf(stderr, "trace: cannot write %s\n", path.c_str());
  }
}

}  // namespace perfbench
