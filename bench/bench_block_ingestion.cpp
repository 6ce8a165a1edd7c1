// Figure 6: instructions executed for block ingestion — plus the hashing
// pipeline wall-clock benchmark.
//
// Figure 6 left panel: instructions per ingested block over a six-month
// stream, averaging ~21.6e9 on mainnet. Right panel: the split between
// output insertions and input removals (roughly half each). Block contents
// are scaled down 1/10 from mainnet shape (200 inputs / 230 outputs per
// block) and instruction counts scaled back up; the instruction *model* per
// UTXO operation is the paper-calibrated cost in canister::InstructionCosts.
//
// The hashing pipeline benchmark generates one serialized block stream and
// replays the identical bytes through four canister configurations:
//   baseline    txid cache off, portable SHA-256, no thread pool
//   cached      txid cache on,  portable SHA-256, no thread pool
//   dispatched  txid cache on,  best SHA-256 (SHA-NI/SSE4), no thread pool
//   parallel    txid cache on,  best SHA-256, shared thread pool
// It writes BENCH_ingestion.json (override with ICBTC_BENCH_OUT) with ns/tx,
// blocks/s and the meter total per mode, and exits nonzero if any mode's
// meter total, UTXO-set digest or metrics snapshot diverges from the scalar
// result. ICBTC_BENCH_QUICK=1 shrinks the workload and skips Figure 6 / the google-benchmark loops for
// CI smoke runs. A short traced replay additionally writes
// BENCH_ingestion_chrome.json (ICBTC_CHROME_TRACE_OUT) — per-block
// Algorithm 2 ingestion spans viewable in chrome://tracing.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "canister/utxo_index.h"
#include "crypto/sha256.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "obs/trace_export.h"
#include "parallel/thread_pool.h"
#include "workload.h"

namespace {

using namespace icbtc;
using namespace icbtc::bench;

constexpr int kIngestScale = 10;

using bench::quick_mode;

void run_figure6() {
  const auto& params = bitcoin::ChainParams::regtest();  // δ=6: fast stabilization
  auto config = canister::CanisterConfig::for_params(params);
  canister::BitcoinCanister canister(params, config);
  ChainFeeder feeder(canister, /*seed=*/66);

  // Mainnet shape / 10: ~220 inputs, ~250 outputs per block.
  BlockShape shape;
  shape.transactions = 90;
  shape.inputs_per_tx = 3;
  shape.outputs_per_tx = 3;
  shape.jitter = 0.35;

  // Warm up the spendable pool, then stream "six months" of blocks (scaled
  // count: 1300 blocks sampled from the ~26k real ones).
  feeder.run(40, shape);
  const int kBlocks = 1300;
  feeder.run(kBlocks, shape);

  const auto& log = canister.ingest_log();
  std::printf("\n--- Figure 6 (left): instructions per ingested block ---\n");
  std::printf("(scaled x%d back to mainnet block shape)\n", kIngestScale);
  std::printf("%-8s %-10s %-14s %-10s %-10s\n", "block", "height", "instructions",
              "inputs", "outputs");
  double total = 0;
  double total_insert = 0;
  double total_remove = 0;
  std::size_t count = 0;
  for (std::size_t i = 0; i < log.size(); ++i) {
    const auto& stats = log[i];
    double scaled = static_cast<double>(stats.instructions) * kIngestScale;
    total += scaled;
    total_insert += static_cast<double>(stats.insert_instructions) * kIngestScale;
    total_remove += static_cast<double>(stats.remove_instructions) * kIngestScale;
    ++count;
    if (i % 100 == 0) {
      std::printf("%-8zu %-10d %-14.2fB %-10zu %-10zu\n", i, stats.height, scaled / 1e9,
                  stats.inputs_removed * kIngestScale, stats.outputs_inserted * kIngestScale);
    }
  }
  std::printf("\naverage: %.1fB instructions/block   (paper: ~21.6B)\n",
              total / static_cast<double>(count) / 1e9);

  std::printf("\n--- Figure 6 (right): split of ingestion instructions ---\n");
  std::printf("output insertions: %.1fB avg/block (%.0f%% of mutation work)\n",
              total_insert / static_cast<double>(count) / 1e9,
              100.0 * total_insert / (total_insert + total_remove));
  std::printf("input removals:    %.1fB avg/block (%.0f%% of mutation work)\n",
              total_remove / static_cast<double>(count) / 1e9,
              100.0 * total_remove / (total_insert + total_remove));
  std::printf("(paper: roughly half of the ~20B instructions each)\n\n");
}

// ---------------------------------------------------------------------------
// Hashing pipeline benchmark
// ---------------------------------------------------------------------------

struct ModeConfig {
  const char* name;
  bool txid_cache;
  crypto::Sha256Impl impl;
  std::size_t pool_threads;  // 0 = serial
};

struct ModeResult {
  std::string name;
  double seconds = 0;
  double ns_per_tx = 0;
  double blocks_per_s = 0;
  std::uint64_t instructions = 0;  // canister meter total after the replay
  std::string utxo_digest;
  std::string metrics_json;
};

/// Replays the serialized block stream through a freshly configured
/// canister, returning the best-of-`reps` wall-clock result plus the final
/// meter total, UTXO-set digest and metrics snapshot.
ModeResult replay(const ModeConfig& mode, const std::vector<util::Bytes>& stream,
                  std::size_t total_txs, int reps) {
  ModeResult result;
  result.name = mode.name;
  bitcoin::Transaction::set_txid_cache_enabled(mode.txid_cache);
  if (!crypto::set_sha256_impl(mode.impl)) {
    std::fprintf(stderr, "note: %s unsupported on this CPU, using portable\n",
                 crypto::to_string(mode.impl));
    crypto::set_sha256_impl(crypto::Sha256Impl::kPortable);
  }
  parallel::set_shared_pool(mode.pool_threads);

  double best = 0;
  for (int rep = 0; rep < reps; ++rep) {
    const auto& params = bitcoin::ChainParams::regtest();
    auto config = canister::CanisterConfig::for_params(params);
    // Scan mode: this comparison isolates hashing work, so skip the delta
    // builds (benched separately in bench_request_latency's modes section).
    config.unstable_query_mode = canister::UnstableQueryMode::kScan;
    canister::BitcoinCanister canister(params, config);
    obs::MetricsRegistry registry;
    canister.set_metrics(&registry);

    auto start = std::chrono::steady_clock::now();
    for (const auto& raw : stream) {
      bitcoin::Block block = bitcoin::Block::parse(raw);
      adapter::AdapterResponse response;
      bitcoin::BlockHeader header = block.header;
      response.blocks.emplace_back(std::move(block), header);
      canister.process_response(response, static_cast<std::int64_t>(header.time) + 10000);
    }
    auto stop = std::chrono::steady_clock::now();
    double seconds = std::chrono::duration<double>(stop - start).count();
    if (rep == 0 || seconds < best) best = seconds;
    if (rep == reps - 1) {
      result.instructions = canister.meter().count();
      result.utxo_digest = canister.utxo_digest().hex();
      result.metrics_json = obs::to_json(registry);
    }
  }
  result.seconds = best;
  result.ns_per_tx = best * 1e9 / static_cast<double>(total_txs);
  result.blocks_per_s = static_cast<double>(stream.size()) / best;

  // Restore defaults for whatever runs next.
  bitcoin::Transaction::set_txid_cache_enabled(true);
  crypto::set_sha256_impl(crypto::sha256_best_impl());
  parallel::set_shared_pool(0);
  return result;
}

/// Replays a prefix of the block stream under a tracer whose clock follows
/// the instruction meter (2000 instructions/µs) and writes a Chrome trace of
/// the ingestion spans — the per-block Algorithm 2 view of Fig. 6. Runs with
/// the shared pool installed, as the `parallel` mode does.
bool write_ingestion_trace(const std::vector<util::Bytes>& stream) {
  const std::size_t n_blocks = std::min<std::size_t>(stream.size(), 40);

  obs::TracerConfig tracer_config;
  tracer_config.event_capacity = 256;
  obs::Tracer tracer(tracer_config);

  const auto& params = bitcoin::ChainParams::regtest();
  canister::BitcoinCanister canister(params, canister::CanisterConfig::for_params(params));
  ic::InstructionMeter& meter = canister.meter();
  tracer.set_clock([&meter] { return static_cast<obs::TraceTime>(meter.count() / 2000); });
  canister.set_tracer(&tracer);
  parallel::set_shared_pool(4);

  for (std::size_t i = 0; i < n_blocks; ++i) {
    bitcoin::Block block = bitcoin::Block::parse(stream[i]);
    adapter::AdapterResponse response;
    bitcoin::BlockHeader header = block.header;
    response.blocks.emplace_back(std::move(block), header);
    canister.process_response(response, static_cast<std::int64_t>(header.time) + 10000);
  }
  parallel::set_shared_pool(0);
  canister.set_tracer(nullptr);

  const char* path = std::getenv("ICBTC_CHROME_TRACE_OUT");
  if (path == nullptr || *path == '\0') path = "BENCH_ingestion_chrome.json";
  std::string body = obs::to_chrome_trace(tracer);
  std::FILE* out = std::fopen(path, "w");
  if (out == nullptr) {
    std::fprintf(stderr, "FAIL: cannot write %s\n", path);
    return false;
  }
  std::fwrite(body.data(), 1, body.size(), out);
  std::fclose(out);
  std::printf("wrote %s (chrome trace, %zu blocks)\n", path, n_blocks);
  return true;
}

bool run_hashing_pipeline_bench() {
  const bool quick = quick_mode();
  const int warmup = quick ? 10 : 40;
  const int blocks = quick ? 60 : 300;
  const int reps = quick ? 2 : 3;

  BlockShape shape;
  shape.transactions = quick ? 40 : 90;
  shape.inputs_per_tx = 3;
  shape.outputs_per_tx = 3;
  shape.jitter = 0.35;

  // Generate the stream once; every mode replays the identical bytes.
  std::vector<util::Bytes> stream;
  {
    const auto& params = bitcoin::ChainParams::regtest();
    canister::BitcoinCanister generator(params, canister::CanisterConfig::for_params(params));
    ChainFeeder feeder(generator, /*seed=*/68);
    feeder.run(warmup, shape);
    feeder.set_block_tap(&stream);
    feeder.run(blocks, shape);
  }
  std::size_t total_txs = 0;
  for (const auto& raw : stream) total_txs += bitcoin::Block::parse(raw).transactions.size();

  const std::vector<ModeConfig> modes = {
      {"baseline", false, crypto::Sha256Impl::kPortable, 0},
      {"cached", true, crypto::Sha256Impl::kPortable, 0},
      {"dispatched", true, crypto::sha256_best_impl(), 0},
      {"parallel", true, crypto::sha256_best_impl(), 4},
  };
  std::vector<ModeResult> results;
  for (const auto& mode : modes) {
    results.push_back(replay(mode, stream, total_txs, reps));
    const auto& r = results.back();
    std::printf("%-11s %8.3f s   %10.0f ns/tx   %8.1f blocks/s\n", r.name.c_str(), r.seconds,
                r.ns_per_tx, r.blocks_per_s);
  }

  // Correctness gate: every mode must land on the scalar meter total, UTXO
  // set and metrics snapshot, byte for byte.
  bool ok = true;
  for (const auto& r : results) {
    if (r.instructions != results[0].instructions) {
      std::fprintf(stderr, "FAIL: %s metered %llu instructions != baseline %llu\n",
                   r.name.c_str(), static_cast<unsigned long long>(r.instructions),
                   static_cast<unsigned long long>(results[0].instructions));
      ok = false;
    }
    if (r.utxo_digest != results[0].utxo_digest) {
      std::fprintf(stderr, "FAIL: %s UTXO digest %s != baseline %s\n", r.name.c_str(),
                   r.utxo_digest.c_str(), results[0].utxo_digest.c_str());
      ok = false;
    }
    if (r.metrics_json != results[0].metrics_json) {
      std::fprintf(stderr, "FAIL: %s metrics snapshot differs from baseline\n", r.name.c_str());
      ok = false;
    }
  }

  double speedup_cached = results[0].seconds / results[1].seconds;
  double speedup_dispatched = results[0].seconds / results[2].seconds;
  double speedup_parallel = results[0].seconds / results[3].seconds;
  std::printf("speedup vs baseline: cached %.2fx, dispatched %.2fx, parallel %.2fx\n",
              speedup_cached, speedup_dispatched, speedup_parallel);

  const char* out_path = std::getenv("ICBTC_BENCH_OUT");
  if (out_path == nullptr) out_path = "BENCH_ingestion.json";
  std::FILE* out = std::fopen(out_path, "w");
  if (out == nullptr) {
    std::fprintf(stderr, "FAIL: cannot write %s\n", out_path);
    return false;
  }
  std::fprintf(out, "{\n");
  std::fprintf(out, "  \"workload\": {\"blocks\": %zu, \"transactions\": %zu, \"quick\": %s},\n",
               stream.size(), total_txs, quick ? "true" : "false");
  std::fprintf(out, "  \"sha256_best_impl\": \"%s\",\n",
               crypto::to_string(crypto::sha256_best_impl()));
  std::fprintf(out, "  \"modes\": [\n");
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& r = results[i];
    std::fprintf(out,
                 "    {\"name\": \"%s\", \"seconds\": %.6f, \"ns_per_tx\": %.1f, "
                 "\"blocks_per_s\": %.2f, \"instructions\": %llu, \"utxo_digest\": \"%s\", "
                 "\"metrics_digest\": \"%s\"}%s\n",
                 r.name.c_str(), r.seconds, r.ns_per_tx, r.blocks_per_s,
                 static_cast<unsigned long long>(r.instructions), r.utxo_digest.c_str(),
                 crypto::sha256d(util::ByteSpan(
                                     reinterpret_cast<const std::uint8_t*>(r.metrics_json.data()),
                                     r.metrics_json.size()))
                     .hex()
                     .c_str(),
                 i + 1 < results.size() ? "," : "");
  }
  std::fprintf(out, "  ],\n");
  std::fprintf(out, "  \"speedup_vs_baseline\": {\"cached\": %.3f, \"dispatched\": %.3f, "
               "\"parallel\": %.3f},\n",
               speedup_cached, speedup_dispatched, speedup_parallel);
  std::fprintf(out, "  \"digests_match\": %s\n", ok ? "true" : "false");
  std::fprintf(out, "}\n");
  std::fclose(out);
  std::printf("wrote %s\n", out_path);

  ok &= write_ingestion_trace(stream);
  return ok;
}

void BM_IngestBlock(benchmark::State& state) {
  const auto& params = bitcoin::ChainParams::regtest();
  canister::BitcoinCanister canister(params, canister::CanisterConfig::for_params(params));
  ChainFeeder feeder(canister, 67);
  BlockShape shape;
  shape.transactions = static_cast<std::size_t>(state.range(0));
  shape.inputs_per_tx = 2;
  shape.outputs_per_tx = 3;
  feeder.run(20, shape);
  std::size_t before = canister.ingest_log().size();
  std::uint64_t instructions_before = canister.meter().count();
  for (auto _ : state) {
    feeder.step(shape);
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["stable_blocks"] =
      static_cast<double>(canister.ingest_log().size() - before);
  state.counters["instr/iter"] = benchmark::Counter(
      static_cast<double>(canister.meter().count() - instructions_before),
      benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_IngestBlock)->Arg(8)->Arg(80)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  bool ok = run_hashing_pipeline_bench();
  if (!quick_mode()) {
    run_figure6();
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
  }
  return ok ? 0 : 1;
}
