// Stable-memory persistence bench: the flat UTXO arena vs the node-map
// backend at scale, and the checkpoint/restore subsystem's wall-clock cost.
//
// Section 1 loads 1M+ synthetic UTXOs (quick mode: ~150k) with a realistic
// script-reuse profile into a UtxoIndex per backend and reports resident
// bytes/UTXO and ingest throughput. Gate: the map backend must hold the same
// set in >= 2x the arena's resident bytes — the subsystem's headline claim.
//
// Section 2 grows a real canister to the target UTXO count, times
// write_checkpoint / from_checkpoint, restores on the other backend (digest
// + meter equality gated), and writes the checkpoint to
// two files whose byte identity is gated here and `cmp`-ed again by CI.
//
// Writes BENCH_checkpoint.json (override with ICBTC_BENCH_OUT) plus
// BENCH_checkpoint_a.ckpt / BENCH_checkpoint_b.ckpt next to it.
// ICBTC_BENCH_QUICK=1 shrinks the workload for CI. Exits nonzero when any
// gate fails.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bitcoin/script.h"
#include "canister/bitcoin_canister.h"
#include "persist/checkpoint.h"
#include "util/rng.h"
#include "workload.h"

namespace {

using namespace icbtc;
using namespace icbtc::bench;

using bench::quick_mode;

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

struct LoadResult {
  std::string backend;
  double seconds = 0;
  double utxos_per_s = 0;
  std::uint64_t live_bytes = 0;
  std::uint64_t resident_bytes = 0;
  double bytes_per_utxo = 0;
};

/// Loads `n` synthetic UTXOs (25-byte p2pkh scripts, a quarter as many
/// distinct addresses as UTXOs — realistic reuse) through the bulk-restore
/// path and reports the backend's exact byte accounting.
LoadResult load_synthetic(persist::UtxoBackend backend, std::size_t n) {
  canister::UtxoIndex index(canister::InstructionCosts{}, backend);

  // Pre-generate the workload so the timer sees only the index.
  std::size_t n_scripts = n / 4;
  std::vector<util::Bytes> scripts;
  scripts.reserve(n_scripts);
  util::Rng rng(20260807);
  for (std::size_t i = 0; i < n_scripts; ++i) {
    util::Hash160 h;
    auto bytes = rng.next_bytes(20);
    std::copy(bytes.begin(), bytes.end(), h.data.begin());
    scripts.push_back(bitcoin::p2pkh_script(h));
  }

  auto start = std::chrono::steady_clock::now();
  bitcoin::OutPoint outpoint;
  for (std::size_t i = 0; i < n; ++i) {
    // Deterministic unique outpoints without hashing: counter-filled txid.
    std::memcpy(outpoint.txid.data.data(), &i, sizeof(i));
    outpoint.txid.data[31] = static_cast<std::uint8_t>(i >> 56 | 1);
    outpoint.vout = static_cast<std::uint32_t>(i & 3);
    index.load_entry(outpoint, static_cast<bitcoin::Amount>(546 + (i % 100000)),
                     static_cast<int>(i / 2300), scripts[i % n_scripts]);
  }
  index.finish_load();

  LoadResult r;
  r.backend = persist::to_string(backend);
  r.seconds = seconds_since(start);
  r.utxos_per_s = static_cast<double>(n) / r.seconds;
  r.live_bytes = index.live_bytes();
  r.resident_bytes = index.resident_bytes();
  r.bytes_per_utxo = static_cast<double>(r.resident_bytes) / static_cast<double>(n);
  std::printf("%-6s load %9zu utxos  %7.3f s  %10.0f utxos/s  %6.1f resident B/utxo\n",
              r.backend.c_str(), n, r.seconds, r.utxos_per_s, r.bytes_per_utxo);
  return r;
}

int run() {
  const bool quick = quick_mode();
  const std::size_t n_utxos = quick ? 150'000 : 1'100'000;
  bool ok = true;

  std::printf("--- flat arena vs node-map backend, %zu synthetic UTXOs ---\n", n_utxos);
  LoadResult arena = load_synthetic(persist::UtxoBackend::kArena, n_utxos);
  LoadResult map = load_synthetic(persist::UtxoBackend::kMap, n_utxos);
  double residency_ratio =
      static_cast<double>(map.resident_bytes) / static_cast<double>(arena.resident_bytes);
  std::printf("map/arena resident ratio: %.2fx (gate: >= 2.0x)\n", residency_ratio);
  if (residency_ratio < 2.0) {
    std::fprintf(stderr, "FAIL: residency ratio %.2fx below the 2x gate\n", residency_ratio);
    ok = false;
  }

  // ---- Section 2: canister-level checkpoint / restore -----------------
  std::printf("--- canister checkpoint/restore ---\n");
  const auto& params = bitcoin::ChainParams::regtest();
  canister::CanisterConfig config = canister::CanisterConfig::for_params(params);
  canister::BitcoinCanister canister(params, config);
  ChainFeeder feeder(canister, /*seed=*/20250807);
  BlockShape shape;
  shape.transactions = 25;
  shape.inputs_per_tx = 1;
  shape.outputs_per_tx = 28;
  shape.jitter = 0.0;
  auto grow_start = std::chrono::steady_clock::now();
  while (canister.utxo_count() < n_utxos) feeder.step(shape);
  double grow_s = seconds_since(grow_start);
  std::printf("grew canister to %zu utxos over %d blocks in %.2f s\n", canister.utxo_count(),
              feeder.height(), grow_s);

  auto write_start = std::chrono::steady_clock::now();
  util::Bytes checkpoint = canister.write_checkpoint();
  double write_s = seconds_since(write_start);

  canister::CanisterConfig restore_config = config;
  restore_config.utxo_backend = persist::UtxoBackend::kMap;
  auto restore_start = std::chrono::steady_clock::now();
  auto restored = canister::BitcoinCanister::from_checkpoint(params, restore_config, checkpoint);
  double restore_s = seconds_since(restore_start);
  std::printf("checkpoint %.1f MiB  write %.3f s  restore(map) %.3f s\n",
              static_cast<double>(checkpoint.size()) / (1024.0 * 1024.0), write_s, restore_s);

  if (restored.utxo_digest() != canister.utxo_digest()) {
    std::fprintf(stderr, "FAIL: restored UTXO digest differs from writer\n");
    ok = false;
  }
  if (restored.meter().count() != canister.meter().count()) {
    std::fprintf(stderr, "FAIL: restored meter total differs from writer\n");
    ok = false;
  }

  // Byte-identity gate: two checkpoint files of the same state must be
  // identical (CI `cmp`s the same pair again).
  canister.checkpoint("BENCH_checkpoint_a.ckpt");
  canister.checkpoint("BENCH_checkpoint_b.ckpt");
  if (persist::read_checkpoint_file("BENCH_checkpoint_a.ckpt") !=
      persist::read_checkpoint_file("BENCH_checkpoint_b.ckpt")) {
    std::fprintf(stderr, "FAIL: repeated checkpoints are not byte-identical\n");
    ok = false;
  }

  const char* out_path = std::getenv("ICBTC_BENCH_OUT");
  if (out_path == nullptr || *out_path == '\0') out_path = "BENCH_checkpoint.json";
  std::FILE* out = std::fopen(out_path, "w");
  if (out == nullptr) {
    std::fprintf(stderr, "FAIL: cannot write %s\n", out_path);
    return 1;
  }
  std::fprintf(out, "{\n");
  std::fprintf(out, "  \"workload\": {\"synthetic_utxos\": %zu, \"quick\": %s},\n", n_utxos,
               quick ? "true" : "false");
  std::fprintf(out, "  \"backends\": [\n");
  for (const LoadResult* r : {&arena, &map}) {
    std::fprintf(out,
                 "    {\"name\": \"%s\", \"load_seconds\": %.6f, \"utxos_per_s\": %.0f, "
                 "\"live_bytes\": %llu, \"resident_bytes\": %llu, \"bytes_per_utxo\": %.2f}%s\n",
                 r->backend.c_str(), r->seconds, r->utxos_per_s,
                 static_cast<unsigned long long>(r->live_bytes),
                 static_cast<unsigned long long>(r->resident_bytes), r->bytes_per_utxo,
                 r == &arena ? "," : "");
  }
  std::fprintf(out, "  ],\n");
  std::fprintf(out, "  \"residency_ratio_map_over_arena\": %.3f,\n", residency_ratio);
  std::fprintf(out,
               "  \"checkpoint\": {\"canister_utxos\": %zu, \"bytes\": %zu, "
               "\"write_seconds\": %.6f, \"restore_seconds\": %.6f, "
               "\"restore_backend\": \"map\", "
               "\"digest_match\": %s, \"meter_match\": %s},\n",
               canister.utxo_count(), checkpoint.size(), write_s, restore_s,
               restored.utxo_digest() == canister.utxo_digest() ? "true" : "false",
               restored.meter().count() == canister.meter().count() ? "true" : "false");
  std::fprintf(out, "  \"gates_pass\": %s\n", ok ? "true" : "false");
  std::fprintf(out, "}\n");
  std::fclose(out);
  std::printf("wrote %s\n", out_path);
  return ok ? 0 : 1;
}

}  // namespace

int main() { return run(); }
