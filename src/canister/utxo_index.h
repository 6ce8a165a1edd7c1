// The Bitcoin canister's stable UTXO store: the full UTXO set up to the
// anchor height, indexed both by outpoint (for spend removal) and by
// scriptPubKey (for get_utxos/get_balance), with instruction metering that
// models the canister's measured per-operation costs (Fig. 6). It is one
// store, mutated in place: the IC executes a canister's messages one at a
// time (DESIGN.md §11).
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "bitcoin/block.h"
#include "bitcoin/transaction.h"
#include "ic/metering.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "persist/shard_store.h"

namespace icbtc::canister {

/// Instruction costs, calibrated against the paper's measurements: block
/// ingestion averages ~21.6e9 instructions with roughly half spent on output
/// insertions and half on input removals (Fig. 6), i.e. a few million
/// instructions per UTXO mutation of the large stable store. Reads of stable
/// UTXOs are cheaper but still dominate reads of unstable blocks (the
/// bifurcation in Fig. 7 right).
struct InstructionCosts {
  std::uint64_t output_insert = 4'200'000;
  std::uint64_t input_remove = 4'600'000;
  std::uint64_t stable_utxo_read = 310'000;
  /// Balance reads only accumulate values (no outpoint materialization or
  /// response encoding), hence far cheaper per UTXO — the ~23x cost gap
  /// between get_balance and get_utxos in §IV-B.
  std::uint64_t stable_balance_read = 55'000;
  std::uint64_t unstable_utxo_read = 45'000;
  std::uint64_t unstable_block_scan = 220'000;  // per unstable block visited
  std::uint64_t request_overhead = 5'500'000;   // decode/encode, certification
  std::uint64_t per_tx_overhead = 90'000;       // per transaction in a block
};

struct StoredUtxo {
  bitcoin::OutPoint outpoint;
  bitcoin::Amount value = 0;
  int height = 0;

  bool operator==(const StoredUtxo&) const = default;
};

/// Hash functor for scriptPubKey byte strings, shared by the stable store's
/// script index and the unstable delta index. Folds eight bytes per step
/// (FNV-style multiply over 64-bit words) instead of the byte-at-a-time loop
/// it replaces — same interface, same lookup behavior, ~8x fewer multiplies
/// on the `by_script_` hot path. Process-local only: values depend on host
/// endianness and must never be serialized.
struct ScriptHash {
  std::size_t operator()(const util::Bytes& b) const noexcept;
};

/// Per-block apply statistics (drives IngestStats and the Fig. 6 benches).
struct BlockApplyStats {
  std::size_t transactions = 0;
  std::size_t inputs_removed = 0;    // remove ops issued (all non-coinbase inputs)
  std::size_t outputs_inserted = 0;  // non-OP_RETURN outputs
  std::uint64_t instructions = 0;    // total charged to the meter by this block
  std::uint64_t insert_instructions = 0;
  std::uint64_t remove_instructions = 0;
};

class UtxoIndex {
 public:
  UtxoIndex() : UtxoIndex(InstructionCosts{}) {}
  /// `backend` picks the backing store. The flat arena is the production
  /// layout; the node-map backend is kept as the differential oracle and
  /// bench baseline. Responses, metering, and digests are backend-invariant.
  explicit UtxoIndex(InstructionCosts costs,
                     persist::UtxoBackend backend = persist::UtxoBackend::kArena);

  /// Moves leave the source a valid, empty store of the same backend.
  UtxoIndex(UtxoIndex&& other) noexcept;
  UtxoIndex& operator=(UtxoIndex&& other) noexcept;

  const InstructionCosts& costs() const { return costs_; }
  persist::UtxoBackend backend() const { return backend_; }

  /// Inserts an output. OP_RETURN outputs are unspendable and skipped (but
  /// still charged a nominal decode cost). Point mutations are setup/restore
  /// helpers with exactly apply_block's per-operation charges.
  void insert(const bitcoin::OutPoint& outpoint, const bitcoin::TxOut& output, int height,
              ic::InstructionMeter& meter);

  /// Removes a spent output; missing outpoints are tolerated (the canister
  /// does not validate transactions, §III-C) but still charged.
  void remove(const bitcoin::OutPoint& outpoint, ic::InstructionMeter& meter);

  /// Applies every transaction of a block in block order: per transaction,
  /// the per-tx overhead, then its inputs removed, then its outputs
  /// inserted. The IC executes one message at a time, so the store is
  /// mutated in place.
  BlockApplyStats apply_block(const bitcoin::Block& block, int height,
                              ic::InstructionMeter& meter);

  /// All UTXOs paying `script_pubkey`, sorted by height descending then by
  /// outpoint (the get_utxos response order). Charges `per_read_cost` per
  /// returned entry (0 = the default stable_utxo_read).
  std::vector<StoredUtxo> utxos_for_script(const util::Bytes& script_pubkey,
                                           ic::InstructionMeter& meter,
                                           std::uint64_t per_read_cost = 0) const;

  /// Pagination-aware variant: walks the script's UTXO list (canonical order)
  /// exactly once, appends the entries with rank [offset, offset + limit)
  /// among those passing `keep(outpoint)` to `out`, and charges
  /// `per_read_cost` only for appended entries — a page meters only what it
  /// returns. Returns the total number of entries passing `keep`.
  template <typename Keep>
  std::size_t utxos_for_script_paged(const util::Bytes& script_pubkey,
                                     ic::InstructionMeter& meter, std::size_t offset,
                                     std::size_t limit, std::vector<StoredUtxo>& out, Keep&& keep,
                                     std::uint64_t per_read_cost = 0) const {
    if (per_read_cost == 0) per_read_cost = costs_.stable_utxo_read;
    std::size_t kept = 0;
    auto walk = [&](const bitcoin::OutPoint& outpoint, bitcoin::Amount value, int height) {
      if (!keep(outpoint)) return;
      if (kept >= offset && kept - offset < limit) {
        meter.charge(per_read_cost);
        out.push_back(StoredUtxo{outpoint, value, height});
      }
      ++kept;
    };
    store_->for_each_of_script(script_pubkey, persist::ShardStore::UtxoVisitor(walk));
    return kept;
  }

  /// Keep-all offset/limit overload.
  std::size_t utxos_for_script(const util::Bytes& script_pubkey, ic::InstructionMeter& meter,
                               std::size_t offset, std::size_t limit,
                               std::vector<StoredUtxo>& out,
                               std::uint64_t per_read_cost = 0) const;

  /// Sum of values paying `script_pubkey`.
  bitcoin::Amount balance_of_script(const util::Bytes& script_pubkey,
                                    ic::InstructionMeter& meter) const;

  /// Looks up a single UTXO by outpoint (used to resolve unstable spends of
  /// stable outputs).
  std::optional<StoredUtxo> find(const bitcoin::OutPoint& outpoint) const;
  /// The script paying a stored outpoint (copied out of the store), or
  /// nullopt.
  std::optional<util::Bytes> script_of(const bitcoin::OutPoint& outpoint) const;

  /// Visits every entry as fn(outpoint, value, height, script_span); used by
  /// state serialization. Order is the backend's, deterministic for a fixed
  /// mutation history but backend-specific — use digest() for
  /// cross-backend comparison. The script span is only valid for the
  /// duration of the callback.
  template <typename Fn>
  void visit(Fn&& fn) const {
    auto walk = [&](const bitcoin::OutPoint& outpoint, bitcoin::Amount value, int height,
                    util::ByteSpan script) { fn(outpoint, value, height, script); };
    store_->visit(persist::ShardStore::EntryVisitor(walk));
  }

  /// Bulk-restore path: inserts one entry without charging the meter. The
  /// index must be freshly constructed; call finish_load() once after the
  /// last entry, before any other call.
  void load_entry(const bitcoin::OutPoint& outpoint, bitcoin::Amount value, int height,
                  util::ByteSpan script);
  /// Seals a load_entry() sequence and refreshes the gauges.
  void finish_load();

  std::size_t size() const { return store_->size(); }
  /// Modelled stable-memory footprint in bytes (drives Fig. 5): outpoint +
  /// value + height + script, plus both index overheads.
  std::uint64_t memory_bytes() const { return memory_bytes_; }
  /// Exact host bytes attributable to live entries (backend accounting, not
  /// the Fig. 5 model).
  std::uint64_t live_bytes() const { return store_->live_bytes(); }
  /// Exact host capacity the backing store holds.
  std::uint64_t resident_bytes() const { return store_->resident_bytes(); }
  std::size_t distinct_scripts() const { return store_->distinct_scripts(); }

  /// Attaches a metrics registry (nullptr detaches): insert/remove rates and
  /// the size, modelled-memory, live-byte and resident-byte gauges under
  /// `utxo.*`. Gauges refresh once per apply_block / finish_load.
  void set_metrics(obs::MetricsRegistry* registry);

  /// Attaches a tracer (nullptr detaches): apply_block emits a
  /// "utxo.apply_block" span whose end time is the block's metered
  /// instructions at the canister's 2000/µs rate.
  void set_tracer(obs::Tracer* tracer) { tracer_ = tracer; }

  /// Deterministic digest of the entire UTXO set: sha256 over the
  /// outpoint-sorted serialization of every entry (outpoint, value, height,
  /// script). Independent of insertion order, hash-map iteration order, and
  /// backend.
  util::Hash256 digest() const;

 private:
  /// Applies one insert/remove to the store (uncharged), returning whether
  /// the store changed.
  bool insert_entry(const bitcoin::OutPoint& outpoint, const bitcoin::TxOut& output, int height);
  bool erase_entry(const bitcoin::OutPoint& outpoint);

  void update_size_gauges();

  static std::uint64_t entry_footprint(std::size_t script_len);

  InstructionCosts costs_;
  persist::UtxoBackend backend_;
  std::unique_ptr<persist::ShardStore> store_;
  std::uint64_t memory_bytes_ = 0;  // modelled Fig. 5 footprint

  struct Metrics {
    obs::Counter* inserts = nullptr;
    obs::Counter* removes = nullptr;
    obs::Gauge* size = nullptr;
    obs::Gauge* memory = nullptr;
    obs::Gauge* live_bytes = nullptr;
    obs::Gauge* resident_bytes = nullptr;
  };
  Metrics metrics_;
  obs::Tracer* tracer_ = nullptr;
};

}  // namespace icbtc::canister
