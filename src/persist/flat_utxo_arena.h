// Flat open-addressing UTXO arena: the compact backing store for the stable
// UTXO set (the stable-memory layout the production canister keeps in
// `StableBTreeMap`s, flattened the way pastel's `uint256.h`-era flat sets
// store fixed-width 32-byte keys).
//
// Layout: live UTXOs are fixed-width 64-byte POD entries in one contiguous
// vector; scriptPubKey bytes live in an append-only byte arena and are
// interned (every UTXO paying the same script shares one copy).
// Two power-of-two open-addressing tables (linear probing, tombstones) index
// the entries: outpoint → entry and script bytes → script record. Entries
// of one script form a doubly-linked chain threaded through the entry
// vector, kept sorted by (height desc, outpoint asc) — the canonical
// get_utxos response order — so reads need no per-node allocations at all.
//
// Versus the node-map layout this replaces (unordered_map nodes + heap
// TxOut byte vectors + a std::map per script), the arena cuts host bytes
// per UTXO by ~3-5x and makes residency *accountable*: live_bytes() is the
// exact byte cost of the live entries, resident_bytes() the exact capacity
// the backend holds, so the `utxo.*_bytes` gauges report real numbers
// instead of node-overhead estimates.
//
// Tombstone compaction: erases mark slots/entries dead; when dead entries
// or dead script bytes cross deterministic thresholds the arena compacts
// in place (entry order preserved, tables rebuilt). All triggers are
// counts, never timing, so two arenas fed the same operation sequence are
// identical — including visit() order — which the checkpoint determinism
// tests pin.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <optional>
#include <vector>

#include "bitcoin/amount.h"
#include "bitcoin/transaction.h"
#include "util/bytes.h"
#include "util/function_ref.h"

namespace icbtc::persist {

class FlatUtxoArena {
 public:
  /// Sentinel index: no entry / no record / empty slot.
  static constexpr std::uint32_t kNil = 0xffffffffu;

  struct Found {
    bitcoin::Amount value = 0;
    int height = 0;
  };
  struct Erased {
    bitcoin::Amount value = 0;
    int height = 0;
    std::uint32_t script_len = 0;
  };

  /// fn(outpoint, value, height) over one script's live UTXOs in canonical
  /// order (height desc, outpoint asc).
  using UtxoVisitor = util::FunctionRef<void(const bitcoin::OutPoint&, bitcoin::Amount, int)>;
  /// fn(outpoint, value, height, script) over every live entry, in entry
  /// index order — deterministic for a fixed operation history.
  using EntryVisitor =
      util::FunctionRef<void(const bitcoin::OutPoint&, bitcoin::Amount, int, util::ByteSpan)>;

  FlatUtxoArena();

  /// Inserts a UTXO; false if the outpoint already exists (first write wins,
  /// the pre-BIP30 duplicate rule the stable store tolerates).
  bool insert(const bitcoin::OutPoint& outpoint, bitcoin::Amount value, int height,
              util::ByteSpan script);

  /// Bulk-load path: insert() without linking the entry into its script's
  /// chain. finish_load() then sorts each script's loaded entries into
  /// canonical order and merges them into the chain in one pass, so a bulk
  /// load costs O(n log n) whatever order the entries arrive in (insert()
  /// walks the chain from its head, quadratic for a checkpoint restore's
  /// outpoint order). Only further load() calls may come before
  /// finish_load().
  bool load(const bitcoin::OutPoint& outpoint, bitcoin::Amount value, int height,
            util::ByteSpan script);
  /// Links every loaded entry, then compacts so the arena ends memory-tight.
  void finish_load();

  /// Removes a UTXO, returning what was erased (script_len lets the caller
  /// maintain its modelled-footprint accounting); nullopt if absent.
  std::optional<Erased> erase(const bitcoin::OutPoint& outpoint);

  bool contains(const bitcoin::OutPoint& outpoint) const {
    return slot_index(outpoint) != kNil;
  }
  std::optional<Found> find(const bitcoin::OutPoint& outpoint) const;
  /// Copies the script of a live outpoint into `out`; false if absent.
  bool script_of(const bitcoin::OutPoint& outpoint, util::Bytes& out) const;

  void for_each_of_script(util::ByteSpan script, const UtxoVisitor& fn) const;
  /// Live UTXO count for one script (0 if the script is unknown).
  std::size_t script_utxo_count(util::ByteSpan script) const;
  void visit(const EntryVisitor& fn) const;

  std::size_t size() const { return live_entries_; }
  std::size_t distinct_scripts() const { return live_scripts_; }

  /// Exact bytes attributable to live data: live entries (64 B each), their
  /// interned script bytes, and one 4-byte slot per live entry and script.
  std::uint64_t live_bytes() const;
  /// Exact host capacity the arena holds (entry vector, script arena, both
  /// slot tables, script records — capacities, not sizes).
  std::uint64_t resident_bytes() const;

  /// Drops dead entries and dead script bytes, preserving live entry order,
  /// and rebuilds both tables. Runs automatically off deterministic
  /// dead-count thresholds; public for tests and explicit quiescing.
  void compact();
  std::uint64_t compactions() const { return compactions_; }

 private:
  /// 64-byte POD row. `live` doubles as padding; dead rows keep `next` as
  /// the free-list link.
  struct Entry {
    std::array<std::uint8_t, 32> txid;
    std::int64_t value = 0;  // before vout: keeps the i64 8-aligned, no padding
    std::uint32_t vout = 0;
    std::int32_t height = 0;
    std::uint32_t script_id = kNil;
    std::uint32_t next = kNil;  // chain link (live) / free-list link (dead)
    std::uint32_t prev = kNil;
    std::uint32_t live = 0;
  };
  static_assert(sizeof(Entry) == 64, "fixed-width POD entry");

  struct ScriptRec {
    std::uint64_t offset = 0;  // into script_bytes_
    std::uint32_t length = 0;
    std::uint32_t head = kNil;   // first chain entry
    std::uint32_t count = 0;     // live entries of the script; 0 when dead
    std::uint32_t next_free = kNil;
  };

  static std::uint64_t hash_outpoint(const bitcoin::OutPoint& outpoint);
  static std::uint64_t hash_script(util::ByteSpan script);

  util::ByteSpan script_span(const ScriptRec& rec) const {
    return util::ByteSpan(script_bytes_.data() + rec.offset, rec.length);
  }
  bitcoin::OutPoint outpoint_of(const Entry& e) const {
    bitcoin::OutPoint op;
    std::copy(e.txid.begin(), e.txid.end(), op.txid.data.begin());
    op.vout = e.vout;
    return op;
  }

  /// Index of the outpoint's slot in outpoint_slots_, or kNil.
  std::uint32_t slot_index(const bitcoin::OutPoint& outpoint) const;
  std::uint32_t script_rec_index(util::ByteSpan script) const;

  void insert_outpoint_slot(const bitcoin::OutPoint& outpoint, std::uint32_t entry_idx);
  void insert_script_slot(util::ByteSpan script, std::uint32_t rec_idx);
  void maybe_grow_outpoint_table();
  void maybe_grow_script_table();
  void rehash_outpoint_table(std::size_t capacity);
  void rehash_script_table(std::size_t capacity);
  void maybe_compact();

  /// Interns the script and stores the entry, unlinked; kNil on duplicate.
  std::uint32_t add_entry(const bitcoin::OutPoint& outpoint, bitcoin::Amount value, int height,
                          util::ByteSpan script);
  /// Links `idx` into its script's chain at the canonical position, walking
  /// from `after` (kNil = the head). Entries linked in canonical order can
  /// pass the previous one as `after`.
  void chain_link(ScriptRec& rec, std::uint32_t idx, std::uint32_t after = kNil);
  void chain_unlink(ScriptRec& rec, std::uint32_t idx);
  /// True if entry a precedes entry b in canonical order.
  bool chain_before(const Entry& a, const Entry& b) const;

  std::vector<Entry> entries_;
  std::vector<std::uint32_t> unlinked_;  // load()ed entries awaiting finish_load()
  std::uint32_t free_entries_ = kNil;  // LIFO free list through Entry::next
  std::size_t live_entries_ = 0;
  std::size_t dead_entries_ = 0;

  std::vector<std::uint8_t> script_bytes_;
  std::uint64_t dead_script_bytes_ = 0;
  std::vector<ScriptRec> script_recs_;
  std::uint32_t free_recs_ = kNil;
  std::size_t live_scripts_ = 0;

  /// Slot value: kEmpty, kTombstone, or an index into entries_/script_recs_.
  static constexpr std::uint32_t kEmpty = 0xffffffffu;
  static constexpr std::uint32_t kTombstone = 0xfffffffeu;
  std::vector<std::uint32_t> outpoint_slots_;
  std::size_t outpoint_tombstones_ = 0;
  std::vector<std::uint32_t> script_slots_;
  std::size_t script_tombstones_ = 0;

  std::uint64_t compactions_ = 0;
};

}  // namespace icbtc::persist
