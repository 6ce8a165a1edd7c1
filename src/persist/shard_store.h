// Backend interface for the stable UTXO store, plus its two
// implementations: the node-map layout the store launched with (kept as the
// differential oracle and the bench baseline) and the flat arena that
// replaces it on the production path.
//
// The contract every backend must honour — it is what makes backends
// interchangeable without disturbing a single response byte or metered
// instruction:
//   * insert() is first-write-wins per outpoint (pre-BIP30 duplicates).
//   * for_each_of_script() yields canonical get_utxos order:
//     height descending, then outpoint ascending.
//   * visit() order is deterministic for a fixed operation history (but
//     backend-specific; cross-backend comparison goes through the sorted
//     digest / checkpoint serialization).
//   * live_bytes()/resident_bytes() are exact accounting, not estimates:
//     live = bytes attributable to live entries, resident = host capacity
//     actually held. These feed the `utxo.live_bytes` /
//     `utxo.resident_bytes` gauges.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <unordered_map>

#include "bitcoin/amount.h"
#include "bitcoin/transaction.h"
#include "persist/flat_utxo_arena.h"
#include "util/bytes.h"
#include "util/function_ref.h"

namespace icbtc::persist {

/// Which backend a UtxoIndex allocates.
enum class UtxoBackend {
  kArena,  // FlatUtxoArena: flat POD entries + interned script bytes
  kMap,    // node-based maps (the pre-arena layout; differential oracle)
};

const char* to_string(UtxoBackend backend);

class ShardStore {
 public:
  using Found = FlatUtxoArena::Found;
  using Erased = FlatUtxoArena::Erased;
  using UtxoVisitor = FlatUtxoArena::UtxoVisitor;
  using EntryVisitor = FlatUtxoArena::EntryVisitor;

  virtual ~ShardStore() = default;

  virtual bool insert(const bitcoin::OutPoint& outpoint, bitcoin::Amount value, int height,
                      util::ByteSpan script) = 0;
  virtual std::optional<Erased> erase(const bitcoin::OutPoint& outpoint) = 0;
  virtual bool contains(const bitcoin::OutPoint& outpoint) const = 0;
  virtual std::optional<Found> find(const bitcoin::OutPoint& outpoint) const = 0;
  virtual bool script_of(const bitcoin::OutPoint& outpoint, util::Bytes& out) const = 0;
  virtual void for_each_of_script(util::ByteSpan script, const UtxoVisitor& fn) const = 0;
  virtual std::size_t script_utxo_count(util::ByteSpan script) const = 0;
  virtual void visit(const EntryVisitor& fn) const = 0;
  virtual std::size_t size() const = 0;
  virtual std::size_t distinct_scripts() const = 0;
  virtual std::uint64_t live_bytes() const = 0;
  virtual std::uint64_t resident_bytes() const = 0;
  /// Bulk-restore path: insert() semantics (first write wins), but a
  /// backend may defer ordering work to finish_load(). Between the first
  /// load() and finish_load() only further load() calls are allowed.
  virtual bool load(const bitcoin::OutPoint& outpoint, bitcoin::Amount value, int height,
                    util::ByteSpan script) {
    return insert(outpoint, value, height, script);
  }
  /// Seals a load() sequence and releases slack capacity, so a restored
  /// store starts memory-tight. Never changes live state.
  virtual void finish_load() {}
};

std::unique_ptr<ShardStore> make_shard_store(UtxoBackend backend);

/// Flat-arena backend: a thin forwarding shell over FlatUtxoArena.
class ArenaShardStore final : public ShardStore {
 public:
  bool insert(const bitcoin::OutPoint& outpoint, bitcoin::Amount value, int height,
              util::ByteSpan script) override {
    return arena_.insert(outpoint, value, height, script);
  }
  std::optional<Erased> erase(const bitcoin::OutPoint& outpoint) override {
    return arena_.erase(outpoint);
  }
  bool contains(const bitcoin::OutPoint& outpoint) const override {
    return arena_.contains(outpoint);
  }
  std::optional<Found> find(const bitcoin::OutPoint& outpoint) const override {
    return arena_.find(outpoint);
  }
  bool script_of(const bitcoin::OutPoint& outpoint, util::Bytes& out) const override {
    return arena_.script_of(outpoint, out);
  }
  void for_each_of_script(util::ByteSpan script, const UtxoVisitor& fn) const override {
    arena_.for_each_of_script(script, fn);
  }
  std::size_t script_utxo_count(util::ByteSpan script) const override {
    return arena_.script_utxo_count(script);
  }
  void visit(const EntryVisitor& fn) const override { arena_.visit(fn); }
  std::size_t size() const override { return arena_.size(); }
  std::size_t distinct_scripts() const override { return arena_.distinct_scripts(); }
  std::uint64_t live_bytes() const override { return arena_.live_bytes(); }
  std::uint64_t resident_bytes() const override { return arena_.resident_bytes(); }
  bool load(const bitcoin::OutPoint& outpoint, bitcoin::Amount value, int height,
            util::ByteSpan script) override {
    return arena_.load(outpoint, value, height, script);
  }
  void finish_load() override { arena_.finish_load(); }

  const FlatUtxoArena& arena() const { return arena_; }
  FlatUtxoArena& arena() { return arena_; }

 private:
  FlatUtxoArena arena_;
};

/// Node-map backend: outpoint-keyed unordered_map plus a per-script ordered
/// map — the layout UtxoIndex used before the arena. Its byte gauges model
/// node and allocation overheads from the actual container shapes (bucket
/// counts, byte-vector capacities), so the arena comparison in
/// bench_checkpoint is against accounted numbers, not guesses.
class MapShardStore final : public ShardStore {
 public:
  bool insert(const bitcoin::OutPoint& outpoint, bitcoin::Amount value, int height,
              util::ByteSpan script) override;
  std::optional<Erased> erase(const bitcoin::OutPoint& outpoint) override;
  bool contains(const bitcoin::OutPoint& outpoint) const override {
    return by_outpoint_.contains(outpoint);
  }
  std::optional<Found> find(const bitcoin::OutPoint& outpoint) const override;
  bool script_of(const bitcoin::OutPoint& outpoint, util::Bytes& out) const override;
  void for_each_of_script(util::ByteSpan script, const UtxoVisitor& fn) const override;
  std::size_t script_utxo_count(util::ByteSpan script) const override;
  void visit(const EntryVisitor& fn) const override;
  std::size_t size() const override { return by_outpoint_.size(); }
  std::size_t distinct_scripts() const override { return by_script_.size(); }
  std::uint64_t live_bytes() const override;
  std::uint64_t resident_bytes() const override;

 private:
  struct Entry {
    util::Bytes script;
    bitcoin::Amount value = 0;
    int height = 0;
  };
  /// Script-chain key, ordered canonically (height desc, outpoint asc).
  struct Key {
    int neg_height;
    bitcoin::OutPoint outpoint;
    auto operator<=>(const Key&) const = default;
  };
  struct ScriptBytesHash {
    std::size_t operator()(const util::Bytes& b) const noexcept;
  };

  std::unordered_map<bitcoin::OutPoint, Entry> by_outpoint_;
  std::unordered_map<util::Bytes, std::map<Key, bitcoin::Amount>, ScriptBytesHash> by_script_;
};

}  // namespace icbtc::persist
