#include "canister/utxo_index.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "bitcoin/script.h"
#include "crypto/sha256.h"

namespace icbtc::canister {

namespace {
/// Modelled deterministic execution rate (2e9 instructions/s, the §IV-B
/// convention shared with BitcoinCanister's endpoint spans).
constexpr double kInstructionsPerUs = 2000.0;
}  // namespace

std::size_t ScriptHash::operator()(const util::Bytes& b) const noexcept {
  // FNV-1a folded over 64-bit words with the length mixed into the seed, so
  // prefixes of different lengths cannot collide trivially. The zero-padded
  // tail load is safe because the length disambiguates it.
  constexpr std::uint64_t kPrime = 1099511628211ULL;
  std::uint64_t h = 14695981039346656037ULL ^ (static_cast<std::uint64_t>(b.size()) * kPrime);
  const std::uint8_t* p = b.data();
  std::size_t n = b.size();
  while (n >= 8) {
    std::uint64_t word;
    std::memcpy(&word, p, 8);
    h = (h ^ word) * kPrime;
    p += 8;
    n -= 8;
  }
  if (n > 0) {
    std::uint64_t tail = 0;
    std::memcpy(&tail, p, n);
    h = (h ^ tail) * kPrime;
  }
  // Finalizer: FNV's multiply mixes upward only; fold the high bits back so
  // the table's low-bit bucket selection sees the whole word.
  h ^= h >> 32;
  return h;
}

std::uint64_t UtxoIndex::entry_footprint(std::size_t script_len) {
  // Payload (outpoint 36 + value 8 + height 4 + script) plus the stable
  // B-tree node overhead (fixed-width keys, slack, versioning) of the
  // production canister's stable structures, stored in both the outpoint
  // index and the address index. Calibrated against the paper's Fig. 5:
  // ~103 GiB for ~170M UTXOs ≈ 600 bytes per UTXO.
  constexpr std::uint64_t kStableBTreeOverhead = 220;
  return 2 * (kStableBTreeOverhead + 36 + 8 + 4 + script_len);
}

UtxoIndex::UtxoIndex(InstructionCosts costs, persist::UtxoBackend backend)
    : costs_(costs), backend_(backend), store_(persist::make_shard_store(backend)) {}

UtxoIndex::UtxoIndex(UtxoIndex&& other) noexcept
    : costs_(other.costs_),
      backend_(other.backend_),
      store_(std::exchange(other.store_, persist::make_shard_store(other.backend_))),
      memory_bytes_(std::exchange(other.memory_bytes_, 0)),
      metrics_(other.metrics_),
      tracer_(other.tracer_) {}

UtxoIndex& UtxoIndex::operator=(UtxoIndex&& other) noexcept {
  if (this == &other) return *this;
  costs_ = other.costs_;
  backend_ = other.backend_;
  store_ = std::exchange(other.store_, persist::make_shard_store(other.backend_));
  memory_bytes_ = std::exchange(other.memory_bytes_, 0);
  metrics_ = other.metrics_;
  tracer_ = other.tracer_;
  return *this;
}

void UtxoIndex::set_metrics(obs::MetricsRegistry* registry) {
  if (registry == nullptr) {
    metrics_ = Metrics{};
    return;
  }
  metrics_.inserts = &registry->counter("utxo.inserts");
  metrics_.removes = &registry->counter("utxo.removes");
  metrics_.size = &registry->gauge("utxo.size");
  metrics_.memory = &registry->gauge("utxo.memory_bytes");
  metrics_.live_bytes = &registry->gauge("utxo.live_bytes");
  metrics_.resident_bytes = &registry->gauge("utxo.resident_bytes");
  update_size_gauges();
}

void UtxoIndex::update_size_gauges() {
  if (metrics_.size == nullptr) return;
  metrics_.size->set(static_cast<std::int64_t>(store_->size()));
  metrics_.memory->set(static_cast<std::int64_t>(memory_bytes_));
  metrics_.live_bytes->set(static_cast<std::int64_t>(store_->live_bytes()));
  metrics_.resident_bytes->set(static_cast<std::int64_t>(store_->resident_bytes()));
}

bool UtxoIndex::insert_entry(const bitcoin::OutPoint& outpoint, const bitcoin::TxOut& output,
                             int height) {
  if (!store_->insert(outpoint, output.value, height, output.script_pubkey)) {
    return false;  // duplicate (pre-BIP30); keep first
  }
  memory_bytes_ += entry_footprint(output.script_pubkey.size());
  return true;
}

bool UtxoIndex::erase_entry(const bitcoin::OutPoint& outpoint) {
  auto erased = store_->erase(outpoint);
  if (!erased) return false;  // unvalidated input; tolerated
  memory_bytes_ -= entry_footprint(erased->script_len);
  return true;
}

void UtxoIndex::insert(const bitcoin::OutPoint& outpoint, const bitcoin::TxOut& output,
                       int height, ic::InstructionMeter& meter) {
  if (bitcoin::is_op_return(output.script_pubkey)) {
    meter.charge(costs_.per_tx_overhead / 8);
    return;
  }
  meter.charge(costs_.output_insert);
  if (insert_entry(outpoint, output, height) && metrics_.inserts != nullptr) {
    metrics_.inserts->inc();
  }
}

void UtxoIndex::remove(const bitcoin::OutPoint& outpoint, ic::InstructionMeter& meter) {
  meter.charge(costs_.input_remove);
  if (erase_entry(outpoint) && metrics_.removes != nullptr) metrics_.removes->inc();
}

BlockApplyStats UtxoIndex::apply_block(const bitcoin::Block& block, int height,
                                       ic::InstructionMeter& meter) {
  BlockApplyStats stats;
  stats.transactions = block.transactions.size();
  std::uint64_t inserted = 0;
  std::uint64_t removed = 0;
  // A spend of an output created later in the same block misses (and is
  // charged) exactly like a spend of an unknown outpoint. OP_RETURN decode
  // counts as insert work, every issued remove as remove work.
  for (const auto& tx : block.transactions) {
    if (!tx.is_coinbase()) {
      for (const auto& in : tx.inputs) {
        ++stats.inputs_removed;
        stats.remove_instructions += costs_.input_remove;
        if (erase_entry(in.prevout)) ++removed;
      }
    }
    util::Hash256 txid = tx.txid();
    for (std::uint32_t i = 0; i < tx.outputs.size(); ++i) {
      const bitcoin::TxOut& out = tx.outputs[i];
      if (bitcoin::is_op_return(out.script_pubkey)) {
        stats.insert_instructions += costs_.per_tx_overhead / 8;
        continue;
      }
      ++stats.outputs_inserted;
      stats.insert_instructions += costs_.output_insert;
      if (insert_entry(bitcoin::OutPoint{txid, i}, out, height)) ++inserted;
    }
  }
  stats.instructions = stats.transactions * costs_.per_tx_overhead + stats.insert_instructions +
                       stats.remove_instructions;
  meter.charge(stats.instructions);

  if (metrics_.inserts != nullptr && inserted > 0) metrics_.inserts->inc(inserted);
  if (metrics_.removes != nullptr && removed > 0) metrics_.removes->inc(removed);
  update_size_gauges();

  if (tracer_ != nullptr) {
    obs::ScopedSpan span(tracer_, "utxo.apply_block", "canister");
    span.attr("height", static_cast<std::int64_t>(height));
    span.attr("ops", static_cast<std::uint64_t>(stats.inputs_removed + stats.outputs_inserted));
    span.attr("instructions", stats.instructions);
    span.end_at(span.start() + static_cast<obs::TraceTime>(
                                   static_cast<double>(stats.instructions) / kInstructionsPerUs));
  }
  return stats;
}

std::vector<StoredUtxo> UtxoIndex::utxos_for_script(const util::Bytes& script_pubkey,
                                                    ic::InstructionMeter& meter,
                                                    std::uint64_t per_read_cost) const {
  if (per_read_cost == 0) per_read_cost = costs_.stable_utxo_read;
  std::vector<StoredUtxo> out;
  out.reserve(store_->script_utxo_count(script_pubkey));
  auto walk = [&](const bitcoin::OutPoint& outpoint, bitcoin::Amount value, int height) {
    meter.charge(per_read_cost);
    out.push_back(StoredUtxo{outpoint, value, height});
  };
  store_->for_each_of_script(script_pubkey, persist::ShardStore::UtxoVisitor(walk));
  return out;
}

std::size_t UtxoIndex::utxos_for_script(const util::Bytes& script_pubkey,
                                        ic::InstructionMeter& meter, std::size_t offset,
                                        std::size_t limit, std::vector<StoredUtxo>& out,
                                        std::uint64_t per_read_cost) const {
  return utxos_for_script_paged(script_pubkey, meter, offset, limit, out,
                                [](const bitcoin::OutPoint&) { return true; }, per_read_cost);
}

bitcoin::Amount UtxoIndex::balance_of_script(const util::Bytes& script_pubkey,
                                             ic::InstructionMeter& meter) const {
  bitcoin::Amount total = 0;
  auto walk = [&](const bitcoin::OutPoint&, bitcoin::Amount value, int) {
    meter.charge(costs_.stable_balance_read);
    total += value;
  };
  store_->for_each_of_script(script_pubkey, persist::ShardStore::UtxoVisitor(walk));
  return total;
}

std::optional<StoredUtxo> UtxoIndex::find(const bitcoin::OutPoint& outpoint) const {
  auto found = store_->find(outpoint);
  if (!found) return std::nullopt;
  return StoredUtxo{outpoint, found->value, found->height};
}

std::optional<util::Bytes> UtxoIndex::script_of(const bitcoin::OutPoint& outpoint) const {
  util::Bytes script;
  if (!store_->script_of(outpoint, script)) return std::nullopt;
  return script;
}

void UtxoIndex::load_entry(const bitcoin::OutPoint& outpoint, bitcoin::Amount value, int height,
                           util::ByteSpan script) {
  if (store_->load(outpoint, value, height, script)) {
    memory_bytes_ += entry_footprint(script.size());
  }
}

void UtxoIndex::finish_load() {
  store_->finish_load();
  update_size_gauges();
}

util::Hash256 UtxoIndex::digest() const {
  // Gather and sort by outpoint: the serialization — and hence the digest —
  // is independent of backend, insertion order, and table iteration order.
  // The script spans point into the store and stay valid for the walk.
  struct Row {
    bitcoin::OutPoint outpoint;
    bitcoin::Amount value;
    int height;
    util::ByteSpan script;
  };
  std::vector<Row> rows;
  rows.reserve(store_->size());
  visit([&](const bitcoin::OutPoint& outpoint, bitcoin::Amount value, int height,
            util::ByteSpan script) { rows.push_back(Row{outpoint, value, height, script}); });
  std::sort(rows.begin(), rows.end(),
            [](const Row& a, const Row& b) { return a.outpoint < b.outpoint; });

  util::ByteWriter w;
  w.u64le(rows.size());
  for (const Row& row : rows) {
    w.bytes(row.outpoint.txid.span());
    w.u32le(row.outpoint.vout);
    w.i64le(row.value);
    w.i32le(row.height);
    w.var_bytes(row.script);
  }
  return crypto::sha256d(w.data());
}

}  // namespace icbtc::canister
