#include "reconcile/compact_block.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>
#include <unordered_set>

namespace icbtc::reconcile {

namespace {

constexpr std::size_t kMinSketchCells = 8;
/// Wire size of one 48-bit short id: caps the reserve for an untrusted count.
constexpr std::size_t kShortIdBytes = 6;

/// Folds the 64-bit block salt into the 32-bit Iblt placement salt.
std::uint32_t sketch_salt(std::uint64_t salt) {
  return static_cast<std::uint32_t>(salt) ^ static_cast<std::uint32_t>(salt >> 32);
}

}  // namespace

std::size_t sketch_cells(std::size_t diff_slices) {
  return std::max(kMinSketchCells, diff_slices + diff_slices / 2 + 4);
}

void DivergenceEstimator::observe(std::size_t diff_slices) {
  // Track recent rounds tightly: divergence is bursty, and a half-life of
  // one observation means a drained link's sketches shrink back to the floor
  // within a round or two instead of paying for a remembered burst. Decay
  // is faster than growth because the cost asymmetry differs: an oversized
  // sketch is pure waste on every subsequent round, while an undersized one
  // costs a single (capped) bisection.
  constexpr double kAlphaUp = 0.5;
  constexpr double kAlphaDown = 0.7;
  double obs = static_cast<double>(diff_slices);
  ewma_ += (obs < ewma_ ? kAlphaDown : kAlphaUp) * (obs - ewma_);
}

std::size_t DivergenceEstimator::estimate() const {
  // Mean plus ~3 sigma (Poisson-ish arrivals) so the sketch survives
  // somewhat-worse-than-average divergence without a fallback round trip.
  double est = ewma_ + 3.0 * std::sqrt(std::max(ewma_, 1.0));
  return static_cast<std::size_t>(std::ceil(est));
}

std::uint64_t CompactBlockCodec::block_salt(const util::Hash256& block_hash) {
  std::uint64_t salt = 0;
  for (int i = 7; i >= 0; --i) {
    salt = (salt << 8) | block_hash.data[static_cast<std::size_t>(i)];
  }
  return salt;
}

CompactBlock CompactBlockCodec::encode(const bitcoin::Block& block,
                                       std::size_t expected_diff_slices) {
  CompactBlock cb;
  cb.header = block.header;
  cb.salt = block_salt(block.hash());
  cb.coinbase = block.transactions.empty() ? bitcoin::Transaction{} : block.transactions[0];
  cb.sketch = Iblt(sketch_cells(expected_diff_slices), sketch_salt(cb.salt));
  cb.short_ids.reserve(block.transactions.size() > 0 ? block.transactions.size() - 1 : 0);
  for (std::size_t i = 1; i < block.transactions.size(); ++i) {
    const bitcoin::Transaction& tx = block.transactions[i];
    cb.short_ids.push_back(short_tx_id(tx.txid(), cb.salt));
    for (const TxSlice& s : slice_tx(tx, cb.salt)) cb.sketch.insert(s);
  }
  return cb;
}

CompactBlockCodec::Decode CompactBlockCodec::decode(
    const CompactBlock& cb, const std::vector<const bitcoin::Transaction*>& pool) {
  Decode out;
  out.txs.resize(cb.short_ids.size());

  // Index the pool by salted short id; ambiguous ids (pool-side collisions)
  // are unusable — the sketch or the fallback must supply those positions.
  std::unordered_map<std::uint64_t, const bitcoin::Transaction*> by_id;
  std::unordered_set<std::uint64_t> ambiguous;
  for (const bitcoin::Transaction* tx : pool) {
    std::uint64_t id = short_tx_id(tx->txid(), cb.salt);
    auto [it, inserted] = by_id.emplace(id, tx);
    if (!inserted && it->second->txid() != tx->txid()) ambiguous.insert(id);
  }
  for (std::uint64_t id : ambiguous) by_id.erase(id);

  // Duplicate ids inside the block's own list are equally unresolvable from
  // the pool (which of the two positions would the match belong to?).
  std::unordered_map<std::uint64_t, std::size_t> id_uses;
  for (std::uint64_t id : cb.short_ids) ++id_uses[id];

  // Subtract the matched part of the mempool from the sketch: what remains is
  // (block-only slices) minus (wrongly matched slices, on collisions).
  Iblt mine(cb.sketch.cell_count(), cb.sketch.salt());
  for (std::size_t i = 0; i < cb.short_ids.size(); ++i) {
    std::uint64_t id = cb.short_ids[i];
    if (id_uses[id] > 1) continue;
    auto it = by_id.find(id);
    if (it == by_id.end()) continue;
    out.txs[i] = *it->second;
    ++out.pool_hits;
    for (const TxSlice& s : slice_tx(*it->second, cb.salt)) mine.insert(s);
  }

  Iblt residual = cb.sketch;
  residual.subtract(mine);
  PeelResult peeled = residual.peel();
  out.peel_complete = peeled.complete;

  // `removed` slices are transactions we matched but the sender did not put
  // in the block: a short-id collision picked the wrong pool transaction.
  // Drop those matches; the true bytes are on the `added` side.
  std::unordered_set<std::uint64_t> mismatched;
  for (const TxSlice& s : peeled.removed) mismatched.insert(s.short_id());

  std::map<std::uint64_t, bitcoin::Transaction> recovered = reassemble_all(peeled.added);
  for (std::size_t i = 0; i < cb.short_ids.size(); ++i) {
    std::uint64_t id = cb.short_ids[i];
    if (out.txs[i].has_value() && mismatched.contains(id)) {
      out.txs[i].reset();
      --out.pool_hits;
    }
    if (!out.txs[i].has_value()) {
      auto it = recovered.find(id);
      if (it != recovered.end()) {
        out.txs[i] = it->second;
        ++out.sketch_decoded;
      }
    }
    if (!out.txs[i].has_value()) out.missing.push_back(static_cast<std::uint32_t>(i));
  }

  out.diff_slices = peeled.added.size() + peeled.removed.size();
  if (!peeled.complete) {
    // The sketch was undersized; report at least its capacity so the
    // estimator grows past it instead of converging below the truth.
    out.diff_slices = std::max(out.diff_slices, cb.sketch.cell_count());
  }
  return out;
}

bool CompactBlockCodec::fill(Decode& decode, const std::vector<bitcoin::Transaction>& txs) {
  if (txs.size() != decode.missing.size()) return false;
  for (std::size_t i = 0; i < txs.size(); ++i) {
    decode.txs[decode.missing[i]] = txs[i];
  }
  decode.missing.clear();
  return true;
}

std::optional<bitcoin::Block> CompactBlockCodec::assemble(const CompactBlock& cb,
                                                          const Decode& decode) {
  if (!decode.complete()) return std::nullopt;
  bitcoin::Block block;
  block.header = cb.header;
  block.transactions.reserve(1 + decode.txs.size());
  block.transactions.push_back(cb.coinbase);
  for (const auto& tx : decode.txs) {
    if (!tx.has_value()) return std::nullopt;
    block.transactions.push_back(*tx);
  }
  if (block.compute_merkle_root() != cb.header.merkle_root) return std::nullopt;
  return block;
}

util::Bytes CompactBlock::serialize() const {
  util::ByteWriter w;
  serialize(w);
  return std::move(w).take();
}

void CompactBlock::serialize(util::ByteWriter& w) const {
  header.serialize(w);
  w.u64le(salt);
  coinbase.serialize(w);
  w.varint(short_ids.size());
  for (std::uint64_t id : short_ids) {
    w.u32le(static_cast<std::uint32_t>(id));
    w.u16le(static_cast<std::uint16_t>(id >> 32));
  }
  sketch.serialize(w);
}

CompactBlock CompactBlock::deserialize(util::ByteReader& r) {
  CompactBlock cb;
  cb.header = bitcoin::BlockHeader::deserialize(r);
  cb.salt = r.u64le();
  cb.coinbase = bitcoin::Transaction::deserialize(r);
  std::size_t n = r.checked_len(r.varint());
  cb.short_ids.reserve(std::min(n, r.remaining() / kShortIdBytes));
  for (std::size_t i = 0; i < n; ++i) {
    std::uint64_t lo = r.u32le();
    std::uint64_t hi = r.u16le();
    cb.short_ids.push_back((hi << 32) | lo);
  }
  cb.sketch = Iblt::deserialize(r);
  return cb;
}

std::size_t CompactBlock::wire_size() const {
  util::ByteWriter w;
  w.varint(short_ids.size());
  // 80-byte header + salt + coinbase + id list + sketch.
  return 80 + 8 + coinbase.size() + w.size() + kShortIdBytes * short_ids.size() +
         sketch.serialized_size();
}

}  // namespace icbtc::reconcile
