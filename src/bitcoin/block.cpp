#include "bitcoin/block.h"

#include <algorithm>
#include <cstring>

#include "crypto/sha256.h"

namespace icbtc::bitcoin {

void BlockHeader::serialize(util::ByteWriter& w) const {
  w.i32le(version);
  w.bytes(prev_hash.span());
  w.bytes(merkle_root.span());
  w.u32le(time);
  w.u32le(bits);
  w.u32le(nonce);
}

BlockHeader BlockHeader::deserialize(util::ByteReader& r) {
  BlockHeader h;
  h.version = r.i32le();
  h.prev_hash = r.hash256();
  h.merkle_root = r.hash256();
  h.time = r.u32le();
  h.bits = r.u32le();
  h.nonce = r.u32le();
  return h;
}

Bytes BlockHeader::serialize() const {
  util::ByteWriter w;
  serialize(w);
  return std::move(w).take();
}

BlockHeader BlockHeader::parse(ByteSpan data) {
  util::ByteReader r(data);
  BlockHeader h = deserialize(r);
  if (!r.done()) throw util::DecodeError("trailing bytes after block header");
  return h;
}

Hash256 BlockHeader::hash() const { return crypto::sha256d(serialize()); }

void Block::serialize(util::ByteWriter& w) const {
  header.serialize(w);
  w.varint(transactions.size());
  for (const auto& tx : transactions) tx.serialize(w);
}

Block Block::deserialize(util::ByteReader& r) {
  Block b;
  b.header = BlockHeader::deserialize(r);
  std::size_t n = r.checked_len(r.varint());
  b.transactions.reserve(std::min(n, r.remaining() / kMinTransactionBytes));
  for (std::size_t i = 0; i < n; ++i) b.transactions.push_back(Transaction::deserialize(r));
  return b;
}

Bytes Block::serialize() const {
  util::ByteWriter w;
  serialize(w);
  return std::move(w).take();
}

Block Block::parse(ByteSpan data) {
  util::ByteReader r(data);
  Block b = deserialize(r);
  if (!r.done()) throw util::DecodeError("trailing bytes after block");
  return b;
}

std::vector<Hash256> Block::txids(parallel::ThreadPool* pool) const {
  std::vector<Hash256> out(transactions.size());
  // txid() is a pure function of the tx bytes and seeds each tx's cache, so
  // computing the uncached ones concurrently is observationally identical to
  // the serial loop.
  parallel::parallel_for(pool, transactions.size(),
                         [&](std::size_t i) { out[i] = transactions[i].txid(); });
  return out;
}

Hash256 Block::compute_merkle_root(parallel::ThreadPool* pool) const {
  return merkle_root(txids(pool));
}

bool Block::is_well_formed(parallel::ThreadPool* pool) const {
  if (transactions.empty()) return false;
  if (!transactions[0].is_coinbase()) return false;
  for (std::size_t i = 0; i < transactions.size(); ++i) {
    if (i > 0 && transactions[i].is_coinbase()) return false;
    if (!transactions[i].is_well_formed()) return false;
  }
  return compute_merkle_root(pool) == header.merkle_root;
}

Hash256 merkle_root(const std::vector<Hash256>& txids) {
  if (txids.empty()) return Hash256{};
  std::vector<Hash256> level = txids;
  std::uint8_t node[64];
  while (level.size() > 1) {
    if (level.size() % 2 == 1) level.push_back(level.back());
    for (std::size_t i = 0; i < level.size(); i += 2) {
      // Inner node = sha256d(left || right): exactly 64 bytes, hashed via the
      // fixed-size fast path with no heap allocation.
      std::memcpy(node, level[i].data.data(), 32);
      std::memcpy(node + 32, level[i + 1].data.data(), 32);
      level[i / 2] = crypto::sha256d_64(node);
    }
    level.resize(level.size() / 2);
  }
  return level[0];
}

}  // namespace icbtc::bitcoin
