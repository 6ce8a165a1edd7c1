// Decoders of untrusted bytes reserve container capacity from counts read
// off the wire. Each reserve must be capped by what the rest of the input
// can encode, so a hostile count cannot make a decoder request far more
// memory than the input justifies. This executable replaces the global
// operator new to count the bytes requested while one hostile input — a
// count as large as the remaining input over a zero-filled body — decodes.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <functional>
#include <new>

#include "bitcoin/block.h"
#include "bitcoin/transaction.h"
#include "reconcile/compact_block.h"
#include "util/byteio.h"

namespace {
std::atomic<bool> g_counting{false};
std::atomic<std::size_t> g_requested{0};
}  // namespace

void* operator new(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_requested.fetch_add(size, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace icbtc {
namespace {

constexpr std::size_t kBody = 60000;

/// Bytes requested through operator new while `decode` runs; the decode
/// must fail with DecodeError.
std::size_t requested_by(const std::function<void()>& decode) {
  g_requested.store(0);
  g_counting.store(true);
  bool typed = false;
  try {
    decode();
  } catch (const util::DecodeError&) {
    typed = true;
  }
  g_counting.store(false);
  EXPECT_TRUE(typed) << "hostile input decoded without DecodeError";
  return g_requested.load();
}

/// `prefix` followed by a count of kBody and kBody zero bytes.
util::Bytes hostile(util::ByteWriter prefix) {
  prefix.varint(kBody);
  prefix.bytes(util::Bytes(kBody, 0));
  return std::move(prefix).take();
}

TEST(DecodeAllocationTest, TransactionInputCountIsBoundedByInput) {
  util::ByteWriter w;
  w.i32le(2);
  util::Bytes input = hostile(std::move(w));
  std::size_t bytes = requested_by([&] { bitcoin::Transaction::parse(input); });
  EXPECT_LE(bytes, 8 * input.size());
}

TEST(DecodeAllocationTest, TransactionOutputCountIsBoundedByInput) {
  util::ByteWriter w;
  w.i32le(2);
  w.varint(0);  // no inputs
  util::Bytes input = hostile(std::move(w));
  std::size_t bytes = requested_by([&] { bitcoin::Transaction::parse(input); });
  EXPECT_LE(bytes, 8 * input.size());
}

TEST(DecodeAllocationTest, BlockTransactionCountIsBoundedByInput) {
  util::ByteWriter w;
  bitcoin::BlockHeader{}.serialize(w);
  util::Bytes input = hostile(std::move(w));
  std::size_t bytes = requested_by([&] { bitcoin::Block::parse(input); });
  // The zero body really holds kBody / 10 empty 10-byte transactions, and
  // each is sizeof(Transaction) = 96 bytes in memory: 9.6x is the decoded
  // content itself, which no reserve policy can undercut.
  EXPECT_LE(bytes, sizeof(bitcoin::Transaction) * input.size() / 10);
  EXPECT_LE(bytes, 10 * input.size());
}

TEST(DecodeAllocationTest, CompactBlockShortIdCountIsBoundedByInput) {
  util::ByteWriter w;
  bitcoin::BlockHeader{}.serialize(w);
  w.u64le(0);  // salt
  bitcoin::Transaction{}.serialize(w);
  util::Bytes input = hostile(std::move(w));
  std::size_t bytes = requested_by([&] {
    util::ByteReader r(input);
    reconcile::CompactBlock::deserialize(r);
  });
  // Short ids are 8 bytes in memory and 6 on the wire.
  EXPECT_LE(bytes, 2 * input.size());
}

}  // namespace
}  // namespace icbtc
