#include "persist/flat_utxo_arena.h"

#include <algorithm>
#include <cstring>

namespace icbtc::persist {

namespace {

constexpr std::size_t kInitialSlots = 16;  // power of two

/// Grow when (live + tombstones) exceeds 3/4 of capacity.
bool over_load(std::size_t used, std::size_t capacity) { return used * 4 > capacity * 3; }

std::size_t pow2_at_least(std::size_t n) {
  std::size_t cap = kInitialSlots;
  while (cap < n) cap <<= 1;
  return cap;
}

}  // namespace

FlatUtxoArena::FlatUtxoArena()
    : outpoint_slots_(kInitialSlots, kEmpty), script_slots_(kInitialSlots, kEmpty) {}

std::uint64_t FlatUtxoArena::hash_outpoint(const bitcoin::OutPoint& outpoint) {
  // FNV-1a over txid || vout(LE): byte-order independent of the host because
  // the inputs are explicit bytes. The table layout never leaves the process
  // (checkpoints store sorted entries), so only determinism within a run —
  // for a fixed operation history — matters; this gives cross-host
  // determinism for free.
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (std::uint8_t b : outpoint.txid.data) {
    h ^= b;
    h *= 0x100000001b3ULL;
  }
  for (int i = 0; i < 4; ++i) {
    h ^= static_cast<std::uint8_t>(outpoint.vout >> (8 * i));
    h *= 0x100000001b3ULL;
  }
  return h ^ (h >> 32);
}

std::uint64_t FlatUtxoArena::hash_script(util::ByteSpan script) {
  std::uint64_t h = 0xcbf29ce484222325ULL ^ (script.size() * 0x100000001b3ULL);
  for (std::uint8_t b : script) {
    h ^= b;
    h *= 0x100000001b3ULL;
  }
  return h ^ (h >> 32);
}

std::uint32_t FlatUtxoArena::slot_index(const bitcoin::OutPoint& outpoint) const {
  const std::size_t mask = outpoint_slots_.size() - 1;
  std::size_t i = static_cast<std::size_t>(hash_outpoint(outpoint)) & mask;
  for (;;) {
    std::uint32_t v = outpoint_slots_[i];
    if (v == kEmpty) return kNil;
    if (v != kTombstone) {
      const Entry& e = entries_[v];
      if (e.vout == outpoint.vout &&
          std::memcmp(e.txid.data(), outpoint.txid.data.data(), 32) == 0) {
        return static_cast<std::uint32_t>(i);
      }
    }
    i = (i + 1) & mask;
  }
}

std::uint32_t FlatUtxoArena::script_rec_index(util::ByteSpan script) const {
  const std::size_t mask = script_slots_.size() - 1;
  std::size_t i = static_cast<std::size_t>(hash_script(script)) & mask;
  for (;;) {
    std::uint32_t v = script_slots_[i];
    if (v == kEmpty) return kNil;
    if (v != kTombstone) {
      const ScriptRec& rec = script_recs_[v];
      if (rec.length == script.size() &&
          std::memcmp(script_bytes_.data() + rec.offset, script.data(), rec.length) == 0) {
        return v;
      }
    }
    i = (i + 1) & mask;
  }
}

void FlatUtxoArena::insert_outpoint_slot(const bitcoin::OutPoint& outpoint,
                                         std::uint32_t entry_idx) {
  const std::size_t mask = outpoint_slots_.size() - 1;
  std::size_t i = static_cast<std::size_t>(hash_outpoint(outpoint)) & mask;
  std::size_t first_tombstone = static_cast<std::size_t>(-1);
  for (;;) {
    std::uint32_t v = outpoint_slots_[i];
    if (v == kEmpty) break;
    if (v == kTombstone && first_tombstone == static_cast<std::size_t>(-1)) {
      first_tombstone = i;
    }
    i = (i + 1) & mask;
  }
  if (first_tombstone != static_cast<std::size_t>(-1)) {
    i = first_tombstone;
    --outpoint_tombstones_;
  }
  outpoint_slots_[i] = entry_idx;
}

void FlatUtxoArena::insert_script_slot(util::ByteSpan script, std::uint32_t rec_idx) {
  const std::size_t mask = script_slots_.size() - 1;
  std::size_t i = static_cast<std::size_t>(hash_script(script)) & mask;
  std::size_t first_tombstone = static_cast<std::size_t>(-1);
  for (;;) {
    std::uint32_t v = script_slots_[i];
    if (v == kEmpty) break;
    if (v == kTombstone && first_tombstone == static_cast<std::size_t>(-1)) {
      first_tombstone = i;
    }
    i = (i + 1) & mask;
  }
  if (first_tombstone != static_cast<std::size_t>(-1)) {
    i = first_tombstone;
    --script_tombstones_;
  }
  script_slots_[i] = rec_idx;
}

void FlatUtxoArena::rehash_outpoint_table(std::size_t capacity) {
  outpoint_slots_.assign(capacity, kEmpty);
  outpoint_tombstones_ = 0;
  for (std::uint32_t idx = 0; idx < entries_.size(); ++idx) {
    const Entry& e = entries_[idx];
    if (e.live == 0) continue;
    insert_outpoint_slot(outpoint_of(e), idx);
  }
}

void FlatUtxoArena::rehash_script_table(std::size_t capacity) {
  script_slots_.assign(capacity, kEmpty);
  script_tombstones_ = 0;
  for (std::uint32_t idx = 0; idx < script_recs_.size(); ++idx) {
    const ScriptRec& rec = script_recs_[idx];
    if (rec.count == 0) continue;
    insert_script_slot(script_span(rec), idx);
  }
}

void FlatUtxoArena::maybe_grow_outpoint_table() {
  if (over_load(live_entries_ + outpoint_tombstones_ + 1, outpoint_slots_.size())) {
    rehash_outpoint_table(pow2_at_least((live_entries_ + 1) * 2));
  }
}

void FlatUtxoArena::maybe_grow_script_table() {
  if (over_load(live_scripts_ + script_tombstones_ + 1, script_slots_.size())) {
    rehash_script_table(pow2_at_least((live_scripts_ + 1) * 2));
  }
}

bool FlatUtxoArena::chain_before(const Entry& a, const Entry& b) const {
  // Canonical get_utxos order: height descending, then outpoint ascending.
  if (a.height != b.height) return a.height > b.height;
  int c = std::memcmp(a.txid.data(), b.txid.data(), 32);
  if (c != 0) return c < 0;
  return a.vout < b.vout;
}

void FlatUtxoArena::chain_link(ScriptRec& rec, std::uint32_t idx, std::uint32_t after) {
  Entry& e = entries_[idx];
  std::uint32_t prev = after;
  std::uint32_t cur = after == kNil ? rec.head : entries_[after].next;
  while (cur != kNil && chain_before(entries_[cur], e)) {
    prev = cur;
    cur = entries_[cur].next;
  }
  e.prev = prev;
  e.next = cur;
  if (prev == kNil) {
    rec.head = idx;
  } else {
    entries_[prev].next = idx;
  }
  if (cur != kNil) entries_[cur].prev = idx;
}

void FlatUtxoArena::chain_unlink(ScriptRec& rec, std::uint32_t idx) {
  Entry& e = entries_[idx];
  if (e.prev == kNil) {
    rec.head = e.next;
  } else {
    entries_[e.prev].next = e.next;
  }
  if (e.next != kNil) entries_[e.next].prev = e.prev;
}

std::uint32_t FlatUtxoArena::add_entry(const bitcoin::OutPoint& outpoint,
                                       bitcoin::Amount value, int height,
                                       util::ByteSpan script) {
  if (slot_index(outpoint) != kNil) return kNil;  // duplicate; keep first
  maybe_grow_outpoint_table();
  maybe_grow_script_table();

  // Intern the script: find its record or append the bytes and mint one.
  std::uint32_t rec_idx = script_rec_index(script);
  if (rec_idx == kNil) {
    if (free_recs_ != kNil) {
      rec_idx = free_recs_;
      free_recs_ = script_recs_[rec_idx].next_free;
    } else {
      rec_idx = static_cast<std::uint32_t>(script_recs_.size());
      script_recs_.emplace_back();
    }
    ScriptRec& rec = script_recs_[rec_idx];
    rec.offset = script_bytes_.size();
    rec.length = static_cast<std::uint32_t>(script.size());
    rec.head = kNil;
    rec.count = 0;
    rec.next_free = kNil;
    script_bytes_.insert(script_bytes_.end(), script.begin(), script.end());
    insert_script_slot(script, rec_idx);
    ++live_scripts_;
  }

  // Allocate the entry row (LIFO reuse keeps the layout deterministic).
  std::uint32_t idx;
  if (free_entries_ != kNil) {
    idx = free_entries_;
    free_entries_ = entries_[idx].next;
    --dead_entries_;
  } else {
    idx = static_cast<std::uint32_t>(entries_.size());
    entries_.emplace_back();
  }
  Entry& e = entries_[idx];
  std::copy(outpoint.txid.data.begin(), outpoint.txid.data.end(), e.txid.begin());
  e.vout = outpoint.vout;
  e.value = value;
  e.height = height;
  e.script_id = rec_idx;
  e.live = 1;
  e.next = kNil;
  e.prev = kNil;

  ++script_recs_[rec_idx].count;
  insert_outpoint_slot(outpoint, idx);
  ++live_entries_;
  return idx;
}

bool FlatUtxoArena::insert(const bitcoin::OutPoint& outpoint, bitcoin::Amount value,
                           int height, util::ByteSpan script) {
  std::uint32_t idx = add_entry(outpoint, value, height, script);
  if (idx == kNil) return false;
  chain_link(script_recs_[entries_[idx].script_id], idx);
  return true;
}

bool FlatUtxoArena::load(const bitcoin::OutPoint& outpoint, bitcoin::Amount value, int height,
                         util::ByteSpan script) {
  std::uint32_t idx = add_entry(outpoint, value, height, script);
  if (idx == kNil) return false;
  unlinked_.push_back(idx);
  return true;
}

void FlatUtxoArena::finish_load() {
  // One sort groups the loaded entries by script, each group in canonical
  // order; each group then merges into its chain in a single forward walk.
  std::sort(unlinked_.begin(), unlinked_.end(), [&](std::uint32_t a, std::uint32_t b) {
    const Entry& x = entries_[a];
    const Entry& y = entries_[b];
    if (x.script_id != y.script_id) return x.script_id < y.script_id;
    return chain_before(x, y);
  });
  std::uint32_t script = kNil;
  std::uint32_t after = kNil;
  for (std::uint32_t idx : unlinked_) {
    if (entries_[idx].script_id != script) {
      script = entries_[idx].script_id;
      after = kNil;
    }
    chain_link(script_recs_[script], idx, after);
    after = idx;
  }
  unlinked_ = {};
  compact();
}

std::optional<FlatUtxoArena::Erased> FlatUtxoArena::erase(const bitcoin::OutPoint& outpoint) {
  std::uint32_t slot = slot_index(outpoint);
  if (slot == kNil) return std::nullopt;
  std::uint32_t idx = outpoint_slots_[slot];
  Entry& e = entries_[idx];
  ScriptRec& rec = script_recs_[e.script_id];

  Erased erased{e.value, e.height, rec.length};
  chain_unlink(rec, idx);
  if (--rec.count == 0) {
    // Last UTXO of the script: retire the record (its arena bytes stay until
    // compaction) and tombstone its slot.
    const std::size_t mask = script_slots_.size() - 1;
    std::size_t i = static_cast<std::size_t>(hash_script(script_span(rec))) & mask;
    while (script_slots_[i] != e.script_id) i = (i + 1) & mask;
    script_slots_[i] = kTombstone;
    ++script_tombstones_;
    dead_script_bytes_ += rec.length;
    rec.next_free = free_recs_;
    free_recs_ = e.script_id;
    --live_scripts_;
  }

  outpoint_slots_[slot] = kTombstone;
  ++outpoint_tombstones_;
  e.live = 0;
  e.script_id = kNil;
  e.next = free_entries_;
  e.prev = kNil;
  free_entries_ = idx;
  --live_entries_;
  ++dead_entries_;

  maybe_compact();
  return erased;
}

std::optional<FlatUtxoArena::Found> FlatUtxoArena::find(
    const bitcoin::OutPoint& outpoint) const {
  std::uint32_t slot = slot_index(outpoint);
  if (slot == kNil) return std::nullopt;
  const Entry& e = entries_[outpoint_slots_[slot]];
  return Found{e.value, e.height};
}

bool FlatUtxoArena::script_of(const bitcoin::OutPoint& outpoint, util::Bytes& out) const {
  std::uint32_t slot = slot_index(outpoint);
  if (slot == kNil) return false;
  const Entry& e = entries_[outpoint_slots_[slot]];
  util::ByteSpan span = script_span(script_recs_[e.script_id]);
  out.assign(span.begin(), span.end());
  return true;
}

void FlatUtxoArena::for_each_of_script(util::ByteSpan script, const UtxoVisitor& fn) const {
  std::uint32_t rec_idx = script_rec_index(script);
  if (rec_idx == kNil) return;
  for (std::uint32_t cur = script_recs_[rec_idx].head; cur != kNil;
       cur = entries_[cur].next) {
    const Entry& e = entries_[cur];
    fn(outpoint_of(e), e.value, e.height);
  }
}

std::size_t FlatUtxoArena::script_utxo_count(util::ByteSpan script) const {
  std::uint32_t rec_idx = script_rec_index(script);
  return rec_idx == kNil ? 0 : script_recs_[rec_idx].count;
}

void FlatUtxoArena::visit(const EntryVisitor& fn) const {
  for (const Entry& e : entries_) {
    if (e.live == 0) continue;
    fn(outpoint_of(e), e.value, e.height, script_span(script_recs_[e.script_id]));
  }
}

std::uint64_t FlatUtxoArena::live_bytes() const {
  std::uint64_t script_bytes = script_bytes_.size() - dead_script_bytes_;
  return static_cast<std::uint64_t>(live_entries_) * (sizeof(Entry) + sizeof(std::uint32_t)) +
         script_bytes +
         static_cast<std::uint64_t>(live_scripts_) *
             (sizeof(ScriptRec) + sizeof(std::uint32_t));
}

std::uint64_t FlatUtxoArena::resident_bytes() const {
  return static_cast<std::uint64_t>(entries_.capacity()) * sizeof(Entry) +
         script_bytes_.capacity() + script_recs_.capacity() * sizeof(ScriptRec) +
         (outpoint_slots_.capacity() + script_slots_.capacity()) * sizeof(std::uint32_t);
}

void FlatUtxoArena::maybe_compact() {
  // Deterministic thresholds: compact when dead rows outnumber half the live
  // ones (and are numerous enough to be worth it), or when retired script
  // bytes dominate the arena.
  const bool dead_rows = dead_entries_ >= 1024 && dead_entries_ * 2 > live_entries_;
  const bool dead_bytes =
      dead_script_bytes_ >= 16384 && dead_script_bytes_ * 2 > script_bytes_.size();
  if (dead_rows || dead_bytes) compact();
}

void FlatUtxoArena::compact() {
  // Rebuild entries (live only, old index order), script records (live only,
  // old index order) and the script byte arena; remap chain links and ids
  // via old→new index maps, then rehash both tables. Entry order — and hence
  // visit() order — is preserved, keeping compaction invisible to the
  // deterministic serialization path.
  std::vector<std::uint32_t> entry_map(entries_.size(), kNil);
  std::vector<std::uint32_t> rec_map(script_recs_.size(), kNil);

  std::vector<ScriptRec> new_recs;
  new_recs.reserve(live_scripts_);
  std::vector<std::uint8_t> new_bytes;
  new_bytes.reserve(script_bytes_.size() - dead_script_bytes_);
  for (std::uint32_t idx = 0; idx < script_recs_.size(); ++idx) {
    const ScriptRec& rec = script_recs_[idx];
    if (rec.count == 0) continue;
    rec_map[idx] = static_cast<std::uint32_t>(new_recs.size());
    ScriptRec moved = rec;
    moved.offset = new_bytes.size();
    moved.next_free = kNil;
    new_bytes.insert(new_bytes.end(), script_bytes_.begin() + static_cast<std::ptrdiff_t>(rec.offset),
                     script_bytes_.begin() + static_cast<std::ptrdiff_t>(rec.offset + rec.length));
    new_recs.push_back(moved);
  }

  std::vector<Entry> new_entries;
  new_entries.reserve(live_entries_);
  for (std::uint32_t idx = 0; idx < entries_.size(); ++idx) {
    if (entries_[idx].live == 0) continue;
    entry_map[idx] = static_cast<std::uint32_t>(new_entries.size());
    new_entries.push_back(entries_[idx]);
  }
  for (Entry& e : new_entries) {
    e.script_id = rec_map[e.script_id];
    if (e.next != kNil) e.next = entry_map[e.next];
    if (e.prev != kNil) e.prev = entry_map[e.prev];
  }
  for (ScriptRec& rec : new_recs) {
    if (rec.head != kNil) rec.head = entry_map[rec.head];
  }

  entries_ = std::move(new_entries);
  script_recs_ = std::move(new_recs);
  script_bytes_ = std::move(new_bytes);
  free_entries_ = kNil;
  free_recs_ = kNil;
  dead_entries_ = 0;
  dead_script_bytes_ = 0;

  rehash_outpoint_table(pow2_at_least((live_entries_ + 1) * 2));
  rehash_script_table(pow2_at_least((live_scripts_ + 1) * 2));
  ++compactions_;
}

}  // namespace icbtc::persist
