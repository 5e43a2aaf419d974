#include "persist/flat_utxo_arena.h"

#include <algorithm>
#include <cstring>

namespace icbtc::persist {

namespace {

/// Grow when live keys exceed 3/4 of capacity.
bool over_load(std::size_t live, std::size_t capacity) { return live * 4 > capacity * 3; }

std::size_t pow2_at_least(std::size_t n) {
  std::size_t cap = FlatUtxoArena::kInitialSlots;
  while (cap < n) cap <<= 1;
  return cap;
}

/// Little-endian 64-bit load: the same value on every host.
std::uint64_t load_le64(const std::uint8_t* p) {
  std::uint64_t v;
  std::memcpy(&v, p, 8);
  if constexpr (std::endian::native == std::endian::big) v = __builtin_bswap64(v);
  return v;
}

/// murmur3's 64-bit finalizer: every input bit reaches the top bits, which
/// hold the home slot and the tag.
std::uint64_t fmix64(std::uint64_t h) {
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ULL;
  h ^= h >> 33;
  return h;
}

constexpr std::uint64_t kTagMask = 0xffffffff00000000ULL;

/// Orders free lists by script length, for lower_bound.
constexpr auto kShorter = [](const auto& list, std::uint32_t length) {
  return list.length < length;
};

/// Slot value for index `idx` under the tag of `hash`.
std::uint64_t tagged(std::uint64_t hash, std::uint32_t idx) { return (hash & kTagMask) | idx; }

bool is_empty(std::uint64_t slot) {
  return static_cast<std::uint32_t>(slot) == FlatUtxoArena::kNil;
}

/// Stores a slot value at the first empty slot from its home.
void place(std::vector<std::uint64_t>& slots, std::uint64_t slot) {
  const std::size_t mask = slots.size() - 1;
  std::size_t i = FlatUtxoArena::home_slot(slot, slots.size());
  while (!is_empty(slots[i])) i = (i + 1) & mask;
  slots[i] = slot;
}

/// Moves every occupied slot into a fresh table of `capacity` slots, placed
/// by its tag alone (no key is re-hashed); `renumber` maps each stored index
/// to its new value.
template <typename Renumber>
void rebuild(std::vector<std::uint64_t>& slots, std::size_t capacity, Renumber renumber) {
  std::vector<std::uint64_t> old(capacity, FlatUtxoArena::kNil);
  old.swap(slots);
  for (std::uint64_t slot : old) {
    if (!is_empty(slot)) {
      place(slots, tagged(slot, renumber(static_cast<std::uint32_t>(slot))));
    }
  }
}

/// Grows the table when one more key would load it past 3/4; true if it grew.
bool grow_for(std::vector<std::uint64_t>& slots, std::size_t live) {
  if (!over_load(live + 1, slots.size())) return false;
  rebuild(slots, pow2_at_least((live + 1) * 2), [](std::uint32_t idx) { return idx; });
  return true;
}

/// Backward-shift deletion: empties slot `hole`, then walks the rest of its
/// cluster and moves each member whose home does not lie cyclically in
/// (hole, j] back into the hole, so every key stays reachable from its home
/// without crossing an empty slot.
void erase_slot(std::vector<std::uint64_t>& slots, std::size_t hole) {
  const std::size_t mask = slots.size() - 1;
  for (std::size_t j = (hole + 1) & mask; !is_empty(slots[j]); j = (j + 1) & mask) {
    const std::size_t home = FlatUtxoArena::home_slot(slots[j], slots.size());
    if (((j - home) & mask) < ((j - hole) & mask)) continue;
    slots[hole] = slots[j];
    hole = j;
  }
  slots[hole] = FlatUtxoArena::kNil;
}

}  // namespace

FlatUtxoArena::FlatUtxoArena()
    : outpoint_slots_(kInitialSlots, kNil), script_slots_(kInitialSlots, kNil) {}

std::uint64_t FlatUtxoArena::hash_outpoint(const bitcoin::OutPoint& outpoint) {
  // One multiply-xorshift step per 64-bit little-endian word over all 32
  // txid bytes and the vout, then the finalizer. Explicit LE loads keep the
  // value host-independent; the table layout never leaves the process anyway
  // (checkpoints store sorted entries).
  constexpr std::uint64_t kMul = 0x9e3779b97f4a7c15ULL;
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (int w = 0; w < 4; ++w) {
    h = (h ^ load_le64(outpoint.txid.data.data() + 8 * w)) * kMul;
    h ^= h >> 29;
  }
  return fmix64((h ^ outpoint.vout) * kMul);
}

std::uint64_t FlatUtxoArena::hash_script(util::ByteSpan script) {
  // FNV-1a, then the finalizer: FNV's top bits barely move with the last
  // bytes, so scripts that differ only there would share a home slot.
  std::uint64_t h = 0xcbf29ce484222325ULL ^ (script.size() * 0x100000001b3ULL);
  for (std::uint8_t b : script) {
    h ^= b;
    h *= 0x100000001b3ULL;
  }
  return fmix64(h);
}

std::uint32_t FlatUtxoArena::slot_index(const bitcoin::OutPoint& outpoint,
                                        std::uint64_t hash) const {
  const std::size_t mask = outpoint_slots_.size() - 1;
  for (std::size_t i = home_slot(hash, outpoint_slots_.size());; i = (i + 1) & mask) {
    const std::uint64_t slot = outpoint_slots_[i];
    if (is_empty(slot)) return kNil;
    if ((slot & kTagMask) == (hash & kTagMask)) {
      const Entry& e = entries_[static_cast<std::uint32_t>(slot)];
      if (e.vout == outpoint.vout &&
          std::memcmp(e.txid.data(), outpoint.txid.data.data(), 32) == 0) {
        return static_cast<std::uint32_t>(i);
      }
    }
  }
}

std::uint32_t FlatUtxoArena::script_rec_index(util::ByteSpan script, std::uint64_t hash) const {
  const std::size_t mask = script_slots_.size() - 1;
  for (std::size_t i = home_slot(hash, script_slots_.size());; i = (i + 1) & mask) {
    const std::uint64_t slot = script_slots_[i];
    if (is_empty(slot)) return kNil;
    if ((slot & kTagMask) != (hash & kTagMask)) continue;
    const auto idx = static_cast<std::uint32_t>(slot);
    const ScriptRec& rec = script_recs_[idx];
    // An empty script may have a null data(), which memcmp must not see.
    if (rec.length == script.size() &&
        (rec.length == 0 ||
         std::memcmp(script_bytes_.data() + rec.offset, script.data(), rec.length) == 0)) {
      return idx;
    }
  }
}

std::uint32_t FlatUtxoArena::intern_script(util::ByteSpan script) {
  const auto length = static_cast<std::uint32_t>(script.size());
  auto list = std::lower_bound(free_recs_.begin(), free_recs_.end(), length, kShorter);
  std::uint32_t idx;
  if (list != free_recs_.end() && list->length == length && list->head != kNil) {
    // A retired record keeps head == kNil and count == 0.
    idx = list->head;
    list->head = script_recs_[idx].next_free;
    script_recs_[idx].next_free = kNil;
    dead_script_bytes_ -= length;
  } else {
    idx = static_cast<std::uint32_t>(script_recs_.size());
    script_recs_.push_back(ScriptRec{script_bytes_.size(), length});
    script_bytes_.resize(script_bytes_.size() + length);
  }
  if (length != 0) {
    std::memcpy(script_bytes_.data() + script_recs_[idx].offset, script.data(), length);
  }
  ++live_scripts_;
  return idx;
}

void FlatUtxoArena::retire_script(std::uint32_t rec_idx) {
  ScriptRec& rec = script_recs_[rec_idx];
  const std::size_t mask = script_slots_.size() - 1;
  std::size_t i = home_slot(hash_script(script_span(rec)), script_slots_.size());
  while (static_cast<std::uint32_t>(script_slots_[i]) != rec_idx) i = (i + 1) & mask;
  erase_slot(script_slots_, i);

  auto list = std::lower_bound(free_recs_.begin(), free_recs_.end(), rec.length, kShorter);
  if (list == free_recs_.end() || list->length != rec.length) {
    list = free_recs_.insert(list, FreeList{rec.length, kNil});
  }
  rec.next_free = list->head;
  list->head = rec_idx;
  dead_script_bytes_ += rec.length;
  --live_scripts_;
}

bool FlatUtxoArena::chain_before(const Entry& a, const Entry& b) const {
  // Canonical get_utxos order: height descending, then outpoint ascending.
  if (a.height != b.height) return a.height > b.height;
  int c = std::memcmp(a.txid.data(), b.txid.data(), 32);
  if (c != 0) return c < 0;
  return a.vout < b.vout;
}

void FlatUtxoArena::chain_link(ScriptRec& rec, std::uint32_t idx) {
  Entry& e = entries_[idx];
  std::uint32_t cur = rec.head;
  std::uint32_t prev = kNil;
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
  ++rec.count;
}

void FlatUtxoArena::chain_unlink(ScriptRec& rec, std::uint32_t idx) {
  Entry& e = entries_[idx];
  if (e.prev == kNil) {
    rec.head = e.next;
  } else {
    entries_[e.prev].next = e.next;
  }
  if (e.next != kNil) entries_[e.next].prev = e.prev;
  --rec.count;
}

bool FlatUtxoArena::insert(const bitcoin::OutPoint& outpoint, bitcoin::Amount value,
                           int height, util::ByteSpan script) {
  const std::uint64_t hash = hash_outpoint(outpoint);
  if (slot_index(outpoint, hash) != kNil) return false;  // duplicate; keep first
  if (grow_for(outpoint_slots_, live_entries_)) ++outpoint_rehashes_;

  const std::uint64_t script_hash = hash_script(script);
  std::uint32_t rec_idx = script_rec_index(script, script_hash);
  if (rec_idx == kNil) {
    grow_for(script_slots_, live_scripts_);
    rec_idx = intern_script(script);
    place(script_slots_, tagged(script_hash, rec_idx));
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

  chain_link(script_recs_[rec_idx], idx);
  place(outpoint_slots_, tagged(hash, idx));
  ++live_entries_;
  return true;
}

std::optional<FlatUtxoArena::Erased> FlatUtxoArena::erase(const bitcoin::OutPoint& outpoint) {
  std::uint32_t slot = slot_index(outpoint);
  if (slot == kNil) return std::nullopt;
  auto idx = static_cast<std::uint32_t>(outpoint_slots_[slot]);
  Entry& e = entries_[idx];
  ScriptRec& rec = script_recs_[e.script_id];

  Erased erased{e.value, e.height, rec.length};
  chain_unlink(rec, idx);
  if (rec.head == kNil) retire_script(e.script_id);

  erase_slot(outpoint_slots_, slot);
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
  const Entry& e = entries_[static_cast<std::uint32_t>(outpoint_slots_[slot])];
  return Found{e.value, e.height};
}

bool FlatUtxoArena::script_of(const bitcoin::OutPoint& outpoint, util::Bytes& out) const {
  std::uint32_t slot = slot_index(outpoint);
  if (slot == kNil) return false;
  const Entry& e = entries_[static_cast<std::uint32_t>(outpoint_slots_[slot])];
  util::ByteSpan span = script_span(script_recs_[e.script_id]);
  out.assign(span.begin(), span.end());
  return true;
}

void FlatUtxoArena::for_each_of_script(util::ByteSpan script, const UtxoVisitor& fn) const {
  std::uint32_t rec_idx = script_rec_index(script, hash_script(script));
  if (rec_idx == kNil) return;
  for (std::uint32_t cur = script_recs_[rec_idx].head; cur != kNil;
       cur = entries_[cur].next) {
    const Entry& e = entries_[cur];
    fn(outpoint_of(e), e.value, e.height);
  }
}

std::size_t FlatUtxoArena::script_utxo_count(util::ByteSpan script) const {
  std::uint32_t rec_idx = script_rec_index(script, hash_script(script));
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
  return static_cast<std::uint64_t>(live_entries_) * (sizeof(Entry) + sizeof(std::uint64_t)) +
         script_bytes +
         static_cast<std::uint64_t>(live_scripts_) *
             (sizeof(ScriptRec) + sizeof(std::uint64_t));
}

std::uint64_t FlatUtxoArena::resident_bytes() const {
  return static_cast<std::uint64_t>(entries_.capacity()) * sizeof(Entry) +
         script_bytes_.capacity() + script_recs_.capacity() * sizeof(ScriptRec) +
         (outpoint_slots_.capacity() + script_slots_.capacity()) * sizeof(std::uint64_t) +
         free_recs_.capacity() * sizeof(FreeList);
}

void FlatUtxoArena::maybe_compact() {
  // Deterministic thresholds: compact when dead rows outnumber half the live
  // ones (and are numerous enough to be worth it), or when retired script
  // bytes that no script of their length has reused dominate the arena.
  const bool dead_rows = dead_entries_ >= 1024 && dead_entries_ * 2 > live_entries_;
  const bool dead_bytes =
      dead_script_bytes_ >= 16384 && dead_script_bytes_ * 2 > script_bytes_.size();
  if (dead_rows || dead_bytes) compact();
}

void FlatUtxoArena::compact() {
  // Rebuild entries (live only, old index order), script records (live only,
  // old index order) and the script byte arena; remap chain links and ids
  // via old→new index maps, then rebuild both tables. Entry order — and hence
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
    if (rec.head == kNil) continue;
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
  for (ScriptRec& rec : new_recs) rec.head = entry_map[rec.head];

  entries_ = std::move(new_entries);
  script_recs_ = std::move(new_recs);
  script_bytes_ = std::move(new_bytes);
  free_entries_ = kNil;
  free_recs_.clear();
  dead_entries_ = 0;
  dead_script_bytes_ = 0;

  rebuild(outpoint_slots_, pow2_at_least((live_entries_ + 1) * 2),
          [&](std::uint32_t idx) { return entry_map[idx]; });
  ++outpoint_rehashes_;
  rebuild(script_slots_, pow2_at_least((live_scripts_ + 1) * 2),
          [&](std::uint32_t idx) { return rec_map[idx]; });
  ++compactions_;
}

}  // namespace icbtc::persist
