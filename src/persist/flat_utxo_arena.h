// Flat open-addressing UTXO arena: the compact backing store for one stable
// UTXO shard (the stable-memory layout the production canister keeps in
// `StableBTreeMap`s, flattened the way pastel's `uint256.h`-era flat sets
// store fixed-width 32-byte keys).
//
// Layout: live UTXOs are fixed-width 64-byte POD entries in one contiguous
// vector; scriptPubKey bytes live in a byte arena and are interned per shard
// (every UTXO paying the same script shares one copy). Two power-of-two
// open-addressing tables (linear probing, no tombstones) index the entries:
// outpoint → entry and script bytes → script record. Every slot is 64 bits:
// the upper 32 bits of its key's hash (the tag) over a 32-bit index. The
// home slot is the hash's top log2(capacity) bits, so the tag alone locates
// it: a probe reads an entry or script bytes only when the tags match, and
// an erase shifts later cluster members back into the hole (backward-shift
// deletion) without reading either. Entries of one script form a
// doubly-linked chain threaded through the entry vector, kept sorted by
// (height desc, outpoint asc) — the canonical get_utxos response order — so
// reads need no per-node allocations at all.
//
// Versus the node-map layout this replaces (unordered_map nodes + heap
// TxOut byte vectors + a std::map per script), the arena cuts host bytes
// per UTXO by ~3-5x and makes residency *accountable*: live_bytes() is the
// exact byte cost of the live entries, resident_bytes() the exact capacity
// the backend holds, so the `utxo.shard.*` gauges report real numbers
// instead of node-overhead estimates.
//
// Every erase pays for itself at once: its table slots are refilled by the
// backward shift, its entry row goes on a LIFO free list, and a retired
// script record goes on the free list of its length, whose next script of
// that length overwrites the record's bytes in place (standard output
// templates come in a few fixed lengths). Compaction — dropping dead rows
// and retired bytes, preserving live entry order — runs only when dead rows
// outnumber half the live ones or retired bytes of lengths nobody reuses
// fill half the arena, and on restore. All triggers are counts, never
// timing, so two arenas fed the same operation sequence are identical —
// including visit() order — which the checkpoint determinism tests pin.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
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
  /// Slots in each table of a new arena (a power of two).
  static constexpr std::size_t kInitialSlots = 16;

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
  /// interned script bytes, one 8-byte outpoint slot per live entry, and a
  /// record plus one 8-byte slot per live script.
  std::uint64_t live_bytes() const;
  /// Exact host capacity the arena holds (entry vector, script arena, both
  /// slot tables, script records, free-list heads — capacities, not sizes).
  std::uint64_t resident_bytes() const;
  /// Bytes appended to the script arena: live scripts plus retired bytes no
  /// script has reused yet.
  std::uint64_t script_arena_bytes() const { return script_bytes_.size(); }

  /// Drops dead entries and retired script records and bytes, preserving
  /// live entry order, and rebuilds both tables at their tight capacity.
  /// Runs off deterministic dead-count thresholds and after a restore;
  /// public for tests and explicit quiescing.
  void compact();
  std::uint64_t compactions() const { return compactions_; }
  /// Outpoint-table rebuilds: growth and compaction.
  std::uint64_t outpoint_rehashes() const { return outpoint_rehashes_; }

  /// The tables' hashes and home slots, public so tests can pick keys that
  /// collide or wrap. The home slot in a table of `capacity` = 2^k slots is
  /// the hash's top k bits; a slot keeps its key's top 32 hash bits, so the
  /// same call on a slot value gives that slot's home.
  static std::uint64_t hash_outpoint(const bitcoin::OutPoint& outpoint);
  static std::uint64_t hash_script(util::ByteSpan script);
  static std::size_t home_slot(std::uint64_t hash, std::size_t capacity) {
    return static_cast<std::size_t>(hash >> (std::countl_zero(capacity) + 1));
  }

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
    std::uint32_t head = kNil;   // first chain entry; kNil when retired
    std::uint32_t count = 0;     // live entries on the chain
    std::uint32_t next_free = kNil;  // next retired record of the same length
  };
  /// Head of the free list of retired script records of one length.
  struct FreeList {
    std::uint32_t length = 0;
    std::uint32_t head = kNil;
  };

  util::ByteSpan script_span(const ScriptRec& rec) const {
    return util::ByteSpan(script_bytes_.data() + rec.offset, rec.length);
  }
  bitcoin::OutPoint outpoint_of(const Entry& e) const {
    bitcoin::OutPoint op;
    std::copy(e.txid.begin(), e.txid.end(), op.txid.data.begin());
    op.vout = e.vout;
    return op;
  }

  /// Index of the outpoint's slot in outpoint_slots_, or kNil. `hash` is
  /// hash_outpoint(outpoint).
  std::uint32_t slot_index(const bitcoin::OutPoint& outpoint, std::uint64_t hash) const;
  std::uint32_t slot_index(const bitcoin::OutPoint& outpoint) const {
    return slot_index(outpoint, hash_outpoint(outpoint));
  }
  /// Index of the script's record, or kNil. `hash` is hash_script(script).
  std::uint32_t script_rec_index(util::ByteSpan script, std::uint64_t hash) const;

  /// Mints a live record holding `script`, reusing a retired record of the
  /// same length and its bytes when there is one.
  std::uint32_t intern_script(util::ByteSpan script);
  /// Empties the slot of a record whose chain just emptied and files the
  /// record on its length's free list.
  void retire_script(std::uint32_t rec_idx);
  void maybe_compact();

  /// Links `idx` into its script's chain at the canonical position.
  void chain_link(ScriptRec& rec, std::uint32_t idx);
  void chain_unlink(ScriptRec& rec, std::uint32_t idx);
  /// True if entry a precedes entry b in canonical order.
  bool chain_before(const Entry& a, const Entry& b) const;

  std::vector<Entry> entries_;
  std::uint32_t free_entries_ = kNil;  // LIFO free list through Entry::next
  std::size_t live_entries_ = 0;
  std::size_t dead_entries_ = 0;

  std::vector<std::uint8_t> script_bytes_;
  std::uint64_t dead_script_bytes_ = 0;  // bytes of retired records not yet reused
  std::vector<ScriptRec> script_recs_;
  std::vector<FreeList> free_recs_;  // sorted by length; emptied lists stay
  std::size_t live_scripts_ = 0;

  /// Slots: kNil when empty, else (hash tag << 32 | index into entries_ /
  /// script_recs_).
  std::vector<std::uint64_t> outpoint_slots_;
  std::vector<std::uint64_t> script_slots_;

  std::uint64_t compactions_ = 0;
  std::uint64_t outpoint_rehashes_ = 0;
};

}  // namespace icbtc::persist
