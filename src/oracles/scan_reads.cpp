#include "oracles/scan_reads.h"

#include <algorithm>
#include <unordered_set>
#include <utility>
#include <vector>

#include "bitcoin/address.h"
#include "util/byteio.h"

namespace icbtc::oracles {
namespace {

using canister::BitcoinCanister;
using canister::Outcome;
using canister::Status;
using canister::Utxo;
using util::Hash256;

/// The checks every read endpoint makes before reading; on success, the
/// address's scriptPubKey.
Outcome<util::Bytes> admit(const BitcoinCanister& c, const std::string& address,
                           int min_confirmations) {
  if (!c.is_synced()) return {Status::kNotSynced, {}};
  // Responses could be missing outputs spent below the anchor (§III-C).
  if (min_confirmations > c.config().stability_delta) {
    return {Status::kMinConfirmationsTooLarge, {}};
  }
  auto decoded = bitcoin::decode_address(address, c.params().network);
  if (!decoded) return {Status::kBadAddress, {}};
  return {Status::kOk, bitcoin::script_for_address(*decoded)};
}

/// The tip of the considered chain: the current chain's tip, or its highest
/// block with `min_confirmations` confirmations, or else the anchor.
std::pair<Hash256, int> considered_tip(const chain::HeaderTree& tree, int min_confirmations) {
  const std::vector<Hash256>& chain = tree.current_chain();
  int root_height = tree.root().height;
  for (std::size_t i = chain.size(); i-- > 1;) {
    if (min_confirmations <= 0 || tree.is_confirmation_stable(chain[i], min_confirmations)) {
      return {chain[i], root_height + static_cast<int>(i)};
    }
  }
  return {tree.root_hash(), root_height};
}

struct UnstableScan {
  std::vector<Utxo> survivors;                    // the script's, newest first
  std::unordered_set<bitcoin::OutPoint> spends;  // by every visited block
};

/// Scans the current chain's blocks above the anchor, up to the considered
/// height and the first block without data: every spend, and every output
/// paying `script`. Charges one unstable_block_scan per visited block and
/// one unstable_utxo_read per matching output.
UnstableScan scan_unstable(const BitcoinCanister& c, const util::Bytes& script,
                           int considered_height, ic::InstructionMeter& meter) {
  const chain::HeaderTree& tree = c.header_tree();
  const std::vector<Hash256>& chain = tree.current_chain();
  UnstableScan scan;
  std::vector<Utxo> added;
  for (std::size_t i = 1; i < chain.size(); ++i) {
    int height = tree.find(chain[i])->height;
    if (height > considered_height) break;
    const bitcoin::Block* block = c.unstable_index().block(chain[i]);
    if (block == nullptr) break;  // cannot see past a gap
    meter.charge(c.config().costs.unstable_block_scan);
    for (const auto& tx : block->transactions) {
      if (!tx.is_coinbase()) {
        for (const auto& in : tx.inputs) scan.spends.insert(in.prevout);
      }
      Hash256 txid = tx.txid();
      for (std::uint32_t v = 0; v < tx.outputs.size(); ++v) {
        if (tx.outputs[v].script_pubkey != script) continue;
        meter.charge(c.config().costs.unstable_utxo_read);
        added.push_back(Utxo{bitcoin::OutPoint{txid, v}, tx.outputs[v].value, height});
      }
    }
  }
  // Outputs spent again by a visited block drop out.
  for (const auto& u : added) {
    if (!scan.spends.contains(u.outpoint)) scan.survivors.push_back(u);
  }
  std::sort(scan.survivors.begin(), scan.survivors.end(), [](const Utxo& a, const Utxo& b) {
    return a.height != b.height ? a.height > b.height : a.outpoint < b.outpoint;
  });
  return scan;
}

}  // namespace

Outcome<canister::GetUtxosResponse> scan_get_utxos(const BitcoinCanister& c,
                                                   const canister::GetUtxosRequest& request,
                                                   ic::InstructionMeter& meter) {
  auto script = admit(c, request.address, request.min_confirmations);
  if (!script.ok()) return {script.status, {}};
  auto [tip_hash, tip_height] = considered_tip(c.header_tree(), request.min_confirmations);

  // Page token: [tip hash (32)][offset (8 LE)], valid only for its tip.
  std::size_t offset = 0;
  if (request.page) {
    if (request.page->size() != 40) return {Status::kBadPage, {}};
    util::ByteReader r(*request.page);
    if (r.hash256() != tip_hash) return {Status::kBadPage, {}};
    offset = static_cast<std::size_t>(r.u64le());
  }

  // The merged list is the unstable survivors, then the stable UTXOs no
  // visited block spends; a page is its ranks [offset, offset + limit).
  UnstableScan scan = scan_unstable(c, script.value, tip_height, meter);
  canister::GetUtxosResponse response;
  response.tip_hash = tip_hash;
  response.tip_height = tip_height;
  const std::size_t limit = c.config().utxos_per_page;
  for (std::size_t i = offset; i < scan.survivors.size() && response.utxos.size() < limit; ++i) {
    response.utxos.push_back(scan.survivors[i]);
  }
  std::size_t stable_offset = offset > scan.survivors.size() ? offset - scan.survivors.size() : 0;
  std::vector<canister::StoredUtxo> stable_page;
  std::size_t total =
      scan.survivors.size() +
      c.stable_utxos().utxos_for_script_paged(
          script.value, meter, stable_offset, limit - response.utxos.size(), stable_page,
          [&](const bitcoin::OutPoint& op) { return !scan.spends.contains(op); });
  if (offset > total) return {Status::kBadPage, {}};
  for (const auto& s : stable_page) response.utxos.push_back(Utxo{s.outpoint, s.value, s.height});

  std::size_t end = offset + response.utxos.size();
  if (end < total) {
    util::ByteWriter w;
    w.bytes(tip_hash.span());
    w.u64le(end);
    response.next_page = std::move(w).take();
  }
  return {Status::kOk, std::move(response)};
}

Outcome<bitcoin::Amount> scan_get_balance(const BitcoinCanister& c, const std::string& address,
                                          int min_confirmations, ic::InstructionMeter& meter) {
  auto script = admit(c, address, min_confirmations);
  if (!script.ok()) return {script.status, {}};
  int tip_height = considered_tip(c.header_tree(), min_confirmations).second;
  UnstableScan scan = scan_unstable(c, script.value, tip_height, meter);
  bitcoin::Amount total = 0;
  for (const auto& u : scan.survivors) total += u.value;
  // Every stable UTXO of the script is read (and charged), spent or not.
  for (const auto& stored : c.stable_utxos().utxos_for_script(
           script.value, meter, c.config().costs.stable_balance_read)) {
    if (!scan.spends.contains(stored.outpoint)) total += stored.value;
  }
  return {Status::kOk, total};
}

}  // namespace icbtc::oracles
