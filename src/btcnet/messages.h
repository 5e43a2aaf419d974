// Protocol-level messages exchanged on the simulated Bitcoin P2P network.
// These model the subset of the Bitcoin wire protocol the integration needs:
// inventory announcement, header sync, block/tx download, and address gossip.
#pragma once

#include <cstdint>
#include <variant>
#include <vector>

#include "bitcoin/block.h"
#include "reconcile/compact_block.h"
#include "reconcile/recon_set.h"

namespace icbtc::btcnet {

/// Identifies an endpoint on the simulated network (node, adapter, ...).
using NodeId = std::uint32_t;
constexpr NodeId kInvalidNode = 0xffffffff;

/// A network address record as gossiped via addr messages. The IPv6 flag
/// models the constraint that IC nodes only reach IPv6 Bitcoin peers (§III-B).
struct NetAddress {
  NodeId id = kInvalidNode;
  bool ipv6 = true;

  bool operator==(const NetAddress&) const = default;
};

struct MsgInv {
  std::vector<util::Hash256> block_hashes;
  std::vector<util::Hash256> tx_ids;
};

/// getheaders: block locator (newest first) plus optional stop hash.
struct MsgGetHeaders {
  std::vector<util::Hash256> locator;
  util::Hash256 stop;  // zero = as many as allowed
};

struct MsgHeaders {
  std::vector<bitcoin::BlockHeader> headers;
};

struct MsgGetData {
  std::vector<util::Hash256> block_hashes;
  std::vector<util::Hash256> tx_ids;
};

struct MsgBlock {
  bitcoin::Block block;
};

struct MsgNotFound {
  std::vector<util::Hash256> block_hashes;
  /// Requested transactions the peer no longer has (evicted, replaced, or
  /// confirmed since the announcement); the requester clears its pending
  /// state instead of waiting forever.
  std::vector<util::Hash256> tx_ids;
};

struct MsgTx {
  bitcoin::Transaction tx;
};

struct MsgGetAddr {};

struct MsgAddr {
  std::vector<NetAddress> addresses;
};

/// Compact block announcement (BIP152-style high-bandwidth push, with an
/// IBLT sketch instead of prefilled transactions; see src/reconcile).
struct MsgCmpctBlock {
  reconcile::CompactBlock compact;
};

/// Request for the transactions at the given positions of a compact block's
/// short-id list (0-based, coinbase excluded) after reconstruction failed.
struct MsgGetBlockTxn {
  util::Hash256 block_hash;
  std::vector<std::uint32_t> indexes;
};

/// Response to MsgGetBlockTxn: the requested transactions, in index order.
struct MsgBlockTxn {
  util::Hash256 block_hash;
  std::vector<bitcoin::Transaction> transactions;
};

/// Opens one transaction-reconciliation round (Erlay-style): a sketch of the
/// initiator's pending-announcement set for this link. `part` 0 is the whole
/// set; parts 1/2 are the parity halves sent after a failed part-0 decode
/// (bisection doubles effective capacity at the same cell count).
struct MsgReconSketch {
  std::uint32_t round = 0;
  std::uint8_t part = 0;
  /// Initiator's set size for this part (feeds the responder's divergence
  /// estimator).
  std::uint32_t set_size = 0;
  reconcile::ShortIdSketch sketch;
};

/// Responder's answer to a sketch: on successful peel, the short ids the
/// responder lacks (`want`); on decode failure only the flag, and the
/// initiator bisects or gives up. Responder-only transactions are pushed
/// directly as MsgTx alongside this message — the decoded sketch proves the
/// initiator lacks them, so no announcement handshake is needed and the push
/// can never duplicate a payload the way blind tx-flooding would.
struct MsgReconDiff {
  std::uint32_t round = 0;
  std::uint8_t part = 0;
  bool decode_failed = false;
  /// Responder's set size for this part (feeds the initiator's estimator).
  std::uint32_t set_size = 0;
  /// How many responder-only transactions were pushed alongside this diff
  /// (feeds the initiator's estimator; the bodies travel as MsgTx).
  std::uint32_t have_count = 0;
  std::vector<std::uint64_t> want;
  /// Fallback announcements for responder-only transactions whose bodies
  /// were no longer available to push (e.g. mined out of the mempool
  /// mid-round); the initiator fetches these with getdata.
  std::vector<util::Hash256> have_txs;
};

/// Abandons the sketch path for a round after both bisection halves failed
/// to decode: `tx_ids` is the initiator's entire pending set, and the
/// responder answers by announcing its own full pending set back as a plain
/// inv. (The successful path needs no closing message: wants are resolved by
/// direct MsgTx pushes.)
struct MsgReconFinalize {
  std::uint32_t round = 0;
  bool full_inv = false;
  std::vector<util::Hash256> tx_ids;
};

using Message = std::variant<MsgInv, MsgGetHeaders, MsgHeaders, MsgGetData, MsgBlock, MsgNotFound,
                             MsgTx, MsgGetAddr, MsgAddr, MsgCmpctBlock, MsgGetBlockTxn,
                             MsgBlockTxn, MsgReconSketch, MsgReconDiff, MsgReconFinalize>;

/// Maximum headers per headers message, as in Bitcoin.
constexpr std::size_t kMaxHeadersPerMsg = 2000;

/// Approximate serialized size of a message, used for the latency model.
std::size_t message_size(const Message& msg);

}  // namespace icbtc::btcnet
