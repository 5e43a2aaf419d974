// Reference answers for the canister's read endpoints (§III-C), for tests
// and benches only: no production library links this target.
//
// The canister serves get_utxos/get_balance from per-block deltas and a
// synced spent index (canister/unstable_index.h). This oracle answers the
// same requests the naive way: every call scans the unstable blocks of the
// considered chain transaction by transaction, from the anchor up to the
// considered height and the first block without data, then merges the
// stable set. It reads only the canister's public state (is_synced(),
// config(), header_tree(), the window's parsed blocks and stable_utxos())
// and never changes it.
//
// Contract: for the same canister state and request, the outcome — status,
// UTXOs, tip and page-token bytes — equals the canister's, and `meter` is
// charged exactly the instructions the canister's own meter segment shows
// for that call.
#pragma once

#include <string>

#include "canister/bitcoin_canister.h"
#include "ic/metering.h"

namespace icbtc::oracles {

canister::Outcome<canister::GetUtxosResponse> scan_get_utxos(
    const canister::BitcoinCanister& canister, const canister::GetUtxosRequest& request,
    ic::InstructionMeter& meter);

canister::Outcome<bitcoin::Amount> scan_get_balance(const canister::BitcoinCanister& canister,
                                                    const std::string& address,
                                                    int min_confirmations,
                                                    ic::InstructionMeter& meter);

}  // namespace icbtc::oracles
