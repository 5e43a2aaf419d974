// The benchmark's named workloads. Each generates its inputs from the seed,
// sets up (several times, reporting the median), measures for the requested
// seconds, checks the program's outputs, and fills in a Result.
#pragma once

#include "bench.h"

namespace perfbench {

/// Stable-set queries over bench_load's population: closed-loop capacity,
/// then an open-loop Poisson phase at a fixed rate.
Result run_query_stable(const Options& options);
/// Mainnet-shaped blocks ingested back-to-back over the population at δ=144.
Result run_ingest_mainnet(const Options& options);
/// The same canister and stream with blocks on a fixed cadence and the query
/// mix arriving open-loop on the same thread.
Result run_reads_during_ingest(const Options& options);
/// Wallet payouts through tECDSA, the subnet round loop, adapters and btcnet.
Result run_payout_roundtrip(const Options& options);

}  // namespace perfbench
