// Figure 3 + stability-calculus microbenchmarks.
//
// Regenerates the paper's Fig. 3 (confirmation-based stability annotated on
// a forked block tree) and measures the cost of the HeaderTree operations
// the adapter and canister run on every block arrival.
#include <benchmark/benchmark.h>

#include <cstdio>

#include "bitcoin/script.h"
#include "chain/block_builder.h"

namespace {

using namespace icbtc;

struct TreeBuilder {
  const bitcoin::ChainParams& params = bitcoin::ChainParams::regtest();
  chain::HeaderTree tree{params, params.genesis_header};
  std::uint32_t time = params.genesis_header.time;
  std::uint32_t salt = 0;

  util::Hash256 extend(const util::Hash256& parent) {
    util::Hash256 merkle;
    merkle.data[0] = static_cast<std::uint8_t>(++salt);
    merkle.data[1] = static_cast<std::uint8_t>(salt >> 8);
    merkle.data[2] = static_cast<std::uint8_t>(salt >> 16);
    time += 600;
    auto header = chain::build_child_header(tree, parent, time, merkle);
    tree.accept(header, static_cast<std::int64_t>(time) + 100000);
    return header.hash();
  }

  std::vector<util::Hash256> chain_of(const util::Hash256& from, int n) {
    std::vector<util::Hash256> out;
    util::Hash256 tip = from;
    for (int i = 0; i < n; ++i) {
      tip = extend(tip);
      out.push_back(tip);
    }
    return out;
  }
};

void print_figure3() {
  std::printf("\n--- Figure 3: confirmation-based stability on a forked tree ---\n");
  TreeBuilder b;
  auto main_chain = b.chain_of(b.tree.root_hash(), 6);
  auto fork_a = b.chain_of(main_chain[0], 2);  // heights 2-3
  auto fork_b = b.chain_of(main_chain[0], 1);  // height 2

  auto name_of = [&](const util::Hash256& h) -> std::string {
    for (std::size_t i = 0; i < main_chain.size(); ++i) {
      if (main_chain[i] == h) return std::string("m").append(std::to_string(i + 1));
    }
    for (std::size_t i = 0; i < fork_a.size(); ++i) {
      if (fork_a[i] == h) return std::string("a").append(std::to_string(i + 1));
    }
    if (fork_b[0] == h) return "b1";
    return "g";
  };

  std::printf("%-6s %-7s %-5s %-10s\n", "block", "height", "d_c", "stability");
  for (int h = 0; h <= b.tree.max_height(); ++h) {
    for (const auto& hash : b.tree.blocks_at_height(h)) {
      std::printf("%-6s %-7d %-5d %-10d\n", name_of(hash).c_str(), h, b.tree.depth_count(hash),
                  b.tree.confirmation_stability(hash));
    }
  }
  std::printf("Properties (paper §II-C): at most one δ-stable block per height;\n");
  std::printf("losing-fork stability is negative; stability stagnates under racing forks.\n\n");
}

void BM_HeaderAccept(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    TreeBuilder b;
    auto chain = b.chain_of(b.tree.root_hash(), static_cast<int>(state.range(0)) - 1);
    util::Hash256 parent = chain.empty() ? b.tree.root_hash() : chain.back();
    util::Hash256 merkle;
    merkle.data[5] = 0x99;
    b.time += 600;
    auto header = chain::build_child_header(b.tree, parent, b.time, merkle);
    state.ResumeTiming();
    benchmark::DoNotOptimize(b.tree.accept(header, static_cast<std::int64_t>(b.time) + 100000));
  }
}
BENCHMARK(BM_HeaderAccept)->Arg(16)->Arg(64)->Arg(256);

void BM_ConfirmationStability(benchmark::State& state) {
  TreeBuilder b;
  auto chain = b.chain_of(b.tree.root_hash(), static_cast<int>(state.range(0)));
  // A racing fork makes the competitor scan non-trivial.
  b.chain_of(b.tree.root_hash(), static_cast<int>(state.range(0)) / 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(b.tree.confirmation_stability(chain[0]));
  }
}
BENCHMARK(BM_ConfirmationStability)->Arg(16)->Arg(64)->Arg(256);

void BM_DifficultyStability(benchmark::State& state) {
  TreeBuilder b;
  auto chain = b.chain_of(b.tree.root_hash(), static_cast<int>(state.range(0)));
  b.chain_of(b.tree.root_hash(), 4);
  crypto::U256 ref = b.tree.root().block_work;
  for (auto _ : state) {
    benchmark::DoNotOptimize(b.tree.is_difficulty_stable(chain[0], 6, ref));
  }
}
BENCHMARK(BM_DifficultyStability)->Arg(16)->Arg(64)->Arg(256);

void BM_Reroot(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    TreeBuilder b;
    auto chain = b.chain_of(b.tree.root_hash(), static_cast<int>(state.range(0)));
    b.chain_of(b.tree.root_hash(), 3);  // fork to prune
    state.ResumeTiming();
    b.tree.reroot(chain[0]);
    benchmark::DoNotOptimize(b.tree.size());
  }
}
BENCHMARK(BM_Reroot)->Arg(16)->Arg(64)->Arg(256);

}  // namespace

int main(int argc, char** argv) {
  print_figure3();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
