// Conjugate-gradient solve with simulated communication accounting.
//
//   $ ./cg_solver [grid_n] [num_gpus]
//
// Solves a 2D Poisson problem with unpreconditioned CG, computing the real
// numerics sequentially while simulating the distributed run's
// communication on a Lassen-like machine: each iteration performs one SpMV
// halo exchange (via a persistent NeighborhoodExchange) and two allreduce
// calls for the dot products.  Reports iteration counts, residuals, and the
// simulated communication time per strategy -- the end-to-end view of why
// strategy choice matters for solvers (paper §2.3.3 / ref [16]).  The last
// line is a digest of every strategy's final per-rank clocks, bit pattern
// by bit pattern, so a clock change below the table's three significant
// digits still shows.  A bad argument prints `cg_solver: <error>` and
// exits 2.

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <iostream>
#include <stdexcept>
#include <vector>

#include "benchutil/bench_options.hpp"
#include "benchutil/table.hpp"
#include "core/executor.hpp"
#include "core/neighborhood.hpp"
#include "sparse/comm_graph.hpp"
#include "sparse/generators.hpp"

using namespace hetcomm;

namespace {

double dot(const std::vector<double>& a, const std::vector<double>& b) {
  double s = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) s += a[i] * b[i];
  return s;
}

void axpy(double alpha, const std::vector<double>& x, std::vector<double>& y) {
  for (std::size_t i = 0; i < y.size(); ++i) y[i] += alpha * x[i];
}

// A recursive-doubling allreduce of one 8-byte double over `group` (world
// ranks).  With p the largest power of two <= n = group.size(), ranks p..
// first fold into ranks 0.., the first p ranks then swap with the partner
// at distance 1, 2, 4, ... (both directions in one phase), and the folded
// ranks finally get the result back.
core::CommPlan allreduce_plan(const std::vector<int>& group) {
  const int n = static_cast<int>(group.size());
  int p = 1;
  while (p * 2 <= n) p *= 2;
  core::CommPlan plan;
  const auto post = [&](int src, int dst, int tag) {
    plan.phases.back().ops.push_back(core::PlanOp::message(
        group[static_cast<std::size_t>(src)],
        group[static_cast<std::size_t>(dst)], 8, tag, MemSpace::Host));
  };
  if (n > p) {
    plan.phases.emplace_back();
    for (int r = 0; p + r < n; ++r) post(p + r, r, 9006);
  }
  for (int dist = 1; dist < p; dist *= 2) {
    plan.phases.emplace_back();
    for (int r = 0; r < p; ++r) {
      const int peer = r ^ dist;
      if (peer < r) continue;  // each pair once, both directions
      post(r, peer, 9006 + dist);
      post(peer, r, 9006 + dist);
    }
  }
  if (n > p) {
    plan.phases.emplace_back();
    for (int r = 0; p + r < n; ++r) post(r, p + r, 9007);
  }
  return plan;
}

int run(int argc, char** argv) {
  const std::int64_t grid =
      argc > 1 ? benchutil::parse_number<std::int64_t>(argv[1], "grid_n")
               : 96;
  const int num_gpus =
      argc > 2 ? benchutil::parse_number<int>(argv[2], "num_gpus") : 32;
  if (num_gpus < 4 || num_gpus % 4 != 0) {
    throw std::invalid_argument("num_gpus must be a positive multiple of 4");
  }

  const sparse::CsrMatrix a = sparse::mesh_laplacian_2d(grid, grid);
  const std::int64_t n = a.rows();
  std::cout << "CG on a " << grid << "x" << grid << " Poisson problem (n="
            << n << "), partitioned across " << num_gpus << " GPUs.\n";

  // ---- Numerics: plain CG, Ax = b with b = A * ones. ----
  const std::vector<double> ones(static_cast<std::size_t>(n), 1.0);
  const std::vector<double> b = sparse::spmv(a, ones);
  std::vector<double> x(static_cast<std::size_t>(n), 0.0);
  std::vector<double> r = b;
  std::vector<double> p = r;
  double rho = dot(r, r);
  const double tol2 = 1e-20 * rho;

  int iterations = 0;
  const int max_iterations = 2000;
  while (rho > tol2 && iterations < max_iterations) {
    const std::vector<double> ap = sparse::spmv(a, p);
    const double alpha = rho / dot(p, ap);
    axpy(alpha, p, x);
    axpy(-alpha, ap, r);
    const double rho_next = dot(r, r);
    for (std::size_t i = 0; i < p.size(); ++i) {
      p[i] = r[i] + (rho_next / rho) * p[i];
    }
    rho = rho_next;
    ++iterations;
  }
  double err = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    err = std::max(err, std::abs(x[i] - 1.0));
  }
  std::cout << "Converged in " << iterations
            << " iterations, max |x - 1| = " << err << "\n\n";

  // ---- Communication accounting per strategy. ----
  const Topology topo(presets::lassen(num_gpus / 4));
  const ParamSet params = lassen_params();
  const sparse::RowPartition part =
      sparse::RowPartition::contiguous(n, num_gpus);
  const core::CommPattern pattern =
      sparse::spmv_comm_pattern(a, part, topo);

  benchutil::Table table({"strategy", "per-iter comm [s]", "solve comm [s]",
                          "vs best"});
  struct Row {
    std::string name;
    double per_iter;
  };
  std::vector<Row> rows;
  double best = 1e99;
  // One iteration's communication: the halo exchange plus two allreduce
  // calls over the GPU-owner ranks (pipelined dot products would reduce
  // this; we model textbook CG).  The allreduces run on the same engine,
  // so they start from the clocks the halo exchange left.
  std::vector<int> owners;
  for (int g = 0; g < topo.num_gpus(); ++g) {
    owners.push_back(topo.owner_rank_of_gpu(g));
  }
  const core::CommPlan allreduce = allreduce_plan(owners);
  std::uint64_t digest = 0xcbf29ce484222325ULL;  // FNV-1a over 64-bit words
  for (const core::StrategyConfig& cfg : core::table5_strategies()) {
    const core::NeighborhoodExchange exchange(pattern, topo, params, cfg);
    Engine engine(topo, params, NoiseModel(2024, 0.02));
    exchange.execute(engine);
    core::run_plan(engine, allreduce);
    core::run_plan(engine, allreduce);
    const double per_iter = engine.max_clock();
    for (const double clock : engine.clocks()) {
      digest ^= std::bit_cast<std::uint64_t>(clock);
      digest *= 0x100000001b3ULL;
    }
    rows.push_back({cfg.name(), per_iter});
    best = std::min(best, per_iter);
  }
  for (const Row& row : rows) {
    table.add_row({row.name, benchutil::Table::sci(row.per_iter),
                   benchutil::Table::sci(row.per_iter * iterations),
                   benchutil::Table::num(row.per_iter / best, 2)});
  }
  table.print(std::cout);

  std::cout << "\nEach CG iteration = 1 halo exchange + 2 allreduces; the\n"
            << "solve column extrapolates over all " << iterations
            << " iterations.\n";
  char line[64];
  std::snprintf(line, sizeof line, "final-clock digest: 0x%016llx\n",
                static_cast<unsigned long long>(digest));
  std::cout << line;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "cg_solver: " << e.what() << "\n";
    return 2;
  }
}
