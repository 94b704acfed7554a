// Tests for the irf::par work-sharing runtime: pool lifecycle, exception
// propagation out of parallel_for, and the determinism contract — solver
// residual histories and conv2d forward/backward outputs must be
// bit-identical for any thread count.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "linalg/vector_ops.hpp"
#include "nn/ops.hpp"
#include "par/par.hpp"
#include "pg/generator.hpp"
#include "pg/mna.hpp"
#include "solver/amg_pcg.hpp"

namespace irf {
namespace {

/// Restore a single-width pool when a test exits, so suites stay isolated.
struct PoolGuard {
  ~PoolGuard() { par::set_num_threads(1); }
};

TEST(ParPool, LifecycleAndConfiguration) {
  PoolGuard guard;
  EXPECT_GE(par::hardware_threads(), 1);
  par::set_num_threads(3);
  EXPECT_EQ(par::num_threads(), 3);
  EXPECT_THROW(par::set_num_threads(0), ConfigError);
  EXPECT_EQ(par::num_threads(), 3);

  // shutdown() joins the workers; the next parallel call re-spawns them.
  par::shutdown();
  std::vector<int> hits(1000, 0);
  par::parallel_for(0, 1000, 16, [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t i = lo; i < hi; ++i) ++hits[static_cast<std::size_t>(i)];
  });
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(ParPool, ParseThreadsEnv) {
  EXPECT_EQ(par::parse_threads_env(nullptr), par::hardware_threads());
  EXPECT_EQ(par::parse_threads_env(""), par::hardware_threads());
  EXPECT_EQ(par::parse_threads_env("0"), par::hardware_threads());
  EXPECT_EQ(par::parse_threads_env("1"), 1);
  EXPECT_EQ(par::parse_threads_env("8"), 8);
  // Bad values never throw (the parse runs lazily inside parallel_for):
  // garbage falls back to hardware concurrency, out-of-range clamps.
  EXPECT_EQ(par::parse_threads_env("abc"), par::hardware_threads());
  EXPECT_EQ(par::parse_threads_env("4x"), par::hardware_threads());
  EXPECT_EQ(par::parse_threads_env(" 4093"), par::hardware_threads());  // blank-led
  EXPECT_EQ(par::parse_threads_env("-2"), 1);
  EXPECT_EQ(par::parse_threads_env("100000"), 4096);
  EXPECT_EQ(par::parse_threads_env("99999999999999999999"), par::hardware_threads());
}

TEST(ParPool, ParallelForCoversRangeOnce) {
  PoolGuard guard;
  for (int threads : {1, 4}) {
    par::set_num_threads(threads);
    std::vector<std::atomic<int>> hits(4097);
    for (auto& h : hits) h.store(0);
    par::parallel_for(0, static_cast<std::int64_t>(hits.size()), 64,
                      [&](std::int64_t lo, std::int64_t hi) {
                        for (std::int64_t i = lo; i < hi; ++i) {
                          hits[static_cast<std::size_t>(i)].fetch_add(1);
                        }
                      });
    for (auto& h : hits) EXPECT_EQ(h.load(), 1) << "threads=" << threads;
  }
}

TEST(ParPool, ExceptionPropagatesAndPoolSurvives) {
  PoolGuard guard;
  par::set_num_threads(4);
  EXPECT_THROW(
      par::parallel_for(0, 10000, 32,
                        [&](std::int64_t lo, std::int64_t) {
                          if (lo >= 5000) throw NumericError("chunk failure");
                        }),
      NumericError);

  // The pool must stay usable after rethrowing.
  std::atomic<std::int64_t> sum{0};
  par::parallel_for(0, 1000, 10, [&](std::int64_t lo, std::int64_t hi) {
    std::int64_t s = 0;
    for (std::int64_t i = lo; i < hi; ++i) s += i;
    sum.fetch_add(s);
  });
  EXPECT_EQ(sum.load(), 1000ll * 999 / 2);
}

TEST(ParPool, ReduceIsDeterministicAcrossThreadCounts) {
  PoolGuard guard;
  Rng rng(42);
  linalg::Vec a(100000), b(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    a[i] = rng.normal();
    b[i] = rng.normal();
  }
  par::set_num_threads(1);
  const double d1 = linalg::dot(a, b);
  par::set_num_threads(4);
  const double d4 = linalg::dot(a, b);
  EXPECT_EQ(d1, d4);  // bit-identical, not just close
}

solver::SolveResult rough_solve(const pg::MnaSystem& sys) {
  solver::AmgPcgSolver amg_solver(sys.conductance);
  return amg_solver.solve_rough(sys.rhs, 8);
}

TEST(ParDeterminism, SolverResidualHistoryBitIdentical) {
  PoolGuard guard;
  Rng rng(7);
  pg::PgDesign design = pg::generate_fake_design(48, rng, "par_det");
  pg::MnaSystem sys = pg::assemble_mna(design.netlist);

  par::set_num_threads(1);
  const solver::SolveResult r1 = rough_solve(sys);
  par::set_num_threads(4);
  const solver::SolveResult r4 = rough_solve(sys);

  ASSERT_EQ(r1.residual_history.size(), r4.residual_history.size());
  for (std::size_t i = 0; i < r1.residual_history.size(); ++i) {
    EXPECT_EQ(r1.residual_history[i], r4.residual_history[i]) << "iteration " << i;
  }
  ASSERT_EQ(r1.x.size(), r4.x.size());
  for (std::size_t i = 0; i < r1.x.size(); ++i) EXPECT_EQ(r1.x[i], r4.x[i]);
}

struct ConvRun {
  std::vector<float> y;
  std::vector<float> dx;
  std::vector<float> dw;
  std::vector<float> db;
};

/// One conv2d forward + backward at sizes large enough to engage the
/// parallel GEMM/im2col paths (work >> the inline threshold).
ConvRun run_conv() {
  Rng rng(123);
  const nn::Shape xs{2, 16, 32, 32};
  const nn::Shape ws{16, 16, 3, 3};
  std::vector<float> xd(static_cast<std::size_t>(xs.numel()));
  std::vector<float> wd(static_cast<std::size_t>(ws.numel()));
  std::vector<float> bd(16);
  for (float& v : xd) v = static_cast<float>(rng.normal());
  for (float& v : wd) v = static_cast<float>(rng.normal()) * 0.1f;
  for (float& v : bd) v = static_cast<float>(rng.normal()) * 0.1f;
  nn::Tensor x = nn::Tensor::from_data(xs, xd, /*requires_grad=*/true);
  nn::Tensor w = nn::Tensor::from_data(ws, wd, /*requires_grad=*/true);
  nn::Tensor b = nn::Tensor::from_data({1, 16, 1, 1}, bd, /*requires_grad=*/true);

  nn::Tensor y = nn::conv2d(x, w, b);
  nn::Tensor loss = nn::mse_loss(y, nn::Tensor::zeros(y.shape()));
  loss.backward();
  return ConvRun{y.data(), x.grad(), w.grad(), b.grad()};
}

TEST(ParDeterminism, Conv2dForwardBackwardBitIdentical) {
  PoolGuard guard;
  par::set_num_threads(1);
  const ConvRun r1 = run_conv();
  par::set_num_threads(4);
  const ConvRun r4 = run_conv();

  ASSERT_EQ(r1.y.size(), r4.y.size());
  for (std::size_t i = 0; i < r1.y.size(); ++i) EXPECT_EQ(r1.y[i], r4.y[i]);
  ASSERT_EQ(r1.dx.size(), r4.dx.size());
  for (std::size_t i = 0; i < r1.dx.size(); ++i) EXPECT_EQ(r1.dx[i], r4.dx[i]);
  ASSERT_EQ(r1.dw.size(), r4.dw.size());
  for (std::size_t i = 0; i < r1.dw.size(); ++i) EXPECT_EQ(r1.dw[i], r4.dw[i]);
  ASSERT_EQ(r1.db.size(), r4.db.size());
  for (std::size_t i = 0; i < r1.db.size(); ++i) EXPECT_EQ(r1.db[i], r4.db[i]);
}

TEST(ParPool, ConcurrentTopLevelCallsAreSerialized) {
  // Regression for a real race: two user threads issuing top-level
  // parallel_for calls used to overwrite the pool's single-occupancy job
  // broadcast state (fn/ctx/chunk cursor) under each other, corrupting both
  // ranges. run() now serializes top-level regions, so every element must
  // come out exactly right. Run under TSan to pin the synchronization.
  PoolGuard guard;
  par::set_num_threads(4);
  constexpr std::int64_t kN = 20000;
  constexpr int kRounds = 20;
  std::vector<std::int64_t> a(kN, 0), b(kN, 0);
  std::atomic<int> failures{0};
  auto hammer = [&](std::vector<std::int64_t>& out, std::int64_t scale) {
    try {
      for (int round = 0; round < kRounds; ++round) {
        par::parallel_for(0, kN, 64, [&out, scale](std::int64_t lo, std::int64_t hi) {
          for (std::int64_t i = lo; i < hi; ++i) out[i] += scale * i;
        });
      }
    } catch (...) {
      failures.fetch_add(1);
    }
  };
  std::thread t1(hammer, std::ref(a), 1);
  std::thread t2(hammer, std::ref(b), 3);
  t1.join();
  t2.join();
  ASSERT_EQ(failures.load(), 0);
  for (std::int64_t i = 0; i < kN; ++i) {
    ASSERT_EQ(a[i], kRounds * i) << "index " << i;
    ASSERT_EQ(b[i], 3 * kRounds * i) << "index " << i;
  }
}

}  // namespace
}  // namespace irf
