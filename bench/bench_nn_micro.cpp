// Micro-benchmarks of the NN substrate (google-benchmark): conv2d forward
// and backward, the attention blocks, and full IR-Fusion model forwards at
// batch 1 and 8. The model forwards record the per-block span timers
// (model_stem, ..., model_head) into BENCH_bench_nn_micro.json.

#include <benchmark/benchmark.h>

#include "common/rng.hpp"
#include "models/blocks.hpp"
#include "models/unet.hpp"
#include "nn/ops.hpp"
#include "obs/obs.hpp"

namespace {

using namespace irf;
using nn::Shape;
using nn::Tensor;

Tensor random_tensor(Shape s, bool requires_grad = false) {
  Rng rng(7);
  std::vector<float> data(static_cast<std::size_t>(s.numel()));
  for (float& v : data) v = static_cast<float>(rng.normal());
  return Tensor::from_data(s, std::move(data), requires_grad);
}

void BM_Conv2dForward(benchmark::State& state) {
  const int c = static_cast<int>(state.range(0));
  Tensor x = random_tensor({1, c, 48, 48});
  Tensor w = random_tensor({c, c, 3, 3});
  for (auto _ : state) {
    Tensor y = nn::conv2d(x, w, Tensor{});
    benchmark::DoNotOptimize(y.data().data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * c * c * 9 * 48 *
                          48);
}
BENCHMARK(BM_Conv2dForward)->Arg(8)->Arg(16)->Arg(32);

void BM_Conv2dForwardBackward(benchmark::State& state) {
  const int c = static_cast<int>(state.range(0));
  Tensor x = random_tensor({1, c, 48, 48}, /*requires_grad=*/true);
  Tensor w = random_tensor({c, c, 3, 3}, /*requires_grad=*/true);
  for (auto _ : state) {
    Tensor y = nn::conv2d(x, w, Tensor{});
    Tensor loss = nn::mse_loss(y, Tensor::zeros(y.shape()));
    loss.backward();
    x.zero_grad();
    w.zero_grad();
    benchmark::DoNotOptimize(loss.scalar());
  }
}
BENCHMARK(BM_Conv2dForwardBackward)->Arg(8)->Arg(16);

void BM_CbamForward(benchmark::State& state) {
  Rng rng(9);
  models::Cbam cbam(16, rng);
  Tensor x = random_tensor({1, 16, 48, 48});
  for (auto _ : state) {
    Tensor y = cbam.forward(x);
    benchmark::DoNotOptimize(y.data().data());
  }
}
BENCHMARK(BM_CbamForward);

void BM_InceptionForward(benchmark::State& state) {
  Rng rng(10);
  models::Inception block(models::InceptionKind::kA, 16, 16, rng);
  Tensor x = random_tensor({1, 16, 24, 24});
  for (auto _ : state) {
    Tensor y = block.forward(x);
    benchmark::DoNotOptimize(y.data().data());
  }
}
BENCHMARK(BM_InceptionForward);

/// One eval-mode IR-Fusion forward as inference runs it (no tape). Args:
/// base channels, batch size; items are samples, so items/s compares
/// batch sizes per sample.
void BM_IrFusionModelForward(benchmark::State& state) {
  Rng rng(11);
  auto model = models::make_ir_fusion_net(21, static_cast<int>(state.range(0)), rng);
  model->set_training(false);
  const int batch = static_cast<int>(state.range(1));
  Tensor x = random_tensor({batch, 21, 48, 48});
  const nn::NoGradGuard no_grad;
  for (auto _ : state) {
    Tensor y = model->forward(x);
    benchmark::DoNotOptimize(y.data().data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * batch);
}
BENCHMARK(BM_IrFusionModelForward)->Args({4, 1})->Args({8, 1})->Args({8, 8});

}  // namespace

// Expanded BENCHMARK_MAIN() so the run leaves a BENCH_*.json metrics
// artifact next to google-benchmark's own report (see obs/obs.hpp).
int main(int argc, char** argv) {
  irf::obs::enable_bench_metrics("bench_nn_micro");
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
