#pragma once

/// \file par.hpp
/// Work-sharing runtime for the hot numerical paths (SpMV, PCG vector ops,
/// im2col/GEMM convolutions, feature fan-out).
///
/// Design contract (see docs/PERFORMANCE.md):
///
///  * One lazily-initialized fixed pool per process. The thread count comes
///    from `IRF_THREADS` (default: hardware_concurrency; `1` disables the
///    pool cleanly — no worker threads are ever spawned; `0` means "auto").
///  * `parallel_for` splits [begin, end) into fixed chunks of `grain`
///    indices; workers pull chunks off a shared counter. Ranges no larger
///    than one grain run inline on the calling thread, as do nested calls
///    issued from inside a pool task, so callers never deadlock.
///  * `parallel_reduce` is **deterministic**: the chunk layout depends only
///    on (begin, end, grain) — never on the thread count — and per-chunk
///    partials are combined on the calling thread in ascending chunk order.
///    Results are therefore bit-identical for any IRF_THREADS value.
///  * The first exception thrown by a chunk cancels the remaining chunks
///    and is rethrown on the calling thread.
///
/// Telemetry: the pool registers the `par.threads` gauge on (re)configure,
/// and each chunk executed by a pool worker emits a `par_chunk` span when
/// tracing is on, so Chrome traces show the fan-out per thread lane.

#include <algorithm>
#include <cstdint>
#include <type_traits>
#include <vector>

namespace irf::par {

/// Best-effort hardware thread count (>= 1).
int hardware_threads();

/// Configured pool width. First call resolves IRF_THREADS; later calls are
/// a relaxed atomic load. Always >= 1; 1 means "everything runs inline".
int num_threads();

/// Reconfigure the pool to exactly `n` threads (n >= 1; n == 1 joins every
/// worker). Tests use this to compare thread counts inside one process; it
/// must not be called concurrently with parallel work.
void set_num_threads(int n);

/// Join all workers. Safe to call at any time; the next parallel call
/// re-spawns the configured width. Mainly for leak-checking tests.
void shutdown();

/// Parse an IRF_THREADS-style value: nullptr/"" / "0" -> hardware_threads(),
/// a positive integer -> itself. Never throws: a non-integer warns and
/// falls back to hardware_threads(), a negative value warns and clamps to
/// 1, a value above 4096 warns and clamps to 4096.
int parse_threads_env(const char* value);

/// Default chunk size for elementwise vector loops.
inline constexpr std::int64_t kVecGrain = 1 << 13;
/// Default chunk size for reductions (dot products, loss sums).
inline constexpr std::int64_t kReduceGrain = 1 << 12;
/// Default chunk size for sparse row loops (SpMV).
inline constexpr std::int64_t kRowGrain = 512;

namespace detail {

using RangeFn = void (*)(void* ctx, std::int64_t begin, std::int64_t end);

/// Type-erased core. Splits [begin, end) into grain-sized chunks and runs
/// them on the pool (or inline when the pool is disabled, the range fits in
/// one chunk, or the caller is itself a pool task).
void parallel_for_impl(std::int64_t begin, std::int64_t end, std::int64_t grain,
                       RangeFn fn, void* ctx);

}  // namespace detail

/// Run `body(chunk_begin, chunk_end)` over [begin, end) in grain-sized
/// chunks. Chunks are disjoint and cover the range exactly once; the body
/// must only write state owned by its chunk.
template <typename Body>
void parallel_for(std::int64_t begin, std::int64_t end, std::int64_t grain,
                  Body&& body) {
  using Fn = std::remove_reference_t<Body>;
  detail::parallel_for_impl(
      begin, end, grain,
      [](void* ctx, std::int64_t b, std::int64_t e) { (*static_cast<Fn*>(ctx))(b, e); },
      const_cast<std::remove_const_t<Fn>*>(&body));
}

/// Deterministic chunked reduction: `map(chunk_begin, chunk_end)` produces a
/// partial per chunk, and `combine(acc, partial)` folds the partials in
/// ascending chunk order on the calling thread. The chunk layout (and hence
/// the floating-point result) depends only on (begin, end, grain).
template <typename T, typename Map, typename Combine>
T parallel_reduce(std::int64_t begin, std::int64_t end, std::int64_t grain, T identity,
                  Map&& map, Combine&& combine) {
  const std::int64_t n = end - begin;
  if (n <= 0) return identity;
  const std::int64_t g = std::max<std::int64_t>(1, grain);
  const std::int64_t nchunks = (n + g - 1) / g;
  std::vector<T> partials(static_cast<std::size_t>(nchunks), identity);
  parallel_for(0, nchunks, 1, [&](std::int64_t cb, std::int64_t ce) {
    for (std::int64_t c = cb; c < ce; ++c) {
      const std::int64_t b = begin + c * g;
      partials[static_cast<std::size_t>(c)] = map(b, std::min(end, b + g));
    }
  });
  T acc = identity;
  for (const T& p : partials) acc = combine(acc, p);
  return acc;
}

}  // namespace irf::par
