#pragma once

/// \file workloads.hpp
/// The benchmark's three served workloads (perfbench/README.md). Each run
/// generates its designs from the workload seed, fits and serves a model
/// through serve::Engine, checks every output, and returns its metrics by
/// name. A traced run additionally replays the request sequence through the
/// layers' public functions inside benchmark-owned spans.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Seed reserved for later performance claims: tune on any other seed, then
/// confirm a claimed gain on this one.
inline constexpr std::uint64_t kHeldOutSeed = 9001;

/// Pool width pinned for every run (IRF_THREADS semantics: the dispatcher
/// thread runs chunks too, so 2 means the dispatcher plus 1 worker). With
/// the one generator thread that is 3 busy threads at most, which leaves a
/// vCPU of a 4-vCPU host to the OS. Measured run-to-run spread on a shared
/// 4-vCPU host: one thread spreads most (a single thread takes every slow
/// phase of its core in full), two and three spread alike.
inline constexpr int kPinnedThreads = 2;

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".";  ///< checkpoint and span files go here
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunReport {
  bool correct = true;
  long attempted = 0;
  long failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> problems;  ///< every failed check, one line each
  std::vector<std::pair<std::string, double>> context;  ///< sizes, counts, settings
};

/// Workload names in BENCHMARK.json order.
std::vector<std::string> workload_names();

/// Run one workload end to end. Throws std::invalid_argument for an unknown
/// workload name.
RunReport run_workload(const RunOptions& options);

}  // namespace perfbench
