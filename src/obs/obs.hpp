#pragma once

/// \file obs.hpp
/// Umbrella header and process lifecycle for the irf::obs telemetry
/// subsystem (see docs/OBSERVABILITY.md). Environment contract:
///
///   IRF_TRACE    unset/0  tracing off (default)
///                1 | on   collect spans; caller exports via --trace-out/API
///                <path>   collect spans and write Chrome trace JSON to
///                         <path> at process exit
///   IRF_METRICS  unset | 1 | on   metric collection on, no automatic output
///                0 | off          metric collection off (near-zero overhead)
///                <path>           collection on; write the JSON snapshot to
///                                 <path> at process exit
///   IRF_LOG_LEVEL  quiet|normal|verbose (or 0|1|2); default normal
///
/// `init_from_env()` is idempotent and cheap after the first call; entry
/// points (irf_cli, the bench harness via enable_bench_metrics()) call it at
/// startup, and the exporters below invoke it lazily. It deliberately does
/// NOT run as a side effect of irf::resolve_scale_from_env(): common sits
/// below obs in the layering DAG (tools/analyze/layers.conf).

#include <string>

#include "obs/json.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace irf::obs {

/// Apply IRF_TRACE / IRF_METRICS / IRF_LOG_LEVEL once per process and
/// register the at-exit exporters they request. Throws irf::ConfigError on
/// a malformed IRF_LOG_LEVEL.
void init_from_env();

/// Write the collected spans as Chrome trace-event JSON ("traceEvents"
/// array of complete "X" events, timestamps in microseconds). Open the file
/// in chrome://tracing or https://ui.perfetto.dev. Throws irf::Error when
/// the file cannot be written.
void write_chrome_trace(const std::string& path);

/// Serialize the collected spans without touching the filesystem.
std::string chrome_trace_json();

/// Write the metrics snapshot as JSON ({"counters":{},"gauges":{},
/// "timers":{},"histograms":{}}). Timer entries carry latency quantiles
/// (p50/p90/p99/p999 seconds) alongside count/total/mean/min/max. This is
/// the one metrics export; it is valid (empty-object) JSON even when
/// nothing was recorded.
void write_metrics_json(const std::string& path);

/// Serialize the metrics snapshot without touching the filesystem.
std::string metrics_json();

/// Bench-harness hook: enable metric collection (unless IRF_METRICS=0
/// explicitly disabled it) and arrange for BENCH_<name>.json to be written
/// in the working directory when the process exits cleanly.
void enable_bench_metrics(const std::string& bench_name);

}  // namespace irf::obs
