// Traced-run ledger: splits the time the benchmark's own calls block into
// the layer each part was spent in, from the span records the stack emits
// (one CLOCK_MONOTONIC clock across the client and the forked worker).
//
// Span shapes it relies on:
//   bench.<call>   around each timed CudaApi call (this benchmark);
//   client.<Op>    grdLib, one per request round trip (same trace id as the
//                  enclosing bench span, which is the ambient context); a
//                  call that first flushes the batch buffer wraps the
//                  client.Batch round trip;
//   <Handler>      dispatch, parented to the client span's id (batched
//                  sub-ops nest inside the Batch handler on the same thread);
//   queue.wait, exec.t<N>.<kernel>, sandbox.*  parented to their handler.
//
// Self time of a span = its duration minus the union of the parts of its
// interval that its children cover.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/trace.hpp"

namespace perfbench {

struct Ledger {
  std::vector<double> client_self_us;   // bench span minus its client spans
  std::vector<double> transit_us;       // client span minus handler span
  std::vector<double> transit_launch_us;  // ... for LaunchKernel / Batch
  std::map<std::string, std::vector<double>> transit_by_op;
  std::vector<double> dispatch_self_us;  // handler minus its children
  std::vector<double> queue_wait_us;
  std::vector<double> exec_us;
  // Blocking-path time per layer, summed over all bench spans, and the sum
  // of the bench spans themselves (the shares' denominator).
  std::map<std::string, double> layer_total_us;
  double bench_total_us = 0.0;
  std::uint64_t spans = 0;
};

Ledger BuildLedger(const std::vector<grd::obs::SpanRecord>& records);

}  // namespace perfbench
