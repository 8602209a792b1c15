// Layer probes: each times one layer's public functions in isolation, away
// from co-tenant traffic, and reports a median with its sample count.
#pragma once

#include <cstdint>

#include "common/status.hpp"
#include "util.hpp"

namespace perfbench {

// grdlib.*, ipc.*, dispatch.*, copy/simgpu/bounds_table, ptx/ptxpatcher/
// ptxexec/sandbox_cache. Output checks the probes make land in `tally`.
grd::Status RunLayerProbes(MetricList* metrics, Tally* tally);

// Native reference: train_step's tenants on simcuda::NativeCuda (one
// simulated device each) against the same tenants on the Guardian stack,
// `seconds` each. Reports native.train_steps_per_s and native.overhead_pct.
grd::Status RunNativeReference(std::uint64_t seed, double seconds,
                               MetricList* metrics, Tally* tally);

}  // namespace perfbench
