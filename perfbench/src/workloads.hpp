// The three co-tenancy workloads. Each builds two tenants against
// simcuda::CudaApi bindings (GrdLib in the benchmark proper, NativeCuda for
// the native reference), runs them on one client thread each, and checks
// every output against a host reference.
//
//  launch_storm    closed loop, 2 tenants, each with its own PTX module.
//                  Burst = 15 one-thread launches on a created stream
//                  (batched, 8 per kBatch) + cudaStreamSynchronize + one
//                  default-stream launch. Latency sample: the sync plus the
//                  closing launch. Tenant 0 also fires one seeded oob_writer
//                  launch at a canary in tenant 1's partition.
//  train_step      closed loop, 2 tenants sharing the cuBLAS module.
//                  Step = 8 MiB H2D + 8 MiB D2D + Sgemm 32^3 + Ddot, with
//                  the GEMM and dot results checked every step. Latency
//                  sample: the whole step.
//  infer_colocated open loop: a kRealtime tenant with Poisson arrivals
//                  (4 KiB H2D + saxpy 32x32 + checked 4 B D2H per request,
//                  timed from its due time) beside a kBatch tenant looping
//                  Sgemm 16^3 in a closed loop.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string_view>
#include <vector>

#include "simcuda/api.hpp"
#include "util.hpp"

namespace perfbench {

enum class Workload { kLaunchStorm, kTrainStep, kInferColocated };

std::optional<Workload> ParseWorkload(std::string_view name);
const char* WorkloadName(Workload workload);

// Partition each tenant of `workload` asks for at connect time.
std::uint64_t TenantMemory(Workload workload);

// Latency limit of the workload's latency samples for slo_met_share.
double SloLimitUs(Workload workload);

// What one run of a workload measured (both tenants merged).
struct RunResult {
  double elapsed_s = 0.0;
  std::uint64_t launches = 0;   // kernel launches completed
  std::uint64_t steps = 0;      // closed-loop units completed
  std::vector<double> latency_us;
  std::uint64_t slo_scheduled = 0;  // latency samples owed (incl. unsent)
  std::uint64_t slo_met = 0;        // ... completed correctly within limit
  std::uint64_t unsent = 0;         // open loop: due but never sent
  std::vector<double> lateness_us;  // open loop: send time - due time
  std::uint64_t batches_sent = 0;
  Tally tally;
};

// A workload's tenants, set up and ready to run.
class Session {
 public:
  virtual ~Session() = default;
  // Runs both tenants for `seconds` (or until `stop_early` returns true),
  // then performs the final readback checks.
  virtual RunResult Run(double seconds,
                        const std::function<bool()>& stop_early) = 0;
};

// Loads modules, allocates and fills buffers and creates library handles for
// both tenants of `workload`. `apis` must outlive the session.
grd::Result<std::unique_ptr<Session>> MakeSession(
    Workload workload, std::array<grd::simcuda::CudaApi*, 2> apis,
    std::uint64_t seed);

}  // namespace perfbench
