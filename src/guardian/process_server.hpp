// Process-mode manager deployment: a pool of FORKED grdManager worker
// processes pumping client shm rings against the SharedRegion serving state
// (shared_state.hpp), supervised by the parent.
//
// This is the paper's deployment shape taken to multi-worker scale: clients
// and manager workers live in separate address spaces and meet only in the
// MAP_SHARED region holding the rings and the shared registry. Division of
// labor:
//
//  - Parent (ProcessServer): creates the region, lays out channels, assigns
//    each channel a preferred worker, forks the workers, then supervises —
//    waitpid-reaps dead workers, fails their sessions in the shared
//    registry, writes synthetic error responses for requests a dead worker
//    consumed but never answered (so a blocked client's Call returns a
//    clean Unavailable instead of hanging), releases the dead worker's
//    channel claims and respawns a replacement into the same slot. The
//    parent never touches a GPU.
//
//  - Worker (forked child): constructs its own simulated GPU + GrdManager
//    bound to the shared state (pool-unique client ids, shared bounds,
//    shared ManagerStats), sticky-claims its preferred channels by CAS, and
//    runs one pump thread per claimed channel until the shared stop flag
//    rises. Each pump thread sleeps on its own request ring's futex
//    doorbell, so a request is picked up when it is published, and runs
//    its own tenant's handlers (transport.hpp's ServeChannelStep), so a
//    tenant blocked in a synchronous call, or a stalled reader whose
//    response is parked, holds up only its own thread. The thread count is
//    bounded by SharedServingLayout::max_channels. A worker crash takes
//    down only the sessions it owned: claims are sticky, so no other worker
//    ever held state for them.
//
// Crash-containment contract (proven by tests/process_mode_test.cpp and
// tests/adoption_test.cpp):
//  1. a SIGKILLed worker's in-flight requests answer with kUnavailable;
//  2. with respawn enabled, its journaled sessions are re-homed onto the
//     replacement worker (adoption_pending) and rebuilt from their shared
//     journals on first touch — same client id, same partition bounds;
//     sessions whose journal overflowed (or with respawn disabled) move to
//     kFailed and later requests get a clean "worker crashed" status;
//  3. sessions on surviving workers are untouched and keep serving;
//  4. the replacement worker accepts fresh registrations on the orphaned
//     channels.
#pragma once

#include <sys/types.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "guardian/execution.hpp"
#include "guardian/shared_state.hpp"
#include "ipc/channel.hpp"
#include "simgpu/device_spec.hpp"

namespace grd::guardian {

class GrdManager;

struct ProcessServerOptions {
  std::uint32_t workers = 2;
  std::uint32_t channels = 4;
  // Shared-registry capacities; ring_bytes sizes every channel's two rings.
  SharedServingLayout layout;
  // Options each worker's GrdManager is constructed with.
  ManagerOptions manager;
  // Device each worker simulates. Workers are replicas: device *memory* is
  // worker-private, the shared registry is the pool's control plane.
  simgpu::DeviceSpec device = simgpu::QuadroRtxA4000();
  // Additional devices EACH worker owns beyond `device` (multi-device
  // fleet): forwarded into ManagerOptions::extra_devices at fork time so
  // every worker places sessions across its local fleet and can live-migrate
  // between its devices.
  std::vector<simgpu::DeviceSpec> extra_devices;
  // Respawn crashed workers (tests may disable to observe the bare failure).
  bool respawn = true;
};

class ProcessServer {
 public:
  static Result<std::unique_ptr<ProcessServer>> Create(
      ProcessServerOptions options);
  ~ProcessServer();

  ProcessServer(const ProcessServer&) = delete;
  ProcessServer& operator=(const ProcessServer&) = delete;

  // Forks the workers and starts the supervision thread. Call once.
  Status Start();
  // Raises the shared stop flag, reaps every worker (escalating to SIGKILL
  // after a grace period) and joins supervision. Idempotent; also run by
  // the destructor.
  void Stop();

  const ProcessServerOptions& options() const noexcept { return options_; }
  SharedServingState& state() noexcept { return *state_; }
  // Client-side channel i. Clients forked from this process inherit the
  // mapping and may use this object (or re-wrap channel_region) directly.
  ipc::Channel& channel(std::uint32_t i) noexcept { return *channels_[i]; }

  pid_t worker_pid(std::uint32_t i) const noexcept {
    return static_cast<pid_t>(
        state_->worker_slot(i).pid.load(std::memory_order_acquire));
  }
  std::uint32_t channel_owner(std::uint32_t i) noexcept {
    return state_->channel_slot(i).owner.load(std::memory_order_acquire);
  }

  // Blocks until every channel has a live claimed owner (worker startup /
  // respawn barrier for tests and demos). False on timeout.
  bool WaitForChannelOwners(std::int64_t timeout_ms = 5000);

 private:
  explicit ProcessServer(ProcessServerOptions options)
      : options_(std::move(options)) {}

  // Forks a worker into slot `index` (generation bump + pid bookkeeping).
  Status SpawnWorker(std::uint32_t index);
  // The child body; never returns.
  [[noreturn]] void WorkerMain(std::uint32_t index);
  // One worker pump thread: serves shared channel `channel` until the pool
  // stops.
  void PumpChannel(GrdManager& manager, std::uint32_t channel);
  void SuperviseLoop();
  // Crash repair for a reaped worker (see file comment); `respawn` gates
  // step 4.
  void HandleWorkerDeath(std::uint32_t index, int wait_status);
  void WriteSyntheticResponses(std::uint32_t worker);

  ProcessServerOptions options_;
  std::unique_ptr<ipc::SharedRegion> region_;
  SharedServingState* state_ = nullptr;
  // Parent-side channel objects over the shared rings (creator side).
  std::vector<std::unique_ptr<ipc::Channel>> channels_;

  std::atomic<bool> stopping_{false};
  bool started_ = false;
  std::thread supervisor_;
};

}  // namespace grd::guardian
