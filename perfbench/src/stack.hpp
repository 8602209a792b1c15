// The system under test, as deployed: one forked grdManager worker
// (ProcessServer with a single worker, so every tenant is co-resident on one
// simulated device) serving two shm-ring channels, with default
// ManagerOptions. Tenants reach it only through GrdLib over a
// ChannelTransport.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "common/status.hpp"
#include "guardian/grdlib.hpp"
#include "guardian/process_server.hpp"
#include "guardian/transport.hpp"
#include "workloads.hpp"

namespace perfbench {

inline constexpr std::uint32_t kChannels = 2;
// Rings must carry train_step's single 8 MiB H2D plus framing: a message
// larger than the ring is rejected outright.
inline constexpr std::uint64_t kRingBytes = 16ull << 20;
// Span arena of a traced pool. Traced runs stop early once the arena is
// kTraceFillStop full, so no span is ever dropped.
inline constexpr std::uint32_t kTraceSpanCapacity = 1u << 19;
inline constexpr double kTraceFillStop = 0.7;

class Stack {
 public:
  // Creates the pool, forks the worker and waits until it owns both
  // channels. `tracing` turns on ManagerOptions::tracing_enabled (and with
  // it the span arena the parent's client spans also land in).
  static grd::Result<std::unique_ptr<Stack>> Start(bool tracing);
  ~Stack() { Stop(); }
  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;

  grd::guardian::ClientTransport& transport(std::uint32_t channel) {
    return *transports_[channel];
  }
  // Registers a tenant on `channel` with a partition of `memory` bytes.
  grd::Result<std::unique_ptr<grd::guardian::GrdLib>> Connect(
      std::uint32_t channel, std::uint64_t memory);

  grd::guardian::ManagerStats& stats() { return server_->state().stats(); }
  // Peak resident set (VmHWM) of the worker process in MiB; 0 if unknown.
  double WorkerHwmMiB() const;
  // Share of the span arena already claimed (0 when not tracing).
  double TraceFill();
  // Spans dropped because the arena was full.
  std::uint64_t SpansDropped();

  // Stops the worker and reaps it. Idempotent.
  void Stop();

 private:
  Stack() = default;

  bool tracing_ = false;
  std::unique_ptr<grd::guardian::ProcessServer> server_;
  std::vector<std::unique_ptr<grd::guardian::ChannelTransport>> transports_;
};

// A stack with both tenants of a workload connected and set up. Members are
// destroyed in reverse order: the tenants, then the libs they call through,
// then the stack whose transports the libs hold.
struct Deployment {
  std::unique_ptr<Stack> stack;
  std::unique_ptr<grd::guardian::GrdLib> libs[2];
  std::unique_ptr<Session> session;
  double setup_s = 0.0;
};

// Starts a stack and sets up `workload`'s tenants on it. setup_s spans fork,
// registration, cold module loads and library handle creation: everything
// before the first timed op.
grd::Result<std::unique_ptr<Deployment>> Deploy(Workload workload,
                                                std::uint64_t seed,
                                                bool tracing);

}  // namespace perfbench
