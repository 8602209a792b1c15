// Client-side transport abstractions and the manager's request server.
//
// Deployment shapes:
//  - LoopbackTransport: client and manager in one thread (unit tests,
//    single-address-space experiments). The call is a direct function call.
//  - ChannelTransport: client talks over an ipc::Channel (shared-memory
//    rings); the manager runs a ManagerServer pump in another thread or —
//    with SharedRegion + fork — another process, which is the paper's actual
//    deployment (§4: applications and grdManager in different address
//    spaces).
//
// ManagerServer serves client channels with one of three scheduling
// policies (§4.2.4 — the paper uses round-robin and leaves richer policies
// as future work) and, since the layered refactor, with a configurable
// worker pool: `workers` threads pull requests concurrently, each channel
// claimed by at most one worker at a time so per-session ordering is
// preserved while different tenants' requests overlap.
//
// The fork-based sibling of this worker pool is ProcessServer
// (process_server.hpp): N forked manager worker processes against the
// SharedRegion session registry with sticky cross-process channel claims,
// supervised (reaped/repaired/respawned) by the parent. Each worker runs one
// pump thread per channel it owns. Both servers run the same per-request
// step, ServeChannelStep; they differ only in how a thread finds its next
// channel (a sweep policy here, a dedicated doorbell there).
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "guardian/manager.hpp"
#include "ipc/channel.hpp"

namespace grd::guardian {

class ClientTransport {
 public:
  virtual ~ClientTransport() = default;
  virtual Result<ipc::Bytes> Call(const ipc::Bytes& request) = 0;
};

class LoopbackTransport final : public ClientTransport {
 public:
  explicit LoopbackTransport(GrdManager* manager) : manager_(manager) {}
  Result<ipc::Bytes> Call(const ipc::Bytes& request) override {
    return manager_->HandleRequest(request);
  }

 private:
  GrdManager* manager_;
};

// Shared-memory-ring transport. With a zero `call_timeout` every call
// blocks forever (the historical behavior); with a deadline every ring wait
// is bounded and a dead/wedged manager surfaces kDeadlineExceeded instead
// of hanging the client.
//
// Deadline desync hazard: when a response read times out, the request may
// still have been consumed — its response arrives later and would be
// mis-paired with the NEXT call on this strictly-ordered SPSC channel. The
// transport therefore tracks how many responses the channel still owes it
// and drains those stale responses (each bounded by the same deadline)
// before sending the next request, so pairing re-aligns as soon as the
// manager catches up.
class ChannelTransport final : public ClientTransport {
 public:
  explicit ChannelTransport(ipc::Channel* channel,
                            std::chrono::nanoseconds call_timeout = {})
      : channel_(channel), call_timeout_(call_timeout) {}

  Result<ipc::Bytes> Call(const ipc::Bytes& request) override {
    if (call_timeout_.count() == 0) return channel_->Call(request);
    while (owed_responses_ > 0) {
      auto stale = channel_->response().ReadWithDeadline(call_timeout_);
      if (!stale.ok()) {
        if (stale.status().code() == StatusCode::kDeadlineExceeded) {
          ++deadline_failures_;
          return Status(DeadlineExceeded(
              "manager still owes a stale response; call not sent"));
        }
        return stale.status();
      }
      --owed_responses_;
    }
    GRD_RETURN_IF_ERROR(
        channel_->request().WriteWithDeadline(request, call_timeout_));
    auto response = channel_->response().ReadWithDeadline(call_timeout_);
    if (!response.ok() &&
        response.status().code() == StatusCode::kDeadlineExceeded) {
      ++owed_responses_;
      ++deadline_failures_;
    }
    return response;
  }

  std::chrono::nanoseconds call_timeout() const noexcept {
    return call_timeout_;
  }
  // Responses the channel still owes after read timeouts (drained lazily).
  std::uint64_t owed_responses() const noexcept { return owed_responses_; }
  std::uint64_t deadline_failures() const noexcept {
    return deadline_failures_;
  }

 private:
  ipc::Channel* channel_;
  std::chrono::nanoseconds call_timeout_;
  std::uint64_t owed_responses_ = 0;
  std::uint64_t deadline_failures_ = 0;
};

// Bounded spin → yield → exponential-sleep backoff for idle polling loops,
// so an idle manager worker does not burn a core while staying responsive
// under load.
class IdleBackoff {
 public:
  void Pause() {
    ++idle_rounds_;
    if (idle_rounds_ <= kSpinRounds) return;  // hot: re-poll immediately
    if (idle_rounds_ <= kSpinRounds + kYieldRounds) {
      std::this_thread::yield();
      return;
    }
    sleep_us_ = sleep_us_ == 0 ? kMinSleepUs
                               : std::min(sleep_us_ * 2, kMaxSleepUs);
    std::this_thread::sleep_for(std::chrono::microseconds(sleep_us_));
  }

  void Reset() noexcept {
    idle_rounds_ = 0;
    sleep_us_ = 0;
  }

 private:
  static constexpr std::uint32_t kSpinRounds = 64;
  static constexpr std::uint32_t kYieldRounds = 32;
  static constexpr std::uint64_t kMinSleepUs = 50;
  static constexpr std::uint64_t kMaxSleepUs = 1000;

  std::uint32_t idle_rounds_ = 0;
  std::uint64_t sleep_us_ = 0;
};

// One serve step on one channel: the per-request contract of both ring
// pumps (ManagerServer's sweeps and each ProcessServer worker's per-channel
// pump threads), written once:
//  1. a parked response (stalled reader) is re-offered first, and nothing
//     new is consumed until it is delivered, so request/response pairing
//     holds;
//  2. one request is read; a torn/garbage frame (the ring already
//     resynchronized itself) is answered with kAborted so the blocked
//     client fails fast;
//  3. GrdManager::HandleRequest;
//  4. count-then-publish: ManagerStats::ring_messages_written is bumped
//     BEFORE the response is published and taken back when the publish
//     fails, so nobody unblocked by the response can observe the shared
//     counter lagging the ring's own;
//  5. a bounded (2 ms) write; a reader still stalled after that gets its
//     response parked in `parked`, a vanished one counts as dropped.
// Returns true when the step made progress. The caller must be the
// channel's only server while the step runs; `last_client` receives the
// client id of the request's header (the session-priority hint).
bool ServeChannelStep(GrdManager& manager, ipc::Channel& channel,
                      ipc::Bytes& parked,
                      std::atomic<std::uint64_t>& last_client);

// Serves client channels. Scheduling policies:
//  - kRoundRobin   : one request per channel per sweep (paper default);
//  - kPriority     : strict priority — the highest-priority channel with a
//                    pending request is served first each sweep;
//  - kWeightedFair : deficit round robin — each sweep grants a channel
//                    `weight` credits and serves up to that many requests;
//  - kSessionPriority : each sweep visits channels in ascending session
//                    priority-class order (kRealtime before kNormal before
//                    kBatch, as set by the kSetPriority RPC), one request
//                    per channel — so ring pumping and the device
//                    scheduler's admission share one notion of tenant
//                    priority instead of the transport static `priority`
//                    integer. A channel's class is the one of the session
//                    whose requests it last carried (kNormal until known).
class ManagerServer {
 public:
  enum class Policy : std::uint8_t {
    kRoundRobin,
    kPriority,
    kWeightedFair,
    kSessionPriority,
  };

  explicit ManagerServer(GrdManager* manager,
                         Policy policy = Policy::kRoundRobin,
                         std::size_t workers = 1)
      : manager_(manager),
        policy_(policy),
        workers_(workers == 0 ? 1 : workers) {}

  ~ManagerServer() { Stop(); }

  // Channels must be added before Run()/Start().
  void AddChannel(ipc::Channel* channel, double weight = 1.0,
                  int priority = 0);

  Policy policy() const noexcept { return policy_; }
  std::size_t workers() const noexcept { return workers_; }

  // One scheduling sweep on the calling thread; returns requests served.
  // Channels currently claimed by another worker are skipped.
  std::size_t ServeOnce();

  // Pump with `workers` threads (the calling thread counts as one) until
  // `stop` becomes true and this worker's sweep finds all rings drained.
  void Run(const std::atomic<bool>& stop);

  // Convenience: Run() on internally managed threads. Stop() joins them;
  // it is also called by the destructor.
  void Start();
  void Stop();

 private:
  struct Entry {
    ipc::Channel* channel = nullptr;
    double weight = 1.0;
    int priority = 0;
    double deficit = 0.0;              // guarded by the busy claim
    // Response awaiting a stalled client's ring to drain (guarded by the
    // busy claim); while set, the channel's requests are not consumed so
    // one slow reader cannot wedge a pump worker.
    ipc::Bytes parked;
    std::atomic<bool> busy{false};     // one worker per channel at a time
    // Client id observed in the channel's last request header (0 until a
    // session-carrying request arrives); the session-priority sweep ranks
    // the channel by that session's class.
    std::atomic<std::uint64_t> last_client{0};
  };

  // Claims `entry` for the calling worker; false when another worker has it.
  static bool Claim(Entry& entry) noexcept {
    bool expected = false;
    return entry.busy.compare_exchange_strong(expected, true,
                                              std::memory_order_acquire);
  }
  static void Release(Entry& entry) noexcept {
    entry.busy.store(false, std::memory_order_release);
  }

  bool ServeOne(Entry& entry);  // requires the claim
  std::size_t SweepRoundRobin();
  std::size_t SweepPriority();
  std::size_t SweepWeightedFair();
  std::size_t SweepSessionPriority();
  void WorkerLoop(const std::atomic<bool>& stop);

  GrdManager* manager_;
  Policy policy_;
  std::size_t workers_;
  std::vector<std::unique_ptr<Entry>> channels_;
  // Descending-priority view of channels_, maintained by AddChannel.
  std::vector<Entry*> priority_order_;

  std::atomic<bool> self_stop_{false};
  std::thread self_runner_;
};

}  // namespace grd::guardian
