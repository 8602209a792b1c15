// Client-side transport abstractions and the manager's request server.
//
// Deployment shapes:
//  - LoopbackTransport: client and manager in one thread (unit tests,
//    single-address-space experiments). The call is a direct function call.
//  - ChannelTransport: client talks over an ipc::Channel (shared-memory
//    rings); the manager runs a ManagerServer in another thread or —
//    with SharedRegion + fork — a ProcessServer worker in another process,
//    which is the paper's actual deployment (§4: applications and
//    grdManager in different address spaces).
//
// There is one ring pump, PumpChannel: one thread per channel, sleeping on
// the channel's request doorbell and running ServeChannelStep per request.
// ManagerServer runs it in this process; ProcessServer (process_server.hpp)
// runs it inside N forked manager worker processes against the SharedRegion
// session registry. Thread vs fork is a deployment choice only.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

#include "guardian/manager.hpp"
#include "ipc/channel.hpp"

namespace grd::guardian {

// One request/response exchange. The request is the concatenation of
// `parts`, which must stay valid until Call returns: grdLib sends a small
// encoded header plus the caller's own host buffer, never a copy of it.
class ClientTransport {
 public:
  virtual ~ClientTransport() = default;
  virtual Result<ipc::Bytes> Call(ipc::Parts parts) = 0;
};

// Tests and probes only, so it simply concatenates the parts.
class LoopbackTransport final : public ClientTransport {
 public:
  explicit LoopbackTransport(GrdManager* manager) : manager_(manager) {}
  Result<ipc::Bytes> Call(ipc::Parts parts) override {
    ipc::Bytes request;
    for (const ipc::ByteSpan part : parts)
      request.insert(request.end(), part.begin(), part.end());
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

  Result<ipc::Bytes> Call(ipc::Parts parts) override {
    if (call_timeout_.count() == 0) return channel_->Call(parts);
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
        channel_->request().WriteWithDeadline(parts, call_timeout_));
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

// One serve step on one channel: the per-request contract of the ring
// pump, written once:
//  1. a parked response (stalled reader) is re-offered first, and nothing
//     new is consumed until it is delivered, so request/response pairing
//     holds;
//  2. one request is read into `stage`, the pump's private reusable copy
//     (ShmRing::TryRead(Bytes&)): no allocation per request, and nothing
//     is decoded in place from the tenant-writable ring, so a tenant
//     cannot change a request between its validation and its use. A
//     torn/garbage frame (the ring already resynchronized itself) is
//     answered with kAborted so the blocked client fails fast;
//  3. GrdManager::HandleRequest on the staged bytes, which stay untouched
//     until it returns (a synchronous H2D copies its payload straight from
//     the stage into device memory);
//  4. count-then-publish: ManagerStats::ring_messages_written is bumped
//     BEFORE the response is published and taken back when the publish
//     fails, so nobody unblocked by the response can observe the shared
//     counter lagging the ring's own;
//  5. a bounded (2 ms) write; a reader still stalled after that gets its
//     response parked in `parked`, a vanished one counts as dropped.
// Returns true when the step made progress. The caller must be the
// channel's only server while the step runs, and owns `stage` and `parked`
// across steps.
bool ServeChannelStep(GrdManager& manager, ipc::Channel& channel,
                      ipc::Bytes& stage, ipc::Bytes& parked);

// The ring pump: serves `channel` on the calling thread until `stop` reads
// true, reading every request into one stage it keeps (it grows to the
// largest request seen, at most the ring's capacity). Between steps an
// idle pump sleeps on the request ring's doorbell (≤ 5 ms, so it notices
// `stop`); a parked response or a closed request ring cannot be woken by
// that doorbell, so those poll every 200 µs. Both servers run one such
// thread per channel, so a tenant blocked in a synchronous handler, or a
// stalled reader, holds up only its own pump.
void PumpChannel(GrdManager& manager, ipc::Channel& channel,
                 const std::atomic<bool>& stop);

// Thread-mode manager: one PumpChannel thread per client channel, all
// against one GrdManager in this address space.
class ManagerServer {
 public:
  explicit ManagerServer(GrdManager* manager) : manager_(manager) {}

  ~ManagerServer() { Stop(); }

  // Channels must be added before Run()/Start().
  void AddChannel(ipc::Channel* channel) { channels_.push_back(channel); }

  // Pumps every channel on its own thread until `stop` becomes true, then
  // joins them.
  void Run(const std::atomic<bool>& stop);

  // Convenience: the pump threads of Run(), left running. Stop() joins
  // them; it is also called by the destructor.
  void Start();
  void Stop();

 private:
  std::vector<std::thread> SpawnPumps(const std::atomic<bool>& stop);

  GrdManager* manager_;
  std::vector<ipc::Channel*> channels_;

  std::atomic<bool> self_stop_{false};
  std::vector<std::thread> self_pumps_;
};

}  // namespace grd::guardian
