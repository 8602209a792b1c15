#include "guardian/transport.hpp"

#include <algorithm>

#include "common/logging.hpp"

namespace grd::guardian {

void ManagerServer::AddChannel(ipc::Channel* channel, double weight,
                               int priority) {
  auto entry = std::make_unique<Entry>();
  entry->channel = channel;
  entry->weight = weight;
  entry->priority = priority;
  channels_.push_back(std::move(entry));
  // Channels are fixed before Run()/Start(), so the priority order can be
  // computed here instead of sorting on every sweep.
  priority_order_.push_back(channels_.back().get());
  std::stable_sort(priority_order_.begin(), priority_order_.end(),
                   [](const Entry* a, const Entry* b) {
                     return a->priority > b->priority;
                   });
}

bool ServeChannelStep(GrdManager& manager, ipc::Channel& channel,
                      ipc::Bytes& parked,
                      std::atomic<std::uint64_t>& last_client) {
  if (!parked.empty()) {
    // A previous response is still waiting for this (stalled) client to
    // drain its ring; deliver it before consuming anything new so strict
    // request/response pairing holds.
    manager.NoteRingWritten();  // count-then-publish (see manager.hpp)
    if (!channel.response().TryWrite(parked).ok()) {
      manager.NoteRingWriteAborted();
      return false;
    }
    parked.clear();
    return true;
  }
  auto request = channel.request().TryRead();
  if (!request.ok()) {
    if (request.status().code() == StatusCode::kAborted) {
      // Torn/garbage frame: the ring repaired itself (head clamped to tail,
      // frames_corrupt bumped). Fail only this session's in-flight call;
      // the ring stays usable for whatever the client sends next.
      const ipc::Bytes error = protocol::EncodeError(Status(
          Aborted("corrupt request frame discarded; ring resynchronized")));
      manager.NoteRingWritten();
      if (!channel.response().TryWrite(error).ok())
        manager.NoteRingWriteAborted();
      return true;
    }
    return false;
  }
  manager.NoteRingRead();
  {
    // Remember which session this channel carries so the session-priority
    // sweep can rank it by that tenant's class (cheap header peek; a
    // malformed header is rejected by HandleRequest below anyway).
    ipc::Reader peek(*request);
    auto header = protocol::ReadHeader(peek);
    if (header.ok() && header->client != 0)
      last_client.store(header->client, std::memory_order_relaxed);
  }
  ipc::Bytes response = manager.HandleRequest(*request);
  manager.NoteRingWritten();  // count-then-publish (see manager.hpp)
  Status written = channel.response().TryWrite(response);
  if (!written.ok() && written.code() == StatusCode::kNotFound)
    written = channel.response().WriteWithDeadline(
        response, std::chrono::milliseconds(2));
  if (!written.ok()) manager.NoteRingWriteAborted();
  if (written.code() == StatusCode::kDeadlineExceeded) {
    parked = std::move(response);  // stalled tenant; re-offered next step
  } else if (!written.ok()) {
    // The client vanished mid-call. The work is done and cannot be undone;
    // account for the undeliverable response instead of dropping silently.
    manager.NoteDroppedResponse();
    GRD_LOG_WARN("ManagerServer")
        << "dropped response for vanished client channel: "
        << written.ToString();
  }
  return true;
}

bool ManagerServer::ServeOne(Entry& entry) {
  return ServeChannelStep(*manager_, *entry.channel, entry.parked,
                          entry.last_client);
}

std::size_t ManagerServer::SweepRoundRobin() {
  std::size_t served = 0;
  for (auto& entry : channels_) {
    if (!Claim(*entry)) continue;
    served += ServeOne(*entry) ? 1 : 0;
    Release(*entry);
  }
  return served;
}

std::size_t ManagerServer::SweepPriority() {
  // Strict priority: scan channels in descending priority order (precomputed
  // in AddChannel) and serve the first pending request; at most one request
  // per sweep so lower priorities are still polled when high ones go idle.
  for (Entry* entry : priority_order_) {
    if (!Claim(*entry)) continue;
    const bool served = ServeOne(*entry);
    Release(*entry);
    if (served) return 1;
  }
  return 0;
}

std::size_t ManagerServer::SweepWeightedFair() {
  std::size_t served = 0;
  for (auto& entry : channels_) {
    if (!Claim(*entry)) continue;
    entry->deficit += entry->weight;
    while (entry->deficit >= 1.0 && ServeOne(*entry)) {
      entry->deficit -= 1.0;
      ++served;
    }
    // An idle channel keeps no credit (classic DRR resets empty queues).
    if (entry->deficit >= 1.0) entry->deficit = 0.0;
    Release(*entry);
  }
  return served;
}

std::size_t ManagerServer::SweepSessionPriority() {
  // One request per channel per sweep, like round robin, but channels whose
  // session holds a more urgent class (kSetPriority) are visited first, so
  // a realtime tenant's requests never queue behind a batch tenant's ring
  // backlog inside the same sweep. Classes are snapshotted once per sweep:
  // one registry lookup per channel, and a mid-sweep retag cannot make a
  // channel be served twice (or skipped) within the same sweep.
  std::vector<int> classes(channels_.size());
  for (std::size_t i = 0; i < channels_.size(); ++i) {
    const std::uint64_t client =
        channels_[i]->last_client.load(std::memory_order_relaxed);
    classes[i] = static_cast<int>(
        client == 0 ? protocol::PriorityClass::kNormal
                    : manager_->SessionPriority(client));
  }
  std::size_t served = 0;
  for (int cls = 0; cls < protocol::kPriorityClassCount; ++cls) {
    for (std::size_t i = 0; i < channels_.size(); ++i) {
      if (classes[i] != cls) continue;
      if (!Claim(*channels_[i])) continue;
      served += ServeOne(*channels_[i]) ? 1 : 0;
      Release(*channels_[i]);
    }
  }
  return served;
}

std::size_t ManagerServer::ServeOnce() {
  switch (policy_) {
    case Policy::kRoundRobin: return SweepRoundRobin();
    case Policy::kPriority: return SweepPriority();
    case Policy::kWeightedFair: return SweepWeightedFair();
    case Policy::kSessionPriority: return SweepSessionPriority();
  }
  return 0;
}

void ManagerServer::WorkerLoop(const std::atomic<bool>& stop) {
  IdleBackoff backoff;
  std::size_t doorbell_rotor = 0;
  while (true) {
    const std::size_t served = ServeOnce();
    if (served > 0) {
      backoff.Reset();
      continue;
    }
    if (stop.load(std::memory_order_acquire)) return;
    // Idle: park on a request-ring doorbell (rotating across channels; the
    // wait is claim-free — futex waiters multiplex safely) instead of
    // spin-sleeping. The 500µs bound keeps the worker polling the channels
    // it is not waiting on and noticing `stop`.
    if (ipc::ShmRing::kFutexDoorbell && !channels_.empty()) {
      if (channels_[doorbell_rotor++ % channels_.size()]
              ->channel->request()
              .WaitForMessage(std::chrono::microseconds(500)))
        backoff.Reset();
    } else {
      backoff.Pause();
    }
  }
}

void ManagerServer::Run(const std::atomic<bool>& stop) {
  std::vector<std::thread> extra;
  extra.reserve(workers_ - 1);
  for (std::size_t i = 1; i < workers_; ++i)
    extra.emplace_back([this, &stop] { WorkerLoop(stop); });
  WorkerLoop(stop);
  for (std::thread& worker : extra) worker.join();
}

void ManagerServer::Start() {
  if (self_runner_.joinable()) return;  // already running
  self_stop_.store(false, std::memory_order_release);
  self_runner_ = std::thread([this] { Run(self_stop_); });
}

void ManagerServer::Stop() {
  if (!self_runner_.joinable()) return;
  self_stop_.store(true, std::memory_order_release);
  self_runner_.join();
}

}  // namespace grd::guardian
