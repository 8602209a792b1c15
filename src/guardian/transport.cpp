#include "guardian/transport.hpp"

#include "common/logging.hpp"

namespace grd::guardian {

bool ServeChannelStep(GrdManager& manager, ipc::Channel& channel,
                      ipc::Bytes& stage, ipc::Bytes& parked) {
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
  auto request = channel.request().TryRead(stage);
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

void PumpChannel(GrdManager& manager, ipc::Channel& channel,
                 const std::atomic<bool>& stop) {
  // The request being served and the response a stalled reader has not
  // drained yet (see ServeChannelStep); while one is parked this thread
  // consumes nothing new.
  ipc::Bytes stage;
  ipc::Bytes parked;
  constexpr auto kIdleWait = std::chrono::milliseconds(5);
  constexpr auto kPollInterval = std::chrono::microseconds(200);
  while (!stop.load(std::memory_order_acquire)) {
    if (ServeChannelStep(manager, channel, stage, parked)) continue;
    if (!parked.empty() || channel.request().closed())
      std::this_thread::sleep_for(kPollInterval);
    else
      channel.request().WaitForMessage(kIdleWait);
  }
}

std::vector<std::thread> ManagerServer::SpawnPumps(
    const std::atomic<bool>& stop) {
  std::vector<std::thread> pumps;
  pumps.reserve(channels_.size());
  for (ipc::Channel* channel : channels_)
    pumps.emplace_back(
        [this, channel, &stop] { PumpChannel(*manager_, *channel, stop); });
  return pumps;
}

void ManagerServer::Run(const std::atomic<bool>& stop) {
  for (std::thread& pump : SpawnPumps(stop)) pump.join();
}

void ManagerServer::Start() {
  if (!self_pumps_.empty()) return;  // already running
  self_stop_.store(false, std::memory_order_release);
  self_pumps_ = SpawnPumps(self_stop_);
}

void ManagerServer::Stop() {
  self_stop_.store(true, std::memory_order_release);
  for (std::thread& pump : self_pumps_) pump.join();
  self_pumps_.clear();
}

}  // namespace grd::guardian
