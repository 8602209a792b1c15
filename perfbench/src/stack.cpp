#include "stack.hpp"

#include <fstream>
#include <sstream>
#include <string>

#include "obs/trace.hpp"

namespace perfbench {

using grd::Result;
using grd::Status;
namespace guardian = grd::guardian;

Result<std::unique_ptr<Stack>> Stack::Start(bool tracing) {
  guardian::ProcessServerOptions options;
  options.workers = 1;
  options.channels = kChannels;
  options.layout.max_workers = 1;
  options.layout.max_channels = kChannels;
  options.layout.ring_bytes = kRingBytes;
  if (tracing) {
    options.layout.trace_span_capacity = kTraceSpanCapacity;
    options.manager.tracing_enabled = true;
  }
  std::unique_ptr<Stack> stack(new Stack());
  stack->tracing_ = tracing;
  GRD_ASSIGN_OR_RETURN(stack->server_,
                       guardian::ProcessServer::Create(std::move(options)));
  GRD_RETURN_IF_ERROR(stack->server_->Start());
  if (!stack->server_->WaitForChannelOwners(10'000))
    return Status(grd::Internal("manager worker never claimed its channels"));
  for (std::uint32_t i = 0; i < kChannels; ++i)
    stack->transports_.push_back(std::make_unique<guardian::ChannelTransport>(
        &stack->server_->channel(i)));
  return stack;
}

Result<std::unique_ptr<guardian::GrdLib>> Stack::Connect(
    std::uint32_t channel, std::uint64_t memory) {
  GRD_ASSIGN_OR_RETURN(guardian::GrdLib lib,
                       guardian::GrdLib::Connect(&transport(channel), memory));
  return std::make_unique<guardian::GrdLib>(std::move(lib));
}

double Stack::WorkerHwmMiB() const {
  const pid_t pid = server_ == nullptr ? 0 : server_->worker_pid(0);
  if (pid <= 0) return 0.0;
  std::ifstream status("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) != 0) continue;
    std::istringstream fields(line.substr(6));
    double kib = 0.0;
    fields >> kib;
    return kib / 1024.0;
  }
  return 0.0;
}

double Stack::TraceFill() {
  if (!tracing_) return 0.0;
  const grd::obs::SpanArenaHeader* arena = server_->state().span_arena();
  return static_cast<double>(arena->next.load(std::memory_order_relaxed)) /
         static_cast<double>(arena->capacity);
}

std::uint64_t Stack::SpansDropped() {
  return grd::obs::TraceRecorder::Instance().dropped();
}

void Stack::Stop() {
  transports_.clear();
  if (server_ != nullptr) server_->Stop();
  server_.reset();
}

Result<std::unique_ptr<Deployment>> Deploy(Workload workload,
                                           std::uint64_t seed, bool tracing) {
  auto d = std::make_unique<Deployment>();
  const Clock::time_point t0 = Clock::now();
  GRD_ASSIGN_OR_RETURN(d->stack, Stack::Start(tracing));
  for (std::uint32_t i = 0; i < kChannels; ++i) {
    GRD_ASSIGN_OR_RETURN(d->libs[i],
                         d->stack->Connect(i, TenantMemory(workload)));
  }
  GRD_ASSIGN_OR_RETURN(
      d->session,
      MakeSession(workload, {d->libs[0].get(), d->libs[1].get()}, seed));
  d->setup_s = SecondsSince(t0);
  return d;
}

}  // namespace perfbench
