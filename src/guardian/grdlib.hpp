// grdLib: the client-side dynamically-loadable library (paper §4.1).
//
// In the paper grdLib is LD_PRELOADed so that every CUDA runtime and driver
// symbol — including the implicit calls issued inside closed-source
// accelerated libraries, and the driver library pulled in via dlopen() —
// resolves into it; the native CUDA libraries are removed from the search
// path so a missed symbol fails loudly instead of escaping interception.
// Here grdLib implements the same seam (`simcuda::CudaApi`): any
// application or simulated library written against the API runs unmodified
// on top of Guardian, and there is no other route to the device.
//
// Every method serializes the call and forwards it to the grdManager; host
// memory never crosses the boundary except as explicit message payloads
// (the per-application shared-memory segment of the paper).
#pragma once

#include <array>
#include <chrono>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "guardian/protocol.hpp"
#include "guardian/transport.hpp"
#include "simcuda/api.hpp"

namespace grd::guardian {

// Client half of the fault model (fleet/chaos harness): how grdLib behaves
// when the manager side crashes out from under it. All off by default — the
// historical behavior (errors surface raw, no recovery) is `{}`.
struct GrdLibOptions {
  // On kUnavailable (worker crashed, session failed, ring closed): run the
  // recovery path, up to this many attempts per call. Recovery is
  // attach-first: a kResumeSession with the old client id asks the
  // replacement worker to adopt the session from its shared journal — same
  // id, same partition (device pointers stay valid), modules / functions /
  // streams rebuilt server-side with identical ids — and then retries any
  // effect-idempotent call transparently (an interrupted launch resumes
  // from its journaled block checkpoint). If adoption is impossible (journal
  // overflowed, threaded mode) it falls back to a fresh registration, the
  // session priority re-applied and every recorded module load / function
  // lookup replayed so the client-facing handles stay valid; then only
  // fully idempotent calls retry, and non-idempotent ones surface
  // kUnavailable against the already-recovered session (old device
  // pointers / streams / events are gone, so the caller rebuilds those).
  // 0 disables recovery entirely.
  int recovery_attempts = 0;
  // Exponential backoff between recovery attempts (doubled each attempt,
  // capped): the supervisor needs time to repair the registry and respawn.
  std::chrono::microseconds recovery_backoff{500};
  std::chrono::microseconds recovery_backoff_max{20'000};
};

class GrdLib final : public simcuda::CudaApi {
 public:
  // Registers with the grdManager, reserving a partition of at least
  // `memory_requirement` bytes (§4.2.1: applications declare their memory
  // requirement at initialization). With recovery enabled in `options`,
  // registration itself also retries on kUnavailable (the connect may race
  // a worker respawn).
  static Result<GrdLib> Connect(ClientTransport* transport,
                                std::uint64_t memory_requirement,
                                GrdLibOptions options = {});

  GrdLib(GrdLib&&) = default;
  GrdLib(const GrdLib&) = delete;
  // Best-effort flush of still-buffered async calls: real CUDA executes
  // everything submitted, so buffered work must not die with the handle.
  // (A moved-from GrdLib has an empty buffer and flushes nothing.)
  ~GrdLib() {
    if (!pending_.empty()) (void)FlushBatch();
  }

  ClientId client_id() const noexcept { return client_; }
  std::uint64_t partition_base() const noexcept { return partition_base_; }
  std::uint64_t partition_size() const noexcept { return partition_size_; }
  // Fleet device the session is currently placed on (from the register or
  // resume reply; live migration may move it without notice).
  std::uint32_t device_id() const noexcept { return device_id_; }

  // Fault-model observability (see GrdLibOptions): successful session
  // recoveries, calls transparently retried after one, and recovery
  // attempts that themselves failed.
  std::uint64_t recoveries() const noexcept { return recoveries_; }
  std::uint64_t recovery_retries() const noexcept {
    return recovery_retries_;
  }
  std::uint64_t recovery_failures() const noexcept {
    return recovery_failures_;
  }
  // Recoveries that attached to an adopted session (kResumeSession) instead
  // of re-registering from scratch.
  std::uint64_t resume_attaches() const noexcept { return resume_attaches_; }

  Status Disconnect();

  // Progressive allocation extension (§4.4 future work): asks the manager
  // to double this client's partition in place. On success the local
  // partition view is refreshed; subsequent launches use the new mask.
  Status GrowPartition();

  // Preemption engine: tag this whole session (every current stream plus
  // streams created later) or a single stream with a priority class. A
  // kRealtime stream's kernels may revoke a running lower-priority kernel
  // at its next safe point instead of queueing behind it.
  Status SetPriority(protocol::PriorityClass priority);
  Status SetStreamPriority(simcuda::StreamId stream,
                           protocol::PriorityClass priority);

  // Batched IPC: coalesce adjacent asynchronous calls (non-default-stream
  // kernel launches and async H2D copies) into one kBatch ring message,
  // amortizing the per-call ring overhead. Buffered calls are flushed when
  // the buffer reaches `max_pending` entries (or a byte cap) and before any
  // non-batchable call; errors of buffered calls surface at the flush
  // point, CUDA-async style.
  void EnableBatching(std::size_t max_pending = 8);
  // Sends any buffered calls now. Returns the first sub-call error.
  Status FlushBatch() const;
  std::uint64_t batches_sent() const noexcept { return batches_sent_; }

  // ---- CudaApi (runtime) ----
  Status cudaMalloc(simcuda::DevicePtr* ptr, std::uint64_t size) override;
  Status cudaFree(simcuda::DevicePtr ptr) override;
  Status cudaMemcpy(void* dst_host, simcuda::DevicePtr src_dev,
                    std::uint64_t size, simcuda::MemcpyKind kind) override;
  Status cudaMemcpyH2D(simcuda::DevicePtr dst_dev, const void* src_host,
                       std::uint64_t size) override;
  Status cudaMemcpyD2D(simcuda::DevicePtr dst_dev, simcuda::DevicePtr src_dev,
                       std::uint64_t size) override;
  Status cudaMemset(simcuda::DevicePtr dst, int value,
                    std::uint64_t size) override;
  Status cudaMemcpyH2DAsync(simcuda::DevicePtr dst_dev, const void* src_host,
                            std::uint64_t size,
                            simcuda::StreamId stream) override;
  Status cudaLaunchKernel(simcuda::FunctionId func,
                          const simcuda::LaunchConfig& config,
                          std::vector<ptxexec::KernelArg> args) override;
  Status cudaStreamCreate(simcuda::StreamId* stream) override;
  Status cudaStreamDestroy(simcuda::StreamId stream) override;
  Status cudaStreamSynchronize(simcuda::StreamId stream) override;
  Status cudaStreamIsCapturing(simcuda::StreamId stream,
                               bool* capturing) override;
  Status cudaStreamGetCaptureInfo(simcuda::StreamId stream,
                                  std::uint64_t* capture_id) override;
  Status cudaEventCreateWithFlags(simcuda::EventId* event,
                                  std::uint32_t flags) override;
  Status cudaEventDestroy(simcuda::EventId event) override;
  Status cudaEventRecord(simcuda::EventId event,
                         simcuda::StreamId stream) override;
  Status cudaEventSynchronize(simcuda::EventId event) override;
  Status cudaStreamWaitEvent(simcuda::StreamId stream,
                             simcuda::EventId event) override;
  Status cudaDeviceSynchronize() override;
  Result<const simcuda::ExportTable*> cudaGetExportTable(
      simcuda::ExportTableId id) override;
  Result<simcuda::ModuleId> RegisterFatBinary(const std::string& ptx) override;
  Result<simcuda::FunctionId> RegisterFunction(
      simcuda::ModuleId module, const std::string& kernel) override;

  // ---- CudaApi (driver) ----
  Result<simcuda::ModuleId> cuModuleLoadData(const std::string& ptx) override;
  Result<simcuda::FunctionId> cuModuleGetFunction(
      simcuda::ModuleId module, const std::string& kernel) override;
  Status cuLaunchKernel(simcuda::FunctionId func,
                        const simcuda::LaunchConfig& config,
                        std::vector<ptxexec::KernelArg> args) override;
  Status cuMemAlloc(simcuda::DevicePtr* ptr, std::uint64_t size) override;
  Status cuMemFree(simcuda::DevicePtr ptr) override;
  Status cuMemcpyHtoD(simcuda::DevicePtr dst, const void* src,
                      std::uint64_t size) override;
  Status cuMemcpyDtoH(void* dst, simcuda::DevicePtr src,
                      std::uint64_t size) override;

  const simgpu::DeviceSpec& GetDeviceSpec() const override {
    return device_spec_;
  }

 private:
  // Client-side replay journal for one loaded module: enough to rebuild
  // the server-side state after a worker death. Client-facing module and
  // function handles are VIRTUAL (allocated locally, mapped to the current
  // server ids) precisely so recovery can swap the server ids underneath
  // without invalidating what the application holds.
  struct FunctionRecord {
    std::string name;
    std::uint64_t server_id = 0;
  };
  struct ModuleRecord {
    std::string ptx;
    std::uint64_t server_id = 0;
    std::map<std::uint64_t, FunctionRecord> functions;  // by client handle
  };

  explicit GrdLib(ClientTransport* transport) : transport_(transport) {}

  ipc::Writer NewRequest(protocol::Op op) const;
  // `bulk` (optional) is sent right after the encoded request as its own
  // part of the same ring frame: a synchronous H2D passes the caller's host
  // buffer there instead of copying it into the request. It must stay valid
  // until the call returns, retries included.
  Result<ipc::Reader> Call(ipc::Writer request, ipc::Bytes* response_storage,
                           ipc::ByteSpan bulk = {}) const;
  Status CallNoPayload(ipc::Writer request, ipc::ByteSpan bulk = {}) const;
  // One transport round trip + response decode, no recovery logic.
  Result<ipc::Reader> Transact(const ipc::Bytes& raw,
                               ipc::Bytes* response_storage,
                               ipc::ByteSpan bulk = {}) const;
  // Appends an async request to the batch buffer (flushing when full)
  // instead of sending it, when batching is on.
  Status BufferAsync(ipc::Writer request) const;
  Status FetchDeviceSpec();
  // Fresh kRegisterClient; rebinds client_/partition on success.
  Status Register() const;
  // kResumeSession with the current client id: attaches to a session the
  // replacement worker adopted from its journal (id, partition and all
  // server handles preserved). Any failure means "not adopted".
  Status ResumeAttach() const;
  // Attach-first session recovery; falls back to re-registration +
  // priority + module replay (see GrdLibOptions).
  Status Recover() const;
  // Sleeps the exponential-backoff slice for recovery attempt `attempt`.
  void BackoffSleep(int attempt) const;
  // Client-handle → current server-handle translation for launches.
  Result<std::uint64_t> TranslateFunction(std::uint64_t client_func) const;
  // Ops safe to re-send verbatim (client id re-patched) after a recovery.
  static bool IsRetryable(protocol::Op op);
  // Wider retry set usable only after an attach recovery, where every
  // server handle survived: effect-idempotent ops re-apply safely.
  static bool IsRetryableAfterAttach(protocol::Op op);
  // Ops whose kUnavailable should NOT trigger recovery at all.
  static bool IsRecoverable(protocol::Op op);

  ClientTransport* transport_;
  GrdLibOptions options_;
  std::uint64_t memory_requirement_ = 0;
  // Rebound by Recover(), which runs under const Call: hence mutable.
  mutable ClientId client_ = 0;
  mutable std::uint64_t partition_base_ = 0;
  mutable std::uint64_t partition_size_ = 0;
  mutable std::uint32_t device_id_ = 0;
  simgpu::DeviceSpec device_spec_;
  // Virtual-handle tables (see ModuleRecord). Server ids are refreshed in
  // place by Recover().
  mutable std::map<std::uint64_t, ModuleRecord> modules_;
  std::map<std::uint64_t, std::uint64_t> function_module_;  // fn → module
  std::uint64_t next_handle_ = 1;
  // Session priority class, re-applied on recovery.
  bool priority_set_ = false;
  protocol::PriorityClass priority_ = protocol::PriorityClass::kNormal;
  // Recovery state/counters (mutated under const Call).
  mutable bool recovering_ = false;
  mutable bool last_recovery_attached_ = false;
  mutable std::uint64_t recoveries_ = 0;
  mutable std::uint64_t recovery_retries_ = 0;
  mutable std::uint64_t recovery_failures_ = 0;
  mutable std::uint64_t resume_attaches_ = 0;
  // Batched-IPC state (mutable: buffering happens inside const Call paths).
  bool batching_enabled_ = false;
  std::size_t max_pending_ = 8;
  mutable std::vector<ipc::Bytes> pending_;
  mutable std::uint64_t pending_bytes_ = 0;
  mutable std::uint64_t batches_sent_ = 0;
  // Trace context NewRequest stamped into the most recent header, so Call
  // can close the matching client-side span (all zero when tracing is off).
  mutable obs::TraceContext last_trace_;
  mutable protocol::Op last_trace_op_{};
  mutable std::uint64_t last_trace_begin_ns_ = 0;
  // Export tables are reconstructed once and cached (paper: grdLib provides
  // a minimal implementation of the hidden functions).
  mutable std::array<std::unique_ptr<simcuda::ExportTable>,
                     simcuda::kExportTableCount>
      export_tables_;
};

}  // namespace grd::guardian
