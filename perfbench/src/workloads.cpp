#include "workloads.hpp"

#include <cmath>
#include <cstring>
#include <string>
#include <thread>

#include "common/bits.hpp"
#include "common/rng.hpp"
#include "guardian/grdlib.hpp"
#include "obs/trace.hpp"
#include "ptx/generator.hpp"
#include "ptx/printer.hpp"
#include "simlibs/cublas.hpp"

namespace perfbench {
namespace {

using grd::Result;
using grd::Rng;
using grd::Status;
using grd::ptxexec::KernelArg;
using grd::simcuda::CudaApi;
using grd::simcuda::DevicePtr;
using grd::simcuda::FunctionId;
using grd::simcuda::LaunchConfig;
using grd::simcuda::MemcpyKind;
using grd::simcuda::StreamId;
namespace guardian = grd::guardian;
namespace protocol = grd::guardian::protocol;

using StopFn = std::function<bool()>;

// launch_storm shape.
constexpr int kStreamLaunchesPerBurst = 15;
constexpr std::size_t kBatchOps = 8;
constexpr std::uint32_t kCanaryWords = 1024;
constexpr std::uint64_t kAttackBurstRange = 32;
// train_step shape.
constexpr std::uint64_t kTrainUploadBytes = 8ull << 20;
constexpr std::uint32_t kTrainGemm = 32;
constexpr std::uint32_t kTrainDotN = 512;
// infer_colocated shape.
constexpr double kInferRateHz = 100.0;
constexpr std::uint32_t kInferElems = 1024;  // 4 KiB of f32: 32 blocks x 32
constexpr std::uint32_t kInferThreads = 32;
constexpr std::size_t kInferPayloads = 64;
constexpr float kInferAlpha = 1.5f;
constexpr std::uint32_t kBgGemm = 16;
// An open-loop request still unsent this long after the window closed is
// counted as missed instead of being sent.
constexpr double kOpenLoopGraceS = 1.0;

// Bench-side span around one timed call (a no-op unless tracing is on):
// the traced ledger subtracts the grdLib client span inside it to get the
// client library's own cost.
using BenchSpan = grd::obs::ScopedSpan;

guardian::GrdLib* AsGrdLib(CudaApi* api) {
  return dynamic_cast<guardian::GrdLib*>(api);
}

std::vector<float> RandomFloats(Rng& rng, std::size_t n) {
  std::vector<float> out(n);
  for (auto& v : out) v = static_cast<float>(rng.NextDouble() * 2.0 - 1.0);
  return out;
}

// Host references, in the kernels' accumulation order (fma, ascending k).
std::vector<float> HostSgemm(const float* a, const float* b, std::uint32_t m,
                             std::uint32_t n, std::uint32_t k) {
  std::vector<float> c(static_cast<std::size_t>(m) * n);
  for (std::uint32_t i = 0; i < m; ++i)
    for (std::uint32_t j = 0; j < n; ++j) {
      float acc = 0.0f;
      for (std::uint32_t p = 0; p < k; ++p)
        acc = std::fma(a[i * k + p], b[p * n + j], acc);
      c[i * n + j] = acc;
    }
  return c;
}

bool SameFloats(const std::vector<float>& got, const std::vector<float>& want) {
  if (got.size() != want.size()) return false;
  for (std::size_t i = 0; i < got.size(); ++i)
    if (!Near(got[i], want[i])) return false;
  return true;
}

LaunchConfig OneThread(StreamId stream) {
  LaunchConfig config;
  config.stream = stream;
  return config;
}

// Per-thread result of one tenant; merged into RunResult after the join.
struct TenantResult {
  Clock::time_point end;
  RunResult run;
};

class Tenant {
 public:
  virtual ~Tenant() = default;
  // Runs the tenant's loop in the window [start, end) unless `stop` fires.
  virtual void Loop(Clock::time_point start, Clock::time_point end,
                    const StopFn& stop, RunResult* out) = 0;
  // Final readbacks (counters, canaries, last results).
  virtual void FinalChecks(Tally* tally) = 0;
};

// ---------------------------------------------------------------------------
// launch_storm

// Each storm tenant loads its own module (the kernel name differs), so both
// loads miss the sandbox cache. storm_t<N> bumps a u32 counter: one thread,
// so the final counter equals the launches that ran.
std::string StormPtx(int index) {
  const std::string k = "storm_t" + std::to_string(index);
  std::string ptx =
      ".version 7.7\n.target sm_86\n.address_size 64\n\n"
      ".visible .entry " + k + "(\n    .param .u64 " + k + "_param_0\n)\n"
      "{\n"
      "    .reg .b32 %r<3>;\n"
      "    .reg .b64 %rd<3>;\n"
      "    ld.param.u64 %rd1, [" + k + "_param_0];\n"
      "    cvta.to.global.u64 %rd2, %rd1;\n"
      "    ld.global.u32 %r1, [%rd2];\n"
      "    add.u32 %r2, %r1, 1;\n"
      "    st.global.u32 [%rd2], %r2;\n"
      "    ret;\n"
      "}\n\n";
  ptx += grd::ptx::Print(grd::ptx::MakeOobWriterKernel());
  return ptx;
}

class StormTenant final : public Tenant {
 public:
  static Result<std::unique_ptr<StormTenant>> Create(CudaApi* api, int index,
                                                     std::uint64_t seed) {
    std::unique_ptr<StormTenant> t(new StormTenant(api, index, seed));
    GRD_RETURN_IF_ERROR(t->Init());
    return t;
  }

  // Arms the seeded isolation attack: after burst `attack_burst_`, this
  // tenant launches oob_writer at word `word` of `victim`'s canary.
  Status Aim(const StormTenant& victim) {
    guardian::GrdLib* lib = AsGrdLib(api_);
    if (lib == nullptr) return grd::FailedPrecondition("attack needs grdLib");
    const std::uint64_t mask = grd::PartitionMask(lib->partition_size());
    // Pick a seeded target whose wrap-around lands outside our counter, so
    // the launch-count check stays exact.
    for (std::uint32_t tries = 0; tries < kCanaryWords; ++tries) {
      const std::uint32_t word =
          static_cast<std::uint32_t>(rng_.NextBelow(kCanaryWords));
      const DevicePtr target = victim.canary_ + 4ull * word;
      const DevicePtr wrapped =
          grd::FenceAddress(target, lib->partition_base(), mask);
      if (wrapped + 4 > counter_ && wrapped < counter_ + 4) continue;
      attack_target_ = target;
      attack_wrapped_ = wrapped;
      attack_value_ = ~victim.canary_words_[word];
      attack_burst_ = rng_.NextBelow(kAttackBurstRange);
      return grd::OkStatus();
    }
    return grd::Internal("no attack target outside the counter");
  }

  void Loop(Clock::time_point, Clock::time_point end, const StopFn& stop,
            RunResult* out) override {
    Tally& tally = out->tally;
    const std::vector<KernelArg> args = {KernelArg::U64(counter_)};
    for (std::uint64_t burst = 0; Clock::now() < end && !stop(); ++burst) {
      for (int i = 0; i < kStreamLaunchesPerBurst; ++i) {
        BenchSpan span("bench.launch_async");
        if (!tally.Op(api_->cudaLaunchKernel(count_fn_, OneThread(stream_),
                                             args),
                      "stream launch"))
          return;
      }
      const Clock::time_point t0 = Clock::now();
      {
        BenchSpan span("bench.sync");
        if (!tally.Op(api_->cudaStreamSynchronize(stream_), "stream sync"))
          return;
      }
      {
        BenchSpan span("bench.launch_sync");
        if (!tally.Op(api_->cudaLaunchKernel(
                          count_fn_, OneThread(grd::simcuda::kDefaultStream),
                          args),
                      "default-stream launch"))
          return;
      }
      const double us = MicrosBetween(t0, Clock::now());
      out->latency_us.push_back(us);
      ++out->slo_scheduled;
      if (us <= SloLimitUs(Workload::kLaunchStorm)) ++out->slo_met;
      launches_ += kStreamLaunchesPerBurst + 1;
      out->launches += kStreamLaunchesPerBurst + 1;
      ++out->steps;
      if (attack_target_ != 0 && burst == attack_burst_) {
        BenchSpan span("bench.launch_sync");
        attack_launched_ = tally.Op(
            api_->cudaLaunchKernel(
                oob_fn_, OneThread(grd::simcuda::kDefaultStream),
                {KernelArg::U64(counter_),
                 KernelArg::U64(attack_target_ - counter_),
                 KernelArg::U32(attack_value_)}),
            "oob_writer launch");
        if (!attack_launched_) return;
        ++out->launches;
      }
    }
    if (guardian::GrdLib* lib = AsGrdLib(api_))
      out->batches_sent += lib->batches_sent();
  }

  void FinalChecks(Tally* tally) override {
    std::uint32_t count = 0;
    if (tally->Op(api_->cudaMemcpy(&count, counter_, 4,
                                   MemcpyKind::kDeviceToHost),
                  "counter readback"))
      tally->Check(count == static_cast<std::uint32_t>(launches_),
                   "tenant " + std::to_string(index_) + " launch count " +
                       std::to_string(count) + " != " +
                       std::to_string(launches_));
    // Our canary: untouched, except where our own attack's wrap-around
    // store landed (fencing keeps it inside our partition).
    std::vector<std::uint32_t> want = canary_words_;
    if (attack_launched_ && attack_wrapped_ >= canary_ &&
        attack_wrapped_ < canary_ + 4ull * kCanaryWords)
      want[(attack_wrapped_ - canary_) / 4] = attack_value_;
    std::vector<std::uint32_t> got(kCanaryWords);
    if (tally->Op(api_->cudaMemcpy(got.data(), canary_, 4ull * kCanaryWords,
                                   MemcpyKind::kDeviceToHost),
                  "canary readback"))
      tally->Check(got == want, "tenant " + std::to_string(index_) +
                                    " canary changed (isolation breach)");
    if (attack_launched_) {
      std::uint32_t landed = 0;
      if (tally->Op(api_->cudaMemcpy(&landed, attack_wrapped_, 4,
                                     MemcpyKind::kDeviceToHost),
                    "wrap-around readback"))
        tally->Check(landed == attack_value_,
                     "oob store did not wrap into the attacker's partition");
    }
  }

 private:
  StormTenant(CudaApi* api, int index, std::uint64_t seed)
      : api_(api), index_(index), rng_(seed * 1000003ull + index) {}

  Status Init() {
    GRD_ASSIGN_OR_RETURN(auto module, api_->cuModuleLoadData(StormPtx(index_)));
    GRD_ASSIGN_OR_RETURN(count_fn_,
                         api_->cuModuleGetFunction(
                             module, "storm_t" + std::to_string(index_)));
    GRD_ASSIGN_OR_RETURN(oob_fn_,
                         api_->cuModuleGetFunction(module, "oob_writer"));
    GRD_RETURN_IF_ERROR(api_->cudaMalloc(&counter_, 256));
    GRD_RETURN_IF_ERROR(api_->cudaMemset(counter_, 0, 256));
    GRD_RETURN_IF_ERROR(api_->cudaMalloc(&canary_, 4ull * kCanaryWords));
    canary_words_.resize(kCanaryWords);
    for (auto& w : canary_words_) w = static_cast<std::uint32_t>(rng_.Next());
    GRD_RETURN_IF_ERROR(api_->cudaMemcpyH2D(canary_, canary_words_.data(),
                                            4ull * kCanaryWords));
    GRD_RETURN_IF_ERROR(api_->cudaStreamCreate(&stream_));
    if (guardian::GrdLib* lib = AsGrdLib(api_)) lib->EnableBatching(kBatchOps);
    return grd::OkStatus();
  }

  CudaApi* api_;
  int index_;
  Rng rng_;
  FunctionId count_fn_ = 0;
  FunctionId oob_fn_ = 0;
  StreamId stream_ = 0;
  DevicePtr counter_ = 0;
  DevicePtr canary_ = 0;
  std::vector<std::uint32_t> canary_words_;
  std::uint64_t launches_ = 0;
  DevicePtr attack_target_ = 0;
  DevicePtr attack_wrapped_ = 0;
  std::uint32_t attack_value_ = 0;
  std::uint64_t attack_burst_ = 0;
  bool attack_launched_ = false;
};

// ---------------------------------------------------------------------------
// train_step

class TrainTenant final : public Tenant {
 public:
  static Result<std::unique_ptr<TrainTenant>> Create(CudaApi* api, int index,
                                                     std::uint64_t seed) {
    std::unique_ptr<TrainTenant> t(new TrainTenant(api, index, seed));
    GRD_RETURN_IF_ERROR(t->Init());
    return t;
  }

  void Loop(Clock::time_point, Clock::time_point end, const StopFn& stop,
            RunResult* out) override {
    while (Clock::now() < end && !stop()) {
      RefreshInputs();
      const Clock::time_point t0 = Clock::now();
      const bool ok = Step(&out->tally);
      const double us = MicrosBetween(t0, Clock::now());
      if (!ok) return;
      out->latency_us.push_back(us);
      ++out->slo_scheduled;
      if (us <= SloLimitUs(Workload::kTrainStep)) ++out->slo_met;
      out->launches += 3;  // Sgemm + two Ddot stages
      ++out->steps;
    }
  }

  void FinalChecks(Tally*) override {}  // every step checks its outputs

 private:
  // Byte offsets of the checked inputs inside the 8 MiB upload; the rest of
  // the upload is seeded filler that only moves through the copy path.
  static constexpr std::uint64_t kAOff = 0;
  static constexpr std::uint64_t kBOff = 4ull * kTrainGemm * kTrainGemm;
  static constexpr std::uint64_t kXOff = 2 * kBOff;
  static constexpr std::uint64_t kYOff = kXOff + 8ull * kTrainDotN;

  TrainTenant(CudaApi* api, int index, std::uint64_t seed)
      : api_(api), rng_(seed * 7919ull + 101 + index) {}

  Status Init() {
    GRD_ASSIGN_OR_RETURN(grd::simlibs::Cublas cublas,
                         grd::simlibs::Cublas::Create(*api_));
    cublas_.emplace(std::move(cublas));
    GRD_RETURN_IF_ERROR(api_->cudaMalloc(&upload_, kTrainUploadBytes));
    GRD_RETURN_IF_ERROR(api_->cudaMalloc(&work_, kTrainUploadBytes));
    GRD_RETURN_IF_ERROR(
        api_->cudaMalloc(&c_, 4ull * kTrainGemm * kTrainGemm));
    upload_host_.resize(kTrainUploadBytes);
    for (std::size_t i = 0; i < upload_host_.size(); i += 8) {
      const std::uint64_t word = rng_.Next();
      std::memcpy(&upload_host_[i], &word, 8);
    }
    return grd::OkStatus();
  }

  // New seeded GEMM/dot inputs for this step, written over the head of the
  // upload (the filler behind them stays).
  void RefreshInputs() {
    ab_ = RandomFloats(rng_, 2 * kTrainGemm * kTrainGemm);
    xy_.resize(2 * kTrainDotN);
    for (double& v : xy_) v = rng_.NextDouble() * 2.0 - 1.0;
    std::memcpy(&upload_host_[kAOff], ab_.data(), ab_.size() * 4);
    std::memcpy(&upload_host_[kXOff], xy_.data(), xy_.size() * 8);
  }

  bool Step(Tally* tally) {
    {
      BenchSpan span("bench.h2d");
      if (!tally->Op(api_->cudaMemcpyH2D(upload_, upload_host_.data(),
                                         kTrainUploadBytes),
                     "8 MiB H2D"))
        return false;
    }
    {
      BenchSpan span("bench.d2d");
      if (!tally->Op(api_->cudaMemcpyD2D(work_, upload_, kTrainUploadBytes),
                     "8 MiB D2D"))
        return false;
    }
    {
      BenchSpan span("bench.launch_sync");
      if (!tally->Op(cublas_->Sgemm(work_ + kAOff, work_ + kBOff, c_,
                                    kTrainGemm, kTrainGemm, kTrainGemm),
                     "Sgemm"))
        return false;
    }
    double dot = 0.0;
    {
      BenchSpan span("bench.ddot");
      auto result = cublas_->Ddot(work_ + kXOff, work_ + kYOff, kTrainDotN);
      if (!tally->Op(result.status(), "Ddot")) return false;
      dot = *result;
    }
    std::vector<float> c(kTrainGemm * kTrainGemm);
    {
      BenchSpan span("bench.d2h");
      if (!tally->Op(api_->cudaMemcpy(c.data(), c_, c.size() * 4,
                                      MemcpyKind::kDeviceToHost),
                     "GEMM readback"))
        return false;
    }
    const std::vector<float> want =
        HostSgemm(ab_.data(), ab_.data() + kTrainGemm * kTrainGemm, kTrainGemm,
                  kTrainGemm, kTrainGemm);
    double want_dot = 0.0;
    for (std::uint32_t i = 0; i < kTrainDotN; ++i)
      want_dot = std::fma(xy_[i], xy_[kTrainDotN + i], want_dot);
    const bool gemm_ok = tally->Check(SameFloats(c, want), "Sgemm 32^3 result");
    const bool dot_ok = tally->Check(Near(dot, want_dot, 1e-9), "Ddot result");
    return gemm_ok && dot_ok;
  }

  CudaApi* api_;
  Rng rng_;
  std::optional<grd::simlibs::Cublas> cublas_;
  DevicePtr upload_ = 0;
  DevicePtr work_ = 0;
  DevicePtr c_ = 0;
  std::vector<unsigned char> upload_host_;
  std::vector<float> ab_;   // A then B, row-major
  std::vector<double> xy_;  // x then y
};

// ---------------------------------------------------------------------------
// infer_colocated

class InferTenant final : public Tenant {
 public:
  static Result<std::unique_ptr<InferTenant>> Create(CudaApi* api,
                                                     std::uint64_t seed) {
    std::unique_ptr<InferTenant> t(new InferTenant(api, seed));
    GRD_RETURN_IF_ERROR(t->Init());
    return t;
  }

  void Loop(Clock::time_point start, Clock::time_point end, const StopFn& stop,
            RunResult* out) override {
    // Poisson schedule: exponential gaps at kInferRateHz from `start`.
    double due_s = 0.0;
    const double window_s = std::chrono::duration<double>(end - start).count();
    for (std::uint64_t r = 0;; ++r) {
      due_s += -std::log(1.0 - rng_.NextDouble()) / kInferRateHz;
      if (due_s >= window_s) break;
      const Clock::time_point due =
          start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(due_s));
      if (stop()) break;  // traced run: window truncated here
      ++out->slo_scheduled;
      if (SecondsSince(end) > kOpenLoopGraceS) {
        ++out->unsent;
        continue;
      }
      std::this_thread::sleep_until(due);
      const Clock::time_point sent = Clock::now();
      out->lateness_us.push_back(MicrosBetween(due, sent));
      const bool ok = Request(r, &out->tally);
      const double us = MicrosBetween(due, Clock::now());
      if (!ok) continue;
      out->latency_us.push_back(us);
      if (us <= SloLimitUs(Workload::kInferColocated)) ++out->slo_met;
      ++out->launches;
    }
  }

  void FinalChecks(Tally*) override {}  // every request checks its readback

 private:
  explicit InferTenant(CudaApi* api, std::uint64_t seed)
      : api_(api), rng_(seed * 104729ull + 7) {}

  Status Init() {
    grd::ptx::Module module;
    module.kernels.push_back(grd::ptx::MakeSaxpyKernel());
    GRD_ASSIGN_OR_RETURN(auto loaded,
                         api_->cuModuleLoadData(grd::ptx::Print(module)));
    GRD_ASSIGN_OR_RETURN(saxpy_, api_->cuModuleGetFunction(loaded, "saxpy"));
    GRD_RETURN_IF_ERROR(api_->cudaMalloc(&x_, 4ull * kInferElems));
    GRD_RETURN_IF_ERROR(api_->cudaMalloc(&y_, 4ull * kInferElems));
    x_host_ = RandomFloats(rng_, kInferElems);
    GRD_RETURN_IF_ERROR(
        api_->cudaMemcpyH2D(x_, x_host_.data(), 4ull * kInferElems));
    for (std::size_t i = 0; i < kInferPayloads; ++i)
      payloads_.push_back(RandomFloats(rng_, kInferElems));
    if (guardian::GrdLib* lib = AsGrdLib(api_))
      GRD_RETURN_IF_ERROR(lib->SetPriority(protocol::PriorityClass::kRealtime));
    return grd::OkStatus();
  }

  bool Request(std::uint64_t r, Tally* tally) {
    const std::vector<float>& y = payloads_[r % kInferPayloads];
    const std::uint32_t k =
        static_cast<std::uint32_t>(rng_.NextBelow(kInferElems));
    {
      BenchSpan span("bench.h2d");
      if (!tally->Op(api_->cudaMemcpyH2D(y_, y.data(), 4ull * kInferElems),
                     "4 KiB H2D"))
        return false;
    }
    {
      BenchSpan span("bench.launch_sync");
      LaunchConfig config;
      config.block = {kInferThreads, 1, 1};
      config.grid = {kInferElems / kInferThreads, 1, 1};
      if (!tally->Op(api_->cudaLaunchKernel(
                         saxpy_, config,
                         {KernelArg::U64(x_), KernelArg::U64(y_),
                          KernelArg::F32(kInferAlpha),
                          KernelArg::U32(kInferElems)}),
                     "saxpy launch"))
        return false;
    }
    float got = 0.0f;
    {
      BenchSpan span("bench.d2h");
      if (!tally->Op(api_->cudaMemcpy(&got, y_ + 4ull * k, 4,
                                      MemcpyKind::kDeviceToHost),
                     "4 B D2H"))
        return false;
    }
    return tally->Check(Near(got, std::fma(kInferAlpha, x_host_[k], y[k])),
                        "saxpy readback");
  }

  CudaApi* api_;
  Rng rng_;
  FunctionId saxpy_ = 0;
  DevicePtr x_ = 0;
  DevicePtr y_ = 0;
  std::vector<float> x_host_;
  std::vector<std::vector<float>> payloads_;
};

class BgTrainerTenant final : public Tenant {
 public:
  static Result<std::unique_ptr<BgTrainerTenant>> Create(CudaApi* api,
                                                         std::uint64_t seed) {
    std::unique_ptr<BgTrainerTenant> t(new BgTrainerTenant(api, seed));
    GRD_RETURN_IF_ERROR(t->Init());
    return t;
  }

  void Loop(Clock::time_point, Clock::time_point end, const StopFn& stop,
            RunResult* out) override {
    while (Clock::now() < end && !stop()) {
      BenchSpan span("bench.launch_sync");
      if (!out->tally.Op(cublas_->Sgemm(a_, b_, c_, kBgGemm, kBgGemm, kBgGemm),
                         "background Sgemm"))
        return;
      ++out->launches;
      ++out->steps;
    }
  }

  void FinalChecks(Tally* tally) override {
    std::vector<float> c(kBgGemm * kBgGemm);
    if (tally->Op(api_->cudaMemcpy(c.data(), c_, c.size() * 4,
                                   MemcpyKind::kDeviceToHost),
                  "background GEMM readback"))
      tally->Check(SameFloats(c, HostSgemm(a_host_.data(), b_host_.data(),
                                           kBgGemm, kBgGemm, kBgGemm)),
                   "background Sgemm 16^3 result");
  }

 private:
  explicit BgTrainerTenant(CudaApi* api, std::uint64_t seed)
      : api_(api), rng_(seed * 15485863ull + 3) {}

  Status Init() {
    GRD_ASSIGN_OR_RETURN(grd::simlibs::Cublas cublas,
                         grd::simlibs::Cublas::Create(*api_));
    cublas_.emplace(std::move(cublas));
    const std::uint64_t bytes = 4ull * kBgGemm * kBgGemm;
    a_host_ = RandomFloats(rng_, kBgGemm * kBgGemm);
    b_host_ = RandomFloats(rng_, kBgGemm * kBgGemm);
    GRD_RETURN_IF_ERROR(api_->cudaMalloc(&a_, bytes));
    GRD_RETURN_IF_ERROR(api_->cudaMalloc(&b_, bytes));
    GRD_RETURN_IF_ERROR(api_->cudaMalloc(&c_, bytes));
    GRD_RETURN_IF_ERROR(api_->cudaMemcpyH2D(a_, a_host_.data(), bytes));
    GRD_RETURN_IF_ERROR(api_->cudaMemcpyH2D(b_, b_host_.data(), bytes));
    if (guardian::GrdLib* lib = AsGrdLib(api_))
      GRD_RETURN_IF_ERROR(lib->SetPriority(protocol::PriorityClass::kBatch));
    return grd::OkStatus();
  }

  CudaApi* api_;
  Rng rng_;
  std::optional<grd::simlibs::Cublas> cublas_;
  DevicePtr a_ = 0;
  DevicePtr b_ = 0;
  DevicePtr c_ = 0;
  std::vector<float> a_host_;
  std::vector<float> b_host_;
};

// ---------------------------------------------------------------------------

class TwoTenantSession final : public Session {
 public:
  TwoTenantSession(std::unique_ptr<Tenant> a, std::unique_ptr<Tenant> b) {
    tenants_[0] = std::move(a);
    tenants_[1] = std::move(b);
  }

  RunResult Run(double seconds, const StopFn& stop_early) override {
    const Clock::time_point start = Clock::now();
    const Clock::time_point end =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(seconds));
    std::array<TenantResult, 2> results;
    std::array<std::thread, 2> threads;
    for (int i = 0; i < 2; ++i)
      threads[i] = std::thread([&, i] {
        tenants_[i]->Loop(start, end, stop_early, &results[i].run);
        results[i].end = Clock::now();
        tenants_[i]->FinalChecks(&results[i].run.tally);
      });
    for (auto& t : threads) t.join();

    RunResult merged;
    Clock::time_point last = start;
    for (auto& r : results) {
      last = std::max(last, r.end);
      merged.launches += r.run.launches;
      merged.steps += r.run.steps;
      merged.latency_us.insert(merged.latency_us.end(),
                               r.run.latency_us.begin(),
                               r.run.latency_us.end());
      merged.lateness_us.insert(merged.lateness_us.end(),
                                r.run.lateness_us.begin(),
                                r.run.lateness_us.end());
      merged.slo_scheduled += r.run.slo_scheduled;
      merged.slo_met += r.run.slo_met;
      merged.unsent += r.run.unsent;
      merged.batches_sent += r.run.batches_sent;
      merged.tally.Merge(r.run.tally);
    }
    merged.elapsed_s = std::chrono::duration<double>(last - start).count();
    return merged;
  }

 private:
  std::array<std::unique_ptr<Tenant>, 2> tenants_;
};

}  // namespace

std::optional<Workload> ParseWorkload(std::string_view name) {
  for (Workload w : {Workload::kLaunchStorm, Workload::kTrainStep,
                     Workload::kInferColocated})
    if (name == WorkloadName(w)) return w;
  return std::nullopt;
}

const char* WorkloadName(Workload workload) {
  switch (workload) {
    case Workload::kLaunchStorm: return "launch_storm";
    case Workload::kTrainStep: return "train_step";
    case Workload::kInferColocated: return "infer_colocated";
  }
  return "?";
}

std::uint64_t TenantMemory(Workload workload) {
  return workload == Workload::kTrainStep ? 64ull << 20 : 4ull << 20;
}

double SloLimitUs(Workload workload) {
  switch (workload) {
    case Workload::kLaunchStorm: return 500.0;
    case Workload::kTrainStep: return 150'000.0;
    case Workload::kInferColocated: return 5'000.0;
  }
  return 0.0;
}

Result<std::unique_ptr<Session>> MakeSession(
    Workload workload, std::array<CudaApi*, 2> apis, std::uint64_t seed) {
  switch (workload) {
    case Workload::kLaunchStorm: {
      GRD_ASSIGN_OR_RETURN(auto a, StormTenant::Create(apis[0], 0, seed));
      GRD_ASSIGN_OR_RETURN(auto b, StormTenant::Create(apis[1], 1, seed));
      GRD_RETURN_IF_ERROR(a->Aim(*b));
      return std::unique_ptr<Session>(
          new TwoTenantSession(std::move(a), std::move(b)));
    }
    case Workload::kTrainStep: {
      GRD_ASSIGN_OR_RETURN(auto a, TrainTenant::Create(apis[0], 0, seed));
      GRD_ASSIGN_OR_RETURN(auto b, TrainTenant::Create(apis[1], 1, seed));
      return std::unique_ptr<Session>(
          new TwoTenantSession(std::move(a), std::move(b)));
    }
    case Workload::kInferColocated: {
      GRD_ASSIGN_OR_RETURN(auto a, InferTenant::Create(apis[0], seed));
      GRD_ASSIGN_OR_RETURN(auto b, BgTrainerTenant::Create(apis[1], seed));
      return std::unique_ptr<Session>(
          new TwoTenantSession(std::move(a), std::move(b)));
    }
  }
  return grd::Status(grd::InvalidArgument("unknown workload"));
}

}  // namespace perfbench
