#include "probes.hpp"

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "guardian/bounds_table.hpp"
#include "guardian/grdlib.hpp"
#include "guardian/manager.hpp"
#include "guardian/sandbox_cache.hpp"
#include "guardian/transport.hpp"
#include "ipc/channel.hpp"
#include "ptx/generator.hpp"
#include "ptx/parser.hpp"
#include "ptx/printer.hpp"
#include "ptxexec/interpreter.hpp"
#include "ptxexec/program.hpp"
#include "ptxexec/tier.hpp"
#include "ptxpatcher/patcher.hpp"
#include "simcuda/gpu.hpp"
#include "simcuda/native.hpp"
#include "simlibs/kernels_ptx.hpp"
#include "stack.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using grd::Result;
using grd::Status;
using grd::ptxexec::KernelArg;
using grd::simcuda::CudaApi;
using grd::simcuda::DevicePtr;
using grd::simcuda::LaunchConfig;
using grd::simcuda::MemcpyKind;
namespace guardian = grd::guardian;

constexpr std::uint64_t kBigCopy = 8ull << 20;

// Times `n` calls of `f` after `warmup` untimed ones; µs per call. Stops at
// the first failed call (recorded in `tally`).
template <typename F>
std::vector<double> TimeCalls(int warmup, int n, Tally* tally,
                              const char* what, F&& f) {
  std::vector<double> us;
  for (int i = 0; i < warmup + n; ++i) {
    const Clock::time_point t0 = Clock::now();
    const Status status = f();
    const Clock::time_point t1 = Clock::now();
    if (!tally->Op(status, what)) break;
    if (i >= warmup) us.push_back(MicrosBetween(t0, t1));
  }
  return us;
}

void AddMedian(MetricList* metrics, const std::string& name,
               const std::vector<double>& samples, const char* unit,
               double scale = 1.0) {
  metrics->Add(name, Median(samples) * scale, unit, samples.size());
}

// Bytes per second (GB/s) of `bytes` moved per call, from per-call µs.
void AddRate(MetricList* metrics, const std::string& name,
             const std::vector<double>& us, double bytes) {
  const double med = Median(us);
  metrics->Add(name, med > 0 ? bytes / (med * 1e3) : 0.0, "GB/s", us.size());
}

// ShmRing round trips against an echo thread: the ring alone, no manager.
Status ProbeIpc(MetricList* metrics, Tally* tally) {
  grd::ipc::HeapChannel heap(2 * kBigCopy);
  grd::ipc::Channel& channel = heap.channel();
  std::thread echo([&channel] {
    while (true) {
      auto message = channel.request().Read();
      if (!message.ok() || !channel.response().Write(*message).ok()) return;
    }
  });
  const auto rtt = [&](std::size_t bytes, int warmup, int n) {
    const grd::ipc::Bytes payload(bytes, 0x5a);
    return TimeCalls(warmup, n, tally, "ring echo", [&]() -> Status {
      auto reply = channel.Call(payload);
      if (!reply.ok()) return reply.status();
      return reply->size() == bytes ? grd::OkStatus()
                                    : grd::Internal("echo size mismatch");
    });
  };
  const std::vector<double> small = rtt(64, 200, 4000);
  const std::vector<double> page = rtt(4096, 200, 4000);
  const std::vector<double> big = rtt(kBigCopy, 2, 20);
  channel.request().Close();
  echo.join();
  AddMedian(metrics, "ipc.rtt_64b_us", small, "us");
  AddMedian(metrics, "ipc.rtt_4k_us", page, "us");
  // Each round trip moves the payload through both rings.
  AddRate(metrics, "ipc.copy_gbps_8m", big, 2.0 * kBigCopy);
  return grd::OkStatus();
}

std::string StoreTidPtx() {
  grd::ptx::Module module;
  module.kernels.push_back(grd::ptx::MakeStoreTidKernel("probe_store"));
  return grd::ptx::Print(module);
}

// grdLib calls on an otherwise idle stack (same deployment as the
// workloads): per-call client-observed latency.
Status ProbeGrdLib(MetricList* metrics, Tally* tally) {
  GRD_ASSIGN_OR_RETURN(std::unique_ptr<Stack> stack, Stack::Start(false));
  GRD_ASSIGN_OR_RETURN(std::unique_ptr<guardian::GrdLib> lib,
                       stack->Connect(0, 4ull << 20));
  GRD_ASSIGN_OR_RETURN(auto module, lib->cuModuleLoadData(StoreTidPtx()));
  GRD_ASSIGN_OR_RETURN(auto fn,
                       lib->cuModuleGetFunction(module, "probe_store"));
  DevicePtr buf = 0;
  GRD_RETURN_IF_ERROR(lib->cudaMalloc(&buf, 4096));
  grd::simcuda::StreamId stream = 0;
  GRD_RETURN_IF_ERROR(lib->cudaStreamCreate(&stream));
  const std::vector<KernelArg> args = {KernelArg::U64(buf), KernelArg::U32(0)};
  std::vector<std::uint8_t> page(4096, 1);
  std::uint32_t word = 0;

  const auto launch_sync = TimeCalls(50, 1000, tally, "probe launch", [&] {
    return lib->cudaLaunchKernel(fn, LaunchConfig{}, args);
  });
  const auto h2d = TimeCalls(50, 1000, tally, "probe h2d", [&] {
    return lib->cudaMemcpyH2D(buf, page.data(), page.size());
  });
  const auto d2h = TimeCalls(50, 1000, tally, "probe d2h", [&] {
    return lib->cudaMemcpy(&word, buf, 4, MemcpyKind::kDeviceToHost);
  });
  const auto sync = TimeCalls(50, 1000, tally, "probe sync", [&] {
    return lib->cudaStreamSynchronize(stream);
  });
  // Batched async launches as launch_storm issues them: time a group of 8
  // (the 8th flushes one kBatch) and charge each launch an eighth.
  lib->EnableBatching(8);
  LaunchConfig on_stream;
  on_stream.stream = stream;
  auto groups = TimeCalls(20, 500, tally, "probe async launch", [&] {
    for (int i = 0; i < 8; ++i)
      GRD_RETURN_IF_ERROR(lib->cudaLaunchKernel(fn, on_stream, args));
    return lib->cudaStreamSynchronize(stream);
  });
  // ... minus the sync that keeps the queue bounded.
  const double sync_med = Median(sync);
  for (double& g : groups) g = (g - sync_med) / 8.0;
  AddMedian(metrics, "grdlib.launch_async_us", groups, "us");
  AddMedian(metrics, "grdlib.launch_sync_us", launch_sync, "us");
  AddMedian(metrics, "grdlib.h2d_us", h2d, "us");
  AddMedian(metrics, "grdlib.d2h_us", d2h, "us");
  AddMedian(metrics, "grdlib.sync_us", sync, "us");
  lib.reset();
  stack->Stop();
  return grd::OkStatus();
}

// GrdManager::HandleRequest without a ring: GrdLib over LoopbackTransport.
Status ProbeDispatchAndCopy(MetricList* metrics, Tally* tally) {
  grd::simcuda::Gpu gpu(grd::simgpu::QuadroRtxA4000());
  guardian::GrdManager manager(&gpu, guardian::ManagerOptions{});
  guardian::LoopbackTransport transport(&manager);
  GRD_ASSIGN_OR_RETURN(guardian::GrdLib lib,
                       guardian::GrdLib::Connect(&transport, 32ull << 20));
  GRD_ASSIGN_OR_RETURN(auto module, lib.cuModuleLoadData(StoreTidPtx()));
  GRD_ASSIGN_OR_RETURN(auto fn,
                       lib.cuModuleGetFunction(module, "probe_store"));
  DevicePtr buf = 0;
  GRD_RETURN_IF_ERROR(lib.cudaMalloc(&buf, kBigCopy));
  grd::simcuda::StreamId stream = 0;
  GRD_RETURN_IF_ERROR(lib.cudaStreamCreate(&stream));

  std::uint64_t capture = 0;
  const auto null_call = TimeCalls(100, 4000, tally, "null call", [&] {
    return lib.cudaStreamGetCaptureInfo(grd::simcuda::kDefaultStream,
                                        &capture);
  });
  LaunchConfig on_stream;
  on_stream.stream = stream;
  int launched = 0;
  const auto launch_async = TimeCalls(64, 2000, tally, "loopback launch", [&] {
    // Keep the stream queue short: drain it every 64 launches. The drain
    // lands in one sample of 64, which the median ignores.
    if (++launched % 64 == 0) {
      const Status drained = lib.cudaStreamSynchronize(stream);
      if (!drained.ok()) return drained;
    }
    return lib.cudaLaunchKernel(
        fn, on_stream, {KernelArg::U64(buf), KernelArg::U32(0)});
  });
  GRD_RETURN_IF_ERROR(lib.cudaStreamSynchronize(stream));
  std::vector<std::uint8_t> big(kBigCopy, 3);
  const auto h2d = TimeCalls(2, 20, tally, "loopback 8 MiB H2D", [&] {
    return lib.cudaMemcpyH2D(buf, big.data(), big.size());
  });
  AddMedian(metrics, "dispatch.null_call_us", null_call, "us");
  AddMedian(metrics, "dispatch.launch_async_us", launch_async, "us");
  AddRate(metrics, "copy.h2d_gbps_8m_loopback", h2d, kBigCopy);

  grd::simcuda::Gpu native_gpu(grd::simgpu::QuadroRtxA4000());
  grd::simcuda::NativeCuda native(&native_gpu);
  DevicePtr nbuf = 0;
  GRD_RETURN_IF_ERROR(native.cudaMalloc(&nbuf, kBigCopy));
  const auto native_h2d = TimeCalls(2, 20, tally, "native 8 MiB H2D", [&] {
    return native.cudaMemcpyH2D(nbuf, big.data(), big.size());
  });
  AddRate(metrics, "simgpu.h2d_gbps_8m", native_h2d, kBigCopy);

  guardian::PartitionBoundsTable table;
  const guardian::PartitionBounds bounds{1ull << 30, 64ull << 20};
  GRD_RETURN_IF_ERROR(table.Insert(7, bounds));
  constexpr int kChecks = 200'000;
  std::vector<double> per_check_ns;
  for (int rep = 0; rep < 15; ++rep) {
    const Clock::time_point t0 = Clock::now();
    std::uint64_t ok = 0;
    for (int i = 0; i < kChecks; ++i)
      ok += table.CheckTransfer(7, bounds.base + (i & 0xffff) * 64, 64).ok();
    const double us = MicrosBetween(t0, Clock::now());
    if (!tally->Check(ok == kChecks, "in-bounds transfers accepted")) break;
    per_check_ns.push_back(us * 1e3 / kChecks);
  }
  metrics->Add("bounds_table.check_ns", Median(per_check_ns), "ns",
               per_check_ns.size() * kChecks);
  return grd::OkStatus();
}

// Cold module pipeline on the cuBLAS PTX, stage by stage, plus the
// content-addressed cache in front of it, then the tiered interpreter on
// the patched Sgemm.
Status ProbePtx(MetricList* metrics, Tally* tally) {
  const std::string source(grd::simlibs::CublasPtx());
  grd::ptxpatcher::PatchOptions options;  // as ModuleLoadData configures it
  options.mode = guardian::ManagerOptions{}.mode;
  options.elision_enabled = guardian::ManagerOptions{}.guard_elision_enabled;

  Result<grd::ptx::Module> parsed = grd::ptx::Parse(source);
  GRD_RETURN_IF_ERROR(parsed.status());
  const auto parse = TimeCalls(2, 30, tally, "parse", [&] {
    return grd::ptx::Parse(source).status();
  });
  Result<grd::ptx::Module> patched =
      grd::ptxpatcher::PatchModule(*parsed, options);
  GRD_RETURN_IF_ERROR(patched.status());
  const auto patch = TimeCalls(2, 30, tally, "patch", [&] {
    return grd::ptxpatcher::PatchModule(*parsed, options).status();
  });
  std::vector<grd::ptxexec::CompiledKernel> compiled;
  for (const auto& kernel : patched->kernels) {
    auto c = grd::ptxexec::CompileKernel(kernel);
    GRD_RETURN_IF_ERROR(c.status());
    compiled.push_back(std::move(*c));
  }
  const auto compile = TimeCalls(2, 30, tally, "compile", [&] {
    for (const auto& kernel : patched->kernels)
      GRD_RETURN_IF_ERROR(grd::ptxexec::CompileKernel(kernel).status());
    return grd::OkStatus();
  });
  const auto fuse = TimeCalls(2, 30, tally, "fuse", [&] {
    for (const auto& kernel : compiled)
      if (grd::ptxexec::FuseKernel(kernel).code.empty())
        return grd::Internal("fused program is empty");
    return grd::OkStatus();
  });
  const auto miss = TimeCalls(1, 15, tally, "sandbox cache miss", [&] {
    guardian::SandboxCache cache;
    return cache.GetOrPatch(source, *parsed, options).status();
  });
  guardian::SandboxCache cache;
  GRD_RETURN_IF_ERROR(cache.GetOrPatch(source, *parsed, options).status());
  const auto hit = TimeCalls(50, 2000, tally, "sandbox cache hit", [&] {
    auto lookup = cache.GetOrPatch(source, *parsed, options);
    if (!lookup.ok()) return lookup.status();
    return lookup->patched_now ? grd::Internal("hit re-patched")
                               : grd::OkStatus();
  });
  AddMedian(metrics, "ptx.parse_us", parse, "us");
  AddMedian(metrics, "ptxpatcher.patch_us", patch, "us");
  AddMedian(metrics, "ptxexec.compile_us", compile, "us");
  AddMedian(metrics, "ptxexec.fuse_us", fuse, "us");
  AddMedian(metrics, "sandbox_cache.load_miss_ms", miss, "ms", 1e-3);
  AddMedian(metrics, "sandbox_cache.load_hit_us", hit, "us");

  // Patched Sgemm 32^3 per tier, straight through Interpreter::Execute.
  constexpr std::uint32_t kN = 32;
  constexpr std::uint64_t kBase = 1ull << 20;
  constexpr std::uint64_t kSize = 1ull << 20;
  const grd::ptx::Kernel* sgemm = patched->FindKernel("grd_sgemm");
  if (sgemm == nullptr) return grd::Internal("patched grd_sgemm missing");
  GRD_ASSIGN_OR_RETURN(grd::ptxexec::CompiledKernel tier0,
                       grd::ptxexec::CompileKernel(*sgemm));
  const grd::ptxexec::CompiledKernel fused = grd::ptxexec::FuseKernel(tier0);
  grd::simgpu::GlobalMemory memory(16ull << 20);
  grd::simgpu::AllowAllPolicy allow;
  grd::ptxexec::Interpreter interp(&memory, &allow, 1);
  std::vector<float> ab(2 * kN * kN);
  for (std::size_t i = 0; i < ab.size(); ++i)
    ab[i] = static_cast<float>(i % 7) - 3.0f;
  GRD_RETURN_IF_ERROR(memory.Write(kBase, ab.data(), ab.size() * 4));
  const auto grd_args = grd::ptxpatcher::ComputeGrdArgs(options.mode, kBase,
                                                       kSize);
  grd::ptxexec::LaunchParams params;
  params.block = {128, 1, 1};
  params.grid = {kN * kN / 128, 1, 1};
  params.args = {KernelArg::U64(kBase), KernelArg::U64(kBase + 4 * kN * kN),
                 KernelArg::U64(kBase + 8 * kN * kN), KernelArg::U32(kN),
                 KernelArg::U32(kN), KernelArg::U32(kN),
                 KernelArg::U64(grd_args.arg0), KernelArg::U64(grd_args.arg1)};
  const char* names[] = {"ptxexec.gemm_mips_t0", "ptxexec.gemm_mips_t1",
                         "ptxexec.gemm_mips_t2"};
  for (int tier = 0; tier < 3; ++tier) {
    std::vector<double> mips;
    for (int rep = 0; rep < 12; ++rep) {
      const Clock::time_point t0 = Clock::now();
      auto stats =
          tier == 0
              ? interp.Execute(tier0, params)
              : interp.Execute(fused, params, grd::ptxexec::ExecControls{},
                               static_cast<grd::ptxexec::ExecTier>(tier));
      const double us = MicrosBetween(t0, Clock::now());
      if (!tally->Op(stats.status(), "interpreter sgemm")) break;
      if (rep >= 2)
        mips.push_back(static_cast<double>(stats->instructions) / us);
    }
    std::vector<float> c(kN * kN);
    GRD_RETURN_IF_ERROR(
        memory.Read(kBase + 8 * kN * kN, c.data(), c.size() * 4));
    bool same = true;
    for (std::uint32_t i = 0; i < kN && same; ++i)
      for (std::uint32_t j = 0; j < kN && same; ++j) {
        float want = 0.0f;
        for (std::uint32_t p = 0; p < kN; ++p)
          want = std::fma(ab[i * kN + p], ab[kN * kN + p * kN + j], want);
        same = Near(c[i * kN + j], want);
      }
    tally->Check(same, std::string(names[tier]) + " result");
    AddMedian(metrics, names[tier], mips, "Minstr/s");
  }
  return grd::OkStatus();
}

}  // namespace

Status RunLayerProbes(MetricList* metrics, Tally* tally) {
  GRD_RETURN_IF_ERROR(ProbeGrdLib(metrics, tally));
  GRD_RETURN_IF_ERROR(ProbeIpc(metrics, tally));
  GRD_RETURN_IF_ERROR(ProbeDispatchAndCopy(metrics, tally));
  GRD_RETURN_IF_ERROR(ProbePtx(metrics, tally));
  return grd::OkStatus();
}

Status RunNativeReference(std::uint64_t seed, double seconds,
                          MetricList* metrics, Tally* tally) {
  double native_rate = 0.0;
  {
    grd::simcuda::Gpu gpu0(grd::simgpu::QuadroRtxA4000());
    grd::simcuda::Gpu gpu1(grd::simgpu::QuadroRtxA4000());
    grd::simcuda::NativeCuda api0(&gpu0);
    grd::simcuda::NativeCuda api1(&gpu1);
    GRD_ASSIGN_OR_RETURN(
        std::unique_ptr<Session> session,
        MakeSession(Workload::kTrainStep, {&api0, &api1}, seed));
    const RunResult run = session->Run(seconds, [] { return false; });
    tally->Merge(run.tally);
    native_rate = static_cast<double>(run.steps) / run.elapsed_s;
  }
  GRD_ASSIGN_OR_RETURN(std::unique_ptr<Deployment> guarded,
                       Deploy(Workload::kTrainStep, seed, /*tracing=*/false));
  const RunResult run = guarded->session->Run(seconds, [] { return false; });
  tally->Merge(run.tally);
  const double guardian_rate = static_cast<double>(run.steps) / run.elapsed_s;
  metrics->Add("native.train_steps_per_s", native_rate, "steps/s");
  metrics->Add("native.overhead_pct",
               guardian_rate > 0 ? 100.0 * (native_rate / guardian_rate - 1.0)
                                 : 0.0,
               "%");
  return grd::OkStatus();
}

}  // namespace perfbench
