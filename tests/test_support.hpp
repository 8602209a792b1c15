// Helpers shared by the suites that drive a live manager: the endless
// kernel that parks a pump, the honest tenant workload, polling, and the
// fork pattern (children never run gtest assertions: they report through
// exit codes and arm alarm() as a hang backstop).
#pragma once

#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <functional>
#include <thread>

#include "guardian/grdlib.hpp"
#include "ptx/generator.hpp"
#include "ptx/printer.hpp"

namespace grd::guardian {

// Kernel whose block 3 spins forever (blocks 0..2 store their id and exit).
// Launched on the default stream it parks the serving pump inside
// HandleRequest indefinitely; with a finite instruction budget it exercises
// the budget-requeue path with real completed blocks to preserve.
inline constexpr char kSpinTailPtx[] = R"(
.version 7.7
.target sm_86
.address_size 64
.visible .entry spintail(
    .param .u64 dst
)
{
    .reg .b32 %r<4>;
    .reg .b64 %rd<4>;
    .reg .pred %p1;
    mov.u32 %r1, %ctaid.x;
    setp.lt.u32 %p1, %r1, 3;
    @%p1 bra STORE;
LOOP:
    add.s32 %r2, %r2, 1;
    bra LOOP;
STORE:
    ld.param.u64 %rd1, [dst];
    cvta.to.global.u64 %rd2, %rd1;
    mul.wide.u32 %rd3, %r1, 4;
    add.s64 %rd2, %rd2, %rd3;
    st.global.u32 [%rd2], %r1;
    ret;
}
)";

inline pid_t ForkChild(const std::function<int()>& body) {
  const pid_t pid = fork();
  if (pid == 0) {
    alarm(30);  // hang backstop: SIGALRM-terminated children fail the test
    _exit(body());
  }
  return pid;
}

inline int WaitExit(pid_t pid) {
  int status = 0;
  if (waitpid(pid, &status, 0) != pid) return -1;
  return WIFEXITED(status) ? WEXITSTATUS(status) : -WTERMSIG(status);
}

inline bool PollUntil(const std::function<bool()>& predicate,
                      int timeout_ms) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  while (!predicate()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  return true;
}

// The honest tenant workload of the process_isolation example: sample
// kernel over 16 threads, last thread's value read back. 0 on success,
// otherwise the failing step.
inline int RunHonestWorkload(GrdLib& lib) {
  auto module = lib.cuModuleLoadData(ptx::Print(ptx::MakeSampleModule()));
  if (!module.ok()) return 1;
  auto fn = lib.cuModuleGetFunction(*module, "kernel");
  if (!fn.ok()) return 2;
  simcuda::DevicePtr buf = 0;
  if (!lib.cudaMalloc(&buf, 4096).ok()) return 3;
  simcuda::LaunchConfig config;
  config.block = {16, 1, 1};
  if (!lib.cudaLaunchKernel(*fn, config,
                            {ptxexec::KernelArg::U64(buf),
                             ptxexec::KernelArg::U32(3)})
           .ok())
    return 4;
  std::uint32_t value = 0;
  if (!lib.cudaMemcpy(&value, buf + 12, 4, simcuda::MemcpyKind::kDeviceToHost)
           .ok())
    return 5;
  if (value != 15) return 6;
  return lib.cudaFree(buf).ok() ? 0 : 7;
}

}  // namespace grd::guardian
