// The ring pump: ManagerServer's one pump thread per channel under
// concurrent clients, per-session ordering, a tenant parked in an endless
// kernel beside a live co-tenant, prompt idle stop, dropped-response
// accounting in the per-request step, 8 MiB bulk copies over a real ring,
// and the recovery retry of a gathered H2D.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "guardian/grdlib.hpp"
#include "guardian/manager.hpp"
#include "guardian/transport.hpp"
#include "simgpu/device_spec.hpp"
#include "test_support.hpp"

namespace grd::guardian {
namespace {

using ptxexec::KernelArg;
using simcuda::DevicePtr;
using simcuda::MemcpyKind;

class TransportTest : public ::testing::Test {
 protected:
  TransportTest()
      : gpu_(simgpu::QuadroRtxA4000()), manager_(&gpu_, ManagerOptions{}) {}

  // Registers a client directly and returns its id.
  ClientId Register() {
    ipc::Writer request;
    protocol::WriteHeader(request, protocol::Op::kRegisterClient, 0);
    request.Put<std::uint64_t>(1 << 20);
    const auto response = manager_.HandleRequest(std::move(request).Take());
    auto reader = protocol::DecodeResponse(response);
    if (!reader.ok()) return 0;
    auto id = reader->Get<std::uint64_t>();
    return id.ok() ? *id : 0;
  }

  // Enqueues `n` device-synchronize requests for `client` on `channel`.
  void EnqueueSyncs(ipc::Channel& channel, ClientId client, int n) {
    for (int i = 0; i < n; ++i) {
      ipc::Writer request;
      protocol::WriteHeader(request, protocol::Op::kDeviceSynchronize, client);
      ASSERT_TRUE(channel.request().Write(std::move(request).Take()).ok());
    }
  }

  simcuda::Gpu gpu_;
  GrdManager manager_;
};

TEST_F(TransportTest, DroppedResponseIsCountedNotSilent) {
  ipc::HeapChannel heap;
  const ClientId id = Register();
  EnqueueSyncs(heap.channel(), id, 1);
  // The client vanishes before its response can be delivered.
  heap.channel().response().Close();
  ipc::Bytes stage;
  ipc::Bytes parked;
  EXPECT_TRUE(ServeChannelStep(manager_, heap.channel(), stage, parked));
  EXPECT_TRUE(parked.empty());  // dropped, not parked for a later retry
  EXPECT_EQ(manager_.stats().responses_dropped, 1u);
}

TEST_F(TransportTest, ServesConcurrentClientsCorrectly) {
  constexpr int kClients = 6;
  constexpr int kOpsPerClient = 40;
  std::vector<std::unique_ptr<ipc::HeapChannel>> heaps;
  ManagerServer server(&manager_);
  for (int i = 0; i < kClients; ++i) {
    heaps.push_back(std::make_unique<ipc::HeapChannel>());
    server.AddChannel(&heaps.back()->channel());
  }
  server.Start();

  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  for (int i = 0; i < kClients; ++i) {
    clients.emplace_back([&, i] {
      ChannelTransport transport(&heaps[i]->channel());
      auto lib = GrdLib::Connect(&transport, 4 << 20);
      if (!lib.ok()) {
        ++failures;
        return;
      }
      for (int op = 0; op < kOpsPerClient; ++op) {
        DevicePtr p = 0;
        if (!lib->cudaMalloc(&p, 4096).ok()) ++failures;
        const std::uint64_t v = i * 1000000 + op;
        if (!lib->cudaMemcpyH2D(p, &v, 8).ok()) ++failures;
        std::uint64_t back = 0;
        if (!lib->cudaMemcpy(&back, p, 8, MemcpyKind::kDeviceToHost).ok())
          ++failures;
        if (back != v) ++failures;
        if (!lib->cudaFree(p).ok()) ++failures;
      }
      if (!lib->Disconnect().ok()) ++failures;
    });
  }
  for (auto& c : clients) c.join();
  server.Stop();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(manager_.active_clients(), 0u);
}

TEST_F(TransportTest, PreservesPerSessionOrdering) {
  // One channel hammered with sequenced writes to the same address: its
  // single pump thread keeps the session's requests in order, so the last
  // write wins.
  ipc::HeapChannel heap;
  ManagerServer server(&manager_);
  server.AddChannel(&heap.channel());
  server.Start();

  ChannelTransport transport(&heap.channel());
  auto lib = GrdLib::Connect(&transport, 1 << 20);
  ASSERT_TRUE(lib.ok());
  DevicePtr p = 0;
  ASSERT_TRUE(lib->cudaMalloc(&p, 8).ok());
  for (std::uint64_t v = 1; v <= 200; ++v) {
    ASSERT_TRUE(lib->cudaMemcpyH2D(p, &v, 8).ok());
  }
  std::uint64_t back = 0;
  ASSERT_TRUE(lib->cudaMemcpy(&back, p, 8, MemcpyKind::kDeviceToHost).ok());
  EXPECT_EQ(back, 200u);
  server.Stop();
}

TEST_F(TransportTest, BulkCopiesRoundTripOverARealRing) {
  // One tenant over 16 MiB rings: a seeded 8 MiB H2D (gathered straight
  // from the host buffer into the ring, staged once by the pump), an 8 MiB
  // D2D and a D2H readback, repeated until the request ring has rewound.
  constexpr std::uint64_t kRing = 16ull << 20;
  constexpr std::uint64_t kCopy = 8ull << 20;
  constexpr int kRounds = 4;
  // A heap channel whose request-ring header the test can inspect.
  std::unique_ptr<std::uint8_t[]> region(
      new std::uint8_t[ipc::Channel::RegionSize(kRing)]);
  ipc::Channel channel(region.get(), kRing, /*initialize=*/true);
  const auto* request_ring =
      reinterpret_cast<const ipc::ShmRing::Header*>(region.get());
  ManagerServer server(&manager_);
  server.AddChannel(&channel);
  server.Start();

  ChannelTransport transport(&channel);
  auto lib = GrdLib::Connect(&transport, 2 * kCopy);
  ASSERT_TRUE(lib.ok()) << lib.status();
  DevicePtr src = 0;
  DevicePtr dst = 0;
  ASSERT_TRUE(lib->cudaMalloc(&src, kCopy).ok());
  ASSERT_TRUE(lib->cudaMalloc(&dst, kCopy).ok());
  std::vector<std::uint8_t> host(kCopy);
  std::vector<std::uint8_t> back(kCopy);
  for (int round = 0; round < kRounds; ++round) {
    Rng rng(0xB0C0 + round);
    for (std::uint64_t i = 0; i < kCopy; i += 8) {
      const std::uint64_t word = rng.Next();
      std::memcpy(host.data() + i, &word, 8);
    }
    ASSERT_TRUE(lib->cudaMemcpyH2D(src, host.data(), kCopy).ok());
    ASSERT_TRUE(lib->cudaMemcpyD2D(dst, src, kCopy).ok());
    ASSERT_TRUE(
        lib->cudaMemcpy(back.data(), dst, kCopy, MemcpyKind::kDeviceToHost)
            .ok());
    ASSERT_EQ(back, host) << "round " << round;
  }
  // The request ring rewound: its write index moved further than the
  // frames alone (each round frames under kCopy + 4 KiB) could take it.
  EXPECT_GT(request_ring->tail.load(), kRounds * (kCopy + 4096));
  EXPECT_LT(request_ring->tail.load(),
            (kRounds + 2) * kRing);  // and was not walked lap after lap
  EXPECT_EQ(request_ring->frames_corrupt.load(), 0u);

  // An H2D running off the partition's end is rejected, and no byte of
  // device memory moves, inside the partition or past it.
  const std::uint64_t oob = lib->partition_base() + lib->partition_size() -
                            4096;
  std::vector<std::uint8_t> before(kCopy);
  ASSERT_TRUE(gpu_.memory().Read(oob, before.data(), kCopy).ok());
  const std::uint64_t rejected = manager_.stats().transfers_rejected;
  EXPECT_FALSE(lib->cudaMemcpyH2D(oob, host.data(), kCopy).ok());
  EXPECT_EQ(manager_.stats().transfers_rejected, rejected + 1);
  std::vector<std::uint8_t> after(kCopy);
  ASSERT_TRUE(gpu_.memory().Read(oob, after.data(), kCopy).ok());
  EXPECT_EQ(after, before);
  ASSERT_TRUE(
      lib->cudaMemcpy(back.data(), dst, kCopy, MemcpyKind::kDeviceToHost)
          .ok());
  EXPECT_EQ(back, host);
  server.Stop();
}

// Fails the first kMemcpyH2D it is handed with kUnavailable, as a worker
// death mid-call would, without delivering it; everything else reaches the
// manager directly.
class DropFirstH2DTransport final : public ClientTransport {
 public:
  explicit DropFirstH2DTransport(GrdManager* manager) : loopback_(manager) {}

  Result<ipc::Bytes> Call(ipc::Parts parts) override {
    std::uint32_t op = 0;
    if (!parts.empty() && parts[0].size() >= sizeof(op))
      std::memcpy(&op, parts[0].data(), sizeof(op));
    if (!dropped &&
        op == static_cast<std::uint32_t>(protocol::Op::kMemcpyH2D)) {
      dropped = true;
      return Status(Unavailable("worker died mid-call"));
    }
    return loopback_.Call(parts);
  }

  bool dropped = false;

 private:
  LoopbackTransport loopback_;
};

TEST_F(TransportTest, RecoveryRetrySendsTheCallersH2DBufferAgain) {
  // The synchronous H2D sends the caller's buffer as its own part; after an
  // attach recovery the retry re-sends the patched header with that same
  // part, and the bytes land intact.
  DropFirstH2DTransport transport(&manager_);
  GrdLibOptions options;
  options.recovery_attempts = 2;
  options.recovery_backoff = std::chrono::microseconds(1);
  auto lib = GrdLib::Connect(&transport, 1 << 20, options);
  ASSERT_TRUE(lib.ok()) << lib.status();
  constexpr std::uint64_t kBytes = 100'000;  // spans device pages
  DevicePtr p = 0;
  ASSERT_TRUE(lib->cudaMalloc(&p, kBytes).ok());
  std::vector<std::uint8_t> host(kBytes);
  for (std::uint64_t i = 0; i < kBytes; ++i)
    host[i] = static_cast<std::uint8_t>(i * 13 + 5);
  ASSERT_TRUE(lib->cudaMemcpyH2D(p, host.data(), kBytes).ok());
  EXPECT_TRUE(transport.dropped);
  EXPECT_EQ(lib->resume_attaches(), 1u);
  EXPECT_EQ(lib->recovery_retries(), 1u);
  std::vector<std::uint8_t> back(kBytes);
  ASSERT_TRUE(
      lib->cudaMemcpy(back.data(), p, kBytes, MemcpyKind::kDeviceToHost).ok());
  EXPECT_EQ(back, host);
}

TEST_F(TransportTest, IdleServerStopsPromptly) {
  ipc::HeapChannel heap;
  ManagerServer server(&manager_);
  server.AddChannel(&heap.channel());
  std::atomic<bool> stop{false};
  std::thread pump([&] { server.Run(stop); });
  // Let the pump go idle on the request doorbell.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const auto begin = std::chrono::steady_clock::now();
  stop.store(true);
  pump.join();
  const auto elapsed = std::chrono::steady_clock::now() - begin;
  // Doorbell waits are bounded (5 ms), so shutdown is fast.
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed)
                .count(),
            500);
}

// Thread-mode twin of ProcessModeTest's
// BlockedTenantDoesNotStallItsCoTenantOnTheSameWorker: tenant A parks its
// channel's pump in an endless default-stream kernel, and tenant B on the
// same ManagerServer must complete full workloads while A's call is still
// outstanding. Nothing in a live manager ends that kernel, so the whole
// stack runs in a forked child that exits with A still parked. Exit codes:
// 10 setup failed, 11 A's launch was never consumed, 12 B stalled behind A,
// 13 A's endless launch returned early.
TEST(ManagerServerTest, BlockedTenantDoesNotStallItsCoTenant) {
  const pid_t child = ForkChild([]() -> int {
    simcuda::Gpu gpu(simgpu::QuadroRtxA4000());
    ManagerOptions options;
    options.max_kernel_instructions = 1ull << 40;
    GrdManager manager(&gpu, options);
    ipc::HeapChannel a_heap, b_heap;
    ManagerServer server(&manager);
    server.AddChannel(&a_heap.channel());
    server.AddChannel(&b_heap.channel());
    server.Start();

    ChannelTransport a_transport(&a_heap.channel());
    ChannelTransport b_transport(&b_heap.channel(), std::chrono::seconds(5));
    auto a = GrdLib::Connect(&a_transport, 8 << 20);
    auto b = GrdLib::Connect(&b_transport, 8 << 20);
    if (!a.ok() || !b.ok()) _exit(10);
    auto module = a->cuModuleLoadData(kSpinTailPtx);
    if (!module.ok()) _exit(10);
    auto spin = a->cuModuleGetFunction(*module, "spintail");
    DevicePtr buf = 0;
    if (!spin.ok() || !a->cudaMalloc(&buf, 4096).ok()) _exit(10);

    std::atomic<bool> a_returned{false};
    std::thread tenant_a([&] {
      simcuda::LaunchConfig config;
      config.grid = {4, 1, 1};
      config.block = {1, 1, 1};
      (void)a->cudaLaunchKernel(*spin, config, {KernelArg::U64(buf)});
      a_returned.store(true, std::memory_order_release);
    });

    // A's launch is consumed (request read, no response yet): its pump
    // thread is now parked in the handler's wait on the endless kernel.
    ipc::Channel& a_channel = a_heap.channel();
    if (!PollUntil(
            [&] {
              return a_channel.request().messages_read() >
                     a_channel.response().messages_written();
            },
            10'000))
      _exit(11);
    constexpr int kRounds = 8;
    for (int round = 0; round < kRounds; ++round)
      if (RunHonestWorkload(*b) != 0) _exit(12);
    // A's kernel ends only with this process.
    _exit(a_returned.load(std::memory_order_acquire) ? 13 : 0);
  });
  ASSERT_GT(child, 0);
  EXPECT_EQ(WaitExit(child), 0);
}

}  // namespace
}  // namespace grd::guardian
