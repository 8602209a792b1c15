// Robustness of the grdManager request dispatcher: malformed, truncated and
// adversarial messages must produce error responses, never crashes or
// protection bypasses. The manager is the trust boundary — clients are
// untrusted (threat model, §3/§5).
#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "common/rng.hpp"
#include "fleet/chaos.hpp"
#include "guardian/grdlib.hpp"
#include "guardian/manager.hpp"
#include "guardian/transport.hpp"
#include "ipc/channel.hpp"
#include "ptx/generator.hpp"
#include "ptx/printer.hpp"
#include "simgpu/device_spec.hpp"

namespace grd::guardian {
namespace {

using ptxexec::KernelArg;
using simcuda::DevicePtr;

class RobustnessTest : public ::testing::Test {
 protected:
  RobustnessTest()
      : gpu_(simgpu::QuadroRtxA4000()),
        manager_(&gpu_, ManagerOptions{}),
        transport_(&manager_) {}

  // Sends raw bytes; returns the decoded response status.
  Status Send(ipc::Bytes raw) {
    const auto response = manager_.HandleRequest(raw);
    auto decoded = protocol::DecodeResponse(response);
    return decoded.ok() ? OkStatus() : decoded.status();
  }

  simcuda::Gpu gpu_;
  GrdManager manager_;
  LoopbackTransport transport_;
};

TEST_F(RobustnessTest, EmptyMessage) {
  EXPECT_FALSE(Send({}).ok());
}

TEST_F(RobustnessTest, TruncatedHeader) {
  EXPECT_FALSE(Send({0x03, 0x00}).ok());
}

TEST_F(RobustnessTest, UnknownOpcode) {
  ipc::Writer request;
  request.Put<std::uint32_t>(0xDEAD);
  request.Put<std::uint64_t>(1);
  EXPECT_FALSE(Send(std::move(request).Take()).ok());
}

TEST_F(RobustnessTest, BatchAbortAnswersInFullFormWithPerOpStatuses) {
  auto lib = GrdLib::Connect(&transport_, 1 << 20);
  ASSERT_TRUE(lib.ok());
  simcuda::EventId event = 0;
  ASSERT_TRUE(lib->cudaEventCreateWithFlags(&event, 0).ok());

  // sub0: valid EventRecord on the default stream. sub1: launch with a
  // bogus function handle — fails, aborting the batch.
  ipc::Writer sub0;
  protocol::WriteHeader(sub0, protocol::Op::kEventRecord, lib->client_id());
  sub0.Put<std::uint64_t>(event);
  sub0.Put<std::uint64_t>(0);
  ipc::Writer sub1;
  protocol::WriteHeader(sub1, protocol::Op::kLaunchKernel, lib->client_id());
  sub1.Put<std::uint64_t>(999);  // unknown function handle
  for (int i = 0; i < 6; ++i) sub1.Put<std::uint32_t>(1);  // grid + block
  sub1.Put<std::uint64_t>(0);    // stream
  sub1.Put<std::uint32_t>(0);    // argc

  ipc::Writer envelope;
  protocol::WriteHeader(envelope, protocol::Op::kBatch, lib->client_id());
  envelope.Put<std::uint32_t>(2);
  const ipc::Bytes sub0_bytes = std::move(sub0).Take();
  const ipc::Bytes sub1_bytes = std::move(sub1).Take();
  envelope.PutBlob(sub0_bytes.data(), sub0_bytes.size());
  envelope.PutBlob(sub1_bytes.data(), sub1_bytes.size());

  const auto response = manager_.HandleRequest(std::move(envelope).Take());
  auto reader = protocol::DecodeResponse(response);
  ASSERT_TRUE(reader.ok()) << reader.status();
  auto form = reader->Get<std::uint8_t>();
  ASSERT_TRUE(form.ok());
  EXPECT_EQ(*form, 0) << "aborted batch must keep the full response form";
  auto executed = reader->Get<std::uint32_t>();
  ASSERT_TRUE(executed.ok());
  ASSERT_EQ(*executed, 2u);
  auto first = reader->GetBlob();
  ASSERT_TRUE(first.ok());
  EXPECT_TRUE(protocol::DecodeResponse(*first).ok());
  auto second = reader->GetBlob();
  ASSERT_TRUE(second.ok());
  auto second_decoded = protocol::DecodeResponse(*second);
  ASSERT_FALSE(second_decoded.ok());
  EXPECT_EQ(second_decoded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(manager_.stats().batch_responses_compacted, 0u);
  EXPECT_EQ(manager_.stats().batches_decoded, 1u);
}

TEST_F(RobustnessTest, TruncatedLaunchRequest) {
  auto lib = GrdLib::Connect(&transport_, 1 << 20);
  ASSERT_TRUE(lib.ok());
  ipc::Writer request;
  protocol::WriteHeader(request, protocol::Op::kLaunchKernel,
                        lib->client_id());
  request.Put<std::uint64_t>(1);   // function id
  request.Put<std::uint32_t>(1);   // grid.x ... then nothing
  const Status s = Send(std::move(request).Take());
  EXPECT_EQ(s.code(), StatusCode::kOutOfRange);  // "message truncated"
}

TEST_F(RobustnessTest, ForgedBlobLengthsGetCleanErrors) {
  // Blob length prefixes are tenant-controlled. Lengths near 2^64 used to
  // wrap the reader's `pos + len` bounds check, so a forged synchronous
  // H2D or kBatch sub-request built a payload from an inverted range.
  auto lib = GrdLib::Connect(&transport_, 1 << 20);
  ASSERT_TRUE(lib.ok());
  DevicePtr dst = 0;
  ASSERT_TRUE(lib->cudaMalloc(&dst, 4096).ok());

  for (const protocol::Op op :
       {protocol::Op::kMemcpyH2D, protocol::Op::kMemcpyH2DAsync,
        protocol::Op::kBatch}) {
    ipc::Writer prefix;
    protocol::WriteHeader(prefix, op, lib->client_id());
    if (op == protocol::Op::kBatch) {
      prefix.Put<std::uint32_t>(1);  // one sub-request
    } else {
      prefix.Put<std::uint64_t>(dst);
      if (op == protocol::Op::kMemcpyH2DAsync) prefix.Put<std::uint64_t>(0);
    }
    // Offset the reader reaches right after the length prefix: the forged
    // length that wraps `pos + len` to exactly zero.
    const std::uint64_t after_len =
        prefix.bytes().size() + sizeof(std::uint64_t);
    for (const std::uint64_t forged :
         {~std::uint64_t{0}, std::uint64_t{0} - after_len,
          std::uint64_t{0} - after_len + 3, std::uint64_t{1} << 63,
          std::uint64_t{9}}) {
      ipc::Bytes raw = prefix.bytes();
      ipc::Writer tail;
      tail.Put<std::uint64_t>(forged);
      tail.Put<std::uint32_t>(0x5EED);  // 4 real payload bytes
      raw.insert(raw.end(), tail.bytes().begin(), tail.bytes().end());
      EXPECT_EQ(Send(std::move(raw)).code(), StatusCode::kOutOfRange)
          << "op " << static_cast<int>(op) << " length " << forged;
    }
  }

  // The manager keeps serving the same tenant.
  std::uint32_t word = 7;
  ASSERT_TRUE(lib->cudaMemcpyH2D(dst, &word, 4).ok());
  std::uint32_t back = 0;
  ASSERT_TRUE(lib->cudaMemcpy(&back, dst, 4, simcuda::MemcpyKind::kDeviceToHost)
                  .ok());
  EXPECT_EQ(back, 7u);
}

TEST_F(RobustnessTest, RegistrationLargerThanTheDeviceIsRejected) {
  // The partition size is rounded up to a power of two; sizes past the
  // device (up to 2^64 - 1, where rounding overflows) are refused cleanly.
  for (const std::uint64_t size :
       {gpu_.spec().global_mem_bytes + 1, (std::uint64_t{1} << 63) + 1,
        ~std::uint64_t{0}}) {
    auto lib = GrdLib::Connect(&transport_, size);
    ASSERT_FALSE(lib.ok()) << size;
    EXPECT_EQ(lib.status().code(), StatusCode::kOutOfMemory) << size;
  }
  auto lib = GrdLib::Connect(&transport_, 1 << 20);
  EXPECT_TRUE(lib.ok());
}

TEST_F(RobustnessTest, LaunchClaimingHugeArgCount) {
  auto lib = GrdLib::Connect(&transport_, 1 << 20);
  ASSERT_TRUE(lib.ok());
  ipc::Writer request;
  protocol::WriteHeader(request, protocol::Op::kLaunchKernel,
                        lib->client_id());
  request.Put<std::uint64_t>(1);
  for (int i = 0; i < 6; ++i) request.Put<std::uint32_t>(1);  // dims
  request.Put<std::uint64_t>(0);            // stream
  request.Put<std::uint32_t>(0xFFFFFFFF);   // argc lie
  EXPECT_FALSE(Send(std::move(request).Take()).ok());
}

TEST_F(RobustnessTest, SpoofedClientIdRejected) {
  // A client forging another tenant's id must not reach their partition:
  // ids map to partitions server-side, and unknown ids are rejected.
  ipc::Writer request;
  protocol::WriteHeader(request, protocol::Op::kMalloc, 424242);
  request.Put<std::uint64_t>(64);
  EXPECT_EQ(Send(std::move(request).Take()).code(), StatusCode::kNotFound);
}

TEST_F(RobustnessTest, OperationsAfterDisconnectRejected) {
  auto lib = GrdLib::Connect(&transport_, 1 << 20);
  ASSERT_TRUE(lib.ok());
  const ClientId id = lib->client_id();
  ASSERT_TRUE(lib->Disconnect().ok());
  ipc::Writer request;
  protocol::WriteHeader(request, protocol::Op::kMalloc, id);
  request.Put<std::uint64_t>(64);
  EXPECT_EQ(Send(std::move(request).Take()).code(), StatusCode::kNotFound);
}

TEST_F(RobustnessTest, MemcpyWithForgedDeviceAddressRejected) {
  // Even a hand-crafted (non-GrdLib) message cannot read outside the
  // sender's own partition.
  auto attacker = GrdLib::Connect(&transport_, 1 << 20);
  auto victim = GrdLib::Connect(&transport_, 1 << 20);
  ASSERT_TRUE(attacker.ok() && victim.ok());
  DevicePtr secret = 0;
  ASSERT_TRUE(victim->cudaMalloc(&secret, 64).ok());

  ipc::Writer request;
  protocol::WriteHeader(request, protocol::Op::kMemcpyD2H,
                        attacker->client_id());
  request.Put<std::uint64_t>(secret);  // foreign address
  request.Put<std::uint64_t>(64);
  EXPECT_EQ(Send(std::move(request).Take()).code(),
            StatusCode::kPermissionDenied);
}

TEST_F(RobustnessTest, ModuleLoadWithGarbagePtxRejected) {
  auto lib = GrdLib::Connect(&transport_, 1 << 20);
  ASSERT_TRUE(lib.ok());
  EXPECT_FALSE(lib->cuModuleLoadData("definitely not ptx }{").ok());
  // The client remains usable after the rejected load.
  DevicePtr p = 0;
  EXPECT_TRUE(lib->cudaMalloc(&p, 64).ok());
}

TEST_F(RobustnessTest, LaunchWithWrongFunctionHandle) {
  auto lib = GrdLib::Connect(&transport_, 1 << 20);
  ASSERT_TRUE(lib.ok());
  EXPECT_FALSE(
      lib->cudaLaunchKernel(999, simcuda::LaunchConfig{}, {}).ok());
}

// ---- kSetPriority (preemption engine) ------------------------------------

TEST_F(RobustnessTest, SetPriorityTruncatedPayloadRejected) {
  auto lib = GrdLib::Connect(&transport_, 1 << 20);
  ASSERT_TRUE(lib.ok());
  ipc::Writer request;
  protocol::WriteHeader(request, protocol::Op::kSetPriority,
                        lib->client_id());
  request.Put<std::uint8_t>(0);  // scope only; stream id + priority missing
  EXPECT_EQ(Send(std::move(request).Take()).code(), StatusCode::kOutOfRange);
}

TEST_F(RobustnessTest, SetPriorityUnknownClassRejected) {
  auto lib = GrdLib::Connect(&transport_, 1 << 20);
  ASSERT_TRUE(lib.ok());
  ipc::Writer request;
  protocol::WriteHeader(request, protocol::Op::kSetPriority,
                        lib->client_id());
  request.Put<std::uint8_t>(0);
  request.Put<std::uint64_t>(0);
  request.Put<std::uint8_t>(9);  // no such PriorityClass
  EXPECT_EQ(Send(std::move(request).Take()).code(),
            StatusCode::kInvalidArgument);
}

TEST_F(RobustnessTest, SetPriorityUnknownScopeRejected) {
  auto lib = GrdLib::Connect(&transport_, 1 << 20);
  ASSERT_TRUE(lib.ok());
  ipc::Writer request;
  protocol::WriteHeader(request, protocol::Op::kSetPriority,
                        lib->client_id());
  request.Put<std::uint8_t>(7);  // scope is 0 (session) or 1 (stream)
  request.Put<std::uint64_t>(0);
  request.Put<std::uint8_t>(0);
  EXPECT_EQ(Send(std::move(request).Take()).code(),
            StatusCode::kInvalidArgument);
}

TEST_F(RobustnessTest, SetPriorityUnknownStreamRejected) {
  auto lib = GrdLib::Connect(&transport_, 1 << 20);
  ASSERT_TRUE(lib.ok());
  EXPECT_EQ(lib->SetStreamPriority(4242, protocol::PriorityClass::kRealtime)
                .code(),
            StatusCode::kInvalidArgument);
}

TEST_F(RobustnessTest, SetPriorityOnDeadSessionRejected) {
  auto lib = GrdLib::Connect(&transport_, 1 << 20);
  ASSERT_TRUE(lib.ok());
  const ClientId id = lib->client_id();
  ASSERT_TRUE(lib->Disconnect().ok());
  ipc::Writer request;
  protocol::WriteHeader(request, protocol::Op::kSetPriority, id);
  request.Put<std::uint8_t>(0);
  request.Put<std::uint64_t>(0);
  request.Put<std::uint8_t>(0);
  EXPECT_EQ(Send(std::move(request).Take()).code(), StatusCode::kNotFound);
}

// ---- ring-level chaos (fleet::ChaosController frame injectors) ------------
//
// The dispatcher-level tests above hand malformed bytes straight to
// HandleRequest; these go one layer down. A live ManagerServer pumps two
// shared-memory channels while torn / truncated / garbage frames are
// injected into one of them: the ring must contain the damage (frames
// discarded + counted, an error response written back), the neighboring
// tenant must never notice, and the poisoned channel itself must keep
// serving valid requests afterwards.
class RingChaosTest : public ::testing::Test {
 protected:
  static constexpr auto kTimeout = std::chrono::seconds(2);

  RingChaosTest()
      : gpu_(simgpu::QuadroRtxA4000()),
        manager_(&gpu_, ManagerOptions{}),
        server_(&manager_, ManagerServer::Policy::kRoundRobin, 2) {
    server_.AddChannel(&honest_.channel());
    server_.AddChannel(&chaotic_.channel());
    server_.Start();
  }
  ~RingChaosTest() override { server_.Stop(); }

  // Waits until the pump has consumed the injected frame and answered.
  // Returns the decoded status of that answer.
  Status DrainChaosResponse() {
    auto response = chaotic_.channel().response().ReadWithDeadline(kTimeout);
    if (!response.ok()) return response.status();
    auto decoded = protocol::DecodeResponse(*response);
    return decoded.ok() ? OkStatus() : decoded.status();
  }

  simcuda::Gpu gpu_;
  GrdManager manager_;
  ipc::HeapChannel honest_;
  ipc::HeapChannel chaotic_;
  ManagerServer server_;
};

TEST_F(RingChaosTest, TornFrameIsContainedAndAnswered) {
  ChannelTransport honest_transport(&honest_.channel(), kTimeout);
  ChannelTransport chaotic_transport(&chaotic_.channel(), kTimeout);
  auto survivor = GrdLib::Connect(&honest_transport, 1 << 20);
  auto victim = GrdLib::Connect(&chaotic_transport, 1 << 20);
  ASSERT_TRUE(survivor.ok() && victim.ok());

  // The injector is this thread, and the victim session is idle, so the
  // request ring has exactly one writer — same discipline as the fleet's
  // reserved chaos channel.
  Rng rng(21);
  fleet::ChaosController::InjectTornFrame(chaotic_.channel().request(), rng);

  // Containment: the frame is discarded + counted and the pump answers
  // with kAborted instead of wedging or crashing.
  EXPECT_EQ(DrainChaosResponse().code(), StatusCode::kAborted);
  EXPECT_GE(chaotic_.channel().request().frames_corrupt(), 1u);

  // The neighbor never noticed; the poisoned channel still serves.
  DevicePtr p = 0;
  EXPECT_TRUE(survivor->cudaMalloc(&p, 64).ok());
  DevicePtr q = 0;
  EXPECT_TRUE(victim->cudaMalloc(&q, 64).ok());
}

TEST_F(RingChaosTest, TruncatedFrameIsContainedAndAnswered) {
  ChannelTransport chaotic_transport(&chaotic_.channel(), kTimeout);
  auto victim = GrdLib::Connect(&chaotic_transport, 1 << 20);
  ASSERT_TRUE(victim.ok());

  fleet::ChaosController::InjectTruncatedFrame(chaotic_.channel().request());
  EXPECT_EQ(DrainChaosResponse().code(), StatusCode::kAborted);
  EXPECT_GE(chaotic_.channel().request().frames_corrupt(), 1u);

  DevicePtr p = 0;
  EXPECT_TRUE(victim->cudaMalloc(&p, 64).ok());
}

TEST_F(RingChaosTest, GarbageFrameRejectedAtTheDispatcher) {
  ChannelTransport chaotic_transport(&chaotic_.channel(), kTimeout);
  auto victim = GrdLib::Connect(&chaotic_transport, 1 << 20);
  ASSERT_TRUE(victim.ok());

  // A well-formed frame full of junk: the RING accepts it (no corruption at
  // this layer), the DISPATCHER rejects it — a decodable error response, no
  // crash, no count against ring integrity.
  Rng rng(22);
  fleet::ChaosController::InjectGarbageFrame(chaotic_.channel().request(),
                                             rng);
  EXPECT_FALSE(DrainChaosResponse().ok());
  EXPECT_EQ(chaotic_.channel().request().frames_corrupt(), 0u);

  DevicePtr p = 0;
  EXPECT_TRUE(victim->cudaMalloc(&p, 64).ok());
}

TEST_F(RingChaosTest, RepeatedChaosBarrageNeverPoisonsTheServer) {
  ChannelTransport honest_transport(&honest_.channel(), kTimeout);
  auto survivor = GrdLib::Connect(&honest_transport, 1 << 20);
  ASSERT_TRUE(survivor.ok());

  Rng rng(23);
  int answered = 0;
  for (int round = 0; round < 12; ++round) {
    switch (round % 3) {
      case 0:
        fleet::ChaosController::InjectTornFrame(chaotic_.channel().request(),
                                                rng);
        break;
      case 1:
        fleet::ChaosController::InjectTruncatedFrame(
            chaotic_.channel().request());
        break;
      case 2:
        fleet::ChaosController::InjectGarbageFrame(
            chaotic_.channel().request(), rng);
        break;
    }
    // Serve each fault to completion before the next: back-to-back raw
    // injections into one ring may coalesce into a single repair, which is
    // fine for the fleet but would make this count nondeterministic.
    if (!DrainChaosResponse().ok()) ++answered;
    // The honest tenant stays fully functional between every fault.
    DevicePtr p = 0;
    ASSERT_TRUE(survivor->cudaMalloc(&p, 64).ok()) << "round " << round;
    ASSERT_TRUE(survivor->cudaFree(p).ok()) << "round " << round;
  }
  EXPECT_EQ(answered, 12);
  EXPECT_GE(chaotic_.channel().request().frames_corrupt(), 8u);
}

TEST_F(RobustnessTest, RandomBytesNeverCrashTheManager) {
  Rng rng(0xC0FFEE);
  for (int i = 0; i < 5000; ++i) {
    ipc::Bytes junk(rng.NextBelow(64));
    for (auto& b : junk) b = static_cast<std::uint8_t>(rng.Next());
    const auto response = manager_.HandleRequest(junk);
    // Every response must decode as ok-or-error, never be malformed.
    ipc::Reader reader(response);
    auto flag = reader.Get<std::uint8_t>();
    ASSERT_TRUE(flag.ok());
  }
}

TEST_F(RobustnessTest, RandomBytesWithValidHeaderNeverCrash) {
  // Worse: syntactically valid headers with garbage payloads, using a live
  // client id so deep handlers are reached.
  auto lib = GrdLib::Connect(&transport_, 1 << 20);
  ASSERT_TRUE(lib.ok());
  Rng rng(0xBADF00D);
  for (int i = 0; i < 5000; ++i) {
    ipc::Writer request;
    const auto op = static_cast<protocol::Op>(
        1 + rng.NextBelow(static_cast<std::uint32_t>(
                protocol::Op::kSetPriority)));
    protocol::WriteHeader(request, op, lib->client_id());
    ipc::Bytes raw = std::move(request).Take();
    const std::size_t junk = rng.NextBelow(48);
    for (std::size_t b = 0; b < junk; ++b)
      raw.push_back(static_cast<std::uint8_t>(rng.Next()));
    const auto response = manager_.HandleRequest(raw);
    ipc::Reader reader(response);
    ASSERT_TRUE(reader.Get<std::uint8_t>().ok());
    if (!manager_.active_clients()) break;  // disconnect op may have landed
  }
}

}  // namespace
}  // namespace grd::guardian
