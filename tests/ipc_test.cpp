#include <gtest/gtest.h>

#include <pthread.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <thread>

#include "ipc/channel.hpp"
#include "ipc/serializer.hpp"
#include "ipc/shm_ring.hpp"

namespace grd::ipc {
namespace {

TEST(Serializer, PodRoundTrip) {
  Writer writer;
  writer.Put<std::uint32_t>(42);
  writer.Put<std::uint64_t>(0xDEADBEEFCAFEull);
  writer.Put<double>(3.5);
  Reader reader(writer.bytes());
  EXPECT_EQ(*reader.Get<std::uint32_t>(), 42u);
  EXPECT_EQ(*reader.Get<std::uint64_t>(), 0xDEADBEEFCAFEull);
  EXPECT_DOUBLE_EQ(*reader.Get<double>(), 3.5);
  EXPECT_EQ(reader.remaining(), 0u);
}

TEST(Serializer, StringsAndBlobs) {
  Writer writer;
  writer.PutString("cudaLaunchKernel");
  const std::uint8_t payload[4] = {1, 2, 3, 4};
  writer.PutBlob(payload, sizeof(payload));
  writer.PutString("");
  Reader reader(writer.bytes());
  EXPECT_EQ(*reader.GetString(), "cudaLaunchKernel");
  auto blob = reader.GetBlob();
  ASSERT_TRUE(blob.ok());
  EXPECT_EQ(blob->size(), 4u);
  EXPECT_EQ((*blob)[3], 4u);
  EXPECT_EQ(*reader.GetString(), "");
}

TEST(Serializer, TruncationDetected) {
  Writer writer;
  writer.Put<std::uint32_t>(7);
  Reader reader(writer.bytes());
  ASSERT_TRUE(reader.Get<std::uint32_t>().ok());
  EXPECT_FALSE(reader.Get<std::uint64_t>().ok());
  Reader reader2(writer.bytes());
  EXPECT_FALSE(reader2.GetString().ok());  // length says 7, only 0 remain
}

TEST(ShmRing, SingleThreadMessageStream) {
  std::vector<std::uint8_t> region(ShmRing::RegionSize(4096));
  ShmRing ring(region.data(), 4096, /*initialize=*/true);
  for (int i = 0; i < 100; ++i) {
    Bytes message = {static_cast<std::uint8_t>(i),
                     static_cast<std::uint8_t>(i + 1)};
    ASSERT_TRUE(ring.Write(message).ok());
    auto out = ring.TryRead();
    ASSERT_TRUE(out.ok());
    EXPECT_EQ((*out)[0], static_cast<std::uint8_t>(i));
  }
  EXPECT_EQ(ring.TryRead().status().code(), StatusCode::kNotFound);
}

TEST(ShmRing, WrapAround) {
  // Capacity chosen so messages straddle the ring boundary repeatedly.
  std::vector<std::uint8_t> region(ShmRing::RegionSize(64));
  ShmRing ring(region.data(), 64, true);
  for (int i = 0; i < 200; ++i) {
    Bytes message(13, static_cast<std::uint8_t>(i));
    ASSERT_TRUE(ring.Write(message).ok());
    auto out = ring.TryRead();
    ASSERT_TRUE(out.ok());
    ASSERT_EQ(out->size(), 13u);
    EXPECT_EQ((*out)[12], static_cast<std::uint8_t>(i));
  }
}

TEST(ShmRing, OversizeMessageRejected) {
  std::vector<std::uint8_t> region(ShmRing::RegionSize(64));
  ShmRing ring(region.data(), 64, true);
  Bytes big(65, 0);
  EXPECT_EQ(ring.Write(big).code(), StatusCode::kInvalidArgument);
}

TEST(ShmRing, CloseUnblocksReader) {
  std::vector<std::uint8_t> region(ShmRing::RegionSize(4096));
  ShmRing ring(region.data(), 4096, true);
  std::thread closer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    ring.Close();
  });
  auto out = ring.Read();
  EXPECT_EQ(out.status().code(), StatusCode::kUnavailable);
  closer.join();
}

TEST(ShmRing, CrossThreadThroughput) {
  std::vector<std::uint8_t> region(ShmRing::RegionSize(1 << 16));
  ShmRing ring(region.data(), 1 << 16, true);
  constexpr int kMessages = 20000;
  std::thread producer([&] {
    for (int i = 0; i < kMessages; ++i) {
      Bytes message(sizeof(int));
      std::memcpy(message.data(), &i, sizeof(int));
      ASSERT_TRUE(ring.Write(message).ok());
    }
  });
  for (int i = 0; i < kMessages; ++i) {
    auto out = ring.Read();
    ASSERT_TRUE(out.ok());
    int value = -1;
    std::memcpy(&value, out->data(), sizeof(int));
    ASSERT_EQ(value, i);  // SPSC ordering
  }
  producer.join();
}

TEST(Channel, RequestResponseAcrossThreads) {
  HeapChannel heap;
  Channel& channel = heap.channel();
  std::thread server([&] {
    for (int i = 0; i < 50; ++i) {
      auto request = channel.request().Read();
      ASSERT_TRUE(request.ok());
      Bytes response = *request;
      response.push_back(0xFF);  // echo + marker
      ASSERT_TRUE(channel.response().Write(response).ok());
    }
  });
  for (int i = 0; i < 50; ++i) {
    Bytes request = {static_cast<std::uint8_t>(i)};
    auto response = channel.Call(request);
    ASSERT_TRUE(response.ok());
    ASSERT_EQ(response->size(), 2u);
    EXPECT_EQ((*response)[0], static_cast<std::uint8_t>(i));
    EXPECT_EQ((*response)[1], 0xFF);
  }
  server.join();
}

TEST(ShmRing, MessageCountersTrackWholePublishes) {
  std::vector<std::uint8_t> region(ShmRing::RegionSize(4096));
  ShmRing ring(region.data(), 4096, /*initialize=*/true);
  EXPECT_EQ(ring.messages_written(), 0u);
  EXPECT_EQ(ring.messages_read(), 0u);
  const Bytes message(16, 0xAB);
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(ring.Write(message).ok());
  EXPECT_EQ(ring.messages_written(), 3u);
  ASSERT_TRUE(ring.TryRead().ok());
  ASSERT_TRUE(ring.TryRead().ok());
  EXPECT_EQ(ring.messages_read(), 2u);
  // The crash-repair deficit a supervisor would compute: one consumed
  // message per matching response still owed.
  EXPECT_EQ(ring.messages_written() - ring.messages_read(), 1u);
}

// Writes then reads `message` once, checking it comes back intact.
void RoundTrip(ShmRing& ring, const Bytes& message) {
  ASSERT_TRUE(ring.Write(message).ok());
  auto out = ring.TryRead();
  ASSERT_TRUE(out.ok()) << out.status();
  ASSERT_EQ(*out, message);
}

TEST(ShmRing, ClosedLoopTrafficStaysInTheFirstPages) {
  // A drained ring rewinds to its first byte (behind a marker frame) once
  // the write offset reaches min(capacity / 2, 64 KiB), so request/response
  // traffic of many times the capacity keeps reusing the same few pages
  // instead of touching the whole mapping lap after lap.
  constexpr std::uint64_t kCapacity = 1 << 20;
  constexpr std::uint8_t kUntouched = 0xEE;
  std::vector<std::uint8_t> region(ShmRing::RegionSize(kCapacity),
                                   kUntouched);
  ShmRing ring(region.data(), kCapacity, /*initialize=*/true);
  constexpr int kMessages = 20000;  // ~20 MiB through a 1 MiB ring
  for (int i = 0; i < kMessages; ++i)
    RoundTrip(ring, Bytes(1000, static_cast<std::uint8_t>(i)));
  EXPECT_EQ(ring.messages_written(), static_cast<std::uint64_t>(kMessages));
  EXPECT_EQ(ring.messages_read(), static_cast<std::uint64_t>(kMessages));
  EXPECT_EQ(ring.frames_corrupt(), 0u);

  // The last frame (or marker) a writer can start lies below 64 KiB; every
  // byte past that frame's end was never written.
  const std::uint64_t frame = sizeof(std::uint32_t) + 1000;
  const std::uint64_t touched = (64 << 10) + frame;
  const std::uint8_t* data = region.data() + sizeof(ShmRing::Header);
  std::uint64_t written_past = 0;
  for (std::uint64_t i = touched; i < kCapacity; ++i)
    written_past += data[i] != kUntouched ? 1 : 0;
  EXPECT_EQ(written_past, 0u);
}

TEST(ShmRing, CountersStayExactAcrossRewinds) {
  // Crash repair diffs messages_written against messages_read, so the
  // rewind marker must never count as a message on either side — including
  // when the consumer lags and several frames queue up behind a marker.
  std::vector<std::uint8_t> region(ShmRing::RegionSize(4096));
  ShmRing ring(region.data(), 4096, /*initialize=*/true);
  auto* header = reinterpret_cast<ShmRing::Header*>(region.data());
  std::uint64_t sent = 0;
  std::uint64_t frame_bytes = 0;
  for (int round = 0; round < 300; ++round) {
    const int burst = 1 + round % 4;
    const std::size_t size = 40 + (round * 97) % 400;  // a burst fits
    for (int k = 0; k < burst; ++k) {
      Bytes message(size);
      std::memcpy(message.data(), &sent, sizeof(sent));
      ASSERT_TRUE(ring.TryWrite(message).ok()) << "round " << round;
      ++sent;
      frame_bytes += sizeof(std::uint32_t) + size;
    }
    for (int k = 0; k < burst; ++k) {
      auto out = ring.TryRead();
      ASSERT_TRUE(out.ok()) << out.status();
      std::uint64_t seq = 0;
      std::memcpy(&seq, out->data(), sizeof(seq));
      ASSERT_EQ(seq, sent - burst + k);
    }
    EXPECT_EQ(ring.TryRead().status().code(), StatusCode::kNotFound);
  }
  EXPECT_EQ(ring.messages_written(), sent);
  EXPECT_EQ(ring.messages_read(), sent);
  EXPECT_EQ(ring.frames_corrupt(), 0u);
  // Rewinds did happen: the write index moved further than the frames.
  EXPECT_GT(header->tail.load(), frame_bytes);
}

TEST(ShmRing, ForgedRewindMarkerIsContained) {
  std::vector<std::uint8_t> region(ShmRing::RegionSize(4096));
  ShmRing ring(region.data(), 4096, /*initialize=*/true);
  RoundTrip(ring, Bytes(100, 1));
  const std::uint32_t marker = 0xFFFFFFFFu;

  // A marker whose lap boundary lies past tail points at bytes nobody
  // published: a corrupt frame, discarded and counted.
  ASSERT_TRUE(ring.InjectRaw(&marker, sizeof(marker)).ok());
  EXPECT_EQ(ring.TryRead().status().code(), StatusCode::kAborted);
  EXPECT_EQ(ring.frames_corrupt(), 1u);
  RoundTrip(ring, Bytes(100, 2));

  // A marker whose lap boundary is published but holds no whole frame: the
  // marker is accepted, the frame behind it is validated and rejected.
  auto* header = reinterpret_cast<ShmRing::Header*>(region.data());
  const std::uint64_t to_lap = 4096 - header->tail.load() % 4096;
  Bytes forged(to_lap + 2, 0xAB);
  std::memcpy(forged.data(), &marker, sizeof(marker));
  ASSERT_TRUE(ring.InjectRaw(forged.data(), forged.size()).ok());
  EXPECT_EQ(ring.TryRead().status().code(), StatusCode::kAborted);
  EXPECT_EQ(ring.frames_corrupt(), 2u);

  // The ring keeps serving valid frames afterwards.
  RoundTrip(ring, Bytes(100, 3));
  EXPECT_EQ(ring.TryRead().status().code(), StatusCode::kNotFound);
}

TEST(Serializer, ForgedBlobLengthsAreTruncationErrors) {
  // Lengths near 2^64 used to wrap `pos + len` past the bounds check and
  // build a blob from an inverted range.
  for (const std::uint64_t forged :
       {~std::uint64_t{0}, ~std::uint64_t{0} - 7, std::uint64_t{0} - 16,
        std::uint64_t{1} << 63, std::uint64_t{5}}) {
    Writer writer;
    writer.Put<std::uint64_t>(forged);
    writer.Put<std::uint32_t>(0xCAFE);
    Reader blob(writer.bytes());
    EXPECT_EQ(blob.GetBlob().status().code(), StatusCode::kOutOfRange)
        << forged;
    Reader view(writer.bytes());
    EXPECT_EQ(view.GetBlobView().status().code(), StatusCode::kOutOfRange)
        << forged;
  }
}

TEST(ShmRing, ReadWithDeadlineTimesOutOnEmptyRing) {
  std::vector<std::uint8_t> region(ShmRing::RegionSize(4096));
  ShmRing ring(region.data(), 4096, /*initialize=*/true);
  const auto start = std::chrono::steady_clock::now();
  auto result = ring.ReadWithDeadline(std::chrono::milliseconds(50));
  const auto elapsed = std::chrono::steady_clock::now() - start;
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_GE(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed)
                .count(),
            50);
}

TEST(ShmRing, ReadWithDeadlineDeliversLateMessage) {
  std::vector<std::uint8_t> region(ShmRing::RegionSize(4096));
  ShmRing ring(region.data(), 4096, /*initialize=*/true);
  std::thread writer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    ASSERT_TRUE(ring.Write(Bytes(8, 0x5A)).ok());
  });
  auto result = ring.ReadWithDeadline(std::chrono::seconds(5));
  writer.join();
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->size(), 8u);
}

TEST(ShmRing, ReadWithDeadlineIsNotShortenedBySignalStorm) {
  // The EINTR audit's regression guard: a signal landing in the timed wait
  // must RETRY against the absolute deadline, not spuriously time out early
  // (nor error out). Hammer the waiting thread with SIGUSR1 (handler
  // installed without SA_RESTART so sleeps genuinely return EINTR) and
  // check the full deadline was honored.
  struct sigaction action{};
  struct sigaction previous{};
  action.sa_handler = [](int) {};
  sigemptyset(&action.sa_mask);
  action.sa_flags = 0;  // no SA_RESTART: make EINTR observable
  ASSERT_EQ(sigaction(SIGUSR1, &action, &previous), 0);

  std::vector<std::uint8_t> region(ShmRing::RegionSize(4096));
  ShmRing ring(region.data(), 4096, /*initialize=*/true);
  std::atomic<bool> done{false};
  Status observed = OkStatus();
  std::chrono::steady_clock::duration elapsed{};
  std::thread reader([&] {
    const auto start = std::chrono::steady_clock::now();
    observed = ring.ReadWithDeadline(std::chrono::milliseconds(200)).status();
    elapsed = std::chrono::steady_clock::now() - start;
    done.store(true);
  });
  while (!done.load()) {
    pthread_kill(reader.native_handle(), SIGUSR1);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  reader.join();
  ASSERT_EQ(sigaction(SIGUSR1, &previous, nullptr), 0);

  EXPECT_EQ(observed.code(), StatusCode::kDeadlineExceeded);
  EXPECT_GE(
      std::chrono::duration_cast<std::chrono::milliseconds>(elapsed).count(),
      200);
}

TEST(ShmRing, MessagePublishedBeforeDeadlineIsNeverTimedOut) {
  // Deadline-edge race regression: ReadWithDeadline used to probe the ring
  // and THEN read the clock, so a frame published in that window — before
  // the deadline — was reported as DeadlineExceeded and the message sat
  // unconsumed (lost to this call; a retry would double-consume a later
  // pairing). The fix re-probes once on the deadline path, making the
  // invariant deterministic: a Write that RETURNS at or before the reader's
  // entry-time deadline estimate can never be timed out, because the
  // reader's internal deadline is at least that estimate and the final
  // probe happens after it. The producer aims its publish a few hundred
  // nanoseconds before the deadline to land in the danger window.
  std::vector<std::uint8_t> region(ShmRing::RegionSize(4096));
  ShmRing ring(region.data(), 4096, /*initialize=*/true);

  auto now_ns = [] {
    timespec ts;
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
  };

  constexpr int kTrials = 4000;
  // Short enough that the reader is still in its dense spin-probe phase
  // when the deadline expires (the window the bug lives in).
  constexpr std::int64_t kTimeoutNs = 20'000;
  std::atomic<int> armed{0};
  std::atomic<int> published{0};
  std::atomic<std::int64_t> deadline_estimate{0};
  std::atomic<std::int64_t> published_at{0};

  std::thread producer([&] {
    std::uint64_t salt = 0x9E3779B97F4A7C15ull;
    for (int trial = 1; trial <= kTrials; ++trial) {
      while (armed.load(std::memory_order_acquire) < trial) {
      }
      const std::int64_t deadline =
          deadline_estimate.load(std::memory_order_acquire);
      salt = salt * 6364136223846793005ull + 1442695040888963407ull;
      const std::int64_t lead = static_cast<std::int64_t>(salt % 1200);
      while (now_ns() < deadline - lead) {
      }
      ASSERT_TRUE(ring.Write(Bytes(4, 0x5A)).ok());
      published_at.store(now_ns(), std::memory_order_release);
      published.store(trial, std::memory_order_release);
    }
  });

  int violations = 0;
  for (int trial = 1; trial <= kTrials; ++trial) {
    const std::int64_t estimate = now_ns() + kTimeoutNs;
    deadline_estimate.store(estimate, std::memory_order_release);
    armed.store(trial, std::memory_order_release);
    auto result = ring.ReadWithDeadline(std::chrono::nanoseconds(kTimeoutNs));
    while (published.load(std::memory_order_acquire) < trial) {
    }
    if (!result.ok()) {
      ASSERT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
      // A publish whose Write RETURNED before the entry-time deadline
      // estimate must have been delivered, not timed out.
      if (published_at.load(std::memory_order_acquire) <= estimate)
        ++violations;
      // The frame is still in the ring (that is the bug's signature when it
      // fires, and the legitimate state when the publish was genuinely
      // late); drain it so the next trial starts empty.
      ASSERT_TRUE(ring.Read().ok());
    }
  }
  producer.join();
  EXPECT_EQ(violations, 0);
}

TEST(ShmRing, DoorbellSurvivesWriteIndexWrap) {
  // The futex doorbell used to wait on the low 32 bits of the byte-counted
  // tail, which aliases (ABA) when the write index crosses a 4 GiB
  // boundary; the doorbell is now a dedicated per-publish sequence counter.
  // Start the ring just below the 2^32 mark so this stream of messages
  // crosses it while a deadline reader sleeps on the doorbell.
  std::vector<std::uint8_t> region(ShmRing::RegionSize(4096));
  ShmRing ring(region.data(), 4096, /*initialize=*/true);
  auto* header = reinterpret_cast<ShmRing::Header*>(region.data());
  const std::uint64_t near_wrap = (1ull << 32) - 64;
  header->head.store(near_wrap, std::memory_order_relaxed);
  header->tail.store(near_wrap, std::memory_order_relaxed);

  std::thread producer([&] {
    for (int i = 0; i < 64; ++i) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
      ASSERT_TRUE(ring.Write(Bytes(12, static_cast<std::uint8_t>(i))).ok());
    }
  });
  for (int i = 0; i < 64; ++i) {
    auto out = ring.ReadWithDeadline(std::chrono::seconds(5));
    ASSERT_TRUE(out.ok());
    ASSERT_EQ(out->size(), 12u);
    EXPECT_EQ((*out)[0], static_cast<std::uint8_t>(i));
  }
  producer.join();
  EXPECT_GT(header->tail.load(std::memory_order_acquire), 1ull << 32);
}

TEST(Channel, CrossProcessViaForkAndSharedRegion) {
  // The paper's real deployment shape: client and manager in different
  // address spaces sharing a memory segment.
  auto region = SharedRegion::Create(Channel::RegionSize(4096));
  ASSERT_TRUE(region.ok());
  Channel parent_channel(region->addr(), 4096, /*initialize=*/true);

  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    // Child: attach and serve one doubling request.
    Channel child_channel(region->addr(), 4096, /*initialize=*/false);
    auto request = child_channel.request().Read();
    if (!request.ok()) _exit(1);
    std::uint32_t value = 0;
    std::memcpy(&value, request->data(), sizeof(value));
    value *= 2;
    Bytes response(sizeof(value));
    std::memcpy(response.data(), &value, sizeof(value));
    _exit(child_channel.response().Write(response).ok() ? 0 : 1);
  }

  std::uint32_t value = 21;
  Bytes request(sizeof(value));
  std::memcpy(request.data(), &value, sizeof(value));
  auto response = parent_channel.Call(request);
  ASSERT_TRUE(response.ok());
  std::uint32_t doubled = 0;
  std::memcpy(&doubled, response->data(), sizeof(doubled));
  EXPECT_EQ(doubled, 42u);

  int wstatus = 0;
  ASSERT_EQ(waitpid(pid, &wstatus, 0), pid);
  EXPECT_TRUE(WIFEXITED(wstatus));
  EXPECT_EQ(WEXITSTATUS(wstatus), 0);
}

}  // namespace
}  // namespace grd::ipc
