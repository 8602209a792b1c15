// SPSC shared-memory ring buffer carrying length-prefixed messages.
//
// This is the per-application IPC channel of the paper (§4): grdLib writes
// CUDA-call requests into the request ring, the grdManager consumes them and
// writes results into the response ring. The ring lives in a caller-provided
// region, which may be plain heap (thread-to-thread) or a MAP_SHARED mapping
// (process-to-process; see ShmSegment) — the layout is position-independent.
//
// Single-producer / single-consumer: one client per channel, the manager is
// the only consumer; cross-application concurrency comes from having one
// channel per client (paper: "a separate shared memory segment per
// application").
//
// Signal-safety audit (process-mode workers get signaled and SIGKILLed):
// the blocking Write/Read paths wait with a pure spin/yield loop —
// sched_yield cannot fail with EINTR, so no wait here can be cut short by a
// signal. The timeout-bearing waits, ReadWithDeadline and WriteWithDeadline,
// measure an ABSOLUTE CLOCK_MONOTONIC deadline and retry interrupted sleeps
// (and interrupted futex waits) against it, so a storm of signals delays the
// sleep slices but can never make the wait spuriously report
// DeadlineExceeded early (nor return late state).
//
// Torn-frame containment: a producer that scribbles garbage into the ring
// (chaos injection, a buggy client, a torn partial write that still advanced
// tail) can publish a length prefix that does not fit the published bytes.
// TryRead validates every frame against the published window before
// advancing; an impossible frame discards the ring's buffered bytes (head is
// clamped to tail), bumps `frames_corrupt` and surfaces kAborted — the
// consumer's pump keeps serving its other channels and later VALID frames on
// this ring still parse, instead of the reader walking off past tail forever.
//
// Rewind: a producer that finds the ring drained far enough into a lap
// publishes a rewind marker (length 0xFFFFFFFF) and starts its frame at the
// next lap boundary, so closed-loop traffic reuses the ring's first pages
// instead of first-touching all of it. The marker is validated like any
// frame and never counted as a message (see PublishFrame/TryRead).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>

#include "common/status.hpp"
#include "ipc/serializer.hpp"

namespace grd::ipc {

class ShmRing {
 public:
  // True when the platform supports the futex doorbell (Linux: the futex
  // word is a dedicated 32-bit publish-sequence counter, see Header).
  // Elsewhere WaitForMessage sleeps one short slice (at most 100 µs) and
  // returns false; callers that poll hot fall back to their own
  // spin/yield/sleep backoff.
#if defined(__linux__)
  static constexpr bool kFutexDoorbell = true;
#else
  static constexpr bool kFutexDoorbell = false;
#endif

  struct Header {
    std::atomic<std::uint64_t> head{0};  // consumer position
    std::atomic<std::uint64_t> tail{0};  // producer position
    std::uint64_t capacity = 0;          // data bytes
    std::atomic<std::uint32_t> closed{0};
    // Consumers registered on the futex doorbell (sleeping, or about to, on
    // the doorbell word). Producers skip the futex syscall entirely while
    // this is zero, which is the common loaded case.
    std::atomic<std::uint32_t> waiters{0};
    // Futex doorbell word: bumped once per publish (and on close). A
    // dedicated sequence counter rather than the low half of the 64-bit
    // byte-counted tail, which can alias (ABA) after exactly 4 GiB of
    // writes land between a waiter's snapshot and its futex wait — the
    // waiter would then sleep through a published message. The counter
    // advances by one per publish, so aliasing needs 2^32 whole messages
    // inside one bounded wait slice, which cannot happen.
    std::atomic<std::uint32_t> doorbell{0};
    // Whole messages published / consumed, for crash supervision: diffing
    // request-ring reads against response-ring writes tells a supervisor
    // how many requests a dead worker consumed without answering (crash
    // repair writes that many synthetic error responses). The counters
    // bracket their position stores conservatively — written is bumped
    // BEFORE the tail publish, read AFTER the head publish — so a SIGKILL
    // in either one-instruction window can only make the computed deficit
    // smaller: the failure shape is one stuck (retriable) client, never an
    // extra synthetic response that would desync the channel's
    // request/response pairing forever.
    std::atomic<std::uint64_t> messages_written{0};
    std::atomic<std::uint64_t> messages_read{0};
    // Impossible frames discarded by TryRead (see the file comment). After
    // a discard the written/read pairing on this ring is no longer exact —
    // the garbage bytes had no recoverable message boundaries.
    std::atomic<std::uint64_t> frames_corrupt{0};
  };

  // Total bytes a region must provide for a ring with `data_capacity` bytes
  // of payload space.
  static constexpr std::uint64_t RegionSize(std::uint64_t data_capacity) {
    return sizeof(Header) + data_capacity;
  }

  // Constructs the ring inside `region` (placement-initializes the header
  // when `initialize` is true; attach with false from the second process).
  ShmRing(void* region, std::uint64_t data_capacity, bool initialize);

  // Blocking write of one message (spin + yield backoff). Fails if the
  // message cannot ever fit or the ring is closed.
  Status Write(const Bytes& message);

  // Non-blocking write: NotFound immediately when the ring lacks space
  // (mirroring TryRead's NotFound-when-empty), Unavailable when closed.
  Status TryWrite(const Bytes& message);

  // Blocking write bounded by `timeout`: DeadlineExceeded when the ring
  // stays full past an absolute CLOCK_MONOTONIC deadline computed on entry.
  // EINTR-safe by construction, same discipline as ReadWithDeadline.
  Status WriteWithDeadline(const Bytes& message,
                           std::chrono::nanoseconds timeout);

  // Blocking read of the next message. Fails with kUnavailable when the
  // ring is closed and drained.
  Result<Bytes> Read();

  // Non-blocking read: returns NotFound immediately when empty. Returns
  // kAborted after discarding buffered bytes when the next frame is
  // impossible (torn/garbage length prefix — see the file comment).
  Result<Bytes> TryRead();

  // Blocking read bounded by `timeout`: DeadlineExceeded when the ring
  // stays empty past an absolute CLOCK_MONOTONIC deadline computed on
  // entry. EINTR-safe by construction — an interrupted sleep retries
  // against the same absolute deadline (see the file-comment audit). A
  // message published at or before the deadline is always delivered, never
  // timed out: the deadline path re-probes once before reporting
  // DeadlineExceeded (same guarantee on the write side).
  Result<Bytes> ReadWithDeadline(std::chrono::nanoseconds timeout);

  // Futex doorbell (consumer side): block until the producer publishes a
  // new tail, the ring closes, or `timeout` elapses. Returns true when the
  // ring is worth polling again right now (data published or closed),
  // false on timeout or when the platform has no doorbell (after a short
  // sleep, see kFutexDoorbell). Never blocks when data is already buffered.
  bool WaitForMessage(std::chrono::nanoseconds timeout);

  // Chaos/testing hook: publishes `len` raw bytes at tail with NO framing —
  // the tail advances but no length prefix is validated or even required to
  // be complete. Models a torn or malicious writer; the consumer-side
  // containment above is what keeps this from poisoning the ring. Counted
  // as one written message.
  Status InjectRaw(const void* bytes, std::uint64_t len);

  void Close();
  bool closed() const noexcept;

  std::uint64_t capacity() const noexcept { return header_->capacity; }
  // Crash-repair accounting (see Header).
  std::uint64_t messages_written() const noexcept {
    return header_->messages_written.load(std::memory_order_acquire);
  }
  std::uint64_t messages_read() const noexcept {
    return header_->messages_read.load(std::memory_order_acquire);
  }
  std::uint64_t frames_corrupt() const noexcept {
    return header_->frames_corrupt.load(std::memory_order_acquire);
  }

 private:
  Status WaitForSpace(std::uint64_t needed);
  // Single space probe: OkStatus / NotFound (full) / Unavailable (closed) /
  // InvalidArgument (can never fit).
  Status ProbeSpace(std::uint64_t needed);
  // Copies the frame in and publishes tail (+ doorbell wake).
  void PublishFrame(const Bytes& message);
  // FUTEX_WAKE on the doorbell word when any consumer is registered.
  void WakeDoorbell();

  void CopyIn(std::uint64_t pos, const void* src, std::uint64_t len);
  void CopyOut(std::uint64_t pos, void* dst, std::uint64_t len) const;

  Header* header_;
  std::uint8_t* data_;
};

}  // namespace grd::ipc
