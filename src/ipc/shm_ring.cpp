#include "ipc/shm_ring.hpp"

#include <time.h>

#include <algorithm>
#include <cerrno>
#include <climits>
#include <cstring>
#include <thread>

#if defined(__linux__)
#include <linux/futex.h>
#include <sys/syscall.h>
#include <unistd.h>
#endif

namespace grd::ipc {
namespace {
// Spin for a while before yielding; IPC latency dominates the paper's
// "Guardian w/o protection" overhead, so the fast path must stay in
// user space.
constexpr int kSpinsBeforeYield = 256;

// Length prefix of a rewind marker (see ShmRing::PublishFrame). No real
// frame can carry it: ProbeSpace rejects messages that long.
constexpr std::uint32_t kRewindMarker = 0xFFFFFFFFu;
// A drained ring rewinds once its write offset reaches this many bytes
// (or half the ring, whichever is smaller), so closed-loop traffic keeps
// cycling through the first pages instead of touching the whole ring.
constexpr std::uint64_t kRewindMinOffset = 64 * 1024;

// Payload bytes of a frame gathered from `parts`, capped at kRewindMarker:
// ProbeSpace rejects any frame that long, so an absurd total is refused
// instead of wrapping into a small one (a span's size is below 2^63, so the
// running sum cannot overflow before the cap).
std::uint64_t PartsBytes(Parts parts) {
  std::uint64_t total = 0;
  for (const ByteSpan part : parts)
    total = std::min<std::uint64_t>(total + part.size(), kRewindMarker);
  return total;
}

void Backoff(int& spins) {
  if (++spins < kSpinsBeforeYield) return;
  std::this_thread::yield();
  spins = 0;
}

timespec DeadlineAfter(std::chrono::nanoseconds timeout) {
  timespec deadline;
  clock_gettime(CLOCK_MONOTONIC, &deadline);
  deadline.tv_sec += timeout.count() / 1'000'000'000;
  deadline.tv_nsec += timeout.count() % 1'000'000'000;
  if (deadline.tv_nsec >= 1'000'000'000) {
    deadline.tv_sec += 1;
    deadline.tv_nsec -= 1'000'000'000;
  }
  return deadline;
}

bool PastDeadline(const timespec& now, const timespec& deadline) {
  return now.tv_sec > deadline.tv_sec ||
         (now.tv_sec == deadline.tv_sec && now.tv_nsec >= deadline.tv_nsec);
}

// Sleep one short slice toward (never past) the absolute deadline.
// clock_nanosleep with TIMER_ABSTIME returns EINTR when a signal lands
// mid-sleep; the caller's loop re-polls and re-sleeps against the SAME
// deadline, so signals can never shorten the overall wait (the
// spurious-timeout bug a relative-sleep retry loop would have).
void SleepSliceUntil(const timespec& now, const timespec& deadline) {
  timespec slice = now;
  slice.tv_nsec += 100'000;  // 100 µs
  if (slice.tv_nsec >= 1'000'000'000) {
    slice.tv_sec += 1;
    slice.tv_nsec -= 1'000'000'000;
  }
  if (PastDeadline(slice, deadline)) slice = deadline;
  while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &slice, nullptr) ==
         EINTR) {
  }
}

#if defined(__linux__)
// The futex word is the dedicated 32-bit doorbell sequence counter (one
// bump per publish; see Header::doorbell for why it is not the low half of
// the byte-counted tail). Plain FUTEX_WAIT/WAKE — not _PRIVATE — because
// the ring may be a MAP_SHARED mapping spanning forked processes.
std::uint32_t* FutexWord(std::atomic<std::uint32_t>* doorbell) {
  return reinterpret_cast<std::uint32_t*>(doorbell);
}

void FutexWait(std::atomic<std::uint32_t>* doorbell, std::uint32_t expected,
               const timespec* rel_timeout) {
  ::syscall(SYS_futex, FutexWord(doorbell), FUTEX_WAIT, expected, rel_timeout,
            nullptr, 0);
}

void FutexWakeAll(std::atomic<std::uint32_t>* doorbell) {
  ::syscall(SYS_futex, FutexWord(doorbell), FUTEX_WAKE, INT_MAX, nullptr,
            nullptr, 0);
}
#endif
}  // namespace

ShmRing::ShmRing(void* region, std::uint64_t data_capacity, bool initialize) {
  header_ = static_cast<Header*>(region);
  data_ = static_cast<std::uint8_t*>(region) + sizeof(Header);
  if (initialize) {
    new (header_) Header();
    header_->capacity = data_capacity;
  }
}

void ShmRing::CopyIn(std::uint64_t pos, const void* src, std::uint64_t len) {
  const std::uint64_t cap = header_->capacity;
  const std::uint64_t offset = pos % cap;
  const std::uint64_t first = std::min(len, cap - offset);
  std::memcpy(data_ + offset, src, first);
  if (first < len) {
    std::memcpy(data_, static_cast<const std::uint8_t*>(src) + first,
                len - first);
  }
}

void ShmRing::CopyOut(std::uint64_t pos, void* dst, std::uint64_t len) const {
  const std::uint64_t cap = header_->capacity;
  const std::uint64_t offset = pos % cap;
  const std::uint64_t first = std::min(len, cap - offset);
  std::memcpy(dst, data_ + offset, first);
  if (first < len) {
    std::memcpy(static_cast<std::uint8_t*>(dst) + first, data_, len - first);
  }
}

Status ShmRing::ProbeSpace(std::uint64_t needed) {
  if (needed > header_->capacity ||
      needed >= std::uint64_t{kRewindMarker} + sizeof(std::uint32_t))
    return InvalidArgument("message larger than ring capacity");
  if (header_->closed.load(std::memory_order_acquire))
    return Unavailable("ring closed");
  const std::uint64_t head = header_->head.load(std::memory_order_acquire);
  const std::uint64_t tail = header_->tail.load(std::memory_order_relaxed);
  if (header_->capacity - (tail - head) >= needed) return OkStatus();
  return NotFound("ring full");
}

Status ShmRing::WaitForSpace(std::uint64_t needed) {
  int spins = 0;
  while (true) {
    const Status probe = ProbeSpace(needed);
    if (probe.code() != StatusCode::kNotFound) return probe;
    Backoff(spins);
  }
}

void ShmRing::WakeDoorbell() {
#if defined(__linux__)
  // Ring the doorbell for every publish (and close), even with no waiter
  // registered yet: a consumer that snapshots the sequence BEFORE its empty
  // check can then never miss a publish — any publish after the snapshot
  // leaves the word != snapshot and its FUTEX_WAIT returns EAGAIN.
  header_->doorbell.fetch_add(1, std::memory_order_release);
  // Store-buffer litmus with WaitForMessage: the doorbell bump (RMW above)
  // must be globally ordered before this waiters load, and the waiter's
  // registration (seq_cst RMW) before its doorbell re-check — otherwise
  // both sides could miss each other and the waiter sleeps through a
  // publish.
  std::atomic_thread_fence(std::memory_order_seq_cst);
  if (header_->waiters.load(std::memory_order_relaxed) > 0)
    FutexWakeAll(&header_->doorbell);
#endif
}

void ShmRing::PublishFrame(Parts parts, std::uint64_t payload) {
  const std::uint64_t frame = sizeof(std::uint32_t) + payload;
  // Counter BEFORE the publish (the read side counts after): if the writer
  // dies between the two stores, the counter over-reports by one and a
  // crash supervisor diffing the pair computes a smaller deficit — it
  // writes one synthetic response too FEW (a stuck, retriable client),
  // never one too many (which would permanently shift every later reply on
  // the channel by one). The unpublished partial frame is overwritten by
  // the next producer, since tail was never advanced.
  header_->messages_written.fetch_add(1, std::memory_order_release);
  const std::uint64_t tail = header_->tail.load(std::memory_order_relaxed);
  // Rewind: when the consumer has drained everything (head == tail; only
  // this producer can move tail, so it stays drained until the store
  // below) and the write offset is far enough in, skip to the next lap
  // boundary behind a marker frame. Taking the skipped bytes as used needs
  // offset >= frame to fit, and the cap/2 floor keeps a rewind from eating
  // more than half of the ring's room. The marker and the frame publish
  // with ONE tail store, and the marker is no message: neither counter
  // sees it (crash repair diffs them).
  const std::uint64_t cap = header_->capacity;
  const std::uint64_t offset = tail % cap;
  std::uint64_t start = tail;
  if (offset >= std::max(frame, std::min(cap / 2, kRewindMinOffset)) &&
      cap - offset >= sizeof(kRewindMarker) &&
      header_->head.load(std::memory_order_acquire) == tail) {
    CopyIn(tail, &kRewindMarker, sizeof(kRewindMarker));
    start = tail - offset + cap;
  }
  const auto len = static_cast<std::uint32_t>(payload);
  CopyIn(start, &len, sizeof(len));
  std::uint64_t pos = start + sizeof(len);
  for (const ByteSpan part : parts) {
    if (part.empty()) continue;
    CopyIn(pos, part.data(), part.size());
    pos += part.size();
  }
  header_->tail.store(start + frame, std::memory_order_release);
  WakeDoorbell();
}

Status ShmRing::Write(Parts parts) {
  const std::uint64_t payload = PartsBytes(parts);
  GRD_RETURN_IF_ERROR(WaitForSpace(sizeof(std::uint32_t) + payload));
  PublishFrame(parts, payload);
  return OkStatus();
}

Status ShmRing::TryWrite(Parts parts) {
  const std::uint64_t payload = PartsBytes(parts);
  GRD_RETURN_IF_ERROR(ProbeSpace(sizeof(std::uint32_t) + payload));
  PublishFrame(parts, payload);
  return OkStatus();
}

Status ShmRing::WriteWithDeadline(Parts parts,
                                  std::chrono::nanoseconds timeout) {
  const timespec deadline = DeadlineAfter(timeout);
  const std::uint64_t payload = PartsBytes(parts);
  const std::uint64_t needed = sizeof(std::uint32_t) + payload;
  int spins = 0;
  while (true) {
    const Status probe = ProbeSpace(needed);
    if (probe.ok()) {
      PublishFrame(parts, payload);
      return OkStatus();
    }
    if (probe.code() != StatusCode::kNotFound) return probe;
    timespec now;
    clock_gettime(CLOCK_MONOTONIC, &now);
    if (PastDeadline(now, deadline)) {
      // Deadline-edge re-probe: space freed between the probe above and the
      // clock read was still freed BEFORE the deadline — report the write,
      // not a spurious timeout.
      const Status last = ProbeSpace(needed);
      if (last.ok()) {
        PublishFrame(parts, payload);
        return OkStatus();
      }
      if (last.code() != StatusCode::kNotFound) return last;
      return DeadlineExceeded("ring write timed out");
    }
    if (++spins < kSpinsBeforeYield) continue;
    // No doorbell on the head word (space frees rarely relative to message
    // publishes); sleep in short EINTR-safe slices toward the deadline.
    SleepSliceUntil(now, deadline);
  }
}

Status ShmRing::InjectRaw(const void* bytes, std::uint64_t len) {
  GRD_RETURN_IF_ERROR(WaitForSpace(len));
  header_->messages_written.fetch_add(1, std::memory_order_release);
  const std::uint64_t tail = header_->tail.load(std::memory_order_relaxed);
  if (len > 0) CopyIn(tail, bytes, len);
  header_->tail.store(tail + len, std::memory_order_release);
  WakeDoorbell();
  return OkStatus();
}

Result<ByteSpan> ShmRing::TryRead(Bytes& stage) {
  std::uint64_t head = header_->head.load(std::memory_order_relaxed);
  const std::uint64_t tail = header_->tail.load(std::memory_order_acquire);
  if (tail == head) {
    if (header_->closed.load(std::memory_order_acquire))
      return Status(Unavailable("ring closed"));
    return Status(NotFound("ring empty"));
  }
  // Frame validation (torn-frame containment, see the file comment): the
  // length prefix must be complete and the whole frame must lie inside the
  // published [head, tail) window. An impossible frame means the producer
  // side tore or forged a write; the buffered bytes have no recoverable
  // message boundaries, so discard them all and surface kAborted once.
  // A rewind marker (PublishFrame) is a frame too: it is accepted only when
  // the lap boundary it points at lies inside the published window, past
  // the marker itself; the frame there is then validated like any other.
  std::uint64_t avail = tail - head;
  std::uint32_t len = 0;
  bool corrupt = avail < sizeof(len);
  if (!corrupt) {
    CopyOut(head, &len, sizeof(len));
    if (len == kRewindMarker) {
      const std::uint64_t cap = header_->capacity;
      const std::uint64_t lap = head - head % cap + cap;
      corrupt = lap - head < sizeof(len) || lap >= tail;
      if (!corrupt) {
        head = lap;
        avail = tail - head;
        corrupt = avail < sizeof(len);
        if (!corrupt) CopyOut(head, &len, sizeof(len));
      }
    }
    corrupt = corrupt || len > header_->capacity || sizeof(len) + len > avail;
  }
  if (corrupt) {
    header_->frames_corrupt.fetch_add(1, std::memory_order_release);
    header_->head.store(tail, std::memory_order_release);
    // Count the discarded garbage as one consumed message; the pairing on
    // a corrupted ring is approximate by nature (Header comment).
    header_->messages_read.fetch_add(1, std::memory_order_release);
    return Status(Aborted("corrupt ring frame discarded"));
  }
  if (stage.size() < len) {
    // Grow to this message; the stage's old bytes need not survive.
    stage.clear();
    stage.resize(len);
  }
  if (len > 0) CopyOut(head + sizeof(len), stage.data(), len);
  header_->head.store(head + sizeof(len) + len, std::memory_order_release);
  header_->messages_read.fetch_add(1, std::memory_order_release);
  return ByteSpan(stage.data(), len);
}

Result<Bytes> ShmRing::TryRead() {
  Bytes message;
  auto read = TryRead(message);
  if (!read.ok()) return read.status();
  return message;  // a fresh stage grows to exactly the message
}

bool ShmRing::WaitForMessage(std::chrono::nanoseconds timeout) {
#if defined(__linux__)
  // Snapshot the doorbell BEFORE the emptiness check: any publish that
  // lands after this load bumps the word away from `seq`, so the later
  // FUTEX_WAIT(seq) returns EAGAIN instead of sleeping through it. (The
  // previous scheme waited on the low 32 bits of the byte-counted tail,
  // which aliases after a 4 GiB wrap of the write index.)
  const std::uint32_t seq =
      header_->doorbell.load(std::memory_order_acquire);
  const std::uint64_t head = header_->head.load(std::memory_order_relaxed);
  const std::uint64_t tail = header_->tail.load(std::memory_order_acquire);
  if (tail != head || header_->closed.load(std::memory_order_acquire))
    return true;
  header_->waiters.fetch_add(1, std::memory_order_seq_cst);
  // Re-check AFTER registering (pairs with WakeDoorbell's fence): either
  // this load sees the new doorbell, or the producer sees our registration
  // and wakes the futex.
  bool ready = header_->doorbell.load(std::memory_order_seq_cst) != seq ||
               header_->closed.load(std::memory_order_acquire) != 0;
  if (!ready) {
    timespec rel;
    rel.tv_sec = timeout.count() / 1'000'000'000;
    rel.tv_nsec = timeout.count() % 1'000'000'000;
    // EINTR / EAGAIN / timeout all fall through to the re-check; the
    // caller loops against its own absolute deadline, so an interrupted
    // wait can only shorten this one slice, never a whole wait.
    FutexWait(&header_->doorbell, seq, &rel);
    ready = header_->doorbell.load(std::memory_order_acquire) != seq ||
            header_->closed.load(std::memory_order_acquire) != 0;
  }
  header_->waiters.fetch_sub(1, std::memory_order_release);
  return ready;
#else
  // No doorbell: pace the caller with one short sleep instead of letting
  // it spin.
  std::this_thread::sleep_for(std::min<std::chrono::nanoseconds>(
      timeout, std::chrono::microseconds(100)));
  return false;
#endif
}

Result<Bytes> ShmRing::ReadWithDeadline(std::chrono::nanoseconds timeout) {
  const timespec deadline = DeadlineAfter(timeout);
  int spins = 0;
  while (true) {
    auto message = TryRead();
    if (message.ok()) return message;
    if (message.status().code() != StatusCode::kNotFound)
      return message.status();  // closed, or a corrupt frame was discarded
    timespec now;
    clock_gettime(CLOCK_MONOTONIC, &now);
    if (PastDeadline(now, deadline)) {
      // Deadline-edge re-probe: a frame published between the TryRead above
      // and the clock read landed BEFORE the deadline — a doorbell wake (or
      // publish) racing the deadline must deliver the message, never lose
      // it behind a spurious DeadlineExceeded.
      message = TryRead();
      if (message.status().code() != StatusCode::kNotFound) return message;
      return Status(DeadlineExceeded("ring read timed out"));
    }
    if (++spins < kSpinsBeforeYield) continue;
    // Prefer the futex doorbell (wakes on the next publish); fall back to
    // EINTR-safe sleep slices toward the absolute deadline elsewhere.
    if constexpr (kFutexDoorbell) {
      std::int64_t remaining_ns =
          (deadline.tv_sec - now.tv_sec) * 1'000'000'000 +
          (deadline.tv_nsec - now.tv_nsec);
      if (remaining_ns > 1'000'000) remaining_ns = 1'000'000;  // 1 ms slice
      WaitForMessage(std::chrono::nanoseconds(remaining_ns));
    } else {
      SleepSliceUntil(now, deadline);
    }
  }
}

Result<Bytes> ShmRing::Read() {
  int spins = 0;
  while (true) {
    auto message = TryRead();
    if (message.ok()) return message;
    if (message.status().code() != StatusCode::kNotFound)
      return message.status();
    if constexpr (kFutexDoorbell) {
      if (++spins >= kSpinsBeforeYield) {
        WaitForMessage(std::chrono::milliseconds(1));
        spins = 0;
        continue;
      }
    } else {
      Backoff(spins);
    }
  }
}

void ShmRing::Close() {
  header_->closed.store(1, std::memory_order_release);
  WakeDoorbell();
}

bool ShmRing::closed() const noexcept {
  return header_->closed.load(std::memory_order_acquire) != 0;
}

}  // namespace grd::ipc
