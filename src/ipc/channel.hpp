// Bidirectional request/response channel built from two SPSC rings, plus the
// shared-memory segment helper for cross-process use (fork + MAP_SHARED).
#pragma once

#include <cstdint>
#include <memory>

#include "common/status.hpp"
#include "ipc/shm_ring.hpp"

namespace grd::ipc {

// Layout of one client channel inside a contiguous region:
// [request ring][response ring].
class Channel {
 public:
  static constexpr std::uint64_t kDefaultRingBytes = 1u << 20;

  static constexpr std::uint64_t RegionSize(
      std::uint64_t ring_bytes = kDefaultRingBytes) {
    return 2 * ShmRing::RegionSize(ring_bytes);
  }

  // `initialize` must be true exactly once per region (creator side).
  Channel(void* region, std::uint64_t ring_bytes, bool initialize)
      : request_(region, ring_bytes, initialize),
        response_(static_cast<std::uint8_t*>(region) +
                      ShmRing::RegionSize(ring_bytes),
                  ring_bytes, initialize) {}

  ShmRing& request() noexcept { return request_; }
  ShmRing& response() noexcept { return response_; }

  // Client side: send a request (gathered from `parts`, see ShmRing) and
  // block for the response.
  Result<Bytes> Call(Parts parts) {
    GRD_RETURN_IF_ERROR(request_.Write(parts));
    return response_.Read();
  }
  Result<Bytes> Call(const Bytes& request) {
    const ByteSpan part(request);
    return Call(Parts(&part, 1));
  }

  void Close() {
    request_.Close();
    response_.Close();
  }

 private:
  ShmRing request_;
  ShmRing response_;
};

// Heap-backed channel for same-process (thread-to-thread) use.
class HeapChannel {
 public:
  explicit HeapChannel(std::uint64_t ring_bytes = Channel::kDefaultRingBytes)
      : region_(new std::uint8_t[Channel::RegionSize(ring_bytes)]),
        channel_(region_.get(), ring_bytes, /*initialize=*/true) {}

  Channel& channel() noexcept { return channel_; }

 private:
  std::unique_ptr<std::uint8_t[]> region_;
  Channel channel_;
};

// MAP_SHARED anonymous mapping for cross-process (fork) channels.
class SharedRegion {
 public:
  static Result<SharedRegion> Create(std::uint64_t size);
  ~SharedRegion();

  SharedRegion(SharedRegion&& other) noexcept
      : addr_(other.addr_), size_(other.size_) {
    other.addr_ = nullptr;
  }
  SharedRegion(const SharedRegion&) = delete;

  void* addr() const noexcept { return addr_; }
  std::uint64_t size() const noexcept { return size_; }

 private:
  SharedRegion(void* addr, std::uint64_t size) : addr_(addr), size_(size) {}
  void* addr_;
  std::uint64_t size_;
};

}  // namespace grd::ipc
