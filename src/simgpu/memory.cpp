#include "simgpu/memory.hpp"

#include <algorithm>

#include "common/strings.hpp"

namespace grd::simgpu {

GlobalMemory::GlobalMemory(std::uint64_t size_bytes)
    : size_(size_bytes),
      page_count_((size_bytes + kPageSize - 1) / kPageSize),
      pages_(new std::atomic<std::uint8_t*>[page_count_]) {
  for (std::uint64_t i = 0; i < page_count_; ++i)
    pages_[i].store(nullptr, std::memory_order_relaxed);
}

GlobalMemory::~GlobalMemory() {
  for (std::uint64_t i = 0; i < page_count_; ++i)
    delete[] pages_[i].load(std::memory_order_relaxed);
}

Status GlobalMemory::CheckRange(std::uint64_t addr, std::uint64_t len) const {
  if (len > size_ || addr > size_ - len) {
    return OutOfRange("device access " + ToHex(addr) + "+" +
                      std::to_string(len) + " beyond device memory (" +
                      std::to_string(size_) + " bytes)");
  }
  return OkStatus();
}

std::uint8_t* GlobalMemory::PageForWrite(std::uint64_t page_index) {
  std::uint8_t* page = pages_[page_index].load(std::memory_order_acquire);
  if (page != nullptr) return page;
  auto fresh = std::make_unique<std::uint8_t[]>(kPageSize);
  std::memset(fresh.get(), 0, kPageSize);
  std::uint8_t* expected = nullptr;
  if (pages_[page_index].compare_exchange_strong(expected, fresh.get(),
                                                 std::memory_order_acq_rel)) {
    resident_pages_.fetch_add(1, std::memory_order_relaxed);
    return fresh.release();
  }
  return expected;  // another thread installed it first; `fresh` is dropped
}

Status GlobalMemory::Read(std::uint64_t addr, void* dst,
                          std::uint64_t len) const {
  GRD_RETURN_IF_ERROR(CheckRange(addr, len));
  auto* out = static_cast<std::uint8_t*>(dst);
  while (len > 0) {
    const std::uint64_t page_index = addr / kPageSize;
    const std::uint64_t offset = addr % kPageSize;
    const std::uint64_t chunk = std::min(len, kPageSize - offset);
    if (const std::uint8_t* page = PageForRead(page_index)) {
      std::memcpy(out, page + offset, chunk);
    } else {
      std::memset(out, 0, chunk);
    }
    out += chunk;
    addr += chunk;
    len -= chunk;
  }
  return OkStatus();
}

Status GlobalMemory::Write(std::uint64_t addr, const void* src,
                           std::uint64_t len) {
  GRD_RETURN_IF_ERROR(CheckRange(addr, len));
  const auto* in = static_cast<const std::uint8_t*>(src);
  while (len > 0) {
    const std::uint64_t page_index = addr / kPageSize;
    const std::uint64_t offset = addr % kPageSize;
    const std::uint64_t chunk = std::min(len, kPageSize - offset);
    std::memcpy(PageForWrite(page_index) + offset, in, chunk);
    in += chunk;
    addr += chunk;
    len -= chunk;
  }
  return OkStatus();
}

Status GlobalMemory::Fill(std::uint64_t addr, std::uint8_t value,
                          std::uint64_t len) {
  GRD_RETURN_IF_ERROR(CheckRange(addr, len));
  while (len > 0) {
    const std::uint64_t page_index = addr / kPageSize;
    const std::uint64_t offset = addr % kPageSize;
    const std::uint64_t chunk = std::min(len, kPageSize - offset);
    std::memset(PageForWrite(page_index) + offset, value, chunk);
    addr += chunk;
    len -= chunk;
  }
  return OkStatus();
}

Status GlobalMemory::Copy(std::uint64_t dst, std::uint64_t src,
                          std::uint64_t len) {
  GRD_RETURN_IF_ERROR(CheckRange(dst, len));
  GRD_RETURN_IF_ERROR(CheckRange(src, len));
  if (dst == src) return OkStatus();
  // memmove semantics across pages: when the destination overlaps the
  // source from above, walk both ranges from their ends, so every chunk
  // reads source bytes no earlier chunk has overwritten. Each chunk lies
  // inside one source page and one destination page (memmove covers the
  // overlap within a shared page).
  const bool backward = dst > src && dst - src < len;
  while (len > 0) {
    const std::uint64_t s = backward ? src + len - 1 : src;
    const std::uint64_t d = backward ? dst + len - 1 : dst;
    const std::uint64_t s_room =
        backward ? s % kPageSize + 1 : kPageSize - s % kPageSize;
    const std::uint64_t d_room =
        backward ? d % kPageSize + 1 : kPageSize - d % kPageSize;
    const std::uint64_t chunk = std::min({len, s_room, d_room});
    const std::uint64_t s_at = backward ? s + 1 - chunk : s;
    const std::uint64_t d_at = backward ? d + 1 - chunk : d;
    std::uint8_t* out = PageForWrite(d_at / kPageSize) + d_at % kPageSize;
    if (const std::uint8_t* page = PageForRead(s_at / kPageSize)) {
      std::memmove(out, page + s_at % kPageSize, chunk);
    } else {
      std::memset(out, 0, chunk);  // never-touched source reads as zero
    }
    if (!backward) {
      src += chunk;
      dst += chunk;
    }
    len -= chunk;
  }
  return OkStatus();
}

}  // namespace grd::simgpu
