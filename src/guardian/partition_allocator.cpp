#include "guardian/partition_allocator.hpp"

#include "common/bits.hpp"
#include "common/strings.hpp"

namespace grd::guardian {

PartitionAllocator::PartitionAllocator(std::uint64_t device_bytes,
                                       int growth_headroom)
    : device_bytes_(device_bytes),
      growth_headroom_(growth_headroom),
      carver_(device_bytes) {
  // Null-page guard; ignore failure only for pathologically tiny devices.
  (void)carver_.Allocate(64 * 1024, 256);
}

Result<PartitionBounds> PartitionAllocator::CreatePartition(
    std::uint64_t requested_bytes) {
  if (requested_bytes == 0)
    return Status(InvalidArgument("partition size must be positive"));
  // The request is tenant-controlled: above the device size, rounding up
  // (and the headroom shift below) could overflow.
  if (requested_bytes > device_bytes_)
    return Status(OutOfMemory("partition larger than device memory"));
  const std::uint64_t size = NextPowerOfTwo(requested_bytes);
  // Align to the partition size so (addr & ~(size-1)) == base for every
  // in-partition address — the precondition of the Figure 4 mask trick.
  // Extra headroom alignment keeps future in-place doublings mask-valid.
  const std::uint64_t align = size << growth_headroom_;
  GRD_ASSIGN_OR_RETURN(std::uint64_t base, carver_.Allocate(size, align));
  Partition partition;
  partition.bounds = PartitionBounds{base, size};
  partition.suballocator = std::make_unique<simcuda::DeviceAllocator>(size);
  const PartitionBounds bounds = partition.bounds;
  partitions_.emplace(base, std::move(partition));
  return bounds;
}

Result<PartitionBounds> PartitionAllocator::CreatePartitionAt(
    std::uint64_t base, std::uint64_t size) {
  if (size == 0 || NextPowerOfTwo(size) != size)
    return Status(InvalidArgument("partition size must be a power of two"));
  if (!IsAligned(base, size))
    return Status(InvalidArgument("partition base " + ToHex(base) +
                                  " not aligned to its size"));
  if (partitions_.count(base) != 0)
    return Status(FailedPrecondition("partition already live at " +
                                     ToHex(base)));
  GRD_RETURN_IF_ERROR(carver_.AllocateAt(base, size));
  Partition partition;
  partition.bounds = PartitionBounds{base, size};
  partition.suballocator = std::make_unique<simcuda::DeviceAllocator>(size);
  const PartitionBounds bounds = partition.bounds;
  partitions_.emplace(base, std::move(partition));
  return bounds;
}

Status PartitionAllocator::ReleasePartition(std::uint64_t base) {
  const auto it = partitions_.find(base);
  if (it == partitions_.end())
    return NotFound("no partition at " + ToHex(base));
  partitions_.erase(it);
  return carver_.Free(base);
}

Result<PartitionBounds> PartitionAllocator::GrowPartition(std::uint64_t base) {
  const auto it = partitions_.find(base);
  if (it == partitions_.end())
    return Status(NotFound("no partition at " + ToHex(base)));
  const std::uint64_t size = it->second.bounds.size;
  const std::uint64_t doubled = size * 2;
  if (!IsAligned(base, doubled)) {
    return Status(FailedPrecondition(
        "partition base " + ToHex(base) +
        " is not aligned to the doubled size; mask invariant would break"));
  }
  // Claim the adjacent range and extend the sub-allocator's capacity.
  GRD_RETURN_IF_ERROR(carver_.GrowInPlace(base, size));
  it->second.bounds.size = doubled;
  it->second.suballocator->ExtendCapacity(size);
  return it->second.bounds;
}

Result<std::uint64_t> PartitionAllocator::AllocateIn(
    std::uint64_t partition_base, std::uint64_t size) {
  const auto it = partitions_.find(partition_base);
  if (it == partitions_.end())
    return Status(NotFound("no partition at " + ToHex(partition_base)));
  GRD_ASSIGN_OR_RETURN(std::uint64_t offset,
                       it->second.suballocator->Allocate(size));
  return partition_base + offset;
}

Status PartitionAllocator::AllocateExactIn(std::uint64_t partition_base,
                                           std::uint64_t addr,
                                           std::uint64_t size) {
  const auto it = partitions_.find(partition_base);
  if (it == partitions_.end())
    return NotFound("no partition at " + ToHex(partition_base));
  if (addr < partition_base ||
      addr + size > partition_base + it->second.bounds.size)
    return InvalidArgument("replayed block outside partition");
  return it->second.suballocator->AllocateAt(addr - partition_base, size);
}

Result<PartitionAllocator::Detached> PartitionAllocator::Detach(
    std::uint64_t base) {
  const auto it = partitions_.find(base);
  if (it == partitions_.end())
    return Status(NotFound("no partition at " + ToHex(base)));
  Detached out;
  out.bounds = it->second.bounds;
  out.suballocator = std::move(it->second.suballocator);
  partitions_.erase(it);
  GRD_RETURN_IF_ERROR(carver_.Free(base));
  return out;
}

Status PartitionAllocator::Attach(Detached& partition) {
  if (partitions_.count(partition.bounds.base) != 0)
    return FailedPrecondition("partition already live at " +
                              ToHex(partition.bounds.base));
  GRD_RETURN_IF_ERROR(
      carver_.AllocateAt(partition.bounds.base, partition.bounds.size));
  Partition installed;
  installed.bounds = partition.bounds;
  installed.suballocator = std::move(partition.suballocator);
  partitions_.emplace(installed.bounds.base, std::move(installed));
  return OkStatus();
}

bool PartitionAllocator::CanAttachAt(std::uint64_t base,
                                     std::uint64_t size) const noexcept {
  return partitions_.count(base) == 0 && carver_.RangeFree(base, size);
}

Status PartitionAllocator::FreeIn(std::uint64_t partition_base,
                                  std::uint64_t addr) {
  const auto it = partitions_.find(partition_base);
  if (it == partitions_.end())
    return NotFound("no partition at " + ToHex(partition_base));
  if (addr < partition_base ||
      addr >= partition_base + it->second.bounds.size)
    return InvalidArgument("pointer outside partition");
  return it->second.suballocator->Free(addr - partition_base);
}

}  // namespace grd::guardian
