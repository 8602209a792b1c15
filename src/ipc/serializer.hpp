// Byte-level serialization for the grdLib <-> grdManager protocol.
// Little-endian PODs, length-prefixed strings/blobs. No allocation on the
// read path beyond the returned containers.
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "common/status.hpp"

namespace grd::ipc {

using Bytes = std::vector<std::uint8_t>;

class Writer {
 public:
  template <typename T>
  void Put(const T& value) {
    static_assert(std::is_trivially_copyable_v<T>);
    const std::size_t offset = buffer_.size();
    buffer_.resize(offset + sizeof(T));
    std::memcpy(buffer_.data() + offset, &value, sizeof(T));
  }

  void PutString(const std::string& s) {
    Put<std::uint32_t>(static_cast<std::uint32_t>(s.size()));
    const std::size_t offset = buffer_.size();
    buffer_.resize(offset + s.size());
    std::memcpy(buffer_.data() + offset, s.data(), s.size());
  }

  void PutBlob(const void* data, std::uint64_t size) {
    Put<std::uint64_t>(size);
    const std::size_t offset = buffer_.size();
    buffer_.resize(offset + size);
    std::memcpy(buffer_.data() + offset, data, size);
  }

  Bytes Take() && { return std::move(buffer_); }
  const Bytes& bytes() const noexcept { return buffer_; }

 private:
  Bytes buffer_;
};

class Reader {
 public:
  explicit Reader(const Bytes& bytes) : data_(bytes.data()), size_(bytes.size()) {}
  Reader(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}

  template <typename T>
  Result<T> Get() {
    static_assert(std::is_trivially_copyable_v<T>);
    if (sizeof(T) > size_ - pos_)
      return Status(OutOfRange("message truncated"));
    T value;
    std::memcpy(&value, data_ + pos_, sizeof(T));
    pos_ += sizeof(T);
    return value;
  }

  Result<std::string> GetString() {
    GRD_ASSIGN_OR_RETURN(std::uint32_t len, Get<std::uint32_t>());
    if (len > size_ - pos_) return Status(OutOfRange("string truncated"));
    std::string s(reinterpret_cast<const char*>(data_ + pos_), len);
    pos_ += len;
    return s;
  }

  Result<Bytes> GetBlob() {
    GRD_ASSIGN_OR_RETURN(std::span<const std::uint8_t> view, GetBlobView());
    return Bytes(view.begin(), view.end());
  }

  // The next blob, in place: the span aliases the reader's buffer, so it is
  // valid only while that buffer lives. The length prefix is untrusted; it
  // is compared against what is left (never `pos_ + len`, which wraps for
  // lengths near 2^64).
  Result<std::span<const std::uint8_t>> GetBlobView() {
    GRD_ASSIGN_OR_RETURN(std::uint64_t len, Get<std::uint64_t>());
    if (len > size_ - pos_) return Status(OutOfRange("blob truncated"));
    const std::span<const std::uint8_t> view(data_ + pos_, len);
    pos_ += len;
    return view;
  }

  std::size_t remaining() const noexcept { return size_ - pos_; }

 private:
  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

}  // namespace grd::ipc
