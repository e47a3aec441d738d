// Native-endian byte codec for payloads that cross a process boundary.
//
// Both ends of every such boundary are fork-related processes on one
// machine running one binary, so a trivially copyable value travels as its
// own bytes: put() appends them to a byte vector, and a ByteReader copies
// them back out in the same order, checking every read against the end.
// The runtime's wire codecs and epilogue blobs (runtime/phase.cpp) and the
// proc backend's control payloads (exec/proc_backend.cpp) use it. The frame
// header keeps its own explicit little-endian codec (transport/frame.cpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <type_traits>
#include <vector>

#include "support/assert.h"

namespace dpa {

inline void put_raw(std::vector<std::uint8_t>& b, const void* p,
                    std::size_t n) {
  const auto* c = static_cast<const std::uint8_t*>(p);
  b.insert(b.end(), c, c + n);
}

template <class T>
void put(std::vector<std::uint8_t>& b, const T& v) {
  static_assert(std::is_trivially_copyable_v<T>);
  put_raw(b, &v, sizeof(v));
}

class ByteReader {
 public:
  ByteReader(const std::uint8_t* p, std::size_t n) : p_(p), end_(p + n) {}
  explicit ByteReader(const std::vector<std::uint8_t>& b)
      : ByteReader(b.data(), b.size()) {}

  std::size_t remaining() const { return std::size_t(end_ - p_); }
  // The next unread byte, for a caller that uses bytes in place and then
  // skip()s past them.
  const std::uint8_t* pos() const { return p_; }

  void skip(std::size_t n) {
    DPA_CHECK(n <= remaining()) << "truncated payload";
    p_ += n;
  }
  void get_raw(void* out, std::size_t n) {
    const std::uint8_t* from = p_;
    skip(n);
    if (n > 0) std::memcpy(out, from, n);  // `out` may be null when n == 0
  }
  template <class T>
  T get() {
    static_assert(std::is_trivially_copyable_v<T>);
    T v;
    get_raw(&v, sizeof(v));
    return v;
  }

 private:
  const std::uint8_t* p_;
  const std::uint8_t* end_;
};

}  // namespace dpa
