// A FIFO queue that keeps its storage: a vector plus a read cursor.
//
// The DPA engine's run queues and the sim and native node task queues churn
// at thread or task rate. A std::deque frees and allocates a block every
// few entries of that churn; this queue allocates only while its backlog
// grows past anything it held before. pop() clears the vector (capacity
// kept) when the cursor reaches the end. A queue that does not drain is
// compacted instead of grown once at least half of it is consumed, so its
// storage stays within a small multiple of its largest backlog. Growth and
// compaction move the entries: never hold a reference to one across a push.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

namespace dpa {

template <class T>
class Fifo {
 public:
  bool empty() const { return head_ == v_.size(); }
  std::size_t size() const { return v_.size() - head_; }
  const T& front() const { return v_[head_]; }

  template <class... Args>
  void push(Args&&... args) {
    if (head_ > 0 && v_.size() == v_.capacity() && 2 * head_ >= v_.size()) {
      v_.erase(v_.begin(), v_.begin() + std::ptrdiff_t(head_));
      head_ = 0;
    }
    v_.emplace_back(std::forward<Args>(args)...);
  }

  T pop() {
    T x = std::move(v_[head_]);
    if (++head_ == v_.size()) {
      v_.clear();
      head_ = 0;
    }
    return x;
  }

  void swap(Fifo& other) noexcept {
    v_.swap(other.v_);
    std::swap(head_, other.head_);
  }

 private:
  std::vector<T> v_;
  std::size_t head_ = 0;
};

}  // namespace dpa
