#include "exec/task_table.h"

#include <errno.h>
#include <sys/mman.h>

#include <cstring>
#include <memory>

#include "support/assert.h"

namespace dpa::exec {

TaskTable::TaskTable(std::uint32_t num_nodes)
    : num_nodes_(num_nodes),
      bytes_(2 * std::size_t(num_nodes) * sizeof(Counter)) {
  DPA_CHECK(num_nodes_ > 0);
  void* mem = mmap(nullptr, bytes_, PROT_READ | PROT_WRITE,
                   MAP_SHARED | MAP_ANONYMOUS, -1, 0);
  DPA_CHECK(mem != MAP_FAILED) << "mmap task table: " << std::strerror(errno);
  counters_ = static_cast<Counter*>(mem);
  std::uninitialized_default_construct_n(counters_, 2 * num_nodes_);
}

TaskTable::~TaskTable() { munmap(counters_, bytes_); }

bool TaskTable::balanced() const {
  std::uint64_t c = 0;
  for (NodeId i = 0; i < num_nodes_; ++i) c += consumed(i);
  std::uint64_t p = 0;
  for (NodeId i = 0; i < num_nodes_; ++i) p += produced(i);
  return p == c;
}

std::uint64_t TaskTable::outstanding() const {
  std::uint64_t p = 0, c = 0;
  for (NodeId i = 0; i < num_nodes_; ++i) {
    c += consumed(i);
    p += produced(i);
  }
  return p > c ? p - c : 0;
}

void TaskTable::reset() {
  for (std::size_t i = 0; i < 2 * std::size_t(num_nodes_); ++i)
    counters_[i].n.store(0, std::memory_order_relaxed);
}

}  // namespace dpa::exec
