#include "fm/reliable.h"

#include <algorithm>

#include "support/assert.h"

namespace dpa::fm {

const Reliable::Pending* Reliable::retry(std::uint64_t seq) {
  auto it = pending_.find(seq);
  if (it == pending_.end()) return nullptr;  // ack raced the timer
  Pending& p = it->second;
  if (p.attempts >= policy_.max_retries) {
    // `sends` counts actual transmissions: the original plus every
    // retransmission.
    const std::uint32_t sends = 1 + p.attempts;
    DPA_PANIC("node " << self_ << " gave up on seq " << seq << " to node "
                      << p.dst << " after " << sends
                      << " sends (1 original + " << p.attempts
                      << " retransmissions) — fabric unusable or the "
                      << "reliability layer is broken");
  }
  ++p.attempts;
  // Exponential backoff, capped: attempt n waits timeout * backoff^n.
  p.timeout = std::min<Time>(Time(double(p.timeout) * policy_.backoff),
                             policy_.max_timeout_ns);
  return &p;
}

}  // namespace dpa::fm
