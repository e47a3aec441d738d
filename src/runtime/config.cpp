#include "runtime/config.h"

#include <sstream>

#include "support/assert.h"

namespace dpa::rt {

void RuntimeConfig::validate() const {
  DPA_CHECK(strip_size > 0) << "strip size must be positive";
  DPA_CHECK(poll_batch > 0);
  DPA_CHECK(agg_max_refs > 0);
  if (aggregation) {
    DPA_CHECK(pipelining)
        << "aggregation requires pipelining: a synchronous engine blocks on "
           "each request and never accumulates a batch";
  }
  if (deterministic) {
    DPA_CHECK(sched_template == SchedTemplate::kCreateAllThenRun)
        << "deterministic dispatch needs the create-all template: the "
           "consumption order is the creation order, so all of a strip's "
           "threads must exist before any tile runs";
  }
}

std::string RuntimeConfig::describe() const {
  std::ostringstream os;
  os << to_string(kind);
  if (kind == EngineKind::kDpa) {
    os << "(strip=" << strip_size << ", pipe=" << (pipelining ? "on" : "off")
       << ", agg=" << (aggregation ? "on" : "off")
       << ", template=" << to_string(sched_template)
       << (deterministic ? ", det" : "") << ")";
  } else if (kind == EngineKind::kCaching) {
    os << "(capacity=";
    if (cache_capacity == 0)
      os << "unbounded";
    else
      os << cache_capacity;
    os << ")";
  }
  return os.str();
}

RuntimeConfig RuntimeConfig::dpa(std::uint32_t strip) {
  RuntimeConfig c;
  c.kind = EngineKind::kDpa;
  c.strip_size = strip;
  c.pipelining = true;
  c.aggregation = true;
  return c;
}

RuntimeConfig RuntimeConfig::dpa_deterministic(std::uint32_t strip) {
  RuntimeConfig c = dpa(strip);
  c.deterministic = true;
  return c;
}

RuntimeConfig RuntimeConfig::dpa_base(std::uint32_t strip) {
  RuntimeConfig c;
  c.kind = EngineKind::kDpa;
  c.strip_size = strip;
  c.pipelining = false;
  c.aggregation = false;
  return c;
}

RuntimeConfig RuntimeConfig::dpa_pipelined(std::uint32_t strip) {
  RuntimeConfig c;
  c.kind = EngineKind::kDpa;
  c.strip_size = strip;
  c.pipelining = true;
  c.aggregation = false;
  return c;
}

RuntimeConfig RuntimeConfig::caching() {
  RuntimeConfig c;
  c.kind = EngineKind::kCaching;
  return c;
}

RuntimeConfig RuntimeConfig::blocking() {
  RuntimeConfig c;
  c.kind = EngineKind::kBlocking;
  return c;
}

RuntimeConfig RuntimeConfig::prefetching(std::uint32_t depth) {
  RuntimeConfig c;
  c.kind = EngineKind::kPrefetch;
  c.prefetch_depth = depth;
  return c;
}

std::string to_string(EngineKind kind) {
  switch (kind) {
    case EngineKind::kDpa:
      return "dpa";
    case EngineKind::kCaching:
      return "caching";
    case EngineKind::kBlocking:
      return "blocking";
    case EngineKind::kPrefetch:
      return "prefetch";
  }
  return "?";
}

std::string to_string(SchedTemplate t) {
  switch (t) {
    case SchedTemplate::kCreateAllThenRun:
      return "create-all";
    case SchedTemplate::kInterleaved:
      return "interleaved";
  }
  return "?";
}

}  // namespace dpa::rt
