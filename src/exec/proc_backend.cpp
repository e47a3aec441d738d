#include "exec/proc_backend.h"

#include <errno.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <type_traits>
#include <utility>

#include "exec/native_backend.h"
#include "support/assert.h"

namespace dpa::exec {

namespace {

// Control-channel message tags. Every frame on the control socketpair
// carries kFrameFlagControl (PipeChannel set_control), the wire-visible
// marker of termination-protocol traffic.
constexpr std::uint16_t kTagProbe = 1;     // coordinator -> worker: [round]
constexpr std::uint16_t kTagReport = 2;    // worker -> coordinator
constexpr std::uint16_t kTagDone = 3;      // coordinator -> worker
constexpr std::uint16_t kTagAbort = 4;     // coordinator -> worker
constexpr std::uint16_t kTagSpan = 5;      // worker -> coordinator: diffs
constexpr std::uint16_t kTagEpilogue = 6;  // worker -> coordinator: blob
constexpr std::uint16_t kTagStats = 7;     // worker -> coordinator
constexpr std::uint16_t kTagBye = 8;       // worker -> coordinator: all sent

// On the control channel, node 0 is the coordinator and node 1 the worker.
constexpr NodeId kCtlCoord = 0;
constexpr NodeId kCtlWorker = 1;

// Span-diff record kinds.
constexpr std::uint8_t kRunBytes = 0;  // overwrite: raw byte run
constexpr std::uint8_t kRunSum = 1;    // add: u64 delta lanes

// Flush accumulated span-diff records to the wire at this payload size.
constexpr std::size_t kSpanChunkBytes = 512 * 1024;

// Depth at which a data link's per-(src, dst) train auto-flushes into one
// frame (wire aggregation).
constexpr std::uint32_t kTrainMax = 16;

std::int64_t mono_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Native-endian scratch encoders for control payloads (both ends of the
// wire are fork-related processes on one machine, running one binary — so
// a trivially copyable struct travels as its bytes, as PhaseRunner ships
// RtNodeStats).
struct Wr {
  std::vector<std::uint8_t> b;
  void u8(std::uint8_t v) { b.push_back(v); }
  void u32(std::uint32_t v) { raw(&v, sizeof(v)); }
  void u64(std::uint64_t v) { raw(&v, sizeof(v)); }
  template <class T>
  void pod(const T& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    raw(&v, sizeof(v));
  }
  void raw(const void* p, std::size_t n) {
    const auto* c = static_cast<const std::uint8_t*>(p);
    b.insert(b.end(), c, c + n);
  }
};

struct Rd {
  const std::uint8_t* p;
  std::size_t n;
  std::size_t off = 0;
  explicit Rd(const std::vector<std::uint8_t>& bytes)
      : p(bytes.data()), n(bytes.size()) {}
  std::size_t remaining() const { return n - off; }
  std::uint8_t u8() {
    std::uint8_t v = 0;
    raw(&v, sizeof(v));
    return v;
  }
  std::uint32_t u32() {
    std::uint32_t v = 0;
    raw(&v, sizeof(v));
    return v;
  }
  std::uint64_t u64() {
    std::uint64_t v = 0;
    raw(&v, sizeof(v));
    return v;
  }
  template <class T>
  T pod() {
    static_assert(std::is_trivially_copyable_v<T>);
    T v{};
    raw(&v, sizeof(v));
    return v;
  }
  void raw(void* out, std::size_t len) {
    DPA_CHECK(off + len <= n) << "truncated control payload";
    std::memcpy(out, p + off, len);
    off += len;
  }
};

// One worker's termination-protocol report. The done condition compares
// whole reports, so any monotonic counter moving between rounds keeps the
// phase alive.
struct Report {
  bool valid = false;
  std::uint8_t quiescent = 0;
  std::uint64_t tasks = 0;
  std::vector<std::uint64_t> sent;
  std::vector<std::uint64_t> recv;

  friend bool operator==(const Report& a, const Report& b) {
    return a.valid == b.valid && a.quiescent == b.quiescent &&
           a.tasks == b.tasks && a.sent == b.sent && a.recv == b.recv;
  }
};

std::mutex g_defaults_mu;
ProcBackend::Config g_default_config;

// Queues one control payload and pumps: it is on the wire when this
// returns, and any frames that arrived meanwhile have been delivered.
void send_ctl(transport::PipeChannel& ctl, NodeId src, NodeId dst,
              std::uint16_t tag, std::vector<std::uint8_t> bytes) {
  ctl.send(src, dst, tag, std::move(bytes));
  ctl.flush(src);
}

std::uint64_t load_u64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  std::memcpy(&v, p, 8);
  return v;
}

}  // namespace

void ProcBackend::set_default_config(const Config& config) {
  std::lock_guard<std::mutex> lk(g_defaults_mu);
  g_default_config = config;
}

ProcBackend::Config ProcBackend::default_config() {
  std::lock_guard<std::mutex> lk(g_defaults_mu);
  return g_default_config;
}

ProcBackend::ProcBackend(std::uint32_t num_nodes)
    : ProcBackend(num_nodes, default_config()) {}

ProcBackend::ProcBackend(std::uint32_t num_nodes, const Config& config)
    : num_nodes_(num_nodes), config_(config) {
  DPA_CHECK(num_nodes_ > 0);
  procs_ = std::clamp<std::uint32_t>(config_.procs, 1, num_nodes_);
  if (config_.watchdog.enabled()) watchdog_cfg_ = config_.watchdog;
  staged_posts_.resize(num_nodes_);
  node_stats_.resize(num_nodes_);
}

ProcBackend::~ProcBackend() {
  if (role_ == Role::kCoordinator) kill_and_reap_all();
}

HandlerId ProcBackend::register_handler(std::string name, Handler fn,
                                        WireCodec codec) {
  DPA_CHECK(role_ == Role::kCoordinator);
  handlers_.push_back(std::make_unique<HandlerEntry>(
      HandlerEntry{std::move(name), std::move(fn), std::move(codec)}));
  return HandlerId(handlers_.size() - 1);
}

void ProcBackend::add_phase_span(PhaseSpan span) {
  DPA_CHECK(role_ == Role::kCoordinator);
  DPA_CHECK(span.addr != nullptr && span.bytes > 0);
  transient_spans_.push_back(span);
}

void ProcBackend::remove_phase_span(const void* addr) {
  DPA_CHECK(role_ == Role::kCoordinator);
  std::erase_if(transient_spans_,
                [addr](const PhaseSpan& s) { return s.addr == addr; });
}

void ProcBackend::post(NodeId node, Task task) {
  DPA_CHECK(node < num_nodes_);
  if (role_ == Role::kWorker) {
    // In-phase post from an inner task (engine kick/self-reschedule).
    inner_->post(node, std::move(task));
    return;
  }
  // Coordinator: pre-phase seeding. The worker owning `node` replays these
  // into its inner pool after the fork.
  staged_posts_[node].push_back(std::move(task));
}

void ProcBackend::send(Cpu& cpu, NodeId src, NodeId dst, HandlerId handler,
                       std::shared_ptr<void> data, std::uint32_t bytes) {
  DPA_CHECK(role_ == Role::kWorker)
      << "proc backend send outside a phase (no task context)";
  if (owner_of(dst) == self_) {
    // Same process: the inner pool's train/mailbox path end to end.
    inner_->send(cpu, src, dst, handler, std::move(data), bytes);
    return;
  }
  const HandlerEntry& entry = *handlers_[handler];
  DPA_CHECK(bool(entry.codec.marshal))
      << "handler '" << entry.name
      << "' crosses a process boundary but has no wire codec";
  std::vector<std::uint8_t> body = entry.codec.marshal(data.get(), bytes);
  std::vector<std::uint8_t> wire(4 + body.size());
  std::memcpy(wire.data(), &bytes, 4);  // modeled size rides the frame
  std::memcpy(wire.data() + 4, body.data(), body.size());

  PeerLink& link = *links_[owner_of(dst)];
  remote_msgs_sent_.fetch_add(1, std::memory_order_relaxed);
  remote_bytes_sent_.fetch_add(bytes, std::memory_order_relaxed);
  link.sent.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lk(link.mu);
  link.pipe->send(src, dst, handler, std::move(wire));
}

void ProcBackend::flush(Cpu& cpu, NodeId node) {
  if (role_ != Role::kWorker) return;
  inner_->flush(cpu, node);
  for (auto& link : links_) {
    if (link == nullptr) continue;
    std::lock_guard<std::mutex> lk(link->mu);
    link->pipe->flush(node);
  }
}

Time ProcBackend::begin_phase() {
  DPA_CHECK(role_ == Role::kCoordinator);
  for (auto& q : staged_posts_) q.clear();
  for (auto& s : node_stats_) s.reset();
  return clock_ns_;
}

std::vector<NodeId> ProcBackend::nodes_owned_by(std::uint32_t worker) const {
  std::vector<NodeId> out;
  for (NodeId n = worker; n < num_nodes_; n += procs_) out.push_back(n);
  return out;
}

PhaseExec ProcBackend::run_phase() {
  DPA_CHECK(role_ == Role::kCoordinator);
  const auto t0 = std::chrono::steady_clock::now();
  phase_ = PhaseExec{};
  phase_.epilogues.resize(num_nodes_);

  // Resolve the span list pre-fork so coordinator and workers share one
  // indexing, then snapshot the spans. Nothing writes span memory between
  // here and the fork, so the snapshot is exactly the phase-start state.
  spans_.clear();
  if (span_source_) span_source_(spans_);
  spans_.insert(spans_.end(), transient_spans_.begin(), transient_spans_.end());
  std::uint64_t snapshot_bytes = 0;
  for (const PhaseSpan& sp : spans_) snapshot_bytes += sp.bytes;
  snapshot_.resize(snapshot_bytes);
  std::uint8_t* at = snapshot_.data();
  for (const PhaseSpan& sp : spans_) {
    std::memcpy(at, sp.addr, sp.bytes);
    at += sp.bytes;
  }

  spawn_workers();
  coordinator_loop();

  // Per-phase plumbing down: channels own their fds.
  ctl_.clear();
  ctl_fds_.clear();
  data_fds_.clear();
  pids_.clear();
  for (auto& q : staged_posts_) q.clear();

  phase_.elapsed = std::chrono::duration_cast<std::chrono::nanoseconds>(
                      std::chrono::steady_clock::now() - t0)
                      .count();
  clock_ns_ += phase_.elapsed;
  return std::move(phase_);
}

void ProcBackend::spawn_workers() {
  pids_.assign(procs_, -1);
  ctl_fds_.assign(procs_, std::array<int, 2>{-1, -1});
  data_fds_.assign(procs_, std::vector<std::array<int, 2>>(
                               procs_, std::array<int, 2>{-1, -1}));
  for (std::uint32_t w = 0; w < procs_; ++w) {
    int sv[2];
    DPA_CHECK(socketpair(AF_UNIX, SOCK_STREAM, 0, sv) == 0)
        << "socketpair: " << std::strerror(errno);
    ctl_fds_[w] = {sv[0], sv[1]};
  }
  for (std::uint32_t a = 0; a < procs_; ++a) {
    for (std::uint32_t b = a + 1; b < procs_; ++b) {
      int sv[2];
      DPA_CHECK(socketpair(AF_UNIX, SOCK_STREAM, 0, sv) == 0)
          << "socketpair: " << std::strerror(errno);
      data_fds_[a][b] = {sv[0], sv[1]};
    }
  }
  for (std::uint32_t w = 0; w < procs_; ++w) {
    const pid_t pid = fork();
    DPA_CHECK(pid >= 0) << "fork: " << std::strerror(errno);
    if (pid == 0) worker_main(w);  // never returns
    pids_[w] = pid;
  }
  // Close every fd that now belongs to a child. Keeping any copy open
  // would defeat EOF-based death detection: a dead worker's socket only
  // reads EOF once *all* write ends are closed.
  for (std::uint32_t w = 0; w < procs_; ++w) {
    close(ctl_fds_[w][1]);
    ctl_fds_[w][1] = -1;
  }
  for (std::uint32_t a = 0; a < procs_; ++a) {
    for (std::uint32_t b = a + 1; b < procs_; ++b) {
      close(data_fds_[a][b][0]);
      close(data_fds_[a][b][1]);
      data_fds_[a][b] = {-1, -1};
    }
  }
  // Control channels: one endpoint PipeChannel per worker, every frame
  // flagged control.
  ctl_.clear();
  for (std::uint32_t w = 0; w < procs_; ++w) {
    auto ch = std::make_unique<transport::PipeChannel>(
        2u, 1u, transport::PipeChannel::Endpoint{ctl_fds_[w][0]});
    ch->set_control(true);
    ctl_fds_[w][0] = -1;  // channel owns it now
    ctl_.push_back(std::move(ch));
  }
}

void ProcBackend::coordinator_loop() {
  struct WorkerState {
    Report cur;
    Report prev;
    bool bye = false;
    bool dead = false;
    int wait_status = 0;
  };
  std::vector<WorkerState> ws(procs_);
  bool done_sent = false;
  std::uint32_t round = 0;

  // Deliveries run inside any poll() and inside every send_ctl(), whose
  // flush pumps: the current report must be reset before a probe goes out.
  for (std::uint32_t w = 0; w < procs_; ++w) {
    ctl_[w]->set_deliver([this, &ws, &round, w](
                             const transport::FrameHeader& h,
                             const transport::FramePayload& p) {
      (void)h;
      coordinator_apply(w, p.tag, p.bytes, round, &ws[w].cur, &ws[w].bye);
    });
  }

  auto broadcast = [this, &ws](std::uint16_t tag,
                               std::vector<std::uint8_t> bytes) {
    for (std::uint32_t w = 0; w < procs_; ++w) {
      if (ws[w].dead) continue;
      send_ctl(*ctl_[w], kCtlCoord, kCtlWorker, tag, bytes);
    }
  };

  auto check_deaths = [this, &ws]() -> std::int32_t {
    for (std::uint32_t w = 0; w < procs_; ++w) {
      if (ws[w].dead || ws[w].bye) continue;
      int st = 0;
      const pid_t r = waitpid(pids_[w], &st, WNOHANG);
      const bool exited = r == pids_[w];
      if (!exited &&
          ctl_[w]->status() != transport::ChannelStatus::kPeerDown) {
        continue;
      }
      // The process (or its socket) is gone. A finalizing worker sends
      // kTagBye and _exit(0)s immediately, so the reap can beat the read
      // of its final frames: drain the control channel before judging.
      // A buffered bye means clean shutdown, not death.
      ctl_[w]->poll();
      if (!exited) waitpid(pids_[w], &st, 0);
      ws[w].dead = true;
      ws[w].wait_status = st;
      if (ws[w].bye && st == 0) continue;
      return std::int32_t(w);
    }
    return -1;
  };

  auto wait_ctl = [this](int timeout_ms) {
    std::vector<pollfd> fds;
    fds.reserve(ctl_.size());
    for (auto& ch : ctl_)
      fds.push_back(pollfd{ch->wire_fd(), POLLIN, 0});
    ::poll(fds.data(), nfds_t(fds.size()), timeout_ms);
  };

  {
    Wr probe;
    probe.u32(round);
    broadcast(kTagProbe, std::move(probe.b));
  }

  const std::int64_t t_start = mono_ns();
  for (;;) {
    for (auto& ch : ctl_) ch->poll();
    const std::int32_t dead = check_deaths();
    if (dead >= 0) {
      fail_phase("worker process died mid-phase", dead, pids_[dead],
                 ws[dead].wait_status);
      return;
    }
    if (watchdog_cfg_.phase_deadline > 0 &&
        mono_ns() - t_start > watchdog_cfg_.phase_deadline) {
      fail_phase("phase deadline exceeded (coordinator watchdog)", -1, -1, 0);
      return;
    }

    if (!done_sent) {
      bool all_reported = true;
      for (auto& s : ws) all_reported = all_reported && s.cur.valid;
      if (all_reported) {
        // Done = two consecutive identical rounds, all quiescent, and the
        // pairwise sent/recv matrices matching — the PR-5/7 two-pass
        // quiescence confirm, lifted to frame level.
        bool quiet = true;
        for (auto& s : ws)
          quiet = quiet && s.prev.valid && s.cur == s.prev && s.cur.quiescent;
        if (quiet) {
          for (std::uint32_t a = 0; a < procs_ && quiet; ++a)
            for (std::uint32_t b = 0; b < procs_ && quiet; ++b)
              if (a != b) quiet = ws[a].cur.sent[b] == ws[b].cur.recv[a];
        }
        if (quiet) {
          broadcast(kTagDone, {});
          done_sent = true;
        } else {
          for (auto& s : ws) {
            s.prev = s.cur;
            s.cur = Report{};
          }
          ++round;
          Wr probe;
          probe.u32(round);
          broadcast(kTagProbe, std::move(probe.b));
        }
        continue;
      }
    } else {
      bool all_bye = true;
      for (auto& s : ws) all_bye = all_bye && s.bye;
      if (all_bye) break;
    }
    wait_ctl(2);
  }

  // Clean finish: reap every worker (they _exit(0) right after kTagBye).
  for (std::uint32_t w = 0; w < procs_; ++w) {
    if (ws[w].dead) continue;  // already reaped by check_deaths
    int st = 0;
    waitpid(pids_[w], &st, 0);
  }
}

void ProcBackend::coordinator_apply(std::uint32_t from, std::uint16_t tag,
                                    const std::vector<std::uint8_t>& bytes,
                                    std::uint32_t round, void* cur_report,
                                    bool* bye) {
  Report& cur = *static_cast<Report*>(cur_report);
  switch (tag) {
    case kTagReport: {
      Rd r(bytes);
      const std::uint32_t rnd = r.u32();
      // A worker answers only its newest probe, and the next probe goes out
      // only once every worker answered this one. A report from any other
      // round would feed the done decision stale counts.
      DPA_CHECK(rnd == round) << "worker " << from << " reported round "
                              << rnd << " during round " << round;
      cur.valid = true;
      cur.quiescent = r.u8();
      cur.tasks = r.u64();
      cur.sent.assign(procs_, 0);
      cur.recv.assign(procs_, 0);
      for (auto& v : cur.sent) v = r.u64();
      for (auto& v : cur.recv) v = r.u64();
      break;
    }
    case kTagSpan: {
      Rd r(bytes);
      while (r.remaining() > 0) {
        const std::uint8_t kind = r.u8();
        const std::uint32_t idx = r.u32();
        const std::uint64_t off = r.u64();
        const std::uint32_t len = r.u32();
        DPA_CHECK(idx < spans_.size() && off + len <= spans_[idx].bytes)
            << "span diff out of range";
        char* base =
            const_cast<char*>(static_cast<const char*>(spans_[idx].addr));
        if (kind == kRunBytes) {
          r.raw(base + off, len);
        } else {
          DPA_CHECK(kind == kRunSum && len % 8 == 0);
          for (std::uint32_t i = 0; i < len; i += 8) {
            const std::uint64_t delta = r.u64();
            std::uint64_t cur_v = 0;
            std::memcpy(&cur_v, base + off + i, 8);
            cur_v += delta;
            std::memcpy(base + off + i, &cur_v, 8);
          }
        }
      }
      break;
    }
    case kTagEpilogue: {
      Rd r(bytes);
      const std::uint32_t node = r.u32();
      const std::uint32_t len = r.u32();
      DPA_CHECK(node < num_nodes_ && owner_of(node) == from);
      phase_.epilogues[node].resize(len);
      if (len > 0) r.raw(phase_.epilogues[node].data(), len);
      break;
    }
    case kTagStats: {
      Rd r(bytes);
      phase_.events += r.u64();
      phase_.msgs += r.pod<MsgStats>();
      phase_.sched += r.pod<SchedStats>();
      phase_.wire += r.pod<WireStats>();
      const std::uint32_t n = r.u32();
      for (std::uint32_t i = 0; i < n; ++i) {
        const NodeId id = r.u32();
        DPA_CHECK(id < num_nodes_ && owner_of(id) == from);
        node_stats_[id] = r.pod<NodeStats>();
      }
      break;
    }
    case kTagBye:
      *bye = true;
      break;
    default:
      DPA_PANIC("unexpected control tag " << tag << " from worker " << from);
  }
}

void ProcBackend::fail_phase(const std::string& reason,
                             std::int32_t dead_worker, pid_t dead_pid,
                             int wait_status) {
  write_flight_record(reason, dead_worker, dead_pid, wait_status);

  std::ostringstream d;
  d << "proc backend: " << reason;
  if (dead_worker >= 0) {
    d << " — worker " << dead_worker << " (pid " << dead_pid << ", nodes";
    for (NodeId n : nodes_owned_by(std::uint32_t(dead_worker))) d << " " << n;
    d << ")";
    if (WIFEXITED(wait_status))
      d << " exited with status " << WEXITSTATUS(wait_status);
    else if (WIFSIGNALED(wait_status))
      d << " was killed by signal " << WTERMSIG(wait_status);
  }
  d << "; surviving workers aborted, phase results discarded";
  phase_.diagnostics = d.str();

  // Best-effort abort broadcast, then make sure everyone is gone.
  for (std::uint32_t w = 0; w < procs_; ++w) {
    if (std::int32_t(w) == dead_worker) continue;
    send_ctl(*ctl_[w], kCtlCoord, kCtlWorker, kTagAbort, {});
    ctl_[w]->drain();
  }
  kill_and_reap_all();
}

void ProcBackend::kill_and_reap_all() {
  for (std::size_t w = 0; w < pids_.size(); ++w) {
    if (pids_[w] <= 0) continue;
    int st = 0;
    // Give the abort a moment to land, then force the issue.
    for (int i = 0; i < 50; ++i) {
      if (waitpid(pids_[w], &st, WNOHANG) == pids_[w]) {
        pids_[w] = -1;
        break;
      }
      struct timespec ts {0, 2'000'000};  // 2ms
      nanosleep(&ts, nullptr);
    }
    if (pids_[w] > 0) {
      kill(pids_[w], SIGKILL);
      waitpid(pids_[w], &st, 0);
      pids_[w] = -1;
    }
  }
}

void ProcBackend::write_flight_record(const std::string& reason,
                                      std::int32_t dead_worker,
                                      pid_t dead_pid, int wait_status) {
  if (watchdog_cfg_.dump_path.empty()) {
    std::fprintf(stderr, "[proc-backend] %s (worker %d, pid %d)\n",
                 reason.c_str(), dead_worker, int(dead_pid));
    return;
  }
  std::FILE* f = std::fopen(watchdog_cfg_.dump_path.c_str(), "w");
  if (f == nullptr) return;
  std::ostringstream j;
  j << "{\n"
    << "  \"backend\": \"proc\",\n"
    << "  \"reason\": \"" << reason << "\",\n"
    << "  \"procs\": " << procs_ << ",\n"
    << "  \"num_nodes\": " << num_nodes_ << ",\n"
    << "  \"dead_worker\": " << dead_worker << ",\n"
    << "  \"dead_pid\": " << dead_pid << ",\n"
    << "  \"wait_status\": " << wait_status << ",\n"
    << "  \"dead_nodes\": [";
  if (dead_worker >= 0) {
    bool first = true;
    for (NodeId n : nodes_owned_by(std::uint32_t(dead_worker))) {
      if (!first) j << ", ";
      j << n;
      first = false;
    }
  }
  j << "]\n}\n";
  const std::string s = j.str();
  std::fwrite(s.data(), 1, s.size(), f);
  std::fclose(f);
}

// ---------------------------------------------------------------------------
// Worker side
// ---------------------------------------------------------------------------

void ProcBackend::worker_main(std::uint32_t self) {
  role_ = Role::kWorker;
  self_ = self;

  // Drop every inherited fd that is not ours: the coordinator ends of our
  // own sockets, everything of every other worker. Any copy we kept open
  // would mask another worker's death from its peers.
  for (std::uint32_t w = 0; w < procs_; ++w) {
    if (w != self) {
      close(ctl_fds_[w][0]);
      close(ctl_fds_[w][1]);
    } else {
      close(ctl_fds_[w][0]);
    }
  }
  for (std::uint32_t a = 0; a < procs_; ++a) {
    for (std::uint32_t b = a + 1; b < procs_; ++b) {
      if (a == self) {
        close(data_fds_[a][b][1]);
      } else if (b == self) {
        close(data_fds_[a][b][0]);
      } else {
        close(data_fds_[a][b][0]);
        close(data_fds_[a][b][1]);
      }
    }
  }

  // Control link to the coordinator (all frames flagged control).
  transport::PipeChannel ctl(2u, 1u,
                             transport::PipeChannel::Endpoint{
                                 ctl_fds_[self][1]});
  ctl.set_control(true);

  // Data links: one framed channel per peer worker.
  links_.clear();
  links_.resize(procs_);
  for (std::uint32_t v = 0; v < procs_; ++v) {
    if (v == self) continue;
    const int fd = self < v ? data_fds_[self][v][0] : data_fds_[v][self][1];
    auto link = std::make_unique<PeerLink>();
    link->pipe = std::make_unique<transport::PipeChannel>(
        num_nodes_, kTrainMax, transport::PipeChannel::Endpoint{fd});
    PeerLink* raw = link.get();
    link->pipe->set_deliver([this, raw](const transport::FrameHeader& h,
                                        const transport::FramePayload& p) {
      // Application payload from another process: [u32 modeled_bytes]
      // [codec bytes] under the handler-id tag. Rebuild the packet and
      // stage it as a post for the next sub-phase.
      DPA_CHECK(p.tag < handlers_.size()) << "unknown handler tag on wire";
      HandlerEntry* entry = handlers_[p.tag].get();
      DPA_CHECK(bool(entry->codec.unmarshal))
          << "handler '" << entry->name << "' has no unmarshal";
      DPA_CHECK(p.bytes.size() >= 4);
      std::uint32_t modeled = 0;
      std::memcpy(&modeled, p.bytes.data(), 4);
      std::shared_ptr<void> data =
          entry->codec.unmarshal(p.bytes.data() + 4, p.bytes.size() - 4);
      Packet pkt;
      pkt.src = h.src;
      pkt.dst = h.dst;
      pkt.handler = p.tag;
      pkt.data = std::move(data);
      pkt.bytes = modeled;
      const NodeId dst = h.dst;
      Task task = [entry, pkt = std::move(pkt)](Cpu& cpu) {
        entry->fn(cpu, pkt);
      };
      std::lock_guard<std::mutex> lk(inbound_mu_);
      pending_inbound_.emplace_back(dst, std::move(task));
      ++raw->recv;
      remote_msgs_recv_ += 1;
      remote_bytes_recv_ += modeled;
    });
    links_[v] = std::move(link);
  }

  // The local execution substrate: a fresh inner pool (threads never
  // survive a fork, so it must be built on this side of it), fronted by
  // trampolines onto the registered handlers.
  inner_ = std::make_unique<NativeBackend>(num_nodes_);
  for (auto& h : handlers_) {
    HandlerEntry* entry = h.get();
    inner_->register_handler(
        entry->name, Handler([entry](Cpu& cpu, const Packet& pkt) {
          entry->fn(cpu, pkt);
        }));
  }
  if (watchdog_cfg_.enabled()) {
    WatchdogConfig cfg = watchdog_cfg_;
    if (!cfg.dump_path.empty())
      cfg.dump_path += ".w" + std::to_string(self);
    inner_->arm_watchdog(cfg);
  }

  const std::vector<NodeId> owned = nodes_owned_by(self);

  // Control-message flags, written by the delivery callback. It runs on
  // this thread inside ctl.poll() and inside every send_ctl(), whose flush
  // pumps the control link.
  bool got_done = false;
  bool got_abort = false;
  bool probe_pending = false;
  std::uint32_t probe_round = 0;
  ctl.set_deliver([&](const transport::FrameHeader& h,
                      const transport::FramePayload& p) {
    (void)h;
    switch (p.tag) {
      case kTagProbe: {
        Rd r(p.bytes);
        probe_round = r.u32();
        probe_pending = true;
        break;
      }
      case kTagDone:
        got_done = true;
        break;
      case kTagAbort:
        got_abort = true;
        break;
      default:
        DPA_PANIC("unexpected control tag " << p.tag << " at worker "
                                            << self_);
    }
  });

  // Accumulated results across sub-phases.
  std::vector<NodeStats> acc(num_nodes_);
  MsgStats msg_acc;
  SchedStats sched_acc;
  std::uint64_t tasks_acc = 0;
  Time subphase_offset = 0;

  bool first = true;
  std::int64_t last_reported = -1;
  std::uint64_t pump_iters = 0;

  for (;;) {
    // 1. Run everything runnable locally: one inner sub-phase. The inner
    // pool reaches local quiescence because DPA threads are non-blocking
    // continuations — a pending remote require holds no task.
    std::vector<std::pair<NodeId, Task>> batch;
    {
      std::lock_guard<std::mutex> lk(inbound_mu_);
      batch.swap(pending_inbound_);
    }
    bool have_seeds = false;
    if (first)
      for (NodeId n : owned) have_seeds = have_seeds || !staged_posts_[n].empty();
    if (!batch.empty() || have_seeds) {
      inner_->begin_phase();
      if (first) {
        for (NodeId n : owned)
          while (!staged_posts_[n].empty()) {
            inner_->post(n, std::move(staged_posts_[n].front()));
            staged_posts_[n].pop_front();
          }
      }
      for (auto& [node, task] : batch) inner_->post(node, std::move(task));
      const PhaseExec pe = inner_->run_phase();
      tasks_acc += pe.events;
      for (NodeId n : owned) {
        const NodeStats& st = inner_->node_stats(n);
        NodeStats& a = acc[n];
        for (int k = 0; k < kNumWorkKinds; ++k) a.busy[k] += st.busy[k];
        a.busy_total += st.busy_total;
        a.tasks_run += st.tasks_run;
        if (st.tasks_run > 0) a.finish_time = subphase_offset + st.finish_time;
      }
      subphase_offset += pe.elapsed;
      msg_acc += pe.msgs;
      sched_acc += pe.sched;
      // Anything the sub-phase buffered for other processes departs now;
      // termination depends on it (sent counts include these payloads).
      for (auto& link : links_) {
        if (link == nullptr) continue;
        std::lock_guard<std::mutex> lk(link->mu);
        for (NodeId n : owned) link->pipe->flush(n);
      }
    }
    first = false;

    // 2. Pump the data links: inbound payloads become staged posts. A dead
    // peer needs no report: the coordinator reaps its pid and reads EOF on
    // its control channel.
    for (auto& link : links_) {
      if (link == nullptr) continue;
      std::lock_guard<std::mutex> lk(link->mu);
      link->pipe->poll();
    }

    // 3. Pump the control link.
    ctl.poll();
    if (got_abort) _exit(1);

    // 4. Chaos hook: die abruptly, as a crashed process would.
    if (config_.kill_worker_for_test == std::int32_t(self_) &&
        ++pump_iters >= config_.kill_after_pumps) {
      _exit(42);
    }

    // 5. Done broadcast: commit, diff, ship, leave.
    if (got_done) {
      worker_finalize(ctl, owned, acc, msg_acc, sched_acc, tasks_acc);
      // not reached
    }

    // 6. Answer the latest probe (whether or not we are quiescent — the
    // coordinator needs the report to advance rounds).
    bool quiescent;
    {
      std::lock_guard<std::mutex> lk(inbound_mu_);
      quiescent = pending_inbound_.empty();
    }
    if (probe_pending && std::int64_t(probe_round) > last_reported) {
      // Retire the round before sending: the report's own pump may deliver
      // the next probe, which must stay pending.
      last_reported = std::int64_t(probe_round);
      probe_pending = false;
      Wr rep;
      rep.u32(probe_round);
      rep.u8(quiescent ? 1 : 0);
      rep.u64(tasks_acc);
      for (std::uint32_t v = 0; v < procs_; ++v)
        rep.u64(links_[v] == nullptr
                    ? 0
                    : links_[v]->sent.load(std::memory_order_relaxed));
      for (std::uint32_t v = 0; v < procs_; ++v) {
        if (links_[v] == nullptr) {
          rep.u64(0);
          continue;
        }
        std::lock_guard<std::mutex> lk(links_[v]->mu);
        rep.u64(links_[v]->recv);
      }
      send_ctl(ctl, kCtlWorker, kCtlCoord, kTagReport, std::move(rep.b));
    }

    // 7. Nothing to run and nothing in hand: sleep on the wire. A probe or
    // done broadcast that a send delivered goes round the loop at once.
    if (quiescent && !probe_pending && !got_done && !got_abort) {
      std::vector<pollfd> fds;
      fds.push_back(pollfd{ctl.wire_fd(), POLLIN, 0});
      for (auto& link : links_)
        if (link != nullptr)
          fds.push_back(pollfd{link->pipe->wire_fd(), POLLIN, 0});
      ::poll(fds.data(), nfds_t(fds.size()), 1);
    }
  }
}

void ProcBackend::worker_finalize(
    transport::PipeChannel& ctl, const std::vector<NodeId>& owned,
    const std::vector<NodeStats>& acc, const MsgStats& msg_acc,
    const SchedStats& sched_acc, std::uint64_t tasks_acc) {
  // 1. Phase epilogues for the owned nodes, in node order: this is where
  // staged accumulations commit (src, seq)-sorted — run them *before* the
  // span diff so their writes are captured.
  std::vector<std::string> blobs(owned.size());
  for (std::size_t i = 0; i < owned.size(); ++i) {
    blobs[i] = phase_epilogue_ ? phase_epilogue_(owned[i]) : std::string();
    Wr msg;
    msg.u32(owned[i]);
    msg.u32(std::uint32_t(blobs[i].size()));
    msg.raw(blobs[i].data(), blobs[i].size());
    send_ctl(ctl, kCtlWorker, kCtlCoord, kTagEpilogue, std::move(msg.b));
  }

  // 2. Span diffs against the coordinator's pre-fork snapshot (inherited
  // copy-on-write; only read here). Byte-exact runs only: workers own
  // disjoint bytes, and shipping any unchanged neighbor byte would clobber
  // another worker's write at the coordinator.
  Wr diff;
  auto flush_diff = [&](bool force) {
    if (diff.b.empty() || (!force && diff.b.size() < kSpanChunkBytes)) return;
    send_ctl(ctl, kCtlWorker, kCtlCoord, kTagSpan, std::move(diff.b));
    diff = Wr{};
  };
  std::uint64_t snapshot_off = 0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const auto* cur = static_cast<const std::uint8_t*>(spans_[i].addr);
    const std::uint8_t* old = snapshot_.data() + snapshot_off;
    const std::uint64_t n = spans_[i].bytes;
    snapshot_off += n;
    if (spans_[i].merge == SpanMerge::kSumU64) {
      // Contiguous non-zero u64 deltas, shipped as one add-record each.
      std::uint64_t lane = 0;
      const std::uint64_t lanes = n / 8;
      while (lane < lanes) {
        if (load_u64(cur + lane * 8) == load_u64(old + lane * 8)) {
          ++lane;
          continue;
        }
        const std::uint64_t start = lane;
        Wr deltas;
        for (; lane < lanes; ++lane) {
          const std::uint64_t c = load_u64(cur + lane * 8);
          const std::uint64_t o = load_u64(old + lane * 8);
          if (c == o) break;
          deltas.u64(c - o);
        }
        diff.u8(kRunSum);
        diff.u32(std::uint32_t(i));
        diff.u64(start * 8);
        diff.u32(std::uint32_t(deltas.b.size()));
        diff.raw(deltas.b.data(), deltas.b.size());
        flush_diff(false);
      }
      continue;
    }
    // Skip equal 8-byte words, then find the run boundaries byte by byte:
    // the records are the maximal runs of changed bytes.
    std::uint64_t p = 0;
    while (p < n) {
      if (p + 8 <= n && load_u64(cur + p) == load_u64(old + p)) {
        p += 8;
        continue;
      }
      if (cur[p] == old[p]) {
        ++p;
        continue;
      }
      const std::uint64_t start = p;
      while (p < n && cur[p] != old[p]) ++p;
      std::uint64_t len = p - start;
      // Cap run length so a single record never outgrows a frame chunk.
      while (len > 0) {
        const std::uint64_t take =
            std::min<std::uint64_t>(len, kSpanChunkBytes);
        diff.u8(kRunBytes);
        diff.u32(std::uint32_t(i));
        diff.u64(start + (p - start - len));
        diff.u32(std::uint32_t(take));
        diff.raw(cur + start + (p - start - len), take);
        len -= take;
        flush_diff(false);
      }
    }
  }
  flush_diff(true);

  // 3. Merged execution statistics. Cross-process messages left through
  // the data links, so they count on top of the inner pool's — one
  // fragment each, as on the simulator — and each frame is one train.
  {
    WireStats wire;
    for (auto& link : links_)
      if (link != nullptr) wire += link->pipe->wire_stats();
    const std::uint64_t remote_sent = remote_msgs_sent_.load();
    MsgStats msg = msg_acc;
    msg.msgs_sent += remote_sent;
    msg.frags_sent += remote_sent;
    msg.msgs_recv += remote_msgs_recv_;
    msg.bytes_sent += remote_bytes_sent_.load();
    msg.bytes_recv += remote_bytes_recv_;
    msg.trains_sent += wire.frames_sent;
    Wr s;
    s.u64(tasks_acc);
    s.pod(msg);
    s.pod(sched_acc);
    s.pod(wire);
    s.u32(std::uint32_t(owned.size()));
    for (NodeId n : owned) {
      s.u32(n);
      s.pod(acc[n]);
    }
    send_ctl(ctl, kCtlWorker, kCtlCoord, kTagStats, std::move(s.b));
  }

  // 4. Everything shipped: sign off and leave without running atexit or
  // destructors (the coordinator owns the shared state we COW-replicated).
  send_ctl(ctl, kCtlWorker, kCtlCoord, kTagBye, {});
  ctl.drain();
  _exit(0);
}

}  // namespace dpa::exec
