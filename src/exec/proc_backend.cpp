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
#include <utility>

#include "exec/native_backend.h"
#include "exec/task_table.h"
#include "support/assert.h"
#include "support/bytes.h"

namespace dpa::exec {

namespace {

// Control-channel message tags. Every frame on the control socketpair
// carries kFrameFlagControl (PipeChannel set_control), the wire-visible
// marker of coordination traffic.
constexpr std::uint16_t kTagAbort = 1;     // coordinator -> worker
constexpr std::uint16_t kTagSpan = 2;      // worker -> coordinator: diffs
constexpr std::uint16_t kTagEpilogue = 3;  // worker -> coordinator: blob
constexpr std::uint16_t kTagStats = 4;     // worker -> coordinator
constexpr std::uint16_t kTagBye = 5;       // worker -> coordinator: all sent

// On the control channel, node 0 is the coordinator and node 1 the worker.
constexpr NodeId kCtlCoord = 0;
constexpr NodeId kCtlWorker = 1;

// Span-diff record kinds.
constexpr std::uint8_t kRunBytes = 0;  // overwrite: raw byte run
constexpr std::uint8_t kRunSum = 1;    // add: u64 delta lanes

// Flush accumulated span-diff records to the wire at this payload size.
constexpr std::size_t kSpanChunkBytes = 512 * 1024;

// The pump loop's longest sleep; arrivals, the coordinator and room for a
// backlog wake it sooner. Nothing wakes it when the table balances, so it
// rechecks the table at this interval.
constexpr long kPumpWaitNs = 50'000;

std::int64_t mono_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::mutex g_defaults_mu;
ProcBackend::Config g_default_config;

// Sends one control payload as its own frame: it is on the wire when this
// returns unless the kernel buffer is full (the next poll() writes the
// rest).
void send_ctl(transport::PipeChannel& ctl, NodeId src, NodeId dst,
              std::uint16_t tag, std::vector<std::uint8_t> bytes) {
  std::vector<transport::FramePayload> one(1);
  one[0].tag = tag;
  one[0].bytes = std::move(bytes);
  ctl.send_frame(src, dst, one);
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
  staged_posts_.resize(num_nodes_);
  node_stats_.resize(num_nodes_);
}

ProcBackend::~ProcBackend() {
  if (role_ == Role::kCoordinator) kill_and_reap_all();
}

HandlerId ProcBackend::register_handler(std::string name, Handler fn,
                                        WireCodec codec) {
  DPA_CHECK(role_ == Role::kCoordinator);
  handlers_.push_back(
      HandlerEntry{std::move(name), std::move(fn), std::move(codec)});
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
    // In-phase post from an inner task (engine kick/self-reschedule): to
    // its own node only, which the pool checks.
    inner_->post(node, std::move(task));
    return;
  }
  // Coordinator: pre-phase seeding. Counted here, before the fork: a
  // worker that counted its own seeds could see the table balance before
  // a slower sibling had counted its. The worker owning `node` hands these
  // to its inner pool after the fork.
  DPA_CHECK(table_ != nullptr) << "proc backend post before begin_phase";
  table_->produce(node);
  staged_posts_[node].push_back(std::move(task));
}

void ProcBackend::send(Cpu& cpu, NodeId src, NodeId dst, HandlerId handler,
                       std::shared_ptr<void> data, std::uint32_t bytes) {
  DPA_CHECK(role_ == Role::kWorker)
      << "proc backend send outside a phase (no task context)";
  inner_->send(cpu, src, dst, handler, std::move(data), bytes);
}

void ProcBackend::send_train(NodeId src, NodeId dst,
                             std::vector<Packet>& train) {
  std::vector<transport::FramePayload> frame(train.size());
  for (std::size_t i = 0; i < train.size(); ++i) {
    const Packet& pkt = train[i];
    const HandlerEntry& entry = handlers_[pkt.handler];
    DPA_CHECK(bool(entry.codec.marshal))
        << "handler '" << entry.name
        << "' crosses a process boundary but has no wire codec";
    const std::vector<std::uint8_t> body =
        entry.codec.marshal(pkt.data.get(), pkt.bytes);
    std::vector<std::uint8_t>& wire = frame[i].bytes;
    wire.reserve(sizeof(pkt.bytes) + body.size());
    put(wire, pkt.bytes);  // the modeled size rides along
    put_raw(wire, body.data(), body.size());
    frame[i].tag = pkt.handler;
  }
  PeerLink& link = *links_[owner_of(dst)];
  std::lock_guard<std::mutex> lk(link.mu);
  link.pipe->send_frame(src, dst, frame);
}

void ProcBackend::flush(Cpu& cpu, NodeId node) {
  if (role_ == Role::kWorker) inner_->flush(cpu, node);
}

Time ProcBackend::begin_phase() {
  DPA_CHECK(role_ == Role::kCoordinator);
  // Every worker of the last phase is reaped, so nothing counts into the
  // table; a failed phase may have left it unbalanced.
  if (table_ == nullptr)
    table_ = std::make_unique<TaskTable>(num_nodes_);
  else
    table_->reset();
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
  DPA_CHECK(table_ != nullptr) << "proc backend run_phase before begin_phase";
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
        transport::PipeChannel::Endpoint{ctl_fds_[w][0]});
    ch->set_control(true);
    ctl_fds_[w][0] = -1;  // channel owns it now
    ctl_.push_back(std::move(ch));
  }
}

void ProcBackend::coordinator_loop() {
  struct WorkerState {
    bool bye = false;
    bool dead = false;
    pid_t pid = -1;  // once dead: the reaped pid, for the diagnosis
    int wait_status = 0;
  };
  std::vector<WorkerState> ws(procs_);

  // Deliveries run inside poll(), on this thread.
  for (std::uint32_t w = 0; w < procs_; ++w) {
    ctl_[w]->set_deliver([this, &ws, w](const transport::FrameHeader& h,
                                        const transport::FramePayload& p) {
      (void)h;
      if (p.tag == kTagBye)
        ws[w].bye = true;
      else
        coordinator_apply(w, p.tag, p.bytes);
    });
  }

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
      // Reaped: the pid is no longer ours to wait for or to signal (the
      // kernel may hand it to a new process), so only the record keeps it.
      ws[w].dead = true;
      ws[w].pid = pids_[w];
      ws[w].wait_status = st;
      pids_[w] = -1;
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

  // The workers end the phase themselves, on the shared table; this loop
  // collects what they ship home and watches for deaths and the deadline.
  const std::int64_t t_start = mono_ns();
  for (;;) {
    for (auto& ch : ctl_) ch->poll();
    const std::int32_t dead = check_deaths();
    if (dead >= 0) {
      fail_phase("worker process died mid-phase", dead, ws[dead].pid,
                 ws[dead].wait_status);
      return;
    }
    if (config_.watchdog.phase_deadline > 0 &&
        mono_ns() - t_start > config_.watchdog.phase_deadline) {
      fail_phase("phase deadline exceeded (coordinator watchdog)", -1, -1, 0);
      return;
    }
    bool all_bye = true;
    for (auto& s : ws) all_bye = all_bye && s.bye;
    if (all_bye) break;
    wait_ctl(2);
  }

  // Clean finish: reap every worker (they _exit(0) right after kTagBye).
  for (std::uint32_t w = 0; w < procs_; ++w) {
    if (ws[w].dead) continue;  // already reaped by check_deaths
    int st = 0;
    waitpid(pids_[w], &st, 0);
    pids_[w] = -1;
  }
}

void ProcBackend::coordinator_apply(std::uint32_t from, std::uint16_t tag,
                                    const std::vector<std::uint8_t>& bytes) {
  switch (tag) {
    case kTagSpan: {
      ByteReader r(bytes);
      while (r.remaining() > 0) {
        const auto kind = r.get<std::uint8_t>();
        const auto idx = r.get<std::uint32_t>();
        const auto off = r.get<std::uint64_t>();
        const auto len = r.get<std::uint32_t>();
        DPA_CHECK(idx < spans_.size() && off + len <= spans_[idx].bytes)
            << "span diff out of range";
        char* base =
            const_cast<char*>(static_cast<const char*>(spans_[idx].addr));
        if (kind == kRunBytes) {
          r.get_raw(base + off, len);
        } else {
          DPA_CHECK(kind == kRunSum && len % 8 == 0);
          for (std::uint32_t i = 0; i < len; i += 8) {
            const auto delta = r.get<std::uint64_t>();
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
      ByteReader r(bytes);
      const auto node = r.get<std::uint32_t>();
      const auto len = r.get<std::uint32_t>();
      DPA_CHECK(node < num_nodes_ && owner_of(node) == from);
      phase_.epilogues[node].resize(len);
      r.get_raw(phase_.epilogues[node].data(), len);
      break;
    }
    case kTagStats: {
      ByteReader r(bytes);
      phase_.events += r.get<std::uint64_t>();
      phase_.msgs += r.get<MsgStats>();
      phase_.sched += r.get<SchedStats>();
      phase_.wire += r.get<WireStats>();
      const auto n = r.get<std::uint32_t>();
      for (std::uint32_t i = 0; i < n; ++i) {
        const auto id = r.get<NodeId>();
        DPA_CHECK(id < num_nodes_ && owner_of(id) == from);
        node_stats_[id] = r.get<NodeStats>();
      }
      break;
    }
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
  if (config_.watchdog.dump_path.empty()) {
    std::fprintf(stderr, "[proc-backend] %s (worker %d, pid %d)\n",
                 reason.c_str(), dead_worker, int(dead_pid));
    return;
  }
  std::FILE* f = std::fopen(config_.watchdog.dump_path.c_str(), "w");
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
  transport::PipeChannel ctl(
      transport::PipeChannel::Endpoint{ctl_fds_[self][1]});
  ctl.set_control(true);

  // The local execution substrate: a fresh pool (threads never survive a
  // fork, so it must be built on this side of it) counting into the
  // coordinator's table, under its stall policy, its record named per
  // worker. The registered handlers move into it; this process keeps their
  // names and codecs for the wire.
  NativeBackend::Tuning tuning = NativeBackend::default_tuning();
  tuning.watchdog = config_.watchdog;
  if (!tuning.watchdog.dump_path.empty())
    tuning.watchdog.dump_path += ".w" + std::to_string(self);
  inner_ = std::make_unique<NativeBackend>(num_nodes_, tuning, table_.get());
  for (HandlerEntry& h : handlers_)
    inner_->register_handler(h.name, std::move(h.fn));

  // Data links: one framed channel per peer worker. Only this thread reads
  // them, and it delivers each payload into its node's mailbox as the
  // frame decodes, so per-(src, dst) FIFO order holds. The sender counted
  // the message in the table; its delivery is not counted again.
  links_.clear();
  links_.resize(procs_);
  for (std::uint32_t v = 0; v < procs_; ++v) {
    if (v == self) continue;
    const int fd = self < v ? data_fds_[self][v][0] : data_fds_[v][self][1];
    auto link = std::make_unique<PeerLink>();
    link->pipe = std::make_unique<transport::PipeChannel>(
        transport::PipeChannel::Endpoint{fd});
    link->pipe->set_deliver([this](const transport::FrameHeader& h,
                                   const transport::FramePayload& p) {
      // Application payload from another process: [u32 modeled_bytes]
      // [codec bytes] under the handler-id tag.
      DPA_CHECK(p.tag < handlers_.size()) << "unknown handler tag on wire";
      const HandlerEntry& entry = handlers_[p.tag];
      DPA_CHECK(bool(entry.codec.unmarshal))
          << "handler '" << entry.name << "' has no unmarshal";
      ByteReader r(p.bytes);
      const auto modeled = r.get<std::uint32_t>();
      inner_->deliver(
          h.dst, inner_->delivery(Packet{
                     h.src, h.dst, p.tag, modeled,
                     entry.codec.unmarshal(r.pos(), r.remaining())}));
    });
    links_[v] = std::move(link);
  }
  if (procs_ > 1) {
    // Trains to other processes' nodes leave through the links.
    std::vector<bool> remote(num_nodes_);
    for (NodeId n = 0; n < num_nodes_; ++n) remote[n] = owner_of(n) != self;
    inner_->set_remote(std::move(remote),
                       [this](NodeId src, NodeId dst,
                              std::vector<Packet>& train) {
                         send_train(src, dst, train);
                       });
  }

  // The coordinator's one message, written by the delivery callback on
  // this thread, inside ctl.poll().
  bool got_abort = false;
  ctl.set_deliver([&](const transport::FrameHeader& h,
                      const transport::FramePayload& p) {
    (void)h;
    DPA_CHECK(p.tag == kTagAbort)
        << "unexpected control tag " << p.tag << " at worker " << self_;
    got_abort = true;
  });

  // One live phase: hand the pool the owned nodes' seeds, which the
  // coordinator counted, then run it while this thread pumps the links
  // into it.
  const std::vector<NodeId> owned = nodes_owned_by(self);
  inner_->begin_phase();
  for (NodeId n : owned)
    for (Task& task : staged_posts_[n]) inner_->deliver(n, std::move(task));
  inner_->start_phase();

  std::vector<pollfd> fds;
  for (;;) {
    // 1. Pump the data links: arrivals go straight into node mailboxes,
    // and any backlog a pool thread could not write goes out.
    for (auto& link : links_) {
      if (link == nullptr) continue;
      std::lock_guard<std::mutex> lk(link->mu);
      link->pipe->poll();
    }

    // 2. Pump the control link. A dead coordinator leaves nobody to
    // report to.
    ctl.poll();
    if (got_abort || ctl.status() == transport::ChannelStatus::kPeerDown)
      _exit(1);

    // 3. The table balanced: every task of the phase, in every process,
    // has run, so no frame is on its way here. Commit, diff, ship, leave.
    if (table_->balanced()) break;

    // 4. Sleep on the wire: arrivals, the coordinator or room for a
    // backlog wake us; the table, only the timeout.
    fds.clear();
    fds.push_back(pollfd{ctl.wire_fd(), POLLIN, 0});
    for (auto& link : links_) {
      if (link == nullptr) continue;
      std::lock_guard<std::mutex> lk(link->mu);
      const short events =
          link->pipe->tx_backlog() > 0 ? POLLIN | POLLOUT : POLLIN;
      fds.push_back(pollfd{link->pipe->wire_fd(), events, 0});
    }
    const timespec wait{0, kPumpWaitNs};
    ::ppoll(fds.data(), nfds_t(fds.size()), &wait, nullptr);
  }
  worker_finalize(ctl, owned, inner_->finish_phase());
}

void ProcBackend::worker_finalize(transport::PipeChannel& ctl,
                                  const std::vector<NodeId>& owned,
                                  const PhaseExec& pe) {
  // 1. Phase epilogues for the owned nodes, in node order: this is where
  // staged accumulations commit (src, seq)-sorted — run them *before* the
  // span diff so their writes are captured.
  for (const NodeId n : owned) {
    const std::string blob = phase_epilogue_ ? phase_epilogue_(n) : "";
    std::vector<std::uint8_t> msg;
    put(msg, n);
    put(msg, std::uint32_t(blob.size()));
    put_raw(msg, blob.data(), blob.size());
    send_ctl(ctl, kCtlWorker, kCtlCoord, kTagEpilogue, std::move(msg));
  }

  // 2. Span diffs against the coordinator's pre-fork snapshot (inherited
  // copy-on-write; only read here). Byte-exact runs only: workers own
  // disjoint bytes, and shipping any unchanged neighbor byte would clobber
  // another worker's write at the coordinator.
  std::vector<std::uint8_t> diff;
  auto flush_diff = [&](bool force) {
    if (diff.empty() || (!force && diff.size() < kSpanChunkBytes)) return;
    send_ctl(ctl, kCtlWorker, kCtlCoord, kTagSpan, std::move(diff));
    diff.clear();
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
        while (lane < lanes &&
               load_u64(cur + lane * 8) != load_u64(old + lane * 8))
          ++lane;
        put(diff, kRunSum);
        put(diff, std::uint32_t(i));
        put(diff, start * 8);
        put(diff, std::uint32_t((lane - start) * 8));
        for (std::uint64_t l = start; l < lane; ++l)
          put(diff, load_u64(cur + l * 8) - load_u64(old + l * 8));
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
        put(diff, kRunBytes);
        put(diff, std::uint32_t(i));
        put(diff, start + (p - start - len));
        put(diff, std::uint32_t(take));
        put_raw(diff, cur + start + (p - start - len), take);
        len -= take;
        flush_diff(false);
      }
    }
  }
  flush_diff(true);

  // 3. Execution statistics. The pool counted cross-process messages as
  // it counts its own — one fragment each, as on the simulator, and one
  // train per frame; the links add the socket's own counters.
  {
    WireStats wire;
    for (auto& link : links_)
      if (link != nullptr) wire += link->pipe->wire_stats();
    std::vector<std::uint8_t> s;
    put(s, pe.events);
    put(s, pe.msgs);
    put(s, pe.sched);
    put(s, wire);
    put(s, std::uint32_t(owned.size()));
    for (const NodeId n : owned) {
      put(s, n);
      put(s, inner_->node_stats(n));
    }
    send_ctl(ctl, kCtlWorker, kCtlCoord, kTagStats, std::move(s));
  }

  // 4. Everything shipped: sign off and leave without running atexit or
  // destructors (the coordinator owns the shared state we COW-replicated).
  send_ctl(ctl, kCtlWorker, kCtlCoord, kTagBye, {});
  ctl.drain();
  _exit(0);
}

}  // namespace dpa::exec
