// ProcBackend: multi-process execution over the transport layer.
//
// A coordinator process forks one worker process per group of nodes at
// each run_phase(); every worker runs one M:N NativeBackend pool over the
// full node-id space but executes only the nodes it owns (owner(node) =
// node % procs — the same modular affinity the native scheduler uses).
// Cross-process messages travel as encoded frames over one AF_UNIX
// socketpair per process pair (a transport::PipeChannel at each end); a
// per-worker control socketpair — every frame stamped kFrameFlagControl —
// carries the coordinator-driven termination protocol, the span diffs,
// and the result blobs.
//
// Reliability: none is layered on. A stream socket between live
// processes is lossless and FIFO — exactly the guarantee the paper's
// Illinois Fast Messages gave DPA — so the data links carry no sequence
// numbers, acks or retransmissions. The only failure is a dead peer,
// handled below.
//
// Execution model (fork-per-phase):
//   * Between phases the coordinator is the only thread alive. post() and
//     register_handler() stage work/handlers; run_phase() builds the span
//     list, creates the socketpairs, and forks the workers — each child a
//     copy-on-write replica of the engines, handlers and application
//     state at phase start.
//   * A worker builds its pool (threads never survive a fork), seeds the
//     staged posts of its owned nodes, and runs ONE live held phase of
//     it (NativeBackend::start_held_phase): the worker's main thread
//     holds one unit of outstanding work, so the pool cannot quiesce on
//     its own while the main thread pumps the links. Each inbound frame
//     is posted into its destination node's mailbox as it decodes — the
//     way Illinois FM ran handlers on arrival — so a node's peers are
//     served while it computes. Only the pump loop reads the links, which
//     keeps per-(src, dst) FIFO order.
//   * Outbound, messages to another process's nodes ride the pool's own
//     per-destination trains and leave where native trains leave (at
//     train_max, on Backend::flush, before the sender deactivates): the
//     departing train goes to send_train(), which marshals it into one
//     frame on the peer link, instead of to a mailbox.
//   * Termination is the two-pass quiescence shape lifted to frame
//     level: the coordinator broadcasts probe rounds; each worker answers
//     only once its pool is idle (only the hold outstanding), so every
//     report says "locally quiescent", with the tasks run and per-peer
//     sent/recv payload counts. Sends are counted inside the sending
//     task, before the message can leave. The phase is done when two
//     consecutive rounds are identical and the sent/recv matrices match
//     pairwise; the done broadcast then releases each worker's hold.
//   * After the done broadcast each worker runs the phase epilogue for
//     its owned nodes (committing staged accumulations (src, seq)-sorted
//     — the determinism-bearing step), diffs every registered span
//     against the phase-start snapshot, and ships only the changed runs
//     home. The coordinator takes that snapshot once, into one buffer,
//     just before the fork; the workers read it copy-on-write and never
//     copy it. The coordinator applies the runs directly: owned writes are
//     disjoint, so application order cannot matter, and kSumU64 spans
//     travel as per-lane deltas that simply add.
//   * Control sends write their frame at once (send + PipeChannel::flush);
//     frames are read and delivered only by poll(), on the thread that
//     owns the channel. The worker's pump loop sleeps in ppoll(2) on its
//     control and data links; while a probe waits for its busy pool it
//     wakes every 50 us to recheck the pool, so the probe is answered
//     soon after the pool drains.
//
// Byte-identity across sim / native / proc: replies carry phase-start
// object state (the fork snapshot) exactly as the single-process phases
// read phase-start state under the read-mostly contract; accumulations
// commit in (src, accum_seq) order at the owning worker; and the same
// binary performs the same FP operations in the same order.
//
// The phase record counts messages in the other backends' units: a
// cross-process message adds its modeled size and one fragment, exactly
// as it would on the simulator. The socket's real frames and bytes are
// PhaseExec::wire.
//
// Peer death is a reported error, not a crash: a worker that dies
// mid-phase surfaces as kPeerDown on its channels (EPIPE/EOF — see
// ChannelStatus) and as a reaped pid at the coordinator, which writes a
// flight-record JSON naming the dead worker, aborts the survivors, and
// fails the phase with PhaseExec::diagnostics instead of hanging.
#pragma once

#include <sys/types.h>

#include <array>
#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "exec/backend.h"
#include "transport/pipe_channel.h"

namespace dpa::exec {

class NativeBackend;

class ProcBackend final : public Backend {
 public:
  struct Config {
    // Worker process count; clamped to [1, num_nodes].
    std::uint32_t procs = 2;
    // Armed at construction when enabled() — the harness-flag path, same
    // plumbing as NativeBackend::set_default_watchdog. arm_watchdog()
    // overrides it per instance.
    WatchdogConfig watchdog;
    // Chaos hook: worker index that self-terminates (as if killed) after
    // `kill_after_pumps` pump-loop iterations; -1 = disabled. A worker can
    // only finish via the coordinator's done broadcast, which arrives in
    // its pump loop — so kill_after_pumps=1 fires strictly before any
    // worker can complete the phase.
    std::int32_t kill_worker_for_test = -1;
    std::uint32_t kill_after_pumps = 1;
  };

  explicit ProcBackend(std::uint32_t num_nodes);
  ProcBackend(std::uint32_t num_nodes, const Config& config);
  ~ProcBackend() override;

  // Process-wide default config for subsequently constructed ProcBackends
  // — same plumbing rationale as NativeBackend::set_default_tuning
  // (--procs is a harness flag; Clusters are built deep inside app
  // runners).
  static void set_default_config(const Config& config);
  static Config default_config();

  BackendKind kind() const override { return BackendKind::kProc; }
  std::uint32_t num_nodes() const override { return num_nodes_; }
  std::uint32_t num_procs() const { return procs_; }
  NodeId owner_of(NodeId node) const { return node % procs_; }

  HandlerId register_handler(std::string name, Handler fn,
                             WireCodec codec = {}) override;

  void send(Cpu& cpu, NodeId src, NodeId dst, HandlerId handler,
            std::shared_ptr<void> data, std::uint32_t bytes) override;
  void post(NodeId node, Task task) override;
  void flush(Cpu& cpu, NodeId node) override;

  Time begin_phase() override;
  PhaseExec run_phase() override;

  const NodeStats& node_stats(NodeId node) const override {
    return node_stats_[node];
  }

  // Stores the policy; the coordinator enforces phase_deadline itself and
  // forwards the config to each worker's inner pool, so an intra-worker
  // wedge aborts the worker and surfaces as a reported peer death.
  bool arm_watchdog(const WatchdogConfig& cfg) override {
    watchdog_cfg_ = cfg;
    return true;
  }

  void set_span_source(
      std::function<void(std::vector<PhaseSpan>&)> fn) override {
    span_source_ = std::move(fn);
  }
  void add_phase_span(PhaseSpan span) override;
  void remove_phase_span(const void* addr) override;

 private:
  // The name labels the "no wire codec" error.
  struct HandlerEntry {
    std::string name;
    Handler fn;
    WireCodec codec;
  };

  // One worker's data link to a peer process: a duplex socketpair end
  // speaking the frame codec. `mu` serializes the inner pool's departing
  // trains against the pump loop; `sent` (bumped by sending tasks) and
  // `recv` (by the pump loop) count application payloads for the
  // termination protocol.
  struct PeerLink {
    std::mutex mu;
    std::unique_ptr<transport::PipeChannel> pipe;
    std::atomic<std::uint64_t> sent{0};
    std::uint64_t recv = 0;
  };

  enum class Role : std::uint8_t { kCoordinator, kWorker };

  void spawn_workers();
  [[noreturn]] void worker_main(std::uint32_t self);
  // The inner pool's sink for trains bound to another process's nodes:
  // marshals the packets into one frame on that process's link.
  void send_train(NodeId src, NodeId dst, std::vector<Packet>& train);
  [[noreturn]] void worker_finalize(transport::PipeChannel& ctl,
                                    const std::vector<NodeId>& owned,
                                    const PhaseExec& pe);
  void coordinator_loop();
  // Applies one control payload from worker `from` (ctl delivery callback)
  // during probe round `round`.
  void coordinator_apply(std::uint32_t from, std::uint16_t tag,
                         const std::vector<std::uint8_t>& bytes,
                         std::uint32_t round, void* cur_report, bool* bye);
  void fail_phase(const std::string& reason, std::int32_t dead_worker,
                  pid_t dead_pid, int wait_status);
  void kill_and_reap_all();
  void write_flight_record(const std::string& reason,
                           std::int32_t dead_worker, pid_t dead_pid,
                           int wait_status);
  std::vector<NodeId> nodes_owned_by(std::uint32_t worker) const;

  const std::uint32_t num_nodes_;
  Config config_;
  std::uint32_t procs_;
  Role role_ = Role::kCoordinator;

  std::vector<std::unique_ptr<HandlerEntry>> handlers_;

  std::function<void(std::vector<PhaseSpan>&)> span_source_;
  std::vector<PhaseSpan> transient_spans_;  // app-registered, per step
  std::vector<PhaseSpan> spans_;            // resolved per phase, pre-fork
  // Phase-start bytes of spans_, back to back in span order: taken by the
  // coordinator just before the fork, read copy-on-write by the workers as
  // their diff base, and kept (with its capacity) across phases.
  std::vector<std::uint8_t> snapshot_;

  // Coordinator staging between begin_phase and run_phase (pre-phase
  // seeds from engine start()). Inherited copy-on-write by the workers.
  std::vector<std::deque<Task>> staged_posts_;

  // --- Coordinator-side per-phase state --------------------------------
  std::vector<pid_t> pids_;
  std::vector<std::array<int, 2>> ctl_fds_;  // [coordinator end, worker end]
  // data_fds_[a][b] (a < b): [a's end, b's end] of the (a, b) socketpair.
  std::vector<std::vector<std::array<int, 2>>> data_fds_;
  std::vector<std::unique_ptr<transport::PipeChannel>> ctl_;
  WatchdogConfig watchdog_cfg_;

  // The phase record the workers' results merge into (run_phase returns
  // it), and the per-node stats behind node_stats().
  PhaseExec phase_;
  std::vector<NodeStats> node_stats_;
  Time clock_ns_ = 0;

  // --- Worker-side state (meaningful only after fork) ------------------
  std::uint32_t self_ = 0;
  std::unique_ptr<NativeBackend> inner_;
  std::vector<std::unique_ptr<PeerLink>> links_;  // indexed by peer worker
};

}  // namespace dpa::exec
