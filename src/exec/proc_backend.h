// ProcBackend: multi-process execution over the transport layer.
//
// A coordinator process forks one worker process per group of nodes at
// each run_phase(); every worker runs one M:N NativeBackend pool over the
// full node-id space but executes only the nodes it owns (owner(node) =
// node % procs — the same modular affinity the native scheduler uses).
// Cross-process messages travel as encoded frames over one AF_UNIX
// socketpair per process pair (a transport::PipeChannel at each end); a
// per-worker control socketpair — every frame stamped kFrameFlagControl —
// carries the coordinator's abort, and the span diffs, result blobs and
// sign-off home.
//
// Reliability: none is layered on. A stream socket between live
// processes is lossless and FIFO — exactly the guarantee the paper's
// Illinois Fast Messages gave DPA — so the data links carry no sequence
// numbers, acks or retransmissions. The only failure is a dead peer,
// handled below.
//
// Execution model (fork-per-phase):
//   * Between phases the coordinator is the only thread alive. post() and
//     register_handler() stage work/handlers, and post() counts each seed
//     in the coordinator's TaskTable (task_table.h), a shared mapping made
//     at the first begin_phase(). run_phase() builds the span list,
//     creates the socketpairs, and forks the workers — each child a
//     copy-on-write replica of the engines, handlers and application
//     state at phase start, sharing the one table.
//   * A worker builds its pool on that table (threads never survive a
//     fork), hands it the staged posts of its owned nodes without counting
//     them again (NativeBackend::deliver), and runs ONE live phase of it
//     while the worker's main thread pumps the links. Each inbound frame
//     is delivered into its destination node's mailbox as it decodes — the
//     way Illinois FM ran handlers on arrival — so a node's peers are
//     served while it computes. Only the pump loop reads the links, which
//     keeps per-(src, dst) FIFO order.
//   * Outbound, messages to another process's nodes ride the pool's own
//     per-destination trains and leave where native trains leave (at
//     train_max, on Backend::flush, before the sender deactivates): the
//     departing train goes to send_train(), which marshals it and hands
//     it to the peer link as one frame (PipeChannel::send_frame), instead
//     of to a mailbox. The links keep no trains of their own. Messages
//     are the only way across: a task posts only to its own node, and a
//     post to any other fails the pool's check, killing the worker —
//     a peer death the coordinator reports, not a task stranded.
//   * Termination is the native pool's own: every process counts into the
//     one table, a message's `produced` in its sending task before its
//     frame leaves and its `consumed` after its delivery ran in the
//     receiving process, so the table balances exactly when every task of
//     the phase, in every process, has run (task_table.h argues it). Each
//     pool's workers leave the phase when their scan sees the balance, and
//     so does each pump loop. The coordinator only forks, collects results
//     and sign-offs, and diagnoses.
//   * Once its phase ends each worker runs the phase epilogue for
//     its owned nodes (committing staged accumulations (src, seq)-sorted
//     — the determinism-bearing step), diffs every registered span
//     against the phase-start snapshot, and ships only the changed runs
//     home. The coordinator takes that snapshot once, into one buffer,
//     just before the fork; the workers read it copy-on-write and never
//     copy it. The coordinator applies the runs directly: owned writes are
//     disjoint, so application order cannot matter, and kSumU64 spans
//     travel as per-lane deltas that simply add.
//   * Each control payload leaves at once as its own frame (send_frame);
//     frames are read and delivered only by poll(), on the thread that
//     owns the channel. The worker's pump loop sleeps in ppoll(2) on its
//     control and data links, and wakes at least every 50 us to read the
//     table: nothing on the wire announces that it balanced.
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
class TaskTable;

class ProcBackend final : public Backend {
 public:
  struct Config {
    // Worker process count; clamped to [1, num_nodes].
    std::uint32_t procs = 2;
    // Stall policy when enabled(): the coordinator enforces phase_deadline
    // itself, and each worker builds its inner pool with this config as
    // Tuning::watchdog, so an intra-worker wedge aborts the worker and
    // surfaces as a reported peer death. dump_path names the
    // coordinator's flight record; a worker's pool writes its own beside
    // it, suffixed ".w<worker>".
    WatchdogConfig watchdog;
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

  void set_span_source(
      std::function<void(std::vector<PhaseSpan>&)> fn) override {
    span_source_ = std::move(fn);
  }
  void add_phase_span(PhaseSpan span) override;
  void remove_phase_span(const void* addr) override;

 private:
  // A worker moves `fn` into its pool and keeps the rest for the wire; the
  // name labels the "no wire codec" error.
  struct HandlerEntry {
    std::string name;
    Handler fn;
    WireCodec codec;
  };

  // One worker's data link to a peer process: a duplex socketpair end
  // speaking the frame codec. `mu` serializes the inner pool's departing
  // trains against the pump loop.
  struct PeerLink {
    std::mutex mu;
    std::unique_ptr<transport::PipeChannel> pipe;
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
  // Applies one result payload from worker `from` (ctl delivery callback).
  void coordinator_apply(std::uint32_t from, std::uint16_t tag,
                         const std::vector<std::uint8_t>& bytes);
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

  std::vector<HandlerEntry> handlers_;

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
  // The one table every process of a phase counts into (see
  // task_table.h). Made at the first begin_phase(), not by the
  // constructor: the mapping there measurably lengthened a proc cluster's
  // set-up.
  std::unique_ptr<TaskTable> table_;

  // --- Coordinator-side per-phase state --------------------------------
  std::vector<pid_t> pids_;  // -1 once reaped
  std::vector<std::array<int, 2>> ctl_fds_;  // [coordinator end, worker end]
  // data_fds_[a][b] (a < b): [a's end, b's end] of the (a, b) socketpair.
  std::vector<std::vector<std::array<int, 2>>> data_fds_;
  std::vector<std::unique_ptr<transport::PipeChannel>> ctl_;

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
