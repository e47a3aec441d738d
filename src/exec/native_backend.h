// NativeBackend: an M:N work-stealing scheduler — a pool of worker threads
// multiplexing the simulated nodes, real time, real message passing.
//
// The same runtime/engine/app stack that runs on the simulator runs here
// unchanged, but "a message" is a genuine cross-thread handoff and "phase
// elapsed" is monotonic wall-clock — so the DPA engine's aggregation and
// pipelining show up as measured host performance, not modeled cycles.
//
// Execution model:
//   * Tuning::workers host threads (default: one per core, capped at the
//     node count) each own a run queue of *node activations*. A node is
//     idle, queued, or running — never two of those at once. Producers that
//     make an idle node runnable win a CAS on its `active` flag and enqueue
//     it on the worker it last ran on (affinity); a worker whose own queue
//     is dry steals a **whole node** from the back of a victim's queue.
//     Stealing whole nodes — never individual tasks — is what keeps every
//     per-node ordering guarantee intact: a node's mailbox is still drained
//     FIFO by exactly one thread at a time, so the deterministic
//     (src, seq)-sorted accumulation commit is schedule-independent.
//   * Each node keeps an MPSC mailbox (mutex + FIFO) for cross-node posts
//     and an unlocked local queue for self-posts (a node's scheduler
//     kicking itself never takes a lock). Its host drains the mailbox
//     first and goes back to it between self-posted tasks as soon as a
//     producer flags new mail, so a message waits behind at most one
//     local task, not behind all of them.
//   * send() appends a delivery task to the sending node's per-destination
//     *train* — an outbound buffer in the sending Node, written only by
//     that node's host, like its local queue. A train is handed to the
//     destination mailbox under ONE lock acquisition (deliver_train: batch
//     append, tracing, destination activation) when it reaches
//     Tuning::train_max depth, when the engine calls Backend::flush() at a
//     tile/strip boundary, or — unconditionally — before the node
//     deactivates. That last rule makes trains invisible to termination:
//     buffered messages always depart before their host worker can so much
//     as look for quiescence. The host fabric thus applies the paper's
//     aggregation idea to itself: per-message lock overhead is amortized
//     across a batch, exactly like per-message wire overhead is amortized
//     by pointer aggregation. In-process delivery stays lossless and
//     per-(src,dst) FIFO, unordered across sources — like the model.
//     Trains to nodes outside the pool (set_remote: the proc backend's
//     other processes) carry packets instead of tasks and depart, at the
//     same three points, into a RemoteSink rather than a mailbox.
//   * A held phase (start_held_phase) runs with one unit of outstanding
//     work owned by the caller, which meanwhile delivers messages from
//     outside the pool into node mailboxes and reads idle() — "only the
//     hold is outstanding" — until release_hold() lets the phase quiesce.
//     That is how a proc worker serves its peers while it computes.
//   * Phase termination is global quiescence over *sharded* counters: each
//     node owns a (produced, consumed) pair — tasks created on it vs. tasks
//     finished on it — each written only by the thread currently running
//     the node, on its own cache line. An idle worker decides "everything
//     drained" with a two-phase Dijkstra-style confirm: read every consumed
//     counter, then every produced counter; equality proves quiescence
//     (argument in the .cpp). The scan walks nodes, not workers — it is
//     oblivious to which worker hosts what.
//   * Idle workers escalate spin (cpu_pause) -> yield -> park on their own
//     condvar, so oversubscribed runs (workers >> cores) surrender the core
//     instead of burning it. Producers wake the parked owner of the queue
//     they append to; the first worker to confirm quiescence wakes everyone.
//   * Workers then meet at a sense-reversing barrier; the main thread is
//     woken through a condvar and is afterwards the only thread touching
//     runtime state until the next phase (that handoff is the
//     synchronization point for all per-node stats).
//
// Determinism argument (why stealing cannot change physics): the runtime's
// only ordering promises are per-node task FIFO and the post-quiescence
// (src, seq)-sorted accumulation commit. The `active` flag pins a node to
// at most one worker at any instant, and the handoff chain (release store
// on deactivation -> winner's CAS -> queue append under the worker mutex ->
// pop under the worker mutex) carries a happens-before edge from everything
// the previous host did to everything the next host does. So whichever
// worker runs a node sees its mailbox, local queue, trains, counters and
// stats exactly as the previous host left them — a steal is a context
// switch, not a reordering.
//
// Time: task charges still accumulate *modeled* nanoseconds, so the
// compute/runtime/comm attribution in NodeStats.busy[] keeps its meaning,
// while busy_total and finish_time are *real* nanoseconds measured around
// each drain batch (one swapped-out inbox, or the local queue run to
// empty) — idle = elapsed - busy_total is genuine wait time. One clock
// pair per batch, not per task: every task in a batch gets the batch start
// as its Cpu start. With a trace shard attached each task is also timed on
// its own, for its run span and service-time sample, and starts at its own
// clock read.
//
// Observability: attach_obs() hands the session's single-writer rings +
// histogram sets (obs::ShardedTraceSink) to attach_shards(), laid out as
// [0, nodes) for engine-recorded events (engines bind shard(node)) followed
// by [nodes, nodes + workers) for backend-recorded events — a stolen node's
// backend events land in the stealing worker's shard, while its engine
// events stay in the node's own shard (single-writer holds because a node
// runs on one worker at a time). Every event keeps the node it names; the
// shard index says only which ring holds it.
// Every instrumentation point is gated on the shard pointer, and
// DPA_TRACE=OFF folds the pointer to null at compile time so the task loop
// carries zero instrumentation cost in measurement builds. arm_watchdog()
// starts a monitor thread that sweeps the per-node quiescence counters and
// dumps a flight-recorder JSON instead of letting a wedged phase hang CI.
//
// Not supported (sim-only by design): fault injection — the fabric cannot
// lose messages, so it needs no recovery protocol.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "exec/backend.h"
#include "support/fifo.h"

namespace dpa::obs {
class ShardedTraceSink;
class TraceShard;
}  // namespace dpa::obs

namespace dpa::exec {

// Sense-reversing barrier. Each participant keeps its own sense flag
// (initially true) and passes it by pointer; the last arriver flips the
// shared sense, releasing the spinners. Reusable immediately — that is the
// point of sense reversal.
class SenseBarrier {
 public:
  explicit SenseBarrier(std::uint32_t n) : n_(n), count_(n) {}

  void arrive_and_wait(bool* my_sense);

 private:
  std::uint32_t n_;
  std::atomic<std::uint32_t> count_;
  std::atomic<bool> sense_{false};
};

class NativeBackend final : public Backend {
 public:
  // Scheduling/communication/idle policy knobs. Defaults suit both the
  // provisioned case (cores >= nodes) and oversubscription; tests shrink
  // the idle ladder to force the parking path deterministically, and the
  // schedule fuzzer perturbs every knob here to prove physics are
  // schedule-independent.
  struct Tuning {
    // Worker pool size; 0 = min(host cores, nodes). Clamped to
    // [1, num_nodes] — more workers than nodes would only ever idle.
    std::uint32_t workers = 0;
    // Flush a destination's train at this depth even if its owner is still
    // busy (bounds delivery latency when the engine never calls flush()).
    std::uint32_t train_max = 16;
    // Idle escalation: cpu_pause() this many times, then sched-yield this
    // many times, then park on the worker condvar.
    std::uint32_t idle_spins = 64;
    std::uint32_t idle_yields = 16;
    // Parked workers re-scan for quiescence at this interval as a backstop
    // (normally a producer or the quiescence detector wakes them first).
    std::uint32_t park_timeout_us = 200;
    // Whole-node stealing on/off. Off pins every node to its affinity
    // worker — useful for isolating the affinity path in tests; the
    // park-timeout backstop keeps termination live either way.
    bool steal = true;
    // Seeds the per-worker xorshift that randomizes steal-victim order
    // (the schedule fuzzer's main lever).
    std::uint64_t steal_seed = 0x9e3779b97f4a7c15ull;
  };

  explicit NativeBackend(std::uint32_t num_nodes);
  NativeBackend(std::uint32_t num_nodes, const Tuning& tuning);
  ~NativeBackend() override;

  BackendKind kind() const override { return BackendKind::kNative; }
  std::uint32_t num_nodes() const override {
    return std::uint32_t(nodes_.size());
  }
  std::uint32_t num_workers() const {
    return std::uint32_t(workers_.size());
  }

  HandlerId register_handler(std::string name, Handler fn,
                             WireCodec codec = {}) override;

  void send(Cpu& cpu, NodeId src, NodeId dst, HandlerId handler,
            std::shared_ptr<void> data, std::uint32_t bytes) override;

  void post(NodeId node, Task task) override;

  void flush(Cpu& cpu, NodeId node) override;

  Time begin_phase() override;
  PhaseExec run_phase() override;

  const NodeStats& node_stats(NodeId node) const override {
    return nodes_[node]->stats;
  }

  // --- A pool that is one process of several (the proc backend) --------
  // Departs a train of messages bound for a node outside this pool; runs
  // on the source node's host worker, with the packets in send order.
  using RemoteSink =
      std::function<void(NodeId src, NodeId dst, std::vector<Packet>& train)>;
  // Marks the nodes `remote[n]` as living outside this pool: messages to
  // them ride the sender's per-destination trains like any other and
  // leave through `sink` at the same points (train_max, flush(), before
  // the sender deactivates). Call between phases, before the first one.
  void set_remote(std::vector<bool> remote, RemoteSink sink);

  // Starts a phase while the caller holds one unit of outstanding work
  // (the "hold"), so the pool cannot quiesce until release_hold(). While
  // it holds, the caller may deliver() messages that arrived from outside.
  // Seed the phase's first tasks with post() before this call.
  void start_held_phase();
  // The holding thread only: hands a message from a remote node to dst's
  // mailbox, as a train from a local node would.
  void deliver(NodeId src, NodeId dst, HandlerId handler,
               std::shared_ptr<void> data, std::uint32_t bytes);
  // Every task posted so far has run — in a held phase, only the hold is
  // outstanding. The quiescence confirm's two-pass scan (see the .cpp).
  bool idle() const;
  // Tasks finished by this pool since construction (monotonic).
  std::uint64_t tasks_done() const;
  // Drops the hold, waits for the phase to quiesce and returns its record.
  PhaseExec release_hold();

  // Attaches session->ensure_shards(num_nodes()) (null detaches).
  void attach_obs(obs::Session* session) override;
  // Attaches a sink directly, e.g. one of custom shard capacity; it grows
  // to nodes + workers shards. Must be called between phases.
  void attach_shards(obs::ShardedTraceSink* shards);
  bool arm_watchdog(const WatchdogConfig& cfg) override;

  // True once the armed watchdog has fired (it fires at most once).
  bool watchdog_fired() const {
    return watchdog_fired_.load(std::memory_order_acquire);
  }

  // Test-only: one watchdog sweep now, exactly as the monitor thread runs
  // it; returns whether the watchdog has fired. Armed with a scan_interval
  // longer than the test, sweeps happen only here: a test that places them
  // between known counter moves checks the stuck logic without depending
  // on host timing.
  bool watchdog_sweep_for_test() { return watchdog_sweep(); }

  // Process-wide default watchdog, applied to every subsequently
  // constructed NativeBackend. Bench harnesses build their Clusters deep
  // inside app runners, so the watchdog — an operational guard, one policy
  // per process — is installed here rather than threaded through every
  // app signature.
  static void set_default_watchdog(const WatchdogConfig& cfg);

  // Process-wide default tuning, applied to every subsequently constructed
  // single-argument NativeBackend — the same plumbing rationale as the
  // default watchdog (--workers is a harness flag; Clusters are built deep
  // inside app runners).
  static void set_default_tuning(const Tuning& tuning);
  static Tuning default_tuning();

  // Test-only views of scheduler placement: the worker a node will be
  // enqueued on next, and the worker that last ran it (-1 before its first
  // run). Meaningful between phases, when only the caller is running.
  std::uint32_t affinity_of(NodeId id) const {
    return nodes_[id]->affinity.load(std::memory_order_relaxed);
  }
  std::int32_t last_worker(NodeId id) const {
    return nodes_[id]->last_worker.load(std::memory_order_relaxed);
  }

  // Test-only: wedges node `id` at the top of its drain loop (its host
  // worker blocks holding no locks) until release_test_stalls().
  // Simulates a deadlocked node for the watchdog tests.
  void test_stall_node(NodeId id);
  void release_test_stalls();

 private:
  // Padded to a cache line boundary: stats and queues are written at task
  // rate by the hosting worker; neighbors must not false-share.
  struct alignas(64) Node {
    // Cross-thread inbox (trains from other nodes' hosts, pre-phase seeding
    // from the main thread). MPSC: producers under the mutex, drained in
    // batches by the hosting worker.
    std::mutex mu;
    Fifo<Task> inbox;
    // Set by producers (under mu) whenever they append to the inbox and
    // cleared by the host when it swaps the inbox out, so the host can
    // check for mail between tasks without taking the lock.
    std::atomic<bool> has_mail{false};
    // Self-posts from the hosting worker; never locked (only the host
    // touches it, and the activation handoff orders host switches).
    Fifo<Task> local;
    // The inbox as the host last swapped it out, being drained. Host-only
    // like `local`; the two swap storage, so neither regrows.
    Fifo<Task> batch;
    // Outbound trains, one per destination node, and the messages buffered
    // across them. Host-only like `local` (main-thread posts bypass
    // trains); a departed train's vector keeps its capacity for the next.
    std::vector<std::vector<Task>> trains;
    // Trains to remote nodes (sized only once set_remote() ran): packets,
    // since they leave through the RemoteSink, not a mailbox.
    std::vector<std::vector<Packet>> wire_trains;
    std::uint32_t pending = 0;
    NodeStats stats;
    MsgStats msg;  // sent-side fields written by host, recv-side by host
    // Activation state: 0 = idle (no queued tasks anywhere... or a producer
    // is about to win the CAS), 1 = queued on some worker or running.
    // Producers CAS 0 -> 1 and enqueue on the affinity worker; the host
    // releases with the deactivation protocol in run_node(). seq_cst: the
    // idle store must be totally ordered against the post-deactivation
    // inbox recheck (see the stranded-task argument in the .cpp). Own
    // cache line: other workers CAS it, and the host writes the fields
    // above (trains, stats, msg) at message rate.
    alignas(64) std::atomic<std::uint32_t> active{0};
    // Worker this node is enqueued on when activated — updated by each
    // host, so a stolen node re-activates on its thief (locality follows
    // the cache lines).
    std::atomic<std::uint32_t> affinity{0};
    std::atomic<std::int32_t> last_worker{-1};
    // Quiescence shards. produced = tasks created on this node (plus
    // pre-phase seeds the main thread charged to it); consumed = tasks
    // finished here. Written only by the current host (single writer at a
    // time), own cache line; seq_cst so the detector's two-pass scan
    // linearizes (see quiescent()).
    alignas(64) std::atomic<std::uint64_t> produced{0};
    alignas(64) std::atomic<std::uint64_t> consumed{0};
  };

  // One scheduler lane. Padded: runq and counters are touched at activation
  // rate by the owner and occasionally by thieves/producers.
  struct alignas(64) Worker {
    // Guards runq and the parked flag (producer-notify protocol: a
    // producer that observes parked set notifies cv after enqueueing).
    std::mutex mu;
    std::deque<NodeId> runq;  // owner pops front; thieves pop back
    std::condition_variable cv;
    // Written under mu; atomic so the watchdog can report park states
    // without a happens-before edge to the owner.
    std::atomic<bool> parked{false};
    std::uint64_t rng = 1;  // owner-only xorshift state (victim order)
    // Relaxed counters: read mid-phase by the watchdog, summed post-phase
    // into PhaseExec::sched by run_phase().
    std::atomic<std::uint64_t> parks{0};
    std::atomic<std::uint64_t> steals{0};
    std::atomic<std::uint64_t> activations{0};
  };

  void worker_main(std::uint32_t w);
  void run_worker_phase(std::uint32_t w);
  // Drains node `id` to empty and deactivates it (the whole-node unit of
  // scheduling; never preempted mid-mailbox).
  void run_node(std::uint32_t w, NodeId id);
  // Runs `queue` (the swapped-out inbox, or the local queue, which the
  // tasks may append to) until it is empty, or — for the local queue —
  // until mail arrives: a message waits behind at most one self-posted
  // task. One clock pair times the whole batch for busy_total/finish_time;
  // per-task clock reads happen only with a trace shard attached (run
  // spans, task service times).
  void drain(Node& n, NodeId id, obs::TraceShard* sh, Fifo<Task>& queue,
             bool yield_to_mail);
  // Runs one task on a Cpu starting at `start`, then counts it consumed.
  void run_task(Node& n, NodeId id, Time start, const Task& task);
  // Makes `id` runnable if it is idle: CAS active 0 -> 1, enqueue on its
  // affinity worker, wake the worker if parked. Idempotent under races —
  // exactly one producer wins the CAS.
  void activate(NodeId id);
  void enqueue_node(std::uint32_t w, NodeId id);
  // Pops the front of w's own queue; -1 when empty.
  std::int32_t pop_own(std::uint32_t w);
  // One randomized sweep over the other workers' queues, stealing a whole
  // node from the back of the first non-empty one; -1 when all dry.
  std::int32_t try_steal(std::uint32_t w);
  // Worker w's trace shard (index num_nodes + w), or null (no sink
  // attached / tracing compiled out — the null fold is what dead-codes the
  // record paths).
  obs::TraceShard* worker_shard(std::uint32_t w) const;
  // Sum of produced - consumed across shards (instrumentation only; the
  // correctness-bearing scan is quiescent()).
  std::uint64_t outstanding() const;
  void watchdog_main();
  // One sweep over the per-node counters; true once the watchdog fired.
  bool watchdog_sweep();
  void watchdog_fire(const char* reason, Time elapsed, std::uint64_t epoch,
                     std::uint32_t stuck, const std::vector<bool>& node_stuck);
  // Hands `src`'s train for `dst` (if non-empty) to the destination
  // mailbox under one lock and activates the destination. Runs on src's
  // host: at train_max depth, from flush(), and before src deactivates.
  void deliver_train(NodeId src, NodeId dst);
  // Delivers every non-empty train of `src`.
  void flush_trains(NodeId src);
  // A message from `pkt.src` as a task on `pkt.dst`: counts the receipt,
  // then runs the handler.
  Task delivery(HandlerId handler, Packet pkt);
  // Publishes a new phase epoch to the workers, and waits for its end.
  void start_phase();
  PhaseExec finish_phase();
  // idle(), and no hold outstanding: the phase is over.
  bool quiescent() const;
  void wake_all_workers();
  Time since_phase_start(std::chrono::steady_clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - phase_t0_)
        .count();
  }

  Tuning tuning_;
  std::vector<std::unique_ptr<Node>> nodes_;
  std::vector<std::unique_ptr<Worker>> workers_;
  // Boxed so a delivery task can hold its handler across registrations.
  std::vector<std::unique_ptr<Handler>> handlers_;

  // Set by the first worker whose two-pass scan confirms quiescence; lets
  // the rest skip straight to the barrier (quiescence is stable within a
  // phase). Reset by begin_phase while workers are parked between phases.
  std::atomic<bool> quiesced_{false};
  // The external unit of work of a held phase (start_held_phase); while
  // set, the quiescence scan fails.
  std::atomic<bool> held_{false};

  // Nodes outside this pool and where their trains go (set_remote); empty
  // for a single-process pool.
  std::vector<bool> remote_;
  RemoteSink sink_;

  // Phase start/stop plumbing. Workers park on phase_cv_ between phases;
  // run_phase publishes a new epoch to release them and waits on done
  // acknowledgment from the barrier's last wave.
  std::mutex phase_mu_;
  std::condition_variable phase_cv_;
  std::uint64_t phase_epoch_ = 0;
  std::uint64_t done_epoch_ = 0;
  bool stop_ = false;

  SenseBarrier finish_barrier_;
  std::chrono::steady_clock::time_point phase_t0_;
  // Accumulated wall-clock across completed phases: the backend's
  // monotonically increasing "now", used only for phase bracketing.
  Time clock_ns_ = 0;

  // Trace rings (null = tracing off): node shards [0, nodes) are written
  // by engines, worker shards [nodes, nodes + workers) by the backend.
  // Written under phase_mu_ between phases; workers observe it through the
  // epoch publish, the watchdog reads it under phase_mu_.
  obs::ShardedTraceSink* shards_ = nullptr;

  // Stall watchdog: a monitor thread sweeping the quiescence counters.
  struct WatchdogState {
    WatchdogConfig cfg;
    std::mutex mu;
    std::condition_variable cv;
    bool stop = false;
    std::thread thread;
    // Sweep state, under sweep_mu (the monitor thread and test-driven
    // sweeps may both run one).
    std::mutex sweep_mu;
    std::uint64_t watched_epoch = 0;
    std::uint32_t stuck = 0;
    std::vector<std::uint64_t> last_produced;
    std::vector<std::uint64_t> last_consumed;
    std::vector<bool> node_stuck;
  };
  std::unique_ptr<WatchdogState> watchdog_;
  std::atomic<bool> watchdog_fired_{false};

  // Test-only stall hooks (see test_stall_node). The stalled worker waits
  // on stall_cv_ holding no backend locks, so the watchdog can inspect
  // everything while it is wedged.
  std::atomic<std::int32_t> stall_node_{-1};
  std::mutex stall_mu_;
  std::condition_variable stall_cv_;
  bool stall_released_ = false;

  std::vector<std::thread> threads_;
};

// Scoped process-wide default tuning: installs `tuning` for its lifetime
// and restores the previous default on destruction. The schedule fuzzer
// and the --workers determinism grid wrap each configuration in one of
// these so app runners (which construct their own Clusters) pick it up.
class ScopedDefaultTuning {
 public:
  explicit ScopedDefaultTuning(const NativeBackend::Tuning& tuning)
      : saved_(NativeBackend::default_tuning()) {
    NativeBackend::set_default_tuning(tuning);
  }
  ~ScopedDefaultTuning() { NativeBackend::set_default_tuning(saved_); }

  ScopedDefaultTuning(const ScopedDefaultTuning&) = delete;
  ScopedDefaultTuning& operator=(const ScopedDefaultTuning&) = delete;

 private:
  NativeBackend::Tuning saved_;
};

}  // namespace dpa::exec
