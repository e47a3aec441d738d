#include "exec/native_backend.h"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "obs/flight_recorder.h"
#include "obs/session.h"
#include "support/assert.h"
#include "support/parallel.h"

namespace dpa::exec {

namespace {

// Process-wide defaults, copied into every NativeBackend at construction
// (see set_default_watchdog / set_default_tuning).
std::mutex g_defaults_mu;
WatchdogConfig g_default_watchdog;
NativeBackend::Tuning g_default_tuning;

// The node the current thread is executing a task for (-1 outside
// run_node, including on the main thread). Lets post() skip the mailbox
// lock for self-posts and route cross-node work through the node's trains.
thread_local std::int32_t tls_node = -1;
// The worker lane this thread is (-1 on the main thread and the watchdog):
// names the trace shard backend events record into.
thread_local std::int32_t tls_worker = -1;

inline void cpu_pause() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

// splitmix64: decorrelates per-worker RNG streams from one seed.
inline std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

std::uint32_t resolve_workers(const NativeBackend::Tuning& t,
                              std::uint32_t num_nodes) {
  std::uint32_t w = t.workers != 0
                        ? t.workers
                        : std::uint32_t(dpa::host_concurrency());
  if (w < 1) w = 1;
  // More workers than nodes would only ever idle: a node is the scheduling
  // unit, and at most num_nodes of them can be active at once.
  return std::min(w, num_nodes);
}

}  // namespace

void SenseBarrier::arrive_and_wait(bool* my_sense) {
  const bool sense = *my_sense;
  if (count_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    count_.store(n_, std::memory_order_relaxed);
    sense_.store(sense, std::memory_order_release);
  } else {
    int spins = 0;
    while (sense_.load(std::memory_order_acquire) != sense) {
      if (++spins < 1024) {
        cpu_pause();
      } else {
        std::this_thread::yield();
      }
    }
  }
  *my_sense = !sense;
}

NativeBackend::NativeBackend(std::uint32_t num_nodes)
    : NativeBackend(num_nodes, default_tuning()) {}

NativeBackend::NativeBackend(std::uint32_t num_nodes, const Tuning& tuning)
    : tuning_(tuning),
      finish_barrier_(resolve_workers(tuning, num_nodes)) {
  DPA_CHECK(num_nodes > 0);
  DPA_CHECK(tuning_.train_max > 0);
  const std::uint32_t num_workers = resolve_workers(tuning_, num_nodes);
  nodes_.reserve(num_nodes);
  for (std::uint32_t i = 0; i < num_nodes; ++i) {
    nodes_.push_back(std::make_unique<Node>());
    nodes_.back()->trains.resize(num_nodes);
    // Initial placement: round-robin. Re-activation follows last_worker
    // from then on, so steady-state placement is steal-driven.
    nodes_.back()->affinity.store(i % num_workers, std::memory_order_relaxed);
  }
  workers_.reserve(num_workers);
  for (std::uint32_t w = 0; w < num_workers; ++w) {
    workers_.push_back(std::make_unique<Worker>());
    // Never zero (xorshift's fixed point); decorrelated across workers so
    // two thieves scanning at once fan out over different victims.
    workers_.back()->rng = mix64(tuning_.steal_seed + w) | 1u;
  }
  threads_.reserve(num_workers);
  for (std::uint32_t w = 0; w < num_workers; ++w)
    threads_.emplace_back([this, w] { worker_main(w); });
  WatchdogConfig default_cfg;
  {
    std::lock_guard<std::mutex> lk(g_defaults_mu);
    default_cfg = g_default_watchdog;
  }
  if (default_cfg.enabled()) arm_watchdog(default_cfg);
}

NativeBackend::~NativeBackend() {
  // The watchdog references node state; retire it before the workers.
  if (watchdog_ != nullptr) {
    {
      std::lock_guard<std::mutex> lk(watchdog_->mu);
      watchdog_->stop = true;
    }
    watchdog_->cv.notify_all();
    watchdog_->thread.join();
  }
  {
    std::lock_guard<std::mutex> lk(phase_mu_);
    stop_ = true;
  }
  phase_cv_.notify_all();
  for (auto& t : threads_) t.join();
}

void NativeBackend::set_default_watchdog(const WatchdogConfig& cfg) {
  std::lock_guard<std::mutex> lk(g_defaults_mu);
  g_default_watchdog = cfg;
}

void NativeBackend::set_default_tuning(const Tuning& tuning) {
  std::lock_guard<std::mutex> lk(g_defaults_mu);
  g_default_tuning = tuning;
}

NativeBackend::Tuning NativeBackend::default_tuning() {
  std::lock_guard<std::mutex> lk(g_defaults_mu);
  return g_default_tuning;
}

void NativeBackend::attach_obs(obs::Session* session) {
  attach_shards(session != nullptr ? session->ensure_shards(num_nodes())
                                   : nullptr);
}

void NativeBackend::attach_shards(obs::ShardedTraceSink* shards) {
  if (!obs::kTraceEnabled) shards = nullptr;  // OFF builds never attach
  if (shards != nullptr) {
    // Sessions size the sink for the node shards (engines bind those);
    // append the worker shards backend events record into.
    shards->grow(num_nodes() + num_workers());
  }
  // Under phase_mu_: workers observe the pointer through the next epoch
  // publish, the watchdog reads it under the same mutex.
  std::lock_guard<std::mutex> lk(phase_mu_);
  shards_ = shards;
}

obs::TraceShard* NativeBackend::worker_shard(std::uint32_t w) const {
  if constexpr (!obs::kTraceEnabled) return nullptr;
  return shards_ != nullptr ? &shards_->shard(num_nodes() + w) : nullptr;
}

bool NativeBackend::arm_watchdog(const WatchdogConfig& cfg) {
  if (!cfg.enabled()) return true;
  DPA_CHECK(watchdog_ == nullptr) << "watchdog already armed";
  DPA_CHECK(cfg.scan_interval > 0);
  watchdog_ = std::make_unique<WatchdogState>();
  watchdog_->cfg = cfg;
  watchdog_->last_produced.assign(nodes_.size(), 0);
  watchdog_->last_consumed.assign(nodes_.size(), 0);
  watchdog_->node_stuck.assign(nodes_.size(), false);
  watchdog_->thread = std::thread([this] { watchdog_main(); });
  return true;
}

void NativeBackend::test_stall_node(NodeId id) {
  std::lock_guard<std::mutex> lk(stall_mu_);
  stall_released_ = false;
  stall_node_.store(std::int32_t(id), std::memory_order_release);
}

void NativeBackend::release_test_stalls() {
  {
    std::lock_guard<std::mutex> lk(stall_mu_);
    stall_released_ = true;
    stall_node_.store(-1, std::memory_order_release);
  }
  stall_cv_.notify_all();
}

HandlerId NativeBackend::register_handler(std::string /*name*/, Handler fn,
                                          WireCodec /*codec*/) {
  // Registration happens between phases (the main thread is the only one
  // running); workers observe the table through the next epoch publish.
  DPA_CHECK(handlers_.size() < 0xffff) << "handler table full";
  handlers_.push_back(std::make_unique<Handler>(std::move(fn)));
  return HandlerId(handlers_.size() - 1);
}

void NativeBackend::activate(NodeId id) {
  Node& n = *nodes_[id];
  std::uint32_t expected = 0;
  // seq_cst pairs with the deactivation protocol in run_node: the winner's
  // CAS is ordered after the host's idle store, so exactly one thread owns
  // the enqueue. Losers are done — the node is already queued or running,
  // and the eventual host drains the mailbox they just appended to.
  if (!n.active.compare_exchange_strong(expected, 1,
                                        std::memory_order_seq_cst))
    return;
  enqueue_node(n.affinity.load(std::memory_order_relaxed), id);
}

void NativeBackend::enqueue_node(std::uint32_t w, NodeId id) {
  Worker& wk = *workers_[w];
  bool wake;
  {
    std::lock_guard<std::mutex> lk(wk.mu);
    wk.runq.push_back(id);
    wake = wk.parked.load(std::memory_order_relaxed);
  }
  wk.activations.fetch_add(1, std::memory_order_relaxed);
  if (wake) wk.cv.notify_one();
}

std::int32_t NativeBackend::pop_own(std::uint32_t w) {
  Worker& wk = *workers_[w];
  std::lock_guard<std::mutex> lk(wk.mu);
  if (wk.runq.empty()) return -1;
  const NodeId id = wk.runq.front();
  wk.runq.pop_front();
  return std::int32_t(id);
}

std::int32_t NativeBackend::try_steal(std::uint32_t w) {
  const std::uint32_t num_workers = std::uint32_t(workers_.size());
  if (num_workers <= 1) return -1;
  Worker& self = *workers_[w];
  // xorshift64 over the victim ring: one sweep per call, starting at a
  // seeded-random offset so concurrent thieves fan out. Stealing from the
  // BACK takes the node the victim would reach last — the one whose cache
  // lines the victim is least likely to still own.
  std::uint64_t x = self.rng;
  x ^= x << 13;
  x ^= x >> 7;
  x ^= x << 17;
  self.rng = x;
  const std::uint32_t start = std::uint32_t(x % (num_workers - 1));
  for (std::uint32_t k = 0; k < num_workers - 1; ++k) {
    const std::uint32_t v =
        (w + 1 + (start + k) % (num_workers - 1)) % num_workers;
    Worker& vic = *workers_[v];
    std::int32_t got = -1;
    {
      std::lock_guard<std::mutex> lk(vic.mu);
      if (!vic.runq.empty()) {
        got = std::int32_t(vic.runq.back());
        vic.runq.pop_back();
      }
    }
    if (got >= 0) {
      self.steals.fetch_add(1, std::memory_order_relaxed);
      if (obs::TraceShard* const sh = worker_shard(w); sh != nullptr)
        sh->instant(obs::Ev::kSteal, NodeId(got),
                    since_phase_start(std::chrono::steady_clock::now()), v);
      return got;
    }
  }
  return -1;
}

void NativeBackend::deliver_train(NodeId src, NodeId dst) {
  Node& sn = *nodes_[src];
  if (!remote_.empty() && remote_[dst]) {
    std::vector<Packet>& wire = sn.wire_trains[dst];
    if (wire.empty()) return;
    DPA_DCHECK(sn.pending >= wire.size());
    sn.pending -= std::uint32_t(wire.size());
    ++sn.msg.trains_sent;
    sink_(src, dst, wire);
    wire.clear();
    return;
  }
  std::vector<Task>& batch = sn.trains[dst];
  if (batch.empty()) return;
  DPA_DCHECK(sn.pending >= batch.size());
  sn.pending -= std::uint32_t(batch.size());
  ++sn.msg.trains_sent;
  Node& dn = *nodes_[dst];
  // Trains depart only on the source's hosting worker, so tls_worker names
  // the shard.
  obs::TraceShard* const sh =
      tls_worker >= 0 ? worker_shard(std::uint32_t(tls_worker)) : nullptr;
  const std::uint64_t depth = batch.size();
  Time w0 = 0, w1 = 0;
  std::size_t inbox_depth = 0;
  if (sh != nullptr) w0 = since_phase_start(std::chrono::steady_clock::now());
  {
    std::lock_guard<std::mutex> lk(dn.mu);
    if (sh != nullptr) {
      w1 = since_phase_start(std::chrono::steady_clock::now());
      inbox_depth = dn.inbox.size() + batch.size();
    }
    for (auto& t : batch) dn.inbox.push(std::move(t));
    dn.has_mail.store(true, std::memory_order_relaxed);
  }
  batch.clear();
  // After the mailbox append: the destination's host (whoever wins the
  // activation) is guaranteed to see the batch.
  activate(dst);
  if (sh != nullptr) {
    sh->span(obs::Ev::kMailboxWait, src, w0, w1, 0, dst);
    obs::TraceEvent flush_ev;
    flush_ev.kind = obs::Ev::kTrainFlush;
    flush_ev.node = src;
    flush_ev.peer = dst;
    flush_ev.at = w1;
    flush_ev.arg = depth;
    sh->record(flush_ev);
    sh->profile.mailbox_wait_ns.add(std::uint64_t(w1 - w0));
    sh->profile.train_occupancy.add(depth);
    sh->profile.queue_depth.add(inbox_depth);
  }
}

void NativeBackend::flush_trains(NodeId src) {
  Node& n = *nodes_[src];
  if (n.pending == 0) return;
  for (NodeId d = 0; d < NodeId(n.trains.size()); ++d) deliver_train(src, d);
  DPA_DCHECK(n.pending == 0);
}

void NativeBackend::post(NodeId node, Task task) {
  DPA_DCHECK(node < nodes_.size());
  // The produced-shard bump must land strictly before the task becomes
  // runnable anywhere: a scan that misses the task's consumption must also
  // account it as produced. Tasks buffered in a train count as produced —
  // that is what keeps the phase alive until their owner flushes them.
  if (tls_node >= 0) {
    Node& self = *nodes_[tls_node];
    self.produced.fetch_add(1, std::memory_order_seq_cst);
    if (tls_node == std::int32_t(node)) {
      // Self-post: the node is active (we are inside one of its tasks), so
      // no activation is needed — run_node drains local before it can even
      // consider deactivating.
      self.local.push(std::move(task));
      return;
    }
    std::vector<Task>& train = self.trains[node];
    train.push_back(std::move(task));
    ++self.pending;
    if (train.size() >= tuning_.train_max)
      deliver_train(NodeId(tls_node), node);
    return;
  }
  // Main thread: pre-phase seeding, or a held phase's delivery from
  // outside the pool. Counted on the destination's shard. Before a phase
  // its workers are parked (the epoch publish orders these writes before
  // the phase releases); during a held phase the increment is an atomic
  // read-modify-write beside the host's own, and the hold keeps the
  // quiescence scan failing for as long as such posts can happen.
  Node& dn = *nodes_[node];
  dn.produced.fetch_add(1, std::memory_order_seq_cst);
  {
    std::lock_guard<std::mutex> lk(dn.mu);
    dn.inbox.push(std::move(task));
    dn.has_mail.store(true, std::memory_order_relaxed);
  }
  activate(node);
}

Task NativeBackend::delivery(HandlerId handler, Packet pkt) {
  DPA_DCHECK(handler < handlers_.size());
  const Handler* fn = handlers_[handler].get();
  Node* dn = nodes_[pkt.dst].get();
  return [fn, dn, pkt = std::move(pkt)](Cpu& task_cpu) {
    ++dn->msg.msgs_recv;
    dn->msg.bytes_recv += pkt.bytes;
    (*fn)(task_cpu, pkt);
  };
}

void NativeBackend::send(Cpu& cpu, NodeId src, NodeId dst, HandlerId handler,
                         std::shared_ptr<void> data, std::uint32_t bytes) {
  (void)cpu;  // the real send cost is measured, not charged
  DPA_DCHECK(handler < handlers_.size());
  Node& sn = *nodes_[src];
  ++sn.msg.msgs_sent;
  ++sn.msg.frags_sent;  // no MTU segmentation in-process
  sn.msg.bytes_sent += bytes;

  Packet pkt{src, dst, handler, bytes, std::move(data)};
  if (!remote_.empty() && remote_[dst]) {
    // Bound for another process: the packet itself rides the train, for
    // the sink to marshal when the train departs.
    std::vector<Packet>& train = sn.wire_trains[dst];
    train.push_back(std::move(pkt));
    ++sn.pending;
    if (train.size() >= tuning_.train_max) deliver_train(src, dst);
    return;
  }
  post(dst, delivery(handler, std::move(pkt)));
}

void NativeBackend::set_remote(std::vector<bool> remote, RemoteSink sink) {
  DPA_CHECK(remote.size() == nodes_.size() && sink != nullptr);
  remote_ = std::move(remote);
  sink_ = std::move(sink);
  for (auto& n : nodes_) n->wire_trains.resize(nodes_.size());
}

void NativeBackend::deliver(NodeId src, NodeId dst, HandlerId handler,
                            std::shared_ptr<void> data, std::uint32_t bytes) {
  DPA_DCHECK(tls_node < 0) << "deliver() runs outside the pool";
  DPA_DCHECK(held_.load(std::memory_order_relaxed));
  DPA_DCHECK(remote_.empty() || !remote_[dst]);
  post(dst, delivery(handler, Packet{src, dst, handler, bytes,
                                     std::move(data)}));
}

void NativeBackend::flush(Cpu& cpu, NodeId node) {
  (void)cpu;  // lock handoff cost is measured, not charged
  DPA_DCHECK(node < nodes_.size());
  DPA_DCHECK(tls_node == std::int32_t(node))
      << "Backend::flush must run on the node it flushes";
  flush_trains(node);
}

Time NativeBackend::begin_phase() {
  DPA_CHECK(quiescent()) << "begin_phase with tasks still outstanding";
  quiesced_.store(false, std::memory_order_relaxed);
  for (NodeId i = 0; i < NodeId(nodes_.size()); ++i) {
    Node* n = nodes_[i].get();
    n->stats.reset();
    n->msg.reset();
    DPA_CHECK(n->inbox.empty() && n->local.empty() && n->pending == 0);
    DPA_CHECK(n->active.load(std::memory_order_relaxed) == 0)
        << "begin_phase with a node still queued";
  }
  for (auto& w : workers_) {
    DPA_CHECK(w->runq.empty());
    w->parks.store(0, std::memory_order_relaxed);
    w->steals.store(0, std::memory_order_relaxed);
    w->activations.store(0, std::memory_order_relaxed);
  }
  // Shard timestamps are phase-relative at the record site; anchoring them
  // to the accumulated clock keeps multi-phase traces monotone against the
  // main-thread tracer's phase markers.
  if (shards_ != nullptr) shards_->set_base(clock_ns_);
  return clock_ns_;
}

PhaseExec NativeBackend::run_phase() {
  start_phase();
  return finish_phase();
}

void NativeBackend::start_held_phase() {
  held_.store(true, std::memory_order_seq_cst);
  start_phase();
}

PhaseExec NativeBackend::release_hold() {
  // After this store nothing outside the pool posts again. If the pool
  // has already drained, its workers are parked on a scan the hold
  // failed: confirm quiescence for them, as a worker's scan would, and
  // wake them to the barrier.
  held_.store(false, std::memory_order_seq_cst);
  if (quiescent()) quiesced_.store(true, std::memory_order_release);
  wake_all_workers();
  return finish_phase();
}

void NativeBackend::start_phase() {
  phase_t0_ = std::chrono::steady_clock::now();
  {
    std::lock_guard<std::mutex> lk(phase_mu_);
    ++phase_epoch_;
  }
  phase_cv_.notify_all();
}

PhaseExec NativeBackend::finish_phase() {
  {
    std::unique_lock<std::mutex> lk(phase_mu_);
    phase_cv_.wait(lk, [this] { return done_epoch_ == phase_epoch_; });
  }
  PhaseExec out;
  out.elapsed = since_phase_start(std::chrono::steady_clock::now());
  for (const auto& n : nodes_) {
    out.events += n->stats.tasks_run;
    out.msgs += n->msg;
  }
  for (const auto& w : workers_)
    out.sched += SchedStats{w->parks.load(std::memory_order_relaxed),
                            w->steals.load(std::memory_order_relaxed),
                            w->activations.load(std::memory_order_relaxed)};
  clock_ns_ += out.elapsed;
  out.epilogues = run_epilogues();
  return out;
}

void NativeBackend::worker_main(std::uint32_t w) {
  tls_worker = std::int32_t(w);
  bool barrier_sense = true;
  std::uint64_t epoch = 0;
  for (;;) {
    {
      std::unique_lock<std::mutex> lk(phase_mu_);
      phase_cv_.wait(lk, [&] { return stop_ || phase_epoch_ > epoch; });
      if (stop_) return;
      epoch = phase_epoch_;
    }
    run_worker_phase(w);
    // Quiescent: every worker independently confirms (or reads quiesced_)
    // and arrives here. The barrier's acquire/release chain makes all
    // pre-barrier writes visible to worker 0, which signals the main
    // thread.
    finish_barrier_.arrive_and_wait(&barrier_sense);
    if (w == 0) {
      {
        std::lock_guard<std::mutex> lk(phase_mu_);
        done_epoch_ = epoch;
      }
      phase_cv_.notify_all();
    }
  }
}

// Two-phase (Dijkstra-style confirm) quiescence scan: read every consumed
// counter, then every produced counter, all seq_cst. Why equality proves
// quiescence: all these operations share one total order S (they are
// seq_cst), and both counters only grow. Pick the instant t0 in S between
// the last consumed-load and the first produced-load. Every consumed value
// read was written before t0, so C <= sum(consumed at t0); every produced
// load reads the latest write before it in S, so P >= sum(produced at t0).
// A task's produce precedes its consume, hence sum(produced at t0) >=
// sum(consumed at t0) >= C. If P == C the chain collapses: at t0 every
// produced task was consumed — nothing queued, nothing in a train, nothing
// running (a running task is consumed only after it returns). Quiescence is
// stable within a phase (only running tasks produce; the main thread seeds
// only before run_phase), so "quiescent at t0" means quiescent for good.
//
// The scan walks nodes, not workers — which worker hosts a node is
// irrelevant, so stealing cannot perturb the proof. A corollary worth
// stating: quiescence implies every run queue is empty, because a queued
// activation exists only while its node has an unconsumed task (the
// producer that won the CAS had already bumped `produced`).
//
// A held phase adds one producer outside the pool (deliver()), and the
// hold is its one outstanding unit of work. quiescent() reads the hold
// before the consumed pass, as if it were one more consumed counter: a
// scan that sees it released comes after every external post in the
// total order (the holder posts only before it releases), so the argument
// above applies unchanged; a scan that sees it held fails.
bool NativeBackend::quiescent() const {
  return !held_.load(std::memory_order_seq_cst) && idle();
}

std::uint64_t NativeBackend::tasks_done() const {
  std::uint64_t consumed = 0;
  for (const auto& n : nodes_)
    consumed += n->consumed.load(std::memory_order_seq_cst);
  return consumed;
}

bool NativeBackend::idle() const {
  std::uint64_t consumed = 0;
  for (const auto& n : nodes_)
    consumed += n->consumed.load(std::memory_order_seq_cst);
  std::uint64_t produced = 0;
  for (const auto& n : nodes_)
    produced += n->produced.load(std::memory_order_seq_cst);
  return produced == consumed;
}

std::uint64_t NativeBackend::outstanding() const {
  std::uint64_t produced = 0, consumed = 0;
  for (const auto& n : nodes_) {
    consumed += n->consumed.load(std::memory_order_seq_cst);
    produced += n->produced.load(std::memory_order_seq_cst);
  }
  return produced > consumed ? produced - consumed : 0;
}

void NativeBackend::watchdog_main() {
  for (;;) {
    {
      std::unique_lock<std::mutex> lk(watchdog_->mu);
      watchdog_->cv.wait_for(
          lk, std::chrono::nanoseconds(watchdog_->cfg.scan_interval),
          [this] { return watchdog_->stop; });
      if (watchdog_->stop) return;
    }
    if (watchdog_sweep()) return;
  }
}

bool NativeBackend::watchdog_sweep() {
  WatchdogState& wd = *watchdog_;
  const WatchdogConfig& cfg = wd.cfg;
  std::lock_guard<std::mutex> sweep_lk(wd.sweep_mu);
  if (watchdog_fired()) return true;
  // Per-NODE progress tracking. With whole-node stealing a node's work
  // migrates between workers mid-phase, so any thread-keyed notion of
  // progress ("is the original host still running?") would flag a healthy
  // phase whose first host parked while a thief drains the node. Node
  // counters are placement-oblivious: a sweep counts as progress when any
  // node's (produced, consumed) pair moved, no matter which worker moved
  // it. The residue also names the stuck nodes in the flight record.
  std::uint64_t epoch;
  bool active;
  std::chrono::steady_clock::time_point t0;
  {
    // phase_mu_ orders this read against run_phase's epoch publish: an
    // active epoch implies phase_t0_ and shards_ are visible here too.
    std::lock_guard<std::mutex> lk(phase_mu_);
    epoch = phase_epoch_;
    active = phase_epoch_ != done_epoch_ && !stop_;
    t0 = phase_t0_;
  }
  if (!active) {
    wd.stuck = 0;
    wd.watched_epoch = 0;
    return false;
  }
  if (epoch != wd.watched_epoch) {
    wd.watched_epoch = epoch;
    wd.stuck = 0;
    std::fill(wd.last_produced.begin(), wd.last_produced.end(), 0);
    std::fill(wd.last_consumed.begin(), wd.last_consumed.end(), 0);
  }
  bool progress = false;
  std::uint64_t produced = 0, consumed = 0;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    const std::uint64_t c = nodes_[i]->consumed.load(std::memory_order_seq_cst);
    const std::uint64_t p = nodes_[i]->produced.load(std::memory_order_seq_cst);
    const bool moved = p != wd.last_produced[i] || c != wd.last_consumed[i];
    progress |= moved;
    wd.node_stuck[i] = !moved && p != c;
    wd.last_produced[i] = p;
    wd.last_consumed[i] = c;
    produced += p;
    consumed += c;
  }
  // Drained (or about to finish): healthy. A held phase whose pool has
  // run everything it was given waits here too — the hold is not a
  // node's task, so it never reads as stuck.
  if (produced == consumed) {
    wd.stuck = 0;
    return false;
  }
  wd.stuck = progress ? 0 : wd.stuck + 1;
  const Time elapsed = std::chrono::duration_cast<std::chrono::nanoseconds>(
                           std::chrono::steady_clock::now() - t0)
                           .count();
  if (cfg.phase_deadline > 0 && elapsed > cfg.phase_deadline) {
    watchdog_fire("phase deadline exceeded", elapsed, epoch, wd.stuck,
                  wd.node_stuck);
    return true;
  }
  if (cfg.stuck_scans > 0 && wd.stuck >= cfg.stuck_scans) {
    watchdog_fire("quiescence counters made no progress", elapsed, epoch,
                  wd.stuck, wd.node_stuck);
    return true;
  }
  return false;
}

void NativeBackend::watchdog_fire(const char* reason, Time elapsed,
                                  std::uint64_t epoch, std::uint32_t stuck,
                                  const std::vector<bool>& node_stuck) {
  const WatchdogConfig& cfg = watchdog_->cfg;
  obs::FlightRecord rec;
  rec.reason = reason;
  rec.elapsed = elapsed;
  rec.phase_epoch = epoch;
  rec.stuck_scans = stuck;
  rec.nodes.resize(nodes_.size());
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    Node& n = *nodes_[i];
    auto& st = rec.nodes[i];
    st.produced = n.produced.load(std::memory_order_seq_cst);
    st.consumed = n.consumed.load(std::memory_order_seq_cst);
    st.active = n.active.load(std::memory_order_relaxed) != 0;
    st.stuck = node_stuck[i];
    std::lock_guard<std::mutex> lk(n.mu);
    st.inbox_depth = n.inbox.size();
  }
  rec.workers.resize(workers_.size());
  for (std::size_t w = 0; w < workers_.size(); ++w) {
    Worker& wk = *workers_[w];
    auto& st = rec.workers[w];
    st.parked = wk.parked.load(std::memory_order_relaxed);
    st.parks = wk.parks.load(std::memory_order_relaxed);
    st.steals = wk.steals.load(std::memory_order_relaxed);
    std::lock_guard<std::mutex> lk(wk.mu);
    st.runq_depth = wk.runq.size();
  }
  obs::ShardedTraceSink* shards;
  {
    std::lock_guard<std::mutex> lk(phase_mu_);
    shards = shards_;
  }
  // The session registry is only mutated between phases (pre-phase writes
  // happen-before the epoch publish we observed under phase_mu_), so a
  // mid-phase snapshot is both safe and current.
  const obs::MetricsRegistry* metrics =
      shards != nullptr ? shards->metrics : nullptr;
  std::fprintf(stderr,
               "dpa watchdog: %s after %.1f ms (phase epoch %llu, %u "
               "no-progress sweeps, %llu tasks outstanding)\n",
               reason, double(elapsed) / 1e6, (unsigned long long)epoch,
               stuck, (unsigned long long)outstanding());
  if (!cfg.dump_path.empty()) {
    if (obs::write_flight_record(rec, shards, metrics, cfg.dump_path))
      std::fprintf(stderr, "dpa watchdog: flight record written to %s\n",
                   cfg.dump_path.c_str());
    else
      std::fprintf(stderr, "dpa watchdog: cannot write flight record %s\n",
                   cfg.dump_path.c_str());
  }
  watchdog_fired_.store(true, std::memory_order_release);
  if (cfg.fatal)
    DPA_PANIC("watchdog: " << reason << " — dying loudly instead of hanging "
              << "(flight record: "
              << (cfg.dump_path.empty() ? "<none>" : cfg.dump_path) << ")");
}

void NativeBackend::wake_all_workers() {
  for (auto& w : workers_) {
    bool wake;
    {
      std::lock_guard<std::mutex> lk(w->mu);
      wake = w->parked.load(std::memory_order_relaxed);
    }
    if (wake) w->cv.notify_all();
  }
}

void NativeBackend::run_worker_phase(std::uint32_t w) {
  Worker& wk = *workers_[w];
  obs::TraceShard* const sh = worker_shard(w);
  std::uint32_t idle = 0;
  // Parked-spell coalescing: consecutive timed-out re-parks record ONE
  // kPark span (start of the first park -> final unpark), not one per
  // wait_for cycle. Besides keeping the ring from flooding at the park
  // timeout rate, this makes a stalled-but-parked machine record nothing,
  // so the watchdog's flight-recorder snapshot reads quiescent rings.
  Time park_start = -1;
  const auto end_park_spell = [&](obs::UnparkCause cause) {
    if (sh == nullptr || park_start < 0) return;
    const Time t = since_phase_start(std::chrono::steady_clock::now());
    sh->span(obs::Ev::kPark, w, park_start, t, std::uint64_t(cause));
    sh->profile.park_ns.add(std::uint64_t(t - park_start));
    park_start = -1;
  };
  for (;;) {
    std::int32_t id = pop_own(w);
    if (id < 0 && tuning_.steal) id = try_steal(w);
    if (id >= 0) {
      end_park_spell(obs::UnparkCause::kWork);
      idle = 0;
      run_node(w, NodeId(id));
      continue;
    }
    // No runnable node anywhere we can see. Check for phase end before
    // climbing the idle ladder.
    if (quiesced_.load(std::memory_order_acquire)) {
      end_park_spell(obs::UnparkCause::kQuiesced);
      return;
    }
    if (quiescent()) {
      if (sh != nullptr)
        sh->instant(obs::Ev::kQuiesceScan, w,
                    since_phase_start(std::chrono::steady_clock::now()), 0);
      quiesced_.store(true, std::memory_order_release);
      wake_all_workers();
      end_park_spell(obs::UnparkCause::kQuiesced);
      return;
    }
    // Idle escalation: spin briefly (work usually arrives within the spin
    // window when workers have their own cores), then share the core, then
    // surrender it. Parking is what keeps oversubscribed runs (workers >>
    // cores) from burning whole scheduler quanta in yield loops.
    ++idle;
    if (idle <= tuning_.idle_spins) {
      cpu_pause();
      continue;
    }
    if (idle == tuning_.idle_spins + 1 && sh != nullptr) {
      // One instant pair per dry spell (at the spin->yield transition),
      // not per scan pass — idle workers rescan thousands of times per
      // second and must leave the ring quiescent while they wait.
      const Time t = since_phase_start(std::chrono::steady_clock::now());
      sh->instant(obs::Ev::kIdleYield, w, t);
      sh->instant(obs::Ev::kQuiesceScan, w, t, outstanding());
    }
    if (idle <= tuning_.idle_spins + tuning_.idle_yields) {
      std::this_thread::yield();
      continue;
    }
    {
      std::unique_lock<std::mutex> lk(wk.mu);
      if (!wk.runq.empty()) continue;  // lost the race with a producer
      // Checked under mu: the detector sets quiesced_ before taking mu to
      // read `parked`, so either we see the flag here or it sees us parked
      // and notifies. No sleep-through-the-end window. The timeout backstop
      // also re-runs the steal sweep, so a thief that parked just as its
      // victim received work cannot oversleep a backlog.
      if (quiesced_.load(std::memory_order_acquire)) {
        lk.unlock();
        end_park_spell(obs::UnparkCause::kQuiesced);
        return;
      }
      if (sh != nullptr && park_start < 0)
        park_start = since_phase_start(std::chrono::steady_clock::now());
      wk.parked.store(true, std::memory_order_relaxed);
      wk.parks.fetch_add(1, std::memory_order_relaxed);
      wk.cv.wait_for(lk, std::chrono::microseconds(tuning_.park_timeout_us));
      wk.parked.store(false, std::memory_order_relaxed);
    }
    // Woken (or timed out): rescan from the top. `idle` stays above the
    // spin window so a fruitless wake re-parks after one scan instead of
    // re-climbing the ladder; real work resets it via the pop above.
    idle = tuning_.idle_spins + tuning_.idle_yields;
  }
}

void NativeBackend::run_node(std::uint32_t w, NodeId id) {
  Node& n = *nodes_[id];
  // Placement bookkeeping before any draining: after the deactivation
  // store another worker may host the node, and only the current host may
  // write these. Affinity follows the host, so a stolen node re-activates
  // on its thief.
  n.affinity.store(w, std::memory_order_relaxed);
  n.last_worker.store(std::int32_t(w), std::memory_order_relaxed);
  tls_node = std::int32_t(id);
  obs::TraceShard* const sh = worker_shard(w);
  Fifo<Task>& batch = n.batch;
  for (;;) {
    if (stall_node_.load(std::memory_order_acquire) == std::int32_t(id)) {
      // Test-only wedge: block (holding no backend locks) until released.
      // The node stays active the whole time — exactly what a task stuck
      // in an infinite loop looks like to the watchdog.
      std::unique_lock<std::mutex> lk(stall_mu_);
      stall_cv_.wait(lk, [this] { return stall_released_; });
    }
    bool ran = false;
    // The flag spares the lock when no mail came; the deactivation recheck
    // below reads the inbox itself, so a stale flag delays mail but never
    // strands it.
    if (n.has_mail.load(std::memory_order_acquire)) {
      std::lock_guard<std::mutex> lk(n.mu);
      batch.swap(n.inbox);
      n.has_mail.store(false, std::memory_order_relaxed);
    }
    if (sh != nullptr && !batch.empty())
      sh->instant(obs::Ev::kWorkerDrain, id,
                  since_phase_start(std::chrono::steady_clock::now()),
                  batch.size());
    // Incoming messages first, then self-posted scheduler work, back to
    // the inbox as soon as mail arrives — the same "yield to the inbox"
    // policy the simulator's node processor has.
    if (!batch.empty()) {
      drain(n, id, sh, batch, false);
      ran = true;
    }
    if (!n.local.empty()) {
      drain(n, id, sh, n.local, true);
      ran = true;
    }
    if (ran) continue;  // our own tasks may have posted more to us
    // Dry. Push any buffered outbound trains — the implicit flush point
    // that makes termination independent of the engine calling
    // Backend::flush() — then give up the node.
    flush_trains(id);
    // Deactivate-then-recheck: the idle store and a producer's CAS are both
    // seq_cst, so they are totally ordered. If a producer appended to the
    // inbox after our last drain but CASed before our store, the CAS lost
    // (active was still 1) — no one queued the node, so WE must recheck the
    // inbox and reclaim. If the producer CASed after our store, it won and
    // enqueued the node; our reclaim CAS then fails and the new host
    // drains. Either way no task is stranded on a deactivated node.
    n.active.store(0, std::memory_order_seq_cst);
    bool pending;
    {
      std::lock_guard<std::mutex> lk(n.mu);
      pending = !n.inbox.empty();
    }
    if (pending) {
      std::uint32_t expected = 0;
      if (n.active.compare_exchange_strong(expected, 1,
                                           std::memory_order_seq_cst))
        continue;  // reclaimed: keep hosting, no re-enqueue needed
      // A producer won the reclaim race and enqueued the node elsewhere.
    }
    break;
  }
  tls_node = -1;
}

void NativeBackend::drain(Node& n, NodeId id, obs::TraceShard* sh,
                          Fifo<Task>& queue, bool yield_to_mail) {
  const auto b0 = std::chrono::steady_clock::now();
  const Time batch_start = since_phase_start(b0);
  while (!queue.empty()) {
    Task task = queue.pop();
    if (sh == nullptr) {
      run_task(n, id, batch_start, task);
    } else {
      const auto t0 = std::chrono::steady_clock::now();
      run_task(n, id, since_phase_start(t0), task);
      const auto t1 = std::chrono::steady_clock::now();
      sh->span(obs::Ev::kWorkerRun, id, since_phase_start(t0),
               since_phase_start(t1));
      sh->profile.task_service_ns.add(std::uint64_t(
          std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
              .count()));
    }
    if (yield_to_mail && n.has_mail.load(std::memory_order_relaxed)) break;
  }
  const auto b1 = std::chrono::steady_clock::now();
  n.stats.busy_total +=
      std::chrono::duration_cast<std::chrono::nanoseconds>(b1 - b0).count();
  n.stats.finish_time = since_phase_start(b1);
}

void NativeBackend::run_task(Node& n, NodeId id, Time start,
                             const Task& task) {
  Cpu cpu(id, start);
  task(cpu);
  for (int k = 0; k < kNumWorkKinds; ++k) n.stats.busy[k] += cpu.used(Work(k));
  ++n.stats.tasks_run;
  // Consume strictly after the task returned: while it ran (and possibly
  // produced more work) the scan kept seeing produced > consumed.
  n.consumed.fetch_add(1, std::memory_order_seq_cst);
}

}  // namespace dpa::exec
