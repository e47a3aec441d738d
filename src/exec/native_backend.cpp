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

// The process-wide default, copied into every single-argument
// NativeBackend at construction (see set_default_tuning).
std::mutex g_defaults_mu;
NativeBackend::Tuning g_default_tuning;

// The node the current thread is executing a task for (-1 outside
// run_node, including on the main thread). Tells post() a task's
// self-post, which skips the mailbox lock, from a main-thread seed.
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

// A message as a task on its destination node: counts the receipt in the
// destination's `recv` stats, then runs the handler. Returned as the
// closure itself, so a mailbox builds the Task in place.
auto delivery_closure(const Handler& fn, MsgStats& recv, Packet pkt) {
  return [fn = &fn, recv = &recv, pkt = std::move(pkt)](Cpu& cpu) {
    ++recv->msgs_recv;
    recv->bytes_recv += pkt.bytes;
    (*fn)(cpu, pkt);
  };
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

NativeBackend::NativeBackend(std::uint32_t num_nodes)
    : NativeBackend(num_nodes, default_tuning()) {}

NativeBackend::NativeBackend(std::uint32_t num_nodes, const Tuning& tuning,
                             TaskTable* table)
    : tuning_(tuning), table_(table) {
  DPA_CHECK(num_nodes > 0);
  DPA_CHECK(tuning_.train_max > 0);
  if (table_ == nullptr) {
    own_table_ = std::make_unique<TaskTable>(num_nodes);
    table_ = own_table_.get();
  }
  DPA_CHECK(table_->num_nodes() == num_nodes);
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
  if (tuning_.watchdog.enabled()) {
    DPA_CHECK(tuning_.watchdog.scan_interval > 0);
    watchdog_ = std::make_unique<WatchdogState>();
    watchdog_->last_produced.assign(num_nodes, 0);
    watchdog_->last_consumed.assign(num_nodes, 0);
    watchdog_->node_stuck.assign(num_nodes, false);
    watchdog_->thread = std::thread([this] { watchdog_main(); });
  }
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
  std::vector<Packet>& train = sn.trains[dst];
  if (train.empty()) return;
  DPA_DCHECK(sn.pending >= train.size());
  sn.pending -= std::uint32_t(train.size());
  ++sn.msg.trains_sent;
  if (!remote_.empty() && remote_[dst]) {
    sink_(src, dst, train);
    train.clear();
    return;
  }
  Node& dn = *nodes_[dst];
  // Trains depart only on the source's hosting worker, so tls_worker names
  // the shard.
  obs::TraceShard* const sh =
      tls_worker >= 0 ? worker_shard(std::uint32_t(tls_worker)) : nullptr;
  const std::uint64_t depth = train.size();
  Time w0 = 0, w1 = 0;
  std::size_t inbox_depth = 0;
  if (sh != nullptr) w0 = since_phase_start(std::chrono::steady_clock::now());
  {
    std::lock_guard<std::mutex> lk(dn.mu);
    if (sh != nullptr) {
      w1 = since_phase_start(std::chrono::steady_clock::now());
      inbox_depth = dn.inbox.size() + train.size();
    }
    for (Packet& pkt : train)
      dn.inbox.push(
          delivery_closure(*handlers_[pkt.handler], dn.msg, std::move(pkt)));
    dn.has_mail.store(true, std::memory_order_relaxed);
  }
  train.clear();
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
  // A task's post: only to its own node. Another node is reached by
  // send(), whose trains are the one way between nodes — and the only one
  // a proc worker can carry to another process.
  DPA_CHECK(tls_node < 0 || tls_node == std::int32_t(node))
      << "a task on node " << tls_node << " posted to node " << node
      << "; between nodes, tasks send messages";
  // Counted strictly before the task becomes runnable anywhere: a scan
  // that misses the task's consumption must also account it as produced.
  table_->produce(node);
  if (tls_node < 0) {
    // Main thread: a seed, before the phase (its workers are parked, and
    // the epoch publish orders these writes before the phase releases).
    deliver(node, std::move(task));
    return;
  }
  // The node is active (we are inside one of its tasks), so no activation
  // is needed — run_node drains local before it can even consider
  // deactivating.
  nodes_[node]->local.push(std::move(task));
}

void NativeBackend::deliver(NodeId node, Task task) {
  DPA_DCHECK(tls_node < 0) << "deliver() runs outside the pool";
  DPA_DCHECK(remote_.empty() || !remote_[node]);
  Node& dn = *nodes_[node];
  {
    std::lock_guard<std::mutex> lk(dn.mu);
    dn.inbox.push(std::move(task));
    dn.has_mail.store(true, std::memory_order_relaxed);
  }
  activate(node);
}

Task NativeBackend::delivery(Packet pkt) {
  DPA_DCHECK(pkt.handler < handlers_.size());
  return delivery_closure(*handlers_[pkt.handler], nodes_[pkt.dst]->msg,
                          std::move(pkt));
}

void NativeBackend::send(Cpu& cpu, NodeId src, NodeId dst, HandlerId handler,
                         std::shared_ptr<void> data, std::uint32_t bytes) {
  (void)cpu;  // the real send cost is measured, not charged
  DPA_DCHECK(handler < handlers_.size());
  DPA_DCHECK(tls_node == std::int32_t(src))
      << "Backend::send must run on the node it sends from";
  Node& sn = *nodes_[src];
  ++sn.msg.msgs_sent;
  ++sn.msg.frags_sent;  // no MTU segmentation in-process
  sn.msg.bytes_sent += bytes;
  // A message counts as its delivery task, produced from the moment it is
  // sent, wherever dst lives: the train holding it, and after it departs
  // the frame or mailbox, keep the phase alive until the delivery ran.
  table_->produce(src);
  std::vector<Packet>& train = sn.trains[dst];
  train.push_back(Packet{src, dst, handler, bytes, std::move(data)});
  ++sn.pending;
  if (train.size() >= tuning_.train_max) deliver_train(src, dst);
}

void NativeBackend::set_remote(std::vector<bool> remote, RemoteSink sink) {
  DPA_CHECK(remote.size() == nodes_.size() && sink != nullptr);
  remote_ = std::move(remote);
  sink_ = std::move(sink);
}

void NativeBackend::flush(Cpu& cpu, NodeId node) {
  (void)cpu;  // lock handoff cost is measured, not charged
  DPA_DCHECK(node < nodes_.size());
  DPA_DCHECK(tls_node == std::int32_t(node))
      << "Backend::flush must run on the node it flushes";
  flush_trains(node);
}

Time NativeBackend::begin_phase() {
  // The table is not checked: one shared with a proc coordinator already
  // counts this phase's seeds. A task left from the last phase would sit
  // in a node's queues, which are.
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

void NativeBackend::start_phase() {
  phase_t0_ = std::chrono::steady_clock::now();
  {
    std::lock_guard<std::mutex> lk(phase_mu_);
    ++phase_epoch_;
  }
  phase_cv_.notify_all();
}

PhaseExec NativeBackend::finish_phase() {
  // A table shared with other processes balances when their last task
  // ends, which wakes none of this pool's parked workers: confirm the end
  // for them, as a worker's own scan would.
  if (table_->balanced()) {
    quiesced_.store(true, std::memory_order_release);
    wake_all_workers();
  }
  {
    std::unique_lock<std::mutex> lk(phase_mu_);
    done_cv_.wait(lk, [this] { return done_epoch_ == phase_epoch_; });
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
    // and counts itself out under phase_mu_. The last one publishes the
    // phase's end; every worker's phase writes precede its count in the
    // mutex's order, so the main thread, which reads done_epoch_ under the
    // same mutex, sees them all.
    bool last;
    {
      std::lock_guard<std::mutex> lk(phase_mu_);
      last = ++workers_out_ == workers_.size();
      if (last) {
        workers_out_ = 0;
        done_epoch_ = epoch;
      }
    }
    if (last) done_cv_.notify_one();
  }
}

void NativeBackend::watchdog_main() {
  for (;;) {
    {
      std::unique_lock<std::mutex> lk(watchdog_->mu);
      watchdog_->cv.wait_for(
          lk, std::chrono::nanoseconds(tuning_.watchdog.scan_interval),
          [this] { return watchdog_->stop; });
      if (watchdog_->stop) return;
    }
    if (watchdog_sweep()) return;
  }
}

bool NativeBackend::watchdog_sweep() {
  WatchdogState& wd = *watchdog_;
  const WatchdogConfig& cfg = tuning_.watchdog;
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
  bool any_busy = false;
  for (NodeId i = 0; i < NodeId(nodes_.size()); ++i) {
    const std::uint64_t c = table_->consumed(i);
    const std::uint64_t p = table_->produced(i);
    const bool moved = p != wd.last_produced[i] || c != wd.last_consumed[i];
    progress |= moved;
    wd.node_stuck[i] = !moved && p != c;
    wd.last_produced[i] = p;
    wd.last_consumed[i] = c;
    const Node& n = *nodes_[i];
    any_busy |= n.active.load(std::memory_order_relaxed) != 0 ||
                n.has_mail.load(std::memory_order_relaxed);
  }
  // Drained (or about to finish): healthy. So is a pool none of whose
  // nodes is busy: outstanding work keeps its node active, queued or
  // running, so what is outstanding on a shared table belongs to another
  // process's pool, which reports it if it wedges. Mail counts as busy so
  // that a task stranded in an idle node's mailbox, which only a lost
  // activation could leave, still reads as a stall.
  if (!any_busy || table_->balanced()) {
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
  const WatchdogConfig& cfg = tuning_.watchdog;
  obs::FlightRecord rec;
  rec.reason = reason;
  rec.elapsed = elapsed;
  rec.phase_epoch = epoch;
  rec.stuck_scans = stuck;
  rec.nodes.resize(nodes_.size());
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    Node& n = *nodes_[i];
    auto& st = rec.nodes[i];
    st.produced = table_->produced(NodeId(i));
    st.consumed = table_->consumed(NodeId(i));
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
               stuck, (unsigned long long)table_->outstanding());
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
    if (table_->balanced()) {
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
      sh->instant(obs::Ev::kQuiesceScan, w, t, table_->outstanding());
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
  table_->consume(id);
}

}  // namespace dpa::exec
