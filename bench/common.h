// Shared pieces of the experiment harnesses: the modeled Cray T3D network
// parameters, breakdown-row formatting, and the paper's reference numbers
// (from the PPoPP'97 text) so every binary prints paper-vs-measured.
#pragma once

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "exec/backend.h"
#include "exec/native_backend.h"
#include "exec/proc_backend.h"
#include "obs/chrome_trace.h"
#include "obs/session.h"
#include "runtime/phase.h"
#include "sim/network.h"
#include "support/options.h"
#include "support/parallel.h"
#include "support/table.h"

namespace dpa::bench {

// --backend= plumbing: run a harness's cells on the discrete-event
// simulator (the default; modeled seconds), on the native shared-memory
// backend (an M:N pool of worker threads multiplexing the simulated nodes;
// real wall-clock seconds), or on the multi-process backend ('proc': one
// worker process per group of nodes, cross-process messages over
// socketpairs, real wall-clock seconds). Native and proc runs are
// incompatible with fault injection (their fabrics — in-process mailboxes
// and socketpairs — cannot lose messages; faults live in the modeled
// network) and force --jobs=1 (a cell already fans out across workers, and
// co-scheduling cells would corrupt each other's timings).
struct BackendOptions {
  std::string name = "sim";
  std::int64_t workers = 0;      // native pool size; 0 = min(cores, nodes)
  std::int64_t procs = 2;        // proc backend: worker process count
  std::int64_t watchdog_ms = 0;  // 0 = no watchdog
  std::string watchdog_dump;     // flight-recorder JSON path ("" = stderr)

  void add_flags(Options& options) {
    options
        .str("backend", &name,
             "execution substrate: 'sim' (modeled LogGP network), "
             "'native' (worker pool multiplexing the nodes, wall-clock "
             "timings), or 'proc' (worker processes over socketpairs, "
             "wall-clock timings)")
        .i64("workers", &workers,
             "native/proc only: host threads in the worker pool "
             "(0 = one per host core, clamped to the node count)")
        .i64("procs", &procs,
             "proc only: worker processes the nodes are partitioned "
             "across (at least 1; clamped to the node count)")
        .i64("watchdog-ms", &watchdog_ms,
             "native/proc only: abort (with a flight-recorder dump) if a "
             "phase outlives this many wall milliseconds or makes no "
             "progress (0 = no watchdog)")
        .str("watchdog-dump", &watchdog_dump,
             "where the watchdog writes its flight-recorder JSON "
             "(default: stderr summary only)");
  }

  bool native() const { return name == "native"; }
  bool proc() const { return name == "proc"; }
  exec::BackendKind kind() const {
    if (proc()) return exec::BackendKind::kProc;
    return native() ? exec::BackendKind::kNative : exec::BackendKind::kSim;
  }

  // Call after parse(); returns false (after printing why) on a bad combo
  // or an out-of-range count.
  bool validate(const struct FaultOptions& faults) const;

  std::size_t clamp_jobs(std::size_t jobs) const {
    if ((native() || proc()) && jobs != 1) {
      std::fprintf(stderr,
                   "warning: --jobs=%zu ignored: --backend=%s runs cells "
                   "serially (each already fans out across workers)\n",
                   jobs, name.c_str());
      return 1;
    }
    return jobs;
  }

  // --watchdog-ms=N as an exec::WatchdogConfig: the phase deadline is N
  // wall milliseconds, and independently eight consecutive no-progress
  // sweeps (spaced so eight fit inside the deadline, floor 1 ms) fire the
  // stuck-counters trigger well before a deadlocked phase burns the whole
  // budget. Pure mapping, no side effects — unit-testable.
  exec::WatchdogConfig watchdog_config() const {
    exec::WatchdogConfig cfg;
    if (watchdog_ms <= 0) return cfg;
    cfg.phase_deadline = exec::Time(watchdog_ms) * 1'000'000;
    cfg.stuck_scans = 8;
    cfg.scan_interval =
        std::max<exec::Time>(cfg.phase_deadline / 8, 1'000'000);
    cfg.dump_path = watchdog_dump;
    cfg.fatal = true;
    return cfg;
  }

  // Installs the native execution policy process-wide — worker-pool size
  // and, on native, the watchdog, both in the default Tuning; on proc the
  // process count and the watchdog go in the default ProcBackend::Config.
  // Harnesses build their Clusters deep inside app runners, so the policy
  // is set once here and picked up by every backend constructed
  // afterwards.
  void install() const {
    if (!native() && !proc()) {
      if (workers != 0)
        std::fprintf(stderr,
                     "warning: --workers=%lld ignored: the worker pool is a "
                     "native/proc-backend knob (--backend=sim is "
                     "single-threaded by construction)\n",
                     (long long)workers);
      if (watchdog_ms > 0)
        std::fprintf(stderr,
                     "warning: --watchdog-ms=%lld ignored: the watchdog "
                     "guards native/proc phases (--backend=sim is "
                     "deterministic and cannot stall)\n",
                     (long long)watchdog_ms);
      return;
    }
    // On proc this sizes each worker process's *inner* pool, whose
    // watchdog the proc config supplies.
    exec::NativeBackend::Tuning tuning = exec::NativeBackend::default_tuning();
    if (workers != 0) tuning.workers = std::uint32_t(workers);
    if (native() && watchdog_ms > 0) tuning.watchdog = watchdog_config();
    exec::NativeBackend::set_default_tuning(tuning);
    if (proc()) {
      exec::ProcBackend::Config cfg = exec::ProcBackend::default_config();
      cfg.procs = std::uint32_t(procs);
      if (watchdog_ms > 0) cfg.watchdog = watchdog_config();
      exec::ProcBackend::set_default_config(cfg);
    }
  }

  void announce() const {
    if (native())
      std::printf(
          "backend: native (M:N worker pool, wall-clock; timings are host "
          "seconds, not modeled T3D seconds)\n\n");
    if (proc())
      std::printf(
          "backend: proc (%lld worker processes over socketpairs, "
          "wall-clock; timings are host seconds, not modeled T3D "
          "seconds)\n\n",
          (long long)procs);
  }
};

// --jobs= plumbing for the sweep harnesses. A sweep's cells (one simulated
// run each) are independent: each builds its own Cluster, so they can run on
// a pool of host threads. Every cell is itself single-threaded and
// deterministic, and results are collected into per-cell slots and printed
// in index order afterwards — the output is byte-identical to --jobs=1.
//
// An attached obs::Session is shared mutable state (one metrics registry /
// trace ring across runs), so observability-enabled invocations fall back
// to serial; determinism_test exercises the parallel path with per-cell
// sessions instead.
struct SweepOptions {
  std::int64_t jobs = 1;  // 0 = one per host hardware thread

  void add_flags(Options& options) {
    options.i64("jobs", &jobs,
                "host threads for independent sweep cells (0 = nproc, 1 = "
                "serial; results are bit-identical either way)");
  }

  // Number of worker threads to use for a sweep. `obs_flag` is the flag
  // that attached an observability session (nullptr when none): a session
  // forces serial cells, and the warning names the flag responsible so the
  // override is never silent.
  std::size_t resolved(const char* obs_flag) const {
    if (obs_flag != nullptr) {
      if (jobs != 1)
        std::fprintf(stderr,
                     "warning: --jobs=%lld ignored: %s attached an "
                     "observability session (one registry/ring across "
                     "cells), so cells run serially\n",
                     (long long)jobs, obs_flag);
      return 1;
    }
    if (jobs <= 0) return host_concurrency();
    return std::size_t(jobs);
  }
};

// Runs compute(i) for every cell on `jobs` host threads and returns the
// results in index order. `compute` must only touch cell-local state.
template <class R, class Fn>
std::vector<R> sweep_cells(std::size_t jobs, std::size_t count, Fn&& compute) {
  std::vector<R> results(count);
  parallel_for_cells(jobs, count,
                     [&](std::size_t i) { results[i] = compute(i); });
  return results;
}

// Observability plumbing shared by the harnesses: --trace-out= and
// --metrics-out= flags plus the obs::Session the apps report into. The
// session is only allocated when some output was requested, so plain timing
// runs keep the instrumented paths on their null-pointer fast path.
struct ObsOptions {
  std::string trace_out;    // Chrome/Perfetto trace-event JSON
  std::string metrics_out;  // metrics snapshot JSON
  std::unique_ptr<obs::Session> session;
  const char* attached_by_ = nullptr;

  void add_flags(Options& options) {
    options
        .str("trace-out", &trace_out,
             "write a Chrome trace-event JSON (load in Perfetto) here")
        .str("metrics-out", &metrics_out,
             "write a metrics snapshot JSON here");
  }

  // Call once after parse(). `force_flag` names a harness flag (e.g.
  // "--json") that needs a session even without --trace-out/--metrics-out,
  // so downstream overrides can report which flag attached it.
  void init(const char* force_flag = nullptr) {
    if (!trace_out.empty())
      attached_by_ = "--trace-out";
    else if (!metrics_out.empty())
      attached_by_ = "--metrics-out";
    else
      attached_by_ = force_flag;
    if (attached_by_ != nullptr) session = std::make_unique<obs::Session>();
  }

  obs::Session* get() const { return session.get(); }

  // The flag responsible for the attached session, nullptr when none.
  const char* attached_by() const { return attached_by_; }

  // Writes the requested files; returns false if any write failed.
  bool finish() const {
    bool ok = true;
    if (!trace_out.empty() && session != nullptr) {
      if (!obs::kTraceEnabled)
        std::fprintf(stderr,
                     "warning: compiled with DPA_TRACE=OFF, %s will contain "
                     "no events\n",
                     trace_out.c_str());
      const obs::ShardedTraceSink* shards = session->shards.get();
      const std::uint64_t dropped =
          session->tracer.dropped() +
          (shards != nullptr ? shards->dropped_total() : 0);
      const std::uint64_t recorded =
          session->tracer.recorded() +
          (shards != nullptr ? shards->recorded_total() : 0);
      if (dropped > 0)
        std::fprintf(stderr,
                     "warning: trace ring(s) overflowed, oldest %llu of %llu "
                     "events dropped (per-worker counts are in the trace "
                     "header's dropped_by_worker)\n",
                     (unsigned long long)dropped, (unsigned long long)recorded);
      if (obs::write_chrome_trace(session->tracer, trace_out, shards)) {
        std::printf("trace written to %s\n", trace_out.c_str());
      } else {
        std::fprintf(stderr, "error: cannot write %s\n", trace_out.c_str());
        ok = false;
      }
    }
    if (!metrics_out.empty() && session != nullptr) {
      std::ofstream out(metrics_out);
      out << session->metrics.to_json() << "\n";
      if (out.good()) {
        std::printf("metrics written to %s\n", metrics_out.c_str());
      } else {
        std::fprintf(stderr, "error: cannot write %s\n", metrics_out.c_str());
        ok = false;
      }
    }
    return ok;
  }
};

// Chaos plumbing shared by the harnesses: --faults= / --fault-seed= flags
// plus the apply() call that installs the parsed FaultPlan into the network
// parameters a run uses. With no --faults the plan stays inactive and the
// fault hooks never allocate an injector, so timings are unchanged.
struct FaultOptions {
  std::string spec;
  std::int64_t seed = -1;  // -1 = keep the plan's default / spec's seed=

  void add_flags(Options& options) {
    options
        .str("faults", &spec,
             "run under an unreliable fabric; spec: 'chaos' or "
             "drop=P,dup=P,reorder=P[:ns],delay=P[:ns],pause=P[:ns],jitter "
             "(see sim/fault.h)")
        .i64("fault-seed", &seed, "seed for the fault schedule RNG");
  }

  bool active() const { return !spec.empty(); }

  // Call on every NetParams the harness builds, after parse().
  void apply(sim::NetParams* params) const {
    if (spec.empty()) return;
    params->faults = sim::FaultPlan::parse(spec);
    if (seed >= 0) params->faults.seed = std::uint64_t(seed);
  }

  // Convenience: an already-faulted copy of `params`.
  sim::NetParams applied(sim::NetParams params) const {
    apply(&params);
    return params;
  }

  void announce() const {
    if (spec.empty()) return;
    sim::NetParams p;
    apply(&p);
    std::printf("fault injection: %s (FM recovers: exactly-once delivery)\n\n",
                p.faults.describe().c_str());
  }
};

inline bool BackendOptions::validate(const FaultOptions& faults) const {
  if (name != "sim" && name != "native" && name != "proc") {
    std::fprintf(stderr,
                 "error: unknown --backend=%s (want sim|native|proc)\n",
                 name.c_str());
    return false;
  }
  // Counts are narrowed to std::uint32_t by install(); anything outside
  // that range would silently wrap.
  constexpr std::int64_t kMaxCount = std::numeric_limits<std::uint32_t>::max();
  if (procs < 1 || procs > kMaxCount) {
    std::fprintf(stderr,
                 "error: --procs=%lld: want 1 to %lld worker processes\n",
                 (long long)procs, (long long)kMaxCount);
    return false;
  }
  if (workers < 0 || workers > kMaxCount) {
    std::fprintf(stderr,
                 "error: --workers=%lld: want 0 (one per host core) to %lld "
                 "pool threads\n",
                 (long long)workers, (long long)kMaxCount);
    return false;
  }
  if ((native() || proc()) && faults.active()) {
    std::fprintf(stderr,
                 "error: --backend=%s cannot run under --faults= (its "
                 "fabric is lossless; fault injection needs the modeled "
                 "network of --backend=sim)\n",
                 name.c_str());
    return false;
  }
  return true;
}

// Cray T3D as seen through Illinois Fast Messages: a few microseconds of
// software overhead per message, a few microseconds of latency, ~30 MB/s
// deliverable bandwidth (FM-on-T3D regime, Karamcheti & Chien 1995).
inline sim::NetParams t3d_params() {
  sim::NetParams p;
  p.send_overhead = 2200;
  p.recv_overhead = 2600;
  p.latency = 2800;
  p.ns_per_byte = 33.0;
  p.per_msg_wire = 300;
  p.nic_serialize = true;
  p.mtu_bytes = 4096;
  return p;
}

// Paper reference numbers (Table of execution times, PPoPP'97).
struct PaperRef {
  // Barnes-Hut 16,384 bodies, 4 steps, seconds.
  static constexpr double bh_seq = 97.84;
  static constexpr double bh_dpa50[7] = {118.02, 61.23, 33.05, 17.15,
                                         8.59,   4.48,  2.63};
  static constexpr double bh_caching[7] = {115.15, 65.77, 38.02, 20.21,
                                           10.46,  5.41,  2.90};
  static constexpr int bh_procs[7] = {1, 2, 4, 8, 16, 32, 64};

  // FMM 32,768 particles, 29 terms, 1 step, seconds. The paper's fragments
  // preserve the first entries of the DPA(50) row and the sequential time;
  // the rest of the row is reconstructed from the quoted 54x speedup on 64
  // nodes (see EXPERIMENTS.md).
  static constexpr double fmm_seq = 14.46;
  static constexpr double fmm_dpa50[6] = {7.39, 3.80, 1.91, -1, -1, 0.27};
  static constexpr int fmm_procs[6] = {2, 4, 8, 16, 32, 64};
};

inline std::string maybe(double v, int precision = 2) {
  return v < 0 ? std::string("n/a") : Table::num(v, precision);
}

// One stacked bar of the breakdown figures.
inline void print_breakdown_row(Table& table, const std::string& label,
                                const rt::PhaseResult& result,
                                double seq_seconds) {
  table.add_row({label, Table::num(result.seconds(), 3),
                 Table::num(result.mean_local_s(), 3),
                 Table::num(result.mean_comm_s(), 3),
                 Table::num(result.mean_idle_s(), 3),
                 Table::num(seq_seconds / result.seconds(), 1) + "x"});
}

}  // namespace dpa::bench
