// Benchmark driver for the DPA stack.
//
// Runs one named workload as a closed loop of episodes. An episode is what
// an app's own run() does: generate the inputs, build a Cluster and a
// PhaseRunner (the set-up), then run the steps, each starting only after
// the previous phase returned. Barnes-Hut and FMM steps go through the
// apps' public builders, so every PhaseRunner::run call is timed from
// outside; em3d's phase loop is private to Em3dApp::run, so its phase
// times are the returned PhaseResult.elapsed (host steady-clock time on
// native and proc).
//
// --trace 0 measures the end-to-end metrics with no obs::Session attached.
// --trace 1 spends half the run untraced (for obs.trace_overhead) and half
// with a session attached, and reports the per-layer metrics from the
// traced half only. Every episode's result is checked against the app's
// sequential oracle; after the loop the app's own run() on the same backend
// must reproduce the driver's work counts (and, on the simulator, its bytes
// and modeled times). Any miss fails the run: the last stdout line reports
// it and the exit code is 1.
//
// Usage: dpa_perfbench --workload NAME --seed N --seconds S --trace 0|1
//        [size flags, see kUsage]
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "apps/barnes/app.h"
#include "apps/barnes/force.h"
#include "apps/barnes/plummer.h"
#include "apps/barnes/tree.h"
#include "apps/em3d/em3d.h"
#include "apps/fmm/app.h"
#include "apps/fmm/phase.h"
#include "apps/fmm/tree.h"
#include "exec/native_backend.h"
#include "exec/proc_backend.h"
#include "obs/session.h"
#include "runtime/phase.h"
#include "sim/network.h"
#include "support/json.h"
#include "transport/frame.h"

#ifndef DPA_BENCH_BUILD_TYPE
#define DPA_BENCH_BUILD_TYPE "unknown"
#endif

namespace dpa::perfbench {
namespace {

namespace bh = apps::barnes;
namespace fmm = apps::fmm;
namespace em3d = apps::em3d;

constexpr const char* kUsage =
    "usage: dpa_perfbench --workload NAME --seed N --seconds S --trace 0|1\n"
    "  workloads: bh-native em3d-native fmm-proc bh-sim\n"
    "  size flags (positive integers; defaults define each workload):\n"
    "    --nodes --bodies --particles --terms --objects --steps --workers\n"
    "    --procs\n"
    "  --git-rev REV         recorded in the run manifest\n"
    "  --corrupt-reference   perturb the oracle (self-test of the checks)\n"
    "Run from the repository root: reads perfbench/golden.json, writes\n"
    ".bench_out/<workload>-seed<N>-trace<T>.json.\n";

constexpr const char* kGoldenPath = "perfbench/golden.json";
constexpr const char* kOutDir = ".bench_out";

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ---------------------------------------------------------------------------
// Workloads and flags

enum class App : std::uint8_t { kBh, kFmm, kEm3d };

struct Config {
  std::string workload;
  App app = App::kBh;
  exec::BackendKind backend = exec::BackendKind::kNative;
  std::uint32_t nodes = 64;
  std::uint32_t workers = 0;  // native pool size (per process on proc)
  std::uint32_t procs = 0;    // proc worker processes
  std::uint32_t bodies = 4096;
  std::uint32_t particles = 2048;
  std::uint32_t terms = 12;
  std::uint32_t objects = 512;  // em3d E (and H) objects per node
  std::uint32_t steps = 4;  // BH/FMM steps, or em3d iterations, per episode
  double remote_prob = 0.6;

  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool sizes_overridden = false;
  bool corrupt_reference = false;
  std::string git_rev = "unknown";
  std::string argv;
};

std::uint32_t host_nproc() {
  const long n = sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? std::uint32_t(n) : 1;
}

bool set_workload(Config& c, const std::string& name) {
  const std::uint32_t cores = host_nproc();
  c.workload = name;
  if (name == "bh-native") {
    c.app = App::kBh;
    c.backend = exec::BackendKind::kNative;
    c.nodes = 64;
    c.workers = std::min<std::uint32_t>(4, cores);
    c.steps = 4;
  } else if (name == "bh-sim") {
    c.app = App::kBh;
    c.backend = exec::BackendKind::kSim;
    c.nodes = 64;
    c.steps = 4;
  } else if (name == "em3d-native") {
    c.app = App::kEm3d;
    c.backend = exec::BackendKind::kNative;
    c.nodes = 64;
    c.workers = std::min<std::uint32_t>(4, cores);
    c.steps = 10;
  } else if (name == "fmm-proc") {
    c.app = App::kFmm;
    c.backend = exec::BackendKind::kProc;
    c.nodes = 8;
    c.procs = std::min<std::uint32_t>(2, cores);
    c.workers = std::max<std::uint32_t>(1, std::min<std::uint32_t>(
                                               2, cores / c.procs));
    c.steps = 1;
  } else {
    return false;
  }
  return true;
}

const char* backend_name(exec::BackendKind k) {
  switch (k) {
    case exec::BackendKind::kSim: return "sim";
    case exec::BackendKind::kNative: return "native";
    case exec::BackendKind::kProc: return "proc";
  }
  return "?";
}

bool parse_u64(const std::string& s, std::uint64_t* out) {
  if (s.empty() || s[0] == '-' || s[0] == '+') return false;
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s.c_str(), &end, 10);
  if (errno != 0 || end != s.c_str() + s.size()) return false;
  *out = v;
  return true;
}

// Parses argv into `c`. Returns an error message, empty on success.
std::string parse_flags(int argc, char** argv, Config& c) {
  std::map<std::string, std::string> kv;
  for (int i = 1; i < argc; ++i) {
    if (i > 1) c.argv += ' ';
    c.argv += argv[i];
  }
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) return "unexpected argument '" + arg + "'";
    arg = arg.substr(2);
    if (arg == "corrupt-reference") {
      c.corrupt_reference = true;
      continue;
    }
    std::string value;
    if (const auto eq = arg.find('='); eq != std::string::npos) {
      value = arg.substr(eq + 1);
      arg = arg.substr(0, eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      return "flag --" + arg + " needs a value";
    }
    kv[arg] = value;
  }

  if (!kv.count("workload")) return "--workload is required";
  if (!set_workload(c, kv["workload"]))
    return "unknown workload '" + kv["workload"] + "'";
  kv.erase("workload");

  std::uint64_t v = 0;
  if (auto it = kv.find("seed"); it != kv.end()) {
    if (!parse_u64(it->second, &v))
      return "--seed wants a non-negative integer";
    c.seed = v;
    kv.erase(it);
  }
  if (auto it = kv.find("seconds"); it != kv.end()) {
    if (!parse_u64(it->second, &v) || v == 0 || v > 3600)
      return "--seconds wants an integer in [1, 3600]";
    c.seconds = double(v);
    kv.erase(it);
  }
  if (auto it = kv.find("trace"); it != kv.end()) {
    if (it->second != "0" && it->second != "1") return "--trace wants 0 or 1";
    c.trace = it->second == "1";
    kv.erase(it);
  }
  if (auto it = kv.find("git-rev"); it != kv.end()) {
    if (it->second.empty()) return "--git-rev wants a value";
    c.git_rev = it->second;
    kv.erase(it);
  }

  const bool sim = c.backend == exec::BackendKind::kSim;
  const bool proc = c.backend == exec::BackendKind::kProc;
  const std::pair<const char*, std::uint32_t*> sizes[] = {
      {"nodes", &c.nodes},     {"bodies", &c.bodies},
      {"particles", &c.particles}, {"terms", &c.terms},
      {"objects", &c.objects}, {"steps", &c.steps},
      {"workers", &c.workers}, {"procs", &c.procs},
  };
  for (const auto& [key, dst] : sizes) {
    auto it = kv.find(key);
    if (it == kv.end()) continue;
    if (!parse_u64(it->second, &v) || v == 0 || v > (1u << 24))
      return std::string("--") + key + " wants a positive integer (got '" +
             it->second + "')";
    if (sim && (std::string_view(key) == "workers" ||
                std::string_view(key) == "procs"))
      return "--" + std::string(key) + " does not apply to " + c.workload +
             ": the simulator is single-threaded";
    if (!proc && std::string_view(key) == "procs")
      return "--procs applies only to the proc backend";
    *dst = std::uint32_t(v);
    c.sizes_overridden = true;
    kv.erase(it);
  }
  if (!kv.empty()) return "unknown flag --" + kv.begin()->first;

  const std::uint32_t cores = host_nproc();
  if (c.terms > fmm::kMaxTerms)
    return "--terms must be at most " + std::to_string(fmm::kMaxTerms);
  if (!sim) {
    const std::uint32_t threads = proc ? c.workers * c.procs : c.workers;
    if (threads > cores)
      return "workers x procs = " + std::to_string(threads) +
             " exceeds the host's " + std::to_string(cores) + " cores";
    if (c.workers > c.nodes || c.procs > c.nodes)
      return "workers and procs may not exceed the node count (" +
             std::to_string(c.nodes) + ")";
  }
  return {};
}

// The simulator runs on one host thread. On a shared host some CPUs run
// slower than others at any moment, and a thread that stays on a slow one
// makes the whole run slow. Sim steps therefore move the driver to the next
// CPU it may use, so that every run samples each CPU alike.
void rotate_cpu() {
  static const std::vector<int> cpus = [] {
    std::vector<int> out;
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) == 0)
      for (int i = 0; i < CPU_SETSIZE; ++i)
        if (CPU_ISSET(i, &set)) out.push_back(i);
    return out;
  }();
  static std::size_t next = 0;
  if (cpus.size() < 2) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpus[next++ % cpus.size()], &one);
  sched_setaffinity(0, sizeof one, &one);
}

// ---------------------------------------------------------------------------
// The driver's own spans (traced runs only): one per public call, kept in
// memory and written out at exit.

class SpanLog {
 public:
  struct Span {
    std::string_view name;
    std::int64_t start = 0;
    std::int64_t end = 0;
    std::int32_t parent = -1;
  };

  void enable() {
    on_ = true;
    spans_.reserve(std::size_t(1) << 16);
  }
  bool on() const { return on_; }

  // Runs fn() inside a span named `name`; returns its duration in ns. Names
  // must be string literals (spans keep the view).
  template <class F>
  std::int64_t time(std::string_view name, F&& fn) {
    std::int32_t id = -1;
    const std::int64_t start = now_ns();
    if (on_) {
      id = std::int32_t(spans_.size());
      spans_.push_back(Span{name, start, 0, open_.empty() ? -1 : open_.back()});
      open_.push_back(id);
    }
    fn();
    const std::int64_t end = now_ns();
    if (on_) {
      spans_[std::size_t(id)].end = end;
      open_.pop_back();
    }
    return end - start;
  }

  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool on_ = false;
  std::vector<Span> spans_;
  std::vector<std::int32_t> open_;
};

// ---------------------------------------------------------------------------
// Measurements

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * double(v.size() - 1);
  const auto lo = std::size_t(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - double(lo)) * (v[hi] - v[lo]);
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// What one timed segment (a sequence of episodes) measured.
struct Segment {
  std::vector<double> phase_ms;  // host wall per phase
  std::vector<double> setup_s;   // per episode
  double loop_ns = 0;            // host wall of the step loops
  std::uint64_t work_units = 0;
  std::uint64_t phases = 0;

  // Per-layer sums (traced segment).
  double host_ns = 0;             // outside the phases, inside the step loop
  double runner_overhead_ns = 0;  // PhaseRunner::run outside - elapsed
  double elapsed_ns = 0;          // Σ PhaseResult.elapsed
  double heap_objects = 0;        // Σ over steps, after materialize
  double heap_bytes = 0;
  rt::RtTotals rt;                // summed counters; gauge maxima
  std::vector<double> empty_phase_us;

  void absorb(const rt::PhaseResult& r, double phase_ns, double overhead_ns) {
    ++phases;
    phase_ms.push_back(phase_ns / 1e6);
    elapsed_ns += double(r.elapsed);
    runner_overhead_ns += overhead_ns;
#define DPA_X(name) rt.name += r.rt.name;
    DPA_RT_COUNTERS(DPA_X)
#undef DPA_X
#define DPA_X(name) rt.max_##name = std::max(rt.max_##name, r.rt.max_##name);
    DPA_RT_GAUGES(DPA_X)
#undef DPA_X
  }
};

// The app's sequential oracle each episode is checked against.
struct Oracle {
  std::vector<bh::BarnesApp::SeqStep> bh;
  fmm::FmmApp::SeqResult fmm;
  em3d::Em3dApp::SeqResult em3d;
};

// What one episode left behind, for its checks and the same-program check.
struct EpisodeState {
  std::vector<std::uint64_t> step_work;  // work units per step
  std::vector<rt::Time> elapsed;         // PhaseResult.elapsed per step
  std::string bytes;                     // final physics, raw doubles
  bool completed = true;
  std::string why;  // first mismatch with the oracle; empty when it matches
};

// What every episode of a run reads.
struct Bench {
  Config cfg;
  rt::RuntimeConfig rcfg = rt::RuntimeConfig::dpa(50);
  sim::NetParams net;
  Oracle oracle;
  SpanLog log;
};

// A Cluster and PhaseRunner of the workload's shape: the second half of
// set-up.
struct Machine {
  std::unique_ptr<rt::Cluster> cluster;
  std::unique_ptr<rt::PhaseRunner> runner;
  std::int64_t build_ns = 0;
};

Machine build_machine(Bench& b, obs::Session* obs) {
  Machine m;
  m.build_ns = b.log.time("setup.cluster", [&] {
    m.cluster =
        std::make_unique<rt::Cluster>(b.cfg.nodes, b.cfg.backend, b.net);
    m.cluster->attach_obs(obs);
    m.runner = std::make_unique<rt::PhaseRunner>(*m.cluster, b.rcfg);
  });
  return m;
}

// Global-heap size after a step's materialize (traced runs only).
void count_heap(const gas::GlobalHeap& heap, Segment& seg) {
  seg.heap_objects += double(heap.object_spans().size());
  for (const auto& span : heap.object_spans())
    seg.heap_bytes += double(span.bytes);
}

void append_doubles(std::string& out, const double* p, std::size_t n) {
  out.append(reinterpret_cast<const char*>(p), n * sizeof(double));
}

// The fixed cost per phase: 20 PhaseRunner::run calls whose every node has
// a zero-iteration conc loop.
void probe_empty_phases(Bench& b, Machine& m, Segment& seg) {
  m.cluster->attach_obs(nullptr);
  for (int i = 0; i < 20; ++i) {
    std::vector<rt::NodeWork> none(b.cfg.nodes);
    const std::int64_t ns = b.log.time(
        "probe.empty_phase", [&] { m.runner->run(std::move(none), "empty"); });
    seg.empty_phase_us.push_back(double(ns) / 1e3);
  }
}

// ----- Barnes-Hut ------------------------------------------------------------

bh::BarnesConfig bh_config(const Config& c) {
  bh::BarnesConfig cfg;
  cfg.nbodies = c.bodies;
  cfg.nsteps = c.steps;
  cfg.seed = c.seed;
  return cfg;
}

std::string check_bh(const std::vector<bh::WalkCounts>& counts,
                     const std::vector<bh::Body>& bodies,
                     const Oracle& oracle) {
  const auto& seq = oracle.bh;
  if (counts.size() != seq.size()) return "step count differs from oracle";
  for (std::size_t s = 0; s < seq.size(); ++s)
    if (counts[s].interactions != seq[s].counts.interactions ||
        counts[s].opens != seq[s].counts.opens)
      return "step " + std::to_string(s) + " walk counts differ from oracle";
  const auto& acc = seq.back().acc;
  for (std::size_t i = 0; i < bodies.size(); ++i) {
    const double scale = std::max(1.0, acc[i].norm());
    const apps::Vec3 d = bodies[i].acc - acc[i];
    if (std::abs(d.x) > 1e-9 * scale || std::abs(d.y) > 1e-9 * scale ||
        std::abs(d.z) > 1e-9 * scale)
      return "body " + std::to_string(i) + " acceleration off the oracle";
  }
  return {};
}

std::string bh_bytes(const std::vector<bh::Body>& bodies) {
  std::string out;
  for (const bh::Body& b : bodies) {
    append_doubles(out, &b.pos.x, 3);
    append_doubles(out, &b.vel.x, 3);
    append_doubles(out, &b.acc.x, 3);
    append_doubles(out, &b.work, 1);
  }
  return out;
}

// Mirrors BarnesApp::run step for step (same calls, same order), timing
// each public call.
EpisodeState bh_episode(Bench& b, obs::Session* obs, Segment& seg,
                        bool probe_empty) {
  const Config& c = b.cfg;
  SpanLog& log = b.log;
  const bh::BarnesConfig cfg = bh_config(c);
  const bool wall_clock = c.backend != exec::BackendKind::kSim;
  const std::int64_t t0 = now_ns();
  std::vector<bh::Body> bodies;
  log.time("setup.inputs",
           [&] { bodies = bh::plummer_model(cfg.nbodies, cfg.seed); });
  Machine m = build_machine(b, obs);
  rt::Cluster& cluster = *m.cluster;
  seg.setup_s.push_back(double(now_ns() - t0) / 1e9);

  EpisodeState st;
  std::vector<bh::WalkCounts> counts;
  const std::int64_t loop_start = now_ns();
  for (std::uint32_t step = 0; step < cfg.nsteps; ++step) {
    if (!wall_clock) rotate_cpu();
    const std::int64_t step_start = now_ns();
    bh::BhTree tree;
    std::vector<sim::NodeId> owner;
    gas::GPtr<bh::Cell> root;
    log.time("bh.build", [&] { tree = bh::BhTree::build(bodies); });
    log.time("bh.com", [&] { tree.compute_com(bodies); });
    log.time("bh.costzones",
             [&] { owner = bh::costzone_owners(tree, bodies, c.nodes); });
    log.time("bh.materialize", [&] {
      root = bh::materialize(tree, bodies, owner, cluster.heap);
    });
    if (log.on()) count_heap(cluster.heap, seg);

    bh::ForceParams params;
    std::vector<rt::NodeWork> work;
    std::vector<std::vector<std::int32_t>> owned(c.nodes);  // read by work
    log.time("bh.make_work", [&] {
      for (const std::int32_t bi : tree.order)
        owned[owner[std::size_t(bi)]].push_back(bi);
      for (bh::Body& b : bodies) {
        b.acc = apps::Vec3{};
        b.work = 0;
      }
      params.theta2 = cfg.theta * cfg.theta;
      params.eps2 = cfg.eps * cfg.eps;
      params.use_quadrupole = cfg.use_quadrupole;
      params.cost_interaction = cfg.cost_interaction;
      params.cost_interaction_quad = cfg.cost_interaction_quad;
      params.cost_open = cfg.cost_open;
      params.cost_body_start = cfg.cost_body_start;
      work = bh::make_force_work(bodies, owned, root, &params);
    });

    rt::PhaseResult result;
    std::int64_t outside = 0;
    {
      exec::ScopedPhaseSpan span_bodies(
          cluster.exec(),
          exec::PhaseSpan{bodies.data(), bodies.size() * sizeof(bh::Body),
                          exec::SpanMerge::kBytes});
      exec::ScopedPhaseSpan span_inter(
          cluster.exec(),
          exec::PhaseSpan{&params.interactions, sizeof(params.interactions),
                          exec::SpanMerge::kSumU64});
      exec::ScopedPhaseSpan span_opens(
          cluster.exec(), exec::PhaseSpan{&params.opens, sizeof(params.opens),
                                           exec::SpanMerge::kSumU64});
      outside = log.time("phase.run", [&] {
        result = m.runner->run(std::move(work), "bh.force");
      });
    }
    st.completed = st.completed && result.completed;
    const bh::WalkCounts wc{params.interactions.load(std::memory_order_relaxed),
                            params.opens.load(std::memory_order_relaxed)};
    counts.push_back(wc);
    st.step_work.push_back(wc.interactions + wc.opens);
    st.elapsed.push_back(result.elapsed);
    seg.absorb(result, double(outside),
               wall_clock ? double(outside - result.elapsed) : 0.0);
    seg.work_units += wc.interactions + wc.opens;

    log.time("bh.integrate", [&] {
      for (bh::Body& b : bodies) {
        b.vel += b.acc * cfg.dt;
        b.pos += b.vel * cfg.dt;
      }
    });
    seg.host_ns += double(now_ns() - step_start - outside);
  }
  seg.loop_ns += double(now_ns() - loop_start);

  if (probe_empty) probe_empty_phases(b, m, seg);

  st.why = check_bh(counts, bodies, b.oracle);
  st.bytes = bh_bytes(bodies);
  return st;
}

// ----- FMM -------------------------------------------------------------------

fmm::FmmConfig fmm_config(const Config& c) {
  fmm::FmmConfig cfg;
  cfg.nparticles = c.particles;
  cfg.terms = c.terms;
  cfg.nsteps = c.steps;
  cfg.seed = c.seed;
  return cfg;
}

// FmmApp::run_sequential covers the first step: the oracle checks step 0's
// forces and work counts.
std::string check_fmm(std::uint64_t m2l, std::uint64_t p2p,
                      const std::vector<fmm::Cmplx>& forces,
                      const Oracle& oracle) {
  const auto& seq = oracle.fmm;
  if (m2l != seq.m2l || p2p != seq.p2p_pairs)
    return "step 0 M2L/P2P counts differ from oracle";
  for (std::size_t i = 0; i < forces.size(); ++i) {
    const double scale = std::max(1e-12, std::abs(seq.forces[i]));
    if (std::abs(forces[i] - seq.forces[i]) / scale > 1e-9)
      return "particle " + std::to_string(i) + " force off the oracle";
  }
  return {};
}

std::string fmm_bytes(const std::vector<fmm::Particle>& particles) {
  std::string out;
  for (const fmm::Particle& p : particles) {
    const double v[6] = {p.z.real(),   p.z.imag(),     p.vel.real(),
                         p.vel.imag(), p.force.real(), p.force.imag()};
    append_doubles(out, v, 6);
  }
  return out;
}

// Mirrors FmmApp::run step for step.
EpisodeState fmm_episode(Bench& b, obs::Session* obs, Segment& seg,
                         bool probe_empty) {
  const Config& c = b.cfg;
  SpanLog& log = b.log;
  const fmm::FmmConfig cfg = fmm_config(c);
  const bool wall_clock = c.backend != exec::BackendKind::kSim;
  const std::int64_t t0 = now_ns();
  std::vector<fmm::Particle> particles;
  log.time("setup.inputs", [&] {
    particles = fmm::make_particles(cfg.nparticles, cfg.seed);
  });
  Machine m = build_machine(b, obs);
  rt::Cluster& cluster = *m.cluster;
  seg.setup_s.push_back(double(now_ns() - t0) / 1e9);

  EpisodeState st;
  std::uint64_t m2l0 = 0, p2p0 = 0;
  std::vector<fmm::Cmplx> forces0;
  const std::int64_t loop_start = now_ns();
  for (std::uint32_t step = 0; step < cfg.nsteps; ++step) {
    if (!wall_clock) rotate_cpu();
    const std::int64_t step_start = now_ns();
    fmm::FmmTree tree;
    fmm::FmmTree::Partition part;
    log.time("fmm.build", [&] { tree = fmm::FmmTree::build(particles); });
    log.time("fmm.lists", [&] { tree.build_lists(cfg.ws_ratio); });
    log.time("fmm.upward", [&] { tree.upward(particles, cfg.terms); });
    log.time("fmm.partition", [&] { part = tree.partition(c.nodes, cfg); });

    for (fmm::Particle& p : particles) p.force = fmm::Cmplx{};
    fmm::PhaseContext pc;
    pc.tree = &tree;
    pc.particles = &particles;
    pc.cfg = cfg;
    log.time("fmm.materialize", [&] {
      pc.cells = tree.materialize(particles, cfg.terms, part.cell_owner,
                                  cluster.heap);
    });
    if (log.on()) count_heap(cluster.heap, seg);

    rt::PhaseResult result;
    std::int64_t outside = 0;
    {
      std::vector<std::unique_ptr<exec::ScopedPhaseSpan>> spans;
      std::vector<rt::NodeWork> work;
      log.time("fmm.make_work", [&] {
        spans.push_back(std::make_unique<exec::ScopedPhaseSpan>(
            cluster.exec(),
            exec::PhaseSpan{particles.data(),
                            particles.size() * sizeof(fmm::Particle),
                            exec::SpanMerge::kBytes}));
        for (std::size_t i = 0; i < tree.num_cells(); ++i) {
          const std::span<fmm::Cmplx> local = tree.local(std::int32_t(i));
          if (local.empty()) continue;
          spans.push_back(std::make_unique<exec::ScopedPhaseSpan>(
              cluster.exec(),
              exec::PhaseSpan{local.data(), local.size() * sizeof(fmm::Cmplx),
                              exec::SpanMerge::kBytes}));
        }
        spans.push_back(std::make_unique<exec::ScopedPhaseSpan>(
            cluster.exec(),
            exec::PhaseSpan{&pc.m2l_done, sizeof(pc.m2l_done),
                            exec::SpanMerge::kSumU64}));
        spans.push_back(std::make_unique<exec::ScopedPhaseSpan>(
            cluster.exec(),
            exec::PhaseSpan{&pc.p2p_pairs_done, sizeof(pc.p2p_pairs_done),
                            exec::SpanMerge::kSumU64}));
        work = fmm::make_interaction_work(&pc, part);
      });
      outside = log.time("phase.run", [&] {
        result = m.runner->run(std::move(work), "fmm.interact");
      });
      log.time("fmm.downward",
               [&] { tree.downward_and_evaluate(particles, cfg.terms); });
    }
    st.completed = st.completed && result.completed;
    const std::uint64_t m2l = pc.m2l_done.load(std::memory_order_relaxed);
    const std::uint64_t p2p = pc.p2p_pairs_done.load(std::memory_order_relaxed);
    if (step == 0) {
      m2l0 = m2l;
      p2p0 = p2p;
      for (const fmm::Particle& p : particles) forces0.push_back(p.force);
    }
    st.step_work.push_back(m2l + p2p);
    st.elapsed.push_back(result.elapsed);
    seg.absorb(result, double(outside),
               wall_clock ? double(outside - result.elapsed) : 0.0);
    seg.work_units += m2l + p2p;

    log.time("fmm.integrate", [&] {
      for (fmm::Particle& p : particles) {
        p.vel += p.force * cfg.dt;
        p.z += p.vel * cfg.dt;
      }
    });
    seg.host_ns += double(now_ns() - step_start - outside);
  }
  seg.loop_ns += double(now_ns() - loop_start);

  if (probe_empty) probe_empty_phases(b, m, seg);

  st.why = check_fmm(m2l0, p2p0, forces0, b.oracle);
  st.bytes = fmm_bytes(particles);
  return st;
}

// ----- em3d ------------------------------------------------------------------

em3d::Em3dConfig em3d_config(const Config& c) {
  em3d::Em3dConfig cfg;
  cfg.e_per_node = c.objects;
  cfg.h_per_node = c.objects;
  cfg.remote_prob = c.remote_prob;
  cfg.iters = c.steps;
  cfg.seed = c.seed;
  return cfg;
}

std::string check_em3d(const em3d::Em3dRun& run, const Oracle& oracle) {
  const auto& seq = oracle.em3d;
  if (run.e_values.size() != seq.e_values.size() ||
      run.h_values.size() != seq.h_values.size())
    return "value count differs from oracle";
  for (std::size_t i = 0; i < seq.e_values.size(); ++i)
    if (std::abs(run.e_values[i] - seq.e_values[i]) > 1e-12)
      return "E value " + std::to_string(i) + " off the oracle";
  for (std::size_t i = 0; i < seq.h_values.size(); ++i)
    if (std::abs(run.h_values[i] - seq.h_values[i]) > 1e-12)
      return "H value " + std::to_string(i) + " off the oracle";
  return {};
}

// Em3dApp::run owns its phase loop; set-up here is the graph build plus a
// Cluster + PhaseRunner construction of the same shape as the one run()
// builds (also the cluster the empty-phase probe uses).
EpisodeState em3d_episode(Bench& b, obs::Session* obs, Segment& seg,
                          bool probe_empty) {
  const Config& c = b.cfg;
  SpanLog& log = b.log;
  const em3d::Em3dConfig cfg = em3d_config(c);
  const bool wall_clock = c.backend != exec::BackendKind::kSim;
  const std::int64_t t0 = now_ns();
  std::unique_ptr<em3d::Em3dApp> app;
  log.time("setup.inputs",
           [&] { app = std::make_unique<em3d::Em3dApp>(cfg, c.nodes); });
  std::int64_t cluster_ns = 0;
  {
    Machine m = build_machine(b, nullptr);
    seg.setup_s.push_back(double(now_ns() - t0) / 1e9);
    cluster_ns = m.build_ns;
    if (probe_empty) probe_empty_phases(b, m, seg);
  }

  em3d::Em3dRun run;
  const std::int64_t run_ns = log.time(
      "em3d.run", [&] { run = app->run(b.net, b.rcfg, obs, c.backend); });
  seg.loop_ns += double(run_ns);

  EpisodeState st;
  double elapsed_sum = 0;
  for (const em3d::Em3dStep& s : run.steps) {
    st.completed = st.completed && s.phase.completed;
    st.elapsed.push_back(s.phase.elapsed);
    elapsed_sum += double(s.phase.elapsed);
  }
  // The runner's share of run() outside the phases, spread per phase: an
  // upper bound (it also holds run()'s cluster build and heap allocation,
  // less the measured construction cost above).
  const double outside_each =
      run.steps.empty()
          ? 0
          : std::max(0.0, double(run_ns) - elapsed_sum - double(cluster_ns)) /
                double(run.steps.size());
  const std::uint64_t edges_per_phase =
      app->total_edges() / 2;  // one side relaxes per phase
  for (const em3d::Em3dStep& s : run.steps) {
    seg.absorb(s.phase, double(s.phase.elapsed),
               wall_clock ? outside_each : 0.0);
    st.step_work.push_back(edges_per_phase);
    seg.work_units += edges_per_phase;
  }
  if (log.on()) {
    const double objects = 2.0 * double(c.nodes) * double(c.objects);
    seg.heap_objects += objects * double(run.steps.size());
    seg.heap_bytes +=
        objects * double(sizeof(em3d::GNode)) * double(run.steps.size());
  }

  st.why = check_em3d(run, b.oracle);
  append_doubles(st.bytes, run.e_values.data(), run.e_values.size());
  append_doubles(st.bytes, run.h_values.data(), run.h_values.size());
  return st;
}

// ---------------------------------------------------------------------------

// A run: the episodes' inputs plus the ledger of attempted and failed
// phases.
struct Run : Bench {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;
  EpisodeState last;

  void fail(std::uint64_t phases, const std::string& why) {
    failed += phases;
    if (failures.size() < 8) failures.push_back(why);
  }

  EpisodeState episode(obs::Session* obs, Segment& seg, bool probe_empty) {
    switch (cfg.app) {
      case App::kBh: return bh_episode(*this, obs, seg, probe_empty);
      case App::kFmm: return fmm_episode(*this, obs, seg, probe_empty);
      case App::kEm3d: return em3d_episode(*this, obs, seg, probe_empty);
    }
    return {};
  }

  // One checked episode: every phase it ran is attempted; all of them fail
  // when one did not complete or the result misses the oracle.
  void checked_episode(obs::Session* obs, Segment& seg, bool probe_empty) {
    const std::uint64_t before = seg.phases;
    last = episode(obs, seg, probe_empty);
    const std::uint64_t n = seg.phases - before;
    attempted += n;
    if (!last.completed)
      fail(n, "a phase did not complete");
    else if (!last.why.empty())
      fail(n, "episode result misses the oracle: " + last.why);
  }

  // Runs episodes for `seconds` of wall time (at least one), after one
  // warm-up episode that fills the allocator and page tables. With
  // `probes`, one more episode afterwards runs the empty-phase probe on its
  // own cluster. Warm-up and probe episodes are checked but not sampled.
  Segment segment(double seconds, obs::Session* obs, bool probes) {
    Segment warmup;
    checked_episode(nullptr, warmup, false);
    Segment seg;
    const std::int64_t deadline = now_ns() + std::int64_t(seconds * 1e9);
    do {
      checked_episode(obs, seg, false);
    } while (now_ns() < deadline);
    if (probes) {
      Segment probe;
      checked_episode(nullptr, probe, true);
      seg.empty_phase_us = probe.empty_phase_us;
    }
    return seg;
  }

  // The app's own run() on the same backend and inputs must reproduce the
  // driver's per-step work counts and pass the same oracle; on the
  // deterministic simulator it must also match the driver's bytes and
  // modeled phase times.
  void same_program_check() {
    std::vector<std::uint64_t> work;
    std::vector<rt::Time> elapsed;
    std::string bytes;
    std::string why;
    bool completed = false;
    if (cfg.app == App::kBh) {
      const auto run = bh::BarnesApp(bh_config(cfg))
                           .run(cfg.nodes, net, rcfg, nullptr, cfg.backend);
      std::vector<bh::WalkCounts> counts;
      for (const auto& s : run.steps) {
        counts.push_back(bh::WalkCounts{s.interactions, s.opens});
        work.push_back(s.interactions + s.opens);
        elapsed.push_back(s.phase.elapsed);
      }
      completed = run.all_completed();
      why = check_bh(counts, run.final_bodies, oracle);
      bytes = bh_bytes(run.final_bodies);
    } else if (cfg.app == App::kFmm) {
      const auto run = fmm::FmmApp(fmm_config(cfg))
                           .run(cfg.nodes, net, rcfg, nullptr, cfg.backend);
      for (const auto& s : run.steps) {
        work.push_back(s.m2l + s.p2p_pairs);
        elapsed.push_back(s.phase.elapsed);
      }
      completed = run.all_completed();
      if (run.steps.size() == 1) {
        std::vector<fmm::Cmplx> forces;
        for (const auto& p : run.final_particles) forces.push_back(p.force);
        why = check_fmm(run.steps[0].m2l, run.steps[0].p2p_pairs, forces,
                        oracle);
      }
      bytes = fmm_bytes(run.final_particles);
    } else {
      return;  // em3d episodes already are Em3dApp::run
    }
    attempted += work.size();
    if (!completed)
      fail(work.size(), "app run(): a phase did not complete");
    else if (!why.empty())
      fail(work.size(), "app run() misses the oracle: " + why);
    else if (work != last.step_work)
      fail(work.size(), "app run() work counts differ from the driver's");
    else if (cfg.backend == exec::BackendKind::kSim &&
             (bytes != last.bytes || elapsed != last.elapsed))
      fail(work.size(),
           "app run() on sim is not byte-identical to the driver's episode");
  }

  // bh-sim at its defined sizes: the modeled phase times of the golden seed
  // must equal the committed values.
  void golden_check() {
    if (cfg.workload != "bh-sim" || cfg.sizes_overridden) return;
    std::ifstream in(kGoldenPath);
    std::stringstream text;
    text << in.rdbuf();
    const JsonParseResult parsed = json_parse(text.str());
    const JsonValue* entry = parsed ? parsed.value->find("bh-sim") : nullptr;
    const JsonValue* seed = entry ? entry->find("seed") : nullptr;
    const JsonValue* want = entry ? entry->find("model_phase_ns") : nullptr;
    if (seed == nullptr || want == nullptr || !seed->is_number() ||
        !want->is_array()) {
      attempted += 1;
      fail(1, std::string("no bh-sim golden in ") + kGoldenPath);
      return;
    }
    std::vector<rt::Time> got = last.elapsed;
    if (std::uint64_t(seed->as_number()) != cfg.seed) {
      bh::BarnesConfig golden_cfg = bh_config(cfg);
      golden_cfg.seed = std::uint64_t(seed->as_number());
      const auto run = bh::BarnesApp(golden_cfg).run(cfg.nodes, net, rcfg);
      got.clear();
      for (const auto& s : run.steps) got.push_back(s.phase.elapsed);
    }
    std::vector<rt::Time> expected;
    for (const JsonValue& v : want->as_array())
      expected.push_back(rt::Time(v.as_number()));
    attempted += got.size();
    if (got != expected)
      fail(got.size(), "bh-sim modeled phase times differ from the golden");
  }
};

// ---------------------------------------------------------------------------
// Reporting

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

double peak_rss_mb() {
  rusage self{}, children{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &children);
  return double(self.ru_maxrss + children.ru_maxrss) / 1024.0;
}

// The highest percentile with at least ten samples beyond it, capped at p90.
double tail_q(std::size_t n) {
  if (n >= 100) return 0.9;
  const double q = std::floor(100.0 * (1.0 - 10.0 / double(n))) / 100.0;
  return std::max(0.5, q);
}

std::vector<Metric> end_to_end(const Segment& seg, double rss_mb) {
  return {
      {"phase_ms_p50", median(seg.phase_ms), "ms"},
      {"phase_ms_p90", quantile(seg.phase_ms, tail_q(seg.phase_ms.size())),
       "ms"},
      {"work_per_s", ratio(double(seg.work_units), seg.loop_ns / 1e9), "1/s"},
      {"setup_s", median(seg.setup_s), "s"},
      {"peak_rss_mb", rss_mb, "MB"},
  };
}

// Times encode_frame + decode_frame of one frame with `payloads` payloads
// of `payload_bytes` each; median ns per round trip over 15 batches.
double frame_codec_ns(std::uint32_t payloads, std::uint32_t payload_bytes,
                      SpanLog& log, bool* ok) {
  std::vector<transport::FramePayload> train(payloads);
  for (std::uint32_t i = 0; i < payloads; ++i) {
    train[i].tag = 1;
    train[i].seq = i + 1;
    train[i].bytes.assign(payload_bytes, std::uint8_t(i));
  }
  constexpr int kBatch = 200;
  std::vector<double> per_op;
  std::vector<std::uint8_t> buf;
  transport::DecodedFrame frame;
  log.time("probe.frame_codec", [&] {
    for (int b = 0; b < 15; ++b) {
      const std::int64_t t0 = now_ns();
      for (int i = 0; i < kBatch; ++i) {
        buf.clear();
        transport::encode_frame(0, 1, 7, 0, train, &buf);
        std::size_t consumed = 0;
        const auto status =
            transport::decode_frame(buf.data(), buf.size(), &frame, &consumed);
        if (status != transport::DecodeStatus::kOk || consumed != buf.size() ||
            frame.payloads.size() != payloads)
          *ok = false;
      }
      per_op.push_back(double(now_ns() - t0) / kBatch);
    }
  });
  return median(per_op);
}

std::vector<Metric> per_layer(Run& r, const Segment& plain, const Segment& t,
                              const obs::Session& s) {
  const Config& c = r.cfg;
  const auto& m = s.metrics;
  const double phases = double(std::max<std::uint64_t>(1, t.phases));
  const bool sim = c.backend == exec::BackendKind::kSim;
  auto per_phase = [&](std::string_view counter) {
    return double(m.counter_value(counter)) / phases;
  };
  auto hist = [&](std::string_view name, double q) {
    const Pow2Histogram* h = m.find_histogram(name);
    return h != nullptr ? double(h->quantile_bound(q)) : 0.0;
  };

  // The sequential oracle, timed per step (median of three).
  std::vector<double> seq_ms;
  for (int i = 0; i < 3; ++i) {
    std::int64_t ns = 0;
    double steps = 1;
    switch (c.app) {
      case App::kBh: {
        const bh::BarnesApp app(bh_config(c));
        ns = r.log.time("oracle.run_sequential", [&] { app.run_sequential(); });
        steps = c.steps;
        break;
      }
      case App::kFmm: {
        const fmm::FmmApp app(fmm_config(c));
        ns = r.log.time("oracle.run_sequential", [&] { app.run_sequential(); });
        break;
      }
      case App::kEm3d: {
        const em3d::Em3dApp app(em3d_config(c), c.nodes);
        ns = r.log.time("oracle.run_sequential", [&] { app.run_sequential(); });
        steps = 2.0 * c.steps;
        break;
      }
    }
    seq_ms.push_back(double(ns) / 1e6 / steps);
  }

  // A frame shaped like the workload's mean train.
  const double msgs = double(m.counter_value("fm.msgs_sent"));
  const double trains = double(m.counter_value("exec.trains"));
  const double msgs_per_train = ratio(msgs, trains);
  bool codec_ok = true;
  const double codec_ns = frame_codec_ns(
      std::uint32_t(std::max(1.0, std::round(msgs_per_train))),
      std::uint32_t(std::max(
          1.0, std::round(ratio(double(m.counter_value("fm.bytes_sent")),
                                msgs)))),
      r.log, &codec_ok);
  r.attempted += 1;
  if (!codec_ok) r.fail(1, "frame codec round trip failed");

  const double events = double(m.counter_value("sim.events"));
  double phase_ns_sum = 0;
  for (const double ms : t.phase_ms) phase_ns_sum += ms * 1e6;
  const std::uint64_t dropped =
      s.tracer.dropped() + (s.shards ? s.shards->dropped_total() : 0);

  return {
      {"apps.seq_step_ms", median(seq_ms), "ms"},
      {"apps.host_step_ms", t.host_ns / phases / 1e6, "ms"},
      {"apps.work_units", double(t.work_units) / phases, "count/phase"},
      {"gas.heap_objects", t.heap_objects / phases, "count"},
      {"gas.heap_bytes", t.heap_bytes / phases, "B"},
      {"runtime.threads_per_tile",
       ratio(double(t.rt.threads_run), double(t.rt.tiles_run)), "ratio"},
      {"runtime.agg_factor",
       ratio(double(t.rt.refs_requested), double(t.rt.request_msgs)), "ratio"},
      {"runtime.request_msgs", double(t.rt.request_msgs) / phases,
       "count/phase"},
      {"runtime.dup_refs_avoided", double(t.rt.dup_refs_avoided) / phases,
       "count/phase"},
      {"runtime.max_outstanding_threads",
       double(t.rt.max_outstanding_threads), "count"},
      {"runtime.max_m_entries", double(t.rt.max_m_entries), "count"},
      {"runtime.runner_overhead_ms", t.runner_overhead_ns / phases / 1e6,
       "ms"},
      {"runtime.model_phase_ms", sim ? t.elapsed_ns / phases / 1e6 : 0.0,
       "ms"},
      {"exec.tasks", per_phase("exec.tasks"), "count/phase"},
      {"exec.steals", per_phase("exec.steals"), "count/phase"},
      {"exec.activations", per_phase("exec.activations"), "count/phase"},
      {"exec.parks", per_phase("exec.parks"), "count/phase"},
      {"exec.task_service_ns_p50", hist("exec.task_service_ns", 0.5), "ns"},
      {"exec.task_service_ns_p99", hist("exec.task_service_ns", 0.99), "ns"},
      {"exec.queue_depth_p90", hist("exec.queue_depth", 0.9), "count"},
      {"exec.mailbox_wait_ns_p99", hist("exec.mailbox_wait_ns", 0.99), "ns"},
      {"exec.park_ns_p90", hist("exec.park_ns", 0.9), "ns"},
      {"exec.empty_phase_us", median(t.empty_phase_us), "us"},
      {"transport.msgs_per_train", msgs_per_train, "ratio"},
      {"transport.wire_frames", per_phase("transport.wire_frames_sent"),
       "count/phase"},
      {"transport.wire_bytes", per_phase("transport.wire_bytes_sent"),
       "B/phase"},
      {"transport.payloads_per_frame",
       ratio(double(m.counter_value("transport.wire_payloads_recv")),
             double(m.counter_value("transport.wire_frames_recv"))),
       "ratio"},
      {"transport.acks_per_frame",
       ratio(double(m.counter_value("transport.wire_acks_sent")),
             double(m.counter_value("transport.wire_frames_sent"))),
       "ratio"},
      {"transport.wire_retries", per_phase("transport.wire_retries"),
       "count/phase"},
      {"transport.frame_codec_ns", codec_ns, "ns"},
      {"sim.events", events / phases, "count/phase"},
      {"sim.host_ns_per_event", sim ? ratio(phase_ns_sum, events) : 0.0, "ns"},
      {"fm.msgs_sent", per_phase("fm.msgs_sent"), "count/phase"},
      {"net.bytes", per_phase("net.bytes"), "B/phase"},
      {"obs.trace_overhead", ratio(median(t.phase_ms), median(plain.phase_ms)),
       "ratio"},
      {"obs.trace_dropped", double(dropped), "count"},
  };
}

void manifest_fields(JsonWriter& w, const Config& c) {
  w.field("git_rev", c.git_rev)
        .field("build_type", DPA_BENCH_BUILD_TYPE)
        .field("dpa_trace", obs::kTraceEnabled)
        .field("workload", c.workload)
        .field("backend", backend_name(c.backend))
        .field("nodes", std::uint64_t(c.nodes))
        .field("workers", std::uint64_t(c.workers))
        .field("procs", std::uint64_t(c.procs))
        .field("host_nproc", std::uint64_t(host_nproc()))
        .field("seed", std::uint64_t(c.seed))
        .field("seconds", c.seconds)
        .field("trace", c.trace)
      .field("argv", c.argv);
}

std::string manifest_json(const Config& c) {
  JsonWriter w;
  {
    auto o = w.obj();
    manifest_fields(w, c);
  }
  return w.str();
}

// The run's file: manifest, metrics and the driver's spans.
void write_out_file(const Run& r, const std::vector<Metric>& metrics) {
  const Config& c = r.cfg;
  std::error_code ec;
  std::filesystem::create_directories(kOutDir, ec);
  const std::string path = std::string(kOutDir) + "/" + c.workload + "-seed" +
                           std::to_string(c.seed) + "-trace" +
                           (c.trace ? "1" : "0") + ".json";
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
    return;
  }
  JsonWriter w;
  {
    auto o = w.obj();
    w.field("schema", "dpa.perfbench.v1");
    {
      auto mo = w.obj("manifest");
      manifest_fields(w, c);
    }
    {
      auto mo = w.obj("metrics");
      for (const Metric& m : metrics) w.field(m.name, m.value);
    }
    const auto& spans = r.log.spans();
    const std::int64_t base = spans.empty() ? 0 : spans.front().start;
    auto sa = w.arr("spans");
    for (const auto& s : spans) {
      auto so = w.obj();
      w.field("name", s.name)
          .field("start_ns", std::int64_t(s.start - base))
          .field("dur_ns", std::int64_t(s.end - s.start))
          .field("parent", std::int64_t(s.parent));
    }
  }
  out << w.str() << "\n";
}

int run_main(int argc, char** argv) {
  Run r;
  Config& c = r.cfg;
  if (const std::string err = parse_flags(argc, argv, c); !err.empty()) {
    std::fprintf(stderr, "dpa_perfbench: %s\n%s", err.c_str(), kUsage);
    return 2;
  }
  if (c.backend != exec::BackendKind::kSim) {
    exec::NativeBackend::Tuning tuning = exec::NativeBackend::default_tuning();
    tuning.workers = c.workers;
    exec::NativeBackend::set_default_tuning(tuning);
  }
  if (c.backend == exec::BackendKind::kProc) {
    exec::ProcBackend::Config pc = exec::ProcBackend::default_config();
    pc.procs = c.procs;
    exec::ProcBackend::set_default_config(pc);
  }
  if (c.backend == exec::BackendKind::kSim) {
    // Cray T3D through Illinois Fast Messages, as the paper's harnesses
    // model it (bench/common.h t3d_params()).
    r.net.send_overhead = 2200;
    r.net.recv_overhead = 2600;
    r.net.latency = 2800;
    r.net.ns_per_byte = 33.0;
    r.net.per_msg_wire = 300;
    r.net.nic_serialize = true;
    r.net.mtu_bytes = 4096;
  }

  switch (c.app) {
    case App::kBh:
      r.oracle.bh = bh::BarnesApp(bh_config(c)).run_sequential();
      if (c.corrupt_reference) r.oracle.bh.back().acc[0].x += 1.0;
      break;
    case App::kFmm:
      r.oracle.fmm = fmm::FmmApp(fmm_config(c)).run_sequential();
      if (c.corrupt_reference) r.oracle.fmm.forces[0] += 1.0;
      break;
    case App::kEm3d:
      r.oracle.em3d = em3d::Em3dApp(em3d_config(c), c.nodes).run_sequential();
      if (c.corrupt_reference) r.oracle.em3d.e_values[0] += 1.0;
      break;
  }

  // Proc workers are forked from this process: nothing may sit in stdio
  // buffers while phases run.
  std::fflush(stdout);
  std::vector<Metric> metrics;
  std::string tail_note;
  if (!c.trace) {
    const Segment seg = r.segment(c.seconds, nullptr, false);
    metrics = end_to_end(seg, peak_rss_mb());
    char buf[128];
    std::snprintf(buf, sizeof buf,
                  "phase_ms_p90 is p%.0f of %zu phases; slowest %.1f ms",
                  100 * tail_q(seg.phase_ms.size()), seg.phase_ms.size(),
                  quantile(seg.phase_ms, 1.0));
    tail_note = buf;
  } else {
    const Segment plain = r.segment(c.seconds / 2, nullptr, false);
    obs::Session session;
    r.log.enable();
    const Segment traced = r.segment(c.seconds / 2, &session, true);
    metrics = per_layer(r, plain, traced, session);
  }
  r.same_program_check();
  r.golden_check();

  write_out_file(r, metrics);
  std::printf("manifest %s\n", manifest_json(c).c_str());
  for (const std::string& f : r.failures)
    std::printf("FAILED: %s\n", f.c_str());
  if (!tail_note.empty()) std::printf("note: %s\n", tail_note.c_str());
  if (c.backend == exec::BackendKind::kSim) {
    std::printf("model_phase_ns:");
    for (const rt::Time t : r.last.elapsed) std::printf(" %lld", (long long)t);
    std::printf("\n");
  }
  for (const Metric& m : metrics)
    std::printf("metric %s = %.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  std::printf("metric fail_frac = %.6g fraction (%llu of %llu phases)\n",
              ratio(double(r.failed), double(r.attempted)),
              (unsigned long long)r.failed, (unsigned long long)r.attempted);

  std::string line = "{\"correct\": ";
  line += r.failed == 0 ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(r.attempted);
  line += ", \"failed\": " + std::to_string(r.failed);
  line += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i ? ", " : "", metrics[i].name.c_str(), metrics[i].value,
                  metrics[i].unit.c_str());
    line += buf;
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  return r.failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace dpa::perfbench

int main(int argc, char** argv) {
  return dpa::perfbench::run_main(argc, argv);
}
