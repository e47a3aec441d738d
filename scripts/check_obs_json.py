#!/usr/bin/env python3
"""Schema checks for the observability JSON artifacts the benches emit.

Usage:
  check_obs_json.py --trace trace.json [--require-events]
  check_obs_json.py --metrics metrics.json [--require-native]
  check_obs_json.py --bench t2.json
  check_obs_json.py --flightrec flight.json

Validates that a Chrome trace is loadable (well-formed traceEvents with
monotone-ready timestamps, per-worker drop counts consistent with the
total; with --require-events, the spans its recorder must have written:
`task` and `wire` in a single-ring sim trace, `run` in a sharded native
one), that a metrics snapshot follows dpa.metrics.v1 (--require-native
additionally demands the native backend's exec.* wall-clock histograms),
that bench --json output embeds a metrics block, that any metrics block
whose run dropped messages (net.fault.dropped_msgs > 0) shows FM's
recovery covering them, that every metrics block conserves messages (FM's
sent and received counts and bytes agree when no fault plan was armed;
proc's socket frames sent and received agree), and that a watchdog
flight-recorder dump follows dpa.flightrec.v2 (per-node quiescence state
plus the M:N pool's per-worker scheduler state). Exits non-zero on the
first violation.
"""

import argparse
import json
import sys


def fail(msg):
    print(f"check_obs_json: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def check_trace(path, require_events):
    with open(path) as f:
        doc = json.load(f)
    for key in ("traceEvents", "recorded_events", "dropped_events"):
        if key not in doc:
            fail(f"{path}: missing key {key!r}")
    events = doc["traceEvents"]
    if not isinstance(events, list):
        fail(f"{path}: traceEvents is not a list")
    valid_ph = {"X", "B", "E", "i", "M"}
    last_ts = None
    timed = 0
    spans = {}
    for i, ev in enumerate(events):
        if ev.get("ph") not in valid_ph:
            fail(f"{path}: event {i} has unexpected ph {ev.get('ph')!r}")
        if "pid" not in ev or "tid" not in ev or "name" not in ev:
            fail(f"{path}: event {i} missing pid/tid/name")
        if ev["ph"] == "M":
            continue
        ts = ev.get("ts")
        if not isinstance(ts, (int, float)):
            fail(f"{path}: event {i} has no numeric ts")
        if last_ts is not None and ts < last_ts:
            fail(f"{path}: timestamps not sorted at event {i}: "
                 f"{ts} < {last_ts}")
        last_ts = ts
        timed += 1
        if ev["ph"] == "X":
            if not isinstance(ev.get("dur"), (int, float)):
                fail(f"{path}: X event {i} missing dur")
            spans[ev["name"]] = spans.get(ev["name"], 0) + 1
    if require_events and timed == 0:
        fail(f"{path}: no timed events (expected some with DPA_TRACE=ON)")
    if require_events:
        # Phase markers alone do not make a trace: the sim machine and
        # network record task and wire spans into the single tracer ring;
        # a sharded (native) trace carries its workers' run spans.
        needed = (("run",) if "dropped_by_worker" in doc
                  else ("task", "wire"))
        for name in needed:
            if spans.get(name, 0) == 0:
                fail(f"{path}: no {name!r} spans — its recorder was not "
                     f"attached")
    if "dropped_by_worker" in doc:
        per_worker = doc["dropped_by_worker"]
        if not isinstance(per_worker, list):
            fail(f"{path}: dropped_by_worker is not a list")
        for w, d in enumerate(per_worker):
            if not isinstance(d, int) or d < 0:
                fail(f"{path}: dropped_by_worker[{w}] is not a "
                     f"non-negative int")
        if sum(per_worker) > doc["dropped_events"]:
            fail(f"{path}: dropped_by_worker sums to {sum(per_worker)} > "
                 f"dropped_events {doc['dropped_events']}")
    print(f"check_obs_json: OK: {path}: {timed} timed events, "
          f"{doc['dropped_events']} dropped")


# Wall-clock profile histograms the native backend publishes per phase
# (bench/common.h --metrics-out with --backend=native).
NATIVE_HISTOGRAMS = (
    "exec.task_service_ns",
    "exec.mailbox_wait_ns",
    "exec.train_occupancy",
    "exec.park_ns",
    "exec.queue_depth",
)


def check_recovery(counters, origin):
    """A faulted run that lost messages must show FM recovering them: every
    drop is covered by a retransmission or by a fabric duplicate that got
    through, and acks flowed."""
    dropped = counters.get("net.fault.dropped_msgs", 0)
    if dropped == 0:
        return
    retries = counters.get("fm.retries", 0)
    dups = counters.get("net.fault.dup_msgs", 0)
    if retries + dups < dropped:
        fail(f"{origin}: fm.retries {retries} + net.fault.dup_msgs {dups} < "
             f"net.fault.dropped_msgs {dropped} — drops went unrecovered")
    acks_sent = counters.get("fm.acks_sent", 0)
    acks_recv = counters.get("fm.acks_recv", 0)
    if not acks_sent >= acks_recv > 0:
        fail(f"{origin}: need fm.acks_sent >= fm.acks_recv > 0 under "
             f"faults, got {acks_sent} sent / {acks_recv} received")


def check_conservation(counters, origin):
    """Every message sent was received. Without a fault plan (no
    net.fault.* counters) FM's counts and bytes balance on every backend;
    proc's socketpair frames balance whenever it publishes them."""
    if not any(name.startswith("net.fault.") for name in counters):
        for sent, recv in (("fm.msgs_sent", "fm.msgs_recv"),
                           ("fm.bytes_sent", "fm.bytes_recv")):
            if counters.get(sent, 0) != counters.get(recv, 0):
                fail(f"{origin}: {sent} {counters.get(sent, 0)} != {recv} "
                     f"{counters.get(recv, 0)} — messages were lost or "
                     f"miscounted")
    if "transport.wire_frames_sent" in counters:
        sent = counters["transport.wire_frames_sent"]
        recv = counters.get("transport.wire_frames_recv", 0)
        if sent != recv:
            fail(f"{origin}: transport.wire_frames_sent {sent} != "
                 f"transport.wire_frames_recv {recv}")


def check_metrics_block(block, origin, require_phases=True):
    for key in ("counters", "gauges", "histograms"):
        if key not in block or not isinstance(block[key], dict):
            fail(f"{origin}: missing or malformed {key!r} object")
    for name, v in block["counters"].items():
        if not isinstance(v, int) or v < 0:
            fail(f"{origin}: counter {name!r} is not a non-negative int")
    for name, g in block["gauges"].items():
        if not {"current", "high_water"} <= set(g):
            fail(f"{origin}: gauge {name!r} missing current/high_water")
    for name, h in block["histograms"].items():
        if not {"count", "p50", "p90", "p99", "buckets"} <= set(h):
            fail(f"{origin}: histogram {name!r} missing fields")
        if sum(h["buckets"]) != h["count"]:
            fail(f"{origin}: histogram {name!r} buckets do not sum to count")
    if (require_phases and "rt.phases" in block["counters"]
            and block["counters"]["rt.phases"] == 0):
        fail(f"{origin}: rt.phases is zero — no phase published metrics")
    check_recovery(block["counters"], origin)
    check_conservation(block["counters"], origin)
    print(f"check_obs_json: OK: {origin}: {len(block['counters'])} counters, "
          f"{len(block['gauges'])} gauges, "
          f"{len(block['histograms'])} histograms")


def check_metrics(path, require_native=False):
    with open(path) as f:
        doc = json.load(f)
    if doc.get("schema") != "dpa.metrics.v1":
        fail(f"{path}: schema is {doc.get('schema')!r}, "
             f"expected 'dpa.metrics.v1'")
    check_metrics_block(doc, path)
    if require_native:
        if doc["counters"].get("exec.tasks", 0) <= 0:
            fail(f"{path}: exec.tasks missing or zero — this was not a "
                 f"native-backend run")
        for name in NATIVE_HISTOGRAMS:
            if name not in doc["histograms"]:
                fail(f"{path}: missing native profile histogram {name!r}")


def check_flightrec(path):
    with open(path) as f:
        doc = json.load(f)
    if doc.get("schema") != "dpa.flightrec.v2":
        fail(f"{path}: schema is {doc.get('schema')!r}, "
             f"expected 'dpa.flightrec.v2'")
    for key, typ in (("reason", str), ("elapsed_ns", int),
                     ("phase_epoch", int), ("stuck_scans", int),
                     ("nodes", list), ("workers", list)):
        if not isinstance(doc.get(key), typ):
            fail(f"{path}: missing or mistyped key {key!r}")
    if not doc["nodes"]:
        fail(f"{path}: empty nodes array")
    for i, n in enumerate(doc["nodes"]):
        for key, typ in (("node", int), ("produced", int), ("consumed", int),
                         ("inbox_depth", int), ("active", bool),
                         ("stuck", bool)):
            if not isinstance(n.get(key), typ):
                fail(f"{path}: node {i} missing or mistyped {key!r}")
        # Per-node consumed > produced is fine (work migrates between
        # nodes); negative counters mean the JSON is garbage.
        if n["produced"] < 0 or n["consumed"] < 0 or n["inbox_depth"] < 0:
            fail(f"{path}: node {i} has a negative counter")
    if not doc["workers"]:
        fail(f"{path}: empty workers array")
    for i, w in enumerate(doc["workers"]):
        for key, typ in (("worker", int), ("runq_depth", int),
                         ("parked", bool), ("parks", int), ("steals", int)):
            if not isinstance(w.get(key), typ):
                fail(f"{path}: worker {i} missing or mistyped {key!r}")
        if w["runq_depth"] < 0 or w["parks"] < 0 or w["steals"] < 0:
            fail(f"{path}: worker {i} has a negative counter")
    if len(doc["workers"]) > len(doc["nodes"]):
        fail(f"{path}: more pool workers ({len(doc['workers'])}) than nodes "
             f"({len(doc['nodes'])}) — the backend clamps the pool to the "
             f"node count")
    outstanding = (sum(n["produced"] for n in doc["nodes"])
                   - sum(n["consumed"] for n in doc["nodes"]))
    if outstanding <= 0:
        fail(f"{path}: no outstanding tasks ({outstanding}) — a watchdog "
             f"dump of a quiescent machine should be impossible")
    if "dropped_by_worker" in doc:
        for w, d in enumerate(doc["dropped_by_worker"]):
            if not isinstance(d, int) or d < 0:
                fail(f"{path}: dropped_by_worker[{w}] is not a "
                     f"non-negative int")
    if "events" in doc:
        for i, ev in enumerate(doc["events"]):
            for key in ("kind", "worker", "node", "seq", "at"):
                if key not in ev:
                    fail(f"{path}: event {i} missing {key!r}")
    if "metrics" in doc:
        # Mid-phase snapshot: the wedged phase never published, so the
        # rt.phases>0 rule does not apply here.
        check_metrics_block(doc["metrics"], f"{path}#metrics",
                            require_phases=False)
    print(f"check_obs_json: OK: {path}: {doc['reason']!r}, "
          f"{len(doc['nodes'])} nodes, {len(doc['workers'])} workers, "
          f"{outstanding} outstanding, "
          f"{len(doc.get('events', []))} ring events")


def check_bench(path):
    with open(path) as f:
        doc = json.load(f)
    if "metrics" not in doc:
        fail(f"{path}: bench JSON has no embedded 'metrics' block")
    check_metrics_block(doc["metrics"], f"{path}#metrics")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--trace", help="Chrome trace-event JSON to validate")
    ap.add_argument("--metrics", help="metrics snapshot JSON to validate")
    ap.add_argument("--bench", help="bench --json output to validate")
    ap.add_argument("--flightrec",
                    help="watchdog flight-recorder JSON to validate")
    ap.add_argument("--require-events", action="store_true",
                    help="fail if the trace holds no timed events")
    ap.add_argument("--require-native", action="store_true",
                    help="fail unless the metrics came from a native run "
                         "(exec.tasks > 0 and the exec.* histograms)")
    args = ap.parse_args()
    if not (args.trace or args.metrics or args.bench or args.flightrec):
        ap.error("nothing to check: pass --trace/--metrics/--bench/"
                 "--flightrec")
    if args.trace:
        check_trace(args.trace, args.require_events)
    if args.metrics:
        check_metrics(args.metrics, args.require_native)
    if args.bench:
        check_bench(args.bench)
    if args.flightrec:
        check_flightrec(args.flightrec)


if __name__ == "__main__":
    main()
