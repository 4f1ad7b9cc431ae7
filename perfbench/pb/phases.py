"""The phases every workload goes through, and the metrics they yield.

Untraced run (--trace 0): oracles (benchmark-side, untimed) -> set-up
(daemon start, preloads, delay annotation, warm-up: `setup_s`) -> timed
phase of whole rounds for --seconds -> end checks -> end-to-end metrics.

Traced run (--trace 1): an untraced and a traced timed phase of a third
of the length each (their work-rate ratio is the tracing overhead), the traced
daemon's own trace lines and `stats` counters, and pbtool's in-process
replay of the recorded requests -> per-layer metrics.
"""

import json
import os

from pb.daemon import Daemon, FrameConn, LineConn, StdioConn
from pb.measure import Recorder, median, tail_quantile

# Request classes folded into the end-to-end metrics.
QUERY = ("query", "density")
EDIT = ("set_delay", "probe")
ANALYZE = ("analyze", "analyze_numeric", "analyze_moment")


def _setup(w, trace_path=None):
    """Daemon start, preloads, annotation and warm-up: returns the
    recorder and the set-up's scaled wall time."""
    setup = Recorder(keep_lines=trace_path is not None)
    w.start(trace_path)
    w.setup(setup)
    setup.close_segment()
    setup.scale()
    return setup, setup.norm_wall


def _timed(w, seconds, keep_lines=False):
    rec = Recorder(keep_lines=keep_lines)
    w.timed(rec, seconds)
    rec.close_segment()
    rec.scale()
    return rec


def cost(rec, classes):
    """Scaled summed sojourn of `classes` per unit of work they carried."""
    units = sum(rec.units[c] for c in classes)
    return sum(rec.norm_seconds[c] for c in classes) / units if units else float("nan")


def end_to_end(rec, setup_s, rss_mb):
    """Totals over the whole timed phase, each time scaled to the
    reference speed by the calibrations around it (measure.Recorder)."""
    m = {
        "work_per_s": (rec.work / rec.norm_wall, "1/s"),
        "analyze_ms_per_kgate": (1e3 * cost(rec, ANALYZE), "ms/kgate"),
        "edit_us_per_edit": (1e6 * cost(rec, EDIT), "us"),
        "reeval_nodes_per_edit": (rec.reevaluated / rec.edits if rec.edits else float("nan"), "nodes"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (rss_mb, "MiB"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


def run(ctx, cls, traced):
    w = cls(ctx)
    w.oracles()
    if not traced:
        setup, setup_s = _setup(w)
        rec = _timed(w, ctx.seconds)
        rss = w.daemon.peak_rss_mb()
        w.final(rec)
        w.stop()
        metrics = end_to_end(rec, setup_s, rss)
        recs = (setup, rec)
    else:
        metrics, recs = traced_run(ctx, w)
    return {
        "correct": not ctx.problems,
        "attempted": sum(r.attempted for r in recs),
        "failed": sum(r.failed for r in recs),
        "metrics": metrics,
    }


GROUPS = {"load": ("load",), "edit": EDIT, "analyze": ANALYZE + ("mc",), "query": QUERY}
REPLAY_LINES = 1500  # recorded requests (after set-up) the replay re-executes


def group_of(cls):
    return next((g for g, classes in GROUPS.items() if cls in classes), "other")


def traced_run(ctx, w):
    # Two phases of a third of --seconds each keep a traced run, with its
    # two set-ups and the replay, well inside the run's time limit.
    half = max(1.0, ctx.seconds / 3.0)
    setup_u, _ = _setup(w)
    plain = _timed(w, half)
    w.final(plain)
    w.stop()

    trace_path = os.path.join(ctx.out, "trace.jsonl")
    setup_t, _ = _setup(w, trace_path)
    traced = _timed(w, half, keep_lines=True)
    stats = w.daemon_stats()
    wire = sum(c.bytes_in + c.bytes_out for c in w.conns())
    requests = setup_t.attempted + traced.attempted
    w.final(traced)
    w.stop()

    lines = setup_t.lines + traced.lines
    if not w.traces_natively:
        # The socket server ignores --trace: replay the recorded requests
        # through a stdio daemon that traces.
        trace_path = replay_traced(ctx, lines)
    layer = trace_metrics(trace_path)
    layer.update(cache_ratios(stats, setup_t, traced))
    layer.update(transport(ctx))
    layer["transport.bytes_per_request"] = (wire / requests, "B")

    replay = ctx.tool_json("layers", layer_spec(ctx, w, setup_t.lines + traced.lines[:REPLAY_LINES]))
    layer.update({k: (v, u) for k, (v, u) in replay["metrics"].items()})
    for group, classes in GROUPS.items():
        client = [x for r in (setup_t, traced) for c in classes for x in r.sojourn.get(c, [])]
        execute = replay["execute_ms"].get(group, float("nan"))
        layer["service.execute_ms." + group] = (execute, "ms")
        layer["service.overhead_ms." + group] = (1e3 * median(client) - execute, "ms")
    for group, classes in GROUPS.items():
        if group == "load":
            continue
        xs = [x for c in classes for x in traced.sojourn.get(c, [])]
        # Below forty samples there is no tail to speak of: the maximum.
        tail = tail_quantile(xs) or (1.0, max(xs))
        layer["client.%s_p50_ms" % group] = (1e3 * median(xs), "ms")
        layer["client.%s_tail_ms" % group] = (1e3 * tail[1], "ms")
        layer["client.%s_tail_q" % group] = (tail[0], "quantile")
        layer["client.%s_count" % group] = (len(xs), "count")
    layer["obs.trace_overhead_ratio"] = ((plain.work / plain.norm_wall) / (traced.work / traced.norm_wall), "ratio")
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in sorted(layer.items())}
    return metrics, (setup_u, plain, setup_t, traced)


def layer_spec(ctx, w, lines):
    path = os.path.join(ctx.out, "lines.jsonl")
    with open(path, "w") as f:
        for cls, line in lines:
            f.write(json.dumps({"group": group_of(cls), "line": line.decode()}) + "\n")
    designs = []
    for d in ctx.manifest["designs"]:
        row = {"name": d["name"], "file": ctx.input_path(d["file"]), "format": d["format"],
               "gates": d["gates"]}
        if d["format"] != "hier":
            row["edits"] = ctx.delay_edits(d)
        designs.append(row)
    return dict(w.LAYER_GRID, designs=designs, seed=ctx.seed, lines=path,
                mc_designs=w.MC_DESIGNS, mc_runs=w.MC_RUNS)


def replay_traced(ctx, lines):
    """The recorded requests, closed loop, through the default stdio
    runtime with --trace. (The pooled stdio runtime, --workers, holds each
    reply until the next request line arrives, so a closed-loop client
    cannot use it: CHANGES.md, FOUND.)"""
    trace_path = os.path.join(ctx.out, "replay-trace.jsonl")
    d = Daemon(ctx.daemon_bin, ctx.out, "replay", args=["--trace=" + trace_path])
    try:
        conn = StdioConn(d)
        for _cls, line in lines:
            req = json.loads(line)
            req.pop("id", None)
            conn.call(req)
    finally:
        d.stop()
    return trace_path


def trace_metrics(path):
    """Medians of the daemon's own queue-wait and serialize spans."""
    queue, ser = [], []
    with open(path) as f:
        for row in map(json.loads, f):
            queue.append(row["queue_ms"])
            ser.append(row["serialize_ms"])
    return {"service.queue_wait_ms": (median(queue), "ms"),
            "service.serialize_ms": (median(ser), "ms")}


def _ratio(hits, misses):
    return hits / (hits + misses) if hits + misses else 0.0


def cache_ratios(stats, *recs):
    """Hit ratios from the traced daemon's `stats` counters."""
    counters = stats["metrics"]["counters"]
    reads = sum(len(r.sojourn.get("query", [])) for r in recs)
    return {
        "service.result_cache_hit_ratio": (_ratio(stats["analysis_cache"]["hits"],
                                                  stats["analysis_cache"]["misses"]), "ratio"),
        "service.plan_cache_hit_ratio": (_ratio(stats["plan_cache"]["plan_hits"],
                                                stats["plan_cache"]["plan_misses"]), "ratio"),
        "service.query_cache_hit_ratio": (counters.get("incremental.cache_hit", 0) / max(1, reads), "ratio"),
        "core.pattern_cache_hit_ratio": (_ratio(stats["pattern_cache"]["hits"],
                                                stats["pattern_cache"]["misses"]), "ratio"),
    }


PINGS = 300


def transport(ctx):
    """Median ping round trip over stdio, a JSON-lines socket and a frame
    socket, each against a fresh daemon."""
    out = {}
    stdio = Daemon(ctx.daemon_bin, ctx.out, "ping-stdio")
    sock = Daemon(ctx.daemon_bin, ctx.out, "ping-socket", listen=True, args=["--workers=1"])
    try:
        conns = {"stdio": StdioConn(stdio), "json": LineConn(sock.port), "frames": FrameConn(sock.port)}
        for name, conn in conns.items():
            xs = [conn.call({"cmd": "ping"})[1] for _ in range(PINGS)]
            out["transport.ping_rtt_ms." + name] = (1e3 * median(xs[PINGS // 10:]), "ms")
            if name != "stdio":
                conn.close()
    finally:
        stdio.stop()
        sock.stop()
    return out
