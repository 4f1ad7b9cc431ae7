"""eco_sizing: a statistical gate-sizing loop (the probe-heavy shape of
Agarwal/Chopra/Blaauw) over one TCP JSON-lines connection to
`spsta_serviced --listen`, on an XOR-rich generated design with Gaussian
delays.

Each sizing round probes K single-gate resizes drawn from the worst
watched endpoint's fan-in cone (`set_delay` with `"probe":true`), commits
the best one, and reads the watched endpoints. Each round also picks one
area-recovery move (slowing a gate outside that cone); every Nth round
commits the accumulated moves as one batch and re-checks with
`analyze ssta` and `analyze spsta_moment`."""

import random

from pb import checks
from pb.daemon import Daemon, LineConn

K = 8            # probes per round
N = 4            # rounds per recovery batch + re-check
WATCHED = 8      # endpoints the loop watches
WARM_GROUPS = 2  # groups of N rounds run during set-up
REEVAL_ROUNDS = 200  # rounds whose re-evaluation counts are reported
P_MIN = 1e-2


def cost(rows):
    """The loop's objective: the worst mean + 3 sigma over watched
    transitions that occur."""
    return max((r[d]["mean"] + 3.0 * r[d]["std"]) for r in rows for d in ("rise", "fall")
               if r[d]["p"] >= P_MIN)


class EcoSizing:
    name = "eco_sizing"
    LAYER_GRID = {"grid_dt": 0.1, "max_grid_points": 2048}
    MC_DESIGNS = ["e12k"]
    MC_RUNS = 200
    traces_natively = False

    def __init__(self, ctx):
        self.ctx = ctx
        self.design = ctx.manifest["designs"][0]
        self.text = ctx.read_input(self.design["file"])
        self.base = ctx.delay_edits(self.design)
        _sources, self.gates = checks.parse_bench(self.text)
        self.gate_order = list(self.gates)
        self.cones = {}

    def oracles(self):
        pass  # the fresh-run oracle needs the committed delays: see final()

    def cone(self, node):
        if node not in self.cones:
            seen, stack = set(), [node]
            while stack:
                n = stack.pop()
                if n in seen or n not in self.gates:
                    continue
                seen.add(n)
                stack.extend(self.gates[n][1])
            self.cones[node] = [g for g in self.gate_order if g in seen]
        return self.cones[node]

    # ------------------------------------------------------------ set-up

    def start(self, trace_path=None):
        args = ["--trace=" + trace_path] if trace_path else []
        self.daemon = Daemon(self.ctx.daemon_bin, self.ctx.out, "eco", listen=True, args=args)
        self.conn = LineConn(self.daemon.port)

    def setup(self, rec):
        ctx, kg = self.ctx, self.design["gates"] / 1000.0
        load = ctx.call(rec, self.conn, "load", {"cmd": "load", "text": self.text,
                                                 "format": "bench"}, kg)
        self.sess = load["session"]
        r = ctx.call(rec, self.conn, "set_delay", {"cmd": "set_delay", "session": self.sess,
                                                    "edits": self.base}, len(self.base))
        self.version = r["eco_version"]
        self.delays = {e["node"]: (e["mean"], e["std"]) for e in self.base}
        self.committed = []  # every committed edit after the base annotation
        self.rng = random.Random("%d/eco" % ctx.seed)
        self.round = 0
        mom = self.recheck(rec)
        rows = sorted((r for r in mom if max(r["rise"]["p"], r["fall"]["p"]) >= P_MIN),
                      key=lambda r: -max(r["rise"]["mean"], r["fall"]["mean"]))
        self.watched = [r["name"] for r in rows[:WATCHED]]
        self.state = {r["name"]: checks.node_state(r) for r in mom if r["name"] in self.watched}
        self.checkpoints = []
        for _ in range(WARM_GROUPS):
            self.group(rec)

    # ------------------------------------------------------------ traffic

    def recheck(self, rec):
        """analyze ssta + spsta_moment; returns the moment endpoint rows."""
        ctx, kg = self.ctx, self.design["gates"] / 1000.0
        out = {}
        for cls, engine in (("analyze", "ssta"), ("analyze_moment", "spsta_moment")):
            r = ctx.call(rec, self.conn, cls, {"cmd": "analyze", "session": self.sess,
                                               "engine": engine, "params": {"threads": 1}}, kg)
            if r is None:
                return []
            ctx.check(checks.check_eco_version, r, self.version, "re-check " + engine)
            out[engine] = r["endpoints"]
        ctx.check(checks.check_rows_probs, out["spsta_moment"], "re-check")
        self.last_recheck = (len(self.committed), out)
        return out["spsta_moment"]

    def worst_endpoint(self):
        return max(self.watched, key=lambda n: max(
            self.state[n][d]["mean"] for d in ("rise", "fall") if self.state[n][d]["p"] >= P_MIN))

    def commit(self, rec, edits, where):
        r = self.ctx.call(rec, self.conn, "set_delay", {"cmd": "set_delay", "session": self.sess,
                                                        "edits": edits}, len(edits))
        if r is None:
            return
        self.version += 1
        self.ctx.check(checks.check_eco_version, r, self.version, where)
        for e in edits:
            self.delays[e["node"]] = (e["mean"], e["std"])
        self.committed.extend(edits)
        return r

    def sizing_round(self, rec, recovery):
        ctx = self.ctx
        counted = self.round < REEVAL_ROUNDS
        worst = self.worst_endpoint()
        cone = self.cone(worst)
        cands = self.rng.sample(cone, min(K, len(cone)))
        best = None
        for g in cands:
            m, s = self.delays[g]
            f = self.rng.choice((0.8, 0.85, 0.9))
            edit = {"node": g, "mean": m * f, "std": s * f}
            r = ctx.call(rec, self.conn, "probe", dict(edit, cmd="set_delay", session=self.sess,
                                                      probe=True, nodes=self.watched), 1)
            if r is None:
                continue
            ctx.check(checks.check_eco_version, r, self.version, "probe")
            if counted:
                rec.edits += 1
                rec.reevaluated += r["nodes_reevaluated"]
            rows = r["results"]
            c = cost(rows)
            if best is None or c < best[0]:
                best = (c, edit, {row["name"]: checks.node_state(row) for row in rows})
        if best is not None:
            r = self.commit(rec, [best[1]], "commit")
            if r is not None and counted:
                rec.edits += 1
                rec.reevaluated += r["nodes_reevaluated"]
            for name in self.watched:
                q = ctx.call(rec, self.conn, "query", {"cmd": "query", "session": self.sess,
                                                       "node": name, "engine": "spsta_moment",
                                                       "params": {"threads": 1}}, 0)
                if q is None:
                    continue
                ctx.check(checks.check_eco_version, q, self.version, "read " + name)
                got = checks.node_state(q["stats"])
                ctx.check(checks.check_identical, got, best[2][name],
                          "read of %s after committing its probe" % name)
                self.state[name] = got
        inside = set(cone)
        g = self.rng.choice(self.gate_order)
        while g in inside:
            g = self.rng.choice(self.gate_order)
        m, s = self.delays[g]
        recovery.append({"node": g, "mean": m * 1.1, "std": s * 1.1})
        self.round += 1

    def group(self, rec):
        """N sizing rounds, then the recovery batch and the re-check."""
        recovery = []
        for _ in range(N):
            self.sizing_round(rec, recovery)
        self.commit(rec, recovery, "recovery batch")
        mom = self.recheck(rec)
        for r in mom:
            if r["name"] in self.state:
                self.state[r["name"]] = checks.node_state(r)
        if len(self.checkpoints) < 1:
            self.checkpoints.append(self.last_recheck)

    def timed(self, rec, seconds):
        self.round = 0
        while rec.elapsed() < seconds:
            self.group(rec)
            rec.end_round(N)

    # ------------------------------------------------------------ checks

    def final(self, rec):
        """The final state, and the first re-check, against fresh
        in-process runs over the benchmark's record of the delays."""
        self.recheck(rec)
        states = [self.checkpoints[0], self.last_recheck]
        spec = {"kind": "fresh",
                "design": {"file": self.ctx.input_path(self.design["file"]), "format": "bench"},
                "base": self.base,
                "states": [self.committed[:n] for n, _ in states],
                "engines": ["spsta_moment", "ssta"]}
        fresh = self.ctx.tool_json("oracle", spec)["states"]
        for (n, got), want in zip(states, fresh):
            for engine in ("spsta_moment", "ssta"):
                rows = {r["name"]: checks.node_state(r) for r in got[engine]}
                self.ctx.check(checks.check_identical, rows, want[engine],
                               "%s after %d committed edits vs a fresh run" % (engine, n))
        for name in self.watched:
            self.ctx.check(checks.check_identical, self.state[name],
                           fresh[-1]["spsta_moment"][name], "final read of " + name)

    def daemon_stats(self):
        return self.conn.call({"cmd": "stats"})[0]["result"]

    def conns(self):
        return [self.conn]

    def stop(self):
        self.conn.close()
        self.daemon.stop()
