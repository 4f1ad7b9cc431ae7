"""signoff: a batch sign-off script piped over stdio to the daemon's
default runtime. Every design of a fixed rotation is loaded as text,
annotated with Gaussian delays in one batched `set_delay`, analyzed by the
moment, SSTA, canonical and numeric engines, queried (worst path, worst
endpoint density) and unloaded; the paper circuits also run 10 000-run MC
under input scenarios I and II (Table 2). Each design is one round of the
timed phase; the phase runs whole rotations.

Every rotation ends with s27 under fixed delays whose sigma is half the
numeric grid step. Its density does not integrate to the transition
probability (the delay kernel loses its normalization below the grid
step: CHANGES.md, FOUND), so that density query fails every time and is
counted as failed."""

from pb import checks
from pb.daemon import Daemon, StdioConn

GRID = {"grid_dt": 0.1, "max_grid_points": 2048}
MC_RUNS = 10000
MC_SEED = 1
SCENARIO_II = {"probs": [0.75, 0.15, 0.02, 0.08], "rise": [0.0, 1.0], "fall": [0.0, 1.0]}
SCENARIO_PROBS = {"I": (0.25, 0.25, 0.25, 0.25), "II": (0.75, 0.15, 0.02, 0.08)}
PAPER = {"s208", "s298", "s344", "s349", "s382", "s386", "s526", "s1196", "s1238"}
SUBGRID_STD = 0.5 * GRID["grid_dt"]  # sigma of every gate of the sub-grid s27


class Signoff:
    name = "signoff"
    traces_natively = True  # the stdio runtime honours --trace
    LAYER_GRID = GRID
    MC_DESIGNS = sorted(PAPER)
    MC_RUNS = MC_RUNS

    def __init__(self, ctx):
        self.ctx = ctx
        self.designs = ctx.manifest["designs"]
        self.texts = {d["name"]: ctx.read_input(d["file"]) for d in self.designs}
        self.delays = {d["name"]: ctx.delay_edits(d) for d in self.designs
                       if d["format"] != "hier"}
        s27 = self.texts["s27"]
        sources, gates = checks.parse_bench(s27)
        self.s27_nodes = sources + list(gates)
        self.subgrid_edits = [{"node": g, "mean": 1.0, "std": SUBGRID_STD} for g in gates]
        self.s27_exact = {sc: checks.exact_one_probabilities(s27, p)
                          for sc, p in SCENARIO_PROBS.items()}
        self.flat_hier = None
        self.first = None  # replies of the first rotation, for determinism

    # ------------------------------------------------------------ set-up

    def oracles(self):
        """In-process answers the checks need (not part of set-up time)."""
        hier = [d for d in self.designs if d["format"] == "hier"]
        spec = {"kind": "hier_flat", "designs": [
            {"name": d["name"], "file": self.ctx.input_path(d["file"])} for d in hier]}
        out = self.ctx.tool_json("oracle", spec)
        self.flat_hier = {d["name"]: out[d["name"]] for d in hier}

    def start(self, trace_path=None):
        args = ["--trace=" + trace_path] if trace_path else []
        self.daemon = Daemon(self.ctx.daemon_bin, self.ctx.out, "signoff", args=args)
        self.conn = StdioConn(self.daemon)

    def setup(self, rec):
        self.rotation(rec)  # warm-up: pattern, kernel and block-model caches

    # ------------------------------------------------------------ traffic

    def rotation(self, rec):
        """One pass over every design, one round each carrying its gates
        as work, then the sub-grid round."""
        replies = {}
        for d in self.designs:
            replies[d["name"]] = self.sign_off(rec, d)
            rec.end_round(d["gates"])
        replies["s27_subgrid"] = self.subgrid(rec)
        self.cross_checks(replies)

    def subgrid(self, rec):
        """s27 with sigma below the grid step: numeric density vs the
        moment engine's transition probability, a known fault."""
        ctx = self.ctx
        call = lambda cls, req: ctx.call(rec, self.conn, cls, req)
        p1 = {"threads": 1}
        out = {}
        load = call("load", {"cmd": "load", "text": self.texts["s27"], "format": "bench"})
        if load is None:
            return out
        sess = load["session"]
        call("set_delay", {"cmd": "set_delay", "session": sess, "edits": self.subgrid_edits})
        mom = call("analyze_moment", {"cmd": "analyze", "session": sess,
                                      "engine": "spsta_moment", "params": p1})
        num = call("analyze_numeric", {"cmd": "analyze", "session": sess,
                                       "engine": "spsta_numeric", "params": dict(p1, **GRID)})
        if mom is not None and num is not None:
            w = num["worst"]
            r = call("density", {"cmd": "query", "session": sess, "node": w["name"],
                                 "engine": "spsta_numeric", "density": w["direction"],
                                 "params": dict(p1, **GRID)})
            if r is not None:
                dens = r["stats"]["density"]
                out["density"] = dens
                p = next(e for e in mom["endpoints"] if e["name"] == w["name"])[w["direction"]]["p"]
                ctx.known_fault(rec, checks.check_density_mass, dens["samples"], dens["dt"], p,
                                "s27 sigma %g < grid_dt density %s" % (SUBGRID_STD, w["name"]))
        call("unload", {"cmd": "unload", "session": sess})
        return out

    def sign_off(self, rec, d):
        ctx, name = self.ctx, d["name"]
        kg = d["gates"] / 1000.0
        call = lambda cls, req, units=kg: ctx.call(rec, self.conn, cls, req, units)
        out = {}
        load = call("load", {"cmd": "load", "text": self.texts[name], "format": d["format"]})
        if load is None:
            return out
        sess = load["session"]
        rec.loaded_gates += d["gates"]
        ctx.check(checks.check_equal, load.get("expanded_gates", load.get("gates")), d["gates"],
                  name + " gates after load")
        p1 = {"threads": 1}
        if d["format"] == "hier":
            r = call("analyze", {"cmd": "analyze", "session": sess,
                                 "engine": "spsta_moment", "params": p1})
            if r is not None:
                out["hier"] = r["endpoints"]
                ctx.check(checks.check_rows_probs, r["endpoints"], name)
                ctx.check(checks.check_hier_vs_flat, r["endpoints"], self.flat_hier[name], name)
            call("unload", {"cmd": "unload", "session": sess}, 0)
            return out

        edits = self.delays[name]
        r = call("set_delay", {"cmd": "set_delay", "session": sess, "edits": edits}, len(edits))
        if r is not None:
            rec.reevaluated += r["nodes_reevaluated"]
            rec.edits += r["edits"]
            ctx.check(checks.check_equal, r["edits"], len(edits), name + " edits applied")
            ctx.check(checks.check_eco_version, r, 1, name + " annotation")
        for engine in ("spsta_moment", "ssta", "canonical", "spsta_numeric"):
            params = dict(p1, **GRID) if engine == "spsta_numeric" else p1
            r = call("analyze" if engine != "spsta_numeric" else "analyze_numeric",
                     {"cmd": "analyze", "session": sess, "engine": engine, "params": params})
            if r is None:
                continue
            out[engine] = r
            ctx.check(checks.check_rows_probs, r["endpoints"], "%s %s" % (name, engine))
        mom = out.get("spsta_moment")
        for engine in ("spsta_numeric", "canonical"):
            if mom and engine in out:
                ctx.check(checks.check_engine_agreement, mom["endpoints"],
                          out[engine]["endpoints"], engine, name)

        r = call("query", {"cmd": "query", "session": sess, "path": True,
                           "engine": "spsta_moment", "params": p1})
        if r is not None:
            out["path"] = r["path"]
            for pt in r["path"]["points"]:
                ctx.check(checks.check_probs, pt["probs"], "%s path %s" % (name, pt["name"]))
        num = out.get("spsta_numeric")
        if num and "worst" in num:
            w = num["worst"]
            r = call("density", {"cmd": "query", "session": sess, "node": w["name"],
                               "engine": "spsta_numeric", "density": w["direction"],
                               "params": dict(p1, **GRID)})
            if r is not None and mom:
                dens = r["stats"]["density"]
                out["density"] = dens
                p = next(e for e in mom["endpoints"] if e["name"] == w["name"])[w["direction"]]["p"]
                ctx.check(checks.check_density_mass, dens["samples"], dens["dt"], p,
                          "%s density %s" % (name, w["name"]))

        if name in PAPER or name == "s27":
            out["I"] = self.monte_carlo(rec, sess, name, "I", out, kg)
            sources = load["sources"]
            for i in range(sources):
                r = call("set_source", dict(SCENARIO_II, cmd="set_source", session=sess, source=i), 0)
                if r is not None:
                    ctx.check(checks.check_eco_version, r, 2 + i, "%s set_source %d" % (name, i))
            scen = {}
            for engine in ("spsta_moment", "ssta"):
                r = call("analyze", {"cmd": "analyze", "session": sess, "engine": engine,
                                     "params": p1})
                if r is not None:
                    scen[engine] = r
                    ctx.check(checks.check_rows_probs, r["endpoints"], name + " II")
            out["II"] = self.monte_carlo(rec, sess, name, "II", scen, kg)
        call("unload", {"cmd": "unload", "session": sess}, 0)
        return out

    def monte_carlo(self, rec, sess, name, scenario, analyses, kgates):
        """MC under the session's current scenario; returns the
        (moment, ssta, mc) endpoint rows Table 2 compares."""
        ctx = self.ctx
        params = {"threads": 1, "runs": MC_RUNS, "seed": MC_SEED}
        r = ctx.call(rec, self.conn, "mc", {"cmd": "analyze", "session": sess,
                                             "engine": "mc", "params": params}, kgates)
        if r is None:
            return None
        ctx.check(checks.check_rows_probs, r["endpoints"], "%s mc %s" % (name, scenario))
        if name == "s27":
            probs = {}
            for node in self.s27_nodes:
                q = ctx.call(rec, self.conn, "query", {
                    "cmd": "query", "session": sess, "node": node, "engine": "mc",
                    "params": params})
                if q is not None:
                    probs[node] = q["stats"]["probs"]
            ctx.check(checks.check_mc_against_exact, probs, self.s27_exact[scenario],
                      MC_RUNS, "s27 scenario " + scenario)
        mom, ssta = analyses.get("spsta_moment"), analyses.get("ssta")
        if mom is None or ssta is None:
            return None
        return mom["endpoints"], ssta["endpoints"], r["endpoints"]

    def cross_checks(self, replies):
        ctx = self.ctx
        a, b = replies.get("g5k", {}), replies.get("g5k_v", {})
        for engine in ("spsta_moment", "ssta", "canonical", "spsta_numeric"):
            if engine in a and engine in b:
                strip = lambda r: [{k: v for k, v in e.items() if k != "node"}
                                   for e in r["endpoints"]]
                ctx.check(checks.check_identical, strip(b[engine]), strip(a[engine]),
                          "g5k verilog vs bench " + engine)
        for sc in ("I", "II"):
            rows = [replies.get(c, {}).get(sc) for c in sorted(PAPER)]
            if all(rows):
                ctx.check(checks.check_accuracy, checks.accuracy(rows), "scenario " + sc)
        # Every rotation answers exactly as the first one did (timings and
        # cache flags aside).
        slim = {n: {k: ({f: x for f, x in v.items() if f not in ("elapsed_ms", "cached")}
                        if isinstance(v, dict) else v) for k, v in r.items()}
                for n, r in replies.items()}
        if self.first is None:
            self.first = slim
        else:
            ctx.check(checks.check_identical, slim, self.first, "rotation vs first rotation")

    # ------------------------------------------------------------ phases

    def timed(self, rec, seconds):
        while True:
            self.rotation(rec)
            if rec.elapsed() >= seconds:
                return

    def final(self, rec):
        pass  # every rotation is checked as it completes

    def daemon_stats(self):
        return self.conn.call({"cmd": "stats"})[0]["result"]

    def conns(self):
        return [self.conn]

    def stop(self):
        self.daemon.stop()
