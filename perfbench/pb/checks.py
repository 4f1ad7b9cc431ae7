"""Correctness checks on the daemon's replies.

Each check is a pure function of reply data and expected values; it raises
`CheckFailure` with a reason when the data is wrong and returns None
otherwise. selftest.py feeds every check one corrupted input to show that
it can fail. Tolerances are explained in README.md ("Checks").
"""

import itertools
from array import array
import math
import re
import struct

from pb.measure import CheckFailure

PROB_SUM_TOL = 1e-12
# Numeric density vs moment transition probability, relative. The numeric
# engine samples each Gaussian delay kernel at the grid step dt; with
# dt <= sigma the sampled taps sum to 1 within 2*exp(-2*pi^2) ~ 5e-9
# (Poisson summation), and a path of ~50 kernels compounds that to
# ~3e-7. Seeded delays keep every sigma >= dt; signoff's sub-grid round
# goes below it on purpose and fails this check (a known fault).
DENSITY_MASS_TOL = 1e-6
# Engines agree on an endpoint's arrival, for transitions with P >= 1e-2:
# mean within a share of max(1, |mean|), sigma within a share of the
# moment engine's sigma (README.md, "Checks").
ENGINE_MIN_P = 1e-2
ENGINE_MU_TOL = {"spsta_numeric": 0.02, "canonical": 0.05}
ENGINE_SIGMA_TOL = {"spsta_numeric": 0.15, "canonical": 0.1}
HIER_REL_TOL = 1e-9
# block_model.hpp promises composed probabilities equal to the flattened
# design's within kProbEps, an absolute 1e-12.
HIER_PROB_ABS_TOL = 1e-12
PAPER_MU_ERR = 0.062
PAPER_SIGMA_ERR = 0.186
MC_SE_BOUND = 4.0


def fail(msg):
    raise CheckFailure(msg)


def _bits(x):
    return struct.pack("<d", x)


def same_bits(a, b):
    """Structural equality with floats compared bit for bit."""
    if isinstance(a, list) and isinstance(b, list) and a and isinstance(a[0], float):
        try:  # a sample array: one comparison of the raw bytes
            return array("d", a).tobytes() == array("d", b).tobytes()
        except TypeError:
            pass
    if isinstance(a, float) or isinstance(b, float):
        if not isinstance(a, (int, float)) or not isinstance(b, (int, float)):
            return False
        return _bits(float(a)) == _bits(float(b))
    if isinstance(a, dict):
        return isinstance(b, dict) and a.keys() == b.keys() and all(
            same_bits(a[k], b[k]) for k in a)
    if isinstance(a, list):
        return isinstance(b, list) and len(a) == len(b) and all(
            same_bits(x, y) for x, y in zip(a, b))
    return a == b and type(a) is type(b)


def check_identical(got, want, where):
    if not same_bits(got, want):
        fail("%s: %r differs from %r" % (where, _short(got), _short(want)))


def _short(x):
    s = repr(x)
    return s if len(s) < 160 else s[:157] + "..."


def check_probs(probs, where):
    """Four-value probabilities lie in [0, 1] and sum to 1."""
    vals = [probs[k] for k in ("p0", "p1", "pr", "pf")]
    for v in vals:
        if not (0.0 <= v <= 1.0):
            fail("%s: probability %r outside [0, 1]" % (where, v))
    if abs(math.fsum(vals) - 1.0) > PROB_SUM_TOL:
        fail("%s: probabilities sum to %r" % (where, math.fsum(vals)))


def check_rows_probs(rows, where):
    for row in rows:
        if "probs" in row:
            check_probs(row["probs"], "%s %s" % (where, row.get("name")))


def check_density_mass(samples, dt, p, where):
    """A transition-occurrence density integrates to the transition's
    probability (the toggling rate for a t.o.p.)."""
    mass = math.fsum(samples) * dt
    if abs(mass - p) > DENSITY_MASS_TOL * p:
        fail("%s: density integrates to %r, transition probability %r"
             % (where, mass, p))


def check_engine_agreement(reference, rows, engine, where):
    """`rows` (numeric or canonical endpoints) match the moment engine's
    `reference` rows in mean and sigma, transition by transition."""
    ref = {r["name"]: r for r in reference}
    for row in rows:
        base = ref.get(row["name"])
        if base is None:
            fail("%s: endpoint %s missing from the moment result" % (where, row["name"]))
        for d in ("rise", "fall"):
            a, b = row[d], base[d]
            if min(a["p"], b["p"]) < ENGINE_MIN_P:
                continue
            if abs(a["mean"] - b["mean"]) > ENGINE_MU_TOL[engine] * max(1.0, abs(b["mean"])):
                fail("%s: %s %s %s mean %r vs moment %r"
                     % (where, engine, row["name"], d, a["mean"], b["mean"]))
            if abs(a["std"] - b["std"]) > ENGINE_SIGMA_TOL[engine] * b["std"]:
                fail("%s: %s %s %s sigma %r vs moment %r"
                     % (where, engine, row["name"], d, a["std"], b["std"]))


def check_hier_vs_flat(rows, flat, where):
    """Composed hierarchical endpoints against the flattened design's
    moment analysis: probabilities within 1e-12 absolute (kProbEps), mean
    and variance within 1e-9 relative."""
    if len(rows) != len(flat):
        fail("%s: %d composed endpoints, %d flat" % (where, len(rows), len(flat)))
    for row in rows:
        ref = flat.get(row["name"])
        if ref is None:
            fail("%s: no flat node for %s" % (where, row["name"]))
        for k in ("p0", "p1", "pr", "pf"):
            if abs(row["probs"][k] - ref["probs"][k]) > HIER_PROB_ABS_TOL:
                fail("%s: %s %s %r vs flat %r"
                     % (where, row["name"], k, row["probs"][k], ref["probs"][k]))
        for d in ("rise", "fall"):
            a, b = row[d], ref[d]
            if abs(a["p"] - b["p"]) > HIER_PROB_ABS_TOL:
                fail("%s: %s %s mass %r vs flat %r" % (where, row["name"], d, a["p"], b["p"]))
            if a["p"] < 1e-12 and b["p"] < 1e-12:
                continue
            for got, want, what in ((a["mean"], b["mean"], "mean"),
                                    (a["std"] ** 2, b["std"] ** 2, "variance")):
                if abs(got - want) > HIER_REL_TOL * max(abs(got), abs(want), 1e-12):
                    fail("%s: %s %s %s %r vs flat %r"
                         % (where, row["name"], d, what, got, want))


def critical_rows(moment, ssta, mc, rising, min_p=5e-3):
    """Table 2's row for one circuit and direction: the endpoint with the
    largest SSTA mean among those SPSTA says transition (P >= min_p)."""
    d = "rise" if rising else "fall"
    sp = {r["name"]: r for r in moment}
    sa = {r["name"]: r for r in ssta}
    m = {r["name"]: r for r in mc}
    best = fallback = None
    for name, row in sa.items():
        mean = row[d]["mean"]
        if fallback is None or mean > sa[fallback][d]["mean"]:
            fallback = name
        if sp[name][d]["p"] >= min_p and (best is None or mean > sa[best][d]["mean"]):
            best = name
    ep = best or fallback
    return sp[ep][d], sa[ep][d], m[ep][d]


def accuracy(circuits):
    """Aggregate mean-absolute relative errors against MC over a list of
    (moment_rows, ssta_rows, mc_rows), as Table 2 computes them."""
    err = {"spsta_mu": 0.0, "ssta_mu": 0.0, "spsta_sigma": 0.0, "ssta_sigma": 0.0}
    n_mu = n_sigma = 0
    for moment, ssta, mc in circuits:
        for rising in (True, False):
            sp, sa, m = critical_rows(moment, ssta, mc, rising)
            if abs(m["mean"]) > 1e-9:
                err["spsta_mu"] += abs(sp["mean"] - m["mean"]) / abs(m["mean"])
                err["ssta_mu"] += abs(sa["mean"] - m["mean"]) / abs(m["mean"])
                n_mu += 1
            if abs(m["std"]) > 1e-9:
                err["spsta_sigma"] += abs(sp["std"] - m["std"]) / m["std"]
                err["ssta_sigma"] += abs(sa["std"] - m["std"]) / m["std"]
                n_sigma += 1
    for k in err:
        err[k] /= max(1, n_mu if k.endswith("mu") else n_sigma)
    return err


def check_accuracy(err, where):
    """SPSTA tracks MC better than SSTA, within the paper's bounds."""
    if not (err["spsta_mu"] < err["ssta_mu"] and err["spsta_mu"] <= PAPER_MU_ERR):
        fail("%s: SPSTA mu error %.4f (SSTA %.4f, paper %.3f)"
             % (where, err["spsta_mu"], err["ssta_mu"], PAPER_MU_ERR))
    if not (err["spsta_sigma"] < err["ssta_sigma"] and err["spsta_sigma"] <= PAPER_SIGMA_ERR):
        fail("%s: SPSTA sigma error %.4f (SSTA %.4f, paper %.3f)"
             % (where, err["spsta_sigma"], err["ssta_sigma"], PAPER_SIGMA_ERR))


_GATE = re.compile(r"^\s*(\S+)\s*=\s*(\w+)\s*\(([^)]*)\)")
_IO = re.compile(r"^\s*(INPUT|OUTPUT)\s*\(\s*(\S+)\s*\)")
_EVAL = {
    "AND": all, "NAND": lambda xs: not all(xs), "OR": any,
    "NOR": lambda xs: not any(xs), "NOT": lambda xs: not xs[0],
    "BUF": lambda xs: xs[0], "BUFF": lambda xs: xs[0],
    "XOR": lambda xs: sum(xs) % 2 == 1, "XNOR": lambda xs: sum(xs) % 2 == 0,
}


def parse_bench(text):
    """(sources, gates): timing sources (inputs, then DFF outputs) and
    combinational gates as name -> (type, fanins), in file order."""
    inputs, dffs, gates = [], [], {}
    for line in text.splitlines():
        line = line.split("#", 1)[0]
        m = _IO.match(line)
        if m:
            if m.group(1) == "INPUT":
                inputs.append(m.group(2))
            continue
        m = _GATE.match(line)
        if m:
            name, kind = m.group(1), m.group(2).upper()
            fanins = [x.strip() for x in m.group(3).split(",") if x.strip()]
            if kind == "DFF":
                dffs.append(name)
            else:
                gates[name] = (kind, fanins)
    return inputs + dffs, gates


def exact_one_probabilities(bench_text, probs):
    """Exact P(value = 1) at the start and at the end of the cycle for every
    node, by enumerating every source assignment; `probs` = (p0, p1, pr, pf)
    of each source. Start values depend only on the sources' initial
    values, end values only on their final values."""
    sources, gates = parse_bench(bench_text)
    p0, p1, pr, pf = probs
    p_one = {"init": p1 + pf, "final": p1 + pr}
    out = {}
    for phase, q in p_one.items():
        acc = {}
        for bits in itertools.product((0, 1), repeat=len(sources)):
            w = 1.0
            for b in bits:
                w *= q if b else 1.0 - q
            val = dict(zip(sources, bits))
            pending = dict(gates)
            while pending:
                for name, (kind, fanins) in list(pending.items()):
                    if all(f in val for f in fanins):
                        val[name] = int(bool(_EVAL[kind]([bool(val[f]) for f in fanins])))
                        del pending[name]
            for name, v in val.items():
                acc[name] = acc.get(name, 0.0) + w * v
        for name, p in acc.items():
            out.setdefault(name, {})[phase] = p
    return out


def check_mc_against_exact(mc_probs, exact, runs, where):
    """MC's per-node start/end one-probabilities lie within MC_SE_BOUND
    binomial standard errors of the exact values."""
    for name, want in exact.items():
        got = mc_probs.get(name)
        if got is None:
            fail("%s: no MC estimate for %s" % (where, name))
        for phase, est in (("init", got["p1"] + got["pf"]), ("final", got["p1"] + got["pr"])):
            p = want[phase]
            se = math.sqrt(p * (1.0 - p) / runs)
            if abs(est - p) > MC_SE_BOUND * se + 1e-12:
                fail("%s: %s P(%s=1) MC %r vs exact %r (se %.2e)"
                     % (where, name, phase, est, p, se))


def check_equal(got, want, where):
    """A counter or flag the reply must echo exactly."""
    if got != want or type(got) is not type(want):
        fail("%s: %r, expected %r" % (where, got, want))


def check_eco_version(reply, expected, where):
    if reply.get("eco_version") != expected:
        fail("%s: eco_version %r, expected %r" % (where, reply.get("eco_version"), expected))


def node_state(stats):
    """The engine-agnostic node state a query or probe row carries."""
    return {k: stats[k] for k in ("probs", "rise", "fall") if k in stats}
