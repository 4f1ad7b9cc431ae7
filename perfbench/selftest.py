#!/usr/bin/env python3
"""Self-test of the benchmark's correctness checks.

Every check first sees good data and must pass, then sees the same data
with one value or one reply corrupted (a flipped bit, a shifted value, a
dropped or reordered reply, a wrong eco_version) and must report it. Needs
no build and no daemon:

  python3 perfbench/selftest.py
"""

import copy
import math
import os
import socket
import struct
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from pb import checks  # noqa: E402
from pb.daemon import LineConn, ProtocolError, _Conn, dumps  # noqa: E402
from pb.measure import CheckFailure  # noqa: E402

S27 = """INPUT(G0)
INPUT(G1)
INPUT(G2)
INPUT(G3)
OUTPUT(G17)
G5 = DFF(G10)
G6 = DFF(G11)
G7 = DFF(G13)
G14 = NOT(G0)
G17 = NOT(G11)
G8 = AND(G14, G6)
G15 = OR(G12, G8)
G16 = OR(G3, G8)
G9 = NAND(G16, G15)
G10 = NOR(G14, G11)
G11 = NOR(G5, G9)
G12 = NOR(G1, G7)
G13 = NOR(G2, G12)
"""


def flip_low_bit(x):
    (bits,) = struct.unpack("<Q", struct.pack("<d", x))
    return struct.unpack("<d", struct.pack("<Q", bits ^ 1))[0]


def row(name, p=0.25, mean=3.0, std=0.5):
    return {"name": name, "probs": {"p0": 0.5 - p, "p1": 0.5 - p, "pr": p, "pf": p},
            "rise": {"p": p, "mean": mean, "std": std},
            "fall": {"p": p, "mean": mean + 0.1, "std": std}}


def density(p=0.2, dt=0.1, n=400):
    raw = [math.exp(-0.5 * ((i * dt - 10.0) / 1.5) ** 2) for i in range(n)]
    scale = p / (math.fsum(raw) * dt)
    samples = [v * scale for v in raw]
    return samples, dt, math.fsum(samples) * dt


CASES = []


def case(fn):
    CASES.append(fn)
    return fn


@case
def probabilities_in_range_and_summing_to_one():
    good = row("G1")
    bad = copy.deepcopy(good)
    bad["probs"]["p1"] += 1e-11
    return (lambda: checks.check_rows_probs([good], "t"),
            lambda: checks.check_rows_probs([good, bad], "t"))


@case
def probability_outside_unit_interval():
    good = {"p0": 0.0, "p1": 1.0, "pr": 0.0, "pf": 0.0}
    bad = {"p0": -0.0 - 1e-300, "p1": 1.0, "pr": 0.0, "pf": 0.0}
    return (lambda: checks.check_probs(good, "t"), lambda: checks.check_probs(bad, "t"))


@case
def density_integrates_to_transition_probability():
    samples, dt, p = density()
    bad = list(samples)
    bad[100] *= 1.001  # the peak bin
    return (lambda: checks.check_density_mass(samples, dt, p, "t"),
            lambda: checks.check_density_mass(bad, dt, p, "t"))


@case
def engines_agree_on_mean():
    mom = [row("G1")]
    num = [row("G1", mean=3.0 * 1.005)]
    bad = [row("G1", mean=3.0 * 1.05)]
    return (lambda: checks.check_engine_agreement(mom, num, "spsta_numeric", "t"),
            lambda: checks.check_engine_agreement(mom, bad, "spsta_numeric", "t"))


@case
def engines_agree_on_sigma():
    mom = [row("G1")]
    can = [row("G1", std=0.5 * 1.05)]
    bad = [row("G1", std=0.5 * 1.3)]
    return (lambda: checks.check_engine_agreement(mom, can, "canonical", "t"),
            lambda: checks.check_engine_agreement(mom, bad, "canonical", "t"))


@case
def hierarchy_matches_flattening():
    composed = [row("u1.g7"), row("u2.g9", p=0.1)]
    flat = {r["name"]: checks.node_state(r) for r in copy.deepcopy(composed)}
    bad = copy.deepcopy(composed)
    bad[1]["fall"]["mean"] *= 1 + 1e-8
    return (lambda: checks.check_hier_vs_flat(composed, flat, "t"),
            lambda: checks.check_hier_vs_flat(bad, flat, "t"))


@case
def hierarchy_probabilities_within_contract():
    composed = [row("u1.g7")]
    flat = {"u1.g7": checks.node_state(copy.deepcopy(composed[0]))}
    near = copy.deepcopy(composed)
    near[0]["probs"]["pr"] += 0.5e-12
    bad = copy.deepcopy(composed)
    bad[0]["probs"]["pr"] += 2e-12
    return (lambda: checks.check_hier_vs_flat(near, flat, "t"),
            lambda: checks.check_hier_vs_flat(bad, flat, "t"))


@case
def bitwise_identity_catches_one_flipped_bit():
    a = {"endpoints": [row("G1"), row("G2", p=0.1)]}
    b = copy.deepcopy(a)
    b["endpoints"][1]["rise"]["std"] = flip_low_bit(b["endpoints"][1]["rise"]["std"])
    return (lambda: checks.check_identical(copy.deepcopy(a), a, "t"),
            lambda: checks.check_identical(b, a, "t"))


@case
def bitwise_identity_catches_reordered_rows():
    a = [row("G1"), row("G2")]
    return (lambda: checks.check_identical(list(a), a, "t"),
            lambda: checks.check_identical(a[::-1], a, "t"))


@case
def bitwise_identity_catches_signed_zero():
    return (lambda: checks.check_identical([0.0], [0.0], "t"),
            lambda: checks.check_identical([-0.0], [0.0], "t"))


def _accuracy_rows(spsta_mu, ssta_mu):
    mom = [row("G1", mean=spsta_mu)]
    ssta = [{"name": "G1", "rise": {"p": 1.0, "mean": ssta_mu, "std": 0.9},
             "fall": {"p": 1.0, "mean": ssta_mu, "std": 0.9}}]
    mc = [row("G1", mean=3.0, std=0.52)]
    mc[0]["fall"]["mean"] = 3.0
    return [(mom, ssta, mc)]


@case
def spsta_beats_ssta_within_paper_bounds():
    good = checks.accuracy(_accuracy_rows(3.05, 3.6))
    bad = checks.accuracy(_accuracy_rows(3.3, 3.6))  # 10 % > the paper's 6.2 %
    return (lambda: checks.check_accuracy(good, "t"), lambda: checks.check_accuracy(bad, "t"))


@case
def spsta_worse_than_ssta_is_reported():
    bad = checks.accuracy(_accuracy_rows(3.15, 3.1))
    good = checks.accuracy(_accuracy_rows(3.05, 3.6))
    return (lambda: checks.check_accuracy(good, "t"), lambda: checks.check_accuracy(bad, "t"))


@case
def monte_carlo_within_four_standard_errors_of_exact():
    runs = 10000
    exact = checks.exact_one_probabilities(S27, (0.25, 0.25, 0.25, 0.25))
    mc = {}
    for name, e in exact.items():
        # p1 + pf = P(start 1), p1 + pr = P(end 1); choose pf = pr = 0.
        p1 = e["init"]
        mc[name] = {"p1": p1, "pf": 0.0, "pr": e["final"] - p1, "p0": 0.0}
    bad = copy.deepcopy(mc)
    se = math.sqrt(exact["G17"]["init"] * (1 - exact["G17"]["init"]) / runs)
    bad["G17"]["p1"] += 5 * se
    return (lambda: checks.check_mc_against_exact(mc, exact, runs, "t"),
            lambda: checks.check_mc_against_exact(bad, exact, runs, "t"))


@case
def exact_enumeration_is_right_on_known_gates():
    text = "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)\nz = XOR(a, b)\n"
    got = checks.exact_one_probabilities(text, (0.25, 0.25, 0.25, 0.25))
    want = {"y": 0.25, "z": 0.5}
    wrong = {"y": 0.5, "z": 0.5}

    def compare(expect):
        for n, p in expect.items():
            checks.check_equal(got[n]["init"], p, "enumeration of " + n)
    return (lambda: compare(want), lambda: compare(wrong))


@case
def eco_version_advances_by_one():
    return (lambda: checks.check_eco_version({"eco_version": 7}, 7, "t"),
            lambda: checks.check_eco_version({"eco_version": 8}, 7, "t"))


@case
def echoed_counters_and_flags():
    return (lambda: checks.check_equal(True, True, "cached"),
            lambda: checks.check_equal(1, True, "cached"))


# -- protocol: replies matched to requests on a live socket pair ----------

def _pair(cls):
    a, b = socket.socketpair()
    conn = cls.__new__(cls)
    _Conn.__init__(conn)
    conn.sock, conn.buf = a, bytearray()
    return conn, b


def _answer(conn, peer, replies):
    """Sends one request through `conn`, lets `peer` answer with raw
    `replies` bytes, and returns what the client makes of them."""
    conn.send({"cmd": "ping"})
    peer.recv(1 << 16)
    peer.sendall(replies)
    while True:
        done = conn.poll()
        if done is not None:
            return done
        conn.wait_readable()


def _line(rid):
    return (dumps({"id": rid, "ok": True, "result": {}}) + "\n").encode()


@case
def dropped_reply_is_detected():
    def good():
        conn, peer = _pair(LineConn)
        _answer(conn, peer, _line(1))

    def bad():  # reply 1 lost: the next reply carries id 2
        conn, peer = _pair(LineConn)
        _answer(conn, peer, _line(2))
    return good, bad


@case
def reordered_replies_are_detected():
    def good():
        conn, peer = _pair(LineConn)
        _answer(conn, peer, _line(1) + _line(2))
        conn.send({"cmd": "ping"})
        peer.recv(1 << 16)
        conn.poll()

    def bad():  # the daemon answers request 2 before request 1
        conn, peer = _pair(LineConn)
        _answer(conn, peer, _line(2) + _line(1))
    return good, bad


def main():
    failures = 0
    for fn in CASES:
        good, bad = fn()
        name = fn.__name__.replace("_", " ")
        try:
            good()
        except (CheckFailure, ProtocolError) as e:
            print("FAIL  %s: rejected good data (%s)" % (name, e))
            failures += 1
            continue
        try:
            bad()
        except (CheckFailure, ProtocolError) as e:
            print("ok    %s -> %s" % (name, str(e)[:100]))
        else:
            print("FAIL  %s: corruption went unreported" % name)
            failures += 1
    print("%d checks, %d failed" % (len(CASES), failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
