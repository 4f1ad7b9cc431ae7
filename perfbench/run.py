#!/usr/bin/env python3
"""The repository benchmark: builds the analysis daemon in Release, drives
one workload against it and prints one JSON result as its last line.

  python3 perfbench/run.py --workload signoff|eco_sizing \\
      --seed N --seconds S --trace 0|1

Run it from the repository root. Everything it writes goes under
.bench_build/. --trace 0 prints the end-to-end metrics of an untraced
timed phase; --trace 1 prints the per-layer metrics of a traced pass (the
daemon with --trace on, plus an in-process replay of the same operations
through pbtool). See perfbench/README.md.
"""

import argparse
import json
import os
import random
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from pb import daemon as dmod  # noqa: E402
from pb.measure import CheckFailure  # noqa: E402

WATCHDOG_S = 170  # a run must end within 180 s once the build is done


class Abort(Exception):
    """Stops the run without a result (signal, timeout, broken setup)."""


def on_signal(signum, _frame):
    raise Abort("stopped by signal %d" % signum)


class Ctx:
    """What a workload needs: binaries, its inputs, the seed, and the
    accumulated check failures."""

    def __init__(self, root, out, seed, seconds, workload):
        self.root = root
        self.out = out
        self.seed = seed
        self.seconds = seconds
        self.workload = workload
        build = os.path.join(root, ".bench_build", "cmake")
        self.daemon_bin = os.path.join(build, "spsta", "apps", "spsta_serviced")
        self.tool_bin = os.path.join(build, "pbtool")
        self.gen = os.path.join(out, "inputs")
        self.problems = []
        self.fault_seen = False
        self.manifest = None

    # -- inputs ------------------------------------------------------------

    def generate(self):
        os.makedirs(self.gen, exist_ok=True)
        self.run_tool(["gen", "--workload=" + self.workload,
                       "--seed=%d" % self.seed, "--out=" + self.gen])
        with open(os.path.join(self.gen, "manifest.json")) as f:
            self.manifest = json.load(f)

    def input_path(self, name):
        return os.path.join(self.gen, name)

    def read_input(self, name):
        with open(self.input_path(name)) as f:
            return f.read()

    def delay_edits(self, design, key=None):
        """Gaussian delays for every gate of a design, from the seed. The
        Verilog rendering of a design shares its .bench twin's delays."""
        key = key or design["name"].split("_")[0]
        rng = random.Random("%d/%s" % (self.seed, key))
        edits = []
        for gate in design["gate_names"]:
            mean = rng.uniform(0.5, 1.5)
            edits.append({"node": gate, "mean": mean, "std": mean * rng.uniform(0.2, 0.3)})
        return edits

    # -- pbtool ------------------------------------------------------------

    def run_tool(self, args):
        proc = subprocess.run([self.tool_bin] + args, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, timeout=150)
        if proc.returncode != 0:
            raise Abort("pbtool %s failed: %s" % (args[0], proc.stderr.decode()[-2000:]))
        return proc

    def tool_json(self, cmd, spec):
        spec_path = os.path.join(self.out, "%s-spec.json" % cmd)
        out_path = os.path.join(self.out, "%s-out.json" % cmd)
        with open(spec_path, "w") as f:
            json.dump(spec, f)
        self.run_tool([cmd, "--spec=" + spec_path, "--out=" + out_path])
        with open(out_path) as f:
            return json.load(f)

    # -- traffic and checks --------------------------------------------------

    def call(self, rec, conn, cls, req, units=0.0):
        """One request; returns its `result`, None when it failed."""
        reply = rec.call(conn, cls, req, units)
        if reply is None:
            if rec.failed <= 10:
                sys.stderr.write("failed %s request: %s\n" % (cls, json.dumps(req)[:200]))
            return None
        return reply["result"]

    def check(self, fn, *args):
        try:
            fn(*args)
        except CheckFailure as e:
            self.problem(str(e))

    def known_fault(self, rec, fn, *args):
        """A check that a known fault of the program fails every time, on
        inputs that do not depend on the seed: its failure counts the
        request as failed instead of making the run incorrect."""
        try:
            fn(*args)
        except CheckFailure as e:
            rec.known_fault()
            if not self.fault_seen:
                sys.stderr.write("known fault (counted as failed): %s\n" % e)
                self.fault_seen = True

    def problem(self, msg):
        if len(self.problems) < 50:
            sys.stderr.write("CHECK FAILED: %s\n" % msg)
        self.problems.append(msg)


def workload_class(name):
    if name == "signoff":
        from pb.signoff import Signoff
        return Signoff
    if name == "eco_sizing":
        from pb.eco import EcoSizing
        return EcoSizing
    raise Abort("unknown workload '%s'" % name)


def preflight(root):
    """The program's sources must sit next to the benchmark."""
    missing = [p for p in ("CMakeLists.txt", "src", "apps") if
               not os.path.exists(os.path.join(root, p))]
    if missing:
        raise Abort("no program sources to build in %s (missing %s): run from the "
                    "repository root" % (root, ", ".join(missing)))
    for tool in ("cmake", "c++"):
        if shutil.which(tool) is None:
            raise Abort("'%s' not found on PATH" % tool)


def build(root):
    build_dir = os.path.join(root, ".bench_build", "cmake")
    log_path = os.path.join(root, ".bench_build", "build.log")
    os.makedirs(build_dir, exist_ok=True)
    with open(log_path, "ab") as log:
        steps = [
            ["cmake", "-S", os.path.join(root, "perfbench"), "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"],
            ["cmake", "--build", build_dir, "-j4", "--target", "spsta_serviced", "pbtool"],
        ]
        if os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            steps = steps[1:]
        for cmd in steps:
            if subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT) != 0:
                raise Abort("build failed: see %s" % log_path)


def pin_to_one_cpu():
    """Runs this process, and every process it starts, on one CPU: the
    calibration loop then measures the speed of the CPU the daemon runs
    on, and a closed loop with one request outstanding needs no more."""
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    signal.signal(signal.SIGINT, on_signal)
    signal.signal(signal.SIGTERM, on_signal)
    signal.signal(signal.SIGALRM, lambda *_: (_ for _ in ()).throw(Abort("watchdog timeout")))
    root = os.getcwd()
    out = os.path.join(root, ".bench_build", "run-%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    try:
        preflight(root)
        cls = workload_class(args.workload)
        build(root)
        pin_to_one_cpu()
        signal.alarm(WATCHDOG_S)
        os.makedirs(out, exist_ok=True)
        ctx = Ctx(root, out, args.seed, args.seconds, args.workload)
        ctx.generate()
        from pb import phases
        result = phases.run(ctx, cls, bool(args.trace))
        signal.alarm(0)
    except (Abort, dmod.ProtocolError, OSError, subprocess.SubprocessError) as e:
        signal.alarm(0)
        dmod.reap_all()
        sys.stderr.write("perfbench: %s\n" % e)
        return 1
    finally:
        dmod.reap_all()
        shutil.rmtree(out, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
