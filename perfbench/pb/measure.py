"""Timing records, summary statistics and the failure bookkeeping every
workload shares."""

import statistics
import time
from collections import defaultdict


class CheckFailure(Exception):
    """A reply that came back `ok` but whose content is wrong."""


def median(values):
    return statistics.median(values) if values else float("nan")


def quantile(values, q):
    """Linear-interpolated quantile, q in [0, 1]."""
    if not values:
        return float("nan")
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_quantile(values):
    """The highest of p99/p90 that keeps at least ten samples beyond it,
    as (q, value); None below forty samples."""
    n = len(values)
    if n < 40:
        return None
    for q in (0.99, 0.9):
        if n * (1 - q) >= 10:
            return q, quantile(values, q)
    return 0.75, quantile(values, 0.75)


# The host's speed drifts by half over minutes (README.md, "Reference figures"):
# the same loop, on the same CPU, takes 26 ms in one minute and 40 ms in
# the next. Every time the end-to-end metrics report is therefore scaled by
# a calibration loop run on the same CPU between requests: a time is
# reported as it would read at the reference speed, at which the loop takes
# CAL_REF_S.
CAL_ITERS = 15000
CAL_REPEAT = 3
CAL_REF_S = 0.0015
CAL_EVERY_S = 0.2  # a segment between two calibrations spans at least this
CAL_WINDOW = 2     # calibrations on each side a segment's speed is the median of


def _loop():
    t0 = time.thread_time()
    s = 0
    for i in range(CAL_ITERS):
        s += i * i % 7
    return time.thread_time() - t0


def calibrate():
    """CPU seconds of a fixed loop on this thread, the fastest of a few
    back-to-back runs (the first after a long request runs on caches the
    daemon has just used): the host's speed now."""
    return min(_loop() for _ in range(CAL_REPEAT))


class Recorder:
    """Per-class sojourns of one phase, plus the optional request log the
    in-process replay re-executes.

    The phase is cut into segments, with a calibration between any two.
    `scale()` scales each segment's wall time and sojourns by CAL_REF_S
    over the median of the calibrations around it (`norm_*`); a single
    calibration that an interrupt slowed or a boost sped up moves no
    segment. The raw sojourns are kept for the per-layer figures."""

    def __init__(self, keep_lines=False):
        self.sojourn = defaultdict(list)  # class -> seconds
        self.lines = [] if keep_lines else None  # (class, request line)
        self.attempted = 0
        self.failed = 0
        self.work = 0             # the workload's unit of completed work
        self.loaded_gates = 0     # gates of every successful `load`
        self.edits = 0            # set_delay requests (commits and probes)
        self.reevaluated = 0      # their summed nodes_reevaluated
        self.units = defaultdict(float)   # class -> work carried (kgates, edits)
        self.calibrations = [calibrate()]
        self.segments = []        # (wall s, {class: summed sojourn})
        self._pending = defaultdict(float)  # class -> sojourn in the open segment
        self.t0 = self._seg_t0 = time.perf_counter()

    def call(self, conn, cls, req, units=0.0):
        """One closed-loop request carrying `units` of work. Returns the
        reply's result, or None when the daemon answered with an error
        (counted as failed)."""
        line = conn.send(req)
        done = None
        while done is None:
            done = conn.poll()
            if done is None:
                conn.wait_readable()
        return self.finish(cls, line, done[0], done[1], units)

    def finish(self, cls, line, reply, seconds, units=0.0):
        self.attempted += 1
        if self.lines is not None:
            self.lines.append((cls, line))
        if not reply.get("ok"):
            self.failed += 1
        else:
            self.sojourn[cls].append(seconds)
            self._pending[cls] += seconds
            self.units[cls] += units
        if time.perf_counter() - self._seg_t0 >= CAL_EVERY_S:
            self.close_segment()
        return reply if reply.get("ok") else None

    def known_fault(self):
        """The last reply came back `ok` but wrong, from a fault of the
        program that a fixed input shows every time: count it as failed."""
        self.failed += 1

    def close_segment(self):
        """Ends the open segment with a calibration, whose own time is in
        no segment."""
        self.segments.append((time.perf_counter() - self._seg_t0, dict(self._pending)))
        self._pending.clear()
        self.calibrations.append(calibrate())
        self._seg_t0 = time.perf_counter()

    def scale(self):
        """Scaled wall time of the closed segments, and each class's scaled
        summed sojourn, both at the reference speed."""
        cals = self.calibrations
        wall, seconds = 0.0, defaultdict(float)
        for i, (w, pending) in enumerate(self.segments):
            # Segment i lies between calibrations i and i + 1.
            near = cals[max(0, i + 1 - CAL_WINDOW): i + 1 + CAL_WINDOW]
            k = CAL_REF_S / statistics.median(near)
            wall += w * k
            for cls, s in pending.items():
                seconds[cls] += s * k
        self.norm_wall, self.norm_seconds = wall, seconds

    def end_round(self, work):
        """Closes one whole round of the workload's script that did
        `work`."""
        self.work += work

    def elapsed(self):
        return time.perf_counter() - self.t0
