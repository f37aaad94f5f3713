"""End-to-end benchmark of the quasihopf verifier.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload qq-products --seed 1 --seconds 10 --trace 0

A run sets the workload up eleven times (ten child processes and this
one, each from a fresh import) and reports the median as ``setup_s``.
It then runs whole passes of the workload's checks as a closed loop with
one client, each check starting when the previous verdict returns,
until at least ``--seconds`` have been measured.  Every verdict and
output digest is compared with its known answer.

Host speed on a shared machine drifts by tens of percent within
minutes, so a fixed pure-Python reference kernel is timed every
``CALIBRATION_PERIOD_S`` throughout the run (the time it takes is
excluded from every check), and each check's time is scaled to a host
on which that kernel takes ``REFERENCE_KERNEL_S``.  Raw seconds are
kept in the run record.  A set-up lasts a fraction of a second, so it
is scaled by bursts of samples taken just before and just after it.

With ``--trace 0`` the last stdout line carries the end-to-end metrics;
with ``--trace 1`` an untraced pass is followed by a traced pass and the
line carries the per-layer metrics (see ``tracing.py``).  Each run also
writes a record under ``perfbench/out/``.  ``--record-digests`` runs one
pass of every workload and rewrites ``digests.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction

from workloads import SETUPS, setup

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
DIGESTS = os.path.join(HERE, "digests.json")

SETUP_CHILDREN = 10
CHECK_TIME_LIMIT_S = 120.0
CALIBRATION_PERIOD_S = 0.1
REFERENCE_KERNEL_S = 0.003
LOCAL_SAMPLES = 4
BURST_SAMPLES = 8


def reference_kernel():
    """Fixed pure-Python work resembling the verifier's inner loops:
    rational arithmetic, residues mod p and tuple-keyed dict traffic."""
    acc = {}
    s = Fraction(0)
    for i in range(400):
        key = (i % 7, i % 5, i % 3)
        s += Fraction(i % 7 + 1, i % 5 + 2) * Fraction(3, i % 11 + 1)
        acc[key] = (acc.get(key, 0) + i * 31) % 10007
    return s, acc


class HostSpeed:
    """Times ``reference_kernel`` on a SIGALRM timer.  ``paused_s`` is the
    total time spent doing so, which callers subtract from their spans;
    ``mark()`` indexes the samples so that a span can be scaled by the
    samples taken while it ran."""

    def __init__(self):
        self.samples = []
        self.paused_s = 0.0
        self._busy = False

    def _tick(self, signum, frame):
        if self._busy:
            return
        self._busy = True
        t0 = time.perf_counter()
        reference_kernel()
        dt = time.perf_counter() - t0
        self.samples.append(dt)
        self.paused_s += dt
        self._busy = False

    def start(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, CALIBRATION_PERIOD_S,
                         CALIBRATION_PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def burst(self):
        """Take ``BURST_SAMPLES`` samples back to back."""
        for _ in range(BURST_SAMPLES):
            self._tick(None, None)

    def mark(self) -> int:
        return len(self.samples)

    def scale(self, lo: int = 0, hi: int | None = None) -> float:
        """Multiplier from raw to reference-host seconds for a span that
        ran while samples ``lo:hi`` were taken.  The mean, not the median,
        tracks the time lost to slow spells; a span with too few samples
        of its own takes the whole run's."""
        window = self.samples[lo:hi]
        if len(window) < LOCAL_SAMPLES:
            window = self.samples
        return REFERENCE_KERNEL_S * len(window) / sum(window)


def machine(loadavg) -> dict:
    from quasihopf import kernels
    return {"nproc": os.cpu_count(),
            "python": platform.python_version(),
            "kernels_backend": kernels.BACKEND,
            "loadavg_at_start": loadavg}


def timed_setup(name: str, seed: int, work_dir: str):
    """Import the library and set the workload up; return (workload, s)."""
    t0 = time.perf_counter()
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import quasihopf  # noqa: F401  (the import is part of set-up)
    wl = setup(name, seed, work_dir)
    return wl, time.perf_counter() - t0


def timed_setups(name: str, seed: int, work_dir: str, speed: HostSpeed):
    """Set the workload up in ``SETUP_CHILDREN`` fresh interpreters, then
    here; return (workload, [(raw seconds, sample window)]).  Each set-up
    is bracketed by bursts of calibration samples, which form its
    window."""
    setups = []
    lo = speed.mark()
    speed.burst()
    for i in range(SETUP_CHILDREN + 1):
        if i < SETUP_CHILDREN:
            secs = child_setup_seconds(name, seed)
        else:
            wl, secs = timed_setup(name, seed, work_dir)
        mid = speed.mark()
        speed.burst()
        setups.append((secs, lo, speed.mark()))
        lo = mid
    return wl, setups


def child_setup_seconds(name: str, seed: int) -> float:
    """Set the workload up in a fresh interpreter; return its seconds."""
    work = os.path.join(OUT, f"setup-{os.getpid()}")
    try:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-only",
             "--workload", name, "--seed", str(seed), "--work-dir", work],
            capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up child failed: {proc.stderr[-2000:]}")
        return float(proc.stdout.strip().splitlines()[-1])
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run_pass(wl, digests: dict, speed: HostSpeed, pass_no,
             record_to: dict | None = None, on_check=None):
    """Run every check once; return one outcome per check."""
    outcomes = []
    for ci, chk in enumerate(wl.checks):
        if on_check is not None:
            on_check(ci)
        p0, lo = speed.paused_s, speed.mark()
        t0 = time.perf_counter()
        note = ""
        try:
            res = chk.run()
            error = None
        except Exception as exc:
            res = (None, None)
            error = f"{type(exc).__name__}: {exc}"[:300]
            note = traceback.format_exc(limit=3)[-600:]
        dt = time.perf_counter() - t0 - (speed.paused_s - p0)
        verdict, digest = res[0], res[1]
        if len(res) > 2:
            note = res[2]
        want_digest = None
        if chk.digest_key:
            if record_to is not None and digest is not None:
                record_to[chk.digest_key] = digest
            want_digest = digests.get(chk.digest_key)
        status = "ok"
        if error is not None:
            status = "crash: " + error
        elif isinstance(note, str) and note.startswith("crash"):
            status = note
        elif verdict != chk.expect:
            status = "wrong verdict"
        elif chk.digest_key and record_to is None and digest != want_digest:
            status = "digest mismatch"
        elif dt > CHECK_TIME_LIMIT_S:
            status = "time limit"
        outcomes.append({"pass": pass_no, "check": chk.id,
                         "expect": chk.expect, "verdict": verdict,
                         "status": status, "raw_s": dt,
                         "samples": [lo, speed.mark()], "note": note})
    return outcomes


def measure(wl, seconds: float, digests: dict, speed: HostSpeed):
    """Whole passes until at least ``seconds`` are measured."""
    outcomes, elapsed, passes = [], 0.0, 0
    while not passes or elapsed < seconds:
        outs = run_pass(wl, digests, speed, passes)
        elapsed += sum(o["raw_s"] for o in outs)
        outcomes.extend(outs)
        passes += 1
    return outcomes


def scale_outcomes(outcomes, speed: HostSpeed):
    for o in outcomes:
        o["scaled_s"] = o["raw_s"] * speed.scale(*o["samples"])


def pass_walls(outcomes) -> list:
    """Scaled seconds from first check to last verdict, per pass."""
    walls = {}
    for o in outcomes:
        walls[o["pass"]] = walls.get(o["pass"], 0.0) + o["scaled_s"]
    return list(walls.values())


def summarize(outcomes) -> dict:
    failed = [o for o in outcomes if o["status"] != "ok"]
    wrong = [o for o in failed if o["status"] in ("wrong verdict",
                                                  "digest mismatch")]
    return {"checks": len(outcomes), "failed": len(failed),
            "fail_ratio": len(failed) / len(outcomes),
            "correct": not wrong,
            "failures": sorted({f"{o['check']}: {o['status']}"
                                for o in failed})}


def load_digests() -> dict:
    with open(DIGESTS) as fh:
        return json.load(fh)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=SETUPS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help=argparse.SUPPRESS)
    ap.add_argument("--work-dir", help=argparse.SUPPRESS)
    ap.add_argument("--record-digests", action="store_true",
                    help="run one pass of every workload and rewrite "
                         "digests.json from its outputs")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "quasihopf", "__init__.py")):
        print(f"error: no quasihopf sources under {SRC}", file=sys.stderr)
        return 2
    os.environ.pop("QHF_THREADS", None)

    if args.setup_only:
        os.makedirs(args.work_dir, exist_ok=True)
        _, secs = timed_setup(args.workload, args.seed, args.work_dir)
        print(secs)
        return 0
    if args.record_digests:
        return record_digests(args.seed)
    if args.workload is None:
        ap.error("--workload is required")
    return run(args.workload, args.seed, args.seconds, bool(args.trace))


def record_digests(seed: int) -> int:
    digests = {}
    speed = HostSpeed()
    for name in SETUPS:
        work = os.path.join(OUT, f"record-{os.getpid()}")
        try:
            wl, _ = timed_setup(name, seed, work)
            outcomes = run_pass(wl, {}, speed, 0, record_to=digests)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        for o in outcomes:
            print(f"{name:14s} {o['check']:45s} {o['status']}")
    with open(DIGESTS, "w") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(digests)} digests to {DIGESTS}")
    return 0


def run(name: str, seed: int, seconds: float, trace: bool) -> int:
    loadavg = os.getloadavg()
    os.makedirs(OUT, exist_ok=True)
    work = os.path.join(OUT, f"work-{os.getpid()}")
    digests = load_digests()
    speed = HostSpeed()
    try:
        wl, setups = timed_setups(name, seed, work, speed)
        speed.start()
        info = machine(loadavg)
        if trace:
            from tracing import traced_pass
            outcomes = measure(wl, 0.0, digests, speed)
            spans_path = os.path.join(OUT, f"spans-{name}-seed{seed}.jsonl.gz")
            lo = speed.mark()
            layer, traced_outcomes, trace_stats = traced_pass(
                wl, digests, speed, run_pass, spans_path)
            traced_scale = speed.scale(lo, speed.mark())
        else:
            outcomes = measure(wl, seconds, digests, speed)
    finally:
        speed.stop()
        shutil.rmtree(work, ignore_errors=True)

    scale_outcomes(outcomes, speed)
    walls = pass_walls(outcomes)
    summary = summarize(outcomes)
    slowest = max(outcomes, key=lambda o: o["scaled_s"])
    e2e = {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(raw * speed.scale(lo, hi)
                                     for raw, lo, hi in setups),
        "slowest_check_s": slowest["scaled_s"],
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    units = {"wall_s": "s", "setup_s": "s", "slowest_check_s": "s",
             "peak_rss_mb": "MB"}
    record = {"workload": name, "seed": seed, "seconds": seconds,
              "trace": trace, "machine": info,
              "calibration_raw_s": speed.samples, "passes_s": walls,
              "setups": setups, "slowest_check": slowest["check"],
              "inputs": wl.inputs, "end_to_end": e2e}
    if trace:
        scale_outcomes(traced_outcomes, speed)
        layer = {key: val * traced_scale if key.endswith("_s") else val
                 for key, val in layer.items()}
        layer["trace.overhead_s"] = (pass_walls(traced_outcomes)[0]
                                     - statistics.median(walls))
        outcomes += traced_outcomes
        summary = summarize(outcomes)
        record.update(per_layer=layer, trace_stats=trace_stats,
                      spans_file=os.path.relpath(spans_path, ROOT))
        metrics = {key: {"value": val, "unit": layer_unit(key)}
                   for key, val in layer.items()}
    else:
        metrics = {key: {"value": val, "unit": units[key]}
                   for key, val in e2e.items()}
    record.update(summary, outcomes=outcomes)
    path = os.path.join(OUT, f"{name}-seed{seed}-trace{int(trace)}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1, default=str)

    print(f"workload {name}  seed {seed}  passes {len(walls)}  "
          f"checks {summary['checks']}  failed {summary['failed']}  "
          f"fail_ratio {summary['fail_ratio']:.4f}  "
          f"load {info['loadavg_at_start']}")
    for failure in summary["failures"]:
        print(f"  FAILED {failure}")
    for key, m in metrics.items():
        print(f"  {key:34s} {m['value']:14.6f} {m['unit']}")
    print(json.dumps({"correct": summary["correct"],
                      "attempted": summary["checks"],
                      "failed": summary["failed"],
                      "metrics": metrics}))
    return 0


def layer_unit(key: str) -> str:
    return "s" if key.endswith("_s") else "count"


if __name__ == "__main__":
    sys.exit(main())
