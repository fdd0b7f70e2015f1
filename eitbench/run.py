"""eitmol benchmark: one workload per invocation, run from the repository root.

    python3 eitbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see README.md): scan_detuned, scan_coupling_off, fit_mu.  Each
runs single-threaded, with BLAS held to one thread, in a child process of its
own.  With ``--trace 0`` the last line of standard output is a JSON object
with the end-to-end metrics, times scaled to a reference host speed
(calib.py); with ``--trace 1`` it carries the per-layer metrics of a
separate traced run instead.

Every child is started in a process group of its own, waited on under a
timeout, and killed with its whole group if the timeout passes, a check
fails to produce a result, or this process is interrupted or terminated.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import calib  # noqa: E402
from workloads import WORKLOADS  # noqa: E402  (numpy only, no eitmol)

SETUP_PROBES = 11         # fresh interpreters timed per run; median reported
BUDGET_S = 170.0          # every child must have ended by then
PROBE_TIMEOUT_S = 60.0
ONE_THREAD = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class Interrupted(Exception):
    """SIGTERM or SIGHUP arrived; unwinds like KeyboardInterrupt."""


class ChildFailed(Exception):
    pass


def _raise_interrupted(signum, frame):
    raise Interrupted(signal.Signals(signum).name)


def child_env(src):
    env = dict(os.environ)
    for var in ONE_THREAD:
        env[var] = "1"
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def kill_group(proc):
    """SIGKILL the child's process group and reap the child."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()


def run_child(argv, env, timeout):
    """Run argv in its own process group; return its stdout.

    Whatever happens here, timeout and interrupt included, the group is
    killed and the child reaped before this function returns or raises.
    """
    proc = None
    try:
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, env=env,
                                text=True, process_group=0)
        out, _ = proc.communicate(timeout=max(timeout, 0.1))
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"timed out after {timeout:.0f} s: {argv[1:3]}")
    finally:
        if proc is not None:
            kill_group(proc)
    if proc.returncode != 0:
        raise ChildFailed(f"exit code {proc.returncode}: {argv[1:3]}")
    return out


class Session:
    """The children of one invocation, sharing one deadline."""

    def __init__(self, src):
        self.env = child_env(src)
        self.deadline = time.monotonic() + BUDGET_S

    def remaining(self, cap=BUDGET_S):
        return min(cap, self.deadline - time.monotonic())

    def setup_probe(self, preset):
        t0 = time.monotonic()
        out = run_child([sys.executable, os.path.join(HERE, "worker.py"),
                         "setup", preset], self.env,
                        self.remaining(PROBE_TIMEOUT_S))
        return float(out.strip().splitlines()[-1]) - t0

    def setup_probes(self, preset, n):
        """n (raw, scaled) set-up times, calibrated between probes."""
        cal = [calib.measure()]
        raw = []
        for _ in range(n):
            raw.append(self.setup_probe(preset))
            cal.append(calib.measure())
        return [(t, t * calib.scale(a, b))
                for t, a, b in zip(raw, cal, cal[1:])]

    def workload(self, name, seed, seconds, trace, outdir):
        out = run_child([sys.executable, os.path.join(HERE, "worker.py"),
                         "run", name, str(seed), repr(seconds),
                         "1" if trace else "0", outdir], self.env,
                        self.remaining())
        return json.loads(out.strip().splitlines()[-1])


def end_to_end(rec, setup):
    """Median-per-round end-to-end metrics of one untraced run.

    Times are scaled to the reference host speed (calib.py); the raw
    medians go to stderr.
    """
    ok = [r for i, r in enumerate(rec["rounds"])
          if i not in rec["raised_rounds"]] or rec["rounds"]
    factor = [calib.scale(*r["calib_s"]) for r in ok]
    spectra = [r["spectra"] or 1 for r in ok]

    def med(key, per=None):
        per = per or [1] * len(ok)
        return statistics.median(r[key] * f / n
                                 for r, f, n in zip(ok, factor, per))

    print(f"raw medians: setup_s {statistics.median(t for t, _ in setup):.4f}"
          f" run_s {statistics.median(r['run_s'] for r in ok):.4f}"
          f" cpu_s {statistics.median(r['cpu_s'] for r in ok):.4f};"
          " calibration kernel "
          f"{statistics.median(c for r in ok for c in r['calib_s']):.4f} s",
          file=sys.stderr)
    return {
        "setup_s": (statistics.median(s for _, s in setup), "s"),
        "run_s": (med("run_s"), "s"),
        "cpu_s": (med("cpu_s"), "s"),
        "peak_rss_mb": (rec["peak_rss_mb"], "MB"),
        "minor_faults": (statistics.median(r["minor_faults"] for r in ok),
                         "count"),
        "spectra": (statistics.median(spectra), "count"),
        "spectrum_s": (med("run_s", spectra), "s"),
    }


def per_layer(rec):
    """Median-per-round per-layer metrics of one traced run."""
    from tracing import layer_metrics
    rows = [layer_metrics(rec["setup_layers"], r["layers"])
            for r in rec["rounds"]]
    return {k: (statistics.median(row[k][0] for row in rows), rows[0][k][1])
            for k in rows[0]}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = os.path.abspath("src")
    if not os.path.isfile(os.path.join(src, "eitmol", "__init__.py")):
        print("run.py: no src/eitmol here; run from the repository root",
              file=sys.stderr)
        return 2
    for sig in (signal.SIGTERM, signal.SIGHUP):
        signal.signal(sig, _raise_interrupted)

    outdir = os.path.join(HERE, "_out", args.workload)
    os.makedirs(outdir, exist_ok=True)
    session = Session(src)
    preset = WORKLOADS[args.workload][1]
    try:
        if args.trace:
            rec = session.workload(args.workload, args.seed, args.seconds,
                                   True, outdir)
            metrics = per_layer(rec)
            run_s = statistics.median(r["run_s"] for r in rec["rounds"])
            print(f"traced run_s {run_s:.4f} s; absent: "
                  f"{', '.join(rec['absent']) or 'none'}", file=sys.stderr)
        else:
            session.setup_probe(preset)        # warm-up: bytecode, file cache
            half = SETUP_PROBES // 2
            setup = session.setup_probes(preset, half)
            rec = session.workload(args.workload, args.seed, args.seconds,
                                   False, outdir)
            setup += session.setup_probes(preset, SETUP_PROBES - half)
            metrics = end_to_end(rec, setup)
    except ChildFailed as exc:
        print(f"run.py: child failed: {exc}", file=sys.stderr)
        return 3
    except (KeyboardInterrupt, Interrupted) as exc:
        print(f"run.py: interrupted ({exc or 'SIGINT'}); children killed",
              file=sys.stderr)
        return 130

    failed = set(rec["raised_rounds"]) | set(rec["wrong_rounds"])
    result = {
        "correct": not rec["wrong_rounds"],
        "attempted": len(rec["rounds"]),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
