"""Child process of the benchmark: one set-up probe or one workload run.

    python3 eitbench/worker.py setup PRESET
        Import eitmol, load PRESET and build its |M| channels, then print
        time.monotonic() (system-wide on Linux) so the parent can time the
        whole set-up from before it started this interpreter.

    python3 eitbench/worker.py run WORKLOAD SEED SECONDS TRACE OUTDIR
        Prepare the workload's inputs, time whole rounds of its call until
        SECONDS have passed, with a host-speed calibration (calib.py) between
        rounds, then check every round's output and print one JSON line with
        the per-round records.

Both expect eitmol's ``src`` directory on PYTHONPATH and BLAS held to one
thread by the environment; ``run.py`` arranges both.
"""

import sys
import time


def setup_probe(preset):
    import eitmol.cli  # noqa: F401  (the entry point imports every layer)
    from eitmol.config import load_config
    from eitmol.sublevels import build_channels
    cfg = load_config(preset)
    build_channels(cfg.system, cfg.mu_probe_au, cfg.mu_coupling_au,
                   cfg.lasers.field_probe, cfg.lasers.field_coupling)
    print(repr(time.monotonic()))


def run_workload(name, seed, seconds, trace, outdir):
    import json
    import resource
    import traceback

    # every traced layer must be loaded before the tracer looks for it
    import eitmol.cli  # noqa: F401
    import eitmol.fitting  # noqa: F401
    import workloads
    import calib

    tracer = None
    if trace:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
    work = workloads.make(name, seed, outdir)     # config load, channel build
    setup_snap = tracer.snapshot() if tracer else None
    work.prepare()
    if tracer:
        tracer.reset()

    # Calibration shares this process, so the first round is timed before
    # any calibration has touched the heap: its "before" value is the one
    # taken after it, and peak RSS is read at its end.
    c_before = None
    peak_rss_mb = None
    rounds = []
    raised_rounds = set()
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        r0 = resource.getrusage(resource.RUSAGE_SELF)
        t0 = time.perf_counter()
        try:
            spectra = work.call()
        except Exception:                 # a failed operation, not a crash
            traceback.print_exc()
            spectra = None
        t1 = time.perf_counter()
        r1 = resource.getrusage(resource.RUSAGE_SELF)
        if spectra is None:
            raised_rounds.add(len(rounds))
        if peak_rss_mb is None:
            peak_rss_mb = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0
        c_after = calib.measure()
        rounds.append({
            "calib_s": (c_before or c_after, c_after),
            "run_s": t1 - t0,
            "cpu_s": (r1.ru_utime + r1.ru_stime) - (r0.ru_utime + r0.ru_stime),
            "minor_faults": r1.ru_minflt - r0.ru_minflt,
            "spectra": spectra,
            "layers": tracer.snapshot() if tracer else None,
        })
        c_before = c_after
        if spectra is not None:
            work.collect()

    ok_rounds = [i for i in range(len(rounds)) if i not in raised_rounds]
    problems = work.check()
    if len(problems) != len(ok_rounds):
        raise RuntimeError("checks do not cover every completed round")
    wrong_rounds = []
    for i, errs in zip(ok_rounds, problems):
        for msg in errs:
            print(f"check failed ({name}, round {i}): {msg}", file=sys.stderr)
        if errs:
            wrong_rounds.append(i)
    print(json.dumps({
        "workload": name,
        "rounds": rounds,
        "raised_rounds": sorted(raised_rounds),
        "wrong_rounds": wrong_rounds,
        "peak_rss_mb": peak_rss_mb,
        "setup_layers": setup_snap,
        "absent": tracer.absent if tracer else [],
    }))


def main(argv):
    if argv[:1] == ["setup"] and len(argv) == 2:
        setup_probe(argv[1])
    elif argv[:1] == ["run"] and len(argv) == 6:
        run_workload(argv[1], int(argv[2]), float(argv[3]), argv[4] == "1",
                     argv[5])
    else:
        print(__doc__, file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
