"""Print the SHA-256 of eitmol's output for every preset.

Usage: python3 tools/preset_hashes.py [--against REV]

Runs, each in a fresh ``python -m eitmol.cli`` process against the ``src/``
tree next to this script:

- ``simulate --threads 1`` on each of the five presets (the CSV is hashed);
- ``components --threads 1`` on ``li2_fig3a`` and on ``li2_fig6b`` (the 15
  CSVs of each are hashed concatenated in ascending |M|); ``li2_fig6b``
  has the coupling on, so its components carry rho33 and its refinement
  check;
- ``simulate --threads 1`` on ``li2_fig4`` made Doppler-free by deleting its
  ``[ensemble]`` and ``[quadrature]`` sections, once with the analytic
  engine, once with the oracle engine, and once with the oracle engine and
  ``channels = rho33``, whose rho22 column is the zeroed row of the table;
- ``components --threads 1`` on that Doppler-free ``li2_fig4`` (analytic):
  the 15 CSVs, hashed concatenated in ascending |M|;
- ``simulate --threads 1`` on ``li2_fig6b`` shrunk to 33 points and 1001
  nodes, with the oracle engine and Doppler on: every point is averaged on
  the trapezoid and checked against its doubled rule;
- ``simulate --threads 1`` on ``li2_fig6a`` with co-propagating beams, the
  other sign of the coupling beam's Doppler shift;
- ``fit --threads 1`` on ``li2_fig4`` shrunk to 32 points over +-1200 MHz
  and 2001 nodes, with ``mu_coupling`` and ``amplitude_scale`` free, against
  a 3-column rho33 trace (1% seeded noise and a 1% sigma column) made from
  that config's own ``simulate`` output; ``_fit.json`` and ``_bestfit.csv``
  are hashed concatenated;
- the same fit with ``gamma12_col`` free as well (from 8 MHz in
  [1, 20] MHz), so that the search over two or more nonlinear parameters
  is covered too;
- the ``mu_coupling`` and ``amplitude_scale`` fit with ``engine = oracle``,
  on ``li2_fig4`` shrunk to 16 points over +-1200 MHz and 2001 nodes,
  against a trace made the same way from that grid's analytic
  ``simulate``: the only line that averages on the unverified trapezoid
  (every spectrum of an oracle fit but its verified start);
- ``simulate --threads 1`` on ``li2_fig4`` with ``J3 = 13``: the J pair
  makes the coupling a P-branch transition, which no preset has;
- ``simulate --threads 1`` on ``li2_fig4`` with ``transit_rate = 5 MHz``,
  ``refill_rate = 1 MHz`` and ``gamma13_col = 3 MHz``: transit apart from
  refill, so every transit-broadened rate and rho11_0 != 1 are covered;
- ``simulate --threads 1`` on ``li2_fig4`` with 10x its lifetimes
  (``tau2 = 180 ns``, ``tau3 = 161.5 ns``) and a tenth of its dephasing and
  transit rates (``gamma12_col = 0.5 MHz``, ``gamma13_col = gamma23_col =
  0.1 MHz``, ``transit_rate = refill_rate = 0.2 MHz``): lines narrow
  enough that a 4001-node trapezoid could not check the closed form.  A
  tree on which this run fails lists ``exit`` and its exit code instead of
  the hashes.

Each line gives the label, the SHA-256 of the files, after ``rows`` the
SHA-256 of their CSV data rows alone (every line of the CSVs but the ``#``
header; a fit's ``_fit.json`` is left out), and after ``json`` the SHA-256
of the ``.json`` mirror of each CSV, concatenated in the same order (a
fit's ``_bestfit.json``).  A fit line ends with the fit's
``evaluations``, the number of spectra it simulated, read from its
``_fit.json``.  A change that moves only a header value, such as
``quadrature.max_refinement_shift``, keeps the rows hash.

A refactor that must not change the output bytes is checked with
``--against REV``: after its own listing the script extracts REV's ``src/``
with ``git archive``, runs the same list against it, and prints the label
of each line that differs with the fields that moved (``file``, ``rows``,
``json``, ``evaluations``), or ``identical``; it exits 1 on any
difference.  A line whose ``rows`` did not move differs in its headers
alone (or, for a fit, in its ``_fit.json``).
"""

import argparse
import hashlib
import io
import json
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PRESETS = ("li2_fig3a", "li2_fig3b", "li2_fig4", "li2_fig6a", "li2_fig6b")


def run_cli(src, *args, check=True):
    """Run the CLI; without ``check`` a failed run is no error, and its exit
    code is returned."""
    env = dict(os.environ, PYTHONPATH=str(src))
    return subprocess.run([sys.executable, "-m", "eitmol.cli", *args,
                           "--threads", "1"], env=env, check=check,
                          stdout=subprocess.DEVNULL).returncode


def sha256_of(paths, rows_only=False):
    """SHA-256 of the files concatenated; with ``rows_only``, of their CSV
    data rows alone (every line of a .csv file that is not a # header)."""
    digest = hashlib.sha256()
    for path in paths:
        data = Path(path).read_bytes()
        if rows_only:
            if Path(path).suffix != ".csv":
                continue
            data = b"".join(line for line in data.splitlines(keepends=True)
                            if not line.startswith(b"#"))
        digest.update(data)
    return digest.hexdigest()


def report(label, paths):
    """One listing entry: the label, then the files' hash, their data rows'
    hash and the hash of the CSVs' JSON mirrors."""
    mirrors = [Path(p).with_suffix(".json") for p in paths
               if Path(p).suffix == ".csv"]
    return label, (f"{sha256_of(paths)} rows {sha256_of(paths, True)}"
                   f" json {sha256_of(mirrors)}")


def edited_config(src, tmp, preset, tag, edits):
    """Copy of a preset with whole lines or sections replaced, as
    ``<preset>_<tag>.cfg``."""
    text = (src / "eitmol" / "presets" / f"{preset}.cfg").read_text("utf-8")
    for old, new in edits:
        if old not in text:
            raise SystemExit(f"{preset} preset has no text {old!r}")
        text = text.replace(old, new)
    path = Path(tmp) / f"{preset}_{tag}.cfg"
    path.write_text(text, "utf-8")
    return str(path)


FIT_SECTION = """[fit]
channel = rho33
free = mu_coupling amplitude_scale
mu_coupling_init = 1.2 au
mu_coupling_min = 0.8 au
mu_coupling_max = 2.5 au
amplitude_scale_init = 0.8
amplitude_scale_min = 0.1
amplitude_scale_max = 10

"""
# li2_fig4's velocity-average sections: deleting both makes it Doppler-free
DOPPLER_FREE = (("[ensemble]\ntemperature = 1000 K\nmass = 14 amu\n"
                 "geometry = counter_propagating\n\n", ""),
                ("[quadrature]\nnodes = 4001\nspan = 4.0\n"
                 "refinement_tolerance = 1e-4\n\n", ""))
GAMMA12_FREE = (("free = mu_coupling amplitude_scale",
                 "free = mu_coupling gamma12_col amplitude_scale"),
                ("amplitude_scale_init", "gamma12_col_init = 8 MHz\n"
                 "gamma12_col_min = 1 MHz\ngamma12_col_max = 20 MHz\n"
                 "amplitude_scale_init"))

LONG_LIVED = (("tau2 = 18 ns", "tau2 = 180 ns"),
              ("tau3 = 16.15 ns", "tau3 = 161.5 ns"),
              ("gamma12_col = 5 MHz", "gamma12_col = 0.5 MHz"),
              ("gamma13_col = 1 MHz", "gamma13_col = 0.1 MHz"),
              ("gamma23_col = 1 MHz", "gamma23_col = 0.1 MHz"),
              ("transit_rate = 2 MHz", "transit_rate = 0.2 MHz"),
              ("refill_rate = 2 MHz", "refill_rate = 0.2 MHz"))


def write_noisy_trace(spectrum_csv, path, seed=20240817):
    """delta1, rho33 * (1 + 0.01 N(0, 1)), 0.01 rho33 from a spectrum CSV."""
    rows = [line.split(",") for line in
            Path(spectrum_csv).read_text("ascii").splitlines()
            if line and not line.startswith("#")]
    x, _, rho33 = np.array(rows[1:], float).T
    noisy = rho33 * (1.0 + 0.01 * np.random.default_rng(seed)
                     .standard_normal(rho33.size))
    path.write_text("".join(f"{a:.17g},{b:.17g},{c:.17g}\n"
                            for a, b, c in zip(x, noisy, 0.01 * rho33)),
                    "ascii")


def listing(src):
    """Yield (label, hashes) for each run of the list, against ``src``."""
    with tempfile.TemporaryDirectory() as tmp:
        for name in PRESETS:
            out = Path(tmp) / name
            run_cli(src, "simulate", "--config", name, "--out", str(out))
            yield report(name, [out / f"{name}.csv"])

        for name in ("li2_fig3a", "li2_fig6b"):
            out = Path(tmp) / f"components_{name}"
            run_cli(src, "components", "--config", name, "--out", str(out))
            parts = sorted(out.glob(f"{name}_m*.csv"))
            yield report(f"{name} components ({len(parts)} CSVs)", parts)

        oracle = (("engine = analytic", "engine = oracle"),)
        for tag, edits, label in (
                ("analytic", (), "analytic engine"),
                ("oracle", oracle, "oracle engine"),
                ("oracle_rho33", oracle + (("channels = rho22 rho33",
                                            "channels = rho33"),),
                 "oracle engine, rho33 only")):
            out = Path(tmp) / f"off_{tag}"
            cfg = edited_config(src, tmp, "li2_fig4", f"doppler_off_{tag}",
                                DOPPLER_FREE + edits)
            run_cli(src, "simulate", "--config", cfg, "--out", str(out))
            yield report(f"li2_fig4 doppler off, {label}",
                         [out / "li2_fig4.csv"])

        out = Path(tmp) / "off_components"
        cfg = edited_config(src, tmp, "li2_fig4", "doppler_off", DOPPLER_FREE)
        run_cli(src, "components", "--config", cfg, "--out", str(out))
        parts = sorted(out.glob("li2_fig4_m*.csv"))
        yield report(f"li2_fig4 doppler off components ({len(parts)} CSVs)",
                     parts)

        out = Path(tmp) / "oracle"
        cfg = edited_config(src, tmp, "li2_fig6b", "oracle",
                            (("delta1_points = 801", "delta1_points = 33"),
                             ("nodes = 4001", "nodes = 1001"),
                             ("engine = analytic", "engine = oracle")))
        run_cli(src, "simulate", "--config", cfg, "--out", str(out))
        yield report("li2_fig6b 33 points, 1001 nodes, oracle engine,"
                     " doppler on", [out / "li2_fig6b.csv"])

        out = Path(tmp) / "co"
        cfg = edited_config(src, tmp, "li2_fig6a", "co",
                            (("geometry = counter_propagating",
                              "geometry = co_propagating"),))
        run_cli(src, "simulate", "--config", cfg, "--out", str(out))
        yield report("li2_fig6a co-propagating", [out / "li2_fig6a.csv"])

        shrink = (("delta1_min = -3000 MHz", "delta1_min = -1200 MHz"),
                  ("delta1_max = 3000 MHz", "delta1_max = 1200 MHz"),
                  ("nodes = 4001", "nodes = 2001"),
                  ("[output]", FIT_SECTION + "[output]"))
        for tag, points, edits, label in (
                ("fit", 32, (), "mu and amplitude free"),
                ("fit3", 32, GAMMA12_FREE, "mu, gamma12 and amplitude free"),
                ("fit_oracle", 16, oracle,
                 "mu and amplitude free, oracle engine")):
            grid = shrink + (("delta1_points = 801",
                              f"delta1_points = {points}"),)
            out = Path(tmp) / tag
            data = Path(tmp) / f"li2_fig4_trace_{points}.csv"
            if not data.exists():   # the analytic simulate of the same grid
                cfg = edited_config(src, tmp, "li2_fig4", f"trace_{points}",
                                    grid)
                run_cli(src, "simulate", "--config", cfg, "--out", str(out))
                write_noisy_trace(out / "li2_fig4.csv", data)
            cfg = edited_config(src, tmp, "li2_fig4", tag, grid + edits)
            run_cli(src, "fit", "--config", cfg, "--data", str(data),
                    "--out", str(out))
            parts = [out / "li2_fig4_fit.json", out / "li2_fig4_bestfit.csv"]
            label, hashes = report(
                f"li2_fig4 fit, {points} points, 2001 nodes, {label}", parts)
            spent = json.loads(parts[0].read_text("ascii"))["evaluations"]
            yield label, f"{hashes} evaluations {spent}"

        out = Path(tmp) / "p_coupling"
        cfg = edited_config(src, tmp, "li2_fig4", "p_coupling",
                            (("J3 = 14", "J3 = 13"),))
        run_cli(src, "simulate", "--config", cfg, "--out", str(out))
        yield report("li2_fig4 J3 = 13, P-branch coupling",
                     [out / "li2_fig4.csv"])

        out = Path(tmp) / "transit"
        cfg = edited_config(src, tmp, "li2_fig4", "transit",
                            (("gamma13_col = 1 MHz", "gamma13_col = 3 MHz"),
                             ("transit_rate = 2 MHz", "transit_rate = 5 MHz"),
                             ("refill_rate = 2 MHz", "refill_rate = 1 MHz")))
        run_cli(src, "simulate", "--config", cfg, "--out", str(out))
        yield report("li2_fig4 transit 5 MHz, refill 1 MHz, gamma13 3 MHz",
                     [out / "li2_fig4.csv"])

        out = Path(tmp) / "long_lived"
        cfg = edited_config(src, tmp, "li2_fig4", "long_lived", LONG_LIVED)
        code = run_cli(src, "simulate", "--config", cfg, "--out", str(out),
                       check=False)
        label = "li2_fig4 long-lived: 10x lifetimes, rates / 10"
        yield (report(label, [out / "li2_fig4.csv"]) if code == 0 else
               (label, f"exit {code}"))


def moved(mine, other):
    """The fields of two listing lines' hashes that differ: ``file`` (the
    first hash), then each named one (``rows``, ``json``, ``evaluations``)."""
    def fields(hashes):
        words = hashes.split()
        return {"file": words[0], **dict(zip(words[1::2], words[2::2]))}

    mine, other = fields(mine), fields(other)
    return [k for k in {**mine, **other} if mine.get(k) != other.get(k)]


def tree_of(rev, dest):
    """Extract the ``src/`` tree of git revision ``rev`` into ``dest``."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev, "src"],
                             check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")
    return Path(dest) / "src"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", metavar="REV",
                        help="also list git revision REV and compare")
    args = parser.parse_args()
    ours = []
    for label, hashes in listing(SRC):
        print(label, hashes, flush=True)
        ours.append((label, hashes))
    if args.against is None:
        return 0
    with tempfile.TemporaryDirectory() as tmp:
        theirs = list(listing(tree_of(args.against, tmp)))
    differ = [(label, moved(mine, other)) for (label, mine), (_, other)
              in zip(ours, theirs) if mine != other]
    for label, fields in differ:
        print(f"differs from {args.against}: {label} ({', '.join(fields)})")
    if not differ:
        print(f"identical to {args.against}: all {len(ours)} lines")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
