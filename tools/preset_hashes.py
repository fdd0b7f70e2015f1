"""Print the SHA-256 of eitmol's output for every preset.

Usage: python3 tools/preset_hashes.py

Runs, each in a fresh ``python -m eitmol.cli`` process against the ``src/``
tree next to this script:

- ``simulate --threads 1`` on each of the five presets (the CSV is hashed);
- ``components --threads 1`` on ``li2_fig3a`` (the 15 CSVs are hashed
  concatenated in ascending |M|);
- ``simulate --threads 1`` on ``li2_fig4`` with ``doppler = off``, once with
  the analytic engine and once with the oracle engine.

A refactor that must not change the output bytes is checked by running this
script on the commit before and after it, on the same machine, and comparing
the two listings line by line.
"""

import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PRESETS = ("li2_fig3a", "li2_fig3b", "li2_fig4", "li2_fig6a", "li2_fig6b")


def run_cli(*args):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    subprocess.run([sys.executable, "-m", "eitmol.cli", *args, "--threads",
                    "1"], env=env, check=True, stdout=subprocess.DEVNULL)


def sha256_of(paths):
    digest = hashlib.sha256()
    for path in paths:
        digest.update(Path(path).read_bytes())
    return digest.hexdigest()


def doppler_off_config(tmp, engine):
    text = (SRC / "eitmol" / "presets" / "li2_fig4.cfg").read_text("utf-8")
    for old, new in (("doppler = on", "doppler = off"),
                     ("engine = analytic", f"engine = {engine}")):
        if old not in text:
            raise SystemExit(f"li2_fig4 preset has no line {old!r}")
        text = text.replace(old, new)
    path = Path(tmp) / f"li2_fig4_doppler_off_{engine}.cfg"
    path.write_text(text, "utf-8")
    return str(path)


def main():
    with tempfile.TemporaryDirectory() as tmp:
        for name in PRESETS:
            out = Path(tmp) / name
            run_cli("simulate", "--config", name, "--out", str(out))
            print(f"{name} {sha256_of([out / f'{name}.csv'])}", flush=True)

        out = Path(tmp) / "components"
        run_cli("components", "--config", "li2_fig3a", "--out", str(out))
        parts = sorted(out.glob("li2_fig3a_m*.csv"))
        print(f"li2_fig3a components ({len(parts)} CSVs)"
              f" {sha256_of(parts)}", flush=True)

        for engine in ("analytic", "oracle"):
            out = Path(tmp) / f"off_{engine}"
            run_cli("simulate", "--config", doppler_off_config(tmp, engine),
                    "--out", str(out))
            print(f"li2_fig4 doppler off, {engine} engine"
                  f" {sha256_of([out / 'li2_fig4.csv'])}", flush=True)


if __name__ == "__main__":
    main()
