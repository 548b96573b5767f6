"""Run every ``hsuq`` command on fixed inputs under two source trees and diff the results.

Each command runs as ``python -m hsuq`` in a fresh temporary directory per
tree, so relative paths in messages match. The script compares exit code,
stdout, stderr and every file the command writes. ``runtime_s`` lines (the
wall time that ``verify`` prints) are masked before comparing.

    python tools/cli_compare.py OLD_TREE/src src

It prints one line per differing command and a summary, and exits 1 when any
command differs.
"""

import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

OBS = np.concatenate([[5.0, -4.5, 3.2, 7.0], np.random.default_rng(123).standard_normal(46)])
INPUTS = {
    "obs.txt": "".join(f"{v:.10g}\n" for v in OBS),
    "blank.txt": "1.5\n\n  \n-0.25\n3\n",
    "junk.txt": "1.0\nbanana\n",
    "one.txt": "2.0\n",
    "sim.cfg": ("name = cmp\nn = 60\np = 6\nsignal = fixed:4\nreps = 2\nseed = 3\n"
                "methods = eb-mmle, eb-simple, normal-approx\nthreshold = yes\n"),
    "bad.cfg": "n = 10\nwidgets = 3\n",
    "short.cfg": "n = 10\n",
    "badval.cfg": "n = x\np = 2\nsignal = spikes\nreps = 1\nseed = 0\n",
}
COMMANDS = [
    "fit-tau obs.txt",
    "fit-tau obs.txt --method simple",
    "fit-tau obs.txt --method simple --c1 3 --c2 0.5",
    "fit-tau blank.txt",
    "intervals obs.txt --tau mmle",
    "intervals obs.txt --tau simple --alpha 0.1 --L 1.5",
    "intervals obs.txt --tau 0.1",
    "intervals blank.txt --tau 0.1",
    "ball obs.txt --tau mmle --draws 1200 --seed 3",
    "ball obs.txt --tau 0.2 --draws 1000",
    "hb obs.txt --iters 600 --burnin 100 --chain-csv chain.csv",
    "hb obs.txt --prior cauchy --iters 500 --burnin 50 --thin 2 --seed 4 --alpha 0.1 --L 1.2",
    "select obs.txt",
    "select obs.txt --rule interval --tau simple --alpha 0.1",
    "select obs.txt --rule threshold --tau 0.1 --cutoff 0.4",
    "select obs.txt --rule threshold",
    "simulate --config sim.cfg --out-dir res",
    "simulate --config sim.cfg",
    "verify list",
    "verify kernel-expansions",
    "verify score-bounds tau=1e-6",
    # usage and input errors (exit 2), a numerical failure (exit 1), help
    "",
    "nope",
    "--help",
    "intervals obs.txt",
    "fit-tau missing.txt",
    "fit-tau junk.txt",
    "fit-tau one.txt",
    "fit-tau obs.txt --method simple --c1 0.5",
    "intervals one.txt --tau 0.1",
    "ball junk.txt --tau 0.1",
    "hb one.txt",
    "select missing.txt",
    "intervals obs.txt --tau abc",
    "intervals obs.txt --tau 2",
    "ball obs.txt --tau 0",
    "select obs.txt --tau -1",
    "intervals obs.txt --tau 0.1 --L inf",
    "intervals obs.txt --tau 0.1 --alpha 1e-20",
    "select obs.txt --rule threshold --cutoff 1.5",
    "ball obs.txt --tau 0.1 --draws 10",
    "hb obs.txt --iters 10 --burnin 100",
    "verify moment-constant nn",
    "verify moment-constant nn=10",
    "verify moment-constant n=abc",
    "verify nosuch",
    "simulate --config bad.cfg",
    "simulate --config missing.cfg",
    "simulate --config short.cfg",
    "simulate --config badval.cfg",
] + [f"{c} --help" for c in ("fit-tau", "intervals", "ball", "hb", "select", "simulate",
                              "verify")]


def _mask(text):
    return re.sub(r"runtime_s \S+", "runtime_s *", text)


def run(src, command):
    """(exit code, stdout, stderr, {written file: text}) of one command under ``src``."""
    env = dict(os.environ, PYTHONPATH=str(Path(src).resolve()))
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        for name, text in INPUTS.items():
            (d / name).write_text(text)
        proc = subprocess.run([sys.executable, "-m", "hsuq", *command.split()], cwd=d,
                              env=env, capture_output=True, text=True, timeout=600)
        files = {str(p.relative_to(d)): p.read_text() for p in sorted(d.rglob("*"))
                 if p.is_file() and p.name not in INPUTS}
    return proc.returncode, _mask(proc.stdout), _mask(proc.stderr), files


def main(argv):
    if len(argv) != 2:
        raise SystemExit(__doc__)
    differ = 0
    for command in COMMANDS:
        old, new = run(argv[0], command), run(argv[1], command)
        if old != new:
            differ += 1
            parts = [part for part, a, b in zip(("exit", "stdout", "stderr", "files"), old, new)
                     if a != b]
            print(f"DIFFERS ({', '.join(parts)}): hsuq {command}")
    print(f"{len(COMMANDS)} commands, {differ} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
