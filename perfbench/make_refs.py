#!/usr/bin/env python3
"""Record reference outputs for benchmark ops from an hsuq source tree.

References must come from the code a change is measured against, so
point ``--src`` at the ``src`` directory of the parent commit, e.g.

    git archive <parent> src | tar -x -C /tmp/parent
    python3 perfbench/make_refs.py --src /tmp/parent/src --workload eb_study \\
        --op-seeds 1016 1017

Named op seeds are added to (or replace entries of) the workload's
reference file, which extends its pool; with no ``--op-seeds`` the whole
default pool is rebuilt.
"""

import argparse
import sys

import refcheck
from workloads import SIZES, WORKLOADS, import_hsuq

# default pools: op seeds BASE .. BASE + count - 1
POOLS = {
    "full": {"eb_study": (1000, 16), "ball_null": (2000, 12), "hb_study": (3000, 16)},
    "tiny": {"eb_study": (1000, 3), "ball_null": (2000, 3), "hb_study": (3000, 3)},
}


def record(hs, wl, size, op_seed):
    with wl.session(hs, for_refs=True) as session:
        raw = wl.run(hs, wl.build(hs, size, op_seed))
    out = wl.outputs(raw, session)
    out.update(wl.reference_se(hs, raw, session))
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--src", required=True, help="src directory holding the hsuq package")
    ap.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    ap.add_argument("--size", choices=[*SIZES, "all"], default="all")
    ap.add_argument("--op-seeds", type=int, nargs="*")
    args = ap.parse_args(argv)
    hs = import_hsuq(args.src)
    sizes = SIZES if args.size == "all" else (args.size,)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    for size in sizes:
        for name in names:
            wl = WORKLOADS[name]
            if args.op_seeds:
                refs = refcheck.load(name, size) if refcheck.ref_path(name, size).exists() else {}
                seeds = args.op_seeds
            else:
                refs = {}
                base, count = POOLS[size][name]
                seeds = range(base, base + count)
            for op_seed in seeds:
                refs[op_seed] = record(hs, wl, size, op_seed)
                print(f"{size} {name} op {op_seed}", file=sys.stderr)
            refcheck.save(name, size, refs)
    return 0


if __name__ == "__main__":
    sys.exit(main())
