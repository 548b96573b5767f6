"""Reference outputs and the correctness check behind ``failed``.

References live in ``refs/<size>/<workload>.npz`` as arrays named
``<op seed>.<field>``; the set of op seeds in a file is the workload's
pool. Deterministic fields must match within the absolute or relative
tolerances in ``TOL``. Monte Carlo fields are compared in units of the
standard error recorded with the reference (``<field>.se``), so code that
changes the random stream but not the sampled law still passes.
"""

from pathlib import Path

import numpy as np

REFS = Path(__file__).resolve().parent / "refs"

TOL = {
    "tau_rel": 1e-6,        # tau of each empirical-Bayes method, relative
    "center_abs": 1e-6,     # posterior means
    "radius_abs": 1e-5,     # interval half-widths (panel splits 2->4 move them 3e-6)
    "summary_abs": 2e-5,    # aggregated study metrics (lengths are two radii)
    "mc_z": 6.0,            # |change| / SE for one Monte Carlo scalar
    "mc_z_coord": 10.0,     # max over coordinates of |change| / SE
    "mc_z_rms": 2.5,        # root mean square over coordinates of |change| / SE
}

# (field suffix, kind) in order of precedence; kinds index the rules below
FIELD_KINDS = (
    (".tau", "tau_rel"),
    (".center", "center_abs"),
    (".center_probe", "center_abs"),
    (".half", "radius_abs"),
    ("summary.values", "summary_abs"),
    (".center_mean", "center_abs"),
    ("ball.radius", "mc"),
    ("hb.tau_mean", "mc"),
    ("hb.ball_radius", "mc"),
    ("hb.lo", "mc_coord"),
    ("hb.hi", "mc_coord"),
)

# deviation name reported per Monte Carlo field (see run.py for the metrics);
# deterministic fields report under their kind
MC_DEV_NAME = {
    "ball.radius": "ball_z",
    "hb.tau_mean": "tau_mean_z",
    "hb.ball_radius": "hb_ball_z",
    "hb.lo": "interval_z",
    "hb.hi": "interval_z",
}


def ref_path(workload, size):
    return REFS / size / f"{workload}.npz"


def load(workload, size):
    """{op seed: {field: ndarray}} from the reference file."""
    out = {}
    with np.load(ref_path(workload, size), allow_pickle=False) as z:
        for key in z.files:
            seed, field = key.split(".", 1)
            out.setdefault(int(seed), {})[field] = z[key]
    return out


def save(workload, size, refs):
    path = ref_path(workload, size)
    path.parent.mkdir(parents=True, exist_ok=True)
    flat = {f"{seed}.{field}": arr for seed, fields in sorted(refs.items())
            for field, arr in sorted(fields.items())}
    np.savez_compressed(path, **flat)


def _kind(field):
    for suffix, kind in FIELD_KINDS:
        if field.endswith(suffix):
            return kind
    return None


class Result:
    def __init__(self):
        self.problems = []
        self.devs = {}

    @property
    def ok(self):
        return not self.problems

    def dev(self, name, value):
        self.devs[name] = max(self.devs.get(name, 0.0), float(value))


def check(observed, ref):
    """Compare one op's outputs with its reference; never raises on mismatch."""
    res = Result()
    fields = [f for f in ref if not f.endswith(".se") and f != "summary.names"]
    missing = sorted(set(fields) - set(observed))
    if missing:
        res.problems.append(f"missing outputs {missing}")
    if "summary.names" in ref and "summary.names" in observed:
        if list(ref["summary.names"]) != list(observed["summary.names"]):
            res.problems.append("summary metric names differ")
            return res
    for field in fields:
        if field not in observed:
            continue
        kind = _kind(field)
        want = np.asarray(ref[field], dtype=float)
        got = np.asarray(observed[field], dtype=float)
        if kind is None:
            res.problems.append(f"{field}: no comparison rule")
            continue
        if got.shape != want.shape:
            res.problems.append(f"{field}: shape {got.shape} != {want.shape}")
            continue
        if not np.all(np.isfinite(got)):
            res.problems.append(f"{field}: non-finite values")
            continue
        diff = np.abs(got - want)
        if kind == "tau_rel":
            dev, limit = float(np.max(diff / np.abs(want))), TOL["tau_rel"]
        elif kind in ("mc", "mc_coord"):
            se = np.maximum(np.asarray(ref[field + ".se"], dtype=float), 1e-300)
            z = diff / se
            dev = float(np.max(z))
            limit = TOL["mc_z"] if kind == "mc" else TOL["mc_z_coord"]
            res.dev(MC_DEV_NAME[field], dev)
            if dev > limit:
                res.problems.append(f"{field}: {dev:.3g} standard errors from reference "
                                    f"(limit {limit:g})")
            rms = float(np.sqrt(np.mean(z * z)))
            if kind == "mc_coord" and rms > TOL["mc_z_rms"]:
                res.problems.append(f"{field}: {rms:.3g} standard errors from reference "
                                    f"in root mean square (limit {TOL['mc_z_rms']:g})")
            continue
        else:
            dev, limit = float(np.max(diff)) if diff.size else 0.0, TOL[kind]
        res.dev(kind, dev)
        if dev > limit:
            res.problems.append(f"{field}: deviation {dev:.3g} exceeds {limit:g}")
    return res


def batch_quantile_se(x, p, batches=25):
    """Column-wise batch SE of an empirical quantile, as in
    ``hierarchical.mcse_quantile`` but vectorized and with 25 batches: for
    the 2.5% quantile of 3000 draws, 50 batches of 60 understate the SE
    found across independent chains by about 10%, 25 batches match it."""
    x = np.asarray(x, dtype=float)
    m = x.shape[0] // batches
    b = np.quantile(x[: m * batches].reshape(batches, m, -1), p, axis=1)
    return np.std(b, axis=0, ddof=1) / np.sqrt(batches)
