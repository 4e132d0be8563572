"""Proof that the checks are live: corrupted program output must fail them.

Two small strips go through the program (the fig3b couplings and the
Hermitian fig6a model, w=12, 8 momenta).  Their clean tables must pass
``check_strip``; a table with one eigenvalue negated, and a Hermitian table
with one off-continuum state relabelled ``extended``, must not.
"""

import numpy as np

import checks
import physics
import workloads

W = 12
KX_N = 8


def run(p):
    """Problems of the self-test (empty when every corruption is caught)."""
    out = p.work / "selftest"
    kx_grid = np.linspace(-np.pi, np.pi, KX_N, endpoint=False)
    problems = []
    tables = {}
    for name, params in (("nonhermitian", workloads.FIG3B), ("hermitian", workloads.FIG6A)):
        config = p.write_config(
            f"selftest_{name}",
            workloads.config_text("ribbon-sweep", out, name, params, grid={"w": W, "kx_n": KX_N}, svg=False),
        )
        rc, _ = p.cli("ribbon-sweep", config)
        if rc != 0:
            return [f"self-test {name} strip: exit code {rc}"]
        tables[name] = checks.load_strip(out / f"{name}_sweep.csv")

    def verdict(name, kx, e, labels):
        params = workloads.FIG6A if name == "hermitian" else workloads.FIG3B
        return checks.check_strip(kx, e, labels, params, W, kx_grid, symmetric=True, hermitian=name == "hermitian")

    for name, (kx, e, labels) in tables.items():
        if verdict(name, kx, e, labels):
            problems.append(f"self-test: clean {name} table fails the checks")

    kx, e, labels = tables["nonhermitian"]
    bad = e.copy()
    i = int(np.flatnonzero(np.abs(e) > 0.1)[0])
    bad[i] = -bad[i]
    if not verdict("nonhermitian", kx, bad, labels):
        problems.append("self-test: a negated eigenvalue passes the checks")

    kx, e, labels = tables["hermitian"]
    off = None
    for k in kx_grid:
        sel = np.flatnonzero(np.abs(kx - k) < 1e-12)
        tracks = physics.periodic_cloud_abs(workloads.FIG6A, k)
        a = np.abs(e[sel])
        dist = np.maximum(np.maximum(tracks.min(axis=0)[None, :] - a[:, None],
                                     a[:, None] - tracks.max(axis=0)[None, :]), 0.0).min(axis=1)
        far = sel[dist > checks.OFF_CLOUD]
        if far.size:
            off = int(far[0])
            break
    if off is None:
        problems.append("self-test: the Hermitian strip has no off-continuum state to relabel")
    else:
        relabelled = labels.copy()
        relabelled[off] = "extended"
        if not verdict("hermitian", kx, e, relabelled):
            problems.append("self-test: a relabelled off-continuum Hermitian state passes the checks")
    return problems
