"""Output checks: properties the method must have, or results recomputed here.

Every check returns a list of problems (empty when the output passes).  No
check compares against stored output: strip and Bloch spectra are ill
conditioned where the skin effect lives, so their exact digits are no
reference.  The power sums sum E = tr H and sum E^2 = tr H^2 hold however
ill conditioned the eigenvalues are, since a backward-stable solver returns
the exact spectrum of a nearby matrix.
"""

import csv
import math
from collections import defaultdict
from pathlib import Path

import numpy as np
from scipy.optimize import linear_sum_assignment

import physics

CLASSES = ("edge_bottom", "edge_top", "bulk_localized_bottom", "bulk_localized_top", "extended")
POWER_TOL = 1e-8  # relative to sum |E| and sum |E|^2
SYMMETRY_TOL = 1e-8  # relative to max |E|
OFF_CLOUD = 0.02  # |E| distance that counts as off the periodic continuum
CLOUD_TOL = 1e-2  # the classifier's default cloud_tol


def read_columns(path, columns):
    """Selected CSV columns as lists of strings."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        idx = [header.index(c) for c in columns]
        out = [[] for _ in columns]
        for row in reader:
            for slot, i in zip(out, idx):
                slot.append(row[i])
    return out


def _wrap(x):
    return (np.asarray(x) + np.pi) % (2.0 * np.pi) - np.pi


def _torus_dist(a, b):
    d = np.abs(_wrap(np.asarray(a) - np.asarray(b)))
    return np.hypot(d[..., 0], d[..., 1])


def power_sums(e, trace_sq, label):
    """sum E = 0 (traceless: antisymmetric onsite term) and sum E^2 = tr H^2."""
    problems = []
    s1, s2 = e.sum(axis=-1), (e * e).sum(axis=-1)
    tol1 = POWER_TOL * np.maximum(1.0, np.abs(e).sum(axis=-1))
    tol2 = POWER_TOL * np.maximum(1.0, (np.abs(e) ** 2).sum(axis=-1))
    bad1 = np.flatnonzero(np.abs(s1) > tol1)
    bad2 = np.flatnonzero(np.abs(s2 - trace_sq) > tol2)
    if bad1.size:
        problems.append(f"{label}: sum E != tr H at {bad1.size} points")
    if bad2.size:
        problems.append(f"{label}: sum E^2 != tr H^2 at {bad2.size} points")
    return problems


def multiset_mismatch(a, b):
    """Largest distance under the optimal pairing of two eigenvalue multisets."""
    cost = np.abs(a[:, None] - b[None, :])
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].max())


# --------------------------------------------------------------------------
# strips
# --------------------------------------------------------------------------

def load_strip(path):
    kx, re, im, label = read_columns(path, ("k_x", "re_E", "im_E", "class"))
    kx = np.asarray(kx, dtype=float)
    e = np.asarray(re, dtype=float) + 1j * np.asarray(im, dtype=float)
    return kx, e, np.asarray(label)


def check_strip(kx, e, labels, params, w, kx_grid, symmetric=True, hermitian=False):
    """Row counts, labels, power sums, and the +-k_x and Hermitian properties.

    ``kx, e, labels`` are flat per-state arrays; ``kx_grid`` the momenta the
    program was asked for.
    """
    problems = []
    n = 6 * w
    per_kx = {}
    for k in kx_grid:
        sel = np.flatnonzero(np.abs(kx - k) < 1e-12)
        if sel.size != n:
            problems.append(f"k_x={k:.4f}: {sel.size} rows, expected 6w={n}")
            continue
        per_kx[k] = sel
    if len(kx) != n * len(kx_grid):
        problems.append(f"{len(kx)} rows, expected {n * len(kx_grid)}")
    if not np.all(np.isfinite(e)):
        problems.append("non-finite eigenvalues")
        return problems
    unknown = set(labels.tolist()) - set(CLASSES)
    if unknown:
        problems.append(f"labels outside the five classes: {sorted(unknown)}")
    if problems:
        return problems

    ks = np.asarray(sorted(per_kx))
    spectra = np.stack([e[per_kx[k]] for k in ks])
    problems += power_sums(spectra, physics.strip_trace_sq(params, w, ks), "strip")

    if symmetric:
        # H(k_x) = -H(-k_x)^T, so E(k_x) = -E(-k_x) as multisets
        index = {round(k, 9): i for i, k in enumerate(ks)}
        for i, k in enumerate(ks):
            j = index.get(round(-k, 9))
            if j is None or j < i:
                continue
            scale = max(1.0, float(np.abs(spectra[i]).max()))
            gap = multiset_mismatch(spectra[i], -spectra[j])
            if gap > SYMMETRY_TOL * scale:
                problems.append(f"E({k:.4f}) != -E({-k:.4f}): mismatch {gap:.2e}")

    if hermitian:
        worst = float(np.abs(e.imag).max())
        if worst >= 1e-9:
            problems.append(f"Hermitian strip has max |Im E| = {worst:.2e}")
        # off the periodic continuum a Hermitian strip holds only bound states,
        # so such a state is localized (edge or bulk_localized), never extended;
        # an edge label needs a state off the continuum
        for k in ks:
            tracks = physics.periodic_cloud_abs(params, k)
            lo, hi = tracks.min(axis=0), tracks.max(axis=0)
            a = np.abs(e[per_kx[k]])
            dist = np.maximum(np.maximum(lo[None, :] - a[:, None], a[:, None] - hi[None, :]), 0.0).min(axis=1)
            lab = labels[per_kx[k]]
            if np.any((dist > OFF_CLOUD) & (lab == "extended")):
                problems.append(f"k_x={k:.4f}: state off the periodic continuum labelled extended")
            edge = np.char.startswith(lab.astype(str), "edge")
            if np.any(edge & (dist <= 0.5 * CLOUD_TOL)):
                problems.append(f"k_x={k:.4f}: edge label on the periodic continuum")
    return problems


def check_skin_verdict(nhse_present, expected, label):
    if bool(nhse_present) != bool(expected):
        return [f"{label}: nhse_present={nhse_present}, expected {expected}"]
    return []


def check_flips(flip_kx, targets, spacing, label):
    """Each target momentum has a boundary flip within one grid step."""
    problems = []
    for t in targets:
        near = [abs(math.remainder(f - t, 2.0 * math.pi)) for f in flip_kx]
        if not near or min(near) > spacing:
            problems.append(f"{label}: no boundary flip within {spacing:.3f} of {t:.4f} (flips {flip_kx})")
    return problems


def expected_skin(params):
    """Species criterion of a flavour-diagonal model, evaluated here."""
    return any(physics.species_skin(j) for j in physics.species_couplings(params))


# --------------------------------------------------------------------------
# Bloch-zone outputs
# --------------------------------------------------------------------------

def check_bloch_spectrum(path, params, bz_n):
    """E(-k) = -E(k) on the zone grid and the power sums of every H(k)."""
    kx, ky, state, re, im = read_columns(path, ("k_x", "k_y", "state_index", "re_E", "im_E"))
    if len(kx) != 6 * bz_n * bz_n:
        return [f"bloch spectrum: {len(kx)} rows, expected {6 * bz_n * bz_n}"]
    th1, th2 = physics.bond_phases(np.stack([np.asarray(kx, dtype=float), np.asarray(ky, dtype=float)], axis=-1))
    # place every row on the zone grid (closed under negation modulo 2 pi)
    step = 2.0 * np.pi / bz_n
    i1 = np.rint(np.mod(th1 + np.pi, 2.0 * np.pi) / step).astype(int) % bz_n
    i2 = np.rint(np.mod(th2 + np.pi, 2.0 * np.pi) / step).astype(int) % bz_n
    off = np.hypot(_wrap(th1 - (i1 * step - np.pi)), _wrap(th2 - (i2 * step - np.pi))).max()
    order = np.lexsort((np.asarray(state, dtype=int), i2, i1))
    point = (i1 * bz_n + i2)[order].reshape(bz_n * bz_n, 6)
    if off > 1e-9 or not np.array_equal(point, np.repeat(np.arange(bz_n * bz_n), 6).reshape(-1, 6)):
        return ["bloch spectrum: momenta are not the requested zone grid"]
    e = (np.asarray(re, dtype=float) + 1j * np.asarray(im, dtype=float))[order].reshape(bz_n * bz_n, 6)
    if not np.all(np.isfinite(e)):
        return ["bloch spectrum: non-finite eigenvalues"]
    t1 = th1[order][::6]
    t2 = th2[order][::6]
    problems = power_sums(e, physics.bloch_trace_sq(params, t1, t2), "bloch")
    i1, i2 = i1[order][::6], i2[order][::6]
    partner = ((bz_n - i1) % bz_n) * bz_n + (bz_n - i2) % bz_n
    a, b = e, -e[partner]
    d = np.abs(a[:, :, None] - b[:, None, :])
    gap = np.maximum(d.min(axis=2).max(axis=1), d.min(axis=1).max(axis=1))
    scale = np.maximum(1.0, np.abs(e).max(axis=1))
    bad = np.flatnonzero(gap > 1e-6 * scale)
    if bad.size:
        problems.append(f"bloch spectrum: E(-k) != -E(k) at {bad.size} points (worst {gap.max():.2e})")
    return problems


def load_eps(path):
    cols = ("method", "flavour", "theta1", "theta2", "k_x", "k_y", "confirmed")
    method, flavour, t1, t2, kx, ky, confirmed = read_columns(path, cols)
    return [
        {
            "method": m,
            "flavour": int(f) if f else None,
            "k": np.array([float(x), float(y)]),
            "confirmed": c in ("1", "True", "true"),
        }
        for m, f, x, y, c in zip(method, flavour, kx, ky, confirmed)
    ]


def check_eps_flavour_diagonal(records, params, bz_n):
    """Closed-form EPs zero f_eta(k) or f_eta(-k); scan EPs sit next to them.

    A species with strictly triangular moduli has two zeros of f(k) and two
    of f(-k) in the zone, so four EPs; that count is worked out here.
    """
    problems = []
    species = physics.species_couplings(params)
    closed = [r for r in records if r["method"] == "closed_form"]
    scan = [r for r in records if r["method"] == "scan"]
    expected = 0
    for j in species:
        m = sorted(abs(c) for c in j)
        expected += 4 if m[2] < m[0] + m[1] and m[0] > 0 else 0
    if len(closed) != expected:
        problems.append(f"{len(closed)} closed-form EPs, triangle count gives {expected}")
    for r in closed:
        j = species[r["flavour"] - 1]
        th = np.array(physics.bond_phases(r["k"]))
        f_k = j[0] * np.exp(1j * th[0]) + j[1] * np.exp(1j * th[1]) + j[2]
        f_mk = j[0] * np.exp(-1j * th[0]) + j[1] * np.exp(-1j * th[1]) + j[2]
        if min(abs(f_k), abs(f_mk)) > 1e-8 * sum(abs(c) for c in j):
            problems.append(f"closed-form EP of flavour {r['flavour']} does not zero f(+-k)")
    step = 2.0 * np.pi / bz_n
    for r in scan:
        ref = [np.array(physics.bond_phases(c["k"])) for c in closed if c["flavour"] == r["flavour"]]
        th = np.array(physics.bond_phases(r["k"]))
        if not ref or _torus_dist(np.asarray(ref), th).min() > step:
            problems.append(f"scan EP of flavour {r['flavour']} not within a grid step of a closed-form EP")
    if not closed:
        problems.append("no EPs found")
    return problems


def check_eps_coupled(records, params, bz_n, overlap_tol=1e-4):
    """Each confirmed EP shows a coalescing pair in an eigensolve made here."""
    problems = []
    if not records:
        return ["no confirmed EPs"]
    grid = np.linspace(-np.pi, np.pi, bz_n, endpoint=False)
    t1, t2 = np.meshgrid(grid, grid, indexing="ij")
    gap_tol = 1e-6 * float(np.median(np.linalg.norm(physics.bloch_from_phases(params, t1, t2), axis=(-2, -1))))
    for r in records:
        if not r["confirmed"]:
            problems.append("unconfirmed EP in a confirmed-only listing")
            continue
        th1, th2 = physics.bond_phases(r["k"])
        w, v = np.linalg.eig(physics.bloch_from_phases(params, th1, th2))
        v = v / np.linalg.norm(v, axis=0)
        d = np.abs(w[:, None] - w[None, :])
        np.fill_diagonal(d, np.inf)
        i, j = np.unravel_index(int(d.argmin()), d.shape)
        overlap = abs(np.vdot(v[:, i], v[:, j]))
        if d[i, j] > gap_tol or overlap < 1.0 - overlap_tol:
            problems.append(f"EP at k=({r['k'][0]:.5f}, {r['k'][1]:.5f}): gap {d[i, j]:.2e}, overlap {overlap:.8f}")
    return problems


def check_arcs(path, ep_records, arc_grid_n, radius_steps=4.0):
    """Every end of an open arc lies within a few grid steps of an EP."""
    arc, kx, ky = read_columns(path, ("arc_index", "k_x", "k_y"))
    if not arc:
        return ["no arcs"]
    if not ep_records:
        return ["arcs without EPs"]
    eps = np.asarray([physics.bond_phases(r["k"]) for r in ep_records])
    arcs = defaultdict(list)
    for a, x, y in zip(arc, kx, ky):
        arcs[int(a)].append((float(x), float(y)))
    step = 2.0 * np.pi / arc_grid_n
    problems = []
    for a, pts in sorted(arcs.items()):
        ends = np.asarray(physics.bond_phases(np.asarray([pts[0], pts[-1]]))).T
        if len(pts) > 2 and _torus_dist(ends[0], ends[1]) < 1e-9:
            continue  # a closed loop has no ends
        for end in ends:
            if _torus_dist(eps, end).min() > radius_steps * step:
                problems.append(f"arc {a}: end not within {radius_steps:g} grid steps of an EP")
    return problems


def output_bytes(directory):
    """Bytes per file suffix under a directory."""
    sizes = defaultdict(int)
    for p in Path(directory).rglob("*"):
        if p.is_file():
            sizes[p.suffix.lstrip(".")] += p.stat().st_size
    return sizes
