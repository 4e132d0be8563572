"""Exceptional points, Fermi arcs, skin criterion, degeneracy classification.

Momentum bookkeeping: besides Cartesian k this module works in bond-phase
coordinates ``theta1 = k.M1`` and ``theta2 = -k.M2`` (the phases attached to
the x- and y-link bond sums).  The square ``(-pi, pi]^2`` in bond-phase space
is a fundamental Brillouin-zone cell, and closed-form exceptional points are
solved there, where the arccos formulas are exact.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from . import eigen
from .models import (
    Coupling3,
    M1,
    M2,
    ModelConfig,
    bloch_matrix_grid,
    branch_sqrt,
    flavour_bond_table,
    species,
    structure_factor,
    triangle_test,
)

# theta = PHASE_FROM_K @ k, with rows (M1, -M2)
_PHASE_FROM_K = np.array([M1, -M2])
_K_FROM_PHASE = np.linalg.inv(_PHASE_FROM_K)


def bond_phase_from_k(k):
    """Bond phases (theta1, theta2) of a Cartesian k point (vectorized)."""
    k = np.asarray(k, dtype=float)
    return k @ _PHASE_FROM_K.T


def k_from_bond_phase(theta):
    """Cartesian k of bond phases (theta1, theta2) (vectorized)."""
    theta = np.asarray(theta, dtype=float)
    return theta @ _K_FROM_PHASE.T


def phase_grid(n: int):
    """Zone grid ``(th, thetas)``: n phases in [-pi, pi), ``thetas[i, j] = (th[i], th[j])``."""
    th = np.linspace(-np.pi, np.pi, n, endpoint=False)
    t1g, t2g = np.meshgrid(th, th, indexing="ij")
    return th, np.stack([t1g, t2g], axis=-1)


def reduce_to_bz(k):
    """Wrap a Cartesian k into the fundamental cell (bond phases in (-pi, pi])."""
    theta = bond_phase_from_k(k)
    theta = theta - 2.0 * np.pi * np.floor((theta + np.pi) / (2.0 * np.pi))
    return k_from_bond_phase(theta)


@dataclass(frozen=True)
class EPRecord:
    """A (candidate) spectral degeneracy point.

    ``gap`` is the smallest pairwise eigenvalue distance at k, ``overlap`` the
    largest right-eigenvector overlap among the closest pairs; a confirmed
    exceptional point has both a small gap and an overlap near 1.
    ``residual`` is |A| at k for closed-form records and the smallest singular
    value of H(k) for scan records.
    """

    k: tuple
    bond_phase: tuple
    method: str
    flavour: int | None
    gap: float
    overlap: float
    residual: float
    confirmed: bool


@dataclass(frozen=True)
class ArcPolyline:
    """A polyline of the purely-imaginary-pair eigenvalue locus.

    ``endpoint_eps`` holds the EP records the two ends terminate at; an entry
    is None for closed loops and for ends stopping at a self-intersection of
    the nodal set (the locus is inversion-symmetric, so junctions occur at the
    symmetric momenta).
    """

    points: np.ndarray
    flavour: int | None
    endpoint_eps: tuple


@dataclass(frozen=True)
class DegeneracyReport:
    k: tuple
    kind: str  # "nonsingular_crossing" | "paired_second_order_EPs"
    flavours: tuple


# --------------------------------------------------------------------------
# skin criterion
# --------------------------------------------------------------------------

def skin_criterion(j_eff: Coupling3, k_x: float, tol: float = 1e-12) -> bool:
    """Whether open zigzag boundaries localize this species at momentum k_x.

    True iff ``| |jx e^{i kx} + jy| - |jx e^{-i kx} + jy| |`` exceeds ``tol``,
    i.e. iff the two intra-row bond sums differ in magnitude.
    """
    fwd = abs(j_eff.jx * cmath.exp(1j * k_x) + j_eff.jy)
    bwd = abs(j_eff.jx * cmath.exp(-1j * k_x) + j_eff.jy)
    return abs(fwd - bwd) > tol


def skin_asymmetry(j_eff: Coupling3, n_grid: int = 1024) -> np.ndarray:
    """The asymmetry ``| |jx e^{i kx} + jy| - |jx e^{-i kx} + jy| |`` on a uniform k_x grid."""
    kx = np.linspace(-np.pi, np.pi, n_grid, endpoint=False)
    fwd = np.abs(j_eff.jx * np.exp(1j * kx) + j_eff.jy)
    bwd = np.abs(j_eff.jx * np.exp(-1j * kx) + j_eff.jy)
    return np.abs(fwd - bwd)


def skin_criterion_any(j_eff: Coupling3, n_grid: int = 1024, tol: float = 1e-12) -> bool:
    """Skin criterion tested over a uniform k_x grid."""
    return bool(np.any(skin_asymmetry(j_eff, n_grid) > tol))


# --------------------------------------------------------------------------
# closed-form exceptional points
# --------------------------------------------------------------------------

def _phase_split(j: Coupling3):
    """Common phase (arg jz) plus the relative phases of jx, jy."""
    phi_z = cmath.phase(j.jz)
    return phi_z, cmath.phase(j.jx) - phi_z, cmath.phase(j.jy) - phi_z


def ep_closed_form(
    j_eff: Coupling3,
    flavour: int | None = None,
    atol: float = 1e-10,
) -> list[EPRecord]:
    """Zeros of the bond sum at +k and at -k, solved analytically.

    Returns two pairs of records for a generic non-Hermitian triple (they
    merge into one Dirac pair when all phases agree).  Empty list when the
    modulus triangle inequality fails (gapped regime).  A record is confirmed
    only where the bond sum vanishes on one side, at +k or at -k: where both
    vanish (a Dirac point) the pair stays diagonalizable, and the overlap is
    a ratio of rounding errors.
    """
    mx, my, mz = j_eff.moduli
    if mx == 0.0 or my == 0.0 or mz == 0.0:
        raise ValueError("closed-form EP solve needs nonzero coupling moduli")
    if not triangle_test((mx, my, mz)):
        return []

    _, phi_x, phi_y = _phase_split(j_eff)
    cos_a = (my * my - mx * mx - mz * mz) / (2.0 * mx * mz)
    cos_b = (mx * mx - my * my - mz * mz) / (2.0 * my * mz)
    a = math.acos(min(1.0, max(-1.0, cos_a)))
    b = math.acos(min(1.0, max(-1.0, cos_b)))

    # zeros of A(k): theta = (+-a - phi_x, -+b - phi_y); zeros of A(-k) are at
    # the negated phases
    thetas = [
        (a - phi_x, -b - phi_y, "plus"),
        (-a - phi_x, b - phi_y, "plus"),
        (phi_x - a, phi_y + b, "minus"),
        (phi_x + a, phi_y - b, "minus"),
    ]

    records = []
    seen = []
    for th1, th2, side in thetas:
        theta = np.array([th1, th2])
        theta = theta - 2.0 * np.pi * np.floor((theta + np.pi) / (2.0 * np.pi))
        if any(np.allclose(theta, s, atol=1e-9) for s in seen):
            continue
        seen.append(theta.copy())
        k = k_from_bond_phase(theta)
        a_k = structure_factor(j_eff, k)
        a_mk = structure_factor(j_eff, -k)
        residual, other = (abs(a_k), abs(a_mk)) if side == "plus" else (abs(a_mk), abs(a_k))
        gap = 4.0 * abs(branch_sqrt(a_k * a_mk))
        denom = abs(a_k) ** 2 + abs(a_mk) ** 2
        overlap = abs(abs(a_mk) ** 2 - abs(a_k) ** 2) / denom if denom > 0.0 else 0.0
        records.append(
            EPRecord(
                k=(float(k[0]), float(k[1])),
                bond_phase=(float(theta[0]), float(theta[1])),
                method="closed_form",
                flavour=flavour,
                gap=float(gap),
                overlap=float(overlap),
                residual=float(residual),
                confirmed=bool(residual < atol <= other and overlap > 1.0 - 1e-4),
            )
        )
    return records


def model_closed_form_eps(model: ModelConfig, atol: float = 1e-10) -> list[EPRecord]:
    """Closed-form EP records of a flavour-conserving model, all species."""
    sets = species(model)
    if sets is None:
        raise ValueError("closed-form EPs exist only for flavour-conserving variants")
    records = []
    for flavour, j_eff in sets:
        try:
            records.extend(ep_closed_form(j_eff, flavour=flavour, atol=atol))
        except ValueError:
            continue
    return records


# --------------------------------------------------------------------------
# scan-based search
# --------------------------------------------------------------------------

def _pair_tables(hs):
    """Eigenvalues, pair distances and eigenvector overlaps of a matrix stack.

    ``hs`` has shape (..., m, m).  Returns ``(w, d, gram)``: the eigenvalues,
    ``d[..., i, j] = |w_i - w_j|`` and ``gram[..., i, j]`` the modulus of the
    inner product of unit right eigenvectors i and j (diagonals as computed).
    """
    w, v = np.linalg.eig(hs)
    v = v / np.linalg.norm(v, axis=-2, keepdims=True)
    d = np.abs(w[..., :, None] - w[..., None, :])
    gram = np.abs(np.swapaxes(v.conj(), -1, -2) @ v)
    return w, d, gram


def _defect_scores(d, gram, scale):
    """Per-pair |dE| + scale * (1 - overlap), infinite on the diagonal.

    Small only for a pair that nearly coalesces: close eigenvalues with
    nearly parallel eigenvectors.
    """
    score = d + scale * (1.0 - gram)
    idx = np.arange(d.shape[-1])
    score[..., idx, idx] = np.inf
    return score


def _pair_metrics(h):
    """(gap, largest eigenvector overlap among the closest pairs) of one matrix."""
    _, d, gram = _pair_tables(h)
    idx = np.arange(d.shape[-1])
    d[idx, idx] = np.inf
    gram[idx, idx] = 0.0
    gap = float(d.min())
    close = d <= gap * (1.0 + 1e-6) + 1e-14
    return gap, float(gram[close].max()) if close.any() else 0.0


def _local_minima_periodic(field2d):
    """Boolean mask of strict-or-plateau local minima on a periodic grid."""
    m = np.ones_like(field2d, dtype=bool)
    for dx in (-1, 0, 1):
        for dy in (-1, 0, 1):
            if dx == 0 and dy == 0:
                continue
            m &= field2d <= np.roll(np.roll(field2d, dx, axis=0), dy, axis=1)
    return m


@dataclass
class RefineCounters:
    """Work of the EP candidate refinement, summed over :func:`ep_scan` calls.

    ``candidates`` grid candidates were refined, taking ``newton_iterations``
    accepted Gauss-Newton steps in all; ``fallbacks`` of them were left
    uncertified by Newton and refined again by Nelder-Mead; ``rejected``
    still had a pair gap above ``gap_tol`` and were dropped; ``confirmed``
    certified exceptional points remained after deduplication.
    """

    candidates: int = 0
    newton_iterations: int = 0
    fallbacks: int = 0
    rejected: int = 0
    confirmed: int = 0


# central-difference stencil of the Newton refinement, in units of _FD_STEP
_STENCIL = np.array([[0.0, 0.0], [1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
_FD_STEP = 1e-6
_NEWTON_MAX_ITER = 60
_NEWTON_MAX_HALVINGS = 6
_NEWTON_DECREASE = 0.9  # a trial step must cut |D| by this factor
_NEWTON_XTOL = 1e-14
# singular values of the 2x2 Jacobian below this fraction of the largest are
# dropped: at Hermitian band touchings Im D is rounding noise
_NEWTON_RCOND = 1e-6


def _tracked_splitting(w, ref):
    """Squared splitting of the eigenvalue pair nearest ``ref`` at each point.

    ``w`` has shape (p, m), ``ref`` is the pair ``(lambda_a, lambda_b)`` to
    follow.  Returns ``D = (lambda_a - lambda_b)^2`` per point and the pair
    found at point 0.
    """
    rows = np.arange(w.shape[0])
    ia = np.abs(w - ref[0]).argmin(axis=1)
    dist_b = np.abs(w - ref[1])
    dist_b[rows, ia] = np.inf
    ib = dist_b.argmin(axis=1)
    wa, wb = w[rows, ia], w[rows, ib]
    return (wa - wb) ** 2, (wa[0], wb[0])


def _newton_refine(build_h, theta0, pair0, max_step, d_tol):
    """Damped Gauss-Newton on ``D(theta) = (lambda_a - lambda_b)^2 = 0``.

    ``pair0`` are the two eigenvalues at ``theta0`` that should coalesce;
    they are followed by continuity.  Re D and Im D are solved in the least-
    squares sense (the Jacobian is rank 1 where D is real), each step is
    capped at ``max_step`` and halved until |D| decreases enough.  The
    Jacobian is a central difference, evaluated with D at the trial point in
    one batched eigensolve.  Stops once |D| <= ``d_tol`` or the step falls
    below rounding level.  Returns ``(theta, accepted steps)``.
    """

    def evaluate(theta, ref):
        pts = theta + _FD_STEP * _STENCIL
        dd, pair = _tracked_splitting(np.linalg.eigvals(build_h(pts)), ref)
        jac = np.array(
            [(dd[1] - dd[2]) / (2.0 * _FD_STEP), (dd[3] - dd[4]) / (2.0 * _FD_STEP)]
        )
        return dd[0], np.stack([jac.real, jac.imag]), pair

    theta = np.asarray(theta0, dtype=float)
    dd, jac, pair = evaluate(theta, pair0)
    n_iter = 0
    boost = 1.0
    while n_iter < _NEWTON_MAX_ITER and abs(dd) > d_tol:
        delta = np.linalg.lstsq(jac, -np.array([dd.real, dd.imag]), rcond=_NEWTON_RCOND)[0]
        norm = float(np.hypot(*delta))
        if norm < _NEWTON_XTOL:
            break
        delta *= min(boost, max_step / norm)
        for _ in range(_NEWTON_MAX_HALVINGS):
            trial = theta + delta
            dd_t, jac_t, pair_t = evaluate(trial, pair)
            if abs(dd_t) <= _NEWTON_DECREASE * abs(dd):
                break
            delta *= 0.5
        else:
            break
        # at a double zero, D = L(theta)^2 with L linear, a Newton step halves
        # the distance and |D| falls by 4: the next step is doubled
        boost = 2.0 if 1e-3 < abs(dd_t) / abs(dd) < 0.35 else 1.0
        theta, dd, jac, pair = trial, dd_t, jac_t, pair_t
        n_iter += 1
    return theta, n_iter


def _nelder_mead_refine(build_h, theta0, kind, scale, step):
    """Derivative-free refinement, the fallback when Newton does not certify.

    Minimizes the defect score (``sigma`` candidates) or the smallest |E|
    (``tau`` candidates) from a simplex of half a grid step.
    """
    if kind == "sigma":
        def obj(t):
            _, d, gram = _pair_tables(build_h(np.asarray(t)))
            return float(_defect_scores(d, gram, scale).min())
    else:
        def obj(t):
            return float(np.abs(np.linalg.eigvals(build_h(np.asarray(t)))).min())
    res = minimize(
        obj,
        theta0,
        method="Nelder-Mead",
        options={
            "xatol": 1e-12,
            "fatol": 1e-13 * scale,
            "maxiter": 600,
            "initial_simplex": np.array(
                [theta0, theta0 + [0.5 * step, 0.0], theta0 + [0.0, 0.5 * step]]
            ),
        },
    )
    return res.x


def _scan_family(build_h, grid_n, gap_tol, overlap_tol, flavour, max_candidates, counters):
    """Grid scan + refinement for one family of Bloch(-block) matrices.

    ``build_h`` maps bond-phase points of shape (..., 2) to matrices of shape
    (..., m, m).  Candidates are local minima of two fields: a defectivity
    score (pair gap plus scaled eigenvector-parallelism defect, small only
    near an EP) and the smallest |E| (catching band touchings of Hermitian
    parameter sets, where the defect score stays flat).  Each candidate is
    refined by Newton on the squared splitting of one eigenvalue pair: the
    best-scoring pair of a defect-score candidate, or the smallest |E| and
    the eigenvalue nearest its negative (its chiral partner) for a
    smallest-|E| candidate.  A candidate Newton leaves with a gap of at
    least ``gap_tol`` is refined again by Nelder-Mead from its grid point.
    """
    thetas = phase_grid(grid_n)[1].reshape(-1, 2)
    hs = build_h(thetas)

    w, d, gram = _pair_tables(hs)
    scale = max(float(np.median(np.abs(w).max(axis=1))), 1e-12)
    if gap_tol is None:
        gap_tol = 1e-6 * float(np.median(np.linalg.norm(hs, axis=(1, 2))))

    score = _defect_scores(d, gram, scale)
    sigma = score.min(axis=(1, 2)).reshape(grid_n, grid_n)
    tau = np.abs(w).min(axis=1).reshape(grid_n, grid_n)

    cand = set()
    sig_mask = _local_minima_periodic(sigma) & (sigma < 0.5 * scale)
    tau_mask = _local_minima_periodic(tau) & (tau < 0.3 * scale)
    for field, mask in ((sigma, sig_mask), (tau, tau_mask)):
        flat = np.flatnonzero(mask.ravel())
        flat = flat[np.argsort(field.ravel()[flat])]
        kind = "sigma" if field is sigma else "tau"
        for f in flat[:max_candidates]:
            cand.add((int(f), kind))

    step = 2.0 * np.pi / grid_n

    def start_pair(flat, kind):
        wf = w[flat]
        if kind == "sigma":
            ia, ib = np.unravel_index(score[flat].argmin(), score[flat].shape)
        else:
            ia = int(np.abs(wf).argmin())
            dist = np.abs(wf + wf[ia])
            dist[ia] = np.inf
            ib = int(dist.argmin())
        return wf[ia], wf[ib]

    def certify(theta):
        theta = theta - 2.0 * np.pi * np.floor((theta + np.pi) / (2.0 * np.pi))
        h = build_h(theta)
        return theta, h, *_pair_metrics(h)

    records = []
    for flat, kind in sorted(cand):
        counters.candidates += 1
        theta, n_iter = _newton_refine(
            build_h, thetas[flat], start_pair(flat, kind), step, (1e-12 * scale) ** 2
        )
        counters.newton_iterations += n_iter
        theta, h, gap, overlap = certify(theta)
        if gap >= gap_tol:
            counters.fallbacks += 1
            theta, h, gap, overlap = certify(
                _nelder_mead_refine(build_h, thetas[flat], kind, scale, step)
            )
        if gap >= gap_tol:
            counters.rejected += 1
            continue
        k = k_from_bond_phase(theta)
        records.append(
            EPRecord(
                k=(float(k[0]), float(k[1])),
                bond_phase=(float(theta[0]), float(theta[1])),
                method="scan",
                flavour=flavour,
                gap=gap,
                overlap=overlap,
                residual=eigen.min_singular_value(h),
                confirmed=bool(overlap > 1.0 - overlap_tol),
            )
        )
    kept = _dedupe_records(records, radius=step)
    counters.confirmed += sum(r.confirmed for r in kept)
    return kept


#: the coarsest zone grid :func:`ep_scan` accepts
MIN_SCAN_GRID_N = 32


def _block_builder(j_eff: Coupling3, scale_factor: float):
    """2x2 Bloch-block family of one Majorana species."""

    def build(thetas):
        thetas = np.asarray(thetas, dtype=float)
        ks = k_from_bond_phase(thetas)
        a_k = structure_factor(j_eff, ks)
        a_mk = structure_factor(j_eff, -ks)
        h = np.zeros(np.shape(a_k) + (2, 2), dtype=complex)
        h[..., 0, 1] = 2j * a_k
        h[..., 1, 0] = -2j * a_mk
        return h * scale_factor

    return build


def ep_scan(
    model: ModelConfig,
    grid_n: int = 128,
    gap_tol: float | None = None,
    overlap_tol: float = 1e-4,
    confirmed_only: bool = True,
    max_candidates: int = 64,
    counters: RefineCounters | None = None,
) -> list[EPRecord]:
    """Locate spectral degeneracies of the Bloch matrix by grid scan + refinement.

    Flavour-conserving models are scanned species by species on their 2x2
    blocks (the full matrix is exactly degenerate across species, which makes
    a combined eigenvector-overlap diagnostic meaningless); flavour-mixing
    models are scanned on the full 6x6 matrix.  Each grid candidate is
    refined by damped Gauss-Newton on the squared splitting of its
    coalescing eigenvalue pair, which is smooth at a second-order EP; a
    candidate Newton does not certify is refined by Nelder-Mead instead.
    Refined points are deduplicated within one grid step.  With
    ``confirmed_only`` (default) only certified exceptional points (gap and
    overlap within tolerance) are returned; otherwise every refined
    degeneracy is reported, e.g. Dirac points, whose overlap stays near 0.
    ``counters``, if given, accumulates the refinement work.
    """
    if grid_n < MIN_SCAN_GRID_N:
        raise ValueError(f"grid_n must be >= {MIN_SCAN_GRID_N}")
    if counters is None:
        counters = RefineCounters()

    sets = species(model)
    if sets is not None:
        families = [(fl, _block_builder(j_eff, model.scale_factor)) for fl, j_eff in sets]
    else:
        def build(thetas):
            return bloch_matrix_grid(model, k_from_bond_phase(np.asarray(thetas)))

        families = [(None, build)]
    records = []
    for fl, build_h in families:
        records.extend(
            _scan_family(build_h, grid_n, gap_tol, overlap_tol, fl, max_candidates, counters)
        )

    if confirmed_only:
        records = [r for r in records if r.confirmed]
    return records


def _torus_dist(p, q):
    d = np.abs(np.asarray(p) - np.asarray(q))
    d = np.minimum(d, 2.0 * np.pi - d)
    return float(np.hypot(*d))


def _dedupe_records(records, radius):
    """Keep the best record within each bond-phase neighbourhood."""
    kept = []
    for rec in sorted(records, key=lambda r: (r.gap + (1.0 - r.overlap), r.bond_phase)):
        if all(_torus_dist(rec.bond_phase, k.bond_phase) > radius for k in kept):
            kept.append(rec)
    return sorted(kept, key=lambda r: r.bond_phase)


# --------------------------------------------------------------------------
# marching squares
# --------------------------------------------------------------------------

def _marching_squares_periodic(field, axis_vals):
    """Zero contours of a scalar field sampled on a periodic square grid.

    Marches every torus cell exactly once; the chained polylines are unwrapped
    so consecutive points are continuous in the plane (coordinates may leave
    the base window when a contour crosses the zone boundary).
    """
    n = field.shape[0]
    base = float(axis_vals[0])
    step = float(axis_vals[1] - axis_vals[0])
    period = n * step

    def interp(p0, p1, v0, v1):
        t = v0 / (v0 - v1)
        return (p0[0] + t * (p1[0] - p0[0]), p0[1] + t * (p1[1] - p0[1]))

    segments = []
    for i in range(n):
        for j in range(n):
            v = (
                field[i, j],
                field[(i + 1) % n, j],
                field[(i + 1) % n, (j + 1) % n],
                field[i, (j + 1) % n],
            )
            code = sum(1 << m for m in range(4) if v[m] > 0.0)
            if code in (0, 15):
                continue
            x0 = base + i * step
            y0 = base + j * step
            corners = ((x0, y0), (x0 + step, y0), (x0 + step, y0 + step), (x0, y0 + step))
            edges = {
                m: interp(corners[m], corners[(m + 1) % 4], v[m], v[(m + 1) % 4])
                for m in range(4)
                if (v[m] > 0.0) != (v[(m + 1) % 4] > 0.0)
            }
            keys = sorted(edges)
            if len(keys) == 2:
                segments.append((edges[keys[0]], edges[keys[1]]))
            elif len(keys) == 4:
                center = 0.25 * sum(v)
                if (center > 0.0) == (v[0] > 0.0):
                    segments.append((edges[0], edges[3]))
                    segments.append((edges[1], edges[2]))
                else:
                    segments.append((edges[0], edges[1]))
                    segments.append((edges[2], edges[3]))
    return _join_segments_torus(segments, base, period, quantum=1e-7 * step)


def _join_segments_torus(segments, base, period, quantum):
    """Chain segments into polylines, matching endpoints on the torus."""

    def key(p):
        return (
            int(round(((p[0] - base) % period) / quantum)) % int(round(period / quantum)),
            int(round(((p[1] - base) % period) / quantum)) % int(round(period / quantum)),
        )

    def unwrap(pt, ref):
        return tuple(
            c - period * round((c - r) / period) for c, r in zip(pt, ref)
        )

    adjacency = {}
    for s_idx, (p, q) in enumerate(segments):
        adjacency.setdefault(key(p), []).append((s_idx, 0))
        adjacency.setdefault(key(q), []).append((s_idx, 1))

    used = [False] * len(segments)
    polylines = []
    for start in range(len(segments)):
        if used[start]:
            continue
        used[start] = True
        p, q = segments[start]
        line = [p, q]
        for head in (1, 0):
            while True:
                end = line[-1] if head else line[0]
                incident = adjacency.get(key(end), ())
                if len(incident) > 2:
                    break  # junction (self-intersection of the nodal set)
                nxt = None
                for s_idx, which in incident:
                    if not used[s_idx]:
                        nxt = (s_idx, which)
                        break
                if nxt is None:
                    break
                s_idx, which = nxt
                used[s_idx] = True
                a, b = segments[s_idx]
                new_pt = unwrap(b if which == 0 else a, end)
                if head:
                    line.append(new_pt)
                else:
                    line.insert(0, new_pt)
        polylines.append(np.asarray(line))
    return polylines


def _resample(points, max_step):
    """Insert intermediate points so consecutive vertices are closer than max_step."""
    out = [points[0]]
    for p in points[1:]:
        prev = out[-1]
        dist = float(np.hypot(*(p - prev)))
        if dist > max_step:
            n_sub = int(math.ceil(dist / max_step))
            for m in range(1, n_sub):
                out.append(prev + (p - prev) * (m / n_sub))
        out.append(p)
    return np.asarray(out)


# --------------------------------------------------------------------------
# Fermi arcs
# --------------------------------------------------------------------------

_PERIOD = 2.0 * np.pi


def _cut_at_eps(line, eps, radius):
    """Split a bond-phase polyline at its closest approaches to the EPs.

    Returns (pieces, is_closed).  Each piece is a contiguous slice of the
    line; the boundary vertex of the pieces meeting at a cut is moved to the
    polyline point closest to the EP, so endpoint accuracy is limited by the
    contour resolution rather than the vertex spacing.  Lines closing around
    the torus (endpoint coordinates differing by a period) are handled as
    loops.
    """
    m = len(line)
    seam = line[-1] - line[0]
    loop_shift = _PERIOD * np.round(seam / _PERIOD)
    closed = m > 3 and bool(np.hypot(*(seam - loop_shift)) < 1e-9)

    cuts = {}  # vertex index -> (distance, ep bond phase)
    for rec in eps:
        d = np.array([_torus_dist(p, rec.bond_phase) for p in line])
        if closed:
            d = d[:-1]
        i = int(d.argmin())
        if d[i] < radius and (i not in cuts or d[i] < cuts[i][0]):
            cuts[i] = (float(d[i]), rec.bond_phase)
    if not cuts:
        return [line], closed

    def project(idx):
        """Closest point to the EP on the segments adjacent to vertex idx."""
        phase = cuts[idx][1]
        ref = line[idx]
        target = np.array(
            [p + _PERIOD * round((r - p) / _PERIOD) for p, r in zip(phase, ref)]
        )
        neighbours = []
        if idx > 0:
            neighbours.append(line[idx - 1])
        elif closed:
            neighbours.append(line[m - 2] - loop_shift)
        if idx + 1 < m:
            neighbours.append(line[idx + 1])
        elif closed:
            neighbours.append(line[1] + loop_shift)
        best, best_d = ref, float(np.hypot(*(ref - target)))
        for nb in neighbours:
            ab = nb - ref
            denom = float(ab @ ab)
            if denom == 0.0:
                continue
            t = float(np.clip((target - ref) @ ab / denom, 0.0, 1.0))
            q = ref + t * ab
            d = float(np.hypot(*(q - target)))
            if d < best_d:
                best, best_d = q, d
        return best

    proj = {i: project(i) for i in cuts}

    if closed:
        nm = m - 1
        first = min(cuts)
        body = np.vstack([line[first:-1], line[: first + 1] + loop_shift])
        offsets = {(c - first) % nm: proj[c] for c in cuts}
        offsets[len(body) - 1] = proj[first] + loop_shift
        bounds = sorted(offsets)
    else:
        body = line
        offsets = dict(proj)
        bounds = sorted(set([0, m - 1]) | set(offsets))

    pieces = []
    for a, b in zip(bounds[:-1], bounds[1:]):
        piece = body[a : b + 1].copy()
        if a in offsets:
            piece[0] = offsets[a]
        if b in offsets:
            piece[-1] = offsets[b]
        pieces.append(piece)
    return [p for p in pieces if len(p) >= 2], closed


def _arc_trace_scalar(j_eff, flavour, grid_n, eps):
    """Arcs of one species: locus Im[A(k)A(-k)] = 0 with Re <= 0."""
    th, thetas = phase_grid(grid_n)
    ks = k_from_bond_phase(thetas)
    prod = structure_factor(j_eff, ks) * structure_factor(j_eff, -ks)
    scale = float(np.abs(prod).max())
    step = 2.0 * np.pi / grid_n

    if scale == 0.0 or np.abs(prod.imag).max() < 1e-12 * scale:
        # Hermitian-like: the locus degenerates to the band-touching points
        return [
            ArcPolyline(
                points=np.asarray([rec.k]), flavour=flavour, endpoint_eps=(rec, rec)
            )
            for rec in eps
        ]

    def re_prod(theta_pts):
        kk = k_from_bond_phase(theta_pts)
        return (structure_factor(j_eff, kk) * structure_factor(j_eff, -kk)).real

    arcs = []
    for line in _marching_squares_periodic(prod.imag, th):
        pieces, _ = _cut_at_eps(line, eps, radius=3.0 * step)
        for seg in pieces:
            interior = seg[1:-1] if len(seg) > 3 else seg
            if np.median(re_prod(interior)) > 0.0:
                continue
            pts = _resample(k_from_bond_phase(seg), max_step=step)
            arcs.append(
                ArcPolyline(
                    points=pts,
                    flavour=flavour,
                    endpoint_eps=(
                        _nearest_ep(pts[0], eps, 4.0 * step),
                        _nearest_ep(pts[-1], eps, 4.0 * step),
                    ),
                )
            )
    return arcs


def _nearest_ep(k_point, eps, radius):
    best, best_d = None, radius
    for rec in eps:
        dd = _torus_dist(bond_phase_from_k(k_point), rec.bond_phase)
        if dd < best_d:
            best, best_d = rec, dd
    return best


def _arc_trace_coupled(model, grid_n, counters=None):
    """Arcs of a flavour-mixing model: zero-real-part eigenvalue locus.

    For bond-only models the six bands come in +-sqrt(z) pairs with z an
    eigenvalue of the 3x3 product of bond-sum matrices, so the locus is
    Im z = 0, Re z <= 0 per branch; with onsite terms the six-band product
    of Re(E_i) is contoured instead.  Only segments terminating at confirmed
    scan EPs are kept.
    """
    th, thetas = phase_grid(grid_n)
    ks = k_from_bond_phase(thetas)
    step = 2.0 * np.pi / grid_n

    eps = ep_scan(model, grid_n=max(64, grid_n // 2), confirmed_only=True, counters=counters)

    hs = bloch_matrix_grid(model, ks)
    has_onsite = bool(np.count_nonzero(flavour_bond_table(model).onsite))
    if not has_onsite:
        # bond-only: bands come in +-sqrt(z) pairs, z from the 3x3 block product
        a_idx, b_idx = np.array([0, 2, 4]), np.array([1, 3, 5])
        bb = hs[..., a_idx[:, None], b_idx[None, :]]
        cc = hs[..., b_idx[:, None], a_idx[None, :]]
        z = np.linalg.eigvals(bb @ cc)
        field = np.prod(z.imag, axis=-1)
    else:
        e = np.linalg.eigvals(hs)
        field = np.prod(e.real, axis=-1)

    arcs = []
    for line in _marching_squares_periodic(field.reshape(grid_n, grid_n), th):
        pieces, was_closed = _cut_at_eps(line, eps, radius=3.0 * step)
        if was_closed and len(pieces) == 1:
            pts = _resample(k_from_bond_phase(pieces[0]), max_step=step)
            arcs.append(ArcPolyline(points=pts, flavour=None, endpoint_eps=(None, None)))
            continue
        for seg in pieces:
            pts = _resample(k_from_bond_phase(seg), max_step=step)
            first = _nearest_ep(pts[0], eps, 4.0 * step)
            last = _nearest_ep(pts[-1], eps, 4.0 * step)
            if first is not None and last is not None:
                arcs.append(ArcPolyline(points=pts, flavour=None, endpoint_eps=(first, last)))
    return arcs


def fermi_arc_trace(
    model: ModelConfig,
    flavour: int | None = None,
    grid_n: int = 256,
    counters: RefineCounters | None = None,
) -> list[ArcPolyline]:
    """Open contours of purely imaginary eigenvalue pairs, ending at EPs.

    For flavour-conserving models each species is traced from its scalar bond
    sum; Dirac points of a Hermitian model degenerate to single-point arcs.
    Flavour-mixing models are traced from the full matrix spectrum, between
    the EPs of :func:`ep_scan`, whose refinement work goes to ``counters``.
    """
    sets = species(model)
    if sets is not None:
        if flavour is not None:
            sets = [s for s in sets if s[0] == flavour]
            if not sets:
                raise ValueError(f"unknown flavour {flavour!r}")
        arcs = []
        for fl, j_eff in sets:
            try:
                eps = ep_closed_form(j_eff, flavour=fl)
            except ValueError:
                continue
            if not eps:
                continue
            arcs.extend(_arc_trace_scalar(j_eff, fl, grid_n, eps))
        return arcs

    if flavour is not None:
        raise ValueError("flavour selection applies to flavour-conserving models only")
    return _arc_trace_coupled(model, grid_n, counters)


# --------------------------------------------------------------------------
# degeneracy classification
# --------------------------------------------------------------------------

def classify_degeneracy(model: ModelConfig, k, tol: float = 1e-6) -> DegeneracyReport:
    """Classify a cross-species band degeneracy of a flavour-conserving model.

    The two possible kinds: a plain band crossing (the per-species pair stays
    split, or the 2x2 block vanishes entirely and remains diagonalizable), or
    a pair of second-order exceptional points, one in each species, when the
    bond sum vanishes at +k or -k but not both.  The default tolerance allows
    for the square-root amplification of roundoff near band coalescence.
    """
    sets = species(model)
    if sets is None:
        raise ValueError("degeneracy classification needs a flavour-conserving model")
    k = np.asarray(k, dtype=float)
    # the parent model's single species stands for all three flavours
    j_sets = [j for _, j in sets] * (3 // len(sets))
    s = model.scale_factor

    a_k = [structure_factor(j, k) for j in j_sets]
    a_mk = [structure_factor(j, -k) for j in j_sets]
    eps_val = [2.0 * s * branch_sqrt(ak * amk) for ak, amk in zip(a_k, a_mk)]
    scale = max(1.0, max(abs(e) for e in eps_val))

    involved = set()
    for eta in range(3):
        for eta2 in range(eta + 1, 3):
            for s1 in (1.0, -1.0):
                for s2 in (1.0, -1.0):
                    if abs(s1 * eps_val[eta] - s2 * eps_val[eta2]) <= tol * scale:
                        involved |= {eta, eta2}
    if not involved:
        raise ValueError("no cross-species degeneracy at this k within tolerance")

    amp_scale = max(1.0, *(abs(j.jx) + abs(j.jy) + abs(j.jz) for j in j_sets))
    paired = []
    for eta in sorted(involved):
        zero_k = abs(a_k[eta]) <= tol * amp_scale
        zero_mk = abs(a_mk[eta]) <= tol * amp_scale
        paired.append(zero_k != zero_mk)  # defective only if one side vanishes

    kind = "paired_second_order_EPs" if all(paired) else "nonsingular_crossing"
    return DegeneracyReport(
        k=(float(k[0]), float(k[1])),
        kind=kind,
        flavours=tuple(eta + 1 for eta in sorted(involved)),
    )
