"""Exceptional points, Fermi arcs, skin criterion, degeneracy classification.

Momentum bookkeeping: besides Cartesian k this module works in bond-phase
coordinates ``theta1 = k.M1`` and ``theta2 = -k.M2`` (the phases attached to
the x- and y-link bond sums).  The square ``[-pi, pi)^2`` in bond-phase space
is a fundamental Brillouin-zone cell, and closed-form exceptional points are
solved there, where the arccos formulas are exact.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from . import eigen
from .models import (
    Coupling3,
    M1,
    M2,
    ModelConfig,
    bloch_matrix_grid,
    branch_sqrt,
    chiral_product,
    flavour_species,
    species,
    structure_factor_pair,
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


def phase_grid_pairs(n: int) -> np.ndarray:
    """The +-theta pairs of the flat :func:`phase_grid` points: ``(p, 2)`` (representative, partner) indices.

    Point (i, j) has its negation mod 2 pi at ((n - i) % n, (n - j) % n),
    up to the rounding of ``linspace`` (two ulps of pi at most, on the grids
    tried); the representative is the lower flat index.
    A point that is its own partner (the four time-reversal-invariant
    momenta of an even grid, the one of an odd grid) is in no pair.
    """
    i = np.arange(n)
    neg = (n - i) % n
    flat, partner = (i[:, None] * n + i).ravel(), (neg[:, None] * n + neg).ravel()
    rep = flat < partner
    return np.stack([flat[rep], partner[rep]], axis=-1)


def _wrap_phase(theta):
    """Phases wrapped into [-pi, pi)."""
    return theta - 2.0 * np.pi * np.floor((theta + np.pi) / (2.0 * np.pi))


def reduce_to_bz(k):
    """Wrap a Cartesian k into the fundamental cell (bond phases in [-pi, pi))."""
    return k_from_bond_phase(_wrap_phase(bond_phase_from_k(k)))


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

def _asymmetry(j_eff: Coupling3, kx):
    """``| |jx e^{i kx} + jy| - |jx e^{-i kx} + jy| |``, the gap between the intra-row bond sums."""
    fwd = np.abs(j_eff.jx * np.exp(1j * kx) + j_eff.jy)
    return np.abs(fwd - np.abs(j_eff.jx * np.exp(-1j * kx) + j_eff.jy))


def skin_criterion(j_eff: Coupling3, k_x: float, tol: float = 1e-12) -> bool:
    """Whether open zigzag boundaries localize this species at momentum k_x.

    True iff the asymmetry ``| |jx e^{i kx} + jy| - |jx e^{-i kx} + jy| |``
    exceeds ``tol``, i.e. iff the two intra-row bond sums differ in magnitude.
    """
    return bool(_asymmetry(j_eff, k_x) > tol)


def skin_asymmetry(j_eff: Coupling3, n_grid: int = 1024) -> np.ndarray:
    """The asymmetry of :func:`skin_criterion` on a uniform k_x grid."""
    return _asymmetry(j_eff, np.linspace(-np.pi, np.pi, n_grid, endpoint=False))


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


#: largest |A| at a closed-form EP, and least |A| on its other side, for it to count as confirmed
CLOSED_FORM_ATOL = 1e-10
#: an EP's two eigenvectors coalesce where their overlap exceeds 1 - OVERLAP_TOL
OVERLAP_TOL = 1e-4


def ep_closed_form(j_eff: Coupling3, flavour: int | None = None) -> list[EPRecord]:
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
        theta = _wrap_phase(np.array([th1, th2]))
        if any(np.allclose(theta, s, atol=1e-9) for s in seen):
            continue
        seen.append(theta.copy())
        k = k_from_bond_phase(theta)
        a_k, a_mk = structure_factor_pair(j_eff, k)
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
                confirmed=bool(residual < CLOSED_FORM_ATOL <= other and overlap > 1.0 - OVERLAP_TOL),
            )
        )
    return records


def model_closed_form_eps(model: ModelConfig) -> list[EPRecord]:
    """Closed-form EP records of a flavour-conserving model, all species but those with a zero modulus."""
    sets = species(model)
    if sets is None:
        raise ValueError("closed-form EPs exist only for flavour-conserving variants")
    return [r for fl, j_eff in sets if 0.0 not in j_eff.moduli for r in ep_closed_form(j_eff, flavour=fl)]


# --------------------------------------------------------------------------
# scan-based search
# --------------------------------------------------------------------------

def _pair_tables(w, v):
    """Pair distances and eigenvector overlaps of the eigenpairs ``(w, v)`` of a matrix stack.

    ``w`` (..., m) and ``v`` (..., m, m) as ``np.linalg.eig`` gives them.
    Returns ``(d, gram)``: ``d[..., i, j] = |w_i - w_j|`` and
    ``gram[..., i, j]`` the modulus of the inner product of unit right
    eigenvectors i and j (diagonals as computed).
    """
    v = v / np.linalg.norm(v, axis=-2, keepdims=True)
    d = np.abs(w[..., :, None] - w[..., None, :])
    gram = np.abs(np.swapaxes(v.conj(), -1, -2) @ v)
    return d, gram


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
    d, gram = _pair_tables(*np.linalg.eig(h))
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

    ``w`` has shape (c, p, m): the eigenvalues at p points of each of c
    candidates; ``ref`` (c, 2) is each candidate's pair ``(lambda_a,
    lambda_b)`` to follow.  Returns ``D = (lambda_a - lambda_b)^2`` per
    point (c, p) and the pair found at each candidate's point 0 (c, 2).
    """
    ia = np.abs(w - ref[:, None, :1]).argmin(axis=-1)[..., None]
    dist_b = np.abs(w - ref[:, None, 1:])
    np.put_along_axis(dist_b, ia, np.inf, -1)
    wa = np.take_along_axis(w, ia, -1)[..., 0]
    wb = np.take_along_axis(w, dist_b.argmin(axis=-1)[..., None], -1)[..., 0]
    return (wa - wb) ** 2, np.stack([wa[:, 0], wb[:, 0]], axis=-1)


def _newton_refine(build_h, theta0, pair0, max_step, d_tol):
    """Damped Gauss-Newton on ``D(theta) = (lambda_a - lambda_b)^2 = 0``, for candidates in lockstep.

    ``theta0`` (c, 2) are the starting points and ``pair0`` (c, 2) the two
    eigenvalues at each that should coalesce; they are followed by
    continuity.  Re D and Im D are solved in the least-squares sense (the
    Jacobian is rank 1 where D is real), each step is capped at
    ``max_step`` and halved until |D| decreases enough.  The Jacobian is a
    central difference, evaluated with D at the trial point.  A candidate
    stops once |D| <= ``d_tol`` or its step falls below rounding level.
    Every round evaluates the trial points of all candidates still stepping
    in one build and one stacked eigensolve; the rest of the arithmetic is
    each candidate's own, so each takes the steps it takes alone.  Returns
    ``(theta (c, 2), accepted steps (c,))``.
    """
    theta = np.array(theta0, dtype=float).reshape(-1, 2)
    c = len(theta)
    n_iter = np.zeros(c, dtype=int)
    if not c:
        return theta, n_iter

    def evaluate(points, refs):
        pts = points[:, None, :] + _FD_STEP * _STENCIL
        w = np.linalg.eigvals(build_h(pts.reshape(-1, 2)))
        dd, pair = _tracked_splitting(w.reshape(*pts.shape[:-1], -1), refs)
        jac = np.stack([(dd[:, 1] - dd[:, 2]) / (2.0 * _FD_STEP), (dd[:, 3] - dd[:, 4]) / (2.0 * _FD_STEP)], axis=-1)
        return dd[:, 0], np.stack([jac.real, jac.imag], axis=1), pair

    dd, jac, pair = evaluate(theta, np.asarray(pair0, dtype=complex).reshape(-1, 2))
    delta = np.zeros_like(theta)
    halvings = np.zeros(c, dtype=int)

    def propose(i, boost):
        """Set candidate i's next trial step, at most ``boost`` times the Newton step; False if it stops."""
        if not (n_iter[i] < _NEWTON_MAX_ITER and abs(dd[i]) > d_tol):
            return False
        step = np.linalg.lstsq(jac[i], -np.array([dd[i].real, dd[i].imag]), rcond=_NEWTON_RCOND)[0]
        norm = float(np.hypot(*step))
        if norm < _NEWTON_XTOL:
            return False
        step *= min(boost, max_step / norm)
        delta[i], halvings[i] = step, 0
        return True

    trying = np.array([propose(i, 1.0) for i in range(c)])
    while trying.any():
        idx = np.flatnonzero(trying)
        trial = theta[idx] + delta[idx]
        dd_t, jac_t, pair_t = evaluate(trial, pair[idx])
        for t, i in enumerate(idx):
            if abs(dd_t[t]) <= _NEWTON_DECREASE * abs(dd[i]):
                # at a double zero, D = L(theta)^2 with L linear, a Newton step
                # halves the distance and |D| falls by 4: the next step is doubled
                boost = 2.0 if 1e-3 < abs(dd_t[t]) / abs(dd[i]) < 0.35 else 1.0
                theta[i], dd[i], jac[i], pair[i] = trial[t], dd_t[t], jac_t[t], pair_t[t]
                n_iter[i] += 1
                trying[i] = propose(i, boost)
            else:
                delta[i] *= 0.5
                halvings[i] += 1
                trying[i] = halvings[i] < _NEWTON_MAX_HALVINGS
    return theta, n_iter


def minimize(fun, x0, **options):
    """``scipy.optimize.minimize``, imported on the first call: the import costs more than the rest of start-up."""
    from scipy.optimize import minimize as scipy_minimize

    return scipy_minimize(fun, x0, **options)


def _nelder_mead_refine(build_h, theta0, kind, scale, step):
    """Derivative-free refinement, the fallback when Newton does not certify.

    Minimizes the defect score (``sigma`` candidates) or the smallest |E|
    (``tau`` candidates) from a simplex of half a grid step.
    """
    if kind == "sigma":
        def obj(t):
            d, gram = _pair_tables(*np.linalg.eig(build_h(np.asarray(t))))
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


def _scan_family(build_h, grid_n, gap_tol, overlap_tol, flavour, log):
    """Grid scan + refinement for one family of Bloch(-block) matrices.

    ``build_h`` maps bond-phase points of shape (..., 2) to matrices of shape
    (..., m, m).  Candidates are local minima of two fields: a defectivity
    score (pair gap plus scaled eigenvector-parallelism defect, small only
    near an EP) and the smallest |E| (catching band touchings of Hermitian
    parameter sets, where the defect score stays flat).  Each candidate is
    refined by Newton on the squared splitting of one eigenvalue pair: the
    best-scoring pair of a defect-score candidate, or the smallest |E| and
    the eigenvalue nearest its negative (its chiral partner) for a
    smallest-|E| candidate.  All candidates run Newton in lockstep
    (:func:`_newton_refine`); one Newton leaves with a gap of at least
    ``gap_tol`` is refined again by Nelder-Mead from its grid point.  The
    grid takes the pair solve of :func:`eigen.eig`, :func:`eigen.eig_stack`,
    uncertified, since every refined point is certified on its own matrix;
    its solves and the refinement work go to ``log``, an :class:`eigen.RunLog`.
    """
    thetas = phase_grid(grid_n)[1].reshape(-1, 2)
    hs = build_h(thetas)

    w, v, mirrored = eigen.eig_stack(hs, phase_grid_pairs(grid_n))
    log.add_grid(len(hs), len(mirrored))
    d, gram = _pair_tables(w, v)
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
        for f in flat[:MAX_SCAN_CANDIDATES]:
            cand.add((int(f), kind))
    cand = sorted(cand)

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
        theta = _wrap_phase(theta)
        h = build_h(theta)
        return theta, h, *_pair_metrics(h)

    starts = thetas[[flat for flat, _ in cand]]
    refined, n_iter = _newton_refine(
        build_h, starts, [start_pair(flat, kind) for flat, kind in cand], step, (1e-12 * scale) ** 2
    )
    refinement = log.ep_refinement
    refinement["candidates"] += len(cand)
    refinement["newton_iterations"] += int(np.sum(n_iter))
    records = []
    for (flat, kind), theta in zip(cand, refined):
        theta, h, gap, overlap = certify(theta)
        if gap >= gap_tol:
            refinement["fallbacks"] += 1
            theta, h, gap, overlap = certify(
                _nelder_mead_refine(build_h, thetas[flat], kind, scale, step)
            )
        if gap >= gap_tol:
            refinement["rejected"] += 1
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
    refinement["confirmed"] += sum(r.confirmed for r in kept)
    return kept


#: the coarsest zone grid :func:`ep_scan` accepts
MIN_SCAN_GRID_N = 32
#: the coarsest zone grid :func:`fermi_arc_trace` accepts
MIN_ARC_GRID_N = 2
#: the most grid candidates :func:`ep_scan` refines per field and family
MAX_SCAN_CANDIDATES = 64


def _check_grid_n(grid_n, least: int):
    """Refuse a zone grid ``grid_n`` that is not an integer or is below ``least``."""
    if not isinstance(grid_n, (int, np.integer)):
        raise ValueError(f"grid_n must be an integer, got {grid_n}")
    if grid_n < least:
        raise ValueError(f"grid_n must be >= {least}")


def _block_builder(j_eff: Coupling3, scale_factor: float):
    """2x2 Bloch-block family of one Majorana species."""

    def build(thetas):
        thetas = np.asarray(thetas, dtype=float)
        ks = k_from_bond_phase(thetas)
        a_k, a_mk = structure_factor_pair(j_eff, ks)
        h = np.zeros(np.shape(a_k) + (2, 2), dtype=complex)
        h[..., 0, 1] = 2j * a_k
        h[..., 1, 0] = -2j * a_mk
        return h * scale_factor

    return build


def ep_scan(
    model: ModelConfig,
    grid_n: int = 128,
    gap_tol: float | None = None,
    overlap_tol: float = OVERLAP_TOL,
    confirmed_only: bool = True,
    log: eigen.RunLog | None = None,
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
    A Hermitian model is diagonalizable everywhere, so has no exceptional
    point: with ``confirmed_only`` it returns ``[]`` without a scan (at
    ``grid_n`` 128 the scans of fig2a-like, fig3a and fig6a took 0.7-1.1 s
    each and confirmed nothing).

    The zone grid takes :func:`eigen.eig_stack`, the pair solve of
    :func:`eigen.eig` without its certificate: 6x6 and 2x2 matrices take
    its stacked route, where a ctypes ``zgeev`` per pair would cost as much
    as the solve.  ``log``, an :class:`eigen.RunLog`, if given, accumulates
    the grid solves by route and the refinement work.
    """
    _check_grid_n(grid_n, MIN_SCAN_GRID_N)
    if confirmed_only and model.hermitian:
        return []
    log = eigen.RunLog() if log is None else log

    sets = species(model)
    if sets is not None:
        families = [(fl, _block_builder(j_eff, model.scale_factor)) for fl, j_eff in sets]
    else:
        def build(thetas):
            return bloch_matrix_grid(model, k_from_bond_phase(np.asarray(thetas)))

        families = [(None, build)]
    records = []
    for fl, build_h in families:
        records.extend(_scan_family(build_h, grid_n, gap_tol, overlap_tol, fl, log))

    if confirmed_only:
        records = [r for r in records if r.confirmed]
    return records


def _torus_dist(p, q):
    """Distance on the bond-phase torus between points of shape (..., 2) (broadcast)."""
    d = np.abs(np.asarray(p) - np.asarray(q))
    d = np.minimum(d, 2.0 * np.pi - d)
    return np.hypot(d[..., 0], d[..., 1])


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

    Marches all torus cells at once, in cell order (i major); the chained
    polylines are unwrapped so consecutive points are continuous in the plane
    (coordinates may leave the base window when a contour crosses the zone
    boundary).  Corner m of cell (i, j) is (i, j), (i+1, j), (i+1, j+1),
    (i, j+1); edge m joins corners m and m+1.
    """
    n = field.shape[0]
    base = float(axis_vals[0])
    step = float(axis_vals[1] - axis_vals[0])
    rolls = ((0, 0), (-1, 0), (-1, -1), (0, -1))
    v = np.stack([np.roll(field, r, (0, 1)) for r in rolls], axis=-1).reshape(n * n, 4)
    x = base + np.arange(n) * step
    cx = np.repeat(np.stack([x, x + step, x + step, x], axis=1), n, axis=0)
    cy = np.tile(np.stack([x, x, x + step, x + step], axis=1), (n, 1))
    pos = v > 0.0
    crossed = pos != np.roll(pos, -1, axis=1)

    # a cell crossed twice gives the segment (first, last crossed edge); a
    # saddle (four crossed edges) gives (0, 3), (1, 2) if its centre has
    # corner 0's sign, else (0, 1), (2, 3)
    saddle = crossed.all(axis=1)
    same = (0.25 * (v[:, 0] + v[:, 1] + v[:, 2] + v[:, 3]) > 0.0) == pos[:, 0]
    second = np.where(same, 1, 2)
    last = np.where(saddle & ~same, 1, 3 - crossed[:, ::-1].argmax(axis=1))
    used = np.stack([crossed.any(axis=1), saddle], axis=1)
    cell = np.nonzero(used)[0]

    def crossing(e):
        """(x, y) of the zero on edge e[s] of cell[s], for every segment s."""
        f = (e + 1) % 4
        with np.errstate(divide="ignore", invalid="ignore"):
            t = v[cell, e] / (v[cell, e] - v[cell, f])
            px = cx[cell, e] + t * (cx[cell, f] - cx[cell, e])
            py = cy[cell, e] + t * (cy[cell, f] - cy[cell, e])
        return zip(px.tolist(), py.tolist())

    starts = crossing(np.stack([crossed.argmax(axis=1), second], axis=1)[used])
    segments = list(zip(starts, crossing(np.stack([last, second + 1], axis=1)[used])))
    return _join_segments_torus(segments, base, n * step, quantum=1e-7 * step)


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
    phases = np.array([rec.bond_phase for rec in eps], dtype=float).reshape(-1, 1, 2)
    for rec, d in zip(eps, _torus_dist(line, phases)):
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
        if idx + 1 < m:  # a closed line is never cut at its last vertex
            neighbours.append(line[idx + 1])
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


def _point_arcs(values, eps, flavour):
    """Single-point arcs at the EPs if ``values`` are real up to rounding, else None.

    The locus Im(values) = 0 is then rounding noise; it degenerates to the EPs.
    """
    scale = float(np.abs(values).max())
    if scale == 0.0 or np.abs(values.imag).max() < 1e-12 * scale:
        return [ArcPolyline(np.asarray([rec.k]), flavour, (rec, rec)) for rec in eps]
    return None


def _arc_pieces(field, eps, grid_n, keep):
    """Zero contour of ``field`` on the zone grid, cut at the EPs.

    Yields ``(points, end_eps, uncut_loop)`` per piece that
    ``keep(piece, end_eps, uncut_loop)`` accepts: ``piece`` is its bond
    phases, ``end_eps`` the EPs within four grid steps of its two ends (None
    where there is none), ``uncut_loop`` whether no EP cuts its closed loop,
    and ``points`` its Cartesian points, resampled below one grid step.
    """
    step = 2.0 * np.pi / grid_n
    phases = np.array([rec.bond_phase for rec in eps], dtype=float).reshape(-1, 2)

    def end_ep(k_point):
        if not eps:
            return None
        d = _torus_dist(bond_phase_from_k(k_point), phases)
        return eps[int(d.argmin())] if d.min() < 4.0 * step else None

    for line in _marching_squares_periodic(field, phase_grid(grid_n)[0]):
        pieces, closed = _cut_at_eps(line, eps, radius=3.0 * step)
        for piece in pieces:
            ks = k_from_bond_phase(piece)
            ends, uncut_loop = (end_ep(ks[0]), end_ep(ks[-1])), closed and len(pieces) == 1
            if keep(piece, ends, uncut_loop):
                yield _resample(ks, max_step=step), ends, uncut_loop


def _arc_trace_scalar(j_eff, flavour, grid_n, eps):
    """Arcs of one species: locus Im[A(k)A(-k)] = 0 with Re <= 0."""

    def pair_product(thetas):
        ks = k_from_bond_phase(thetas)
        a_k, a_mk = structure_factor_pair(j_eff, ks)
        return a_k * a_mk

    prod = pair_product(phase_grid(grid_n)[1])
    points = _point_arcs(prod, eps, flavour)
    if points is not None:
        return points

    def keep(piece, ends, uncut_loop):
        interior = piece[1:-1] if len(piece) > 3 else piece
        return not np.median(pair_product(interior).real) > 0.0

    return [ArcPolyline(points=pts, flavour=flavour, endpoint_eps=ends)
            for pts, ends, _ in _arc_pieces(prod.imag, eps, grid_n, keep)]


def _arc_trace_coupled(model, grid_n, log):
    """Arcs of a flavour-mixing model: zero-real-part eigenvalue locus.

    For bond-only models the six bands come in +-sqrt(z) pairs with z an
    eigenvalue of the 3x3 :func:`~majorana_nh.models.chiral_product`, so
    the locus is Im z = 0, Re z <= 0 per branch; with onsite terms the
    six-band product of Re(E_i) is contoured instead.  Both fields are even in theta
    (H(-k) = -H(k)^T), so each +-theta pair of the grid is solved once.
    Closed loops no EP cuts are kept; other pieces only when both ends
    terminate at confirmed scan EPs.
    """
    eps = ep_scan(model, grid_n=max(64, grid_n // 2), confirmed_only=True, log=log)

    pairs = phase_grid_pairs(grid_n)
    solved = np.setdiff1d(np.arange(grid_n * grid_n), pairs[:, 1])
    hs = bloch_matrix_grid(model, k_from_bond_phase(phase_grid(grid_n)[1].reshape(-1, 2)[solved]))
    log.add_grid(grid_n * grid_n, len(pairs))
    if model.bond_only:
        z = np.linalg.eigvals(chiral_product(hs))
        points = _point_arcs(z, eps, None)
        if points is not None:
            return points
        values = np.prod(z.imag, axis=-1)
    else:
        values = np.prod(np.linalg.eigvals(hs).real, axis=-1)
    field = np.empty(grid_n * grid_n)
    field[solved] = values
    field[pairs[:, 1]] = field[pairs[:, 0]]
    field = field.reshape(grid_n, grid_n)

    def keep(piece, ends, uncut_loop):
        return uncut_loop or (ends[0] is not None and ends[1] is not None)

    return [ArcPolyline(points=pts, flavour=None, endpoint_eps=(None, None) if uncut_loop else ends)
            for pts, ends, uncut_loop in _arc_pieces(field, eps, grid_n, keep)]


def fermi_arc_trace(
    model: ModelConfig,
    grid_n: int = 256,
    log: eigen.RunLog | None = None,
) -> list[ArcPolyline]:
    """Open contours of purely imaginary eigenvalue pairs, ending at EPs.

    For flavour-conserving models every species is traced from its scalar
    bond sum, and each arc's ``flavour`` names its species; Dirac points of a
    Hermitian model degenerate to single-point arcs.
    Flavour-mixing models are traced from the full matrix spectrum, between
    the EPs of :func:`ep_scan`; the zone-grid solves of both, by route, and
    the refinement work go to ``log``, an :class:`eigen.RunLog`.
    """
    _check_grid_n(grid_n, MIN_ARC_GRID_N)
    sets = species(model)
    if sets is None:
        return _arc_trace_coupled(model, grid_n, eigen.RunLog() if log is None else log)
    eps = model_closed_form_eps(model)
    arcs = []
    for fl, j_eff in sets:
        own = [r for r in eps if r.flavour == fl]
        if own:
            arcs.extend(_arc_trace_scalar(j_eff, fl, grid_n, own))
    return arcs


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
    j_sets = [sets[i][1] for i in flavour_species(sets)]
    s = model.scale_factor

    a_k, a_mk = zip(*(structure_factor_pair(j, k) for j in j_sets))
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
