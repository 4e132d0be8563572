"""Zigzag-edged strips: mixed-space Hamiltonians, k_x sweeps, localization.

Geometry: the strip is periodic along x and open (or periodic) along y.  One
"dimer row" is a zigzag chain holding one A and one B site per unit cell of
circumference; x-links (phase ``e^{+i k_x/2}``) and y-links (``e^{-i k_x/2}``)
run inside a row, z-links run along y with no phase and join row r's B site to
row r+1's A site.  Cutting the z-links at both ends produces the two zigzag
edges.  Basis ordering: (row 1 A, row 1 B, row 2 A, ...), flavours innermost,
so the matrix dimension is ``6 w`` for ``w`` dimer rows (2w sites).
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from . import eigen
from .models import (
    ModelConfig,
    bloch_matrix_grid,
    closed_form_spectrum_grid,
    flavour_bond_table,
    species,
)

BOUNDARIES = ("open", "periodic")

LOCALIZATION_CLASSES = (
    "edge_bottom",
    "edge_top",
    "bulk_localized_bottom",
    "bulk_localized_top",
    "extended",
)

#: one strip eigenstate at one k_x, as classified by :func:`localization_profile`
STATE_DTYPE = np.dtype(
    [
        ("state_index", np.int64),
        ("eigenvalue", np.complex128),
        ("mean_row", np.float64),
        ("ipr", np.float64),
        ("mass_bottom", np.float64),
        ("mass_top", np.float64),
        ("cloud_distance", np.float64),
        ("label", f"U{max(map(len, LOCALIZATION_CLASSES))}"),
    ]
)


@dataclass(frozen=True)
class RibbonSpec:
    """A strip geometry at one transverse momentum."""

    w: int
    boundary_y: str
    k_x: float
    model: ModelConfig

    def __post_init__(self):
        if self.w < 2:
            raise ValueError("ribbon needs at least 2 dimer rows")
        if self.boundary_y not in BOUNDARIES:
            raise ValueError(f"boundary_y must be one of {BOUNDARIES}")


def _bond_blocks(w, k_x, periodic, t_x, t_y, t_z, scale):
    """The sublattice-offdiagonal blocks B (A <- B) and C (B <- A) of a strip.

    Each is a ``(w, m, w, m)`` (row, flavour)^2 array for m x m flavour
    blocks per bond, filled with no loop over rows; for w >= 2 no two bonds
    share an entry.
    """
    m = t_x.shape[0]
    b = np.zeros((w, m, w, m), dtype=complex)
    c = np.zeros((w, m, w, m), dtype=complex)
    px = np.exp(0.5j * k_x)
    x_fwd = t_x * px + t_y / px
    x_bwd = t_x / px + t_y * px  # intra-row bond sum at -k_x
    r = np.arange(w)
    b[r, :, r, :] = 2j * x_fwd
    c[r, :, r, :] = -2j * x_bwd.T
    # z-links join row r's B site to row r+1's A site; a periodic strip wraps
    lo = r if periodic else r[:-1]
    up = (lo + 1) % w
    b[up, :, lo, :] = 2j * t_z
    c[lo, :, up, :] = -2j * t_z.T
    return b * scale, c * scale


def build_ribbon(spec: RibbonSpec) -> np.ndarray:
    """The dense 6w x 6w strip matrix at fixed k_x.

    Satisfies the Majorana antisymmetry ``H(k_x) = -H(-k_x)^T``; Hermitian
    whenever every coupling of the model is real.  Basis: (row, sublattice,
    flavour), so the A <- B and B <- A blocks of :func:`_bond_blocks` fill
    the sublattice-offdiagonal entries and the onsite term the diagonal ones.
    """
    t = flavour_bond_table(spec.model)
    w, m, scale = spec.w, t.onsite.shape[0], spec.model.scale_factor
    b, c = _bond_blocks(w, spec.k_x, spec.boundary_y == "periodic", *t.t, scale)
    h = np.zeros((w, 2, m, w, 2, m), dtype=complex)
    h[:, 0, :, :, 1, :] = b
    h[:, 1, :, :, 0, :] = c
    r = np.arange(w)
    h[r, 0, :, r, 0, :] = 2j * t.onsite * scale
    h[r, 1, :, r, 1, :] = 2j * t.onsite * scale
    return h.reshape(2 * w * m, 2 * w * m)


def _strip_order(v, w):
    """Vector rows from the chiral basis (sublattice, row, flavour) to (row, sublattice, flavour)."""
    return np.swapaxes(v.reshape(*v.shape[:-2], 2, w, -1, v.shape[-1]), -4, -3).reshape(v.shape)


def diagonalize_ribbon(spec: RibbonSpec, tol: float | None = None) -> eigen.Spectrum:
    """Eigendecomposition of a strip under the :func:`eigen.eig` contract.

    The model's declarations pick the solver, Hermiticity first: a Hermitian
    model (:attr:`ModelConfig.hermitian`, real couplings) is solved by
    :func:`eigen.eigh`, any other bond-only model by
    :func:`eigen.eig_chiral`, and any other strip by :func:`eigen.eig`.  A
    strip with an onsite field is built whole by :func:`build_ribbon`.  A
    bond-only strip (:attr:`ModelConfig.bond_only`) is chiral, [[0, B],
    [C, 0]] between the A and B sublattices, and is solved from the blocks
    of one :func:`_bond_blocks` call.  When
    :func:`~majorana_nh.models.species` keeps the Majorana species apart,
    the distinct w x w species blocks are cut out of those blocks and go in
    one stacked call, certified against the strip's norm (``norm=``); the
    parent model's one species stands for all three flavours, and each
    block's eigenpairs are placed on rows ``fl::3`` of its flavours, zero on
    the others.  Every eigenpair meets ``tol`` (default of size 6w) in the
    residual over the strip's Frobenius norm, after a dense re-solve and a
    polish where needed, or :class:`ConvergenceError` is raised.
    """
    hermitian = spec.model.hermitian
    if not spec.model.bond_only:
        return (eigen.eigh if hermitian else eigen.eig)(build_ribbon(spec), tol=tol)

    w, n = spec.w, 6 * spec.w
    tol = eigen.default_tol(n) if tol is None else tol
    t = flavour_bond_table(spec.model).t
    b, c = _bond_blocks(w, spec.k_x, spec.boundary_y == "periodic", *t, spec.model.scale_factor)
    sets = species(spec.model)
    if sets is None:
        b, c, norm = b.reshape(3 * w, 3 * w), c.reshape(3 * w, 3 * w), None
    else:
        fl = np.arange(len(sets))
        b, c, norm = b[:, fl, :, fl], c[:, fl, :, fl], math.hypot(np.linalg.norm(b), np.linalg.norm(c))
    # a Hermitian strip by dense zheevd at the full size, which beats the half-size product route
    s = (eigen.eigh(eigen.chiral_matrix(b, c), tol=tol, norm=norm) if hermitian
         else eigen.eig_chiral(b, c, tol=tol, norm=norm))
    if sets is None:
        return replace(s, right_vectors=_strip_order(s.right_vectors, w))

    picks = np.arange(3) % len(sets)  # the block of each flavour
    m, f3 = 2 * w, np.arange(3)
    v_all = np.zeros((m, 3, 3, m), dtype=complex)  # (site, row flavour, column flavour, state)
    v_all[:, f3, f3, :] = _strip_order(s.right_vectors, w)[picks].transpose(1, 0, 2)
    w_all = s.eigenvalues[picks].ravel()
    order = np.lexsort((w_all.imag, w_all.real))
    return eigen.Spectrum(
        eigenvalues=w_all[order],
        right_vectors=v_all.reshape(n, n)[:, order],
        left_vectors=None,
        residuals=s.residuals[picks].ravel()[order],
        defective_flags=s.defective_flags[picks].ravel()[order],
        achieved_tol=float(s.achieved_tol.max()),
        matrix_norm=norm,
        path=s.path,
    )


# --------------------------------------------------------------------------
# localization diagnostics
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class ClassifierThresholds:
    """Constants of the per-state localization classifier.

    A state counts as localized when its combined mass in the outer bands
    (``outer_frac`` of sites at each edge) reaches ``edge_mass``, or when its
    participation ratio is ``ipr_factor`` times the fully-extended value
    1/(2w); the second clause catches states piled symmetrically on both
    edges, whose mean position is deceptive.

    Edge candidates are the states farther than ``cloud_tol`` outside the
    periodic |E| reference cloud.  A zigzag termination supports at most one
    boundary band per species per edge, so at most ``edge_cap`` (= 3 species x
    2 edges) candidates per k_x -- those farthest off the cloud -- are classed
    "edge"; every other localized state counts as skin-localized bulk.  (The
    cloud test alone cannot separate them: skin states also leave the
    periodic spectrum, which is the very fingerprint of the effect.)

    With a reference cloud, an off-cloud state is a candidate whether or not
    it passes the localized test: in a Hermitian strip nothing but a bound
    state can sit outside the Bloch continuum at the same k_x, however long
    its decay length (near where the edge band merges into the bulk it can
    spread over most of the strip).  Without a cloud only localized states
    can be edge.
    """

    edge_mass: float = 0.6
    outer_frac: float = 0.1
    ipr_factor: float = 4.0
    cloud_tol: float = 1e-2
    edge_cap: int = 6


def site_weights(spectrum: eigen.Spectrum, w: int) -> np.ndarray:
    """Per-site probability weights, flavours summed: shape (2w, n_states)."""
    n = spectrum.n
    if n != 6 * w:
        raise ValueError(f"spectrum dimension {n} does not match 6*w = {6 * w}")
    weights = (np.abs(spectrum.right_vectors) ** 2).reshape(2 * w, 3, n).sum(axis=1)
    return weights / weights.sum(axis=0, keepdims=True)


def localization_profile(
    spectrum: eigen.Spectrum,
    w: int,
    pbc_cloud: CloudIntervals | None = None,
    thresholds: ClassifierThresholds = ClassifierThresholds(),
) -> np.recarray:
    """Classify every eigenstate of a strip spectrum: one :data:`STATE_DTYPE` record each.

    ``pbc_cloud`` holds the |E| intervals of the fully periodic spectrum at
    the same k_x; distances are measured between |E| values, matching how
    the spectra are drawn.  States farther than ``cloud_tol`` off the cloud
    are edge candidates, localized or not, since in a Hermitian strip an
    off-cloud state is a bound state; see :class:`ClassifierThresholds`.
    Without a cloud (``None``) only localized states can be edge: the
    ``edge_cap`` of smallest |E|.
    """
    ws = site_weights(spectrum, w)
    n_sites = 2 * w
    sites = np.arange(1, n_sites + 1, dtype=float)
    mean_row = sites @ ws
    ipr = (ws ** 2).sum(axis=0)
    n_outer = math.ceil(thresholds.outer_frac * n_sites)
    mass_bottom = ws[:n_outer].sum(axis=0)
    mass_top = ws[-n_outer:].sum(axis=0)

    e = spectrum.eigenvalues
    if pbc_cloud is None:
        dist = np.full(spectrum.n, np.inf)
    else:
        dist = pbc_cloud.distance(np.abs(e))

    localized = (mass_bottom + mass_top >= thresholds.edge_mass) | (
        ipr * n_sites >= thresholds.ipr_factor
    )
    # boundary modes: the states farthest off the reference cloud, at most one
    # band per species per edge; off a real cloud a state needs no localization
    # to qualify, without one it does.  Ties in distance go to the smaller |E|,
    # then the lower index.
    candidates = np.flatnonzero(
        ((pbc_cloud is not None) | localized) & (dist > thresholds.cloud_tol)
    )
    order = np.lexsort((candidates, np.hypot(e.real, e.imag)[candidates], -dist[candidates]))
    edge = np.zeros(spectrum.n, dtype=bool)
    edge[candidates[order[: thresholds.edge_cap]]] = True

    # index into LOCALIZATION_CLASSES: edge before bulk-localized, bottom
    # (ties included) before top, extended last
    code = np.where(localized | edge, 2 * ~edge + (mass_bottom < mass_top), 4)
    return np.rec.fromarrays(
        [np.arange(spectrum.n), e, mean_row, ipr, mass_bottom, mass_top, dist,
         np.asarray(LOCALIZATION_CLASSES)[code]],
        dtype=STATE_DTYPE,
    )


# --------------------------------------------------------------------------
# PBC reference cloud
# --------------------------------------------------------------------------

def _cloud_samples(model: ModelConfig, k_x: float, n_transverse: int):
    """Fully periodic eigenvalues at fixed k_x over a transverse-momentum grid.

    Closed-form bands where the model has them, else a batched ``eigvalsh``
    for a Hermitian model and ``eigvals`` for any other.
    """
    q = np.linspace(0.0, 2.0 * np.pi, n_transverse, endpoint=False)
    th1 = 0.5 * k_x - q
    th2 = -0.5 * k_x - q
    ks = np.stack([th1 - th2, (th1 + th2) / math.sqrt(3.0)], axis=-1)

    vals = closed_form_spectrum_grid(model, ks)
    if vals is None:
        h = bloch_matrix_grid(model, ks)
        vals = np.linalg.eigvalsh(h) if model.hermitian else np.linalg.eigvals(h)
    return vals


@dataclass(frozen=True)
class CloudIntervals:
    """|E| ranges of the periodic bands at fixed k_x.

    Each continuous band traces an interval of |E| over the transverse
    circle, so the attained |E| set is the union of per-track intervals
    (tracks are the per-momentum sorted |E| values, which stay continuous).
    This makes the inside/outside test independent of the sampling density,
    unlike a point cloud, whose gaps scale with the grid step.
    """

    bounds: np.ndarray  # (m, 2) sorted, non-overlapping [lo, hi] rows

    def distance(self, abs_e):
        abs_e = np.asarray(abs_e, dtype=float)
        lo = self.bounds[:, 0][None, :]
        hi = self.bounds[:, 1][None, :]
        x = abs_e.reshape(-1, 1)
        gap = np.maximum(np.maximum(lo - x, x - hi), 0.0)
        return gap.min(axis=1).reshape(abs_e.shape)


def cloud_intervals_from_samples(samples: np.ndarray) -> CloudIntervals:
    """Merge per-momentum sorted |E| tracks into |E| intervals."""
    tracks = np.sort(np.abs(np.asarray(samples)), axis=-1)
    lo = tracks.min(axis=0)
    hi = tracks.max(axis=0)
    order = np.argsort(lo)
    merged = []
    for a, b in zip(lo[order], hi[order]):
        if merged and a <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], b)
        else:
            merged.append([a, b])
    return CloudIntervals(bounds=np.asarray(merged))


def pbc_cloud_intervals(model: ModelConfig, k_x: float, n_transverse: int = 512) -> CloudIntervals:
    """|E| intervals of the fully periodic spectrum at fixed k_x."""
    return cloud_intervals_from_samples(_cloud_samples(model, k_x, n_transverse))


# --------------------------------------------------------------------------
# sweeps
# --------------------------------------------------------------------------

@dataclass
class SweepResult:
    model: ModelConfig
    w: int
    boundary_y: str
    kx_grid: np.ndarray
    records: np.recarray  # (n_kx, n) of STATE_DTYPE, one row per k_x of the grid
    pbc_reference: list | None  # per k_x, the CloudIntervals of the periodic spectrum
    thresholds: ClassifierThresholds
    max_residual: float
    strip_solves: dict  # strip solves per solver path, see :data:`eigen.SOLVER_PATHS`


def sweep(
    model: ModelConfig,
    w: int,
    kx_grid,
    boundary_y: str = "open",
    pbc_reference: bool = True,
    n_transverse: int = 512,
    thresholds: ClassifierThresholds = ClassifierThresholds(),
    threads: int = 1,
) -> SweepResult:
    """Diagonalize and classify the strip over a k_x grid.

    Data-parallel over k_x when ``threads > 1``, with at most one worker per
    k_x; results are collected in grid order either way.  The whole loop runs
    under :func:`eigen.one_blas_thread`, so each worker's solve is one
    single-threaded LAPACK call (workers do not oversubscribe the CPUs) and
    the data do not depend on ``threads`` or the BLAS thread setting.  An
    error raised at one k_x propagates as the same exception object, its
    message prefixed with that k_x.
    """
    kx_grid = np.asarray(kx_grid, dtype=float)
    if kx_grid.size == 0:
        raise ValueError("kx_grid must be nonempty")

    def task(kx):
        try:
            spectrum = diagonalize_ribbon(
                RibbonSpec(w=w, boundary_y=boundary_y, k_x=float(kx), model=model)
            )
            cloud = pbc_cloud_intervals(model, float(kx), n_transverse) if pbc_reference else None
            recs = localization_profile(spectrum, w, cloud, thresholds)
            return recs, cloud, spectrum.achieved_tol, spectrum.path
        except Exception as exc:
            exc.args = (f"k_x = {float(kx):.6g}: {exc}",)
            raise

    with eigen.one_blas_thread():
        if threads > 1:
            with ThreadPoolExecutor(max_workers=min(threads, kx_grid.size)) as pool:
                results = list(pool.map(task, kx_grid))
        else:
            results = [task(kx) for kx in kx_grid]

    return SweepResult(
        model=model,
        w=w,
        boundary_y=boundary_y,
        kx_grid=kx_grid,
        records=np.stack([r[0] for r in results]).view(np.recarray),
        pbc_reference=[r[1] for r in results] if pbc_reference else None,
        thresholds=thresholds,
        max_residual=max(r[2] for r in results),
        strip_solves={p: [r[3] for r in results].count(p) for p in eigen.SOLVER_PATHS},
    )


def edge_mode_weights(
    model: ModelConfig,
    w: int,
    k_x: float,
    states=None,
    normalization: str = "linear",
    solves: dict | None = None,
):
    """Per-site weight profiles for selected open-strip eigenstates at one k_x.

    ``states`` is either a list of state indices in [0, 6w) (in eigenvalue-sorted order),
    an integer n meaning the n states of smallest |E|, or None for all states.
    ``normalization="log01"`` returns log weights affinely rescaled to [0, 1]
    per state, as used for edge-mode snapshots.  The strip is solved under
    :func:`eigen.one_blas_thread`, as in :func:`sweep`, so the weights do not
    depend on the BLAS thread setting.  ``solves``, a dict like
    :attr:`SweepResult.strip_solves`, gets this solve added to its path.
    """
    if normalization not in ("linear", "log01"):
        raise ValueError(f"unknown normalization {normalization!r}")
    with eigen.one_blas_thread():
        spectrum = diagonalize_ribbon(RibbonSpec(w=w, boundary_y="open", k_x=k_x, model=model))
    if solves is not None:
        solves[spectrum.path] += 1
    ws = site_weights(spectrum, w)

    if states is None:
        idx = np.arange(spectrum.n)
    elif isinstance(states, int):
        idx = np.sort(np.argsort(np.abs(spectrum.eigenvalues), kind="stable")[: max(states, 0)])
    else:
        idx = np.asarray(list(states), dtype=int)
    if idx.size == 0:
        raise ValueError("state selection is empty")
    outside = idx[(idx < 0) | (idx >= spectrum.n)]
    if outside.size:
        raise ValueError(f"state indices must lie in [0, {spectrum.n}), got {outside.tolist()}")

    profiles = ws[:, idx].T.copy()  # (n_selected, 2w), columns sum to 1
    if normalization == "log01":
        logs = np.log(np.maximum(profiles, 1e-300))
        lo = logs.min(axis=1, keepdims=True)
        hi = logs.max(axis=1, keepdims=True)
        span = hi - lo
        span[span == 0.0] = 1.0
        profiles = (logs - lo) / span
    return idx, spectrum.eigenvalues[idx], profiles


# --------------------------------------------------------------------------
# skin-effect summary
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class KxSummary:
    k_x: float
    n_edge: int
    n_bulk: int
    frac_bottom: float
    frac_top: float
    frac_extended: float
    delta_mass: float


@dataclass
class NHSESummary:
    per_kx: list
    nhse_present: bool
    bulk_localized_fraction: float
    flip_kx: list
    nhse_fraction_threshold: float


#: least |bulk-averaged (bottom - top) outer mass| of a k_x that can take part in a boundary flip
DELTA_FLOOR = 0.05


def nhse_summary(result: SweepResult, nhse_fraction: float = 0.05) -> NHSESummary:
    """Aggregate skin-effect diagnostics over a sweep.

    The overall verdict is based on the fraction of bulk (non-edge) states
    classed bulk-localized, aggregated over the whole grid.  Boundary flips
    are zero crossings of the bulk-averaged (bottom - top) outer mass between
    grid points where that signal is above :data:`DELTA_FLOOR`; the grid is
    treated as periodic over 2 pi.
    """
    if result.pbc_reference is None:
        raise ValueError("NHSE summary needs a sweep with a PBC reference cloud")

    rec = result.records
    bulk = ~np.char.startswith(rec.label, "edge")
    n_bulk = bulk.sum(axis=1)
    counts = np.stack([(rec.label == c).sum(axis=1) for c in LOCALIZATION_CLASSES[2:]], axis=-1)
    fracs = counts / np.maximum(n_bulk, 1)[:, None]  # all counts are 0 where n_bulk is
    # a 1-D mean per k_x: the bulk states' (bottom - top) mass summed in state order
    mass_diff = rec.mass_bottom - rec.mass_top
    deltas = np.array([d[b].mean() if b.any() else 0.0 for d, b in zip(mass_diff, bulk)])
    columns = (result.kx_grid.tolist(), n_bulk.tolist(), fracs.tolist(), deltas.tolist())
    per_kx = [KxSummary(kx, rec.shape[1] - nb, nb, *fr, delta) for kx, nb, fr, delta in zip(*columns)]
    total_bulk = int(n_bulk.sum())
    frac = int(counts[:, :2].sum()) / total_bulk if total_bulk else 0.0

    # boundary flips: sign changes of delta_mass between neighbours above the
    # noise floor, along the k_x grid taken as periodic
    order = np.argsort(result.kx_grid)
    kxs, deltas = result.kx_grid[order], deltas[order]
    keep = np.flatnonzero(np.abs(deltas) > DELTA_FLOOR)
    nxt = np.roll(keep, -1)
    cross = deltas[keep] * deltas[nxt] < 0.0
    i, j = keep[cross], nxt[cross]
    di, dj = deltas[i], deltas[j]
    ki, kj = kxs[i], np.where(j <= i, kxs[j] + 2.0 * np.pi, kxs[j])  # j <= i: the wrap pair
    k_cross = ki + (kj - ki) * di / (di - dj)
    flips = sorted(math.remainder(k, 2.0 * math.pi) for k in k_cross.tolist())

    return NHSESummary(
        per_kx=per_kx,
        nhse_present=frac > nhse_fraction,
        bulk_localized_fraction=frac,
        flip_kx=flips,
        nhse_fraction_threshold=nhse_fraction,
    )
