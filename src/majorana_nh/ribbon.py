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
from dataclasses import dataclass

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


def _assemble(w, k_x, periodic, t_x, t_y, t_z, onsite, scale):
    """Strip matrix of ``w`` dimer rows with m x m flavour blocks per bond.

    Fills the 2wm x 2wm matrix through its (row, sublattice, flavour)^2 view,
    with no loop over rows; for w >= 2 no two bonds share an entry.
    """
    m = t_x.shape[0]
    h = np.zeros((w, 2, m, w, 2, m), dtype=complex)
    px = np.exp(0.5j * k_x)
    x_fwd = t_x * px + t_y / px
    x_bwd = t_x / px + t_y * px  # intra-row bond sum at -k_x
    r = np.arange(w)
    h[r, 0, :, r, 1, :] += 2j * x_fwd
    h[r, 1, :, r, 0, :] += -2j * x_bwd.T
    h[r, 0, :, r, 0, :] += 2j * onsite
    h[r, 1, :, r, 1, :] += 2j * onsite
    # z-links join row r's B site to row r+1's A site; a periodic strip wraps
    lo = r if periodic else r[:-1]
    up = (lo + 1) % w
    h[up, 0, :, lo, 1, :] += 2j * t_z
    h[lo, 1, :, up, 0, :] += -2j * t_z.T
    return h.reshape(2 * w * m, 2 * w * m) * scale


def build_ribbon(spec: RibbonSpec) -> np.ndarray:
    """The dense 6w x 6w strip matrix at fixed k_x.

    Satisfies the Majorana antisymmetry ``H(k_x) = -H(-k_x)^T``; Hermitian
    whenever every coupling of the model is real.  Flavour-conserving models
    leave flavour ``fl`` alone on rows ``fl::3``; :func:`diagonalize_ribbon`
    assembles those species blocks without building this matrix.
    """
    t = flavour_bond_table(spec.model)
    periodic = spec.boundary_y == "periodic"
    return _assemble(spec.w, spec.k_x, periodic, *t.t, t.onsite, spec.model.scale_factor)


def diagonalize_ribbon(spec: RibbonSpec, tol: float | None = None) -> eigen.Spectrum:
    """Eigendecomposition of a strip under the :func:`eigen.eig` contract.

    When :func:`~majorana_nh.models.species` keeps the Majorana species
    apart, the distinct 2w x 2w species blocks are assembled as one stack
    and solved in one :func:`eigen.eig` call (the parent model's one species
    stands for all three flavours); each block's eigenpairs are placed on
    rows ``fl::3`` of its flavours.  Other strips are solved whole.  Either
    way every eigenpair meets ``tol`` in the residual normalized by the
    strip's Frobenius norm (summed from the blocks), after a polish where
    needed, or :class:`ConvergenceError` is raised.  Block eigenvectors are
    unit-normalized per block and zero on the other flavours.
    """
    sets = species(spec.model)
    if sets is None:
        return eigen.eig(build_ribbon(spec), tol=tol)

    n, m = 6 * spec.w, 2 * spec.w
    tol = eigen.default_tol(n) if tol is None else tol
    periodic, scale = spec.boundary_y == "periodic", spec.model.scale_factor
    blocks = np.stack([
        _assemble(spec.w, spec.k_x, periodic, *(np.array([[c]]) for c in (*j, 0)), scale)
        for _, j in sets
    ])
    picks = np.arange(3) % len(blocks)  # the block of each flavour
    block_norms = eigen.frobenius_norms(blocks)
    norm = math.sqrt(sum(block_norms[b] ** 2 for b in picks))
    # a block residual is a residual of the strip: restate tol in each block's norm
    ratios = max(1.0, norm) / np.maximum(1.0, block_norms)
    part = eigen.eig(blocks, tol=tol * ratios)

    fl = np.arange(3)
    v_all = np.zeros((m, 3, 3, m), dtype=complex)  # (site, row flavour, column flavour, state)
    v_all[:, fl, fl, :] = part.right_vectors[picks].transpose(1, 0, 2)
    w_all = part.eigenvalues[picks].ravel()
    res = (part.residuals / ratios[:, None])[picks].ravel()
    order = np.lexsort((w_all.imag, w_all.real))
    return eigen.Spectrum(
        eigenvalues=w_all[order],
        right_vectors=v_all.reshape(n, n)[:, order],
        left_vectors=None,
        residuals=res[order],
        defective_flags=part.defective_flags[picks].ravel()[order],
        achieved_tol=float(res.max()),
        matrix_norm=norm,
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


@dataclass(frozen=True)
class LocalizationRecord:
    state_index: int
    eigenvalue: complex
    mean_row: float
    ipr: float
    mass_bottom: float
    mass_top: float
    cloud_distance: float
    label: str


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
) -> list[LocalizationRecord]:
    """Classify every eigenstate of a strip spectrum.

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

    if pbc_cloud is None:
        dist = np.full(spectrum.n, np.inf)
    else:
        dist = pbc_cloud.distance(np.abs(spectrum.eigenvalues))

    localized = (mass_bottom + mass_top >= thresholds.edge_mass) | (
        ipr * n_sites >= thresholds.ipr_factor
    )
    # boundary modes: the states farthest off the reference cloud, at most one
    # band per species per edge; off a real cloud a state needs no localization
    # to qualify, without one it does
    edge_idx = set()
    candidates = [
        i
        for i in range(spectrum.n)
        if (pbc_cloud is not None or localized[i]) and dist[i] > thresholds.cloud_tol
    ]
    candidates.sort(key=lambda i: (-dist[i], abs(spectrum.eigenvalues[i]), i))
    edge_idx.update(candidates[: thresholds.edge_cap])

    records = []
    for i in range(spectrum.n):
        if localized[i] or i in edge_idx:
            side = "bottom" if mass_bottom[i] >= mass_top[i] else "top"
            kind = "edge" if i in edge_idx else "bulk_localized"
            label = f"{kind}_{side}"
        else:
            label = "extended"
        records.append(
            LocalizationRecord(
                state_index=i,
                eigenvalue=complex(spectrum.eigenvalues[i]),
                mean_row=float(mean_row[i]),
                ipr=float(ipr[i]),
                mass_bottom=float(mass_bottom[i]),
                mass_top=float(mass_top[i]),
                cloud_distance=float(dist[i]),
                label=label,
            )
        )
    return records


# --------------------------------------------------------------------------
# PBC reference cloud
# --------------------------------------------------------------------------

def _cloud_samples(model: ModelConfig, k_x: float, n_transverse: int):
    """Fully periodic eigenvalues at fixed k_x over a transverse-momentum grid.

    Closed-form bands where the model has them, else a batched ``eigvals``.
    """
    q = np.linspace(0.0, 2.0 * np.pi, n_transverse, endpoint=False)
    th1 = 0.5 * k_x - q
    th2 = -0.5 * k_x - q
    ks = np.stack([th1 - th2, (th1 + th2) / math.sqrt(3.0)], axis=-1)

    vals = closed_form_spectrum_grid(model, ks)
    if vals is None:
        vals = np.linalg.eigvals(bloch_matrix_grid(model, ks))
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
    records: list  # list (per k_x) of lists of LocalizationRecord
    pbc_reference: list | None  # per k_x, the CloudIntervals of the periodic spectrum
    thresholds: ClassifierThresholds
    max_residual: float


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

    Data-parallel over k_x when ``threads > 1``; results are collected in grid
    order either way.  An error raised at one k_x propagates as the same
    exception object, its message prefixed with that k_x.
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
            return recs, cloud, spectrum.achieved_tol
        except Exception as exc:
            exc.args = (f"k_x = {float(kx):.6g}: {exc}",)
            raise

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(task, kx_grid))
    else:
        results = [task(kx) for kx in kx_grid]

    return SweepResult(
        model=model,
        w=w,
        boundary_y=boundary_y,
        kx_grid=kx_grid,
        records=[r[0] for r in results],
        pbc_reference=[r[1] for r in results] if pbc_reference else None,
        thresholds=thresholds,
        max_residual=max(r[2] for r in results),
    )


def edge_mode_weights(
    model: ModelConfig,
    w: int,
    k_x: float,
    states=None,
    normalization: str = "linear",
    boundary_y: str = "open",
):
    """Per-site weight profiles for selected strip eigenstates at one k_x.

    ``states`` is either a list of state indices (in eigenvalue-sorted order),
    an integer n meaning the n states of smallest |E|, or None for all states.
    ``normalization="log01"`` returns log weights affinely rescaled to [0, 1]
    per state, as used for edge-mode snapshots.
    """
    if normalization not in ("linear", "log01"):
        raise ValueError(f"unknown normalization {normalization!r}")
    spectrum = diagonalize_ribbon(RibbonSpec(w=w, boundary_y=boundary_y, k_x=k_x, model=model))
    ws = site_weights(spectrum, w)

    if states is None:
        idx = np.arange(spectrum.n)
    elif isinstance(states, int):
        if states <= 0:
            raise ValueError("state selection is empty")
        idx = np.argsort(np.abs(spectrum.eigenvalues), kind="stable")[:states]
        idx = np.sort(idx)
    else:
        idx = np.asarray(list(states), dtype=int)
        if idx.size == 0:
            raise ValueError("state selection is empty")

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


def nhse_summary(result: SweepResult, nhse_fraction: float = 0.05, delta_floor: float = 0.05) -> NHSESummary:
    """Aggregate skin-effect diagnostics over a sweep.

    The overall verdict is based on the fraction of bulk (non-edge) states
    classed bulk-localized, aggregated over the whole grid.  Boundary flips
    are zero crossings of the bulk-averaged (bottom - top) outer mass between
    grid points where that signal is above the noise floor; the grid is
    treated as periodic over 2 pi.
    """
    if result.pbc_reference is None:
        raise ValueError("NHSE summary needs a sweep with a PBC reference cloud")

    per_kx = []
    total_bulk = total_bulk_localized = 0
    for kx, recs in zip(result.kx_grid, result.records):
        bulk = [r for r in recs if not r.label.startswith("edge")]
        n_bulk = len(bulk)
        n_bot = sum(r.label == "bulk_localized_bottom" for r in bulk)
        n_top = sum(r.label == "bulk_localized_top" for r in bulk)
        n_ext = sum(r.label == "extended" for r in bulk)
        delta = (
            float(np.mean([r.mass_bottom - r.mass_top for r in bulk])) if bulk else 0.0
        )
        per_kx.append(
            KxSummary(
                k_x=float(kx),
                n_edge=len(recs) - n_bulk,
                n_bulk=n_bulk,
                frac_bottom=n_bot / n_bulk if n_bulk else 0.0,
                frac_top=n_top / n_bulk if n_bulk else 0.0,
                frac_extended=n_ext / n_bulk if n_bulk else 0.0,
                delta_mass=delta,
            )
        )
        total_bulk += n_bulk
        total_bulk_localized += n_bot + n_top

    frac = total_bulk_localized / total_bulk if total_bulk else 0.0

    # boundary flips: sign changes of delta_mass along the periodic k_x grid
    order = np.argsort([s.k_x for s in per_kx])
    kxs = np.asarray([per_kx[i].k_x for i in order])
    deltas = np.asarray([per_kx[i].delta_mass for i in order])
    keep = np.abs(deltas) > delta_floor
    flips = []
    if keep.sum() >= 2:
        idx = np.flatnonzero(keep)
        pairs = list(zip(idx[:-1], idx[1:])) + [(idx[-1], idx[0])]
        for i, j in pairs:
            di, dj = deltas[i], deltas[j]
            if di * dj < 0.0:
                ki, kj = kxs[i], kxs[j]
                if j <= i:  # wrap pair
                    kj = kj + 2.0 * np.pi
                k_cross = ki + (kj - ki) * di / (di - dj)
                k_cross = math.remainder(k_cross, 2.0 * math.pi)
                flips.append(float(k_cross))
    flips.sort()

    return NHSESummary(
        per_kx=per_kx,
        nhse_present=frac > nhse_fraction,
        bulk_localized_fraction=frac,
        flip_kx=flips,
        nhse_fraction_threshold=nhse_fraction,
    )
