"""Zigzag-edged strips: mixed-space Hamiltonians, k_x sweeps, localization.

Geometry: the strip is periodic along x and open along y.  One
"dimer row" is a zigzag chain holding one A and one B site per unit cell of
circumference; x-links (phase ``e^{+i k_x/2}``) and y-links (``e^{-i k_x/2}``)
run inside a row, z-links run along y with no phase and join row r's B site to
row r+1's A site.  Cutting the z-links at both ends produces the two zigzag
edges.  Basis ordering: (row 1 A, row 1 B, row 2 A, ...), flavours innermost,
so the matrix dimension is ``6 w`` for ``w`` dimer rows (2w sites).
Strips are solved open only.  :func:`build_ribbon` also builds a strip
periodic along y, whose spectrum is the Bloch spectrum at the transverse
momenta 2 pi n / w: the periodic reference cloud (:func:`_cloud_samples`).
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass, replace

import numpy as np

from . import eigen
from .errors import check_integer
from .models import (
    ModelConfig,
    bloch_matrix_grid,
    chiral_product,
    closed_form_spectrum_grid,
    flavour_bond_table,
    flavour_species,
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


#: most eigenvector entries (k_x x matrices per k_x x matrix size**2) that
#: one stacked strip solve of :func:`sweep` takes, so memory per call stays
#: flat: one k_x of a w=52 dense or Gamma strip, four of its species strips
CHUNK_ENTRIES = 2**17

#: widest gap between two |E| tracks, over the k_x's largest |E|, that the
#: periodic cloud closes: tracks that touch at a band touching meet only to
#: rounding, and a last-bit gap there must not split the interval
CLOUD_MERGE_GAP = 16 * np.finfo(float).eps

#: most states per k_x the classifier labels edge: a zigzag termination
#: supports at most one boundary band per species per edge (3 species x 2 edges)
EDGE_CAP = 6


def _check_strip(w):
    check_integer("w", w, 2, "an integer number of dimer rows", "ribbon needs at least 2 dimer rows")


@dataclass(frozen=True)
class RibbonSpec:
    """A strip geometry at one transverse momentum."""

    w: int
    boundary_y: str
    k_x: float
    model: ModelConfig

    def __post_init__(self):
        _check_strip(self.w)
        if self.boundary_y not in BOUNDARIES:
            raise ValueError(f"boundary_y must be one of {BOUNDARIES}")


def _bond_terms(model: ModelConfig, k_x) -> np.ndarray:
    """The bond terms ``(k, 4, m, m)`` of :func:`eigen.chiral_blocks` for the strips at the momenta ``k_x``.

    Bd, the intra-row bond sum, and Bs, the z-link from row r's B site to
    row r+1's A site, fill B (A <- B); Cd and Cs, the same bonds at -k_x and
    transposed, fill C (B <- A).
    """
    t_x, t_y, t_z = flavour_bond_table(model).t
    px = np.exp(0.5j * np.asarray(k_x, dtype=float)).reshape(-1, 1, 1)
    scale = model.scale_factor
    bd = (2j * (t_x * px + t_y / px)) * scale
    cd = np.swapaxes((-2j * (t_x / px + t_y * px)) * scale, -1, -2)
    bs, cs = (2j * t_z) * scale, (-2j * t_z.T) * scale
    return np.stack(np.broadcast_arrays(bd, bs, cd, cs), axis=1)


def _strip_matrices(model: ModelConfig, w, k_x, periodic) -> np.ndarray:
    """The dense ``(k, 6w, 6w)`` strip matrices at the momenta ``k_x``: :func:`eigen.chiral_blocks` plus the onsite term."""
    terms = _bond_terms(model, k_x)
    k, m = terms.shape[0], terms.shape[-1]
    b, c = eigen.chiral_blocks(terms, w, periodic)
    h = np.zeros((k, w, 2, m, w, 2, m), dtype=complex)
    h[:, :, 0, :, :, 1, :] = b.reshape(k, w, m, w, m)
    h[:, :, 1, :, :, 0, :] = c.reshape(k, w, m, w, m)
    r = np.arange(w)
    onsite = 2j * flavour_bond_table(model).onsite * model.scale_factor
    h[:, r, 0, :, r, 0, :] = onsite
    h[:, r, 1, :, r, 1, :] = onsite
    return h.reshape(k, 2 * w * m, 2 * w * m)


def build_ribbon(spec: RibbonSpec) -> np.ndarray:
    """The dense 6w x 6w strip matrix at fixed k_x.

    Satisfies the Majorana antisymmetry ``H(k_x) = -H(-k_x)^T``; Hermitian
    whenever every coupling of the model is real.  Basis: (row, sublattice,
    flavour), so the A <- B and B <- A blocks of :func:`eigen.chiral_blocks`,
    laid out from :func:`_bond_terms`, fill the sublattice-offdiagonal
    entries and the onsite term the diagonal ones.
    """
    return _strip_matrices(spec.model, spec.w, [spec.k_x], spec.boundary_y == "periodic")[0]


def _strip_order(v, w):
    """Vector rows from the chiral basis (sublattice, row, flavour) to (row, sublattice, flavour)."""
    return np.swapaxes(v.reshape(*v.shape[:-2], 2, w, -1, v.shape[-1]), -4, -3).reshape(v.shape)


def _site_weights(p, w):
    """Per-site probability weights ``(..., 2w, n)`` from the |entries|**2 ``(..., 6w, n)`` of strip vectors."""
    weights = p.reshape(*p.shape[:-2], 2 * w, 3, p.shape[-1]).sum(axis=-2)
    return weights / weights.sum(axis=-2, keepdims=True)


class _Strips:
    """The certified eigenpairs of the strips at ``k`` momenta, from one stacked :mod:`eigen` call.

    ``spectrum`` holds the solver's matrices k_x by k_x: the species blocks of
    a flavour-conserving strip (``sets``), else each whole strip (a lone
    matrix when k = 1).  Per k_x: ``eigenvalues`` ``(k, 6w)`` in (Re, Im)
    order, the worst residual ``achieved`` and the solver route ``routes``.
    """

    def __init__(self, spectrum: eigen.Spectrum, k, w, sets, chiral, norm=None):
        self.spectrum, self.k, self.w, self.sets, self.chiral, self.norm = spectrum, k, w, sets, chiral, norm
        blocks = 1 if sets is None else len(sets)
        routes = np.reshape(spectrum.routes, (k, blocks))
        self.routes = np.where((routes == "dense_fallback").any(axis=-1), "dense_fallback", routes[:, 0])
        self.achieved = np.reshape(spectrum.achieved_tol, (k, blocks)).max(axis=-1)
        e = spectrum.eigenvalues.reshape(k, -1)
        if sets is not None:
            self.picks = flavour_species(sets)  # the block of each flavour
            e = e.reshape(k, blocks, -1)[:, self.picks].reshape(k, -1)
            self.order = np.lexsort((e.imag, e.real), axis=-1)
            e = np.take_along_axis(e, self.order, -1)
        self.eigenvalues = e

    def vectors(self):
        """The solver's vectors in strip row order (row, sublattice, flavour)."""
        v = self.spectrum.right_vectors
        return _strip_order(v, self.w) if self.chiral else v

    def weights(self):
        """Per-site weights ``(k, 2w, 6w)``, as :func:`site_weights` gives them from the dense vectors.

        A species state's weights are its block vector's |entries|**2, the
        other flavours' zeros adding nothing; no dense vector is formed.
        Each k_x's weights are laid out as the dense ones, sites innermost,
        so that sums over sites round alike.
        """
        if self.sets is None:
            # squared in place before the rows are reordered, as real numbers: half the memory
            p = np.abs(self.spectrum.right_vectors)
            p = np.square(p, out=p).reshape(self.k, *p.shape[-2:])
            return _site_weights(_strip_order(p, self.w) if self.chiral else p, self.w)
        w, m = self.w, 2 * self.w
        # (k_x, block, row, sublattice, state) from the chiral basis; each
        # sorted state picks its block and column: (k_x, state, site)
        p = np.swapaxes((np.abs(self.spectrum.right_vectors) ** 2).reshape(self.k, -1, 2, w, m), 2, 3)
        p = p[np.arange(self.k)[:, None], self.picks[self.order // m], :, :, self.order % m]
        p = np.swapaxes(p.reshape(self.k, 3 * m, m), -1, -2)
        return p / p.sum(axis=-2, keepdims=True)

    def dense(self) -> eigen.Spectrum:
        """The :class:`eigen.Spectrum` of the one strip (k = 1) in the 6w x 6w strip basis."""
        s, v = self.spectrum, self.vectors()
        if self.sets is None:
            return replace(s, right_vectors=v)
        m, f3, order = 2 * self.w, np.arange(3), self.order[0]
        v_all = np.zeros((m, 3, 3, m), dtype=complex)  # (site, row flavour, column flavour, state)
        v_all[:, f3, f3, :] = v[self.picks].transpose(1, 0, 2)
        return eigen.Spectrum(
            eigenvalues=self.eigenvalues[0],
            right_vectors=v_all.reshape(3 * m, 3 * m)[:, order],
            residuals=s.residuals[self.picks].ravel()[order],
            achieved_tol=float(self.achieved[0]),
            matrix_norm=float(self.norm[0]),
            routes=s.path,
        )


def _mirror_pairs(k_x) -> np.ndarray:
    """The +-k_x pairs of a momentum vector: ``(p, 2)`` indices (representative k > 0, partner -k).

    The n-th occurrence of each k > 0 pairs with the n-th occurrence of its
    exact negation; 0, and k_x whose negation is missing, stay unpaired.
    """
    k_x = np.asarray(k_x)
    pairs = []
    for k in np.unique(k_x[k_x > 0]):
        reps, partners = np.flatnonzero(k_x == k), np.flatnonzero(k_x == -k)
        n = min(reps.size, partners.size)
        pairs.append(np.stack([reps[:n], partners[:n]], axis=-1))
    return np.concatenate(pairs) if pairs else eigen._NO_PAIRS


def _mirrored(model: ModelConfig) -> bool:
    """Whether the strips' +-k_x pairs share one solve: every route but :func:`eigen.eig_species`."""
    return model.hermitian or species(model) is None


def _solve_strips(model: ModelConfig, w, k_x, tol=None) -> _Strips:
    """The solve of :func:`diagonalize_ribbon` at the momenta ``k_x``, in one stacked :mod:`eigen` call.

    Bond-only strips start from their :func:`_bond_terms`.  A
    flavour-conserving strip passes the bond scalars of its (k_x, species)
    blocks (the terms' flavour diagonals) and the strip's Frobenius norm,
    taken in closed form from them, to :func:`eigen.eig_species`, or, when
    Hermitian, their :func:`eigen.chiral_blocks` to :func:`eigen.eigh_chiral`.
    Other bond-only strips pass their :func:`eigen.chiral_blocks` to
    :func:`eigen.eig_chiral`, or when Hermitian to :func:`eigen.eigh_chiral`,
    and strips with a field their dense matrices to :func:`eigen.eig` or
    :func:`eigen.eigh`.  Each matrix of the stack gets the result it would
    get alone, except that the partner of each pair of :func:`_mirror_pairs`
    (species blocks by species) takes its eigenpairs from its
    representative's solve (``pairs=``), save on the closed-form species
    route, which pairs nothing and looks for no pairs.
    """
    k_x = np.atleast_1d(np.asarray(k_x, dtype=float))
    k, hermitian = k_x.size, model.hermitian
    tol = eigen.default_tol(6 * w) if tol is None else tol

    def lone(a):  # a lone k_x is solved as a lone matrix
        return a[0] if k == 1 else a

    if not model.bond_only:
        h = lone(_strip_matrices(model, w, k_x, False))
        solve = eigen.eigh if hermitian else eigen.eig
        return _Strips(solve(h, tol=tol, pairs=_mirror_pairs(k_x)), k, w, None, False)

    terms = _bond_terms(model, k_x)
    sets = species(model)
    if sets is None:
        b, c = (lone(x) for x in eigen.chiral_blocks(terms, w))
        # a Hermitian strip by the SVD of B at half the size: three fig3a strips at w=52 take 17.7 ms
        # in svd against 72.2 ms in zheevd of the doubled matrices (one BLAS thread)
        solve = eigen.eigh_chiral if hermitian else eigen.eig_chiral
        return _Strips(solve(b, c, tol=tol, pairs=_mirror_pairs(k_x)), k, w, None, True)
    # (k, species, 4): a species' bd, bs, cd and cs are its flavour's diagonal entries of the terms
    bonds = np.diagonal(terms, axis1=-2, axis2=-1)[..., : len(sets)].swapaxes(-1, -2)
    # the strip's norm: the species blocks of its three flavours
    norm = np.sqrt(eigen.species_norms(bonds, w)[:, flavour_species(sets)].sum(axis=-1))
    block_norm = np.repeat(norm, len(sets))
    bonds = bonds.reshape(-1, 4)
    if hermitian:
        pairs = _mirror_pairs(k_x)
        block_pairs = (pairs[:, None, :] * len(sets) + np.arange(len(sets))[:, None]).reshape(-1, 2)
        blocks = eigen.chiral_blocks(bonds[..., None, None], w)
        s = eigen.eigh_chiral(*blocks, tol=tol, norm=block_norm, pairs=block_pairs)
    else:
        s = eigen.eig_species(bonds, w, tol=tol, norm=block_norm)
    return _Strips(s, k, w, sets, True, norm)


def diagonalize_ribbon(spec: RibbonSpec, tol: float | None = None) -> eigen.Spectrum:
    """Eigendecomposition of a strip under the :func:`eigen.eig` contract.

    The model's declarations pick the solver, Hermiticity first: a Hermitian
    model (:attr:`ModelConfig.hermitian`, real couplings) is solved by
    :func:`eigen.eigh_chiral` from the SVD of its B block when bond-only,
    else by :func:`eigen.eigh`; any other flavour-conserving model by
    :func:`eigen.eig_species`, any other bond-only model by
    :func:`eigen.eig_chiral`, and any other strip by :func:`eigen.eig`.  A
    strip with an onsite field is built whole.  A bond-only strip
    (:attr:`ModelConfig.bond_only`) is chiral, [[0, B], [C, 0]] between the
    A and B sublattices, its blocks laid out by :func:`eigen.chiral_blocks`.
    When :func:`~majorana_nh.models.species` keeps the Majorana species
    apart, each species block is bidiagonal, given by four bond scalars,
    and the distinct species alone go in one stacked call, certified
    against the strip's norm (``norm=``); the parent model's one species
    stands for all three flavours, and each block's eigenpairs are placed
    on rows ``fl::3`` of its flavours, zero on the others.  Every eigenpair
    meets ``tol`` (default of size 6w) in the residual over the strip's
    Frobenius norm, after a dense re-solve and a polish where needed, or
    :class:`ConvergenceError` is raised, as when that norm overflows.  The
    one-k_x view of the solve :func:`sweep` makes chunk by chunk.  Strips
    are solved open only: a periodic ``spec`` raises ValueError, since its
    spectrum is the Bloch spectrum at (k_x, 2 pi n / w) and
    :func:`build_ribbon` gives its matrix.
    """
    if spec.boundary_y != "open":
        raise ValueError("diagonalize_ribbon solves open strips only: a periodic strip's spectrum is the "
                         "Bloch spectrum at (k_x, 2 pi n / w), and build_ribbon builds its matrix")
    return _solve_strips(spec.model, spec.w, spec.k_x, tol).dense()


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
    periodic |E| reference cloud.  At most :data:`EDGE_CAP` candidates per
    k_x -- those farthest off the cloud -- are classed "edge"; every other
    localized state counts as skin-localized bulk.  (The cloud test alone
    cannot separate them: skin states also leave the periodic spectrum,
    which is the very fingerprint of the effect.)

    With a reference cloud, an off-cloud state is a candidate whether or not
    it passes the localized test: in a Hermitian strip nothing but a bound
    state can sit outside the Bloch continuum at the same k_x, however long
    its decay length (near where the edge band merges into the bulk it can
    spread over most of the strip).  Without a cloud only localized states
    can be edge.

    ``outer_frac`` lies in (0, 0.5] and the other three are > 0; the
    fields are the classifier keys of the config's ``tolerance`` block.
    """

    edge_mass: float = 0.6
    outer_frac: float = 0.1
    ipr_factor: float = 4.0
    cloud_tol: float = 1e-2

    def __post_init__(self):
        # each edge's band nonempty and the two apart
        if not 0.0 < self.outer_frac <= 0.5:
            raise ValueError(f"outer_frac must be in (0, 0.5], got {self.outer_frac}")
        for name in ("edge_mass", "ipr_factor", "cloud_tol"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be > 0, got {getattr(self, name)}")


def site_weights(spectrum: eigen.Spectrum, w: int) -> np.ndarray:
    """Per-site probability weights, flavours summed: shape (2w, n_states)."""
    n = spectrum.n
    if n != 6 * w:
        raise ValueError(f"spectrum dimension {n} does not match 6*w = {6 * w}")
    return _site_weights(np.abs(spectrum.right_vectors) ** 2, w)


def _classify(e, ws, dist, has_cloud, thresholds):
    """:data:`STATE_DTYPE` records ``(k, n)`` of the states of k strips.

    ``e`` ``(k, n)`` eigenvalues, ``ws`` ``(k, 2w, n)`` site weights and
    ``dist`` ``(k, n)`` |E| distances from the periodic cloud (inf without
    one, ``has_cloud`` False); see :func:`localization_profile`.
    """
    n_sites = ws.shape[-2]
    sites = np.arange(1, n_sites + 1, dtype=float)
    mean_row = sites @ ws
    ipr = (ws ** 2).sum(axis=-2)
    n_outer = math.ceil(thresholds.outer_frac * n_sites)
    mass_bottom = ws[..., :n_outer, :].sum(axis=-2)
    mass_top = ws[..., -n_outer:, :].sum(axis=-2)

    localized = (mass_bottom + mass_top >= thresholds.edge_mass) | (
        ipr * n_sites >= thresholds.ipr_factor
    )
    # boundary modes: the states farthest off the reference cloud, at most one
    # band per species per edge; off a real cloud a state needs no localization
    # to qualify, without one it does.  Candidates sort first, then by
    # distance; ties go to the smaller |E|, then (a stable sort) the lower index.
    candidate = (has_cloud | localized) & (dist > thresholds.cloud_tol)
    top = np.lexsort((np.hypot(e.real, e.imag), -dist, ~candidate), axis=-1)[..., :EDGE_CAP]
    edge = np.zeros(e.shape, dtype=bool)
    np.put_along_axis(edge, top, np.take_along_axis(candidate, top, -1), -1)

    # index into LOCALIZATION_CLASSES: edge before bulk-localized, bottom
    # (ties included) before top, extended last
    code = np.where(localized | edge, 2 * ~edge + (mass_bottom < mass_top), 4)
    return np.rec.fromarrays(
        [np.broadcast_to(np.arange(e.shape[-1]), e.shape), e, mean_row, ipr, mass_bottom, mass_top, dist,
         np.asarray(LOCALIZATION_CLASSES)[code]],
        dtype=STATE_DTYPE,
    )


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
    :data:`EDGE_CAP` of smallest |E|.  The one-k_x view of the classifier of
    :func:`sweep`.
    """
    ws = site_weights(spectrum, w)
    e = spectrum.eigenvalues
    dist = np.full(spectrum.n, np.inf) if pbc_cloud is None else pbc_cloud.distance(np.abs(e))
    return _classify(e[None], ws[None], dist[None], pbc_cloud is not None, thresholds)[0]


# --------------------------------------------------------------------------
# PBC reference cloud
# --------------------------------------------------------------------------

def _cloud_samples(model: ModelConfig, k_x, n_transverse: int):
    """Fully periodic eigenvalues at fixed k_x over a transverse-momentum grid.

    ``k_x`` is one momentum, samples ``(n_transverse, 6)``, or an array of
    them, samples ``(*k_x.shape, n_transverse, 6)``.  Closed-form bands where
    the model has them, else a batched ``eigvalsh`` for a Hermitian model,
    ``+-sqrt`` of the ``eigvals`` of the 3x3 :func:`chiral_product` for any
    other bond-only model (Gamma, DMI without a field), and ``eigvals`` of
    the 6x6 Bloch matrices for the rest.
    """
    q = np.linspace(0.0, 2.0 * np.pi, n_transverse, endpoint=False)
    half = 0.5 * np.asarray(k_x, dtype=float)[..., None]
    th1 = half - q
    th2 = -half - q
    ks = np.stack([th1 - th2, (th1 + th2) / math.sqrt(3.0)], axis=-1)

    vals = closed_form_spectrum_grid(model, ks)
    if vals is None:
        h = bloch_matrix_grid(model, ks)
        if model.hermitian:
            vals = np.linalg.eigvalsh(h)
        elif model.bond_only:
            roots = np.sqrt(np.linalg.eigvals(chiral_product(h)))
            vals = np.concatenate([roots, -roots], axis=-1)
        else:
            vals = np.linalg.eigvals(h)
    return vals


def _cloud_distance(bounds, abs_e):
    """|E| distance ``(k, n)`` of ``abs_e`` ``(k, n)`` from each k_x's ``(m, 2)`` intervals in ``bounds``."""
    padded = np.full((len(bounds), max(map(len, bounds)), 2), np.inf)  # an inf interval is never nearest
    for row, b in zip(padded, bounds):
        row[: len(b)] = b
    lo, hi, x = padded[:, None, :, 0], padded[:, None, :, 1], abs_e[..., None]
    return np.maximum(np.maximum(lo - x, x - hi), 0.0).min(axis=-1)


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
        return _cloud_distance([self.bounds], abs_e.reshape(1, -1)).reshape(abs_e.shape)


def _cloud_bounds(samples):
    """Per-momentum sorted |E| tracks ``(k, q, t)`` merged into each k_x's read-only ``(m, 2)`` |E| intervals.

    Gaps up to :data:`CLOUD_MERGE_GAP` times the k_x's largest |E| close.
    """
    tracks = np.sort(np.abs(np.asarray(samples)), axis=-1)
    lo, hi = tracks.min(axis=-2), tracks.max(axis=-2)
    order = np.argsort(lo, axis=-1)
    lo, hi = np.take_along_axis(lo, order, -1), np.take_along_axis(hi, order, -1)
    reach = np.maximum.accumulate(hi, axis=-1)
    # a track opens an interval when it starts above every earlier track's end
    opens = np.ones(lo.shape, dtype=bool)
    opens[:, 1:] = lo[:, 1:] > reach[:, :-1] + CLOUD_MERGE_GAP * reach[:, -1:]
    closes = np.roll(opens, -1, axis=-1)
    bounds = [np.stack([a[o], b[c]], axis=-1) for a, b, o, c in zip(lo, reach, opens, closes)]
    for b in bounds:
        b.flags.writeable = False
    return bounds


def cloud_intervals_from_samples(samples: np.ndarray) -> CloudIntervals:
    """Merge per-momentum sorted |E| tracks into |E| intervals."""
    return CloudIntervals(bounds=_cloud_bounds(np.asarray(samples)[None])[0])


def pbc_cloud_intervals(model: ModelConfig, k_x: float, n_transverse: int = 512) -> CloudIntervals:
    """|E| intervals of the fully periodic spectrum at fixed k_x.

    Solved at |k_x|: ``H(-k) = -H(k)^T`` and the transverse grid maps to
    itself, so the cloud at -k_x is the cloud at k_x, and this is bitwise
    the cloud :func:`sweep` gives both.
    """
    if not np.isfinite(k_x):
        raise ValueError(f"k_x must be finite, got {k_x}")
    check_integer("n_transverse", n_transverse, 1)
    return cloud_intervals_from_samples(_cloud_samples(model, np.abs(k_x), n_transverse))


# --------------------------------------------------------------------------
# sweeps
# --------------------------------------------------------------------------

@dataclass
class SweepResult:
    model: ModelConfig
    w: int
    kx_grid: np.ndarray
    records: np.recarray  # (n_kx, n) of STATE_DTYPE, one row per k_x of the grid
    pbc_reference: list  # per k_x, the CloudIntervals of the periodic spectrum
    thresholds: ClassifierThresholds
    log: eigen.RunLog  # the strip solves of the grid
    workers: int = 1  # threads that solved chunks, the calling thread included
    chunks: int = 1  # stacked programs the grid was cut into


def _kx_per_chunk(model: ModelConfig, w: int) -> int:
    """Solved k_x per stacked solve: :data:`CHUNK_ENTRIES` over the eigenvector entries of one k_x.

    A +-k_x pair counts once: its partner takes no solve of its own.
    """
    sets = species(model)
    entries = (6 * w) ** 2 if sets is None else len(sets) * (2 * w) ** 2
    return max(1, CHUNK_ENTRIES // entries)


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity set where the OS reports one, else ``os.cpu_count()``."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _map_chunks(task, items, workers):
    """``[task(x) for x in items]`` on ``workers`` threads, the calling thread one of them.

    The threads take items from one shared queue, in order.  Once an item
    has failed no other is started, and the failure of the earliest item
    raises, as it would have in a loop; the items before it have all run.
    One worker runs that loop itself, with no queue.
    """
    if workers == 1:
        return [task(x) for x in items]
    results = [None] * len(items)
    failures = {}
    lock = threading.Lock()
    queue = iter(range(len(items)))

    def work():
        while True:
            with lock:
                i = None if failures else next(queue, None)
            if i is None:
                return
            try:
                results[i] = task(items[i])
            except BaseException as exc:  # an interrupt of the caller stops the workers too
                with lock:
                    failures[i] = exc

    pool = [threading.Thread(target=work) for _ in range(workers - 1)]
    for thread in pool:
        thread.start()
    try:
        work()
    finally:
        for thread in pool:
            thread.join()
    if failures:
        raise failures[min(failures)]
    return results


def sweep(
    model: ModelConfig,
    w: int,
    kx_grid,
    n_transverse: int = 512,
    thresholds: ClassifierThresholds = ClassifierThresholds(),
    threads: int | None = None,
) -> SweepResult:
    """Diagonalize and classify the open strip over a k_x grid.

    The grid is cut into solve units: each +-k_x pair of
    :func:`_mirror_pairs`, solved once (except on the closed-form species
    route, which pairs nothing), and each other k_x.  Runs of units, in
    the order of their first k_x, form the chunks, each one array program:
    one stacked strip solve (:func:`_solve_strips`, at most
    :data:`CHUNK_ENTRIES` eigenvector entries per solved k_x), one periodic
    cloud over (|k_x|, q) with ``n_transverse`` momenta q and one classifier
    call; every k_x is classified against its cloud, kept in
    ``pbc_reference``.  The cloud at -k_x is the cloud at k_x, so a chunk
    solves it once per |k_x| (:func:`pbc_cloud_intervals`), and the two
    k_x of a pair share one read-only bounds array.  ``threads`` asks for
    at least that many chunks (at most one per unit), solved by that many
    threads at most, the calling thread one of them (:func:`_map_chunks`);
    results are collected in grid order either way, and a pair is never
    split.  ``threads=None`` takes one thread per unit up to
    :func:`_usable_cpus` where the strip solves run in LAPACK, which
    releases the GIL (the dense, chiral and Hermitian routes), and one on
    the closed-form species route, whose numpy glue holds it.  The result's
    ``workers`` and ``chunks`` count the threads that ran and the chunks.
    The whole loop runs under :func:`eigen.one_blas_thread`, so each worker's
    LAPACK calls are single-threaded (workers do not oversubscribe the
    CPUs), and since each matrix of a stack gets the result it would get
    alone (a pair the result it gets alone), the data depend on neither
    ``threads``, the chunking nor the BLAS thread setting.  An error raised
    at one k_x propagates as the exception object that k_x's solve raises
    alone, its message prefixed with that k_x.
    """
    _check_strip(w)
    check_integer("n_transverse", n_transverse, 1)
    if threads is not None:
        check_integer("threads", threads, 1)
    kx_grid = np.asarray(kx_grid, dtype=float)
    if kx_grid.ndim != 1 or kx_grid.size == 0:
        raise ValueError(f"kx_grid must be a nonempty 1-D array, got shape {kx_grid.shape}")

    def chunk(kxs):
        strips = _solve_strips(model, w, kxs)
        e = strips.eigenvalues
        # one cloud per |k_x|, shared by a +-k_x pair
        abs_kx, at = np.unique(np.abs(kxs), return_inverse=True)
        solved = _cloud_bounds(_cloud_samples(model, abs_kx, n_transverse))
        bounds = [solved[i] for i in at]
        records = _classify(e, strips.weights(), _cloud_distance(bounds, np.abs(e)), True, thresholds)
        return records, bounds, strips.achieved, strips.routes  # the vectors are not kept

    def task(kxs):
        try:
            return chunk(kxs)
        except Exception as exc:
            if kxs.size > 1:
                for i in range(kxs.size):  # the first k_x that fails alone raises, named
                    task(kxs[i : i + 1])
            where = f"{kxs[0]:.6g}" if kxs.size == 1 else f"{kxs[0]:.6g} ... {kxs[-1]:.6g}"
            exc.args = (f"k_x = {where}: {exc}",)
            raise

    # solve units, in the order of their first k_x: each pair, and each k_x in none
    partner = np.arange(kx_grid.size)
    mirrored = _mirrored(model)
    if mirrored:
        pairs = _mirror_pairs(kx_grid)
        partner[pairs[:, 0]], partner[pairs[:, 1]] = pairs[:, 1], pairs[:, 0]
    units = [[i] if j == i else [i, j] for i, j in enumerate(partner.tolist()) if j >= i]
    if threads is None:
        threads = min(_usable_cpus(), len(units)) if mirrored else 1
    n_chunks = min(len(units), max(threads, -(-len(units) // _kx_per_chunk(model, w))))
    runs = np.array_split(np.arange(len(units)), n_chunks)
    chunks = [np.sort(np.concatenate([units[u] for u in run])) for run in runs]
    workers = max(1, min(threads, n_chunks))
    with eigen.one_blas_thread():
        results = _map_chunks(task, [kx_grid[i] for i in chunks], workers)

    # back to grid order
    order = np.argsort(np.concatenate(chunks))
    records, achieved, routes = (np.concatenate([r[j] for r in results])[order] for j in (0, 2, 3))
    bounds = [b for r in results for b in r[1]]
    log = eigen.RunLog()
    log.add_strips(kx_grid, routes, achieved)
    return SweepResult(
        model=model,
        w=w,
        kx_grid=kx_grid,
        records=records.view(np.recarray),
        pbc_reference=[CloudIntervals(bounds[i]) for i in order],
        thresholds=thresholds,
        log=log,
        workers=workers,
        chunks=n_chunks,
    )


def edge_mode_weights(
    model: ModelConfig,
    w: int,
    k_x: float,
    states=None,
    normalization: str = "linear",
    log: eigen.RunLog | None = None,
):
    """Per-site weight profiles for selected open-strip eigenstates at one k_x.

    ``states`` is an integer n >= 1, the n states of smallest |E| (in
    eigenvalue-sorted order), or None for all states.
    ``normalization="log01"`` returns log weights affinely rescaled to [0, 1]
    per state, as used for edge-mode snapshots.  The strip is solved under
    :func:`eigen.one_blas_thread`, as in :func:`sweep`, so the weights do not
    depend on the BLAS thread setting.  ``log``, an :class:`eigen.RunLog`,
    gets this solve added.
    """
    if normalization not in ("linear", "log01"):
        raise ValueError(f"unknown normalization {normalization!r}")
    if states is not None:
        check_integer("states", states, 1, "an integer number of states or None", "state selection is empty")
    _check_strip(w)
    with eigen.one_blas_thread():
        strips = _solve_strips(model, w, k_x)
    if log is not None:
        log.add_strips([k_x], strips.routes, strips.achieved)
    e, ws = strips.eigenvalues[0], strips.weights()[0]
    idx = np.arange(e.size) if states is None else np.sort(np.argsort(np.abs(e), kind="stable")[:states])
    profiles = ws[:, idx].T.copy()  # (n_selected, 2w), columns sum to 1
    if normalization == "log01":
        logs = np.log(np.maximum(profiles, 1e-300))
        lo = logs.min(axis=1, keepdims=True)
        hi = logs.max(axis=1, keepdims=True)
        span = hi - lo
        span[span == 0.0] = 1.0
        profiles = (logs - lo) / span
    return idx, e[idx], profiles


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

#: :data:`LOCALIZATION_CLASSES` sorted, and each one's index into it: a label's
#: class code, 0 and 1 the edge classes, is one binary search away
_SORTED_CLASSES = np.sort(LOCALIZATION_CLASSES)
_CLASS_CODES = np.argsort(LOCALIZATION_CLASSES)


def nhse_summary(result: SweepResult, nhse_fraction: float = 0.05) -> NHSESummary:
    """Aggregate skin-effect diagnostics over a sweep.

    The overall verdict is based on the fraction of bulk (non-edge) states
    classed bulk-localized, aggregated over the whole grid.  Boundary flips
    are zero crossings of the bulk-averaged (bottom - top) outer mass between
    grid points where that signal is above :data:`DELTA_FLOOR`; the grid is
    treated as periodic over 2 pi.
    """
    rec = result.records.view(np.ndarray)  # fields by key: a recarray's attribute lookup costs more
    code = _CLASS_CODES[np.searchsorted(_SORTED_CLASSES, rec["label"])]
    bulk = code >= 2
    n_bulk = bulk.sum(axis=1)
    counts = np.stack([(code == c).sum(axis=1) for c in range(2, len(LOCALIZATION_CLASSES))], axis=-1)
    fracs = counts / np.maximum(n_bulk, 1)[:, None]  # all counts are 0 where n_bulk is
    # a 1-D mean per k_x: the bulk states' (bottom - top) mass summed in state order
    mass_diff = rec["mass_bottom"] - rec["mass_top"]
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
