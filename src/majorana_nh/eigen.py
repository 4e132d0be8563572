"""Dense complex non-symmetric eigendecomposition with certified residuals.

Thin contract layer over LAPACK (via numpy/scipy): deterministic eigenvalue
ordering, per-pair residuals normalized by ``max(1, ||H||_F)``, near-defective
flagging, and optional biorthogonalized left eigenvectors.  Takes one matrix or
a ``(..., n, n)`` stack (a zone grid's ``(bz_n**2, 6, 6)`` Bloch matrices),
certified matrix by matrix.  :func:`eigh` keeps the same contract for
Hermitian matrices (real couplings) and :func:`eig_chiral` for chiral
matrices [[0, B], [C, 0]] (bond-only strips), solved from ``eig(B C)`` at half
the dimension.  :func:`one_blas_thread` holds the bundled OpenBLAS at
one thread for callers that run solves side by side.
"""

from __future__ import annotations

import ctypes
import os
import threading
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.optimize import linear_sum_assignment

from .errors import ConvergenceError

#: the routes :attr:`Spectrum.path` names: :func:`eigh`, :func:`eig_chiral`,
#: :func:`eig`, and :func:`eig` after a Hermitian or chiral certificate failed
SOLVER_PATHS = ("hermitian", "chiral", "dense", "dense_fallback")

#: eigenvector overlap beyond which a pair is flagged as near-defective
DEFECTIVE_OVERLAP = 1.0 - 1e-6

#: |E| at most this fraction of a matrix's largest |E| is the near-zero
#: cluster of :func:`eig_chiral`, solved by a Rayleigh-Ritz step
CHIRAL_CLUSTER = 1e-2

#: least |R_ii| in the QR of a cluster's unit eigenvectors for them to count
#: as independent (a Jordan block yields parallel ones)
_CLUSTER_RANK = 1e-8

#: largest |sum E**2 - tr H**2| / max(1, ||H||_F)**2 of an :func:`eig_chiral`
#: set; a backward-stable solve keeps it near 1e-15
_TRACE_GAP = 1e-12


def _blas_thread_controls() -> list:
    """(get, set) thread-count functions of the OpenBLAS copies numpy and scipy load.

    Only the copies already loaded are opened (``RTLD_NOLOAD``); a BLAS
    without these symbols (MKL, a system library) yields no pair.
    """
    controls = []
    for module in (np, scipy):
        root = os.path.dirname(module.__file__)
        folders = [f for f in (root + ".libs", os.path.join(root, ".dylibs")) if os.path.isdir(f)]
        for path in sorted(
            os.path.join(f, name) for f in folders for name in os.listdir(f)
            if name.startswith("libscipy_openblas")
        ):
            try:
                lib = ctypes.CDLL(path, mode=getattr(os, "RTLD_NOLOAD", 0))
            except OSError:
                continue
            for suffix in ("64_", ""):
                get = getattr(lib, f"scipy_openblas_get_num_threads{suffix}", None)
                set_ = getattr(lib, f"scipy_openblas_set_num_threads{suffix}", None)
                if get is not None and set_ is not None:
                    get.restype, get.argtypes = ctypes.c_int, []
                    set_.restype, set_.argtypes = None, [ctypes.c_int]
                    controls.append((get, set_))
                    break
    return controls


_BLAS_THREADS = _blas_thread_controls()
_pin_lock = threading.Lock()
_pin_depth = 0
_pin_saved: list = []


@contextmanager
def one_blas_thread():
    """Hold every bundled OpenBLAS at one thread inside the block.

    Workers that run solves side by side then each get one CPU instead of
    each starting BLAS threads of their own, and results stop depending on
    the BLAS thread setting.  The first entry saves each library's thread
    count and the last exit restores it, exception or not, so nested and
    concurrent entries pin once.  Without a setter (see
    :func:`pinned_blas_threads`) the block runs as it is.
    """
    global _pin_depth, _pin_saved
    with _pin_lock:
        if _pin_depth == 0:
            _pin_saved = [(set_, get()) for get, set_ in _BLAS_THREADS]
            for _, set_ in _BLAS_THREADS:
                set_(1)
        _pin_depth += 1
    try:
        yield
    finally:
        with _pin_lock:
            _pin_depth -= 1
            if _pin_depth == 0:
                for set_, count in _pin_saved:
                    set_(count)


def pinned_blas_threads() -> int | None:
    """BLAS threads inside :func:`one_blas_thread`: 1, or None when no setter was found."""
    return 1 if _BLAS_THREADS else None


def default_tol(n: int) -> float:
    return 1e-10 if n <= 16 else 1e-8


@dataclass
class Spectrum:
    """Eigendecomposition result.

    ``eigenvalues`` are sorted by (Re, Im); ``right_vectors[:, i]`` is the
    unit-norm right eigenvector of ``eigenvalues[i]``.  ``residuals[i]`` is
    ``||H v_i - lambda_i v_i||_2 / max(1, matrix_norm)``, ``||H||_F`` unless
    given as ``norm=``, and ``achieved_tol`` is their maximum.
    ``left_vectors``, when present, are rescaled so that
    ``l_i^dag r_j ~ delta_ij`` away from flagged near-defective clusters.

    For a ``(..., n, n)`` stack every field gains the leading axes: arrays
    of shape ``(..., n)`` and ``(..., n, n)``, and ``achieved_tol`` and
    ``matrix_norm`` of shape ``(...)``, one entry per matrix.  ``path``
    names the route: "dense" (:func:`eig`), "hermitian" (:func:`eigh`),
    "chiral" (:func:`eig_chiral`), or "dense_fallback" when a matrix of either
    fast route missed its certificate and was solved again by :func:`eig`.

    The residuals certify a backward error (pair i is exact for a matrix
    within ``residuals[i] * max(1, matrix_norm)`` of ``H`` in 2-norm), not the
    eigenvalue error, which to first order is that times the eigenvalue's
    condition number.  Non-normal strips reach that limit: on the fig6c
    strip (w=52) at k_x = +-3pi/4 every residual is at most 1.1e-15, yet
    E(k_x) and -E(-k_x) differ by 4.2e-2, with condition numbers of 1.5e15.
    """

    eigenvalues: np.ndarray
    right_vectors: np.ndarray
    left_vectors: np.ndarray | None
    residuals: np.ndarray
    defective_flags: np.ndarray
    achieved_tol: float | np.ndarray
    matrix_norm: float | np.ndarray
    path: str = "dense"

    @property
    def n(self) -> int:
        return self.eigenvalues.shape[-1]


def _validate(matrix) -> np.ndarray:
    a = np.asarray(matrix, dtype=complex)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2] or a.size == 0:
        raise ValueError(f"expected a nonempty square matrix or stack of them, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite")
    return a


def _stack(matrix, tol, norm=None, size_factor=1):
    """Flat ``(k, n, n)`` stack, leading shape, per-matrix tol (default: of size ``size_factor * n``) and norm or None."""
    a = _validate(matrix)
    stack, n = a.shape[:-2], a.shape[-1]
    tol = np.broadcast_to(default_tol(size_factor * n) if tol is None else tol, stack).reshape(-1)
    norm = None if norm is None else np.broadcast_to(norm, stack).reshape(-1)
    return a.reshape(-1, n, n), stack, tol, norm


def chiral_matrix(b, c) -> np.ndarray:
    """The chiral matrices [[0, B], [C, 0]] of ``(..., m, m)`` blocks B and C."""
    zero = np.zeros_like(b, dtype=complex)
    return np.block([[zero, b], [c, zero]])


def frobenius_norms(a) -> np.ndarray:
    """``||H||_F`` per matrix of a stack, each rounded as ``np.linalg.norm(h, "fro")``."""
    x = np.asarray(a).reshape(*np.shape(a)[:-2], 1, -1)
    sq = x.real @ np.swapaxes(x.real, -1, -2) + x.imag @ np.swapaxes(x.imag, -1, -2)
    return np.sqrt(sq[..., 0, 0])


def _sort_pairs(w, vr, vl=None):
    """Order each matrix's pairs by (Re, Im).

    Vector matrices come out column-major, as ``v[:, order]`` leaves a 2-D
    one, so column norms sum in the same order for a stack as for one matrix.
    """
    order = np.lexsort((w.imag, w.real), axis=-1)

    def gather(v):
        return np.take_along_axis(np.swapaxes(v, -1, -2), order[..., :, None], -2).swapaxes(-1, -2)

    return np.take_along_axis(w, order, -1), gather(vr), None if vl is None else gather(vl)


def _unit_columns(v):
    return v / np.linalg.norm(v, axis=-2, keepdims=True)


def _residuals(a, w, v, norm):
    r = a @ v - v * w[..., None, :]
    return np.linalg.norm(r, axis=-2) / np.maximum(1.0, norm)[..., None]


def _defective_flags(v):
    gram = np.abs(np.swapaxes(v.conj(), -1, -2) @ v)
    diag = np.arange(v.shape[-1])
    gram[..., diag, diag] = 0.0
    return (gram > DEFECTIVE_OVERLAP).any(axis=-2)


def _clusters(w, tol):
    """Indices of eigenvalues grouped by chained proximity (input sorted)."""
    groups = [[0]]
    for i in range(1, len(w)):
        if abs(w[i] - w[i - 1]) <= tol:
            groups[-1].append(i)
        else:
            groups.append([i])
    return groups


def _biorthogonalize(w, vl, vr, flags, norm):
    """Rescale left vectors towards l_i^dag r_j = delta_ij, cluster by cluster."""
    vl = vl.copy()
    tol = max(1e-8 * max(1.0, norm), 1e-12)
    for group in _clusters(w, tol):
        idx = np.asarray(group)
        g = vl[:, idx].conj().T @ vr[:, idx]
        try:
            cond = np.linalg.cond(g)
        except np.linalg.LinAlgError:
            cond = np.inf
        if not np.isfinite(cond) or cond > 1e12:
            flags[idx] = True
            continue
        vl[:, idx] = vl[:, idx] @ np.linalg.inv(g).conj().T
    return vl, flags


def _polish(a, w, v, bad, norm):
    """One inverse-iteration sweep for the (matrix, pair) entries flagged ``bad``."""
    eye = np.eye(a.shape[-1], dtype=complex)
    for b, i in zip(*np.nonzero(bad)):
        shift = 1e-12 * max(1.0, norm[b])
        x = v[b, :, i]
        for _ in range(2):
            try:
                y = np.linalg.solve(a[b] - (w[b, i] + shift) * eye, x)
            except np.linalg.LinAlgError:
                break
            x = y / np.linalg.norm(y)
            w[b, i] = x.conj() @ a[b] @ x
        v[b, :, i] = x
    return w, v


def _solve(a, tol, norm, want_left=False):
    """Sorted, unit, polished eigenpairs of a flat ``(k, n, n)`` stack and their residuals."""
    try:
        if want_left:
            w, vl, vr = (x[None] for x in scipy.linalg.eig(a[0], left=True, right=True))
        else:
            w, vr = np.linalg.eig(a)
            vl = None
    except (np.linalg.LinAlgError, scipy.linalg.LinAlgError) as exc:
        raise ConvergenceError(f"eigendecomposition did not converge: {exc}") from exc

    w, vr, vl = _sort_pairs(w, vr, vl)
    vr = _unit_columns(vr)
    if vl is not None:
        vl = _unit_columns(vl)

    res = _residuals(a, w, vr, norm)
    bad = res > tol[:, None]
    hit = np.flatnonzero(bad.any(axis=-1))
    if hit.size:
        wp, vp = _polish(a[hit], w[hit], vr[hit], bad[hit], norm[hit])
        # left vectors come with a lone matrix only, the one hit here
        w[hit], vr[hit], vl = _sort_pairs(wp, _unit_columns(vp), vl)
        res[hit] = _residuals(a[hit], w[hit], vr[hit], norm[hit])
    return w, vr, vl, res


def _certified(stack, tol, w, vr, vl, res, flags, norm, path) -> Spectrum:
    """The :class:`Spectrum` of a flat stack, or ConvergenceError naming its first failing matrix."""
    n = w.shape[-1]
    achieved = res.max(axis=-1)
    spectrum = Spectrum(
        eigenvalues=w.reshape(*stack, n),
        right_vectors=vr.reshape(*stack, n, n),
        left_vectors=vl,
        residuals=res.reshape(*stack, n),
        defective_flags=flags.reshape(*stack, n),
        achieved_tol=achieved.reshape(stack) if stack else float(achieved[0]),
        matrix_norm=norm.reshape(stack) if stack else float(norm[0]),
        path=path,
    )
    failed = np.flatnonzero(achieved > tol)
    if failed.size:
        f = failed[0]
        where = f" in matrix {list(map(int, np.unravel_index(f, stack)))}" if stack else ""
        raise ConvergenceError(
            f"residual target {tol[f]:g} unmet{where} (achieved {achieved[f]:g})",
            result=spectrum,
        )
    return spectrum


def _certified_or_redone(stack, tol, w, v, res, flags, norm, path, failed, dense) -> Spectrum:
    """:func:`_certified` for a fast route, after the dense :func:`eig` route redid what it left uncertified.

    Redone: the matrices ``failed`` marks or whose pairs miss ``tol``, built by ``dense(indices)``.
    """
    redo = np.flatnonzero(failed | (res > tol[:, None]).any(axis=-1))
    if redo.size:
        w[redo], v[redo], _, res[redo] = _solve(dense(redo), tol[redo], norm[redo])
        flags[redo] = _defective_flags(v[redo])
        path = "dense_fallback"
    return _certified(stack, tol, w, v, None, res, flags, norm, path)


def eig(matrix, want_left: bool = False, tol: float | np.ndarray | None = None) -> Spectrum:
    """Full eigendecomposition meeting the residual contract, matrix by matrix.

    ``matrix`` is one ``(n, n)`` matrix or a ``(..., n, n)`` stack, each of
    whose matrices gets the result it would get alone.  ``tol`` (default
    :func:`default_tol` of n) is a scalar or broadcasts to the stack shape;
    ``want_left`` takes one matrix only.  Raises ValueError on non-square,
    empty or non-finite input and :class:`ConvergenceError` (naming the first
    failing matrix, whole result attached) if the residual target is missed.
    """
    a, stack, tol, _ = _stack(matrix, tol)
    if want_left and stack:
        raise ValueError("want_left=True takes a single matrix, not a stack")
    norm = frobenius_norms(a)
    w, vr, vl, res = _solve(a, tol, norm, want_left)
    flags = _defective_flags(vr)
    if vl is not None:
        vl, flags[0] = _biorthogonalize(w[0], vl[0], vr[0], flags[0], norm[0])
    return _certified(stack, tol, w, vr, vl, res, flags, norm, "dense")


def eigh(matrix, tol: float | np.ndarray | None = None, *, norm: float | np.ndarray | None = None) -> Spectrum:
    """:func:`eig` of a Hermitian matrix or ``(..., n, n)`` stack, solved by LAPACK's ``zheevd``.

    The caller declares the matrices Hermitian; ``zheevd`` reads only their
    lower triangles, so the residual of every pair is taken on the full
    matrix as given, over ``max(1, norm)``, and certifies the declaration.
    ``norm`` (default: each matrix's ``||H||_F``; a scalar or broadcasting to
    the stack shape) is what the residuals, the polish and the fallback are
    certified against, e.g. the norm of the strip a species block is cut
    from.  Eigenvalues come out real (stored as complex with imaginary part
    0) in ascending order, vectors orthonormal, and no pair is flagged
    defective.  A matrix whose pairs miss ``tol`` (default
    :func:`default_tol` of n) is solved again by the dense :func:`eig` route
    (polish included), and ``path`` reads "dense_fallback" instead of
    "hermitian".  Each matrix of a stack gets the result it would get alone;
    :class:`ConvergenceError` names the first failing matrix, with the whole
    result attached.
    """
    a, stack, tol, norm = _stack(matrix, tol, norm)
    norm = frobenius_norms(a) if norm is None else norm
    try:
        w, v = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"eigendecomposition did not converge: {exc}") from exc
    # zheevd returns the eigenvalues ascending, hence in (Re, Im) order, and
    # orthonormal vectors
    w = w.astype(complex)
    res = _residuals(a, w, v, norm)
    flags = np.zeros(w.shape, dtype=bool)
    return _certified_or_redone(stack, tol, w, v, res, flags, norm, "hermitian", False, lambda redo: a[redo])


def _chiral_residuals(b, c, w, v, norm):
    """``||H v - E v|| / max(1, norm)`` for H = [[0, B], [C, 0]], through the blocks."""
    m = b.shape[-1]
    x, y = v[:, :m], v[:, m:]
    top = np.linalg.norm(b @ y - x * w[:, None, :], axis=-2)
    bottom = np.linalg.norm(c @ x - y * w[:, None, :], axis=-2)
    return np.hypot(top, bottom) / np.maximum(1.0, norm)[:, None]


def _near_zero(mu):
    """The cluster of a product's eigenvalues mu = E**2: |E| <= CHIRAL_CLUSTER * max |E|."""
    abs_e = np.sqrt(np.abs(mu))
    return abs_e <= CHIRAL_CLUSTER * abs_e.max(axis=-1, keepdims=True)


def _chiral_pairs(b, c):
    """Eigenpairs of H = [[0, B], [C, 0]] from eig(B C), the near-zero cluster by Rayleigh-Ritz.

    Returns unsorted eigenvalues ``(k, 2m)``, vectors ``(k, 2m, 2m)`` and a
    ``(k,)`` mask of the matrices whose cluster could be resolved.
    """
    k, m = b.shape[0], b.shape[-1]
    try:
        mu, x = np.linalg.eig(b @ c)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"eigendecomposition did not converge: {exc}") from exc
    e = np.sqrt(mu)
    near = _near_zero(mu)
    # H [x; y] = E [x; y] with y = C x / E; B C x = E**2 x
    y = (c @ x) / np.where(near, 1.0, e)[:, None, :]
    w = np.concatenate([e, -e], axis=-1)
    v = np.concatenate([np.concatenate([x, x], axis=-1), np.concatenate([y, -y], axis=-1)], axis=-2)
    resolved = np.ones(k, dtype=bool)

    has = np.flatnonzero(near.any(axis=-1))
    if not has.size:
        return w, v, resolved
    try:
        mu_cb, x_cb = np.linalg.eig(c[has] @ b[has])
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"eigendecomposition did not converge: {exc}") from exc
    for i, near_cb, y_all in zip(has, _near_zero(mu_cb), x_cb):
        cols = np.flatnonzero(near[i])
        if cols.size != near_cb.sum():
            resolved[i] = False
            continue
        # orthonormal bases of the cluster's invariant subspaces of B C and C B;
        # without independent eigenvectors (a Jordan block) they are not spanned
        qx, rx = np.linalg.qr(x[i][:, cols])
        qy, ry = np.linalg.qr(y_all[:, near_cb])
        if min(np.abs(np.diagonal(rx)).min(), np.abs(np.diagonal(ry)).min()) < _CLUSTER_RANK:
            resolved[i] = False
            continue
        # span{[Qx; 0], [0; Qy]} is H-invariant: solve H restricted to it
        zero = np.zeros((cols.size, cols.size), dtype=complex)
        ritz = np.block([[zero, qx.conj().T @ b[i] @ qy], [qy.conj().T @ c[i] @ qx, zero]])
        try:
            ws, zs = np.linalg.eig(ritz)
        except np.linalg.LinAlgError:
            resolved[i] = False
            continue
        slots = np.concatenate([cols, m + cols])
        w[i, slots] = ws
        v[i][:, slots] = np.concatenate([qx @ zs[: cols.size], qy @ zs[cols.size :]])
    return w, v, resolved


def eig_chiral(b, c, tol: float | np.ndarray | None = None, *, norm: float | np.ndarray | None = None) -> Spectrum:
    """:func:`eig` of the chiral matrix H = [[0, B], [C, 0]], solved at half the dimension.

    ``b`` and ``c`` are ``(m, m)`` matrices or ``(..., m, m)`` stacks; the
    result is that of :func:`eig` on the ``2m x 2m`` matrices H (basis: the
    m rows of B, then the m rows of C), with ``tol`` defaulting to
    :func:`default_tol` of 2m.  Since H**2 = diag(B C, C B), pairs with
    |E| above ``CHIRAL_CLUSTER`` times the matrix's largest |E| are
    E = +-sqrt(eig(B C)) with vectors [x; C x / E].  The near-zero cluster,
    where C x / E is ill defined, comes from a Rayleigh-Ritz step on the
    cluster eigenvectors of B C and C B (``eig(C B)`` runs only for matrices
    with a cluster).  Every pair is certified by its residual on H, taken
    through the blocks over ``max(1, norm)`` (``norm`` as in :func:`eigh`),
    and the set by the trace identity sum E**2 = tr H**2, to
    ``_TRACE_GAP * max(1, ||H||_F)**2`` on H's own norm.  A matrix whose
    cluster counts differ, whose cluster eigenvectors are dependent, whose
    pairs miss ``tol`` or whose set misses the identity is solved again by
    the dense :func:`eig` route of that H (polish included).  ``path`` is
    "chiral", or "dense_fallback" when some matrix took that route.
    """
    if np.shape(b) != np.shape(c):
        raise ValueError(f"B and C must have equal shapes, got {np.shape(b)} and {np.shape(c)}")
    b, stack, tol, norm = _stack(b, tol, norm, size_factor=2)
    c = _stack(c, None)[0]
    own = np.hypot(frobenius_norms(b), frobenius_norms(c))
    norm = own if norm is None else norm

    w, v, resolved = _chiral_pairs(b, c)
    w, v, _ = _sort_pairs(w, v)
    v = _unit_columns(v)
    res = _chiral_residuals(b, c, w, v, norm)
    # the pairs must also form one spectrum: sum E**2 = tr H**2 = 2 tr(B C),
    # which Ritz values of an ill-conditioned cluster can break; taken over a
    # larger given norm, it let two K strips (w=20) keep eigenvalues 2e-4 off
    trace_gap = np.abs((w * w).sum(axis=-1) - 2.0 * np.einsum("kij,kji->k", b, c))
    failed = ~resolved | (trace_gap > _TRACE_GAP * np.maximum(1.0, own) ** 2)
    return _certified_or_redone(stack, tol, w, v, res, _defective_flags(v), norm, "chiral", failed,
                                lambda redo: chiral_matrix(b[redo], c[redo]))


def min_singular_value(matrix) -> float:
    """Smallest singular value of a square matrix."""
    a = _validate(matrix)
    if a.ndim != 2:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    return float(np.linalg.svd(a, compute_uv=False)[-1])


def match_eigenvalue_sets(a, b) -> float:
    """Max pairwise distance between two eigenvalue multisets under optimal pairing."""
    a = np.asarray(a, dtype=complex).ravel()
    b = np.asarray(b, dtype=complex).ravel()
    if a.shape != b.shape:
        raise ValueError("eigenvalue sets must have equal size")
    cost = np.abs(a[:, None] - b[None, :])
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].max()) if len(rows) else 0.0
