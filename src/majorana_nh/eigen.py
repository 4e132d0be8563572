"""Dense complex non-symmetric eigendecomposition with certified residuals.

Thin contract layer over LAPACK (via numpy/scipy): deterministic eigenvalue
ordering, per-pair residuals normalized by ``max(1, ||H||_F)``, near-defective
flagging, and optional biorthogonalized left eigenvectors.  Takes one matrix or
a ``(..., n, n)`` stack (a zone grid's ``(bz_n**2, 6, 6)`` Bloch matrices, a
strip's ``(1 or 3, 2w, 2w)`` species blocks), certified matrix by matrix.
:func:`one_blas_thread` holds the bundled OpenBLAS at one thread for callers
that run solves side by side.
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

#: eigenvector overlap beyond which a pair is flagged as near-defective
DEFECTIVE_OVERLAP = 1.0 - 1e-6


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
    ``||H v_i - lambda_i v_i||_2 / max(1, ||H||_F)`` and ``achieved_tol`` is
    their maximum.  ``left_vectors``, when present, are rescaled so that
    ``l_i^dag r_j ~ delta_ij`` away from flagged near-defective clusters.

    For a ``(..., n, n)`` stack every field gains the leading axes: arrays
    of shape ``(..., n)`` and ``(..., n, n)``, and ``achieved_tol`` and
    ``matrix_norm`` of shape ``(...)``, one entry per matrix.

    The residuals certify a backward error (pair i is exact for a matrix
    within ``residuals[i] * max(1, ||H||_F)`` of ``H`` in 2-norm), not the
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

    @property
    def n(self) -> int:
        return self.eigenvalues.shape[-1]


def _validate(matrix) -> np.ndarray:
    a = np.asarray(matrix, dtype=complex)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2] or a.size == 0:
        raise ValueError(f"expected a nonempty square matrix or stack of them, got shape {a.shape}")
    if not np.all(np.isfinite(a.view(float))):
        raise ValueError("matrix entries must be finite")
    return a


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


def eig(matrix, want_left: bool = False, tol: float | np.ndarray | None = None) -> Spectrum:
    """Full eigendecomposition meeting the residual contract, matrix by matrix.

    ``matrix`` is one ``(n, n)`` matrix or a ``(..., n, n)`` stack, each of
    whose matrices gets the result it would get alone.  ``tol`` (default
    :func:`default_tol` of n) is a scalar or broadcasts to the stack shape;
    ``want_left`` takes one matrix only.  Raises ValueError on non-square,
    empty or non-finite input and :class:`ConvergenceError` (naming the first
    failing matrix, whole result attached) if the residual target is missed.
    """
    a = _validate(matrix)
    stack, n = a.shape[:-2], a.shape[-1]
    if want_left and stack:
        raise ValueError("want_left=True takes a single matrix, not a stack")
    a = a.reshape(-1, n, n)
    tol = np.broadcast_to(default_tol(n) if tol is None else tol, stack).reshape(-1)
    norm = frobenius_norms(a)

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

    flags = _defective_flags(vr)
    if vl is not None:
        vl, flags[0] = _biorthogonalize(w[0], vl[0], vr[0], flags[0], norm[0])

    achieved = res.max(axis=-1)
    spectrum = Spectrum(
        eigenvalues=w.reshape(*stack, n),
        right_vectors=vr.reshape(*stack, n, n),
        left_vectors=vl,
        residuals=res.reshape(*stack, n),
        defective_flags=flags.reshape(*stack, n),
        achieved_tol=achieved.reshape(stack) if stack else float(achieved[0]),
        matrix_norm=norm.reshape(stack) if stack else float(norm[0]),
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
