"""Dense complex non-symmetric eigendecomposition with certified residuals.

Thin contract layer over LAPACK (via numpy/scipy): deterministic eigenvalue
ordering, per-pair residuals normalized by ``max(1, ||H||_F)``, near-defective
flagging, and optional biorthogonalized left eigenvectors.  Sized for 6x6
Bloch matrices up to a few hundred rows of ribbon matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.optimize import linear_sum_assignment

from .errors import ConvergenceError

#: eigenvector overlap beyond which a pair is flagged as near-defective
DEFECTIVE_OVERLAP = 1.0 - 1e-6


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
    achieved_tol: float
    matrix_norm: float

    @property
    def n(self) -> int:
        return len(self.eigenvalues)


def _validate(matrix) -> np.ndarray:
    a = np.asarray(matrix, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if a.shape[0] < 1:
        raise ValueError("matrix dimension must be >= 1")
    if not np.all(np.isfinite(a.view(float))):
        raise ValueError("matrix entries must be finite")
    return a


def _residuals(a, w, v, norm):
    r = a @ v - v * w[None, :]
    return np.linalg.norm(r, axis=0) / max(1.0, norm)


def _defective_flags(v):
    gram = np.abs(v.conj().T @ v)
    np.fill_diagonal(gram, 0.0)
    return (gram > DEFECTIVE_OVERLAP).any(axis=0)


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


def _polish(a, w, v, bad):
    """One inverse-iteration sweep for eigenpairs that missed the residual target."""
    n = a.shape[0]
    eye = np.eye(n, dtype=complex)
    shift = 1e-12 * max(1.0, np.linalg.norm(a, "fro"))
    for i in np.flatnonzero(bad):
        x = v[:, i]
        for _ in range(2):
            try:
                y = np.linalg.solve(a - (w[i] + shift) * eye, x)
            except np.linalg.LinAlgError:
                break
            x = y / np.linalg.norm(y)
            w_i = x.conj() @ a @ x
            w[i] = w_i
        v[:, i] = x
    return w, v


def eig(matrix, want_left: bool = False, tol: float | None = None) -> Spectrum:
    """Full eigendecomposition meeting the residual contract.

    Raises ValueError on non-square or non-finite input and
    :class:`ConvergenceError` (with the best-effort result attached) if the
    residual target cannot be met.
    """
    a = _validate(matrix)
    n = a.shape[0]
    if tol is None:
        tol = default_tol(n)
    norm = float(np.linalg.norm(a, "fro"))

    try:
        if want_left:
            w, vl, vr = scipy.linalg.eig(a, left=True, right=True)
        else:
            w, vr = np.linalg.eig(a)
            vl = None
    except (np.linalg.LinAlgError, scipy.linalg.LinAlgError) as exc:
        raise ConvergenceError(f"eigendecomposition did not converge: {exc}") from exc

    order = np.lexsort((w.imag, w.real))
    w = w[order]
    vr = vr[:, order]
    vr = vr / np.linalg.norm(vr, axis=0)
    if vl is not None:
        vl = vl[:, order]
        vl = vl / np.linalg.norm(vl, axis=0)

    res = _residuals(a, w, vr, norm)
    if res.max() > tol:
        w, vr = _polish(a, w, vr, res > tol)
        vr = vr / np.linalg.norm(vr, axis=0)
        order = np.lexsort((w.imag, w.real))
        w, vr = w[order], vr[:, order]
        if vl is not None:
            vl = vl[:, order]
        res = _residuals(a, w, vr, norm)

    flags = _defective_flags(vr)
    if vl is not None:
        vl, flags = _biorthogonalize(w, vl, vr, flags, norm)

    spectrum = Spectrum(
        eigenvalues=w,
        right_vectors=vr,
        left_vectors=vl,
        residuals=res,
        defective_flags=flags,
        achieved_tol=float(res.max()),
        matrix_norm=norm,
    )
    if res.max() > tol:
        raise ConvergenceError(
            f"residual target {tol:g} unmet (achieved {res.max():g})", result=spectrum
        )
    return spectrum


def min_singular_value(matrix) -> float:
    """Smallest singular value of a square matrix."""
    a = _validate(matrix)
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
