"""Dense complex non-symmetric eigendecomposition with certified residuals.

Thin contract layer over LAPACK (via numpy): deterministic eigenvalue
ordering, per-pair residuals normalized by ``max(1, ||H||_F)`` and
near-defective flags, formed when read.  Takes one matrix or a
``(..., n, n)`` stack (a zone grid's ``(bz_n**2, 6, 6)`` Bloch matrices),
certified matrix by matrix.  :func:`eigh` keeps the same contract for
Hermitian matrices (real couplings), :func:`eig_chiral` for chiral
matrices [[0, B], [C, 0]] (flavour-mixing bond-only strips), solved from
``eig(B C)`` and its left vectors at half the dimension, and
:func:`eig_species` for the species strips of flavour-conserving models,
solved in closed form from four bond scalars: an open strip's B C is
tridiagonal Toeplitz with one defect, its roots found by Newton's method.  Strips are solved open only: a periodic strip's
spectrum is the Bloch spectrum at its transverse momenta.
:func:`chiral_blocks` lays out B and C of every strip from its bond terms,
the species blocks included.  Every fast route certifies its pairs by their
residuals and falls back to :func:`eig` where they miss; a matrix whose
norm overflows is certified by nothing and raises.  :func:`eig`,
:func:`eigh` and :func:`eig_chiral` take ``pairs=`` of +-k matrices,
H(-k) = -H(k)^T, and solve each pair once: the partner's eigenpairs come
from its representative's left vectors (the rows of V^-1 of one stacked
solve up to 6x6, ``zgeev``'s own above) and are certified on its own
matrix.  :func:`eig_stack` is that one pair solve, uncertified, shared by
the certified routes and the EP scan's zone grid.  The tails
after a solve (sorting, unit columns, residuals) run slab by slab in the
solve's own arrays, so a stack of large strips holds no (k, n, n)
temporaries beside its matrices and vectors.
:func:`one_blas_thread` holds the bundled OpenBLAS at one thread for
callers that run solves side by side.
"""

from __future__ import annotations

import ctypes
import os
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConvergenceError

#: the routes :attr:`Spectrum.routes` names: :func:`eigh`, :func:`eig_chiral`,
#: :func:`eig_species`, :func:`eig`, the partner of a +-k pair certified with
#: its representative's solve, and :func:`eig` after a certificate of one of
#: the others failed
SOLVER_PATHS = ("hermitian", "chiral", "species", "dense", "mirrored", "dense_fallback")

#: eigenvector overlap beyond which a pair is flagged as near-defective
DEFECTIVE_OVERLAP = 1.0 - 1e-6

#: |E| at most this fraction of a matrix's largest |E| is the near-zero
#: cluster of :func:`eig_chiral` (solved by a Rayleigh-Ritz step) and of
#: :func:`eig_species` (paired with the C B vectors)
CHIRAL_CLUSTER = 1e-2

#: least |R_ii| in the QR of unit vectors for them to count as independent
#: (a Jordan block's eigenvectors are parallel)
_CLUSTER_RANK = 1e-8

#: largest |sum E**2 - tr H**2| / max(1, ||H||_F)**2 of an :func:`eig_chiral`
#: or :func:`eig_species` set; a backward-stable solve keeps it near 1e-15
_TRACE_GAP = 1e-12


def _bundled_openblas():
    """The OpenBLAS copies bundled with numpy that are loaded, opened by ctypes.

    Only the copies already loaded are opened (``RTLD_NOLOAD``); a numpy
    built on another BLAS (MKL, a system library) yields none.
    """
    root = os.path.dirname(np.__file__)
    folders = [f for f in (root + ".libs", os.path.join(root, ".dylibs")) if os.path.isdir(f)]
    for path in sorted(
        os.path.join(f, name) for f in folders for name in os.listdir(f)
        if name.startswith("libscipy_openblas")
    ):
        try:
            yield ctypes.CDLL(path, mode=getattr(os, "RTLD_NOLOAD", 0))
        except OSError:
            continue


def _blas_thread_controls() -> list:
    """(get, set) thread-count functions of the OpenBLAS copies bundled with numpy."""
    controls = []
    for lib in _bundled_openblas():
        for suffix in ("64_", ""):
            get = getattr(lib, f"scipy_openblas_get_num_threads{suffix}", None)
            set_ = getattr(lib, f"scipy_openblas_set_num_threads{suffix}", None)
            if get is not None and set_ is not None:
                get.restype, get.argtypes = ctypes.c_int, []
                set_.restype, set_.argtypes = None, [ctypes.c_int]
                controls.append((get, set_))
                break
    return controls


def _lapacke_zgeev():
    """LAPACKE ``zgeev`` of numpy's bundled OpenBLAS, or None.

    It is the LAPACK that ``np.linalg.eig`` calls, so a matrix gets the
    same eigenvalues and right vectors from both, and a ctypes call
    releases the GIL, so workers solve side by side.
    """
    for lib in _bundled_openblas():
        for suffix, integer in (("64_", ctypes.c_int64), ("", ctypes.c_int32)):
            zgeev = getattr(lib, f"scipy_LAPACKE_zgeev{suffix}", None)
            if zgeev is not None:
                zgeev.restype = integer
                zgeev.argtypes = [ctypes.c_int, ctypes.c_char, ctypes.c_char, integer, ctypes.c_void_p, integer,
                                  ctypes.c_void_p, ctypes.c_void_p, integer, ctypes.c_void_p, integer]
                return zgeev
    return None


_BLAS_THREADS = _blas_thread_controls()
_ZGEEV = _lapacke_zgeev()
_pin_lock = threading.Lock()
_pin_depth = 0
_pin_saved: list = []


@contextmanager
def one_blas_thread():
    """Hold every bundled OpenBLAS the package has loaded at one thread inside the block.

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


@dataclass(kw_only=True)
class Spectrum:
    """Eigendecomposition result.

    ``eigenvalues`` are sorted by (Re, Im); ``right_vectors[:, i]`` is the
    unit-norm right eigenvector of ``eigenvalues[i]``.  ``residuals[i]`` is
    ``||H v_i - lambda_i v_i||_2 / max(1, matrix_norm)``, ``||H||_F`` unless
    given as ``norm=``, and ``achieved_tol`` is their maximum.

    For a ``(..., n, n)`` stack every field gains the leading axes: arrays
    of shape ``(..., n)`` and ``(..., n, n)``, and ``achieved_tol`` and
    ``matrix_norm`` of shape ``(...)``, one entry per matrix.  ``routes``
    names each matrix's route (a string for a lone matrix, an array of the
    stack shape for a stack): "dense" (:func:`eig`), "hermitian"
    (:func:`eigh`), "chiral" (:func:`eig_chiral`), "species"
    (:func:`eig_species`), "mirrored" for the partner of a +-k pair
    (``pairs=``) certified with the eigenpairs of its representative's
    solve, or "dense_fallback" where a matrix of a fast route missed its
    certificate and was solved again by :func:`eig`.  ``path`` is
    "dense_fallback" if any matrix took it, else the first matrix's route.

    The residuals certify a backward error (pair i is exact for a matrix
    within ``residuals[i] * max(1, matrix_norm)`` of ``H`` in 2-norm), not the
    eigenvalue error, which to first order is that times the eigenvalue's
    condition number.  Non-normal strips reach that limit: on the fig6c
    strip (w=52) at k_x = +-3pi/4, solved separately, every residual is at
    most 1.1e-15, yet E(k_x) and -E(-k_x) differ by 4.2e-2, with condition
    numbers of 1.5e15.  Solved as a pair (``pairs=``), the partner takes
    -E(k_x) exactly, certified on its own matrix.
    """

    eigenvalues: np.ndarray
    right_vectors: np.ndarray
    residuals: np.ndarray
    achieved_tol: float | np.ndarray
    matrix_norm: float | np.ndarray
    routes: str | np.ndarray = "dense"

    @cached_property
    def defective_flags(self) -> np.ndarray:
        """The pairs whose unit vector overlaps another's beyond :data:`DEFECTIVE_OVERLAP`, shaped as ``eigenvalues``.

        Formed from ``right_vectors`` on first access (a Gram matrix per
        matrix), since no sweep output reads them.
        """
        v = self.right_vectors
        n = v.shape[-1]
        return _defective_flags(v.reshape(-1, n, n)).reshape(v.shape[:-1])

    @property
    def path(self) -> str:
        routes = np.asarray(self.routes)
        return "dense_fallback" if (routes == "dense_fallback").any() else str(routes.flat[0])

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


#: most entries one step of a slab-wise tail (and :func:`_defective_flags`)
#: forms at once: about one w=52 strip's, however many strips (a +-k_x
#: pair, say) a stack holds
_SLAB_ENTRIES = 2**17

#: most entries of the row or column blocks inside one slab
_BLOCK_ENTRIES = 2**14


def _slabs(k, n):
    """Slices cutting a flat stack of ``k`` matrices ``(n, n)`` into slabs of about :data:`_SLAB_ENTRIES` entries."""
    step = max(1, _SLAB_ENTRIES // (n * n))
    return [slice(start, start + step) for start in range(0, k, step)]


def _blocks(x):
    """Index tuples cutting a ``(k, n, m)`` stack along the outer (larger-stride) axis of its matrices.

    An elementwise ufunc runs the same inner loops on each block as on the
    whole stack, so the blocks get bitwise its values: a SIMD loop and its
    scalar tail may round a complex product differently, so cutting along
    the inner axis could move an entry from one to the other.
    """
    rows = abs(x.strides[-1]) <= abs(x.strides[-2])
    count = x.shape[-2 if rows else -1]
    step = max(1, _BLOCK_ENTRIES * count // max(1, x.size))
    cuts = [slice(start, start + step) for start in range(0, count, step)]
    return [(..., cut, slice(None)) if rows else (..., cut) for cut in cuts]


def _column_norms(x, own=False):
    """``np.linalg.norm(x, axis=-2)`` of a ``(k, n, m)`` stack, bitwise, with block-sized temporaries.

    The squares are formed block by block (:func:`_blocks`), in ``x`` itself
    when ``own`` (its values are lost), and summed in one reduction, as the
    norm sums them.
    """
    sq = x if own else np.empty_like(x, dtype=float)
    for b in _blocks(x):
        p = np.multiply(x[b].conj(), x[b], out=x[b] if own else None)
        if not own:
            sq[b] = p.real
    return np.sqrt(np.add.reduce(sq.real, axis=-2))


def _sort_pairs(w, v):
    """Order each matrix's pairs of a flat stack by (Re, Im), slab by slab in the memory of ``w`` and ``v``.

    The vectors come back as a transposed view of ``v``'s buffer (copied
    first if ``v`` is not C-contiguous): column-major matrix by matrix, as
    ``v[:, order]`` leaves a 2-D one, so column norms sum in the same order
    for a stack as for one matrix.
    """
    v = np.ascontiguousarray(v)
    for s in _slabs(*v.shape[:2]):
        order = np.lexsort((w[s].imag, w[s].real), axis=-1)
        w[s] = np.take_along_axis(w[s], order, -1)
        v[s] = np.swapaxes(v[s], -1, -2)[np.arange(len(order))[:, None], order]
    return w, np.swapaxes(v, -1, -2)


def _unit_columns(v):
    """Scale each vector of a flat stack to unit norm, in place, slab by slab."""
    for s in _slabs(*v.shape[:2]):
        v[s] /= _column_norms(v[s])[:, None, :]
    return v


def _misfit_norms(r, v, w):
    """``np.linalg.norm(r - v * w[:, None, :], axis=-2)`` of a product ``r``, bitwise, computed in ``r``'s memory."""
    ws = np.broadcast_to(w[:, None, :], v.shape)
    for b in _blocks(v):
        r[b] -= v[b] * ws[b]
    return _column_norms(r, own=True)


def _residuals(a, w, v, norm):
    """``||a v_i - w_i v_i||_2 / max(1, norm)`` per pair of a flat stack, slab by slab: ``(k, n)``."""
    res = np.empty(w.shape)
    for s in _slabs(*v.shape[:2]):
        res[s] = _misfit_norms(a[s] @ v[s], v[s], w[s]) / np.maximum(1.0, norm[s])[:, None]
    return res


def _defective_flags(v):
    """The pairs of a flat stack's unit vectors ``(k, n, n)`` that overlap another beyond :data:`DEFECTIVE_OVERLAP`."""
    k, n = v.shape[0], v.shape[-1]
    flags = np.empty((k, n), dtype=bool)
    diag = np.arange(n)
    for s in _slabs(k, n):
        gram = np.abs(_adjoint(v[s]) @ v[s])
        gram[:, diag, diag] = 0.0
        flags[s] = (gram > DEFECTIVE_OVERLAP).any(axis=-2)
    return flags


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


_NO_PAIRS = np.zeros((0, 2), dtype=np.intp)


def _pairs(pairs, k) -> np.ndarray:
    """``pairs`` as a ``(p, 2)`` array of (representative, partner) indices into a flat stack of ``k``."""
    if pairs is None:
        return _NO_PAIRS
    p = np.asarray(pairs, dtype=np.intp).reshape(-1, 2)
    if p.size and (p.min() < 0 or p.max() >= k or np.unique(p).size != p.size):
        raise ValueError(f"pairs must be distinct indices of the {k} matrices, got {p.tolist()}")
    return p


def _eig_left_right(a, left, right):
    """Eigenvalues of one matrix by LAPACK ``zgeev``, its vectors written into ``left`` and ``right``.

    Numpy's bundled LAPACKE is given the column-major copy ``np.linalg.eig``
    gives LAPACK, so the eigenvalues and right vectors are that call's.
    ``left`` and ``right`` are C-contiguous ``(n, n)`` slots; ``right`` gets
    the right vectors and ``left`` the conjugated unit left vectors,
    conj(u) with u^H a = w u^H.
    """
    n = a.shape[-1]
    if not all(x.shape == (n, n) and x.dtype == complex and x.flags.c_contiguous for x in (left, right)):
        raise ValueError("zgeev writes into C-contiguous complex (n, n) slots")
    f = np.array(a, dtype=complex, order="F")
    w = np.empty(n, dtype=complex)
    info = _ZGEEV(102, b"V", b"V", n, f.ctypes.data, n, w.ctypes.data, left.ctypes.data, n, right.ctypes.data, n)
    del f
    if info:  # > 0: the QR algorithm failed; < 0: an argument or workspace error
        raise np.linalg.LinAlgError(f"LAPACKE zgeev returned info = {info}")
    # zgeev wrote column-major matrices into the row-major slots
    right[...] = right.T
    np.conjugate(left.T, out=left)
    return w


#: largest n of the stacked pair route of :func:`eig_stack`: the 6x6 Bloch
#: matrices and their 2x2 species blocks.  At that size a ctypes ``zgeev``
#: call costs as much as its solve (a 48x48 Bloch grid: 0.052 s by
#: ``np.linalg.eig``, 0.055 s pair by pair), and one stacked ``eig`` plus
#: ``np.linalg.inv`` of the representatives' vectors takes 0.031 s.  Larger
#: matrices keep ``zgeev``'s own left vectors: V^-1 loses the accuracy of
#: ill-conditioned strips (fig6c's condition numbers reach 1e15).
STACKED_PAIR_N = 6

#: a representative's V^-1 gives its partner's vectors only if V V^-1 is
#: within this of I, entry by entry, and no entry of V^-1 exceeds its
#: inverse.  V has unit columns, so the rows of V^-1 have the eigenvalues'
#: condition numbers as norms: near a defective matrix they grow without
#: bound (5e291 on a 2x2 Jordan block), and a partner's residuals would
#: miss their target anyway.
_INVERSE_TOL = 1e-8


def _inverses(v):
    """The rows of V^-1 of a ``(k, n, n)`` stack as columns, scaled to a largest entry of 1, and a mask of those to use.

    The mask keeps the matrices whose V^-1 passes the test of
    ``_INVERSE_TOL``; an exactly singular V, on which ``np.linalg.inv``
    raises (a 3x3 Jordan block's), fails it, as does a non-finite V^-1.
    """
    try:
        inv = np.linalg.inv(v)
    except np.linalg.LinAlgError:
        inv = np.full_like(v, np.nan)
        for j, one in enumerate(v):
            try:
                inv[j] = np.linalg.inv(one)
            except np.linalg.LinAlgError:
                continue
    with np.errstate(all="ignore"):
        size = np.abs(inv).max(axis=-1, keepdims=True)
        error = np.abs(v @ inv - np.eye(v.shape[-1])).max(axis=(-2, -1))
        left = np.swapaxes(inv / size, -1, -2)
    return left, (error <= _INVERSE_TOL) & (size.max(axis=(-2, -1)) <= 1.0 / _INVERSE_TOL)


def eig_stack(a, pairs=None, sign=-1.0, left=None):
    """Uncertified eigenpairs ``(w, v)`` of a flat ``(k, n, n)`` stack, each pair of ``pairs`` solved once.

    The one +-k pair solve: the certified routes run their tails on it, and
    callers that certify what they use on their own (the zone grid of the
    EP scan) take it as it is.  ``pairs``, ``(p, 2)`` distinct indices into
    the stack or None, is validated here.  A pair (r, p) declares
    ``a[p] = sign * a[r]^T``: a +-k pair of :func:`eig` at the default sign.
    Since a left vector u of ``a[r]`` satisfies u^H a[r] = w u^H,
    ``a[p]`` conj(u) = sign w conj(u) gives ``a[p]`` its pairs with no
    solve of its own.  Matrices of at most ``STACKED_PAIR_N`` rows take one
    ``np.linalg.eig`` for the representatives and the matrices in no pair,
    and the left vectors are the rows of each representative's V^-1; a
    partner whose representative's V^-1 misses the identity test of
    :func:`_inverses` is solved alone.  Larger ones take
    :func:`_eig_left_right` per pair, ``np.linalg.eig`` for the rest, and
    with no LAPACKE ``zgeev`` in numpy every matrix is solved alone and
    ``left`` is not written.  Else ``left``, a dict, maps each matrix's
    index to its left vectors u as conj(u), a pair's views of the other's
    right vectors, and all sizes take :func:`_eig_left_right`.  Also returns
    the pairs whose partner took its representative's solve.  The
    eigenvalues are unsorted and a partner's right vectors are not unit.
    """
    a = np.asarray(a, dtype=complex)
    pairs = _pairs(pairs, len(a))
    if _ZGEEV is None:  # no left vectors, and strip-sized pairs solved alone
        left, pairs = None, (pairs if a.shape[-1] <= STACKED_PAIR_N else _NO_PAIRS)
    try:
        if not pairs.size and left is None:
            return (*np.linalg.eig(a), pairs)
        w, v = np.empty(a.shape[:-1], dtype=complex), np.empty(a.shape, dtype=complex)
        if a.shape[-1] <= STACKED_PAIR_N and left is None:
            solved = np.setdiff1d(np.arange(len(a)), pairs[:, 1])
            w[solved], v[solved] = np.linalg.eig(a[solved])
            r, p = pairs.T
            rows, ok = _inverses(v[r])
            w[p[ok]] = sign * w[r[ok]]
            v[p[ok]] = rows[ok]
            if not ok.all():
                w[p[~ok]], v[p[~ok]] = np.linalg.eig(a[p[~ok]])
            return w, v, pairs[ok]
        alone = np.setdiff1d(np.arange(len(a)), pairs)
        if left is not None:
            for i in alone:
                w[i] = _eig_left_right(a[i], left.setdefault(i, np.empty_like(a[i])), v[i])
        elif alone.size:
            w[alone], v[alone] = np.linalg.eig(a[alone])
        for r, p in pairs:
            w[r] = _eig_left_right(a[r], v[p], v[r])
            w[p] = sign * w[r]
            if left is not None:
                left[r], left[p] = v[p], v[r]
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"eigendecomposition did not converge: {exc}") from exc
    return w, v, pairs


def _solve(a, tol, norm, pairs=None):
    """Sorted, unit, polished eigenpairs of a flat ``(k, n, n)`` stack, their residuals and the pairs mirrored.

    ``pairs`` as in :func:`eig`: each partner's pairs come from its
    representative's solve, then run the same tail on its own matrix.  The
    pairs returned are those whose partner took its representative's solve
    (:func:`eig_stack`).
    """
    w, v, pairs = eig_stack(a, pairs)
    w, v = _sort_pairs(w, v)
    res = _residuals(a, w, _unit_columns(v), norm)
    # a nan residual misses tol; a matrix whose norm overflowed cannot be polished
    bad = ~(res <= tol[:, None]) & np.isfinite(norm)[:, None]
    hit = np.flatnonzero(bad.any(axis=-1))
    if hit.size:
        wp, vp = _polish(a[hit], w[hit], v[hit], bad[hit], norm[hit])
        w[hit], v[hit] = _sort_pairs(wp, _unit_columns(vp))
        res[hit] = _residuals(a[hit], w[hit], v[hit], norm[hit])
    return w, v, res, pairs


def _routes(k, path, pairs):
    """Each of ``k`` matrices' route: "mirrored" for the partners of ``pairs``, ``path`` for the rest."""
    routes = np.full(k, path, dtype=f"U{max(map(len, SOLVER_PATHS))}")
    routes[pairs[:, 1]] = "mirrored"
    return routes


def _certified(stack, tol, w, v, res, norm, routes) -> Spectrum:
    """The :class:`Spectrum` of a flat stack, or ConvergenceError naming its first failing matrix.

    ``routes`` is the flat array of each matrix's route.
    """
    n = w.shape[-1]
    achieved = res.max(axis=-1)
    spectrum = Spectrum(
        eigenvalues=w.reshape(*stack, n),
        right_vectors=v.reshape(*stack, n, n),
        residuals=res.reshape(*stack, n),
        achieved_tol=achieved.reshape(stack) if stack else float(achieved[0]),
        matrix_norm=norm.reshape(stack) if stack else float(norm[0]),
        routes=routes.reshape(stack) if stack else str(routes[0]),
    )
    # residuals over an overflowed norm read 0 or nan and certify nothing
    failed = np.flatnonzero(~(achieved <= tol) | ~np.isfinite(norm))
    if failed.size:
        f = failed[0]
        where = f" in matrix {list(map(int, np.unravel_index(f, stack)))}" if stack else ""
        unmet = (f"residual target {tol[f]:g} unmet{where} (achieved {achieved[f]:g})" if np.isfinite(norm[f])
                 else f"matrix norm overflowed{where}: its residuals certify nothing")
        raise ConvergenceError(unmet, result=spectrum)
    return spectrum


def _certified_or_redone(stack, tol, w, v, res, norm, routes, failed, dense) -> Spectrum:
    """:func:`_certified`, after the dense :func:`eig` route redid what a faster route left uncertified.

    Redone, unless the dense route already solved them (route "dense"): the
    matrices ``failed`` marks, whose pairs miss ``tol`` or whose norm
    overflowed, built by ``dense(indices)``.  ``routes`` is the flat array
    of each matrix's route, updated in place.
    """
    uncertified = failed | ~(res <= tol[:, None]).all(axis=-1) | ~np.isfinite(norm)
    redo = np.flatnonzero(uncertified & (routes != "dense"))
    if redo.size:
        w[redo], v[redo], res[redo], _ = _solve(dense(redo), tol[redo], norm[redo])
        routes[redo] = "dense_fallback"
    return _certified(stack, tol, w, v, res, norm, routes)


def eig(matrix, tol: float | np.ndarray | None = None, *, pairs=None) -> Spectrum:
    """Full eigendecomposition meeting the residual contract, matrix by matrix.

    ``matrix`` is one ``(n, n)`` matrix or a ``(..., n, n)`` stack, each of
    whose matrices gets the result it would get alone.  ``tol`` (default
    :func:`default_tol` of n) is a scalar or broadcasts to the stack shape.

    ``pairs``, ``(p, 2)`` indices into the flattened stack, declares each
    (representative, partner) a +-k pair of a Majorana Hamiltonian,
    H(-k) = -H(k)^T: the representative's solve gives it its right and left
    vectors, and the partner takes (-E, conj(left vector)).  Up to
    ``STACKED_PAIR_N`` rows (Bloch matrices) one stacked solve serves every
    representative and the left vectors are the rows of V^-1; a partner
    whose representative's V^-1 is inaccurate or does not exist (V near or
    at a defective matrix) is solved alone, route "dense".  Larger matrices
    (strips) take one LAPACK ``zgeev`` per pair; where numpy bundles no
    LAPACKE ``zgeev``, each partner is solved alone.  A mirrored partner then
    runs the tail of every matrix on its own H(-k) (sort, unit columns,
    residuals, polish), with route "mirrored", and its set
    must keep the trace identity sum E**2 = tr H**2 of :func:`eig_chiral`;
    a partner that misses either is solved again alone, route
    "dense_fallback".

    Raises ValueError on non-square, empty or non-finite input and
    :class:`ConvergenceError` (naming the first failing matrix, whole result
    attached) if the residual target is missed or the norm overflows.
    """
    a, stack, tol, _ = _stack(matrix, tol)
    norm = frobenius_norms(a)
    w, v, res, pairs = _solve(a, tol, norm, pairs)
    p = pairs[:, 1]
    failed = np.zeros(len(a), dtype=bool)
    partners = a[p]
    trace_gap = np.abs((w[p] * w[p]).sum(axis=-1) - np.einsum("kij,kji->k", partners, partners))
    del partners
    failed[p] = ~(trace_gap <= _TRACE_GAP * np.maximum(1.0, norm[p]) ** 2)
    return _certified_or_redone(stack, tol, w, v, res, norm, _routes(len(w), "dense", pairs),
                                failed, lambda redo: a[redo])


def eigh(matrix, tol: float | np.ndarray | None = None, *, norm: float | np.ndarray | None = None,
         pairs=None) -> Spectrum:
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
    "hermitian".  ``pairs`` declares +-k pairs as in :func:`eig`; a
    Hermitian H(-k) = -H(k)^T is -conj H(k), so the partner takes (-E,
    conj v) of its representative in reversed order, with no LAPACK call,
    and is certified on its own matrix.  Each matrix of a stack gets the
    result it would get alone; :class:`ConvergenceError` names the first
    failing matrix, with the whole result attached.
    """
    a, stack, tol, norm = _stack(matrix, tol, norm)
    pairs = _pairs(pairs, len(a))
    norm = frobenius_norms(a) if norm is None else norm
    try:
        if pairs.size:
            solved = np.setdiff1d(np.arange(len(a)), pairs[:, 1])
            # zheevd's workspace is two matrices each, so a run of matrices is passed as a view
            run = solved.size and solved[-1] - solved[0] == solved.size - 1
            ws, vs = np.linalg.eigh(a[solved[0] : solved[-1] + 1] if run else a[solved])
            w, v = np.empty(a.shape[:-1]), np.empty(a.shape, dtype=complex)
            w[solved], v[solved] = ws, vs
            del vs
            for s in _slabs(len(pairs), a.shape[-1]):
                r, p = pairs[s].T
                w[p], v[p] = -w[r, ::-1], v[r, :, ::-1].conj()
        else:
            w, v = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"eigendecomposition did not converge: {exc}") from exc
    # zheevd returns the eigenvalues ascending, hence in (Re, Im) order, and
    # orthonormal vectors
    w = w.astype(complex)
    res = _residuals(a, w, v, norm)
    return _certified_or_redone(stack, tol, w, v, res, norm, _routes(len(w), "hermitian", pairs), False,
                                lambda redo: a[redo])


def _chiral_residuals(b, c, w, v, norm):
    """``||H v - E v|| / max(1, norm)`` for H = [[0, B], [C, 0]], through the blocks, slab by slab."""
    m = b.shape[-1]
    res = np.empty(w.shape)
    for s in _slabs(*v.shape[:2]):
        x, y = v[s, :m], v[s, m:]
        top = _misfit_norms(b[s] @ y, x, w[s])
        bottom = _misfit_norms(c[s] @ x, y, w[s])
        res[s] = np.hypot(top, bottom) / np.maximum(1.0, norm[s])[:, None]
    return res


def _near_zero(mu):
    """The cluster of a product's eigenvalues mu = E**2: |E| <= CHIRAL_CLUSTER * max |E|."""
    abs_e = np.sqrt(np.abs(mu))
    return abs_e <= CHIRAL_CLUSTER * abs_e.max(axis=-1, keepdims=True)


def _chiral_pairs(b, c, pairs):
    """Eigenpairs of H = [[0, B], [C, 0]] from eig(B C) and its left vectors, the near-zero cluster by Rayleigh-Ritz.

    Returns unsorted eigenvalues ``(k, 2m)``, vectors ``(k, 2m, 2m)``, a
    ``(k,)`` mask of the matrices whose cluster was resolved and the pairs
    whose partner took its representative's solve (:func:`eig_stack`).  A
    left vector u of B C makes B^H u one of C B, so the cluster's invariant
    subspace of C B is the orthogonal complement of B^H U, U the left
    vectors of the other eigenvalues.  The Rayleigh-Ritz step runs on each
    matrix with a cluster alone; one whose bases are dependent or whose
    Ritz solve fails is left unresolved.
    """
    k, m = b.shape[0], b.shape[-1]
    left = {}
    mu, x, pairs = eig_stack(b @ c, pairs, 1.0, left)
    e = np.sqrt(mu)
    near = _near_zero(mu)
    # H [x; y] = E [x; y] with y = C x / E; B C x = E**2 x
    y = c @ x
    y /= np.where(near, 1.0, e)[:, None, :]
    w = np.concatenate([e, -e], axis=-1)
    v = np.empty((k, 2 * m, 2 * m), dtype=complex)  # [[x, x], [y, -y]]
    v[:, :m, :m] = v[:, :m, m:] = x
    v[:, m:, :m] = y
    np.negative(y, out=v[:, m:, m:])
    del y

    resolved = ~near.any(axis=-1)
    if _ZGEEV is None:  # no left vectors to resolve a cluster
        return w, v, resolved, pairs
    for j in np.flatnonzero(~resolved):
        cols, rest = np.flatnonzero(near[j]), np.flatnonzero(~near[j])
        s = cols.size
        try:
            # orthonormal bases of the cluster's subspaces of B C and C B (a complete QR of the unit B^H U)
            qx, rx = np.linalg.qr(x[j][:, cols])
            bu = _adjoint(b[j]) @ left[j][:, rest].conj()
            bu /= np.linalg.norm(bu, axis=0)
            qy, ry = np.linalg.qr(bu, mode="complete")
            qy = np.ascontiguousarray(qy[:, m - s :])  # a view takes another matmul kernel: other last bits
            rank = np.minimum(*(np.abs(np.diagonal(r)).min(initial=np.inf) for r in (rx, ry)))
            if not rank >= _CLUSTER_RANK:
                continue
            # span{[Qx; 0], [0; Qy]} is H-invariant: solve H restricted to it
            zero = np.zeros((s, s), dtype=complex)
            ws, zs = np.linalg.eig(np.block([[zero, _adjoint(qx) @ b[j] @ qy], [_adjoint(qy) @ c[j] @ qx, zero]]))
        except np.linalg.LinAlgError:
            continue
        slots = np.concatenate([cols, m + cols])
        w[j, slots] = ws
        v[j][:, slots] = np.concatenate([qx @ zs[:s], qy @ zs[s:]])
        resolved[j] = True
    return w, v, resolved, pairs


def _adjoint(a):
    return np.swapaxes(a.conj(), -1, -2)


def eig_chiral(b, c, tol: float | np.ndarray | None = None, *, pairs=None) -> Spectrum:
    """:func:`eig` of the chiral matrix H = [[0, B], [C, 0]], solved at half the dimension.

    ``b`` and ``c`` are ``(m, m)`` matrices or ``(..., m, m)`` stacks; the
    result is that of :func:`eig` on the ``2m x 2m`` matrices H (basis: the
    m rows of B, then the m rows of C), with ``tol`` defaulting to
    :func:`default_tol` of 2m.  Since H**2 = diag(B C, C B), pairs with
    |E| above ``CHIRAL_CLUSTER`` times the matrix's largest |E| are
    E = +-sqrt(eig(B C)) with vectors [x; C x / E].  The near-zero cluster,
    where C x / E is ill defined, comes from a Rayleigh-Ritz step, matrix
    by matrix, on the cluster's invariant subspaces of B C and C B, the
    latter from the left vectors of the one B C solve
    (:func:`_chiral_pairs`).  Every pair is certified by its residual on H,
    taken through the blocks over ``max(1, ||H||_F)``, and the set by the
    trace identity sum E**2 = tr H**2, to
    ``_TRACE_GAP * max(1, ||H||_F)**2``.  Species strips take
    :func:`eig_species` instead.  A matrix whose cluster bases are
    dependent or lack left vectors (no LAPACKE ``zgeev``), whose Ritz solve
    fails, whose pairs miss ``tol`` or whose set misses the identity is
    solved again by the dense :func:`eig` route of that H (polish
    included).  ``path`` is "chiral", or "dense_fallback" when some matrix
    took that route.  ``pairs`` declares +-k pairs as in :func:`eig`, so
    B(-k) = -C(k)^T and C(-k) = -B(k)^T: the partner's B C is the
    transpose of its representative's, whose solve returns left vectors for
    it, and every step after it, certificate included, runs on its own
    blocks (route "mirrored").
    """
    if np.shape(b) != np.shape(c):
        raise ValueError(f"B and C must have equal shapes, got {np.shape(b)} and {np.shape(c)}")
    b, stack, tol, _ = _stack(b, tol, size_factor=2)
    c = _stack(c, None)[0]
    norm = np.hypot(frobenius_norms(b), frobenius_norms(c))

    w, v, resolved, pairs = _chiral_pairs(b, c, pairs)
    w, v = _sort_pairs(w, v)
    res = _chiral_residuals(b, c, w, _unit_columns(v), norm)
    # the pairs must also form one spectrum: sum E**2 = tr H**2 = 2 tr(B C),
    # which Ritz values of an ill-conditioned cluster can break
    trace_gap = np.abs((w * w).sum(axis=-1) - 2.0 * np.einsum("kij,kji->k", b, c))
    failed = ~resolved | ~(trace_gap <= _TRACE_GAP * np.maximum(1.0, norm) ** 2)
    return _certified_or_redone(stack, tol, w, v, res, norm, _routes(len(w), "chiral", pairs),
                                failed, lambda redo: chiral_matrix(b[redo], c[redo]))


def chiral_blocks(terms, w: int, periodic: bool = False):
    """The blocks B = I (x) Bd + L (x) Bs and C = I (x) Cd + L^T (x) Cs ``(..., w m, w m)`` of chiral strips of ``w`` rows.

    ``terms`` ``(..., 4, m, m)`` holds Bd, Bs, Cd and Cs; L is the lower row
    shift, wrapped around when ``periodic``.  A species block is the m = 1
    case, its bond scalars ``bonds[..., None, None]``.
    """
    *stack, _, m, _ = terms.shape
    b = np.zeros((*stack, w, m, w, m), dtype=complex)
    c = np.zeros_like(b)
    r = np.arange(w)
    lo = r if periodic else r[:-1]
    up = (lo + 1) % w
    b[..., r, :, r, :] = terms[..., 0, :, :]
    b[..., up, :, lo, :] = terms[..., 1, :, :]
    c[..., r, :, r, :] = terms[..., 2, :, :]
    c[..., lo, :, up, :] = terms[..., 3, :, :]
    return b.reshape(*stack, w * m, w * m), c.reshape(*stack, w * m, w * m)


def species_norms(bonds, w: int) -> np.ndarray:
    """``||B||_F**2 + ||C||_F**2`` of the open species blocks of bond scalars ``(..., 4)``, in closed form: ``(...)``."""
    sq = np.abs(np.asarray(bonds, dtype=complex)) ** 2
    return w * (sq[..., 0] + sq[..., 2]) + (w - 1) * (sq[..., 1] + sq[..., 3])


def _bidiagonal(d, s, x, shift):
    """``(d I + s S) x`` for the open row shift S that moves row n to row n + ``shift``, per matrix."""
    moved = np.roll(x, shift, axis=-2)
    moved[:, 0 if shift > 0 else -1] = 0.0
    return d[:, None, None] * x + s[:, None, None] * moved


def _sine_columns(n, m, log_r, theta):
    """Unit columns r^n sin(m theta) ``(k, w, c)``: rows n and multipliers m ``(w, 1)``, log r ``(k, 1, 1)``, theta ``(k, 1, c)``.

    Formed as r^n (e^{i m theta} - e^{-i m theta}), both terms scaled in log
    space by the largest of them, so no entry overflows however large
    |r|^w or |Im theta|.
    """
    up, down = n * log_r + 1j * m * theta, n * log_r - 1j * m * theta
    shift = np.maximum(up.real, down.real).max(axis=-2, keepdims=True)
    x = np.exp(up - shift) - np.exp(down - shift)
    return x / np.linalg.norm(x, axis=-2, keepdims=True)


#: Newton steps of :func:`_toeplitz_roots`; a root stops once a step is below
#: ``_ROOT_STEP`` times max(1, |root|)
_ROOT_ITERATIONS = 40
_ROOT_STEP = 4e-16


def _newton(value, start, active):
    """Newton's method in place from ``start`` on the entries ``active``: ``value(x) -> (f, f')``.

    A converged entry stops moving, so each one's iterates depend on it
    alone, however many others share the array.
    """
    x = start.copy()
    active = active.copy()
    for _ in range(_ROOT_ITERATIONS):
        if not active.any():
            break
        f, df = value(x)
        step = np.where(active, f / df, 0.0)
        x = x - step
        active &= np.abs(step) > _ROOT_STEP * np.maximum(1.0, np.abs(x))
    return x


def _toeplitz_roots(rho, w):
    """The w roots theta ``(k, w)`` of sin((w + 1) theta) = rho sin(w theta), rho ``(k,)``.

    For |rho| < 1 root j (1..w) solves (2w + 2) theta = 2 pi j -
    i [log(1 - rho z) - log(1 - rho / z)] with z = e^{i theta}; for
    |rho| > 1 roots 1..w-1 solve 2w theta = 2 pi j - i [log(1 - 1 / (rho z))
    - log(1 - z / rho)].  Newton's method runs on each phase equation, so
    every root keeps its own j.  The last root of |rho| > 1, the bound one
    (|z| < 1, near 1 / rho) once |rho| clears about (w + 1) / w, starts from
    the sum rule sum cos(theta) = rho / 2 and is polished by Newton's method
    on (1 - rho z - z^(2w+2) + rho z^(2w+1)) / (1 - z^2), whose other roots
    are the z and 1 / z of the rest.
    """
    inner = np.abs(rho) < 1.0
    sigma = np.where(inner, rho, 1.0 / rho)[:, None]
    sign = np.where(inner, 1.0, -1.0)[:, None]
    n = np.where(inner, 2 * w + 2, 2 * w)[:, None]
    j = np.arange(1, w + 1)
    active = inner[:, None] | (j < w)

    def phase(theta):
        z = np.exp(1j * theta)
        a, b = sigma * z, sigma / z
        f = n * theta - 2.0 * np.pi * j + 1j * sign * (np.log(1.0 - a) - np.log(1.0 - b))
        return f, n + sign * (a / (1.0 - a) + b / (1.0 - b))

    theta = _newton(phase, np.pi * j / n, active)
    bound = np.flatnonzero(~inner)
    if bound.size:
        r = rho[bound]
        c = 0.5 * r - np.cos(theta[bound, :-1]).sum(axis=-1)
        root = np.sqrt(c * c - 1.0)
        start = np.where(np.abs(c - root) <= 1.0, c - root, c + root)

        def deflated(z):
            zp = z ** (2 * w)
            h = 1.0 - r * z - zp * z * (z - r)
            return h, -r - (2 * w + 2) * zp * z + (2 * w + 1) * r * zp + 2.0 * z * h / (1.0 - z * z)

        theta[bound, -1] = -1j * np.log(_newton(deflated, start, np.ones(bound.size, dtype=bool)))
    return theta


def _species_open(bd, bs, cd, cs, w):
    """Unsorted pairs of open species strips: B C is tridiagonal Toeplitz with one defect at (1, 1).

    With a = bd cd + bs cs, u = bd cs, l = bs cd, r = sqrt(l / u), s = u r
    and rho = -bs cs / s, the eigenvalues of B C are a + 2 s cos(theta) over
    the roots of :func:`_toeplitz_roots`, its vectors r^n sin((w + 1 - n)
    theta) and those of C B r^n sin(n theta).
    """
    a, u = bd * cd + bs * cs, bd * cs
    r = np.sqrt(bs * cd / u)
    s = u * r
    theta = _toeplitz_roots(-bs * cs / s, w)
    mu = a[:, None] + 2.0 * s[:, None] * np.cos(theta)
    n = np.arange(1, w + 1)[:, None]
    log_r = np.log(r)[:, None, None]
    x = _sine_columns(n, w + 1 - n, log_r, theta[:, None, :])
    e = np.sqrt(mu)
    near = _near_zero(mu)
    cx = _bidiagonal(cd, cs, x, -1)
    y = cx / np.where(near, 1.0, e)[:, None, :]
    i, col = np.nonzero(near)
    if i.size:
        # the near-zero cluster: C x = gamma y and B y = beta x for the C B vector y of the
        # same root, so [sqrt(beta) x; +-sqrt(gamma) y] solves H with E = +-sqrt(beta gamma)
        yc = _sine_columns(n, n, log_r[i], theta[i, col][:, None, None])[..., 0]
        xc = x[i, :, col]
        gamma = (yc.conj() * cx[i, :, col]).sum(axis=-1)
        beta = (xc.conj() * _bidiagonal(bd[i], bs[i], yc[..., None], 1)[..., 0]).sum(axis=-1)
        # the smaller of beta and gamma has lost its relative accuracy; a lone near-zero root
        # takes its mu from det(B C) = (bd cd)^w over the other roots, which keeps it
        log_mu = w * np.log(bd * cd) - np.where(near, 0.0, np.log(mu)).sum(axis=-1)
        lone = near.sum(axis=-1)[i] == 1
        small_beta = lone & (np.abs(beta) < np.abs(gamma))
        beta = np.where(small_beta, np.exp(log_mu[i]) / gamma, beta)
        gamma = np.where(lone & ~small_beta, np.exp(log_mu[i]) / beta, gamma)
        sb, sg = np.sqrt(beta), np.sqrt(gamma)
        e[i, col] = sb * sg
        x[i, :, col] = sb[:, None] * xc
        y[i, :, col] = sg[:, None] * yc
    return e, x, y


def eig_species(bonds, w: int, *, tol: float | np.ndarray | None = None,
                norm: float | np.ndarray | None = None) -> Spectrum:
    """:func:`eig` of an open species strip [[0, B], [C, 0]] from its four bond scalars, in closed form.

    ``bonds`` is ``(..., 4)``: bd and bs of B = bd I + bs L, cd and cs of
    C = cd I + cs L^T, with L the lower shift: the m = 1 case of
    :func:`chiral_blocks`.  The result is that of :func:`eig` on the
    2w x 2w matrices H (basis: the w rows of B, then the w rows of C), with
    ``tol`` defaulting to :func:`default_tol` of 2w and ``norm`` as in
    :func:`eigh`.  No LAPACK call: B C is tridiagonal Toeplitz with one
    defect and is solved by its roots (:func:`_species_open`).  The pairs
    are certified as by :func:`eig_chiral`, by their residuals on H (B and
    C applied as bidiagonal products) and by the trace identity on the
    block's own norm; a block with a non-finite root, vector or norm, a
    pair that misses ``tol`` or a set that misses the identity is solved
    again by the dense :func:`eig` route of its H, laid out for it alone by
    :func:`chiral_blocks`.  ``path`` is "species", or "dense_fallback" when
    some block took that route.
    """
    bonds = np.asarray(bonds, dtype=complex)
    if bonds.ndim < 1 or bonds.shape[-1] != 4 or bonds.size == 0:
        raise ValueError(f"expected a nonempty (..., 4) stack of bond scalars, got shape {bonds.shape}")
    if not np.isfinite(bonds).all():
        raise ValueError("bond scalars must be finite")
    stack = bonds.shape[:-1]
    flat = bonds.reshape(-1, 4)
    tol = np.broadcast_to(default_tol(2 * w) if tol is None else tol, stack).reshape(-1)
    own = np.sqrt(species_norms(flat, w))
    norm = own if norm is None else np.broadcast_to(norm, stack).reshape(-1)
    bd, bs, cd, cs = flat.T

    with np.errstate(all="ignore"):  # a degenerate block (u = 0, say) fails below, as non-finite
        e, x, y = _species_open(bd, bs, cd, cs, w)
        # [x; y] of E = e and [x; -y] of E = -e: one unit norm, one residual
        scale = np.sqrt((np.abs(x) ** 2).sum(axis=-2) + (np.abs(y) ** 2).sum(axis=-2))[:, None, :]
        x, y = x / scale, y / scale
        top = np.linalg.norm(_bidiagonal(bd, bs, y, 1) - x * e[:, None, :], axis=-2)
        bottom = np.linalg.norm(_bidiagonal(cd, cs, x, -1) - y * e[:, None, :], axis=-2)
        res = np.tile(np.hypot(top, bottom) / np.maximum(1.0, norm)[:, None], 2)
        trace = w * bd * cd + (w - 1) * bs * cs  # tr H**2 = 2 tr(B C)
        trace_gap = 2.0 * np.abs((e * e).sum(axis=-1) - trace)
        finite = np.isfinite(res).all(axis=-1) & np.isfinite(trace_gap)
        w_all = np.concatenate([e, -e], axis=-1)
        v = np.concatenate([np.concatenate([x, x], axis=-1), np.concatenate([y, -y], axis=-1)], axis=-2)
        w_all[~finite], v[~finite] = 0.0, 1.0
    order = np.lexsort((w_all.imag, w_all.real), axis=-1)
    w_all, res = np.take_along_axis(w_all, order, -1), np.take_along_axis(res, order, -1)
    v = np.take_along_axis(v, order[:, None, :], -1)
    failed = ~finite | ~(trace_gap <= _TRACE_GAP * np.maximum(1.0, own) ** 2)
    return _certified_or_redone(stack, tol, w_all, v, res, norm,
                                _routes(len(w_all), "species", _NO_PAIRS), failed,
                                lambda redo: chiral_matrix(*chiral_blocks(flat[redo, :, None, None], w)))


def min_singular_value(matrix) -> float:
    """Smallest singular value of a square matrix."""
    a = _validate(matrix)
    if a.ndim != 2:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    return float(np.linalg.svd(a, compute_uv=False)[-1])


def match_eigenvalue_sets(a, b) -> float:
    """Max pairwise distance between two eigenvalue multisets under optimal pairing."""
    from scipy.optimize import linear_sum_assignment

    a = np.asarray(a, dtype=complex).ravel()
    b = np.asarray(b, dtype=complex).ravel()
    if a.shape != b.shape:
        raise ValueError("eigenvalue sets must have equal size")
    cost = np.abs(a[:, None] - b[None, :])
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].max()) if len(rows) else 0.0
