"""Eigensolver contract: residuals, ordering, defective flags, left vectors."""

import math
import sys
import threading

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from majorana_nh import eigen
from majorana_nh import (
    ConvergenceError,
    Coupling3,
    ModelConfig,
    RibbonSpec,
    Variant,
    bloch_hamiltonian,
    build_ribbon,
    closed_form_spectrum,
    eig,
    match_eigenvalue_sets,
    min_singular_value,
)
from conftest import random_complex_coupling


def random_matrix(rng, n):
    return rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))


class TestBasics:
    def test_diagonal(self):
        s = eig(np.diag([3.0, 1.0, 2.0]))
        np.testing.assert_allclose(s.eigenvalues, [1, 2, 3], atol=1e-14)
        np.testing.assert_allclose(s.residuals, 0, atol=1e-15)

    def test_hermitian_2x2(self):
        s = eig(np.array([[0, 3j], [-3j, 0]]))
        np.testing.assert_allclose(s.eigenvalues, [-3, 3], atol=1e-14)

    def test_jordan_block_flagged(self):
        s = eig(np.array([[0.0, 1.0], [0.0, 0.0]]))
        np.testing.assert_allclose(s.eigenvalues, 0, atol=1e-12)
        assert s.defective_flags.all()

    def test_unit_norm_vectors(self, rng):
        s = eig(random_matrix(rng, 12))
        np.testing.assert_allclose(np.linalg.norm(s.right_vectors, axis=0), 1, atol=1e-13)

    def test_sorted_order(self, rng):
        for _ in range(5):
            w = eig(random_matrix(rng, 24)).eigenvalues
            key = list(zip(w.real, w.imag))
            assert key == sorted(key)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            eig(np.zeros((2, 3)))
        with pytest.raises(ValueError):
            eig(np.array([[np.nan, 0], [0, 1]]))
        with pytest.raises(ValueError):
            eig(np.zeros((0, 0)))

    def test_residual_contract(self, rng):
        for n in (6, 16, 64, 312):
            s = eig(random_matrix(rng, n))
            tol = 1e-10 if n <= 16 else 1e-8
            assert s.achieved_tol <= tol
            assert (s.residuals <= s.achieved_tol).all()


SPECTRUM_ARRAYS = ("eigenvalues", "right_vectors", "residuals", "defective_flags")


def assert_same_spectrum(s, t):
    for name in SPECTRUM_ARRAYS:
        assert getattr(s, name).tobytes() == getattr(t, name).tobytes(), name
    assert np.array_equal(s.achieved_tol, t.achieved_tol)
    assert np.array_equal(s.matrix_norm, t.matrix_norm)


def random_stack(seed, m, n, jordan=None):
    """m random complex n x n matrices; matrix ``jordan`` (if given) a Jordan block."""
    rng = np.random.default_rng(seed)
    stack = rng.normal(size=(m, n, n)) + 1j * rng.normal(size=(m, n, n))
    if jordan is not None:
        stack[jordan] = (0.3 - 0.7j) * np.eye(n) + np.eye(n, k=1)
    return stack


class TestStack:
    """A stack is certified matrix by matrix: each slice is that matrix's own result."""

    def test_stack_validation(self):
        with pytest.raises(ValueError):
            eig(np.zeros((0, 3, 3)))
        with pytest.raises(ValueError):
            eig(np.zeros((2, 3, 4)))
        with pytest.raises(ValueError):
            eig(np.eye(3)[None], want_left=True)
        with pytest.raises(ValueError):
            min_singular_value(np.eye(3)[None])

    @settings(max_examples=40)
    @given(
        seed=st.integers(0, 2**32 - 1),
        m=st.integers(1, 5),
        n=st.integers(1, 24),
        jordan=st.integers(0, 4),
    )
    def test_slices_match_single_solves(self, seed, m, n, jordan):
        stack = random_stack(seed, m, n, jordan % m)
        s = eig(stack)
        assert s.eigenvalues.shape == (m, n) and s.right_vectors.shape == (m, n, n)
        assert s.achieved_tol.shape == s.matrix_norm.shape == (m,) and s.n == n
        for i in range(m):
            one = eig(stack[i])
            for name in SPECTRUM_ARRAYS:
                assert getattr(s, name)[i].tobytes() == getattr(one, name).tobytes(), name
            assert s.achieved_tol[i] == one.achieved_tol and s.matrix_norm[i] == one.matrix_norm
            assert one.matrix_norm == np.linalg.norm(stack[i], "fro")
        if n > 1:
            assert s.defective_flags[jordan % m].all()
        # a scalar tol and arrays broadcasting to the stack shape agree
        for tol in (np.full(m, 1e-9), np.array([1e-9])):
            assert_same_spectrum(eig(stack, tol=tol), eig(stack, tol=1e-9))

    @settings(max_examples=25)
    @given(
        seed=st.integers(0, 2**32 - 1),
        m=st.integers(1, 5),
        n=st.integers(2, 24),
        fail=st.integers(0, 4),
    )
    def test_unmet_tol_names_the_matrix(self, seed, m, n, fail):
        stack = random_stack(seed, m, n)
        fail %= m
        tol = np.full(m, 1e-8)
        tol[fail] = 1e-30
        with pytest.raises(ConvergenceError, match=rf"in matrix \[{fail}\]") as info:
            eig(stack, tol=tol)
        got, clean = info.value.result, eig(stack)
        assert got.eigenvalues.shape == (m, n)
        assert got.achieved_tol[fail] > 1e-30
        # only the failing matrix was polished
        for i in set(range(m)) - {fail}:
            assert got.right_vectors[i].tobytes() == clean.right_vectors[i].tobytes()
            assert got.residuals[i].tobytes() == clean.residuals[i].tobytes()


def chiral(b, c):
    """The dense matrix [[0, B], [C, 0]]."""
    m = b.shape[-1]
    h = np.zeros((2 * m, 2 * m), dtype=complex)
    h[:m, m:], h[m:, :m] = b, c
    return h


def assert_certified_on(h, s, tol):
    """Every pair meets tol in a residual on the full matrix; unit vectors, (Re, Im) order."""
    v = s.right_vectors
    res = np.linalg.norm(h @ v - v * s.eigenvalues, axis=0) / max(1.0, np.linalg.norm(h, "fro"))
    assert res.max() <= tol
    np.testing.assert_allclose(s.residuals, res, rtol=0.5, atol=1e-15)
    np.testing.assert_allclose(np.linalg.norm(v, axis=0), 1.0, atol=1e-13)
    order = np.lexsort((s.eigenvalues.imag, s.eigenvalues.real))
    np.testing.assert_array_equal(order, np.arange(s.n))


def species_blocks(model, w, k_x):
    """B and C of the three species of an open strip, cut from the dense strip, and its ||H||_F."""
    strip = build_ribbon(RibbonSpec(w=w, boundary_y="open", k_x=k_x, model=model))
    a, b_sites = 6 * np.arange(w), 6 * np.arange(w) + 3
    b = np.stack([strip[np.ix_(a + fl, b_sites + fl)] for fl in range(3)])
    c = np.stack([strip[np.ix_(b_sites + fl, a + fl)] for fl in range(3)])
    return b, c, np.linalg.norm(strip, "fro")


def assert_strip_norm_certificate(solve, b, c, norm):
    """Blocks certified against the strip's ``norm`` match those with tol restated in each block's norm.

    Same route, the same eigenvalue and vector bytes, and residuals equal
    once the restated ones are rescaled to the strip's norm.
    """
    tol = eigen.default_tol(6 * b.shape[-1])
    ratios = max(1.0, norm) / np.maximum(1.0, np.hypot(eigen.frobenius_norms(b), eigen.frobenius_norms(c)))
    s = solve(b, c, tol=tol, norm=norm)
    restated = solve(b, c, tol=tol * ratios)
    assert s.path == restated.path
    assert s.eigenvalues.tobytes() == restated.eigenvalues.tobytes()
    assert s.right_vectors.tobytes() == restated.right_vectors.tobytes()
    np.testing.assert_allclose(s.residuals, restated.residuals / ratios[:, None], rtol=2e-15, atol=0.0)
    assert (s.matrix_norm == norm).all()
    return s


#: (j, k_coupling, k_x) of skin-effect K strips (w=20, open) whose species
#: blocks fail the trace identity on their own norm, though not on the strip's
TRACE_STRIPS = [
    ((0.33959800117393896 - 1.3276390959618392j, -1.5304532059033462 - 0.9327967178408236j,
      1.5685582617686709 - 0.37859241037677255j), 0.7041331180209431, np.pi / 2),
    ((-1.818357610300824 - 0.20063763762394304j, -0.2290279712088055 - 1.7767865751295544j,
      1.640998272348857 + 0.1509716330979037j), 0.5622724758338847, -np.pi / 2),
]


class TestChiral:
    """``eig_chiral`` keeps the contract of ``eig`` on [[0, B], [C, 0]]."""

    @pytest.mark.parametrize("j, k_coupling, k_x", TRACE_STRIPS)
    def test_strip_norm_keeps_the_block_trace_identity(self, j, k_coupling, k_x):
        # the residuals move to the strip's norm, the trace identity stays on
        # each block's own: these blocks still fall back to the dense route
        model = ModelConfig(Variant.K_MODEL, Coupling3(*j), k_coupling=k_coupling)
        b, c, norm = species_blocks(model, 20, k_x)
        s = assert_strip_norm_certificate(eigen.eig_chiral, b, c, norm)
        assert s.path == "dense_fallback"

    def test_random_blocks_match_dense(self, rng):
        for m in (1, 3, 8, 20):
            b, c = random_matrix(rng, m), random_matrix(rng, m)
            h = chiral(b, c)
            s = eigen.eig_chiral(b, c)
            assert s.path == "chiral"
            assert match_eigenvalue_sets(s.eigenvalues, eig(h).eigenvalues) <= 1e-12 * np.linalg.norm(h)
            assert_certified_on(h, s, eigen.default_tol(2 * m))
            assert s.matrix_norm == pytest.approx(np.linalg.norm(h, "fro"), rel=1e-14)
            assert not s.defective_flags.any()

    def test_zero_mode_strip_takes_the_ritz_step(self):
        # pure YL, open, k_x = 0.9 pi: the intra-row bond sum 2 cos(0.45 pi) = 0.31
        # is below jz = 1, so each edge holds a flat zigzag band with |E| ~ 0.31**w,
        # far below rounding at w = 40
        w = 40
        model = ModelConfig(Variant.PURE_YL, Coupling3(1, 1, 1))
        strip = build_ribbon(RibbonSpec(w=w, boundary_y="open", k_x=0.9 * np.pi, model=model))
        a, b_sites = 6 * np.arange(w), 6 * np.arange(w) + 3  # flavour 1 on sublattices A and B
        b, c = strip[np.ix_(a, b_sites)], strip[np.ix_(b_sites, a)]
        h = chiral(b, c)
        s = eigen.eig_chiral(b, c)
        abs_e = np.abs(s.eigenvalues)
        near = abs_e <= eigen.CHIRAL_CLUSTER * abs_e.max()
        assert near.sum() == 2 and abs_e[near].max() < 1e-13
        # the cluster was resolved by the Ritz step and certified: no dense re-solve
        assert s.path == "chiral"
        assert_certified_on(h, s, eigen.default_tol(2 * w))
        assert match_eigenvalue_sets(s.eigenvalues, eig(h).eigenvalues) <= 1e-12 * np.linalg.norm(h)

    def test_spectrum_keeps_the_trace_identity(self):
        # a skin-effect species block (K model, w=20, k_x = pi/2) whose BC
        # eigenvectors have condition 2e18: the Ritz values of its near-zero
        # cluster pass the residual test but disagree with eig(BC), so the set
        # would break sum E**2 = tr H**2; the set certificate catches it
        j = Coupling3(-0.98024 - 1.36195j, -1.55861 + 0.99186j, -0.14166 - 0.77508j)
        model = ModelConfig(Variant.K_MODEL, j, k_coupling=0.21436)
        strip = build_ribbon(RibbonSpec(w=20, boundary_y="open", k_x=np.pi / 2, model=model))
        a, b_sites = 6 * np.arange(20) + 1, 6 * np.arange(20) + 4  # flavour 2
        b, c = strip[np.ix_(a, b_sites)], strip[np.ix_(b_sites, a)]
        h = chiral(b, c)
        s = eigen.eig_chiral(b, c)
        norm = np.linalg.norm(h, "fro")
        assert abs((s.eigenvalues**2).sum() - np.trace(h @ h)) <= 1e-12 * norm**2
        assert_certified_on(h, s, eigen.default_tol(40))

    def test_nilpotent_product_falls_back(self):
        # B C = B is a Jordan block: its eigenvectors span no invariant subspace
        b, c = np.array([[0, 1], [0, 0]], dtype=complex), np.eye(2, dtype=complex)
        h = chiral(b, c)
        s = eigen.eig_chiral(b, c)
        assert s.path == "dense_fallback"
        assert_certified_on(h, s, eigen.default_tol(4))
        dense = eig(h)
        np.testing.assert_array_equal(s.eigenvalues, dense.eigenvalues)
        np.testing.assert_array_equal(s.defective_flags, dense.defective_flags)

    def test_stack_slices_and_unmet_tol(self, rng):
        b = np.stack([random_matrix(rng, 6) for _ in range(3)])
        c = np.stack([random_matrix(rng, 6) for _ in range(3)])
        b[1], c[1] = np.eye(6, k=1), np.eye(6)  # falls back
        s = eigen.eig_chiral(b, c)
        assert s.path == "dense_fallback"
        assert s.eigenvalues.shape == (3, 12) and s.right_vectors.shape == (3, 12, 12)
        for i in range(3):
            one = eigen.eig_chiral(b[i], c[i])
            assert one.path == ("dense_fallback" if i == 1 else "chiral")
            for name in SPECTRUM_ARRAYS:
                assert getattr(s, name)[i].tobytes() == getattr(one, name).tobytes(), name
            assert_certified_on(chiral(b[i], c[i]), one, eigen.default_tol(12))
        with pytest.raises(ConvergenceError, match=r"in matrix \[2\]") as info:
            eigen.eig_chiral(b, c, tol=[1e-8, 1e-8, 1e-30])
        assert info.value.result.eigenvalues.shape == (3, 12)

    def test_validation(self):
        with pytest.raises(ValueError):
            eigen.eig_chiral(np.eye(3), np.eye(4))
        with pytest.raises(ValueError):
            eigen.eig_chiral(np.zeros((0, 3, 3)), np.zeros((0, 3, 3)))


def random_hermitian(rng, *shape):
    a = rng.normal(size=(*shape, shape[-1])) + 1j * rng.normal(size=(*shape, shape[-1]))
    return a + np.swapaxes(a.conj(), -1, -2)


class TestHermitian:
    """``eigh`` keeps the contract of ``eig`` on matrices declared Hermitian."""

    def test_strip_norm_certificate(self):
        model = ModelConfig(Variant.K_MODEL, Coupling3(2, 1, 2.5), k_coupling=0.4)
        b, c, norm = species_blocks(model, 20, 0.7)
        s = assert_strip_norm_certificate(
            lambda b, c, **kwargs: eigen.eigh(eigen.chiral_matrix(b, c), **kwargs), b, c, norm
        )
        assert s.path == "hermitian"

    def test_random_hermitian_matches_dense(self, rng):
        for n in (1, 6, 40, 312):
            h = random_hermitian(rng, n)
            s = eigen.eigh(h)
            assert s.path == "hermitian"
            assert s.eigenvalues.dtype == complex and (s.eigenvalues.imag == 0.0).all()
            assert match_eigenvalue_sets(s.eigenvalues, eig(h).eigenvalues) <= 1e-12 * np.linalg.norm(h)
            assert_certified_on(h, s, eigen.default_tol(n))
            v = s.right_vectors
            np.testing.assert_allclose(v.conj().T @ v, np.eye(n), atol=1e-13)
            assert s.matrix_norm == np.linalg.norm(h, "fro")
            assert not s.defective_flags.any()

    def test_residual_is_taken_on_the_full_matrix(self, rng):
        # zheevd reads the lower triangle only; a stack slice that is not
        # Hermitian misses its residual and alone is solved again by eig
        h = random_hermitian(rng, 3, 8)
        h[1] = random_matrix(rng, 8)
        s = eigen.eigh(h)
        assert s.path == "dense_fallback"
        for i in range(3):
            one = eigen.eigh(h[i])
            assert one.path == ("dense_fallback" if i == 1 else "hermitian")
            for name in SPECTRUM_ARRAYS:
                assert getattr(s, name)[i].tobytes() == getattr(one, name).tobytes(), name
            assert_certified_on(h[i], one, eigen.default_tol(8))
        dense = eig(h[1])
        for name in SPECTRUM_ARRAYS:
            assert getattr(s, name)[1].tobytes() == getattr(dense, name).tobytes(), name
        assert (s.eigenvalues[[0, 2]].imag == 0.0).all()

    @pytest.mark.parametrize("fail", [0, 2])
    def test_unmet_tol_names_the_matrix(self, rng, fail):
        h = random_hermitian(rng, 3, 6)
        tol = np.full(3, 1e-10)
        tol[fail] = 1e-30
        with pytest.raises(ConvergenceError, match=rf"in matrix \[{fail}\]") as info:
            eigen.eigh(h, tol=tol)
        got = info.value.result
        assert got.path == "dense_fallback" and got.eigenvalues.shape == (3, 6)
        assert got.achieved_tol[fail] > 1e-30
        clean = eigen.eigh(h)
        for i in set(range(3)) - {fail}:
            assert got.right_vectors[i].tobytes() == clean.right_vectors[i].tobytes()
        with pytest.raises(ConvergenceError, match=r"unmet \(achieved") as info:
            eigen.eigh(h[0], tol=1e-30)
        assert info.value.result.eigenvalues.shape == (6,)

    @settings(max_examples=40)
    @given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 5), n=st.integers(1, 24))
    def test_slices_match_single_solves(self, seed, m, n):
        stack = random_hermitian(np.random.default_rng(seed), m, n)
        s = eigen.eigh(stack)
        assert s.eigenvalues.shape == (m, n) and s.right_vectors.shape == (m, n, n)
        assert s.achieved_tol.shape == s.matrix_norm.shape == (m,)
        for i in range(m):
            one = eigen.eigh(stack[i])
            for name in SPECTRUM_ARRAYS:
                assert getattr(s, name)[i].tobytes() == getattr(one, name).tobytes(), name
            assert s.achieved_tol[i] == one.achieved_tol and s.matrix_norm[i] == one.matrix_norm

    def test_validation(self):
        with pytest.raises(ValueError):
            eigen.eigh(np.zeros((2, 3)))
        with pytest.raises(ValueError):
            eigen.eigh(np.array([[np.nan, 0], [0, 1]]))
        with pytest.raises(ValueError):
            eigen.eigh(np.zeros((0, 3, 3)))


class TestAgainstClosedForm:
    def test_k_model_bloch_50_random_samples(self, rng):
        for _ in range(50):
            model = ModelConfig(
                Variant.K_MODEL,
                random_complex_coupling(rng),
                k_coupling=complex(rng.normal(), rng.normal()),
            )
            k = rng.uniform(-np.pi, np.pi, 2)
            dense = eig(bloch_hamiltonian(model, k).entries).eigenvalues
            cf = closed_form_spectrum(model, k).values
            assert match_eigenvalue_sets(dense, cf) < 1e-10


class TestReconstruction:
    @pytest.mark.parametrize("n", [2, 6, 24, 312])
    def test_reconstruction(self, rng, n):
        reps = 100 if n <= 24 else 3
        for _ in range(reps):
            a = random_matrix(rng, n)
            s = eig(a)
            lam = np.diag(s.eigenvalues)
            back = s.right_vectors @ lam @ np.linalg.inv(s.right_vectors)
            rel = np.linalg.norm(a - back, "fro") / np.linalg.norm(a, "fro")
            assert rel <= 1e-8

    def test_unitary_similarity_invariance(self, rng):
        a = random_matrix(rng, 10)
        w0 = eig(a).eigenvalues
        for _ in range(10):
            q, _ = np.linalg.qr(random_matrix(rng, 10))
            w1 = eig(q @ a @ q.conj().T).eigenvalues
            assert match_eigenvalue_sets(w0, w1) < 1e-9


def charpoly_roots_mpmath(a):
    """Oracle: characteristic polynomial roots via exact-coefficient expansion.

    Coefficients from the Faddeev-LeVerrier trace recursion (no eigensolver
    involved), roots from mpmath's polynomial solver at 40 digits.
    """
    n = a.shape[0]
    coeffs = [1.0 + 0j]
    m = np.eye(n, dtype=complex)
    for k in range(1, n + 1):
        m = a @ m
        c = -np.trace(m) / k
        coeffs.append(c)
        m = m + c * np.eye(n)
    with mpmath.workdps(40):
        roots = mpmath.polyroots([mpmath.mpc(c) for c in coeffs], maxsteps=200)
    return np.array([complex(r) for r in roots])


class TestCharPolyOracle:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_small_matrices(self, rng, n):
        for _ in range(25):
            a = random_matrix(rng, n)
            w = eig(a).eigenvalues
            roots = charpoly_roots_mpmath(a)
            assert match_eigenvalue_sets(w, roots) < 1e-9


class TestDeterminism:
    def test_repeated_runs_identical_bytes(self, rng):
        a = random_matrix(rng, 64)
        s1 = eig(a.copy())
        s2 = eig(a.copy())
        assert s1.eigenvalues.tobytes() == s2.eigenvalues.tobytes()
        assert s1.right_vectors.tobytes() == s2.right_vectors.tobytes()
        assert s1.residuals.tobytes() == s2.residuals.tobytes()


class FakeBlas:
    """A library's thread-count getter and setter, recording each set."""

    def __init__(self, count, calls):
        self.count, self.calls = count, calls

    def get(self):
        return self.count

    def set(self, n):
        self.calls.append((self, n))
        self.count = n


class TestOneBlasThread:
    @pytest.fixture
    def libs(self, monkeypatch):
        calls = []
        libs = [FakeBlas(2, calls), FakeBlas(3, calls)]
        monkeypatch.setattr(eigen, "_BLAS_THREADS", [(b.get, b.set) for b in libs])
        return libs, calls

    def test_nested_entries_pin_and_restore_once(self, libs):
        (a, b), calls = libs
        with pytest.raises(RuntimeError):
            with eigen.one_blas_thread():
                assert (a.count, b.count) == (1, 1)
                with eigen.one_blas_thread():
                    raise RuntimeError("inside")
        assert (a.count, b.count) == (2, 3)
        assert calls == [(a, 1), (b, 1), (a, 2), (b, 3)]
        assert eigen.pinned_blas_threads() == 1

    def test_concurrent_entries_pin_and_restore_once(self, libs):
        # two threads entering and leaving over and over: the libraries read 1
        # whenever a thread is inside, and pins and restores alternate
        (a, b), calls = libs
        seen = []

        def enter():
            for _ in range(300):
                with eigen.one_blas_thread():
                    seen.append((a.count, b.count))

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            worker = threading.Thread(target=enter)
            worker.start()
            enter()
            worker.join(timeout=30)
        finally:
            sys.setswitchinterval(switch)
        assert not worker.is_alive()
        assert set(seen) == {(1, 1)} and len(seen) == 600
        assert (a.count, b.count) == (2, 3)
        assert calls == [(a, 1), (b, 1), (a, 2), (b, 3)] * (len(calls) // 4)


class TestLeftVectors:
    def test_biorthogonality_after_rescaling(self, rng):
        for _ in range(10):
            a = random_matrix(rng, 12)
            s = eig(a, want_left=True)
            if s.defective_flags.any():
                continue
            g = np.abs(s.left_vectors.conj().T @ s.right_vectors)
            off = g - np.diag(np.diag(g))
            assert off.max() < 1e-8

    def test_biorthogonality_with_degenerate_cluster(self, rng):
        # threefold-degenerate Hermitian model: clusters must be rescaled or flagged
        model = ModelConfig(Variant.PURE_YL, Coupling3(2, 1, 2.5))
        k = rng.uniform(-np.pi, np.pi, 2)
        s = eig(bloch_hamiltonian(model, k).entries, want_left=True)
        g = np.abs(s.left_vectors.conj().T @ s.right_vectors)
        off = g - np.diag(np.diag(g))
        ok = ~s.defective_flags
        assert off[np.ix_(ok, ok)].max() < 1e-8


class TestMinSingularValue:
    def test_identity(self):
        assert min_singular_value(np.eye(6)) == pytest.approx(1.0)

    def test_jordan(self):
        assert min_singular_value(np.array([[0.0, 1.0], [0.0, 0.0]])) == pytest.approx(0.0)

    def test_gapless_bloch_point(self):
        model = ModelConfig(Variant.PURE_YL, Coupling3(1, 1, 1))
        h = bloch_hamiltonian(model, (4 * np.pi / 3, 0.0)).entries
        assert min_singular_value(h) < 1e-10

    def test_svd_accuracy(self, rng):
        a = random_matrix(rng, 20)
        # oracle: smallest singular value via the Hermitian square
        w = np.linalg.eigvalsh(a.conj().T @ a)
        assert min_singular_value(a) == pytest.approx(
            math.sqrt(max(w.min(), 0.0)), abs=1e-12 * np.linalg.norm(a, "fro")
        )
