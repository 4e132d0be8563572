"""Eigensolver contract: residuals, ordering, defective flags, left vectors."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from majorana_nh import (
    ConvergenceError,
    Coupling3,
    ModelConfig,
    Variant,
    bloch_hamiltonian,
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
