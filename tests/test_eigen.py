"""Eigensolver contract: residuals, ordering, defective flags, left vectors."""

import cmath
import json
import math
import os
import subprocess
import sys
import threading
from pathlib import Path
from types import SimpleNamespace

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from majorana_nh import eigen, ribbon
from majorana_nh import (
    ConvergenceError,
    Coupling3,
    ModelConfig,
    RibbonSpec,
    Variant,
    bloch_hamiltonian,
    build_ribbon,
    closed_form_spectrum,
    diagonalize_ribbon,
    eig,
    match_eigenvalue_sets,
    min_singular_value,
)
from majorana_nh.presets import get_preset
from conftest import TRACE_STRIPS, random_complex_coupling

E3 = cmath.exp(1j * math.pi / 3)
SRC = str(Path(__file__).resolve().parents[1] / "src")


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


def bond_scalars(b, c):
    """The (bd, bs, cd, cs) of bidiagonal species blocks B and C ``(..., w, w)``."""
    return np.stack([b[..., 0, 0], b[..., 1, 0], c[..., 0, 0], c[..., 0, 1]], axis=-1)


def species_solve(b, c, **kwargs):
    """``eig_species`` of species blocks given as B and C."""
    return eigen.eig_species(bond_scalars(b, c), b.shape[-1], **kwargs)


def strip_bonds(model, k_x, flavour):
    """The (bd, bs, cd, cs) of one flavour's species block of a strip: its diagonal entries of the bond terms."""
    return np.diagonal(ribbon._bond_terms(model, [k_x])[0], axis1=-2, axis2=-1)[:, flavour].copy()


def scalar_blocks(bonds, w):
    """The open species blocks B and C of bond scalars ``(..., 4)``: the m = 1 case of ``chiral_blocks``."""
    return eigen.chiral_blocks(np.asarray(bonds)[..., None, None], w)


def cluster_strips(name):
    """B, C and the +-k_x pairs of chiral strips with near-zero clusters.

    fig3b's and the field-free DMI model's strips at w=12 over 16 k_x (-pi
    and 0 lone, some exact +-k_x pairs), and pure YL's flavour-1 block at
    w=40, k_x = 0.9 pi, a lone matrix whose edge bands lie far below rounding.
    """
    if name == "pure_yl":
        model = ModelConfig(Variant.PURE_YL, Coupling3(1, 1, 1))
        strip = build_ribbon(RibbonSpec(w=40, boundary_y="open", k_x=0.9 * np.pi, model=model))
        a, b_sites = 6 * np.arange(40), 6 * np.arange(40) + 3
        return strip[np.ix_(a, b_sites)], strip[np.ix_(b_sites, a)], None
    model = (get_preset("fig3b").model if name == "fig3b"
             else ModelConfig(Variant.MAG_MODEL, Coupling3(1, 1, E3), d=0.5))
    k_x = np.linspace(-np.pi, np.pi, 16, endpoint=False)
    b, c = eigen.chiral_blocks(ribbon._bond_terms(model, k_x), 12)
    return b, c, ribbon._mirror_pairs(k_x)


class TestChiral:
    """``eig_chiral`` keeps the contract of ``eig`` on [[0, B], [C, 0]]."""

    @pytest.mark.parametrize("j, k_coupling, k_x", TRACE_STRIPS)
    def test_strip_norm_keeps_the_block_trace_identity(self, j, k_coupling, k_x):
        # the residuals move to the strip's norm, the trace identity stays on
        # each block's own; eig_chiral's Ritz values fail it on these blocks,
        # which the species route now certifies in closed form
        model = ModelConfig(Variant.K_MODEL, Coupling3(*j), k_coupling=k_coupling)
        b, c, norm = species_blocks(model, 20, k_x)
        assert eigen.eig_chiral(b, c).path == "dense_fallback"
        s = assert_strip_norm_certificate(species_solve, b, c, norm)
        assert s.path == "species"

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

    @pytest.mark.parametrize("strip", ["fig3b", "mag_dmi", "pure_yl"])
    def test_cluster_basis_spans_the_c_b_cluster(self, monkeypatch, strip):
        # the C B half of each cluster, taken from the pair solve's left vectors, spans
        # the cluster eigenvectors of eig(C B), with one eig_stack call for the whole stack
        b, c, pairs = cluster_strips(strip)
        real, calls = eigen.eig_stack, []

        def counting(*args, **kwargs):
            calls.append(args[0].shape)
            return real(*args, **kwargs)

        monkeypatch.setattr(eigen, "eig_stack", counting)
        s = eigen.eig_chiral(b, c, pairs=pairs)
        monkeypatch.undo()
        m = b.shape[-1]
        assert calls == [(b.size // m**2, m, m)]
        b, c = b.reshape(-1, m, m), c.reshape(-1, m, m)
        w, v = s.eigenvalues.reshape(-1, 2 * m), s.right_vectors.reshape(-1, 2 * m, 2 * m)
        routes = np.reshape(s.routes, -1)
        clusters = 0
        for i in range(len(b)):
            mu, x_cb = np.linalg.eig(c[i] @ b[i])
            near = eigen._near_zero(mu)
            size = near.sum()
            if not size:
                continue
            clusters += 1
            assert routes[i] in ("chiral", "mirrored")
            # the bottom halves of H's 2s cluster vectors span its C B subspace
            got = np.linalg.svd(v[i][m:, np.argsort(np.abs(w[i]))[: 2 * size]])[0][:, :size]
            ref = np.linalg.qr(x_cb[:, near])[0]
            assert np.linalg.norm(got - ref @ (ref.conj().T @ got), 2) <= 1e-10
        assert clusters == {"fig3b": 7, "mag_dmi": 7, "pure_yl": 1}[strip]

    @settings(max_examples=40)
    @given(seed=st.integers(0, 2**32 - 1), m=st.integers(2, 12), planted=st.integers(1, 3),
           scale=st.sampled_from([0.0, 1e-12, 1e-8, 1e-5]))
    def test_planted_zero_modes_match_dense(self, seed, m, planted, scale):
        # B and C with r near-null right vectors each: H has 2r near-zero eigenvalues,
        # resolved by the Ritz step and matching dense eig
        rng = np.random.default_rng(seed)
        r = min(planted, m - 1)
        b, c = random_matrix(rng, m), random_matrix(rng, m)
        for a in (b, c):
            q = np.linalg.qr(random_matrix(rng, m)[:, :r])[0]
            a -= (a @ q) @ q.conj().T
            a += scale * random_matrix(rng, m)
        h = chiral(b, c)
        s = eigen.eig_chiral(b, c)
        abs_e = np.abs(s.eigenvalues)
        assert (abs_e <= eigen.CHIRAL_CLUSTER * abs_e.max()).sum() >= 2 * r
        assert s.path == "chiral"
        assert_certified_on(h, s, eigen.default_tol(2 * m))
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

    @pytest.mark.parametrize("fail", [0, 1])
    def test_ritz_failure_redoes_that_matrix_alone(self, monkeypatch, fail):
        # one matrix's Rayleigh-Ritz eig fails: that matrix is redone dense and
        # certified on its H, and the others keep the result they get alone
        model = ModelConfig(Variant.PURE_YL, Coupling3(1, 1, 1))
        blocks = [species_blocks(model, 40, k_x) for k_x in (0.9 * np.pi, 0.85 * np.pi, -0.9 * np.pi)]
        b, c = (np.stack([blk[i][0] for blk in blocks]) for i in (0, 1))
        alone = [eigen.eig_chiral(b[i], c[i]) for i in range(3)]
        assert [s.path for s in alone] == ["chiral"] * 3
        real_eig, ritz = np.linalg.eig, []

        def eig_failing(a):
            if sys._getframe(1).f_code is eigen._chiral_pairs.__code__:
                ritz.append(a)
                if len(ritz) - 1 == fail:
                    raise np.linalg.LinAlgError("forced failure of one matrix")
            return real_eig(a)

        monkeypatch.setattr(np.linalg, "eig", eig_failing)
        s = eigen.eig_chiral(b, c)
        monkeypatch.undo()
        assert len(ritz) == 3
        for i in range(3):
            if i == fail:
                assert s.routes[i] == "dense_fallback"
                h = chiral(b[i], c[i])
                slot = SimpleNamespace(n=s.n, **{name: getattr(s, name)[i]
                                                 for name in ("eigenvalues", "right_vectors", "residuals")})
                assert_certified_on(h, slot, eigen.default_tol(80))
                assert match_eigenvalue_sets(s.eigenvalues[i], eig(h).eigenvalues) <= 1e-12 * np.linalg.norm(h)
            else:
                assert s.routes[i] == "chiral"
                for name in SPECTRUM_ARRAYS:
                    assert getattr(s, name)[i].tobytes() == getattr(alone[i], name).tobytes(), name

    def test_stack_slices_of_clustered_strips(self):
        # fig3b strips at w=52, unpaired, with near-zero clusters of 3, 1, 0, 3
        # and 0 B C eigenvalues: each slice is that matrix's lone solve
        k_x = np.array([-np.pi, 1.5, 0.3, 2.0, -0.3])
        b, c = eigen.chiral_blocks(ribbon._bond_terms(get_preset("fig3b").model, k_x), 52)
        s = eigen.eig_chiral(b, c)
        abs_e = np.abs(s.eigenvalues)
        sizes = (abs_e <= eigen.CHIRAL_CLUSTER * abs_e.max(axis=-1, keepdims=True)).sum(axis=-1) // 2
        assert sizes.tolist() == [3, 1, 0, 3, 0]
        for i in range(len(k_x)):
            one = eigen.eig_chiral(b[i], c[i])
            assert s.routes[i] == one.path
            for name in ("eigenvalues", "right_vectors", "residuals"):
                assert getattr(s, name)[i].tobytes() == getattr(one, name).tobytes(), name

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
            assert s.routes[i] == one.path
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


def bonds_from(bs, cs, rho, r):
    """Bond scalars (bd, bs, cd, cs) with given bs, cs, rho and gauge ratio r.

    From s = -bs cs / rho, u = bd cs = s / r and l = bs cd = r s.
    """
    s = -bs * cs / rho
    return np.array([s / (r * cs), bs, r * s / bs, cs])


def polar(modulus, phase):
    return modulus * np.exp(1j * phase)


def mp_species_energies(bonds, w):
    """+-sqrt of the eigenvalues of the open species block B C, by ``mpmath.eig`` at 50 digits."""
    bd, bs, cd, cs = (mpmath.mpc(x) for x in bonds)
    with mpmath.workdps(50):
        bc = mpmath.zeros(w)
        for i in range(w):
            bc[i, i] = bd * cd + (bs * cs if i else 0)
            if i:
                bc[i - 1, i], bc[i, i - 1] = bd * cs, bs * cd
        mu = mpmath.eig(bc, left=False, right=False)
        e = np.array([complex(mpmath.sqrt(x)) for x in mu])
    return np.concatenate([e, -e])


class TestSpecies:
    """``eig_species`` keeps the contract of ``eig`` on species strips, with no LAPACK call."""

    @pytest.mark.parametrize("flavour", [1, 2])
    def test_skin_block_matches_mpmath(self, flavour):
        # fig2c-like at w=40, k_x=0.7: flavour 2 has |r|^w = 132, flavour 3
        # |rho| = 1.06 (the bound-root branch); the closed form lands within
        # 1e-12 of 50-digit arithmetic, and eig(B C) lands farther off
        model = get_preset("fig2c-like").model
        w = 40
        bonds = strip_bonds(model, 0.7, flavour)
        exact = mp_species_energies(bonds, w)
        scale = np.abs(exact).max()
        s = eigen.eig_species(bonds, w)
        assert s.path == "species"
        species_error = match_eigenvalue_sets(s.eigenvalues, exact) / scale
        assert species_error <= 1e-12
        b, c = scalar_blocks(bonds, w)
        mu = np.linalg.eigvals(b @ c)
        dense_error = match_eigenvalue_sets(np.concatenate([np.sqrt(mu), -np.sqrt(mu)]), exact) / scale
        assert dense_error > species_error
        assert_certified_on(chiral(b, c), s, eigen.default_tol(2 * w))

    @settings(max_examples=80)
    @given(
        w=st.integers(2, 12),
        bs=st.tuples(st.floats(0.3, 2.0), st.floats(-np.pi, np.pi)),
        cs=st.tuples(st.floats(0.3, 2.0), st.floats(-np.pi, np.pi)),
        rho=st.tuples(st.one_of(st.floats(0.05, 0.9), st.floats(0.9, 1.1), st.floats(1.1, 4.0)),
                      st.floats(-np.pi, np.pi)),
        log_r=st.tuples(st.floats(-1.0, 1.0), st.floats(-np.pi, np.pi)),
    )
    def test_matches_dense(self, w, bs, cs, rho, log_r):
        # |rho| below, near and above 1, and a gauge ratio with |r|^w within
        # 1e3 either way, so that dense eig stays accurate enough to compare
        r = polar(np.exp(log_r[0] * np.log(1e3) / w), log_r[1])
        bonds = bonds_from(polar(*bs), polar(*cs), polar(*rho), r)
        b, c = scalar_blocks(bonds, w)
        h = chiral(b, c)
        s = eigen.eig_species(bonds, w)
        assert s.path in ("species", "dense_fallback")
        assert match_eigenvalue_sets(s.eigenvalues, eig(h).eigenvalues) <= 1e-12 * max(1.0, np.linalg.norm(h))
        assert_certified_on(h, s, eigen.default_tol(2 * w))
        assert s.matrix_norm == pytest.approx(np.linalg.norm(h, "fro"), rel=1e-14)

    @pytest.mark.parametrize("k_x", [np.pi, -np.pi])
    def test_pure_yl_with_equal_jx_jy_at_the_zone_edge(self, k_x):
        # jx e^{ik_x/2} + jy e^{-ik_x/2} vanishes at k_x = pi: bd = 0 up to
        # rounding, so u = bd cs is all but 0; the strip ends certified
        model = ModelConfig(Variant.PURE_YL, Coupling3(1, 1, E3))
        spec = RibbonSpec(w=12, boundary_y="open", k_x=k_x, model=model)
        s = diagonalize_ribbon(spec)
        assert s.path in ("species", "dense_fallback")
        assert np.isfinite(s.eigenvalues).all() and np.isfinite(s.right_vectors).all()
        assert_certified_on(build_ribbon(spec), s, eigen.default_tol(72))
        # with bd exactly 0, B is nilpotent: the dense route takes the block
        bonds = strip_bonds(model, k_x, 0)
        bonds[0] = 0.0
        s = eigen.eig_species(bonds, 12)
        assert s.path == "dense_fallback"
        assert np.isfinite(s.eigenvalues).all()
        assert_certified_on(chiral(*scalar_blocks(bonds, 12)), s, eigen.default_tol(24))

    def test_stack_slices(self, rng):
        # each block of a stack gets the bytes it gets alone, the fallback included
        bonds = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        bonds[2, 0] = 0.0
        s = eigen.eig_species(bonds, 7)
        for i in range(4):
            one = eigen.eig_species(bonds[i], 7)
            assert s.routes[i] == one.path
            for name in SPECTRUM_ARRAYS:
                assert getattr(s, name)[i].tobytes() == getattr(one, name).tobytes(), name
        assert eigen.eig_species(bonds, 7).routes.tolist() == ["species", "species", "dense_fallback", "species"]
        with pytest.raises(ConvergenceError, match=r"in matrix \[3\]"):
            eigen.eig_species(bonds, 7, tol=[1e-8, 1e-8, 1e-8, 1e-30])

    def test_validation(self):
        with pytest.raises(ValueError):
            eigen.eig_species(np.ones(3), 4)
        with pytest.raises(ValueError):
            eigen.eig_species(np.zeros((0, 4)), 4)
        with pytest.raises(ValueError):
            eigen.eig_species([np.nan, 1, 1, 1], 4)


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
            assert s.routes[i] == one.path
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


class TestMirroredPairs:
    """``pairs=``: a partner H(-k) = -H(k)^T takes its representative's solve and is certified on its own matrix."""

    def test_dense_partner(self, rng):
        a, other = random_matrix(rng, 12), random_matrix(rng, 12)
        s = eig(np.stack([a, other, -a.T]), pairs=[[0, 2]])
        assert s.routes.tolist() == ["dense", "dense", "mirrored"]
        np.testing.assert_array_equal(s.eigenvalues[2], np.sort(-s.eigenvalues[0]))
        for i, h in enumerate((a, other, -a.T)):
            v = s.right_vectors[i]
            res = np.linalg.norm(h @ v - v * s.eigenvalues[i], axis=0) / max(1.0, np.linalg.norm(h, "fro"))
            assert res.max() <= eigen.default_tol(12)
        # a matrix in no pair keeps the bytes of its own solve, and so does a
        # representative where numpy's own LAPACKE gives it its left vectors
        for i, h in [(1, other)] + [(0, a)] * (eigen._ZGEEV is not None):
            alone = eig(h)
            assert s.eigenvalues[i].tobytes() == alone.eigenvalues.tobytes()
            assert s.right_vectors[i].tobytes() == alone.right_vectors.tobytes()

    def test_partners_solved_alone_where_numpy_bundles_no_lapacke(self, rng, monkeypatch):
        # no left vectors without numpy's LAPACKE zgeev: a strip-sized pair
        # is two lone solves, each with the bytes it gets alone, and a strip
        # with a near-zero cluster takes the dense route
        a, b, c = random_matrix(rng, 12), random_matrix(rng, 8), random_matrix(rng, 8)
        monkeypatch.setattr(eigen, "_ZGEEV", None)
        s = eig(np.stack([a, -a.T]), pairs=[[0, 1]])
        assert s.routes.tolist() == ["dense", "dense"]
        sc = eigen.eig_chiral(np.stack([b, -c.T]), np.stack([c, -b.T]), pairs=[[0, 1]])
        assert sc.routes.tolist() == ["chiral", "chiral"]
        for i, (one, lone) in enumerate([(s, eig(a)), (s, eig(-a.T)), (sc, eigen.eig_chiral(b, c)),
                                         (sc, eigen.eig_chiral(-c.T, -b.T))]):
            assert one.eigenvalues[i % 2].tobytes() == lone.eigenvalues.tobytes()
            assert one.right_vectors[i % 2].tobytes() == lone.right_vectors.tobytes()
        # a near-zero cluster has no left vectors for its Ritz step: the dense route solves it
        k_x = np.array([3 * np.pi / 4, -3 * np.pi / 4])
        bz, cz = eigen.chiral_blocks(ribbon._bond_terms(get_preset("fig3b").model, k_x), 12)
        sz = eigen.eig_chiral(bz, cz, pairs=ribbon._mirror_pairs(k_x))
        assert sz.routes.tolist() == ["dense_fallback"] * 2
        for i in range(2):
            lone = eigen.eig_chiral(bz[i], cz[i])
            assert lone.path == "dense_fallback"
            assert_certified_on(chiral(bz[i], cz[i]), lone, eigen.default_tol(72))
            assert sz.eigenvalues[i].tobytes() == lone.eigenvalues.tobytes()
            assert sz.right_vectors[i].tobytes() == lone.right_vectors.tobytes()

    @pytest.mark.parametrize("route", ["eig", "eigh", "eig_chiral"])
    def test_a_wrong_declaration_is_solved_again(self, rng, route):
        # a partner that is not -H^T of its representative misses its
        # certificate and is solved alone by the dense route
        if route == "eig_chiral":
            b, c = random_hermitian(rng, 2, 5), random_hermitian(rng, 2, 5)
            s, h = eigen.eig_chiral(b, c, pairs=[[0, 1]]), chiral(b[1], c[1])
        else:
            stack = random_hermitian(rng, 2, 10)
            s, h = getattr(eigen, route)(stack, pairs=[[0, 1]]), stack[1]
        assert s.routes[1] == "dense_fallback"
        alone = eig(h)
        assert s.eigenvalues[1].tobytes() == alone.eigenvalues.tobytes()
        assert s.right_vectors[1].tobytes() == alone.right_vectors.tobytes()

    def test_hermitian_partner(self, rng):
        a = random_hermitian(rng, 10)
        s = eigen.eigh(np.stack([a, -a.conj()]), pairs=[[0, 1]])
        assert s.routes.tolist() == ["hermitian", "mirrored"]
        np.testing.assert_array_equal(s.eigenvalues[1], -s.eigenvalues[0][::-1])
        assert (s.eigenvalues[1].imag == 0.0).all() and not np.signbit(s.eigenvalues[1].imag).any()
        assert s.achieved_tol.max() <= eigen.default_tol(10)

    @pytest.mark.parametrize("zero_modes", [False, True])
    def test_chiral_partner(self, rng, zero_modes):
        b, c = random_matrix(rng, 8), random_matrix(rng, 8)
        if zero_modes:  # a near-zero cluster, resolved through the left vectors and the Ritz step
            b[:, 0], c[:, 1] = 0.0, 0.0
        s = eigen.eig_chiral(np.stack([b, -c.T]), np.stack([c, -b.T]), pairs=[[0, 1]])
        assert s.routes.tolist() == ["chiral", "mirrored"]
        h = chiral(-c.T, -b.T)
        v = s.right_vectors[1]
        res = np.linalg.norm(h @ v - v * s.eigenvalues[1], axis=0) / max(1.0, np.linalg.norm(h, "fro"))
        assert res.max() <= eigen.default_tol(16)
        assert match_eigenvalue_sets(s.eigenvalues[1], eig(h).eigenvalues) <= 1e-12 * np.linalg.norm(h)

    @pytest.mark.parametrize("n", [6, 2])
    def test_stacked_partner(self, rng, n):
        # Bloch-sized pairs: one stacked solve, the partner's vectors from V^-1
        a, other = random_matrix(rng, n), random_matrix(rng, n)
        stack = np.stack([a, other, -a.T, -other.T])
        s = eig(stack, pairs=[[0, 2], [1, 3]])
        assert s.routes.tolist() == ["dense", "dense", "mirrored", "mirrored"]
        for r, p in ((0, 2), (1, 3)):
            np.testing.assert_array_equal(s.eigenvalues[p], np.sort(-s.eigenvalues[r]))
        for h, w, v in zip(stack, s.eigenvalues, s.right_vectors):
            res = np.linalg.norm(h @ v - v * w, axis=0) / max(1.0, np.linalg.norm(h, "fro"))
            assert res.max() <= eigen.default_tol(n)
        for i, h in ((0, a), (1, other)):
            alone = eig(h)
            assert s.eigenvalues[i].tobytes() == alone.eigenvalues.tobytes()
            assert s.right_vectors[i].tobytes() == alone.right_vectors.tobytes()

    @pytest.mark.parametrize("block", [2, 3])
    def test_defective_representative_solves_its_partner_alone(self, rng, block):
        # a Jordan block: V^-1 reaches 1e291 for a 2x2 one, V is exactly
        # singular for a 3x3 one, so np.linalg.inv raises on the stack
        a = np.diag(np.arange(1.0, 7.0)).astype(complex)
        a[:block, :block] = np.diag(np.ones(block - 1), 1)
        other = random_matrix(rng, 6)
        s = eig(np.stack([a, other, -a.T, -other.T]), pairs=[[0, 2], [1, 3]])
        assert s.routes.tolist() == ["dense", "dense", "dense", "mirrored"]
        alone = eig(-a.T)
        assert s.eigenvalues[2].tobytes() == alone.eigenvalues.tobytes()
        assert s.right_vectors[2].tobytes() == alone.right_vectors.tobytes()

    def test_eig_stack_is_the_uncertified_solve(self, rng):
        # the one pair solve under eig, eig_chiral and the EP scan's grid, validating its own pairs
        a, other = random_matrix(rng, 6), random_matrix(rng, 6)
        w, v, mirrored = eigen.eig_stack(np.stack([a, other, -a.T]), [[0, 2]])
        assert mirrored.tolist() == [[0, 2]]
        np.testing.assert_array_equal(w[2], -w[0])
        ref_w, ref_v = np.linalg.eig(np.stack([a, other]))
        assert w[:2].tobytes() == ref_w.tobytes() and v[:2].tobytes() == ref_v.tobytes()
        x = v[2] / np.linalg.norm(v[2], axis=0)
        assert np.abs(-a.T @ x - x * w[2]).max() <= 1e-12 * np.linalg.norm(a)
        # sign +1: a partner that is its representative's transpose, as eig_chiral's B C
        w, v, mirrored = eigen.eig_stack(np.stack([a, a.T]), [[0, 1]], 1.0)
        assert mirrored.tolist() == [[0, 1]]
        np.testing.assert_array_equal(w[1], w[0])
        with pytest.raises(ValueError, match="^pairs must be distinct indices of the 2 matrices"):
            eigen.eig_stack(np.stack([a, other]), [[0, 0]])

    @pytest.mark.parametrize("pairs", [[[0, 0]], [[0, 1], [1, 2]], [[0, 3]], [[-1, 0]]])
    def test_pairs_must_be_distinct_indices(self, rng, pairs):
        with pytest.raises(ValueError, match="^pairs must be distinct indices of the 3 matrices"):
            eig(random_matrix(rng, 4)[None].repeat(3, axis=0), pairs=pairs)


class TestOverflowedNorm:
    """A Frobenius norm that overflows certifies nothing: residuals over it read 0 or nan, and every route raises."""

    @pytest.mark.parametrize("route", ["eig", "eigh", "eig_species"])
    def test_raises(self, rng, route):
        h = 1e200 * random_hermitian(rng, 6)
        solve = {
            "eig": lambda: eig(h),
            "eigh": lambda: eigen.eigh(h),
            "eig_species": lambda: eigen.eig_species(h[0, :4], 5),
        }[route]
        with np.errstate(all="ignore"), pytest.raises(ConvergenceError, match="^matrix norm overflowed: ") as info:
            solve()
        assert info.value.result.matrix_norm == np.inf

    def test_large_finite_norm_is_certified(self, rng):
        s = eig(1e150 * random_matrix(rng, 6))
        assert np.isfinite(s.matrix_norm) and s.achieved_tol <= eigen.default_tol(6)


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


class TestLazyScipy:
    """scipy.optimize and scipy.linalg are not loaded by importing the CLI."""

    @staticmethod
    def run(code):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        return json.loads(out.stdout)

    def test_cli_import_leaves_scipy_solvers_unloaded(self):
        loaded = self.run(
            "import json, sys\n"
            "import majorana_nh.cli\n"
            "print(json.dumps(sorted({'scipy.optimize', 'scipy.linalg'} & set(sys.modules))))\n"
        )
        assert loaded == []


class TestSlabTails:
    """The slab-wise tails give the bytes and layout of the whole-stack formulas they replace."""

    @staticmethod
    def whole_stack(a, b, c, w, v, norm):
        order = np.lexsort((w.imag, w.real), axis=-1)
        stack = np.indices(order.shape, sparse=True)[:-1]
        ws, vs = np.take_along_axis(w, order, -1), np.swapaxes(v, -1, -2)[(*stack, order)].swapaxes(-1, -2)
        scale = np.maximum(1.0, norm)[:, None]
        res = np.linalg.norm(a @ v - v * w[..., None, :], axis=-2) / scale
        m = b.shape[-1]
        top = np.linalg.norm(b @ v[:, m:] - v[:, :m] * w[:, None, :], axis=-2)
        bottom = np.linalg.norm(c @ v[:, :m] - v[:, m:] * w[:, None, :], axis=-2)
        units = v / np.linalg.norm(v, axis=-2, keepdims=True)
        return ws, vs, res, np.hypot(top, bottom) / scale, units

    @pytest.mark.parametrize("entries", [None, 2**6], ids=["default", "tiny"])
    @pytest.mark.parametrize("layout", ["C", "F"])
    @pytest.mark.parametrize("k, n", [(1, 2), (3, 2), (5, 6), (2, 150), (1, 200)])
    def test_bitwise_the_whole_stack_formulas(self, rng, monkeypatch, k, n, layout, entries):
        if entries:  # many slabs, and blocks of uneven widths
            monkeypatch.setattr(eigen, "_SLAB_ENTRIES", entries)
            monkeypatch.setattr(eigen, "_BLOCK_ENTRIES", entries)
        a = np.stack([random_matrix(rng, n) for _ in range(k)])
        b, c = a[:, : n // 2, : n // 2].copy(), a[:, n // 2 :, n // 2 :].copy()
        w = rng.normal(size=(k, n)) + 1j * rng.normal(size=(k, n))
        v = np.stack([random_matrix(rng, n) for _ in range(k)])
        if layout == "F":
            v = np.swapaxes(np.ascontiguousarray(np.swapaxes(v, -1, -2)), -1, -2)
        norm = rng.uniform(0.5, 3.0, k)
        ws, vs, res, chiral_res, units = self.whole_stack(a, b, c, w, v, norm)
        w2, v2 = eigen._sort_pairs(w.copy(), v.copy())
        assert w2.tobytes() == ws.tobytes() and v2.tobytes() == vs.tobytes() and v2.strides == vs.strides
        assert eigen._column_norms(v).tobytes() == np.linalg.norm(v, axis=-2).tobytes()
        assert eigen._residuals(a, w, v, norm).tobytes() == res.tobytes()
        assert eigen._chiral_residuals(b, c, w, v, norm).tobytes() == chiral_res.tobytes()
        v2 = v.copy(order="K")
        assert eigen._unit_columns(v2) is v2 and v2.tobytes() == units.tobytes()


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
