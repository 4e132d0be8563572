"""Strip construction, torus oracle, localization diagnostics, skin summary."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from majorana_nh import (
    CloudIntervals,
    ConvergenceError,
    Coupling3,
    ModelConfig,
    RibbonSpec,
    Variant,
    bloch_hamiltonian,
    bloch_matrix_grid,
    build_ribbon,
    diagonalize_ribbon,
    edge_mode_weights,
    eig,
    k_from_bond_phase,
    localization_profile,
    match_eigenvalue_sets,
    nhse_summary,
    pbc_cloud_intervals,
    skin_criterion_any,
    sweep,
)
from majorana_nh import eigen, ribbon
from majorana_nh.eigen import Spectrum
from majorana_nh.models import effective_couplings
from conftest import random_complex_coupling

E3 = cmath.exp(1j * math.pi / 3)
E6 = cmath.exp(1j * math.pi / 6)


def _variant_zoo(rng):
    return [
        ModelConfig(Variant.PURE_YL, random_complex_coupling(rng)),
        ModelConfig(
            Variant.K_MODEL,
            random_complex_coupling(rng),
            k_coupling=complex(rng.normal(), rng.normal()) * 0.3,
        ),
        ModelConfig(
            Variant.GAMMA_MODEL,
            random_complex_coupling(rng),
            gamma=complex(rng.normal(), rng.normal()) * 0.3,
        ),
        ModelConfig(
            Variant.MAG_MODEL,
            random_complex_coupling(rng),
            d=rng.uniform(-0.6, 0.6),
            b_field=tuple(rng.uniform(-0.8, 0.8, 3)),
        ),
    ]


def torus_union(model, w, kx):
    """Oracle: Bloch eigenvalues at the w quantized transverse momenta."""
    vals = []
    for n in range(w):
        q = 2 * np.pi * n / w
        th = np.array([kx / 2 - q, -kx / 2 - q])
        k = k_from_bond_phase(th)
        vals.extend(np.linalg.eigvals(bloch_hamiltonian(model, k).entries))
    return np.asarray(vals)


class TestBuildRibbon:
    def test_dimension_law(self):
        model = ModelConfig(Variant.PURE_YL, Coupling3(1, 1, 1))
        for w in (2, 5, 52):
            h = build_ribbon(RibbonSpec(w=w, boundary_y="open", k_x=0.3, model=model))
            assert h.shape == (6 * w, 6 * w)

    def test_w_floor(self):
        model = ModelConfig(Variant.PURE_YL, Coupling3(1, 1, 1))
        with pytest.raises(ValueError):
            RibbonSpec(w=1, boundary_y="open", k_x=0.0, model=model)

    def test_antisymmetry_in_kx(self, rng):
        for model in _variant_zoo(rng):
            kx = rng.uniform(-np.pi, np.pi)
            hp = build_ribbon(RibbonSpec(w=6, boundary_y="open", k_x=kx, model=model))
            hm = build_ribbon(RibbonSpec(w=6, boundary_y="open", k_x=-kx, model=model))
            assert np.abs(hp + hm.T).max() < 1e-13

    def test_hermitian_for_real_couplings(self, rng):
        model = ModelConfig(Variant.MAG_MODEL, Coupling3(2, 1, 1.5), d=0.4, b_field=(0.1, 0.3, 0.7))
        kx = rng.uniform(-np.pi, np.pi)
        h = build_ribbon(RibbonSpec(w=8, boundary_y="open", k_x=kx, model=model))
        assert np.abs(h - h.conj().T).max() < 1e-13

    @pytest.mark.parametrize("w", [2, 3, 8, 24])
    def test_torus_oracle_all_variants(self, rng, w):
        for model in _variant_zoo(rng):
            kx = rng.uniform(-np.pi, np.pi)
            h = build_ribbon(RibbonSpec(w=w, boundary_y="periodic", k_x=kx, model=model))
            ribbon_vals = np.linalg.eigvals(h)
            assert match_eigenvalue_sets(ribbon_vals, torus_union(model, w, kx)) < 1e-8

    def test_reductions_to_pure_model(self, rng):
        j = random_complex_coupling(rng)
        kx = rng.uniform(-np.pi, np.pi)
        base = build_ribbon(
            RibbonSpec(w=6, boundary_y="open", k_x=kx, model=ModelConfig(Variant.PURE_YL, j))
        )
        for model in (
            ModelConfig(Variant.K_MODEL, j, k_coupling=0.0),
            ModelConfig(Variant.GAMMA_MODEL, j, gamma=0.0),
            ModelConfig(Variant.MAG_MODEL, j, d=0.0, b_field=(0, 0, 0)),
        ):
            h = build_ribbon(RibbonSpec(w=6, boundary_y="open", k_x=kx, model=model))
            np.testing.assert_array_equal(h, base)


K_FIG2B = ModelConfig(Variant.K_MODEL, Coupling3(2, 1, 2.5 * E3), k_coupling=0.4, energy_scale="half")
GAMMA_FIG3B = ModelConfig(Variant.GAMMA_MODEL, Coupling3(2, 1, 2.5 * E3), gamma=0.4, energy_scale="half")
MAG_FIELD = ModelConfig(Variant.MAG_MODEL, Coupling3(1, 1, E3), d=0.5, b_field=(0.0, 0.0, 0.7), energy_scale="half")


class TestStripSolverContract:
    """Both paths of ``diagonalize_ribbon`` keep the ``eigen.eig`` contract."""

    def _solve(self, model, monkeypatch, tol=None, w=10, kx=0.7):
        # (solver, shapes of its matrix arguments) of every strip solve
        calls = []

        def recording(name):
            real = getattr(eigen, name)

            def solver(*matrices, **kwargs):
                calls.append((name, *(np.shape(a) for a in matrices)))
                return real(*matrices, **kwargs)

            monkeypatch.setattr(eigen, name, solver)

        recording("eig")
        recording("eig_chiral")
        spec = RibbonSpec(w=w, boundary_y="open", k_x=kx, model=model)
        return build_ribbon(spec), calls, diagonalize_ribbon(spec, tol=tol)

    def _check_residual_bound(self, h, s, tol):
        norm = np.linalg.norm(h, "fro")
        v = s.right_vectors
        independent = np.linalg.norm(h @ v - v * s.eigenvalues, axis=0) / max(1.0, norm)
        assert independent.max() <= tol
        assert s.achieved_tol == s.residuals.max() <= tol
        np.testing.assert_allclose(s.residuals, independent, rtol=0.5, atol=1e-15)
        np.testing.assert_allclose(np.linalg.norm(v, axis=0), 1.0, atol=1e-13)
        # summed in another order, the norm may differ in the last bit
        assert s.matrix_norm == pytest.approx(norm, rel=1e-14)
        assert not s.defective_flags.any()
        order = np.lexsort((s.eigenvalues.imag, s.eigenvalues.real))
        np.testing.assert_array_equal(order, np.arange(s.n))

    def test_block_path_residual_bound(self, monkeypatch):
        h, calls, s = self._solve(K_FIG2B, monkeypatch, tol=1e-12)
        # one certified solve of the species stack's B and C blocks
        assert calls == [("eig_chiral", (3, 10, 10), (3, 10, 10))]
        assert s.path == "chiral"
        self._check_residual_bound(h, s, 1e-12)
        # each eigenvector lives on a single flavour
        support = np.abs(s.right_vectors).reshape(-1, 3, s.n).sum(axis=0) > 0
        assert (support.sum(axis=0) == 1).all()

    def test_dense_path_residual_bound(self, monkeypatch):
        # a bond-only strip that mixes the flavours: one chiral solve of its
        # 3w x 3w blocks; an onsite field takes the dense solve of the strip
        h, calls, s = self._solve(GAMMA_FIG3B, monkeypatch, tol=1e-12)
        assert calls == [("eig_chiral", (30, 30), (30, 30))]
        assert s.path == "chiral"
        self._check_residual_bound(h, s, 1e-12)
        h, calls, s = self._solve(MAG_FIELD, monkeypatch, tol=1e-12)
        assert calls == [("eig", (60, 60))]
        assert s.path == "dense"
        self._check_residual_bound(h, s, 1e-12)

    def test_block_path_raises_on_unmet_tolerance(self):
        spec = RibbonSpec(w=10, boundary_y="open", k_x=0.7, model=K_FIG2B)
        with pytest.raises(ConvergenceError):
            diagonalize_ribbon(spec, tol=1e-30)

    def test_parent_model_solves_one_species(self, monkeypatch):
        # the three species of the parent model coincide: one 2w x 2w block
        # stands for all three, byte-identical to stacking all three
        j = Coupling3(2 * E3, E6, 2.5)
        _, calls, s = self._solve(ModelConfig(Variant.PURE_YL, j), monkeypatch)
        assert calls == [("eig_chiral", (1, 10, 10), (1, 10, 10))]
        _, calls_k, s_k = self._solve(ModelConfig(Variant.K_MODEL, j, k_coupling=0.0), monkeypatch)
        assert calls_k == [("eig_chiral", (3, 10, 10), (3, 10, 10))]
        assert s.eigenvalues.tobytes() == s_k.eigenvalues.tobytes()
        assert s.right_vectors.tobytes() == s_k.right_vectors.tobytes()

    @settings(max_examples=40)
    @given(
        variant=st.sampled_from([Variant.PURE_YL, Variant.K_MODEL]),
        moduli=st.tuples(*[st.floats(0.5, 2.2)] * 3),
        phases=st.tuples(*[st.floats(-np.pi, np.pi)] * 3),
        k_coupling=st.tuples(st.floats(-0.6, 0.6), st.floats(-0.6, 0.6)),
        real=st.booleans(),
        scale=st.sampled_from(["raw", "half"]),
        w=st.integers(2, 12),
        boundary=st.sampled_from(ribbon.BOUNDARIES),
        kx=st.floats(-np.pi, np.pi),
    )
    def test_block_path_matches_dense(
        self, variant, moduli, phases, k_coupling, real, scale, w, boundary, kx
    ):
        # the species blocks reproduce the dense strip matrix's eigenpairs
        if real:
            j, kc = Coupling3(*moduli), complex(k_coupling[0])
        else:
            j, kc = Coupling3.from_polar(moduli, phases), complex(*k_coupling)
        extra = {"k_coupling": kc} if variant is Variant.K_MODEL else {}
        model = ModelConfig(variant, j, energy_scale=scale, **extra)
        spec = RibbonSpec(w=w, boundary_y=boundary, k_x=kx, model=model)
        h = build_ribbon(spec)
        s = diagonalize_ribbon(spec)
        norm = max(1.0, np.linalg.norm(h, "fro"))
        dense = eig(h).eigenvalues
        assert match_eigenvalue_sets(s.eigenvalues, dense) <= 1e-9 * norm
        v = s.right_vectors
        assert (np.linalg.norm(h @ v - v * s.eigenvalues, axis=0) / norm).max() <= eigen.default_tol(6 * w)
        # each eigenvector lives on a single flavour
        support = np.abs(v).reshape(-1, 3, s.n).sum(axis=0) > 0
        assert (support.sum(axis=0) == 1).all()

    @settings(max_examples=60)
    @given(
        variant=st.sampled_from(list(Variant)),
        moduli=st.tuples(*[st.floats(0.5, 2.2)] * 3),
        phases=st.tuples(*[st.floats(-np.pi, np.pi)] * 3),
        second=st.tuples(st.floats(-0.6, 0.6), st.floats(-0.6, 0.6)),
        real=st.booleans(),
        scale=st.sampled_from(["raw", "half"]),
        w=st.integers(2, 12),
        boundary=st.sampled_from(ribbon.BOUNDARIES),
        kx=st.floats(-np.pi, np.pi),
    )
    def test_chiral_path_matches_dense(
        self, variant, moduli, phases, second, real, scale, w, boundary, kx
    ):
        # every bond-only strip (field+DMI without a field) is solved from its
        # B and C blocks, species by species where the flavours stay apart; it
        # reproduces the dense strip matrix's eigenpairs, certified on H
        if real:
            j, coupling = Coupling3(*moduli), complex(second[0])
        else:
            j, coupling = Coupling3.from_polar(moduli, phases), complex(*second)
        extra = {
            Variant.PURE_YL: {},
            Variant.K_MODEL: {"k_coupling": coupling},
            Variant.GAMMA_MODEL: {"gamma": coupling},
            Variant.MAG_MODEL: {"d": second[0]},
        }[variant]
        model = ModelConfig(variant, j, energy_scale=scale, **extra)
        spec = RibbonSpec(w=w, boundary_y=boundary, k_x=kx, model=model)
        h = build_ribbon(spec)
        s = diagonalize_ribbon(spec)
        assert s.path in (("hermitian",) if model.hermitian else ("chiral", "dense_fallback"))
        norm = max(1.0, np.linalg.norm(h, "fro"))
        dense = eig(h).eigenvalues
        assert match_eigenvalue_sets(s.eigenvalues, dense) <= 1e-9 * norm
        v = s.right_vectors
        assert (np.linalg.norm(h @ v - v * s.eigenvalues, axis=0) / norm).max() <= eigen.default_tol(6 * w)
        if ribbon.species(model) is not None:
            # each eigenvector lives on a single flavour
            support = np.abs(v).reshape(-1, 3, s.n).sum(axis=0) > 0
            assert (support.sum(axis=0) == 1).all()

    @settings(max_examples=60)
    @given(
        variant=st.sampled_from(list(Variant)),
        j=st.tuples(*[st.floats(-2.2, 2.2)] * 3),
        second=st.floats(-0.6, 0.6),
        field=st.tuples(*[st.floats(-0.8, 0.8)] * 3),
        with_field=st.booleans(),
        scale=st.sampled_from(["raw", "half"]),
        w=st.integers(2, 12),
        boundary=st.sampled_from(ribbon.BOUNDARIES),
        kx=st.floats(-np.pi, np.pi),
    )
    def test_hermitian_path_matches_dense(
        self, variant, j, second, field, with_field, scale, w, boundary, kx
    ):
        # real couplings declare a Hermitian strip, solved by eigh: real
        # eigenvalues, orthonormal vectors, the dense strip matrix's spectrum
        extra = {
            Variant.PURE_YL: {},
            Variant.K_MODEL: {"k_coupling": second},
            Variant.GAMMA_MODEL: {"gamma": second},
            Variant.MAG_MODEL: {"d": second, "b_field": field if with_field else (0, 0, 0)},
        }[variant]
        model = ModelConfig(variant, Coupling3(*j), energy_scale=scale, **extra)
        assert model.hermitian
        spec = RibbonSpec(w=w, boundary_y=boundary, k_x=kx, model=model)
        h = build_ribbon(spec)
        s = diagonalize_ribbon(spec)
        assert s.path == "hermitian"
        assert (s.eigenvalues.imag == 0.0).all()
        assert not s.defective_flags.any()
        norm = max(1.0, np.linalg.norm(h, "fro"))
        assert match_eigenvalue_sets(s.eigenvalues, eig(h).eigenvalues) <= 1e-9 * norm
        v = s.right_vectors
        assert (np.linalg.norm(h @ v - v * s.eigenvalues, axis=0) / norm).max() <= eigen.default_tol(6 * w)
        np.testing.assert_allclose(v.conj().T @ v, np.eye(s.n), atol=1e-12)
        if ribbon.species(model) is not None:
            # each eigenvector lives on a single flavour
            support = np.abs(v).reshape(-1, 3, s.n).sum(axis=0) > 0
            assert (support.sum(axis=0) == 1).all()

    @settings(max_examples=60)
    @given(
        variant=st.sampled_from(list(Variant)),
        j=st.tuples(*[st.floats(-2.2, 2.2)] * 3),
        second=st.floats(-0.6, 0.6),
        field=st.tuples(*[st.floats(-0.8, 0.8)] * 3),
        w=st.integers(2, 8),
        kx=st.floats(-np.pi, np.pi),
        k=st.tuples(st.floats(-np.pi, np.pi), st.floats(-np.pi, np.pi)),
        pick=st.integers(0, 3),
        imag=st.floats(0.1, 1.0),
    )
    def test_hermitian_declaration_matches_matrices(self, variant, j, second, field, w, kx, k, pick, imag):
        # the declaration holds exactly when the strip and Bloch matrices are
        # Hermitian; an imaginary part on any one coupling breaks both
        def model(couplings):
            extra = {
                Variant.PURE_YL: {},
                Variant.K_MODEL: {"k_coupling": couplings[3]},
                Variant.GAMMA_MODEL: {"gamma": couplings[3]},
                Variant.MAG_MODEL: {"d": second, "b_field": field},
            }[variant]
            return ModelConfig(variant, Coupling3(*couplings[:3]), **extra)

        def hermiticity_gap(m):
            h = build_ribbon(RibbonSpec(w=w, boundary_y="open", k_x=kx, model=m))
            g = bloch_matrix_grid(m, np.array([k, (0.3, -1.1)]))
            return max(np.abs(h - h.conj().T).max(), np.abs(g - g.conj().swapaxes(-1, -2)).max())

        real = [*j, second]
        assert model(real).hermitian and hermiticity_gap(model(real)) <= 1e-13
        # pure YL and field+DMI carry only the three j couplings
        pick %= 4 if variant in (Variant.K_MODEL, Variant.GAMMA_MODEL) else 3
        real[pick] += 1j * imag
        assert not model(real).hermitian and hermiticity_gap(model(real)) > 1e-13


class TestLocalizationProfile:
    def _delta_spectrum(self, w, site):
        n = 6 * w
        v = np.zeros((n, n), dtype=complex)
        # all weight on one lattice site, any flavour
        for i in range(n):
            v[3 * site, i] = 1.0
        return Spectrum(
            eigenvalues=np.zeros(n, dtype=complex),
            right_vectors=v,
            left_vectors=None,
            residuals=np.zeros(n),
            defective_flags=np.zeros(n, dtype=bool),
            achieved_tol=0.0,
            matrix_norm=1.0,
        )

    def _uniform_spectrum(self, w):
        n = 6 * w
        v = np.full((n, n), 1 / math.sqrt(n), dtype=complex)
        return Spectrum(np.zeros(n, complex), v, None, np.zeros(n), np.zeros(n, bool), 0.0, 1.0)

    def test_delta_state_bottom_edge(self):
        w = 8
        recs = localization_profile(self._delta_spectrum(w, 0), w)
        assert recs[0].mean_row == pytest.approx(1.0)
        assert recs[0].ipr == pytest.approx(1.0)
        assert recs[0].label == "edge_bottom"

    def test_uniform_state_extended(self):
        w = 8
        recs = localization_profile(self._uniform_spectrum(w), w)
        assert recs[0].mean_row == pytest.approx((2 * w + 1) / 2)
        assert recs[0].ipr == pytest.approx(1 / (2 * w))
        assert recs[0].label == "extended"

    def test_off_cloud_gate_needs_a_cloud(self):
        # a uniform state is never localized: without a cloud it stays
        # extended, but a cloud it sits off makes it a boundary mode
        w = 8
        s = self._uniform_spectrum(w)
        assert {r.label for r in localization_profile(s, w)} == {"extended"}
        recs = localization_profile(s, w, CloudIntervals(bounds=np.array([[1.0, 1.0]])))
        assert recs[0].cloud_distance == pytest.approx(1.0)
        assert recs[0].label.startswith("edge")

    def test_hermitian_long_decay_boundary_modes_are_edge(self):
        # at k_x = +-0.3 pi the zero-energy edge band of this Hermitian strip
        # has merged into the bulk: its two off-cloud states decay too slowly
        # to pass the localized test, yet off the Bloch continuum of a
        # Hermitian strip they can only be bound states
        model = ModelConfig(Variant.K_MODEL, Coupling3(2, 1, 2.5), k_coupling=0.4)
        w = 52
        for kx in (0.3 * np.pi, -0.3 * np.pi):
            s = diagonalize_ribbon(RibbonSpec(w=w, boundary_y="open", k_x=kx, model=model))
            recs = localization_profile(s, w, pbc_cloud_intervals(model, kx, 8192))
            off = [r for r in recs if r.cloud_distance > 1e-2]
            assert len(off) == 2
            for r in off:
                assert abs(r.eigenvalue) == pytest.approx(0.022, abs=1e-3)
                assert r.cloud_distance == pytest.approx(0.355, abs=1e-3)
                assert r.mass_bottom + r.mass_top < 0.6
                assert r.label.startswith("edge")

    def test_double_edge_peaks_not_extended(self):
        w = 8
        n = 6 * w
        v = np.zeros((n, n), dtype=complex)
        v[0, :] = 1 / math.sqrt(2)        # bottom site, flavour x
        v[n - 3, :] = 1 / math.sqrt(2)    # top site, flavour x
        s = Spectrum(np.zeros(n, complex), v, None, np.zeros(n), np.zeros(n, bool), 0.0, 1.0)
        recs = localization_profile(s, w)
        assert recs[0].mean_row == pytest.approx((2 * w + 1) / 2)
        assert recs[0].label != "extended"
        assert recs[0].ipr == pytest.approx(0.5)

    def test_weights_normalized_and_ipr_bounds(self, rng):
        model = ModelConfig(Variant.GAMMA_MODEL, random_complex_coupling(rng), gamma=0.3)
        w = 6
        s = diagonalize_ribbon(RibbonSpec(w=w, boundary_y="open", k_x=0.9, model=model))
        from majorana_nh.ribbon import site_weights

        ws = site_weights(s, w)
        np.testing.assert_allclose(ws.sum(axis=0), 1.0, atol=1e-12)
        recs = localization_profile(s, w)
        for r in recs:
            assert 1 / (2 * w) - 1e-12 <= r.ipr <= 1 + 1e-12
            assert 1.0 <= r.mean_row <= 2 * w

    def test_dimension_mismatch(self):
        w = 8
        with pytest.raises(ValueError):
            localization_profile(self._delta_spectrum(w, 0), w + 1)

    def test_edge_cap_order(self):
        # nine extended states off the cloud [2, 3] compete for six edge
        # slots: farthest first, then the smaller |E|, then the lower index
        w = 2
        e = np.array([0.5, 4.0, 1.0, -4.0, 2.5, 5.0, 4j, 2.995, 1j, 3.5, -0.5, 2.0])
        s = self._uniform_spectrum(w)
        s = Spectrum(e, s.right_vectors, None, np.zeros(12), np.zeros(12, bool), 0.0, 1.0)
        recs = localization_profile(s, w, CloudIntervals(bounds=np.array([[2.0, 3.0]])))
        # distances: 5 -> 2; 0, 10 -> 1.5; 2, 8 (|E| 1) and 1, 3, 6 (|E| 4) -> 1; 9 -> 0.5
        edge = {int(r.state_index) for r in recs if r.label.startswith("edge")}
        assert edge == {5, 0, 10, 2, 8, 1}
        assert set(recs.label[[3, 4, 6, 7, 9, 11]]) == {"extended"}


class TestEdgeModeWeights:
    def test_hermitian_zero_modes_decay_from_edges(self):
        # snapshot momentum 2*pi/3 lies inside the flat-band window of this
        # Hermitian parameter set; one zero mode per edge and species
        model = ModelConfig(Variant.K_MODEL, Coupling3(2, 1, 2.5), k_coupling=0.4)
        idx, vals, profiles = edge_mode_weights(model, 24, 2 * np.pi / 3, states=6)
        assert profiles.shape == (6, 48)
        assert np.abs(vals).max() < 0.05  # zero-mode band (finite-width splitting)
        for prof in profiles:
            outer = prof[:5].sum() + prof[-5:].sum()
            assert outer > 0.5
            assert prof.argmax() in (0, 1, 46, 47)

    def test_log01_normalization(self):
        model = ModelConfig(Variant.PURE_YL, Coupling3(1, 1, 1))
        _, _, profiles = edge_mode_weights(model, 12, 2 * np.pi / 3, states=2, normalization="log01")
        assert profiles.min() == pytest.approx(0.0)
        assert profiles.max() == pytest.approx(1.0)
        for prof in profiles:
            assert prof.min() == pytest.approx(0.0) and prof.max() == pytest.approx(1.0)

    def test_log01_two_value_profile(self):
        # affine rescaling sends {1e-8, 1} to {0, 1}
        logs = np.log(np.array([1e-8, 1.0]))
        scaled = (logs - logs.min()) / (logs.max() - logs.min())
        np.testing.assert_allclose(scaled, [0, 1], atol=1e-15)

    def test_linear_sums_to_one(self):
        model = ModelConfig(Variant.GAMMA_MODEL, Coupling3(2, 1, 2.5 * E3), gamma=0.4)
        _, _, profiles = edge_mode_weights(model, 12, np.pi / 3, states=5)
        np.testing.assert_allclose(profiles.sum(axis=1), 1.0, atol=1e-12)

    def test_empty_selection_rejected(self):
        model = ModelConfig(Variant.PURE_YL, Coupling3(1, 1, 1))
        with pytest.raises(ValueError):
            edge_mode_weights(model, 8, 0.5, states=[])
        with pytest.raises(ValueError):
            edge_mode_weights(model, 8, 0.5, states=0)
        # indices outside [0, 6w): no wrap-around from the end, no bare IndexError
        for states in ([-1, 0], [48]):
            with pytest.raises(ValueError, match=r"state indices must lie in \[0, 48\)"):
                edge_mode_weights(model, 8, 0.5, states=states)


class TestSweepAndSummary:
    def test_record_counts_and_order(self, rng):
        model = ModelConfig(Variant.K_MODEL, Coupling3(2, 1, 2.5), k_coupling=0.4)
        kxs = np.linspace(-np.pi, np.pi, 6, endpoint=False)
        res = sweep(model, 6, kxs, n_transverse=128)
        assert all(len(recs) == 36 for recs in res.records)
        for recs in res.records:
            assert [r.state_index for r in recs] == list(range(36))

    def test_threads_reproduce_serial(self):
        model = ModelConfig(Variant.GAMMA_MODEL, Coupling3(2, 1, 2.5 * E3), gamma=0.4)
        kxs = np.linspace(-np.pi, np.pi, 4, endpoint=False)
        r1 = sweep(model, 6, kxs, n_transverse=64)
        r2 = sweep(model, 6, kxs, n_transverse=64, threads=3)
        for a_recs, b_recs in zip(r1.records, r2.records):
            for a, b in zip(a_recs, b_recs):
                assert a == b

    def test_empty_grid_rejected(self):
        model = ModelConfig(Variant.PURE_YL, Coupling3(1, 1, 1))
        with pytest.raises(ValueError):
            sweep(model, 6, [])

    def test_hermitian_no_skin(self):
        model = ModelConfig(Variant.K_MODEL, Coupling3(2, 1, 2.5), k_coupling=0.4)
        kxs = np.linspace(-np.pi, np.pi, 8, endpoint=False)
        summ = nhse_summary(sweep(model, 12, kxs, n_transverse=1024))
        assert not summ.nhse_present

    @pytest.fixture
    def blas_at_two(self):
        """The bundled OpenBLAS copies at two threads, restored afterwards."""
        saved = [(set_, get()) for get, set_ in eigen._BLAS_THREADS]
        for set_, _ in saved:
            set_(2)
        yield
        for set_, count in saved:
            set_(count)

    @staticmethod
    def blas_counts():
        return [get() for get, _ in eigen._BLAS_THREADS]

    @pytest.mark.parametrize("threads", [1, 2])
    def test_worker_error_keeps_its_object(self, monkeypatch, blas_at_two, threads):
        model = ModelConfig(Variant.PURE_YL, Coupling3(1, 1, E3))
        self._check_worker_error(monkeypatch, threads, "eig_chiral", model)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_hermitian_worker_error_keeps_its_object(self, monkeypatch, blas_at_two, threads):
        model = ModelConfig(Variant.PURE_YL, Coupling3(1, 1, 1))
        self._check_worker_error(monkeypatch, threads, "eigh", model)

    def _check_worker_error(self, monkeypatch, threads, solver, model):
        # a solver failure at one k_x surfaces as the same exception object,
        # its best-effort result kept and its message naming the k_x; BLAS
        # ran at one thread in the solve and is back at its count afterwards
        s = eig(np.eye(2))
        in_solve = []

        def failing_eig(*matrices, tol=None, norm=None):
            in_solve.append(self.blas_counts())
            raise ConvergenceError("residual target missed", result=s)

        before = self.blas_counts()
        monkeypatch.setattr(eigen, solver, failing_eig)
        with pytest.raises(ConvergenceError, match=r"^k_x = 0\.5: residual target missed$") as info:
            sweep(model, 6, [0.5], threads=threads)
        assert info.value.result is s
        assert in_solve == [[1] * len(before)]
        assert self.blas_counts() == before

    def test_blas_pinned_in_solves_and_restored(self, monkeypatch, blas_at_two):
        model = ModelConfig(Variant.GAMMA_MODEL, Coupling3(2, 1, 2.5 * E3), gamma=0.4)
        real_eig, in_solve = eigen.eig_chiral, []

        def counting_eig(b, c, tol=None, norm=None):
            in_solve.append(self.blas_counts())
            return real_eig(b, c, tol=tol, norm=norm)

        before = self.blas_counts()
        monkeypatch.setattr(eigen, "eig_chiral", counting_eig)
        sweep(model, 4, [-0.5, 0.5], n_transverse=32, threads=2)
        edge_mode_weights(model, 4, 0.5)
        assert in_solve == [[1] * len(before)] * 3
        assert self.blas_counts() == before

    def test_summary_requires_cloud(self):
        model = ModelConfig(Variant.PURE_YL, Coupling3(1, 1, 1))
        res = sweep(model, 6, [0.5], pbc_reference=False)
        with pytest.raises(ValueError):
            nhse_summary(res)

    def test_summary_of_hand_built_records(self):
        # four k_x of four states; edge states carry large (bottom - top)
        # masses that must stay out of delta_mass
        kxs = np.array([-np.pi, -np.pi / 2, 0.0, np.pi / 2])
        rec = np.zeros((4, 4), dtype=ribbon.STATE_DTYPE).view(np.recarray)
        rec.state_index = np.arange(4)
        rec.label = [
            ["edge_bottom", "bulk_localized_bottom", "bulk_localized_bottom", "extended"],
            ["extended"] * 4,
            ["edge_top", "bulk_localized_top", "bulk_localized_top", "extended"],
            ["edge_top", "edge_bottom", "bulk_localized_top", "extended"],
        ]
        rec.mass_bottom = [[0.9, 0.4, 0.4, 0.1], [0.1] * 4, [0.0, 0.1, 0.1, 0.1], [0.0, 0.9, 0.1, 0.1]]
        rec.mass_top = [[0.0, 0.1, 0.1, 0.1], [0.1] * 4, [0.9, 0.4, 0.4, 0.1], [0.9, 0.0, 0.5, 0.1]]
        res = ribbon.SweepResult(
            model=ModelConfig(Variant.PURE_YL, Coupling3(1, 1, 1)),
            w=2,
            boundary_y="open",
            kx_grid=kxs,
            records=rec,
            pbc_reference=[CloudIntervals(bounds=np.array([[0.0, 1.0]]))] * 4,
            thresholds=ribbon.ClassifierThresholds(),
            max_residual=0.0,
            strip_solves={},
        )
        summ = nhse_summary(res)
        assert [(s.n_edge, s.n_bulk) for s in summ.per_kx] == [(1, 3), (0, 4), (1, 3), (2, 2)]
        assert [(s.frac_bottom, s.frac_top, s.frac_extended) for s in summ.per_kx] == pytest.approx(
            [(2 / 3, 0, 1 / 3), (0, 0, 1), (0, 2 / 3, 1 / 3), (0, 0.5, 0.5)]
        )
        assert [s.delta_mass for s in summ.per_kx] == pytest.approx([0.2, 0.0, -0.2, -0.2])
        assert summ.bulk_localized_fraction == pytest.approx(5 / 12)
        assert summ.nhse_present
        # one sign change inside the grid, one across the wrap from pi/2 to -pi + 2 pi
        assert summ.flip_kx == pytest.approx([-np.pi / 2, 3 * np.pi / 4])

    def test_k_model_skin_consistency_small(self, rng):
        # summary verdict against the phase-asymmetry criterion on clearly
        # non-marginal draws (the statistical version with marginality logging
        # is an acceptance criterion)
        for _ in range(12):
            kind = rng.integers(0, 3)
            mods = rng.uniform(0.6, 2.0, 3)
            if kind == 0:
                j = Coupling3(*mods)
            elif kind == 1:
                j = Coupling3(mods[0], mods[1], mods[2] * np.exp(1j * rng.uniform(0.3, 3)))
            else:
                # keep the x-y phase difference well away from 0 and pi
                j = Coupling3(
                    mods[0] * np.exp(1j * rng.uniform(0.4, 1.2)),
                    mods[1] * np.exp(-1j * rng.uniform(0.4, 1.2)),
                    mods[2],
                )
            model = ModelConfig(Variant.K_MODEL, j, k_coupling=0.4)
            theory = any(
                skin_criterion_any(j_eff) for j_eff in effective_couplings(j, 0.4)
            )
            kxs = np.linspace(-np.pi, np.pi, 4, endpoint=False)
            summ = nhse_summary(sweep(model, 12, kxs, n_transverse=1024))
            assert summ.nhse_present == theory

    def test_flip_detection_field_dmi_model(self):
        model = ModelConfig(
            Variant.MAG_MODEL, Coupling3(E3, E6, 1), d=0.5, b_field=(0, 0, 0.7)
        )
        kxs = np.linspace(-np.pi, np.pi, 12, endpoint=False)
        summ = nhse_summary(sweep(model, 16, kxs, n_transverse=1024))
        assert summ.nhse_present
        spacing = 2 * np.pi / 12
        targets = [0.0, np.pi]
        assert len(summ.flip_kx) >= 2
        for t in targets:
            d = min(
                min(abs(f - t), 2 * np.pi - abs(f - t)) for f in summ.flip_kx
            )
            assert d <= spacing

    def test_cloud_methods_agree(self, rng):
        # the closed-form reference against a dense eigensolve of the Bloch
        # matrices at the same momenta: theta1 = k_x/2 - q, theta2 = -k_x/2 - q
        model = ModelConfig(Variant.K_MODEL, Coupling3(2, 1, 2.5 * E3), k_coupling=0.4)
        kx = rng.uniform(-np.pi, np.pi)
        q = np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False)
        ks = k_from_bond_phase(np.stack([0.5 * kx - q, -0.5 * kx - q], axis=-1))
        c1 = ribbon._cloud_samples(model, kx, 64)
        c2 = np.linalg.eigvals(bloch_matrix_grid(model, ks))
        assert c1.shape == c2.shape == (64, 6)
        for a, b in zip(c1, c2):
            assert match_eigenvalue_sets(a, b) < 1e-9
