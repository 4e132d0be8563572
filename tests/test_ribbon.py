"""Strip construction, torus oracle, localization diagnostics, skin summary."""

import cmath
import math
import re
import sys
import threading
import tracemalloc

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
    nhse_summary,
    pbc_cloud_intervals,
    skin_criterion_any,
    sweep,
)
from majorana_nh import eigen, ribbon
from majorana_nh.eigen import Spectrum
from majorana_nh.models import effective_couplings
from majorana_nh.pipelines import _kx_grid
from majorana_nh.presets import get_preset
from conftest import match_eigenvalue_sets, random_complex_coupling

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

            def solver(*args, **kwargs):
                # matrix and bond-scalar arguments by shape, the strip width by value
                calls.append((name, *(np.shape(a) if np.ndim(a) else a for a in args)))
                return real(*args, **kwargs)

            monkeypatch.setattr(eigen, name, solver)

        recording("eig")
        recording("eig_chiral")
        recording("eig_species")
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
        order = np.lexsort((s.eigenvalues.imag, s.eigenvalues.real))
        np.testing.assert_array_equal(order, np.arange(s.n))

    def test_block_path_residual_bound(self, monkeypatch):
        h, calls, s = self._solve(K_FIG2B, monkeypatch, tol=1e-12)
        # one certified solve of the species stack's bond scalars
        assert calls == [("eig_species", (3, 4), 10)]
        assert s.path == "species"
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

    @pytest.mark.parametrize("model", [K_FIG2B, MAG_FIELD], ids=["species", "dense"])
    def test_periodic_strips_are_built_not_solved(self, model):
        # the periodic strip's spectrum is the Bloch spectrum at (k_x, 2 pi n / w)
        spec = RibbonSpec(w=4, boundary_y="periodic", k_x=0.7, model=model)
        assert build_ribbon(spec).shape == (24, 24)
        with pytest.raises(ValueError, match="^diagonalize_ribbon solves open strips only: .*Bloch.*build_ribbon"):
            diagonalize_ribbon(spec)

    def test_parent_model_solves_one_species(self, monkeypatch):
        # the three species of the parent model coincide: one 2w x 2w block
        # stands for all three, byte-identical to stacking all three
        j = Coupling3(2 * E3, E6, 2.5)
        _, calls, s = self._solve(ModelConfig(Variant.PURE_YL, j), monkeypatch)
        assert calls == [("eig_species", (1, 4), 10)]
        _, calls_k, s_k = self._solve(ModelConfig(Variant.K_MODEL, j, k_coupling=0.0), monkeypatch)
        assert calls_k == [("eig_species", (3, 4), 10)]
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
        kx=st.floats(-np.pi, np.pi),
    )
    def test_block_path_matches_dense(
        self, variant, moduli, phases, k_coupling, real, scale, w, kx
    ):
        # the species blocks reproduce the dense strip matrix's eigenpairs
        if real:
            j, kc = Coupling3(*moduli), complex(k_coupling[0])
        else:
            j, kc = Coupling3.from_polar(moduli, phases), complex(*k_coupling)
        extra = {"k_coupling": kc} if variant is Variant.K_MODEL else {}
        model = ModelConfig(variant, j, energy_scale=scale, **extra)
        spec = RibbonSpec(w=w, boundary_y="open", k_x=kx, model=model)
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
        kx=st.floats(-np.pi, np.pi),
    )
    def test_chiral_path_matches_dense(
        self, variant, moduli, phases, second, real, scale, w, kx
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
        spec = RibbonSpec(w=w, boundary_y="open", k_x=kx, model=model)
        h = build_ribbon(spec)
        s = diagonalize_ribbon(spec)
        fast = "hermitian" if model.hermitian else "species" if ribbon.species(model) else "chiral"
        assert s.path in ((fast,) if model.hermitian else (fast, "dense_fallback"))
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
        kx=st.floats(-np.pi, np.pi),
    )
    def test_hermitian_path_matches_dense(
        self, variant, j, second, field, with_field, scale, w, kx
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
        spec = RibbonSpec(w=w, boundary_y="open", k_x=kx, model=model)
        h = build_ribbon(spec)
        s = diagonalize_ribbon(spec)
        assert s.path == "hermitian"
        assert (s.eigenvalues.imag == 0.0).all()
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
            residuals=np.zeros(n),
            achieved_tol=0.0,
            matrix_norm=1.0,
        )

    def _uniform_spectrum(self, w):
        n = 6 * w
        v = np.full((n, n), 1 / math.sqrt(n), dtype=complex)
        return Spectrum(eigenvalues=np.zeros(n, complex), right_vectors=v, residuals=np.zeros(n),
                        achieved_tol=0.0, matrix_norm=1.0)

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
        s = Spectrum(eigenvalues=np.zeros(n, complex), right_vectors=v, residuals=np.zeros(n),
                     achieved_tol=0.0, matrix_norm=1.0)
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
        s = Spectrum(eigenvalues=e, right_vectors=s.right_vectors, residuals=np.zeros(12),
                     achieved_tol=0.0, matrix_norm=1.0)
        recs = localization_profile(s, w, CloudIntervals(bounds=np.array([[2.0, 3.0]])))
        # distances: 5 -> 2; 0, 10 -> 1.5; 2, 8 (|E| 1) and 1, 3, 6 (|E| 4) -> 1; 9 -> 0.5
        edge = {int(r.state_index) for r in recs if r.label.startswith("edge")}
        assert edge == {5, 0, 10, 2, 8, 1}
        assert set(recs.label[[3, 4, 6, 7, 9, 11]]) == {"extended"}


class TestClassifierThresholds:
    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("outer_frac", 0.0, r"outer_frac must be in \(0, 0\.5\], got 0\.0"),
            ("outer_frac", 0.6, r"outer_frac must be in \(0, 0\.5\], got 0\.6"),
            ("edge_mass", 0.0, r"edge_mass must be > 0, got 0\.0"),
            ("ipr_factor", -1.0, r"ipr_factor must be > 0, got -1\.0"),
            ("cloud_tol", float("nan"), r"cloud_tol must be > 0, got nan"),
        ],
    )
    def test_out_of_range_field_raises(self, field, value, message):
        # a zero outer band used to give every state mass_top = 1 (42 of the
        # 48 states of a w=8 K strip labelled bulk_localized_top)
        with pytest.raises(ValueError, match=message):
            ribbon.ClassifierThresholds(**{field: value})

    def test_edges_of_the_ranges_are_accepted(self):
        ribbon.ClassifierThresholds(outer_frac=0.5, edge_mass=1e-9, ipr_factor=1e-9, cloud_tol=1e-9)


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
            edge_mode_weights(model, 8, 0.5, states=0)

    def test_numpy_integer_selects_as_int(self):
        model = ModelConfig(Variant.PURE_YL, Coupling3(1, 1, E3))
        idx, vals, profiles = edge_mode_weights(model, 8, 0.5, states=3)
        for states in (np.int64(3), np.int32(3)):
            got = edge_mode_weights(model, 8, 0.5, states=states)
            np.testing.assert_array_equal(got[0], idx)
            assert got[1].tobytes() == vals.tobytes() and got[2].tobytes() == profiles.tobytes()

    @pytest.mark.parametrize("states", [True, False, np.bool_(True), 2.0, [0, 1], "3"])
    def test_non_integer_selection_rejected(self, states):
        model = ModelConfig(Variant.PURE_YL, Coupling3(1, 1, 1))
        # the error names the value; a bool is no count of states
        with pytest.raises(ValueError, match=r"states must be an integer .* got " + re.escape(repr(states))):
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

    @pytest.mark.parametrize("grid, shape", [(0.5, r"\(\)"), ([[0.1, 0.2], [0.3, 0.4]], r"\(2, 2\)")])
    def test_grid_that_is_not_1d_rejected(self, grid, shape):
        # both used to fail as an IndexError from inside the chunking
        model = ModelConfig(Variant.PURE_YL, Coupling3(1, 1, 1))
        with pytest.raises(ValueError, match=rf"^kx_grid must be a nonempty 1-D array, got shape {shape}$"):
            sweep(model, 6, grid)

    def test_non_integer_w_rejected(self):
        # a float w used to fail in the strip solve, blamed on the first k_x
        model = ModelConfig(Variant.PURE_YL, Coupling3(1, 1, 1))
        calls = (
            lambda: sweep(model, 4.0, [0.1]),
            lambda: RibbonSpec(w=4.0, boundary_y="open", k_x=0.1, model=model),
            lambda: edge_mode_weights(model, 4.0, 0.1),
        )
        for call in calls:
            with pytest.raises(ValueError, match=r"^w must be an integer number of dimer rows, got 4\.0$"):
                call()
        assert sweep(model, np.int64(4), [0.1]).w == 4

    @pytest.mark.parametrize("kwargs, message", [
        ({"n_transverse": 0}, "n_transverse must be an integer >= 1, got 0"),
        ({"n_transverse": 8.5}, r"n_transverse must be an integer >= 1, got 8\.5"),
        ({"threads": 0}, "threads must be an integer >= 1, got 0"),
        ({"threads": -2}, "threads must be an integer >= 1, got -2"),
        ({"threads": 1.5}, r"threads must be an integer >= 1, got 1\.5"),
    ], ids=["n_transverse_0", "n_transverse_8.5", "threads_0", "threads_minus_2", "threads_1.5"])
    def test_bad_count_rejected_before_any_solve(self, monkeypatch, kwargs, message):
        # n_transverse=0 or 8.5 used to fail after the strip solve, blamed on
        # its k_x, and threads < 1 or 1.5 ran one worker
        def solve(*args):
            raise AssertionError("solved")

        monkeypatch.setattr(ribbon, "_solve_strips", solve)
        with pytest.raises(ValueError, match=rf"^{message}$"):
            sweep(GAMMA_FIG3B, 4, [0.3], **kwargs)

    @pytest.mark.parametrize("call, message", [
        (lambda: sweep(GAMMA_FIG3B, 4, [0.3], threads=True), "threads must be an integer >= 1, got True"),
        (lambda: sweep(GAMMA_FIG3B, 4, [0.3], n_transverse=np.True_),
         "n_transverse must be an integer >= 1, got np.True_"),
        (lambda: pbc_cloud_intervals(GAMMA_FIG3B, 0.3, True), "n_transverse must be an integer >= 1, got True"),
        (lambda: sweep(GAMMA_FIG3B, True, [0.3]), "w must be an integer number of dimer rows, got True"),
        (lambda: RibbonSpec(w=True, boundary_y="open", k_x=0.3, model=GAMMA_FIG3B),
         "w must be an integer number of dimer rows, got True"),
    ], ids=["sweep_threads", "sweep_n_transverse", "cloud_n_transverse", "sweep_w", "spec_w"])
    def test_bool_counts_rejected_by_name(self, monkeypatch, call, message):
        # a bool is an int to Python: threads=True used to run one worker and
        # the cloud of n_transverse=True to return one sample
        def solve(*args):
            raise AssertionError("solved")

        monkeypatch.setattr(ribbon, "_solve_strips", solve)
        with pytest.raises(ValueError, match=rf"^{re.escape(message)}$"):
            call()

    def test_hermitian_species_twins_share_their_masses(self):
        # a real-coupling strip's species blocks are solved from the SVD of B:
        # the +-E states of one block have bitwise-equal |entries|, so equal
        # outer masses and one label, even where the two edges tie
        model = ModelConfig(Variant.K_MODEL, Coupling3(1.7, 0.8, 1.3), k_coupling=0.35)
        kxs = np.linspace(-np.pi, np.pi, 8, endpoint=False)
        rec = sweep(model, 16, kxs, n_transverse=64).records
        e = rec.eigenvalue.real
        n = e.shape[1]
        assert e[:, : n // 2].tobytes() == (-e[:, n // 2 :][:, ::-1]).tobytes()
        # +-E twins sit at mirrored places of the sorted spectrum (no |E| is shared by two species here)
        for name in ("mass_bottom", "mass_top", "label"):
            field = getattr(rec, name)
            assert field.tobytes() == field[:, ::-1].tobytes(), name

    def test_cloud_without_transverse_momenta_rejected(self):
        with pytest.raises(ValueError, match=r"^n_transverse must be an integer >= 1, got 0$"):
            pbc_cloud_intervals(GAMMA_FIG3B, 0.3, 0)

    @pytest.mark.parametrize("k_x", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("model", [K_FIG2B, GAMMA_FIG3B], ids=["species", "mixing"])
    def test_cloud_at_a_non_finite_kx_rejected_before_any_build(self, monkeypatch, model, k_x):
        # nan or inf used to give CloudIntervals([[nan, nan]]) on a species
        # model and numpy's LinAlgError on a flavour-mixing one
        def build(*args):
            raise AssertionError("built")

        monkeypatch.setattr(ribbon, "_cloud_samples", build)
        with pytest.raises(ValueError, match=rf"^k_x must be finite, got {k_x}$"):
            pbc_cloud_intervals(model, k_x, 8)

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
        self._check_worker_error(monkeypatch, threads, "eig_species", model)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_hermitian_worker_error_keeps_its_object(self, monkeypatch, blas_at_two, threads):
        model = ModelConfig(Variant.PURE_YL, Coupling3(1, 1, 1))
        self._check_worker_error(monkeypatch, threads, "eigh_chiral", model)

    def _check_worker_error(self, monkeypatch, threads, solver, model):
        # a solver failure at one k_x surfaces as the same exception object,
        # its best-effort result kept and its message naming the k_x; BLAS
        # ran at one thread in the solve and is back at its count afterwards
        s = eig(np.eye(2))
        in_solve = []

        def failing_eig(*args, **kwargs):
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

        def counting_eig(b, c, tol=None, pairs=None):
            in_solve.append(self.blas_counts())
            return real_eig(b, c, tol=tol, pairs=pairs)

        before = self.blas_counts()
        monkeypatch.setattr(eigen, "eig_chiral", counting_eig)
        sweep(model, 4, [-0.5, 0.5], n_transverse=32, threads=2)  # one solve unit: a pair
        edge_mode_weights(model, 4, 0.5)
        assert in_solve == [[1] * len(before)] * 2
        assert self.blas_counts() == before

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
            kx_grid=kxs,
            records=rec,
            pbc_reference=[CloudIntervals(bounds=np.array([[0.0, 1.0]]))] * 4,
            thresholds=ribbon.ClassifierThresholds(),
            log=eigen.RunLog(),
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


#: one strip model of each solver route: species blocks (non-Hermitian,
#: Hermitian, the parent model), the flavour-mixing chiral strip, and whole
#: strips with an onsite field (Hermitian, and field+DMI with complex couplings)
CHUNK_MODELS = {
    "k_nonherm": K_FIG2B,
    "k_herm": ModelConfig(Variant.K_MODEL, Coupling3(2, 1, 2.5), k_coupling=0.4),
    "pure_yl": ModelConfig(Variant.PURE_YL, Coupling3(1, 1, E3)),
    "gamma": GAMMA_FIG3B,
    "field_herm": ModelConfig(Variant.MAG_MODEL, Coupling3(1, 1, 1), d=0.5, b_field=(0.0, 0.0, 0.7)),
    "field_dmi": MAG_FIELD,
}

#: the momenta of a +-k_x pair chunk
PAIR_CHUNK = [0.5 * np.pi, -0.5 * np.pi]


class TestChunkedSweep:
    """A sweep is one stacked program per chunk of solve units, with the bytes of unit-by-unit solves."""

    @settings(max_examples=40, deadline=None)
    @given(
        name=st.sampled_from(sorted(CHUNK_MODELS)),
        w=st.integers(2, 5),
        kxs=st.lists(st.floats(-np.pi, np.pi), min_size=1, max_size=5),
        mirrored=st.integers(0, 3),
    )
    def test_records_do_not_depend_on_chunks_or_threads(self, name, w, kxs, mirrored):
        model = CHUNK_MODELS[name]
        kxs = kxs + [-k for k in kxs[:mirrored]]  # exact +-k_x pairs

        def run(threads):
            return sweep(model, w, kxs, n_transverse=32, threads=threads)

        ref = run(1)
        for threads in (None, 2, 3):  # None: the count the route resolves to
            assert run(threads).records.tobytes() == ref.records.tobytes()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ribbon, "CHUNK_ENTRIES", 1)  # one solve unit per chunk
            one = run(1)
        assert one.records.tobytes() == ref.records.tobytes()

        # the per-k_x oracle: diagonalize_ribbon and localization_profile for
        # a k_x in no pair, the two-k_x _solve_strips of its pair for the others
        pairs = ribbon._mirror_pairs(kxs) if ribbon._mirrored(model) else np.zeros((0, 2), int)
        partner = dict(zip(pairs[:, 0].tolist(), pairs[:, 1].tolist()))
        partner |= {p: r for r, p in partner.items()}
        solves = dict.fromkeys(eigen.SOLVER_PATHS, 0)
        residuals = []
        for i, (kx, row, cloud) in enumerate(zip(kxs, ref.records, ref.pbc_reference)):
            alone = pbc_cloud_intervals(model, kx, 32)
            assert cloud.bounds.tobytes() == alone.bounds.tobytes()
            if i in partner:
                strips = ribbon._solve_strips(model, w, [kx, kxs[partner[i]]])
                e = strips.eigenvalues[:1]
                records = ribbon._classify(e, strips.weights()[:1], alone.distance(np.abs(e)), True,
                                           ribbon.ClassifierThresholds())
                route, residual = str(strips.routes[0]), strips.achieved[0]
            else:
                s = diagonalize_ribbon(RibbonSpec(w=w, boundary_y="open", k_x=kx, model=model))
                records, route, residual = localization_profile(s, w, alone), s.path, s.achieved_tol
            solves[route] += 1
            residuals.append(residual)
            assert records.tobytes() == row.tobytes()
        assert ref.log.strip_solves == one.log.strip_solves == solves
        assert ref.log.max_residual == max(residuals)
        assert ref.log.max_residual_kx == one.log.max_residual_kx == kxs[int(np.argmax(residuals))]

    @settings(max_examples=30, deadline=None)
    @given(
        name=st.sampled_from(sorted(CHUNK_MODELS)),
        w=st.integers(2, 5),
        k=st.floats(0.0, np.pi, exclude_min=True),
    )
    def test_partner_matches_an_independent_solve(self, name, w, k):
        # the partner -k of a pair, from its representative's solve, against
        # H(-k) solved alone; labels are not compared, as on a degenerate
        # cluster they depend on the basis the solver returns
        model = CHUNK_MODELS[name]
        spec = RibbonSpec(w=w, boundary_y="open", k_x=-k, model=model)
        strips = ribbon._solve_strips(model, w, [k, -k])
        e, h = strips.eigenvalues[1], build_ribbon(spec)
        assert strips.routes[1] == ("mirrored" if ribbon._mirrored(model) else "species")
        norm = max(1.0, np.linalg.norm(h, "fro"))
        assert match_eigenvalue_sets(e, diagonalize_ribbon(spec).eigenvalues) <= 1e-10 * norm
        hp = np.eye(len(h))
        for p in range(1, 5):  # the power sums sum E**p = tr H**p
            hp = hp @ h
            assert abs((e**p).sum() - np.trace(hp)) <= 1e-10 * norm**p

    def test_fig6c_pair_is_mirror_consistent(self):
        # solved separately, E(k_x) and -E(-k_x) differ by 4.2e-2 at +-3pi/4
        # (condition numbers of 1.5e15); as a pair they agree exactly
        res = sweep(get_preset("fig6c").model, 52, [-0.75 * np.pi, 0.75 * np.pi], n_transverse=64)
        e = res.records.eigenvalue
        np.testing.assert_array_equal(e[0], np.sort(-e[1]))
        assert res.log.strip_solves["mirrored"] == 1
        assert res.log.max_residual <= eigen.default_tol(6 * 52)

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("name, route", [
        ("gamma", "chiral"), ("field_dmi", "dense"), ("fig6a", "hermitian"), ("k_nonherm", "species"),
    ])
    def test_repeated_kx_rows_are_identical(self, name, route, threads):
        # the first 0.3 pairs with the -0.3 (but on the species route, which
        # pairs nothing) and the other two are solved alone: all three rows
        # are the same bytes
        model = get_preset("fig6a").model if name == "fig6a" else CHUNK_MODELS[name]
        res = sweep(model, 8, [0.3, -0.3, 0.3, 1.1, 0.3], n_transverse=32, threads=threads)
        rows = [res.records[i].tobytes() for i in (0, 2, 4)]
        assert rows[0] == rows[1] == rows[2]
        mirrored = 0 if route == "species" else 1
        solves = dict.fromkeys(eigen.SOLVER_PATHS, 0) | {route: 5 - mirrored, "mirrored": mirrored}
        assert res.log.strip_solves == solves

    @pytest.mark.parametrize("preset, solves", [
        ("fig3b", {"chiral": 5, "dense_fallback": 1}),
        ("fig6c", {"dense": 6}),
        ("fig6a", {"hermitian": 4, "mirrored": 2}),
        ("fig2b-like", {"species": 6}),
    ])
    def test_sweep_without_lapacke_zgeev(self, monkeypatch, preset, solves):
        # a numpy built on MKL or a system BLAS bundles no LAPACKE zgeev: a
        # strip-sized +-k_x pair is two lone solves, fig3b's near-zero cluster
        # takes the dense route, and a Hermitian pair still mirrors.  Labels
        # are not compared: fig3b's move on its degenerate zero modes
        model, kxs = get_preset(preset).model, [-np.pi, -1.1, -0.3, 0.0, 0.3, 1.1]
        ref = sweep(model, 12, kxs, n_transverse=32, threads=1)
        monkeypatch.setattr(eigen, "_ZGEEV", None)
        res = sweep(model, 12, kxs, n_transverse=32, threads=1)
        assert res.log.strip_solves == dict.fromkeys(eigen.SOLVER_PATHS, 0) | solves
        assert res.log.max_residual <= 1.4e-15
        assert np.abs(res.records.eigenvalue - ref.records.eigenvalue).max() <= 1e-12

    @pytest.mark.parametrize("threads", [1, 2])
    def test_strip_solves_count_a_fallback_inside_a_chunk(self, threads):
        # a strip whose species block falls back to the dense route at k_x = 0
        # only, where jy = -jx makes bd = cd = 0 and B, C nilpotent: the
        # stacked solve of the chunk counts it k_x by k_x
        model, w, kxs = ModelConfig(Variant.PURE_YL, Coupling3(1, -1, E3)), 20, [0.3, 0.0, -0.3]
        solves = dict.fromkeys(eigen.SOLVER_PATHS, 0)
        for kx in kxs:
            solves[diagonalize_ribbon(RibbonSpec(w=w, boundary_y="open", k_x=kx, model=model)).path] += 1
        assert solves["dense_fallback"] > 0
        assert ribbon._kx_per_chunk(model, w) >= len(kxs)  # one chunk at threads=1
        assert sweep(model, w, kxs, n_transverse=32, threads=threads).log.strip_solves == solves

    def test_kx_per_chunk_follows_the_entry_cap(self, monkeypatch):
        # w=52: one k_x of a dense strip per call, four of a species strip
        assert ribbon._kx_per_chunk(MAG_FIELD, 52) == ribbon._kx_per_chunk(GAMMA_FIG3B, 52) == 1
        assert ribbon._kx_per_chunk(K_FIG2B, 52) == 4
        # threads ask for at least as many chunks, at most one per k_x
        calls = []
        real = ribbon._solve_strips

        def recording(model, w, k_x, tol=None):
            calls.append(len(k_x))
            return real(model, w, k_x, tol)

        monkeypatch.setattr(ribbon, "_solve_strips", recording)
        sweep(K_FIG2B, 4, np.linspace(-np.pi, np.pi, 5, endpoint=False), n_transverse=16)
        assert calls == [5]
        calls.clear()
        sweep(K_FIG2B, 4, np.linspace(-np.pi, np.pi, 5, endpoint=False), n_transverse=16, threads=2)
        assert sorted(calls) == [2, 3]
        calls.clear()
        sweep(K_FIG2B, 4, [0.1, 0.2], n_transverse=16, threads=4)
        assert calls == [1, 1]

    @pytest.mark.parametrize("threads", [1, 2, 3])
    def test_error_in_a_chunk_names_its_own_kx(self, monkeypatch, threads):
        # a solve that fails at k_x = 0.5 only: the chunk's error is traced to
        # that k_x, whose own solve raises the exception that propagates
        model, w = GAMMA_FIG3B, 4
        target = eigen.chiral_blocks(ribbon._bond_terms(model, [0.5]), w)[0][0]
        real, sentinel, seen = eigen.eig_chiral, eig(np.eye(2)), []

        def failing(b, c, tol=None, pairs=None):
            seen.append(np.shape(b))
            if any(np.array_equal(x, target) for x in np.reshape(b, (-1, 3 * w, 3 * w))):
                raise ConvergenceError("residual target missed", result=sentinel)
            return real(b, c, tol=tol, pairs=pairs)

        monkeypatch.setattr(eigen, "eig_chiral", failing)
        with pytest.raises(ConvergenceError, match=r"^k_x = 0\.5: residual target missed$") as info:
            sweep(model, w, [-0.5, 0.5, 1.0], n_transverse=16, threads=threads)
        assert info.value.result is sentinel
        if threads == 1:  # the stacked solve, then the k_x alone up to the failing one
            assert seen == [(3, 3 * w, 3 * w), (3 * w, 3 * w), (3 * w, 3 * w)]

    def test_the_caller_is_one_of_the_workers(self):
        # three items that must run at once on three threads: the caller and two more
        barrier, idents = threading.Barrier(3, timeout=30), []

        def task(x):
            idents.append(threading.get_ident())
            barrier.wait()
            return 2 * x

        assert ribbon._map_chunks(task, [1, 2, 3], 3) == [2, 4, 6]
        assert len(set(idents)) == 3 and threading.get_ident() in idents
        assert ribbon._map_chunks(lambda x: threading.get_ident(), [1, 2], 1) == [threading.get_ident()] * 2

    def test_many_workers_take_each_item_once(self):
        # more threads than CPUs, switching as often as the interpreter allows:
        # an item lost or taken twice shows in the results or the counts
        counts, lock = [0] * 500, threading.Lock()

        def task(x):
            with lock:
                counts[x] += 1
            return 2 * x

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            out = ribbon._map_chunks(task, list(range(500)), 8)
        finally:
            sys.setswitchinterval(switch)
        assert out == [2 * x for x in range(500)] and counts == [1] * 500

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_the_earliest_failure_raises_and_stops_the_queue(self, workers):
        started = []

        def task(x):
            started.append(x)
            if x in (1, 3):
                raise ValueError(x)
            return x

        with pytest.raises(ValueError, match="^1$"):
            ribbon._map_chunks(task, list(range(40)), workers)
        # items start in order, none after a failure has been seen
        assert sorted(started) == list(range(len(started))) and len(started) <= 1 + workers
        if workers == 1:
            assert started == [0, 1]

    @pytest.mark.parametrize("cpus", [1, 3, 64])
    def test_default_threads_follow_the_route(self, monkeypatch, cpus):
        # 5 solve units on the paired routes: three +-k_x pairs, 0 and 0.5
        monkeypatch.setattr(ribbon, "_usable_cpus", lambda: cpus)
        kxs = [-3.0, -2.0, -1.0, 0.0, 0.5, 1.0, 2.0, 3.0]
        res = sweep(K_FIG2B, 4, kxs, n_transverse=16)  # the closed-form species route holds the GIL
        assert (res.workers, res.chunks) == (1, 1)
        for model in (GAMMA_FIG3B, MAG_FIELD, CHUNK_MODELS["k_herm"]):  # chiral, dense, Hermitian species
            res = sweep(model, 4, kxs, n_transverse=16)
            assert res.workers == res.chunks == min(cpus, 5)
        res = sweep(MAG_FIELD, 4, kxs, n_transverse=16, threads=4)  # a count given is kept
        assert res.workers == res.chunks == 4

    @pytest.mark.parametrize("model, k_x", [(MAG_FIELD, PAIR_CHUNK), (GAMMA_FIG3B, PAIR_CHUNK),
                                            (GAMMA_FIG3B, [np.pi, -np.pi + 0.3])],
                             ids=["dense", "chiral", "chiral_lone"])
    def test_pair_chunk_memory_stays_flat(self, model, k_x):
        # one w=52 chunk of two k_x (a +-k_x pair, or two lone k_x whose chiral
        # strips both hold a near-zero cluster): the strips, their vectors and
        # the tails' blocks stay within six strip matrices, whatever the
        # solver's tail forms
        w = 52
        ribbon._solve_strips(model, w, k_x)  # first-call caches
        tracemalloc.start()
        try:
            strips = ribbon._solve_strips(model, w, k_x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert strips.routes[1] == ("mirrored" if k_x is PAIR_CHUNK else "chiral")
        assert peak <= 6 * (6 * w) ** 2 * 16


#: the field-free DMI model: chiral Bloch matrices with no closed form, as Gamma's
MAG_DMI = ModelConfig(Variant.MAG_MODEL, Coupling3(1, 1, E3), d=0.5, energy_scale="half")


def _dense_cloud_samples(model, k_x, n_transverse):
    """The periodic cloud's samples from dense ``eigvals`` of the 6x6 Bloch matrices at (k_x, q)."""
    q = np.linspace(0.0, 2.0 * np.pi, n_transverse, endpoint=False)
    half = 0.5 * np.asarray(k_x, dtype=float)[..., None]
    ks = k_from_bond_phase(np.stack([half - q, -half - q], axis=-1))
    return np.linalg.eigvals(bloch_matrix_grid(model, ks))


class TestPeriodicCloud:
    """One cloud per |k_x|, its chiral route and the merge of its |E| intervals."""

    @settings(max_examples=60, deadline=None)
    @given(name=st.sampled_from(sorted(CHUNK_MODELS) + ["dmi"]), k=st.floats(-np.pi, np.pi))
    def test_cloud_at_minus_kx_is_the_cloud_at_kx(self, name, k):
        # every route, against the cloud of dense eigvals at (-k_x, q)
        model = CHUNK_MODELS.get(name, MAG_DMI)
        plus, minus = pbc_cloud_intervals(model, k), pbc_cloud_intervals(model, -k)
        assert minus.bounds.tobytes() == plus.bounds.tobytes()
        dense = ribbon.cloud_intervals_from_samples(_dense_cloud_samples(model, -k, 512)).bounds
        assert plus.bounds.shape == dense.shape
        assert np.abs(plus.bounds - dense).max() <= 1e-13 * dense.max()

    @pytest.mark.parametrize("model", [GAMMA_FIG3B, MAG_DMI], ids=["gamma", "dmi"])
    def test_chiral_samples_match_dense_eigvals(self, model, rng):
        # +-sqrt(eig(F G)) against the eigenvalues of [[0, F], [G, 0]]
        kx = rng.uniform(-np.pi, np.pi, 4)
        samples, dense = ribbon._cloud_samples(model, kx, 64), _dense_cloud_samples(model, kx, 64)
        assert samples.shape == dense.shape == (4, 64, 6)
        for a, b in zip(samples.reshape(-1, 6), dense.reshape(-1, 6)):
            assert match_eigenvalue_sets(a, b) <= 1e-12 * np.abs(b).max()

    @pytest.mark.parametrize("name", sorted(CHUNK_MODELS))
    def test_sweep_solves_one_cloud_per_abs_kx(self, monkeypatch, name):
        model, momenta = CHUNK_MODELS[name], []
        real = ribbon._cloud_samples

        def counting(model, k_x, n_transverse):
            momenta.extend(np.ravel(k_x).tolist())
            return real(model, k_x, n_transverse)

        monkeypatch.setattr(ribbon, "_cloud_samples", counting)
        kxs = _kx_grid(8)  # -pi, 0 and three +-k_x pairs
        res = sweep(model, 4, kxs, n_transverse=16)
        assert sorted(momenta) == sorted(set(np.abs(kxs).tolist())) and len(momenta) == 5
        for i in (1, 2, 3):  # a pair shares one read-only bounds array
            assert res.pbc_reference[i].bounds is res.pbc_reference[8 - i].bounds
            assert not res.pbc_reference[i].bounds.flags.writeable
        momenta.clear()
        kxs = [-2.0, -0.5, 0.0, 0.3, 1.0, 2.5]  # no +-k_x pair
        sweep(model, 4, kxs, n_transverse=16)
        assert sorted(momenta) == sorted(np.abs(kxs).tolist())

    def test_tracks_one_ulp_apart_make_one_interval(self):
        # two |E| tracks touching at 1.0, where the upper one starts an ulp above
        up = np.nextafter(1.0, 2.0)
        merged = ribbon.cloud_intervals_from_samples(np.array([[0.5, up], [1.0, 1.6]]))
        assert merged.bounds.tolist() == [[0.5, 1.6]]
        # a gap wider than the merge tolerance keeps its two intervals
        lo = 1.0 + 2.0 * ribbon.CLOUD_MERGE_GAP * 1.6
        split = ribbon.cloud_intervals_from_samples(np.array([[0.5, lo], [1.0, 1.6]]))
        assert split.bounds.tolist() == [[0.5, 1.0], [lo, 1.6]]
