"""Exceptional points, arcs, skin criterion, degeneracy classification."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize

from majorana_nh import (
    Coupling3,
    ModelConfig,
    RefineCounters,
    Variant,
    bond_phase_from_k,
    classify_degeneracy,
    ep_closed_form,
    ep_scan,
    fermi_arc_trace,
    k_from_bond_phase,
    model_closed_form_eps,
    reduce_to_bz,
    skin_criterion,
    skin_criterion_any,
    structure_factor,
    triangle_test,
)
from majorana_nh import ep as ep_module
from majorana_nh.ep import _torus_dist
from conftest import random_complex_coupling

E3 = cmath.exp(1j * math.pi / 3)
E6 = cmath.exp(1j * math.pi / 6)


def torus_dist_k(k_point, record):
    return _torus_dist(bond_phase_from_k(k_point), record.bond_phase)


def find_f_zeros_oracle(j, n_starts=400, seed=0):
    """Independent oracle: multistart local minimization of |f|^2 over the zone."""
    rng = np.random.default_rng(seed)
    zeros = []
    for _ in range(n_starts):
        x0 = rng.uniform(-np.pi, np.pi, 2)
        res = minimize(
            lambda th: abs(structure_factor(j, k_from_bond_phase(th))) ** 2,
            x0,
            method="Nelder-Mead",
            options={"xatol": 1e-12, "fatol": 1e-24, "maxiter": 400},
        )
        if res.fun < 1e-20:
            th = res.x - 2 * np.pi * np.floor((res.x + np.pi) / (2 * np.pi))
            if not any(_torus_dist(th, z) < 1e-6 for z in zeros):
                zeros.append(th)
    return zeros


class TestBondPhases:
    def test_zone_center(self):
        np.testing.assert_allclose(bond_phase_from_k((0.0, 0.0)), [0, 0], atol=1e-15)

    def test_gapless_point_phases(self):
        np.testing.assert_allclose(
            bond_phase_from_k((4 * np.pi / 3, 0.0)), [2 * np.pi / 3, -2 * np.pi / 3], atol=1e-12
        )

    def test_roundtrip(self, rng):
        ks = rng.uniform(-4, 4, (100, 2))
        back = k_from_bond_phase(bond_phase_from_k(ks))
        assert np.abs(back - ks).max() < 1e-14

    def test_reduce_to_bz(self, rng):
        ks = rng.uniform(-20, 20, (50, 2))
        red = reduce_to_bz(ks)
        phases = bond_phase_from_k(red)
        assert (phases > -np.pi - 1e-12).all() and (phases <= np.pi + 1e-12).all()
        # reduction preserves the bond sums
        j = random_complex_coupling(rng)
        np.testing.assert_allclose(
            structure_factor(j, red), structure_factor(j, ks), atol=1e-10
        )


class TestClosedFormEPs:
    def test_isotropic_dirac_pair(self):
        recs = ep_closed_form(Coupling3(1, 1, 1))
        assert len(recs) == 2
        ks = sorted(r.k[0] for r in recs)
        np.testing.assert_allclose(ks, [-4 * np.pi / 3, 4 * np.pi / 3], atol=1e-12)
        for r in recs:
            assert abs(r.k[1]) < 1e-12
            assert r.residual < 1e-12
            assert not r.confirmed  # Hermitian: degeneracy without coalescence

    def test_gapped_triple_empty(self):
        assert ep_closed_form(Coupling3(1, 1, 2.5)) == []

    def test_zero_modulus_rejected(self):
        with pytest.raises(ValueError):
            ep_closed_form(Coupling3(0, 1, 1))

    def test_complex_case_against_root_finder(self):
        j = Coupling3(2, 1, 2.5 * E3)
        recs = ep_closed_form(j)
        assert len(recs) == 4
        for r in recs:
            assert r.residual < 1e-10
            assert r.confirmed
        # zeros of f(k): compare to multistart minimization oracle
        oracle = find_f_zeros_oracle(j)
        assert len(oracle) == 2
        plus_recs = [r for r in recs if abs(structure_factor(j, r.k)) < 1e-10]
        assert len(plus_recs) == 2
        for z in oracle:
            assert min(_torus_dist(z, r.bond_phase) for r in plus_recs) < 1e-6

    def test_records_verified_at_both_signs(self, rng):
        for _ in range(10):
            j = random_complex_coupling(rng)
            if not triangle_test(j.moduli):
                continue
            for r in ep_closed_form(j):
                f_k = abs(structure_factor(j, r.k))
                f_mk = abs(structure_factor(j, (-r.k[0], -r.k[1])))
                assert min(f_k, f_mk) < 1e-10

    def test_shared_phase_dirac_points_not_confirmed(self):
        # couplings sharing one phase: both bond sums vanish at the Dirac
        # points, so the pair stays diagonalizable
        p = 0.5213
        j = Coupling3.from_polar((1, 0.5213, 1.5), (p, p, p))
        recs = ep_closed_form(j)
        assert len(recs) == 2
        for r in recs:
            assert r.residual < 1e-10
            assert abs(structure_factor(j, np.negative(r.k))) < 1e-10
            assert not r.confirmed
        assert ep_scan(ModelConfig(Variant.PURE_YL, j), grid_n=32) == []

    def test_model_level_records_per_species(self):
        model = ModelConfig(Variant.K_MODEL, Coupling3(2, 1, 2.5 * E3), k_coupling=0.1)
        recs = model_closed_form_eps(model)
        flavours = {r.flavour for r in recs}
        assert flavours == {1, 2, 3}


class TestEPScan:
    def test_recovers_closed_form_complex_triple(self):
        j = Coupling3(2, 1, 2.5 * E3)
        model = ModelConfig(Variant.PURE_YL, j)
        found = ep_scan(model, grid_n=128)
        truth = ep_closed_form(j)
        assert len(found) == 4
        for r in found:
            assert min(torus_dist_k(r.k, t) for t in truth) < 1e-6
            assert r.overlap > 1 - 1e-4

    def test_hermitian_degeneracies_not_confirmed(self):
        model = ModelConfig(Variant.PURE_YL, Coupling3(1, 1, 1))
        assert ep_scan(model, grid_n=64) == []
        recs = ep_scan(model, grid_n=64, confirmed_only=False)
        assert len(recs) == 2
        for r in recs:
            assert r.overlap < 0.5
            assert not r.confirmed
            assert min(abs(r.k[0] - 4 * np.pi / 3), abs(r.k[0] + 4 * np.pi / 3)) < 1e-6

    def test_grid_floor(self):
        model = ModelConfig(Variant.PURE_YL, Coupling3(1, 1, 1))
        with pytest.raises(ValueError):
            ep_scan(model, grid_n=16)

    def test_random_sets_match_closed_form(self, rng):
        # block-diagonal scan against the analytic locations, 20 coupling sets
        done = 0
        while done < 20:
            j = random_complex_coupling(rng)
            if not triangle_test(j.moduli):
                continue
            done += 1
            model = ModelConfig(Variant.PURE_YL, j)
            truth = ep_closed_form(j)
            found = ep_scan(model, grid_n=96)
            n_defective = sum(t.confirmed for t in truth)
            assert len(found) == n_defective
            for r in found:
                assert min(torus_dist_k(r.k, t) for t in truth) < 2 * np.pi / 96

    def test_gamma_model_scan_self_certifies(self):
        model = ModelConfig(Variant.GAMMA_MODEL, Coupling3(2, 1, 2.5 * E3), gamma=0.4)
        found = ep_scan(model, grid_n=96)
        assert found  # species mixing creates exceptional points here
        from majorana_nh import bloch_hamiltonian, eig

        for r in found:
            h = bloch_hamiltonian(model, r.k).entries
            s = eig(h)
            d = np.abs(s.eigenvalues[:, None] - s.eigenvalues[None, :])
            np.fill_diagonal(d, np.inf)
            gap = d.min()
            i, jx = np.unravel_index(d.argmin(), d.shape)
            ov = abs(s.right_vectors[:, i].conj() @ s.right_vectors[:, jx])
            assert gap < 1e-6 * np.linalg.norm(h, "fro")
            assert ov > 1 - 1e-4


GAMMA_FIG3B = ModelConfig(
    Variant.GAMMA_MODEL, Coupling3(2, 1, 2.5 * E3), gamma=0.4, energy_scale="half"
)


def assert_same_eps(found, reference, tol=1e-9):
    """Same count and confirmed flags, bond phases within ``tol``."""
    assert len(found) == len(reference)
    for r in reference:
        dists = [_torus_dist(r.bond_phase, f.bond_phase) for f in found]
        i = int(np.argmin(dists))
        assert dists[i] < tol
        assert found[i].confirmed == r.confirmed


class TestEPRefinement:
    @settings(max_examples=30, deadline=None)
    @given(
        moduli=st.tuples(*[st.floats(0.5, 2.2)] * 3),
        phases=st.tuples(*[st.floats(-np.pi, np.pi)] * 3),
    )
    def test_scan_matches_closed_form_to_rounding(self, moduli, phases):
        j = Coupling3.from_polar(moduli, phases)
        # strictly inside the triangle: on its edge the two zeros of the
        # bond sum merge into one higher-order point
        mx, my, mz = moduli
        assume(min(my + mz - mx, mz + mx - my, mx + my - mz) > 0.05)
        truth = ep_closed_form(j)
        grid_n = 64
        step = 2 * np.pi / grid_n
        # well-separated exceptional points: the bond sum vanishes on one side
        # only (a common phase makes both sides vanish at Dirac points)
        assume(
            all(
                t.confirmed
                and max(abs(structure_factor(j, t.k)), abs(structure_factor(j, np.negative(t.k))))
                > 0.05
                for t in truth
            )
        )
        assume(
            all(
                _torus_dist(a.bond_phase, b.bond_phase) > 4 * step
                for i, a in enumerate(truth)
                for b in truth[i + 1 :]
            )
        )
        found = ep_scan(ModelConfig(Variant.PURE_YL, j), grid_n=grid_n)
        assert len(found) == len(truth)
        for r in found:
            assert min(_torus_dist(r.bond_phase, t.bond_phase) for t in truth) < 1e-9

    def test_gamma_eps_independent_of_grid(self):
        reference = ep_scan(GAMMA_FIG3B, grid_n=48)
        assert len(reference) == 10
        for n in (64, 96):
            assert_same_eps(ep_scan(GAMMA_FIG3B, grid_n=n), reference)

    def test_nelder_mead_fallback_gives_same_records(self, monkeypatch):
        model = ModelConfig(Variant.PURE_YL, Coupling3(2, 1, 2.5 * E3))
        newton = ep_scan(model, grid_n=64, confirmed_only=False)
        monkeypatch.setattr(
            ep_module, "_newton_refine", lambda build_h, theta0, *args: (theta0, 0)
        )
        counters = RefineCounters()
        fallback = ep_scan(model, grid_n=64, confirmed_only=False, counters=counters)
        assert counters.fallbacks == counters.candidates > 0
        assert counters.newton_iterations == 0
        assert_same_eps(fallback, newton)

    def test_refinement_work_bounded(self, monkeypatch):
        calls = [0]
        build = ep_module.bloch_matrix_grid

        def counting(*args, **kwargs):
            calls[0] += 1
            return build(*args, **kwargs)

        monkeypatch.setattr(ep_module, "bloch_matrix_grid", counting)
        counters = RefineCounters()
        found = ep_scan(GAMMA_FIG3B, grid_n=48, counters=counters)
        assert calls[0] <= 5000
        assert counters.confirmed == len(found) == 10
        assert counters.candidates >= counters.fallbacks >= counters.rejected
        assert counters.newton_iterations > 0


class TestSkinCriterion:
    def test_real_couplings_symmetric(self):
        assert not skin_criterion(Coupling3(1, 1, 1), np.pi / 2)

    def test_complex_phase_asymmetric(self):
        j = Coupling3(E3, 1, 1)
        assert skin_criterion(j, np.pi / 2)
        fwd = abs(j.jx * cmath.exp(1j * np.pi / 2) + j.jy)
        bwd = abs(j.jx * cmath.exp(-1j * np.pi / 2) + j.jy)
        assert fwd == pytest.approx(2 * abs(math.cos(5 * math.pi / 12)), abs=1e-5)
        assert bwd == pytest.approx(2 * abs(math.cos(math.pi / 12)), abs=1e-5)
        assert fwd == pytest.approx(0.51764, abs=1e-5)
        assert bwd == pytest.approx(1.93185, abs=1e-5)

    def test_complex_jz_irrelevant(self):
        assert not skin_criterion_any(Coupling3(2, 1, 2.5 * E3))

    def test_all_real_never_skin(self, rng):
        # property: real couplings give a symmetric bond sum for every k_x
        for _ in range(10_000):
            j = Coupling3(*rng.uniform(-2.5, 2.5, 3))
            assert not skin_criterion_any(j, n_grid=64)

    def test_common_phase_invariance(self, rng):
        for _ in range(200):
            j = random_complex_coupling(rng)
            phase = cmath.exp(1j * rng.uniform(-np.pi, np.pi))
            j2 = Coupling3(j.jx * phase, j.jy * phase, j.jz * phase)
            kx = rng.uniform(-np.pi, np.pi)
            assert skin_criterion(j, kx) == skin_criterion(j2, kx)


class TestClassifyDegeneracy:
    def test_hermitian_isotropic_dirac(self):
        model = ModelConfig(Variant.K_MODEL, Coupling3(1, 1, 1), k_coupling=0.0)
        rep = classify_degeneracy(model, (4 * np.pi / 3, 0.0))
        assert rep.kind == "nonsingular_crossing"
        assert rep.flavours == (1, 2, 3)

    def test_paired_second_order_eps(self):
        # jz tuned so species 1 and 2 share a one-sided bond-sum zero:
        # on the line theta1 = theta2 the two shifted sums coincide
        jz = 2.4 * E6
        model = ModelConfig(Variant.K_MODEL, Coupling3(1, 1, jz), k_coupling=0.4)
        th = np.pi + np.pi / 6
        k_star = k_from_bond_phase([th, th])
        rep = classify_degeneracy(model, k_star)
        assert rep.kind == "paired_second_order_EPs"
        assert rep.flavours == (1, 2)

    def test_nonsingular_crossing_nonzero(self):
        # Hermitian anisotropic: cross-species |A| crossing away from zero
        from scipy.optimize import brentq
        from majorana_nh import shifted_structure_factors

        model = ModelConfig(Variant.K_MODEL, Coupling3(2, 1, 1.5), k_coupling=0.4)

        def gap12(t1):
            k = k_from_bond_phase([t1, 0.7])
            a = shifted_structure_factors(model.j, model.k_coupling, k)
            return abs(a[0]) - abs(a[1])

        t1_star = brentq(gap12, 0.1, 3.0, xtol=1e-14)
        k_star = k_from_bond_phase([t1_star, 0.7])
        rep = classify_degeneracy(model, k_star)
        assert rep.kind == "nonsingular_crossing"
        assert 1 in rep.flavours and 2 in rep.flavours

    def test_no_degeneracy_raises(self):
        model = ModelConfig(Variant.K_MODEL, Coupling3(2, 1, 1.5), k_coupling=0.4)
        with pytest.raises(ValueError):
            classify_degeneracy(model, (0.3, 0.2))

    def test_coupled_variant_rejected(self):
        model = ModelConfig(Variant.GAMMA_MODEL, Coupling3(1, 1, 1), gamma=0.4)
        with pytest.raises(ValueError):
            classify_degeneracy(model, (0.0, 0.0))


class TestFermiArcs:
    def test_k_model_species3_endpoints(self):
        j = Coupling3(2, 1, 2.5 * E3)
        model = ModelConfig(Variant.K_MODEL, j, k_coupling=0.0)
        arcs = fermi_arc_trace(model, flavour=3, grid_n=256)
        truth = ep_closed_form(j)
        assert len(arcs) == 2
        step = 2 * np.pi / 256
        for a in arcs:
            assert a.endpoint_eps[0] is not None and a.endpoint_eps[1] is not None
            for p in (a.points[0], a.points[-1]):
                assert min(torus_dist_k(p, t) for t in truth) < step

    def test_hermitian_arcs_degenerate_to_points(self):
        model = ModelConfig(Variant.PURE_YL, Coupling3(1, 1, 1))
        arcs = fermi_arc_trace(model, grid_n=128)
        assert len(arcs) == 2
        for a in arcs:
            assert len(a.points) == 1
            assert abs(abs(a.points[0][0]) - 4 * np.pi / 3) < 1e-9

    def test_point_spacing_below_grid_step(self):
        j = Coupling3(2, 1, 2.5 * E3)
        model = ModelConfig(Variant.PURE_YL, j)
        for n in (64, 128):
            step = 2 * np.pi / n
            for a in fermi_arc_trace(model, grid_n=n):
                seg = np.hypot(*np.diff(a.points, axis=0).T)
                assert seg.max() <= step * (1 + 1e-9)

    def test_arc_point_certification(self):
        # along every arc the pair product stays essentially real-negative
        j = Coupling3(2, 1, 2.5 * E3)
        model = ModelConfig(Variant.PURE_YL, j)
        n = 128
        step = 2 * np.pi / n
        for a in fermi_arc_trace(model, grid_n=n):
            pts = a.points
            prod = structure_factor(j, pts) * structure_factor(j, (-pts))
            # local gradient bound of the pair product along the arc
            grad = np.abs(np.diff(prod)) / np.maximum(np.hypot(*np.diff(pts, axis=0).T), 1e-300)
            bound = 10.0 * step * max(grad.max(), 1.0)
            assert np.abs(prod.imag).max() < bound
            assert prod.real.max() <= 1e-9

    def test_endpoint_first_order_convergence(self):
        sets = [
            Coupling3(2, 1, 2.5 * E3),
            Coupling3(1.5, 1, 1.2 * cmath.exp(0.4j)),
            Coupling3(1, 0.8, 0.9 * cmath.exp(0.9j)),
        ]
        for j in sets:
            model = ModelConfig(Variant.PURE_YL, j)
            truth = ep_closed_form(j)
            errs = []
            for n in (64, 128):
                arcs = fermi_arc_trace(model, grid_n=n)
                ends = [
                    p
                    for a in arcs
                    for p, ref in ((a.points[0], a.endpoint_eps[0]), (a.points[-1], a.endpoint_eps[1]))
                    if ref is not None
                ]
                errs.append(max(min(torus_dist_k(p, t) for t in truth) for p in ends))
            assert errs[1] <= 0.5 * errs[0]

    def test_coupled_model_arcs(self):
        model = ModelConfig(Variant.GAMMA_MODEL, Coupling3(2, 1, 2.5 * E3), gamma=0.4)
        arcs = fermi_arc_trace(model, grid_n=96)
        for a in arcs:
            closed = a.endpoint_eps == (None, None)
            if not closed:
                assert a.endpoint_eps[0] is not None and a.endpoint_eps[1] is not None

    def test_flavour_selection_validation(self):
        model = ModelConfig(Variant.GAMMA_MODEL, Coupling3(1, 1, 1), gamma=0.4)
        with pytest.raises(ValueError):
            fermi_arc_trace(model, flavour=2)
