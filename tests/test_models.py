"""Model layer: bond sums, bond tables, Bloch matrices, closed-form bands."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from majorana_nh import (
    M1,
    M2,
    ConfigurationError,
    Coupling3,
    ModelConfig,
    Variant,
    bloch_hamiltonian,
    branch_sqrt,
    closed_form_spectrum,
    default_dmi_vectors,
    effective_couplings,
    eig,
    flavour_bond_table,
    species,
    structure_factor,
    triangle_test,
)
from majorana_nh.models import VARIANT_FIELDS, closed_form_spectrum_grid
from conftest import match_eigenvalue_sets, random_complex_coupling

E3 = cmath.exp(1j * math.pi / 3)


def brute_force_min_abs_f(j, n=600):
    """Oracle: coarse grid minimization of |f| over the zone, Newton-free."""
    k1 = np.linspace(-1.5 * np.pi, 1.5 * np.pi, n)
    kx, ky = np.meshgrid(k1, k1, indexing="ij")
    vals = np.abs(structure_factor(j, np.stack([kx, ky], axis=-1)))
    i = np.unravel_index(vals.argmin(), vals.shape)
    return vals[i], np.array([kx[i], ky[i]])


class TestStructureFactor:
    def test_isotropic_at_zone_center(self):
        assert structure_factor(Coupling3(1, 1, 1), (0.0, 0.0)) == pytest.approx(3.0)

    def test_dirac_point_zero(self):
        j = Coupling3(1, 1, 1)
        assert abs(structure_factor(j, (4 * np.pi / 3, 0.0))) < 1e-12
        # cross-check the location by brute-force minimization
        fmin, kmin = brute_force_min_abs_f(j)
        assert fmin < 2e-2
        assert abs(structure_factor(j, kmin)) < 2e-2

    def test_complex_couplings_at_zone_center(self):
        j = Coupling3(2, 1, 2.5 * E3)
        expect = 3 + 2.5 * E3  # direct evaluation
        assert structure_factor(j, (0.0, 0.0)) == pytest.approx(expect, abs=1e-12)
        assert structure_factor(j, (0.0, 0.0)) == pytest.approx(4.25 + 2.16506j, abs=1e-5)

    def test_vectorized_matches_scalar(self, rng):
        j = random_complex_coupling(rng)
        ks = rng.uniform(-np.pi, np.pi, (40, 2))
        batch = structure_factor(j, ks)
        singles = np.array([structure_factor(j, k) for k in ks])
        np.testing.assert_allclose(batch, singles, atol=1e-15)


def shifted_sums(j, k_coupling, k):
    """The per-flavour bond sums of the K model: ``structure_factor`` over ``effective_couplings``."""
    return tuple(structure_factor(j_eta, k) for j_eta in effective_couplings(j, k_coupling))


class TestShiftedFactors:
    def test_zone_center_shift(self):
        a = shifted_sums(Coupling3(1, 1, 1), 0.4, (0.0, 0.0))
        assert a == pytest.approx((3.4, 3.4, 3.4))

    def test_zero_shift_reduces_to_f(self, rng):
        j = random_complex_coupling(rng)
        for _ in range(10):
            k = rng.uniform(-np.pi, np.pi, 2)
            f = structure_factor(j, k)
            assert shifted_sums(j, 0.0, k) == pytest.approx((f, f, f))

    def test_matches_shifted_couplings(self):
        # each link's shift adds K times that link's bond phase to f
        j = Coupling3(2, 1, 2.5 * E3)
        k = np.array([np.pi / 2, 0.0])
        f = structure_factor(j, k)
        phases = (np.exp(1j * k @ M1), np.exp(-1j * k @ M2), 1.0)
        for a_eta, phase in zip(shifted_sums(j, 0.4, k), phases):
            assert a_eta == pytest.approx(f + 0.4 * phase, abs=1e-14)


class TestEffectiveCouplings:
    def test_zero_shift(self):
        j = Coupling3(1, 1, 1)
        assert effective_couplings(j, 0.0) == (j, j, j)

    def test_real_shift(self):
        j1, j2, j3 = effective_couplings(Coupling3(2, 1, 2.5), 0.4)
        assert (j1.jx, j1.jy, j1.jz) == (2.4, 1, 2.5)
        assert (j2.jx, j2.jy, j2.jz) == (2, 1.4, 2.5)
        assert (j3.jx, j3.jy, j3.jz) == (2, 1, 2.9)

    def test_complex_shift(self):
        _, _, j3 = effective_couplings(Coupling3(2, 1, 2.5 * E3), 0.4)
        assert j3.jz == pytest.approx(2.5 * E3 + 0.4)
        assert j3.jz == pytest.approx(1.65 + 2.16506j, abs=1e-5)


class TestTriangleTest:
    def test_equilateral(self):
        assert triangle_test((1, 1, 1))

    def test_gapped(self):
        assert not triangle_test((1, 1, 2.5))

    def test_scalene_each_inequality(self):
        m = (2.0, 1.0, 2.5)
        assert m[0] <= m[1] + m[2] and m[1] <= m[0] + m[2] and m[2] <= m[0] + m[1]
        assert triangle_test(m)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            triangle_test((1, -1, 1))


class TestCouplingType:
    def test_hermitian_predicate(self):
        assert Coupling3(1, 2, 3).is_hermitian
        assert not Coupling3(1, 2, 3 + 1e-30j).is_hermitian

    def test_polar_roundtrip(self, rng):
        j = random_complex_coupling(rng)
        rebuilt = Coupling3.from_polar(j.moduli, j.phases)
        for a, b in zip(j, rebuilt):
            assert a == pytest.approx(b, abs=1e-15)


class TestSpecies:
    def test_pure_model_is_one_species(self):
        j = Coupling3(2, 1, 2.5 * E3)
        assert species(ModelConfig(Variant.PURE_YL, j)) == ((None, j),)

    def test_k_model_species_are_the_shifted_couplings(self):
        j = Coupling3(2, 1, 2.5 * E3)
        sets = species(ModelConfig(Variant.K_MODEL, j, k_coupling=0.4))
        assert [flavour for flavour, _ in sets] == [1, 2, 3]
        assert tuple(j_eff for _, j_eff in sets) == effective_couplings(j, 0.4)

    def test_mixing_models_have_no_species(self):
        j = Coupling3(1, 1, 1)
        assert species(ModelConfig(Variant.GAMMA_MODEL, j, gamma=0.4)) is None
        assert species(ModelConfig(Variant.MAG_MODEL, j, d=0.5, b_field=(0, 0, 0.7))) is None

    def test_unshifted_k_model_has_pure_model_couplings(self, rng):
        j = random_complex_coupling(rng)
        ((_, j_pure),) = species(ModelConfig(Variant.PURE_YL, j))
        for _, j_eff in species(ModelConfig(Variant.K_MODEL, j, k_coupling=0.0)):
            assert j_eff == j_pure


class TestModelConfigValidation:
    def test_variant_field_mismatch(self):
        with pytest.raises(ConfigurationError):
            ModelConfig(Variant.PURE_YL, Coupling3(1, 1, 1), gamma=0.3)
        with pytest.raises(ConfigurationError):
            ModelConfig(Variant.K_MODEL, Coupling3(1, 1, 1), k_coupling=0.4, d=0.5)
        with pytest.raises(ConfigurationError):
            ModelConfig(Variant.GAMMA_MODEL, Coupling3(1, 1, 1), gamma=0.4, b_field=(0, 0, 1))

    def test_bad_scale(self):
        with pytest.raises(ConfigurationError):
            ModelConfig(Variant.PURE_YL, Coupling3(1, 1, 1), energy_scale="double")

    def test_dmi_defaults_c3(self):
        vecs = np.array(default_dmi_vectors())
        np.testing.assert_allclose(vecs[0], [1.0, 0.0], atol=1e-15)
        np.testing.assert_allclose(vecs[1], [-0.5, np.sqrt(3) / 2], atol=1e-15)
        np.testing.assert_allclose(vecs[2], [-0.5, -np.sqrt(3) / 2], atol=1e-15)
        np.testing.assert_allclose(vecs.sum(axis=0), [0, 0], atol=1e-15)


def _random_models(rng):
    def rc():
        return complex(rng.normal(), rng.normal())

    return [
        ModelConfig(Variant.PURE_YL, random_complex_coupling(rng)),
        ModelConfig(Variant.K_MODEL, random_complex_coupling(rng), k_coupling=rc()),
        ModelConfig(Variant.GAMMA_MODEL, random_complex_coupling(rng), gamma=rc()),
        ModelConfig(
            Variant.MAG_MODEL,
            random_complex_coupling(rng),
            d=rng.uniform(-1, 1),
            b_field=tuple(rng.uniform(-1, 1, 3)),
        ),
    ]


class TestBlochMatrix:
    def test_majorana_antisymmetry_all_variants(self, rng):
        worst = 0.0
        for model in _random_models(rng):
            for _ in range(100):
                k = rng.uniform(-2 * np.pi, 2 * np.pi, 2)
                hp = bloch_hamiltonian(model, k).entries
                hm = bloch_hamiltonian(model, -k).entries
                worst = max(worst, np.abs(hp + hm.T).max())
        assert worst < 1e-14

    def test_hermitian_for_real_couplings(self, rng):
        models = [
            ModelConfig(Variant.PURE_YL, Coupling3(2, 1, 2.5)),
            ModelConfig(Variant.K_MODEL, Coupling3(2, 1, 2.5), k_coupling=0.4),
            ModelConfig(Variant.GAMMA_MODEL, Coupling3(2, 1, 2.5), gamma=0.4),
            ModelConfig(Variant.MAG_MODEL, Coupling3(1, 1, 1), d=0.5, b_field=(0.1, 0.2, 0.7)),
        ]
        for model in models:
            for _ in range(20):
                k = rng.uniform(-np.pi, np.pi, 2)
                h = bloch_hamiltonian(model, k).entries
                assert np.abs(h - h.conj().T).max() < 1e-14
                assert np.abs(eig(h).eigenvalues.imag).max() < 1e-10

    def test_pure_model_isotropic_bands(self):
        model = ModelConfig(Variant.PURE_YL, Coupling3(1, 1, 1))
        vals = eig(bloch_hamiltonian(model, (0.0, 0.0)).entries).eigenvalues
        np.testing.assert_allclose(sorted(vals.real), [-6, -6, -6, 6, 6, 6], atol=1e-12)
        np.testing.assert_allclose(vals.imag, 0, atol=1e-12)

    def test_threefold_degeneracy_at_random_k(self, rng):
        model = ModelConfig(Variant.PURE_YL, Coupling3(2, 1, 2.5))
        for _ in range(10):
            k = rng.uniform(-np.pi, np.pi, 2)
            f = structure_factor(model.j, k)
            vals = eig(bloch_hamiltonian(model, k).entries).eigenvalues
            expect = np.array([2 * abs(f)] * 3 + [-2 * abs(f)] * 3)
            assert match_eigenvalue_sets(vals, expect) < 1e-10

    def test_reductions_to_pure_model(self, rng):
        j = random_complex_coupling(rng)
        base = ModelConfig(Variant.PURE_YL, j)
        reduced = [
            ModelConfig(Variant.K_MODEL, j, k_coupling=0.0),
            ModelConfig(Variant.GAMMA_MODEL, j, gamma=0.0),
            ModelConfig(Variant.MAG_MODEL, j, d=0.0, b_field=(0, 0, 0)),
        ]
        for _ in range(20):
            k = rng.uniform(-np.pi, np.pi, 2)
            h0 = bloch_hamiltonian(base, k).entries
            for model in reduced:
                np.testing.assert_array_equal(bloch_hamiltonian(model, k).entries, h0)

    def test_half_scale_halves_eigenvalues(self, rng):
        j = random_complex_coupling(rng)
        raw = ModelConfig(Variant.GAMMA_MODEL, j, gamma=0.3)
        half = ModelConfig(Variant.GAMMA_MODEL, j, gamma=0.3, energy_scale="half")
        k = rng.uniform(-np.pi, np.pi, 2)
        np.testing.assert_allclose(
            bloch_hamiltonian(half, k).entries, 0.5 * bloch_hamiltonian(raw, k).entries
        )

    def test_k_model_determinant_factorizes(self, rng):
        model = ModelConfig(Variant.K_MODEL, random_complex_coupling(rng), k_coupling=0.4 - 0.2j)
        for _ in range(20):
            k = rng.uniform(-np.pi, np.pi, 2)
            det = np.linalg.det(bloch_hamiltonian(model, k).entries)
            a_k = shifted_sums(model.j, model.k_coupling, k)
            a_mk = shifted_sums(model.j, model.k_coupling, -k)
            expect = 2**6 * np.prod([abs(p) * abs(m) for p, m in zip(a_k, a_mk)])
            assert abs(det) == pytest.approx(expect, rel=1e-10)


class TestFlavourBondTable:
    def test_pure_model_table(self):
        t = flavour_bond_table(ModelConfig(Variant.PURE_YL, Coupling3(2, 1, 2.5)))
        np.testing.assert_array_equal(t.t_x, 2 * np.eye(3))
        np.testing.assert_array_equal(t.t_y, 1 * np.eye(3))
        np.testing.assert_array_equal(t.t_z, 2.5 * np.eye(3))
        assert np.count_nonzero(t.onsite) == 0

    def test_k_model_table(self):
        t = flavour_bond_table(ModelConfig(Variant.K_MODEL, Coupling3(1, 1, 1), k_coupling=0.4))
        for alpha, t_a in enumerate(t.t):
            expect = np.eye(3, dtype=complex)
            expect[alpha, alpha] += 0.4
            np.testing.assert_array_equal(t_a, expect)

    def test_gamma_model_table(self):
        t = flavour_bond_table(ModelConfig(Variant.GAMMA_MODEL, Coupling3(1, 1, 1), gamma=0.4))
        pairs = {0: (1, 2), 1: (2, 0), 2: (0, 1)}
        for alpha, t_a in enumerate(t.t):
            expect = np.eye(3, dtype=complex)
            mu, nu = pairs[alpha]
            expect[mu, nu] += 0.4
            expect[nu, mu] += 0.4
            np.testing.assert_array_equal(t_a, expect)

    def test_mag_model_onsite_antisymmetric(self, rng):
        b = tuple(rng.uniform(-1, 1, 3))
        t = flavour_bond_table(ModelConfig(Variant.MAG_MODEL, Coupling3(1, 1, 1), b_field=b))
        np.testing.assert_array_equal(t.onsite, -t.onsite.T)
        # axis vector recovers the field components
        assert t.onsite[1, 2] == pytest.approx(b[0])
        assert t.onsite[2, 0] == pytest.approx(b[1])
        assert t.onsite[0, 1] == pytest.approx(b[2])

    def test_table_built_once_per_model_and_read_only(self):
        model = ModelConfig(Variant.GAMMA_MODEL, Coupling3(2, 1, 2.5), gamma=0.4)
        t = flavour_bond_table(model)
        assert flavour_bond_table(ModelConfig(Variant.GAMMA_MODEL, Coupling3(2, 1, 2.5), gamma=0.4)) is t
        for arr in (*t.t, t.onsite):
            with pytest.raises(ValueError):
                arr[0, 0] = 7.0
        np.testing.assert_array_equal(t.t_x[0], [2, 0, 0])

    def test_dmi_antisymmetric_flavour_structure(self):
        t = flavour_bond_table(
            ModelConfig(Variant.MAG_MODEL, Coupling3(1, 1, 1), d=0.5)
        )
        for t_a in t.t:
            off = t_a - np.diag(np.diag(t_a))
            np.testing.assert_array_equal(off, -off.T)


class TestClosedFormSpectrum:
    def test_pure_model_gapless_point(self):
        model = ModelConfig(Variant.PURE_YL, Coupling3(1, 1, 1))
        cf = closed_form_spectrum(model, (4 * np.pi / 3, 0.0))
        np.testing.assert_allclose(np.abs(cf.values), 0, atol=1e-12)

    def test_field_only_bands(self):
        # oracle: dense eigensolver on the assembled matrix
        model = ModelConfig(Variant.MAG_MODEL, Coupling3(1, 1, 1), b_field=(0, 0, 0.7))
        cf = closed_form_spectrum(model, (0.0, 0.0))
        expect = sorted([6, -6, 7.4, -4.6, -7.4, 4.6])
        np.testing.assert_allclose(sorted(cf.values.real), expect, atol=1e-12)
        dense = eig(bloch_hamiltonian(model, (0.0, 0.0)).entries).eigenvalues
        assert match_eigenvalue_sets(cf.values, dense) < 1e-10

    def test_unavailable_cases(self):
        gamma = ModelConfig(Variant.GAMMA_MODEL, Coupling3(1, 1, 1), gamma=0.4)
        assert closed_form_spectrum(gamma, (0.1, 0.2)) is None
        dmi = ModelConfig(Variant.MAG_MODEL, Coupling3(1, 1, 1), d=0.5)
        assert closed_form_spectrum(dmi, (0.1, 0.2)) is None

    def test_k_model_matches_eig_complex(self, rng):
        model = ModelConfig(
            Variant.K_MODEL, Coupling3(2, 1, 2.5 * E3), k_coupling=0.4
        )
        for _ in range(20):
            k = rng.uniform(-np.pi, np.pi, 2)
            cf = closed_form_spectrum(model, k)
            dense = eig(bloch_hamiltonian(model, k).entries).eigenvalues
            assert match_eigenvalue_sets(cf.values, dense) < 1e-10

    def test_one_point_of_the_grid(self, rng):
        for model in _random_models(rng)[:2] + [
            ModelConfig(Variant.MAG_MODEL, random_complex_coupling(rng), b_field=(0.1, 0, 0.7))
        ]:
            k = rng.uniform(-np.pi, np.pi, 2)
            grid = closed_form_spectrum_grid(model, np.array([k, -k]))
            np.testing.assert_allclose(
                closed_form_spectrum(model, k).values, np.sort_complex(grid[0]), atol=1e-13
            )

    def test_field_only_complex_couplings_exact(self):
        nh = ModelConfig(Variant.MAG_MODEL, Coupling3(1, 1, E3), b_field=(0, 0, 0.7))
        cf = closed_form_spectrum(nh, (0.1, 0.7))
        dense = eig(bloch_hamiltonian(nh, (0.1, 0.7)).entries).eigenvalues
        assert match_eigenvalue_sets(cf.values, dense) < 1e-10

    @settings(max_examples=200)
    @given(
        j=st.tuples(*[st.complex_numbers(max_magnitude=3.0, allow_nan=False, allow_infinity=False)] * 3),
        b=st.tuples(*[st.floats(-2.0, 2.0)] * 3),
        energy_scale=st.sampled_from(("raw", "half")),
        k=st.tuples(st.floats(-np.pi, np.pi), st.floats(-np.pi, np.pi)),
    )
    def test_field_only_bands_match_eig(self, j, b, energy_scale, k):
        # without DMI every bond is j_alpha times the flavour identity, which
        # commutes with the onsite field: the bands are exact for any complex j
        model = ModelConfig(Variant.MAG_MODEL, Coupling3(*j), b_field=b, energy_scale=energy_scale)
        cf = closed_form_spectrum(model, k).values
        scale = max(1.0, np.abs(cf).max())
        f_k, f_mk = structure_factor(model.j, k), structure_factor(model.j, np.negative(k))
        # the pair gap |g| closes at an EP, where the dense solver loses about sqrt(eps)
        assume(2.0 * model.scale_factor * abs(f_k * f_mk) ** 0.5 >= 1e-3 * scale)
        dense = eig(bloch_hamiltonian(model, k).entries).eigenvalues
        assert match_eigenvalue_sets(cf, dense) <= 1e-10 * scale


class TestBranchSqrt:
    def test_principal_branch_convention(self):
        assert branch_sqrt(4.0) == pytest.approx(2.0)
        assert branch_sqrt(-4.0) == pytest.approx(2j)
        w = branch_sqrt(-1 - 1e-18j)
        assert w.real >= 0.0
        for z in (3 + 4j, -3 + 4j, -3 - 4j, 3 - 4j):
            w = branch_sqrt(z)
            assert w * w == pytest.approx(z)
            assert w.real > 0.0


#: a value other than the default for each optional ModelConfig field
_SET_VALUES = {
    "k_coupling": 0.4,
    "gamma": 0.3j,
    "d": 0.5,
    "b_field": (0.0, 0.0, 0.7),
    "dmi_vectors": default_dmi_vectors(),
}


def test_set_values_cover_every_optional_field():
    assert set(_SET_VALUES) == set().union(*VARIANT_FIELDS.values())


@pytest.mark.parametrize(
    "variant, field",
    [(v, f) for v in Variant for f in _SET_VALUES if f not in VARIANT_FIELDS[v]],
)
def test_field_of_another_variant_rejected(variant, field):
    with pytest.raises(ConfigurationError, match=f"field '{field}' is not valid for variant '{variant.value}'"):
        ModelConfig(variant, Coupling3(1, 1, 1), **{field: _SET_VALUES[field]})


@pytest.mark.parametrize("variant, field", [(v, f) for v in Variant for f in VARIANT_FIELDS[v]])
def test_field_of_its_own_variant_accepted(variant, field):
    model = ModelConfig(variant, Coupling3(1, 1, 1), **{field: _SET_VALUES[field]})
    assert getattr(model, field) == _SET_VALUES[field]


@given(st.lists(st.complex_numbers(allow_nan=False, allow_infinity=False), min_size=1, max_size=16))
def test_branch_sqrt_of_array_is_elementwise(zs):
    roots = branch_sqrt(np.array(zs, dtype=complex))
    singles = [branch_sqrt(z) for z in zs]
    assert all(isinstance(w, complex) for w in singles)
    # bit for bit, signed zeros included
    assert roots.view(np.uint64).tolist() == np.array(singles, dtype=complex).view(np.uint64).tolist()
    for w in singles:
        assert w.real >= 0.0
        assert w.real > 0.0 or w.imag >= 0.0
