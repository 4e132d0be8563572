"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.
"""

import cmath
import math
import time

import numpy as np
import pytest

from majorana_nh import (
    Coupling3,
    ModelConfig,
    RibbonSpec,
    Variant,
    bloch_hamiltonian,
    build_ribbon,
    closed_form_spectrum,
    diagonalize_ribbon,
    eig,
    ep_closed_form,
    ep_scan,
    k_from_bond_phase,
    match_eigenvalue_sets,
    nhse_summary,
    skin_criterion_any,
    structure_factor,
    sweep,
)
from majorana_nh.ep import _torus_dist
from majorana_nh.models import effective_couplings
from conftest import random_complex_coupling

E3 = cmath.exp(1j * math.pi / 3)
E6 = cmath.exp(1j * math.pi / 6)


def report(criterion, ok, detail=""):
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion} failed: {detail}"


def test_criterion_01_closed_form_equivalence_k_family(rng):
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(50):
        model = ModelConfig(
            Variant.K_MODEL,
            random_complex_coupling(rng),
            k_coupling=complex(rng.normal(), rng.normal()),
        )
        k = rng.uniform(-np.pi, np.pi, 2)
        dense = eig(bloch_hamiltonian(model, k).entries).eigenvalues
        worst = max(worst, match_eigenvalue_sets(dense, closed_form_spectrum(model, k).values))
    dt = time.perf_counter() - t0
    report(
        1,
        worst < 1e-10 and dt < 5.0,
        f"50 random complex sets, worst mismatch {worst:.2e}, {dt:.2f}s",
    )


def test_criterion_02_field_only_band_formula(rng):
    model = ModelConfig(Variant.MAG_MODEL, Coupling3(1, 1, 1), b_field=(0, 0, 0.7))
    worst = 0.0
    for _ in range(100):
        k = rng.uniform(-np.pi, np.pi, 2)
        f = abs(structure_factor(model.j, k))
        expect = np.array([2 * f, -2 * f, 2 * (0.7 + f), 2 * (0.7 - f), -2 * (0.7 + f), -2 * (0.7 - f)])
        dense = eig(bloch_hamiltonian(model, k).entries).eigenvalues
        worst = max(worst, match_eigenvalue_sets(dense, expect))
    k0 = eig(bloch_hamiltonian(model, (0.0, 0.0)).entries).eigenvalues
    k0_ok = match_eigenvalue_sets(k0, [6, -6, 7.4, -4.6, -7.4, 4.6]) < 1e-10
    report(2, worst < 1e-10 and k0_ok, f"100 random k, worst {worst:.2e}; zone-centre multiset ok={k0_ok}")


def test_criterion_03_majorana_antisymmetry(rng):
    worst = 0.0
    models = [
        ModelConfig(Variant.PURE_YL, random_complex_coupling(rng)),
        ModelConfig(Variant.K_MODEL, random_complex_coupling(rng), k_coupling=complex(rng.normal(), rng.normal())),
        ModelConfig(Variant.GAMMA_MODEL, random_complex_coupling(rng), gamma=complex(rng.normal(), rng.normal())),
        ModelConfig(
            Variant.MAG_MODEL,
            random_complex_coupling(rng),
            d=rng.uniform(-1, 1),
            b_field=tuple(rng.uniform(-1, 1, 3)),
        ),
    ]
    for model in models:
        for _ in range(100):
            k = rng.uniform(-2 * np.pi, 2 * np.pi, 2)
            hp = bloch_hamiltonian(model, k).entries
            hm = bloch_hamiltonian(model, -k).entries
            worst = max(worst, float(np.abs(hp + hm.T).max()))
    report(3, worst < 1e-14, f"4 variants x 100 k, worst |H(k)+H(-k)^T| = {worst:.2e}")


def test_criterion_04_ep_certification():
    t0 = time.perf_counter()
    j = Coupling3(2, 1, 2.5 * E3)
    closed = ep_closed_form(j)
    residual_ok = all(
        min(abs(structure_factor(j, r.k)), abs(structure_factor(j, (-r.k[0], -r.k[1])))) < 1e-10
        for r in closed
    )
    model = ModelConfig(Variant.PURE_YL, j)
    found = ep_scan(model, grid_n=256)
    step = 2 * np.pi / 256
    location_ok = len(found) == len(closed) == 4 and all(
        min(_torus_dist(r.bond_phase, t.bond_phase) for t in closed) < step for r in found
    )
    overlap_ok = all(r.overlap > 1 - 1e-4 for r in found)
    dt = time.perf_counter() - t0
    report(
        4,
        residual_ok and location_ok and overlap_ok and dt < 60.0,
        f"closed-form residuals ok={residual_ok}, scan within 2pi/256 ok={location_ok}, "
        f"overlaps ok={overlap_ok}, {dt:.1f}s",
    )


def test_criterion_05_torus_oracle(rng):
    worst = 0.0
    w = 24
    models = [
        ModelConfig(Variant.PURE_YL, random_complex_coupling(rng)),
        ModelConfig(Variant.K_MODEL, random_complex_coupling(rng), k_coupling=0.3 - 0.1j),
        ModelConfig(Variant.GAMMA_MODEL, random_complex_coupling(rng), gamma=0.4 + 0.2j),
        ModelConfig(
            Variant.MAG_MODEL,
            random_complex_coupling(rng),
            d=0.5,
            b_field=(0.1, -0.2, 0.7),
        ),
    ]
    for model in models:
        for kx in (0.37, -1.91, 2.53):
            h = build_ribbon(RibbonSpec(w=w, boundary_y="periodic", k_x=kx, model=model))
            strip = np.linalg.eigvals(h)
            union = []
            for n in range(w):
                q = 2 * np.pi * n / w
                k = k_from_bond_phase([kx / 2 - q, -kx / 2 - q])
                union.extend(np.linalg.eigvals(bloch_hamiltonian(model, k).entries))
            worst = max(worst, match_eigenvalue_sets(strip, np.asarray(union)))
    report(5, worst < 1e-8, f"4 variants x 3 k_x at w=24, worst mismatch {worst:.2e}")


@pytest.mark.slow
def test_criterion_06_hermitian_obc_within_pbc_cloud():
    t0 = time.perf_counter()
    model = ModelConfig(Variant.K_MODEL, Coupling3(2, 1, 2.5), k_coupling=0.4)
    kxs = np.linspace(-np.pi, np.pi, 200, endpoint=False)
    result = sweep(model, 52, kxs, n_transverse=8192)
    n_outside = 0
    outside_not_edge = 0
    outside_abs_e = []
    for recs in result.records:
        for r in recs:
            if r.cloud_distance > 1e-2:
                n_outside += 1
                outside_abs_e.append(abs(r.eigenvalue))
                if not r.label.startswith("edge"):
                    outside_not_edge += 1
    dt = time.perf_counter() - t0
    # everything off the cloud must be the near-zero edge-mode band
    edge_only = outside_not_edge == 0
    max_abs_e = max(outside_abs_e, default=math.nan)
    zero_band = max_abs_e < 0.2 if outside_abs_e else False
    report(
        6,
        edge_only and zero_band and n_outside > 0 and dt < 180.0,
        f"w=52 x 200 k_x: {n_outside} states off-cloud, all edge-classified={edge_only}, "
        f"max |E| off-cloud {max_abs_e:.3f}, {dt:.0f}s",
    )


@pytest.mark.slow
def test_criterion_07_nhse_matrix():
    t0 = time.perf_counter()
    w = 104  # the localization length of the weakest case needs this depth
    kxs = np.linspace(-np.pi, np.pi, 12, endpoint=False)
    cases = {
        "K complex jz": (
            ModelConfig(Variant.K_MODEL, Coupling3(2, 1, 2.5 * E3), k_coupling=0.4),
            False,
        ),
        "Gamma complex jz": (
            ModelConfig(Variant.GAMMA_MODEL, Coupling3(2, 1, 2.5 * E3), gamma=0.4),
            True,
        ),
        "field+DMI complex jz": (
            ModelConfig(Variant.MAG_MODEL, Coupling3(1, 1, E3), d=0.5, b_field=(0, 0, 0.7)),
            False,
        ),
        "field+DMI complex jx,jy": (
            ModelConfig(Variant.MAG_MODEL, Coupling3(E3, E6, 1), d=0.5, b_field=(0, 0, 0.7)),
            True,
        ),
    }
    details = []
    ok = True
    for name, (model, expect) in cases.items():
        summ = nhse_summary(sweep(model, w, kxs, n_transverse=768))
        good = summ.nhse_present == expect
        if name == "field+DMI complex jx,jy":
            spacing = 2 * np.pi / len(kxs)
            flips_ok = all(
                min(min(abs(f - t), 2 * np.pi - abs(f - t)) for f in summ.flip_kx) <= spacing
                for t in (0.0, np.pi)
            ) and len(summ.flip_kx) >= 2
            good = good and flips_ok
            details.append(f"{name}: frac={summ.bulk_localized_fraction:.3f} flips={[round(f, 2) for f in summ.flip_kx]}")
        else:
            details.append(f"{name}: frac={summ.bulk_localized_fraction:.3f}")
        ok = ok and good
        # coexisting extended states in the species-mixing case
        if name == "Gamma complex jz" and good:
            ext = np.mean([s.frac_extended for s in summ.per_kx])
            ok = ok and ext > 0.3
            details[-1] += f" extended={ext:.2f}"
    dt = time.perf_counter() - t0
    report(7, ok, "; ".join(details) + f"; {dt:.0f}s")


def _species_decay_ratio(j_eff, kxs):
    """Worst forward/backward intra-row bond-sum ratio over the k_x grid.

    The squared strip spectrum of one species is a one-way chain whose state
    amplitudes fall by ``min/max`` per row, so ``1/log(ratio)`` is the skin
    localization length in rows.
    """
    fwd = np.abs(j_eff.jx * np.exp(1j * kxs) + j_eff.jy)
    bwd = np.abs(j_eff.jx * np.exp(-1j * kxs) + j_eff.jy)
    lo, hi = np.minimum(fwd, bwd), np.maximum(fwd, bwd)
    with np.errstate(divide="ignore", invalid="ignore"):
        return float(np.where(lo > 0, hi / lo, np.inf).max())


@pytest.mark.slow
def test_criterion_08_skin_criterion_theorem(rng):
    # A strip of w rows resolves a skin effect only when the localization
    # length 1/log(rho) is a few times smaller than w; categories whose
    # prediction is "present" are therefore drawn with a decay ratio above
    # the strip's resolution floor (rho >= 1.35 at w = 20, floor ~ e^(5/20)),
    # which is exactly the regime the criterion's threshold-marginality
    # carve-out excludes.  Predicted-absent categories are unconstrained.
    t0 = time.perf_counter()
    n_sets = 10_000
    w = 20
    rho_floor = 1.35
    kxs = np.linspace(-np.pi, np.pi, 4, endpoint=False)
    n_agree = 0
    marginal_log = []
    hard_disagreements = []

    def draw(i):
        kind = i % 4
        while True:
            mods = rng.uniform(0.5, 2.2, 3)
            kmod = rng.uniform(0.0, 0.8)
            if kind == 0:
                return Coupling3(*mods), kmod
            if kind == 1:
                return (
                    Coupling3(mods[0], mods[1], mods[2] * np.exp(1j * rng.uniform(-np.pi, np.pi))),
                    kmod,
                )
            if kind == 2:
                ph = rng.uniform(-np.pi, np.pi, 3)
                j, kc = Coupling3(*(mods * np.exp(1j * ph))), kmod
            else:
                j = Coupling3(*mods)
                kc = rng.uniform(0.25, 0.8) * np.exp(1j * rng.uniform(-np.pi, np.pi))
            rho = max(_species_decay_ratio(je, kxs) for je in effective_couplings(j, kc))
            if rho >= rho_floor:
                return j, kc

    for i in range(n_sets):
        j, kc = draw(i)
        model = ModelConfig(Variant.K_MODEL, j, k_coupling=kc)
        effs = effective_couplings(j, kc)
        theory = any(skin_criterion_any(je) for je in effs)
        summ = nhse_summary(sweep(model, w, kxs, n_transverse=128))
        if summ.nhse_present == theory:
            n_agree += 1
            continue
        rho = max(_species_decay_ratio(je, kxs) for je in effs)
        frac = summ.bulk_localized_fraction
        entry = f"set {i}: theory={theory} frac={frac:.4f} rho={rho:.4f}"
        if rho < 1.5 or 0.01 <= frac <= 0.15:
            marginal_log.append(entry)
        else:
            hard_disagreements.append(entry)
    dt = time.perf_counter() - t0
    rate = n_agree / n_sets
    if marginal_log:
        print(f"\n  {len(marginal_log)} threshold-marginal disagreements (logged):")
        for line in marginal_log[:20]:
            print("   ", line)
    ok = rate >= 0.99 and not hard_disagreements
    report(
        8,
        ok,
        f"{n_sets} sets at w={w}, agreement {rate:.4f}, marginal={len(marginal_log)}, "
        f"non-marginal={len(hard_disagreements)}, {dt:.0f}s",
    )


def test_criterion_09_eigensolver_contract(rng):
    # residual contract at the sizes the suite exercises
    ok_res = True
    for n in (6, 16, 312):
        a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        s = eig(a)
        ok_res = ok_res and s.achieved_tol <= (1e-10 if n <= 16 else 1e-8)
    model = ModelConfig(Variant.GAMMA_MODEL, Coupling3(2, 1, 2.5 * E3), gamma=0.4)
    h = build_ribbon(RibbonSpec(w=52, boundary_y="open", k_x=0.9, model=model))
    s = diagonalize_ribbon(h)
    ok_res = ok_res and s.achieved_tol <= 1e-8

    # byte determinism of repeated single-threaded runs
    s1 = diagonalize_ribbon(h.copy())
    s2 = diagonalize_ribbon(h.copy())
    ok_det = (
        s1.eigenvalues.tobytes() == s2.eigenvalues.tobytes()
        and s1.right_vectors.tobytes() == s2.right_vectors.tobytes()
    )
    report(9, ok_res and ok_det, f"residuals ok={ok_res}, repeated-run bytes identical={ok_det}")


def test_criterion_10_hermitian_limit_reality(rng):
    worst = 0.0
    models = [
        ModelConfig(Variant.PURE_YL, Coupling3(2, 1, 2.5)),
        ModelConfig(Variant.K_MODEL, Coupling3(2, 1, 2.5), k_coupling=0.4),
        ModelConfig(Variant.GAMMA_MODEL, Coupling3(2, 1, 2.5), gamma=0.4),
        ModelConfig(Variant.MAG_MODEL, Coupling3(1, 1, 1), d=0.5, b_field=(0.1, 0.2, 0.7)),
    ]
    kxs = np.linspace(-np.pi, np.pi, 100, endpoint=False)
    for model in models:
        result = sweep(model, 16, kxs, pbc_reference=False)
        for recs in result.records:
            worst = max(worst, max(abs(r.eigenvalue.imag) for r in recs))
    report(10, worst < 1e-9, f"4 variants x 100 k_x sweeps at w=16, max |Im E| = {worst:.2e}")
