"""Lattice models on the decorated honeycomb: couplings, bond tables, Bloch matrices.

All four model variants (the SO(3)-symmetric parent model and its three
symmetry-breaking extensions) share one representation: a per-link-type 3x3
complex flavour matrix plus a 3x3 antisymmetric onsite matrix.  The Bloch
matrix is 6x6 in the basis (a_x, b_x, a_y, b_y, a_z, b_z), where a/b label the
two sublattices and x/y/z the three Majorana flavours.

Conventions
-----------
* Primitive translations of the underlying triangular lattice:
  ``M1 = (1/2, sqrt(3)/2)``, ``M2 = (1/2, -sqrt(3)/2)`` (lattice constant 1).
* Bond phases: x-links carry ``exp(+i k.M1)``, y-links ``exp(-i k.M2)``,
  z-links no phase.
* "raw" energy scale: the Hermitian parent model has bands ``+-2|f(k)|``;
  ``energy_scale="half"`` divides every matrix (hence every eigenvalue) by 2.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ConfigurationError

M1 = np.array([0.5, math.sqrt(3.0) / 2.0])
M2 = np.array([0.5, -math.sqrt(3.0) / 2.0])

FLAVOURS = ("x", "y", "z")

#: basis ordering of the 6x6 Bloch matrix
BLOCH_BASIS = ("a_x", "b_x", "a_y", "b_y", "a_z", "b_z")

# in-plane parts of the DMI unit vectors, one per link type; the z-link vector
# completes the C3-symmetric triple and may be overridden or dropped
DMI_X = (1.0, 0.0)
DMI_Y = (-0.5, math.sqrt(3.0) / 2.0)
DMI_Z = (-0.5, -math.sqrt(3.0) / 2.0)


class Variant(str, Enum):
    PURE_YL = "pure_yl"
    K_MODEL = "k_model"
    GAMMA_MODEL = "gamma_model"
    MAG_MODEL = "mag_model"


#: optional :class:`ModelConfig` fields each variant may set; the others must
#: stay at their defaults
VARIANT_FIELDS = {
    Variant.PURE_YL: (),
    Variant.K_MODEL: ("k_coupling",),
    Variant.GAMMA_MODEL: ("gamma",),
    Variant.MAG_MODEL: ("d", "b_field", "dmi_vectors"),
}


@dataclass(frozen=True)
class Coupling3:
    """Complex nearest-neighbour couplings for the three link types."""

    jx: complex
    jy: complex
    jz: complex

    def __post_init__(self):
        object.__setattr__(self, "jx", complex(self.jx))
        object.__setattr__(self, "jy", complex(self.jy))
        object.__setattr__(self, "jz", complex(self.jz))

    @classmethod
    def from_polar(cls, moduli, phases):
        return cls(*(m * cmath.exp(1j * p) for m, p in zip(moduli, phases)))

    @property
    def moduli(self):
        return (abs(self.jx), abs(self.jy), abs(self.jz))

    @property
    def phases(self):
        return (cmath.phase(self.jx), cmath.phase(self.jy), cmath.phase(self.jz))

    @property
    def is_hermitian(self) -> bool:
        return self.jx.imag == 0.0 and self.jy.imag == 0.0 and self.jz.imag == 0.0

    def __iter__(self):
        return iter((self.jx, self.jy, self.jz))

    def shifted(self, link: int, delta: complex) -> "Coupling3":
        """Return a copy with ``delta`` added to the coupling of one link type."""
        vals = [self.jx, self.jy, self.jz]
        vals[link] += delta
        return Coupling3(*vals)


def default_dmi_vectors(include_z: bool = True):
    """Default in-plane DMI vectors per link type (C3-completed z-link)."""
    dz = DMI_Z if include_z else (0.0, 0.0)
    return (DMI_X, DMI_Y, dz)


def _as_pair(v):
    t = tuple(float(c) for c in v)
    if len(t) != 2:
        raise ConfigurationError(f"expected a 2-vector, got {v!r}")
    return t


@dataclass(frozen=True)
class ModelConfig:
    """Which model variant to build, plus its couplings.

    Fields that do not belong to the chosen variant must be left at their
    defaults; validation rejects mixed configurations.
    """

    variant: Variant
    j: Coupling3
    k_coupling: complex = 0.0
    gamma: complex = 0.0
    d: float = 0.0
    b_field: tuple = (0.0, 0.0, 0.0)
    dmi_vectors: tuple | None = None
    energy_scale: str = "raw"

    def __post_init__(self):
        object.__setattr__(self, "variant", Variant(self.variant))
        object.__setattr__(self, "k_coupling", complex(self.k_coupling))
        object.__setattr__(self, "gamma", complex(self.gamma))
        if isinstance(self.d, complex):
            raise ConfigurationError("the DMI strength d must be real")
        object.__setattr__(self, "d", float(self.d))
        b = tuple(float(c) for c in self.b_field)
        if len(b) != 3:
            raise ConfigurationError("b_field must be a real 3-vector")
        object.__setattr__(self, "b_field", b)
        if self.dmi_vectors is not None:
            dv = tuple(_as_pair(v) for v in self.dmi_vectors)
            if len(dv) != 3:
                raise ConfigurationError("dmi_vectors must hold three 2-vectors")
            object.__setattr__(self, "dmi_vectors", dv)
        if self.energy_scale not in ("raw", "half"):
            raise ConfigurationError(f"unknown energy_scale {self.energy_scale!r}")
        self._validate_variant_fields()

    def _validate_variant_fields(self):
        v = self.variant
        used = VARIANT_FIELDS[v]
        checks = {
            "k_coupling": self.k_coupling != 0.0,
            "gamma": self.gamma != 0.0,
            "d": self.d != 0.0,
            "b_field": any(c != 0.0 for c in self.b_field),
            "dmi_vectors": self.dmi_vectors is not None,
        }
        for name, is_set in checks.items():
            if is_set and name not in used:
                raise ConfigurationError(
                    f"field {name!r} is not valid for variant {v.value!r}"
                )

    @property
    def scale_factor(self) -> float:
        return 0.5 if self.energy_scale == "half" else 1.0

    def resolved_dmi_vectors(self):
        if self.variant is not Variant.MAG_MODEL:
            return None
        return self.dmi_vectors if self.dmi_vectors is not None else default_dmi_vectors()


# --------------------------------------------------------------------------
# scalar building blocks
# --------------------------------------------------------------------------

def structure_factor(j: Coupling3, k):
    """Bond-phase sum ``jx e^{i k.M1} + jy e^{-i k.M2} + jz``.

    ``k`` may be a single 2-vector or an array of shape (..., 2); the return
    value is a complex scalar or an array of the leading shape.
    """
    k = np.asarray(k, dtype=float)
    th1 = k @ M1
    th2 = -(k @ M2)
    out = j.jx * np.exp(1j * th1) + j.jy * np.exp(1j * th2) + j.jz
    if out.ndim == 0:
        return complex(out)
    return out


def effective_couplings(j: Coupling3, k_coupling: complex):
    """The three link-shifted coupling triples of the flavour-diagonal model."""
    kc = complex(k_coupling)
    return tuple(j.shifted(link, kc) for link in range(3))


def species(model: ModelConfig):
    """The Majorana species of a flavour-conserving model; None if they mix.

    The parent model and its flavour-diagonal (K) extension keep the three
    flavours apart: the Bloch matrix splits into one 2x2 block per species,
    each a parent-model block with its own coupling triple.  Returns the
    distinct ``(flavour label, Coupling3)`` pairs: ``((None, j),)`` for the
    parent model, whose three species coincide, and flavours 1-3 with the
    link-shifted couplings of :func:`effective_couplings` for the K model.
    The flavour-off-diagonal and field+DMI terms mix the species: None.
    """
    if model.variant is Variant.PURE_YL:
        return ((None, model.j),)
    if model.variant is Variant.K_MODEL:
        return tuple(zip((1, 2, 3), effective_couplings(model.j, model.k_coupling)))
    return None


def shifted_structure_factors(j: Coupling3, k_coupling: complex, k):
    """Per-flavour bond sums of the flavour-diagonal model.

    Equal to ``structure_factor`` evaluated with the couplings of
    :func:`effective_couplings`, i.e. ``(f + K e^{i k.M1}, f + K e^{-i k.M2},
    f + K)``.
    """
    return tuple(structure_factor(jeff, k) for jeff in effective_couplings(j, k_coupling))


def triangle_test(moduli) -> bool:
    """True iff each modulus is bounded by the sum of the other two."""
    m = [float(x) for x in moduli]
    if len(m) != 3:
        raise ValueError("triangle_test expects three moduli")
    if any(x < 0 for x in m):
        raise ValueError("moduli must be nonnegative")
    a, b, c = m
    return a <= b + c and b <= c + a and c <= a + b


def branch_sqrt(z: complex) -> complex:
    """Square root with Re >= 0, ties broken towards Im >= 0."""
    w = cmath.sqrt(z)
    if w.real < 0.0 or (w.real == 0.0 and w.imag < 0.0):
        w = -w
    return w


# --------------------------------------------------------------------------
# flavour bond table
# --------------------------------------------------------------------------

def _unit(mu, nu):
    e = np.zeros((3, 3), dtype=complex)
    e[mu, nu] = 1.0
    return e


# antisymmetric generators: pattern of an axis vector acting on flavour space
_GEN_X = _unit(1, 2) - _unit(2, 1)
_GEN_Y = _unit(2, 0) - _unit(0, 2)
_GEN_Z = _unit(0, 1) - _unit(1, 0)

# symmetric off-diagonal generators, one per link type
_SYM = (
    _unit(1, 2) + _unit(2, 1),
    _unit(2, 0) + _unit(0, 2),
    _unit(0, 1) + _unit(1, 0),
)


@dataclass(frozen=True)
class FlavourBondTable:
    """Per-link-type flavour matrices plus the onsite antisymmetric matrix.

    ``t_alpha[mu, nu]`` is the amplitude of the ``c^(mu)_j c^(nu)_l`` term on
    an alpha-link (j on sublattice a, l on sublattice b); ``onsite`` holds the
    amplitudes of the onsite ``c^(mu) c^(nu)`` terms.
    """

    t_x: np.ndarray
    t_y: np.ndarray
    t_z: np.ndarray
    onsite: np.ndarray

    @property
    def t(self):
        return (self.t_x, self.t_y, self.t_z)

    @property
    def is_flavour_diagonal(self) -> bool:
        return all(
            np.count_nonzero(t - np.diag(np.diag(t))) == 0 for t in self.t
        ) and np.count_nonzero(self.onsite) == 0


@functools.lru_cache(maxsize=256)
def flavour_bond_table(model: ModelConfig) -> FlavourBondTable:
    """Assemble the unified bond/onsite representation of a model variant.

    Built once per (hashable, frozen) model and shared by every caller, so
    the arrays are read-only.
    """
    eye = np.eye(3, dtype=complex)
    t = [j_alpha * eye for j_alpha in model.j]
    onsite = np.zeros((3, 3), dtype=complex)

    if model.variant is Variant.K_MODEL:
        for alpha in range(3):
            t[alpha] = t[alpha] + model.k_coupling * _unit(alpha, alpha)
    elif model.variant is Variant.GAMMA_MODEL:
        for alpha in range(3):
            t[alpha] = t[alpha] + model.gamma * _SYM[alpha]
    elif model.variant is Variant.MAG_MODEL:
        dvs = model.resolved_dmi_vectors()
        for alpha in range(3):
            dx, dy = dvs[alpha]
            t[alpha] = t[alpha] + model.d * (dx * _GEN_X + dy * _GEN_Y)
        bx, by, bz = model.b_field
        onsite = bx * _GEN_X + by * _GEN_Y + bz * _GEN_Z

    for arr in (*t, onsite):
        arr.flags.writeable = False
    return FlavourBondTable(t[0], t[1], t[2], onsite)


# --------------------------------------------------------------------------
# Bloch matrix
# --------------------------------------------------------------------------

_A_IDX = np.array([0, 2, 4])
_B_IDX = np.array([1, 3, 5])


@dataclass(frozen=True)
class BlochMatrix:
    """6x6 momentum-space matrix at one k point, basis ``BLOCH_BASIS``."""

    k: tuple
    entries: np.ndarray


def bloch_matrix_grid(model: ModelConfig, ks) -> np.ndarray:
    """Bloch matrices for a batch of k points; shape (..., 6, 6).

    The sublattice-offdiagonal blocks are ``+-2i`` times the bond sums at
    ``+-k`` (transposed for the b->a block, which enforces the Majorana
    antisymmetry ``H(k) = -H(-k)^T``); onsite blocks are ``2i`` times the
    antisymmetric onsite matrix on both sublattice diagonals.
    """
    table = flavour_bond_table(model)
    ks = np.asarray(ks, dtype=float)
    th1 = ks @ M1
    th2 = -(ks @ M2)
    p1 = np.exp(1j * th1)[..., None, None]
    p2 = np.exp(1j * th2)[..., None, None]
    f_k = table.t_x * p1 + table.t_y * p2 + table.t_z
    f_mk = table.t_x / p1 + table.t_y / p2 + table.t_z

    shape = ks.shape[:-1] + (6, 6)
    h = np.zeros(shape, dtype=complex)
    h[..., _A_IDX[:, None], _B_IDX[None, :]] = 2j * f_k
    h[..., _B_IDX[:, None], _A_IDX[None, :]] = -2j * np.swapaxes(f_mk, -1, -2)
    h[..., _A_IDX[:, None], _A_IDX[None, :]] = 2j * table.onsite
    h[..., _B_IDX[:, None], _B_IDX[None, :]] = 2j * table.onsite
    return h * model.scale_factor


def bloch_hamiltonian(model: ModelConfig, k) -> BlochMatrix:
    """Bloch matrix of the configured model at a single k point."""
    k = np.asarray(k, dtype=float)
    if k.shape != (2,):
        raise ValueError("k must be a 2-vector")
    return BlochMatrix(k=(float(k[0]), float(k[1])), entries=bloch_matrix_grid(model, k))


# --------------------------------------------------------------------------
# closed-form spectra
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class ClosedFormSpectrum:
    """Analytic eigenvalues at one k, sorted by (Re, Im).

    ``heuristic`` marks the field-only bands evaluated with complex couplings,
    where ``|f|`` is generalized to the principal branch of
    ``sqrt(f(k) f(-k))``.
    """

    values: np.ndarray
    heuristic: bool = False


def _branch_sqrt_grid(z):
    w = np.sqrt(np.asarray(z, dtype=complex))
    flip = (w.real < 0.0) | ((w.real == 0.0) & (w.imag < 0.0))
    return np.where(flip, -w, w)


def closed_form_spectrum_grid(model: ModelConfig, ks) -> np.ndarray | None:
    """Analytic spectrum for a batch of k points: shape (..., 6), unsorted.

    Available for the flavour-conserving models (per species
    ``+-2 sqrt(A(k) A(-k))``) and the onsite-field model without DMI; None
    for the flavour-off-diagonal model and the model with nonzero DMI.
    """
    ks = np.asarray(ks, dtype=float)
    s = model.scale_factor

    sets = species(model)
    if sets is not None:
        roots = [
            2.0 * _branch_sqrt_grid(structure_factor(j, ks) * structure_factor(j, -ks))
            for _, j in sets
        ]
        # the parent model's single species stands for all three flavours
        r = np.stack(roots * (3 // len(roots)), axis=-1)
        return np.concatenate([r, -r], axis=-1) * s

    if model.variant is Variant.MAG_MODEL and model.d == 0.0:
        f_k = structure_factor(model.j, ks)
        f_mk = structure_factor(model.j, -ks)
        g = 2.0 * _branch_sqrt_grid(f_k * f_mk)
        b = 2.0 * math.sqrt(sum(c * c for c in model.b_field))
        return np.stack([g, -g, b + g, b - g, -(b + g), -(b - g)], axis=-1) * s

    return None


def closed_form_spectrum(model: ModelConfig, k) -> ClosedFormSpectrum | None:
    """Analytic spectrum at one k point, sorted; None where none exists.

    One point of :func:`closed_form_spectrum_grid`.  The field-only bands are
    ``heuristic`` for complex couplings.
    """
    vals = closed_form_spectrum_grid(model, k)
    if vals is None:
        return None
    heuristic = model.variant is Variant.MAG_MODEL and not model.j.is_hermitian
    return ClosedFormSpectrum(values=np.sort_complex(vals), heuristic=heuristic)
