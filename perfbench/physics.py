"""Reference physics for the benchmark's checks, written apart from the package.

Everything here is rebuilt from the model definitions (flavour-diagonal,
symmetric off-diagonal, DMI plus onsite field): the 3x3 bond matrices, the
6x6 Bloch matrix in sublattice-block order, the trace of the squared strip
matrix and the species skin criterion.  None of it imports ``majorana_nh``.
"""

import math

import numpy as np

# levi-civita tensor: (G_a)_{bc} = eps_{abc} are the antisymmetric flavour
# generators, |eps_{abc}| the symmetric off-diagonal pattern of an a-link
EPS = np.zeros((3, 3, 3))
for _a, _b, _c in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
    EPS[_a, _b, _c] = 1.0
    EPS[_a, _c, _b] = -1.0
C3_DMI = ((1.0, 0.0), (-0.5, math.sqrt(3.0) / 2.0), (-0.5, -math.sqrt(3.0) / 2.0))


def bond_matrices(params):
    """(t_x, t_y, t_z, onsite, scale) of a model given as a plain dict.

    ``params`` holds ``variant`` (k_model, gamma_model or mag_model), ``j``
    (three complex couplings), the variant's own coupling and ``scale``.
    """
    eye = np.eye(3, dtype=complex)
    t = [complex(j) * eye for j in params["j"]]
    onsite = np.zeros((3, 3), dtype=complex)
    variant = params["variant"]
    if variant == "k_model":
        for a in range(3):
            t[a][a, a] += params["k"]
    elif variant == "gamma_model":
        for a in range(3):
            t[a] = t[a] + params["gamma"] * np.abs(EPS[a])
    elif variant == "mag_model":
        for a in range(3):
            dx, dy = C3_DMI[a]
            t[a] = t[a] + params["d"] * (dx * EPS[0] + dy * EPS[1])
        onsite = np.einsum("a,abc->bc", np.asarray(params["b"], dtype=float), EPS).astype(complex)
    else:
        raise ValueError(f"unknown variant {variant!r}")
    return t[0], t[1], t[2], onsite, params["scale"]


def bloch_from_phases(params, th1, th2):
    """6x6 Bloch matrices at bond phases (th1, th2), basis (a_x,a_y,a_z,b_x,b_y,b_z)."""
    tx, ty, tz, onsite, s = bond_matrices(params)
    p1 = np.exp(1j * np.asarray(th1, dtype=float))[..., None, None]
    p2 = np.exp(1j * np.asarray(th2, dtype=float))[..., None, None]
    f_k = tx * p1 + ty * p2 + tz
    f_mk = tx / p1 + ty / p2 + tz
    h = np.zeros(f_k.shape[:-2] + (6, 6), dtype=complex)
    h[..., :3, 3:] = 2j * f_k
    h[..., 3:, :3] = -2j * np.swapaxes(f_mk, -1, -2)
    h[..., :3, :3] = 2j * onsite
    h[..., 3:, 3:] = 2j * onsite
    return s * h


def bond_phases(k):
    """Bond phases theta1 = k.M1, theta2 = -k.M2 of Cartesian momenta (..., 2)."""
    k = np.asarray(k, dtype=float)
    return 0.5 * k[..., 0] + 0.5 * math.sqrt(3.0) * k[..., 1], -0.5 * k[..., 0] + 0.5 * math.sqrt(3.0) * k[..., 1]


def bloch_trace_sq(params, th1, th2):
    """tr H(k)^2 of the Bloch matrix, from the bond matrices alone."""
    tx, ty, tz, onsite, s = bond_matrices(params)
    p1 = np.exp(1j * np.asarray(th1, dtype=float))[..., None, None]
    p2 = np.exp(1j * np.asarray(th2, dtype=float))[..., None, None]
    f_k = tx * p1 + ty * p2 + tz
    f_mk = tx / p1 + ty / p2 + tz
    cross = np.einsum("...ij,...ij->...", f_k, f_mk)  # tr(f_k f_mk^T)
    return s * s * (8.0 * cross - 8.0 * np.trace(onsite @ onsite))


def strip_trace_sq(params, w, kx):
    """tr H^2 of the open zigzag strip of w dimer rows at momentum kx.

    Intra-row x/y links carry phases e^{+-i kx/2}; w-1 z-links join the rows.
    """
    tx, ty, tz, onsite, s = bond_matrices(params)
    p = np.exp(0.5j * np.asarray(kx, dtype=float))[..., None, None]
    fwd = tx * p + ty / p
    bwd = tx / p + ty * p
    row = np.einsum("...ij,...ij->...", fwd, bwd)
    z = np.einsum("ij,ij->", tz, tz)
    return s * s * (8.0 * w * row + 8.0 * (w - 1) * z - 8.0 * w * np.trace(onsite @ onsite))


def periodic_cloud_abs(params, kx, n_q=512):
    """|E| of the fully periodic bands at strip momentum kx, shape (n_q, 6)."""
    q = np.linspace(0.0, 2.0 * np.pi, n_q, endpoint=False)
    vals = np.linalg.eigvals(bloch_from_phases(params, 0.5 * kx - q, -0.5 * kx - q))
    return np.sort(np.abs(vals), axis=-1)


def species_couplings(params):
    """Per-species coupling triples of a flavour-diagonal model."""
    j = [complex(x) for x in params["j"]]
    out = []
    for eta in range(3):
        jj = list(j)
        jj[eta] += params["k"]
        out.append(jj)
    return out


def species_skin(j_eff, n_grid=1024, tol=1e-12):
    """Whether |jx e^{ik} + jy| differs from |jx e^{-ik} + jy| anywhere on a k grid."""
    k = np.linspace(-np.pi, np.pi, n_grid, endpoint=False)
    fwd = np.abs(j_eff[0] * np.exp(1j * k) + j_eff[1])
    bwd = np.abs(j_eff[0] * np.exp(-1j * k) + j_eff[1])
    return bool(np.abs(fwd - bwd).max() > tol)


def decay_ratio(j_eff, kxs):
    """Worst forward/backward intra-row bond-sum ratio over kxs (skin decay per row)."""
    kxs = np.asarray(kxs, dtype=float)
    fwd = np.abs(j_eff[0] * np.exp(1j * kxs) + j_eff[1])
    bwd = np.abs(j_eff[0] * np.exp(-1j * kxs) + j_eff[1])
    lo, hi = np.minimum(fwd, bwd), np.maximum(fwd, bwd)
    with np.errstate(divide="ignore", invalid="ignore"):
        return float(np.where(lo > 0, hi / lo, np.inf).max())
