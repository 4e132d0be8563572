import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

from majorana_nh import Coupling3

# every run draws the same examples and writes no example database
settings.register_profile("repo", derandomize=True, deadline=None, database=None)
settings.load_profile("repo")
# hypothesis also caches the constants it reads from source files: keep that
# cache out of the working tree
set_hypothesis_home_dir(Path(tempfile.gettempdir()) / "majorana_nh_hypothesis")


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def match_eigenvalue_sets(a, b) -> float:
    """Max pairwise distance between two eigenvalue multisets under optimal pairing."""
    from scipy.optimize import linear_sum_assignment

    a = np.asarray(a, dtype=complex).ravel()
    b = np.asarray(b, dtype=complex).ravel()
    if a.shape != b.shape:
        raise ValueError("eigenvalue sets must have equal size")
    cost = np.abs(a[:, None] - b[None, :])
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].max()) if len(rows) else 0.0


def random_complex_coupling(rng, lo=0.5, hi=2.2):
    mods = rng.uniform(lo, hi, 3)
    phases = rng.uniform(-np.pi, np.pi, 3)
    return Coupling3(*(mods * np.exp(1j * phases)))


#: (j, k_coupling, k_x) of skin-effect K strips (w=20, open) whose species
#: blocks fail the trace identity on their own norm, though not on the strip's
TRACE_STRIPS = [
    ((0.33959800117393896 - 1.3276390959618392j, -1.5304532059033462 - 0.9327967178408236j,
      1.5685582617686709 - 0.37859241037677255j), 0.7041331180209431, np.pi / 2),
    ((-1.818357610300824 - 0.20063763762394304j, -0.2290279712088055 - 1.7767865751295544j,
      1.640998272348857 + 0.1509716330979037j), 0.5622724758338847, -np.pi / 2),
]
