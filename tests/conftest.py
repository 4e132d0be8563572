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


def random_complex_coupling(rng, lo=0.5, hi=2.2):
    mods = rng.uniform(lo, hi, 3)
    phases = rng.uniform(-np.pi, np.pi, 3)
    return Coupling3(*(mods * np.exp(1j * phases)))
