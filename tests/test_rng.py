from __future__ import annotations

import subprocess
import sys

import numpy as np
import pytest

from leakbench.rng import default_rng

from conftest import src_env


@pytest.mark.parametrize("seed", [0, 1, 42, 2**63 - 1])
def test_streams_equal_numpy_default_rng(seed):
    ours, numpy_rng = default_rng(seed), np.random.default_rng(seed)
    assert np.array_equal(ours.permutation(1000), numpy_rng.permutation(1000))
    assert np.array_equal(ours.uniform(-1.0, 1.0, size=50), numpy_rng.uniform(-1.0, 1.0, size=50))


def test_first_draw_keeps_an_already_imported_secrets():
    code = "\n".join([
        "import sys",
        "import secrets",
        "from leakbench.rng import default_rng",
        "default_rng(3)",
        "print(sys.modules['secrets'] is secrets, 'numpy.random' in sys.modules)",
    ])
    out = subprocess.run([sys.executable, "-c", code], env=src_env(), capture_output=True,
                         text=True, check=True)
    assert out.stdout.split() == ["True", "True"]
