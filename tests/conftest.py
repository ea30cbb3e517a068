from __future__ import annotations

import os
from datetime import date
from pathlib import Path

import numpy as np
import pytest

from leakbench.series import TimeSeries
from leakbench.synthetic import reference_series


@pytest.fixture(scope="session")
def climate() -> TimeSeries:
    return reference_series()


def make_series(values, start=date(2020, 1, 1), name="x") -> TimeSeries:
    """Small helper: a daily series over arbitrary values."""
    values = np.asarray(values, dtype=float)
    stamps = np.datetime64(start, "D") + np.arange(len(values))
    return TimeSeries(name=name, timestamps=stamps, values=values)


def src_env() -> dict:
    """The environment with this checkout's src/ first on PYTHONPATH, for
    running leakbench in a fresh interpreter."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    return {**os.environ,
            "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
