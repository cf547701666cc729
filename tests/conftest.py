import importlib.util
from pathlib import Path

import numpy as np
import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def random_image(rng):
    def make(height=16, width=16):
        return rng.uniform(0.0, 1.0, size=(height, width))

    return make


@pytest.fixture(scope="session")
def perfbench_frames():
    """The benchmark's sensor-frame generator, ``perfbench/frames.py``."""
    spec = importlib.util.spec_from_file_location("perfbench_frames", PERFBENCH / "frames.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
