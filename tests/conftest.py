import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

REPO = Path(__file__).resolve().parents[1]
PERFBENCH = REPO / "perfbench"


def run_python(*args: str, env: dict[str, str] | None = None, cwd: Path | None = None,
               timeout: float = 300) -> subprocess.CompletedProcess:
    """Run ``python *args`` in a child process against the package in src/.

    The child gets ``PYTHONPATH=src`` and the test's environment; ``env``
    adds variables.
    """
    child_env = {**os.environ, **(env or {}), "PYTHONPATH": str(REPO / "src")}
    return subprocess.run(
        [sys.executable, *args], env=child_env, cwd=cwd, capture_output=True, text=True, timeout=timeout
    )


def layouts(img: np.ndarray) -> list[np.ndarray]:
    """``img`` C-ordered, Fortran-ordered, and as every other column of a wider array."""
    wide = np.zeros((*img.shape[:-1], 2 * img.shape[-1]), dtype=img.dtype)
    wide[..., ::2] = img
    return [img, np.asfortranarray(img), wide[..., ::2]]


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


def count_extracted(monkeypatch, pipeline) -> dict:
    """Patch ``pipeline`` to count the images entering feature extraction,
    each image of a list that goes to the row builder ``_image_rows``.
    ``stacks`` counts the stacks that go to ``lbp_window_features`` and
    ``views`` their images times their windows."""
    counts = {"images": 0, "stacks": 0, "views": 0}
    build, stacked = pipeline._image_rows, pipeline.lbp_window_features

    def image_rows(images, *args):
        counts["images"] += len(images)
        return build(images, *args)

    def lbp_window_features(img, config, shape, windows):
        counts["stacks"] += 1
        counts["views"] += len(img) * len(windows)
        return stacked(img, config, shape, windows)

    monkeypatch.setattr(pipeline, "_image_rows", image_rows)
    monkeypatch.setattr(pipeline, "lbp_window_features", lbp_window_features)
    return counts
