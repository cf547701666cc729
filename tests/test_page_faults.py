"""Scoring in-memory images does not fault in fresh heap pages.

A fresh process that only loads a model, as CLI ``predict`` does, starts
with glibc's default mmap and trim thresholds.  A layer that allocates
full-size temporaries for every view stack then hands them back to the
kernel and faults them in again on the next image.  The convnet runs
ReLU and LCN in place on its conv output and builds its im2col blocks
one view or channel at a time, which keeps such a process at about 16
minor faults per image, with one view stack or two on two threads; a
temporary per layer read about 1,800.  Training raises the thresholds,
so the model is fitted here and scored in a child process that only
loads it.

The sensor model, scored from PGM bytes as CLI ``predict`` scores them,
is pinned too, at its current level: its frame-sized float64 temporaries
(the decoded frame and ``img * 255.0`` in the ROI step, 2.4 MB each)
still fault about 1,575 pages per 480x640 frame.
"""

import sys

import pytest

from livecheck import (
    derive_seed, fit_pipeline, load_dataset, load_images, make_texture_dataset, parse_config, save_model,
    write_dataset_tree,
)

from conftest import PERFBENCH, run_python

WORKLOAD = "scan-convnet-aug"
# Far below the ~1,800 per image of per-layer temporaries, far above the
# 16-17 of the in-place, lean layers.
MAX_FAULTS_PER_IMAGE = 200
# 1,575 per frame when pinned; one more frame-sized float64 temporary
# adds about 600 (2.4 MB of 4 KiB pages).
MAX_FAULTS_PER_SENSOR_FRAME = 1_900

_FAULTS_PER_IMAGE = """
import resource
import sys

from livecheck import derive_seed, load_model, make_texture_dataset

model = load_model(sys.argv[1])
images, _ = make_texture_dataset(20, size=64, seed=derive_seed(2015, sys.argv[2], "probe"), blur_sigma=0.4)
model.decision_score(images[0])
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for img in images:
    model.decision_score(img)
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / len(images))
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="glibc heap behaviour is Linux-specific")
def test_convnet_scoring_stays_off_fresh_pages(tmp_path):
    """The benchmark's convnet model (8 images per class) scores one image
    to warm up, then 40 in-memory 64x64 images."""
    parsed = parse_config((PERFBENCH / "configs" / f"{WORKLOAD}.ini").read_text(encoding="utf-8"))
    images, labels = make_texture_dataset(8, size=64, seed=derive_seed(2015, WORKLOAD, "train"), blur_sigma=0.4)
    save_model(tmp_path / "model.lvck", fit_pipeline(images, labels, parsed.single_config()))
    result = run_python("-c", _FAULTS_PER_IMAGE, str(tmp_path / "model.lvck"), WORKLOAD)
    assert result.returncode == 0, result.stderr
    faults = float(result.stdout)
    assert faults < MAX_FAULTS_PER_IMAGE, f"{faults:.1f} minor faults per image"


_FAULTS_PER_FRAME = """
import resource
import sys
from pathlib import Path

from livecheck import load_model
from livecheck.imageproc import ingest

model = load_model(sys.argv[1])
frames = [path.read_bytes() for path in sorted(Path(sys.argv[2]).rglob("*.pgm"))]
model.decision_score(ingest(frames[0]))
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for data in frames:
    model.decision_score(ingest(data))
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / len(frames))
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="glibc heap behaviour is Linux-specific")
def test_sensor_scoring_faults_stay_pinned(tmp_path, perfbench_frames):
    """The benchmark's sensor model (2 frames per class, fitted from its
    PGM tree) scores one frame to warm up, then 16 480x640 PGM frames."""
    workload = "scan-sensor"
    parsed = parse_config((PERFBENCH / "configs" / f"{workload}.ini").read_text(encoding="utf-8"))
    images, labels = perfbench_frames.finger_frames(2, derive_seed(2015, workload, "train"), 0.4)
    write_dataset_tree(tmp_path / "train", images, labels)
    images, labels = load_images(load_dataset(tmp_path / "train"))
    save_model(tmp_path / "model.lvck", fit_pipeline(images, labels, parsed.single_config()))
    write_dataset_tree(tmp_path / "probe", *perfbench_frames.finger_frames(8, derive_seed(2015, workload, "probe"), 0.4))
    result = run_python("-c", _FAULTS_PER_FRAME, str(tmp_path / "model.lvck"), str(tmp_path / "probe"))
    assert result.returncode == 0, result.stderr
    faults = float(result.stdout)
    assert faults < MAX_FAULTS_PER_SENSOR_FRAME, f"{faults:.1f} minor faults per frame"
