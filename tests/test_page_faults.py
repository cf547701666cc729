"""Scoring in-memory images does not fault in fresh heap pages.

A fresh process that only loads a model, as CLI ``predict`` does, starts
with glibc's default mmap and trim thresholds.  A layer that allocates
full-size temporaries for every view stack then hands them back to the
kernel and faults them in again on the next image.  The convnet runs
ReLU and LCN in place on its conv output, which keeps such a process at
about zero minor faults per image; a temporary per layer read about
1,800.  Training raises the thresholds, so the model is fitted here and
scored in a child process that only loads it.
"""

import sys

import pytest

from livecheck import derive_seed, fit_pipeline, make_texture_dataset, parse_config, save_model

from conftest import PERFBENCH, run_python

WORKLOAD = "scan-convnet-aug"
# Far below the ~1,800 per image of per-layer temporaries, far above the
# 0-1 of the in-place layers.
MAX_FAULTS_PER_IMAGE = 200

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
