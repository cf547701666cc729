"""A trained model's bits do not depend on the BLAS thread count.

Each thread count needs its own process, because BLAS reads it once at
start-up.  The two models are the benchmark's scan-convnet-aug model and
its select-lbp-aug grid search plus refit, on the same trees.  Their
digests are pinned, so any change to the convnet or select bits fails.
"""

from pathlib import Path

from conftest import PERFBENCH, run_python

CONFIGS = PERFBENCH / "configs"
# Leading hex digits of the 1-thread digests: scan-convnet-aug, select job.
DIGEST_PREFIXES = ("dedc24a5c91e", "73804de125d1")

_FIT_AND_DIGEST = """
import sys
from pathlib import Path

from livecheck import (
    derive_seed, fit_pipeline, grid_search, load_dataset, load_images, make_texture_dataset,
    model_bytes, model_digest, parse_config, write_dataset_tree,
)

configs, workdir = Path(sys.argv[1]), Path(sys.argv[2])


def digest(name, per_class, search):
    parsed = parse_config((configs / f"{name}.ini").read_text(encoding="utf-8"))
    images, labels = make_texture_dataset(
        per_class, size=64, seed=derive_seed(2015, name, "train"), blur_sigma=0.4
    )
    write_dataset_tree(workdir / name, images, labels)
    images, labels = load_images(load_dataset(workdir / name))
    if search:
        result = grid_search(images, labels, parsed.grid_spec(), parsed.seed, augmented=parsed.augmented)
        config = parsed.pipeline_config(*result.best_configs())
    else:
        config = parsed.single_config()
    return model_digest(model_bytes(fit_pipeline(images, labels, config)))


print(digest("scan-convnet-aug", 8, False), digest("select-lbp-aug", 12, True))
"""


def _digests(threads: int, workdir: Path) -> list[str]:
    workdir.mkdir()
    result = run_python(
        "-c", _FIT_AND_DIGEST, str(CONFIGS), str(workdir),
        env={"OPENBLAS_NUM_THREADS": str(threads), "OMP_NUM_THREADS": str(threads)},
    )
    assert result.returncode == 0, result.stderr
    return result.stdout.split()


def test_model_digests_match_at_one_and_two_threads(tmp_path):
    """The convnet model (16/32 filters, ten patches, 8 images per class)
    and the selected LBP model have their pinned digests at 1 thread and
    the same digests at 2."""
    one = _digests(1, tmp_path / "one")
    two = _digests(2, tmp_path / "two")
    assert len(one) == 2
    assert all(digest.startswith(prefix) for digest, prefix in zip(one, DIGEST_PREFIXES)), one
    assert two == one
