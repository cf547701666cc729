"""End-to-end command line runs on small synthetic datasets."""

import dataclasses
import re
import weakref
from pathlib import Path

import numpy as np
import pytest

from livecheck import lbp, modelsel, pipeline
from livecheck.cli import main
from livecheck.config import parse_config, parse_config_file
from livecheck.dataset import load_dataset, load_images
from livecheck.imageproc import write_pgm
from livecheck.model_io import load_model, model_bytes
from livecheck.modelsel import grid_search
from livecheck.pipeline import fit_pipeline
from livecheck.synthdata import make_texture_dataset, write_dataset_tree

from conftest import count_extracted

SINGLE_CONFIG = """
[extract]
method = lbp
variant = uniform
[transform]
pca_fraction = 0.4
[classify]
c = 1.0
gamma = 0.5
[search]
seed = 21
"""

GRID_CONFIG = """
[extract]
method = lbp
variant = uniform
[transform]
pca_fraction = 0.4
[classify]
c = 0.5|5.0
gamma = 0.5
[search]
seed = 21
"""

# perfbench's select grid with another seed: 2 LBP extractors x 2 soft margins, augmented.
LBP_AUG_GRID = """
[preprocess]
filter = highpass
[extract]
method = lbp
variant = uniform
blocks = 1x1|2x2
[transform]
pca_fraction = 0.5
[classify]
c = 1|10
gamma = 0.05
[augment]
enabled = true
[search]
seed = 21
"""

CONVNET_CONFIG = """
[extract]
method = convnet
layers = 1
filters = 4
filter_sizes = 3
pool_sizes = 2
lcn_windows = 3
[transform]
pca_fraction = 0.5
[classify]
c = 1
gamma = 0.05
[search]
seed = 21
"""

CONVNET_AUG_GRID = """
[preprocess]
filter = highpass
[extract]
method = convnet
layers = 1
filters = 4
filter_sizes = 3
pool_sizes = 2
lcn_windows = 3
[transform]
pca_fraction = 0.5
[classify]
c = 1|10
gamma = 0.05
[augment]
enabled = true
[search]
seed = 21
"""


@pytest.fixture()
def data_dir(tmp_path):
    images, labels = make_texture_dataset(4, size=32, seed=11)
    root = tmp_path / "data"
    write_dataset_tree(root, images, labels)
    return root


@pytest.fixture()
def config_path(tmp_path):
    path = tmp_path / "single.ini"
    path.write_text(SINGLE_CONFIG, encoding="utf-8")
    return path


@pytest.fixture()
def trained_model(tmp_path, data_dir, config_path):
    out = tmp_path / "model.lvck"
    code = main(["train", "--config", str(config_path), "--data", str(data_dir), "--out", str(out)])
    assert code == 0
    return out


class TestTrain:
    def test_writes_model_and_digest(self, tmp_path, data_dir, config_path, capsys):
        out = tmp_path / "m.lvck"
        code = main(
            ["train", "--config", str(config_path), "--data", str(data_dir), "--out", str(out)]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert f"model written to {out}" in captured.out
        digest_lines = [l for l in captured.out.splitlines() if l.startswith("model digest ")]
        assert len(digest_lines) == 1
        assert re.fullmatch("[0-9a-f]{64}", digest_lines[0].split()[-1])
        assert load_model(out).config.seed == 21

    def test_grid_config_selects_then_trains(self, tmp_path, data_dir, capsys):
        cfg = tmp_path / "grid.ini"
        cfg.write_text(GRID_CONFIG, encoding="utf-8")
        out = tmp_path / "m.lvck"
        code = main(["train", "--config", str(cfg), "--data", str(data_dir), "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 0
        assert "selected candidate" in captured.out
        assert out.exists()

    def test_bad_config_exits_two(self, tmp_path, data_dir, capsys):
        cfg = tmp_path / "bad.ini"
        cfg.write_text("[search]\nseed = maybe\n", encoding="utf-8")
        code = main(["train", "--config", str(cfg), "--data", str(data_dir), "--out", str(tmp_path / "m")])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error:")

    def test_missing_dataset_exits_two(self, tmp_path, config_path, capsys):
        code = main(
            ["train", "--config", str(config_path), "--data", str(tmp_path / "none"), "--out", str(tmp_path / "m")]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_unreadable_images_warned_and_skipped(self, tmp_path, data_dir, config_path, capsys):
        (data_dir / "live" / "0000_broken.pgm").write_bytes(b"not a pgm")
        out = tmp_path / "m.lvck"
        code = main(
            ["train", "--config", str(config_path), "--data", str(data_dir), "--out", str(out)]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "warning: skipping live/0000_broken.pgm" in captured.err


class TestPredict:
    def test_score_lines(self, data_dir, trained_model, capsys):
        targets = [str(data_dir / "live" / "0001.pgm"), str(data_dir / "fake" / "0001.pgm")]
        code = main(["predict", "--model", str(trained_model), *targets])
        captured = capsys.readouterr()
        assert code == 0
        lines = captured.out.splitlines()
        assert len(lines) == 2
        for line, target in zip(lines, targets):
            path, score, label = line.split("\t")
            assert path == target
            assert re.fullmatch(r"[+-]\d+\.\d{6}", score)
            assert label in ("live", "fake")
            assert (label == "live") == (float(score) >= 0.0)

    def test_unreadable_image_exit_one_but_rest_scored(self, tmp_path, data_dir, trained_model, capsys):
        bad = tmp_path / "broken.pgm"
        bad.write_bytes(b"P5 but nothing else")
        good = str(data_dir / "live" / "0002.pgm")
        code = main(["predict", "--model", str(trained_model), str(bad), good])
        captured = capsys.readouterr()
        assert code == 1
        assert "error:" in captured.err and "broken.pgm" in captured.err
        assert len(captured.out.splitlines()) == 1  # the good one still prints

    def test_unscorable_image_exit_one_but_rest_scored(self, tmp_path, data_dir, capsys):
        """An image too small for the 13x13 highpass is reported, not fatal."""
        cfg = tmp_path / "highpass.ini"
        cfg.write_text(SINGLE_CONFIG + "[preprocess]\nfilter = highpass\n", encoding="utf-8")
        model = tmp_path / "highpass.lvck"
        assert main(["train", "--config", str(cfg), "--data", str(data_dir), "--out", str(model)]) == 0
        tiny = tmp_path / "tiny.pgm"
        tiny.write_bytes(b"P5\n4 4\n255\n" + bytes(range(16)))
        good = str(data_dir / "live" / "0002.pgm")
        capsys.readouterr()
        code = main(["predict", "--model", str(model), str(tiny), good])
        captured = capsys.readouterr()
        assert code == 1
        assert f"error: {tiny}: kernel 13x13 larger than image (4, 4)" in captured.err
        lines = captured.out.splitlines()
        assert len(lines) == 1 and lines[0].startswith(good + "\t")

    def test_flat_image_exit_one_but_rest_scored(self, tmp_path, data_dir, trained_model, capsys):
        """A black frame has no texture to score: it is reported, never
        labelled."""
        black = tmp_path / "black.pgm"
        black.write_bytes(b"P5\n32 32\n255\n" + bytes(32 * 32))
        good = str(data_dir / "live" / "0002.pgm")
        code = main(["predict", "--model", str(trained_model), str(black), good])
        captured = capsys.readouterr()
        assert code == 1
        assert f"error: {black}: image has no intensity variation: every pixel is 0\n" == captured.err
        lines = captured.out.splitlines()
        assert len(lines) == 1 and lines[0].startswith(good + "\t")

    def test_timing_flag_reports_on_stderr(self, data_dir, trained_model, capsys):
        target = str(data_dir / "live" / "0001.pgm")
        code = main(["predict", "--model", str(trained_model), "--timing", target])
        captured = capsys.readouterr()
        assert code == 0
        assert re.search(r"# timing mean: \d+\.\d ms/image over 1 images", captured.err)
        assert "# timing" not in captured.out

    def test_missing_model_exits_two(self, tmp_path, data_dir, capsys):
        target = str(data_dir / "live" / "0001.pgm")
        code = main(["predict", "--model", str(tmp_path / "absent.lvck"), target])
        assert code == 2
        assert "error:" in capsys.readouterr().err


class TestEvaluate:
    def test_rate_lines(self, data_dir, trained_model, capsys):
        code = main(["evaluate", "--model", str(trained_model), "--data", str(data_dir)])
        captured = capsys.readouterr()
        assert code == 0
        lines = captured.out.splitlines()
        assert re.fullmatch(r"FPR \d+\.\d{2}%  \(\d+/4 live called fake\)", lines[0])
        assert re.fullmatch(r"FNR \d+\.\d{2}%  \(\d+/4 fake called live\)", lines[1])
        assert re.fullmatch(r"ACE \d+\.\d{2}%", lines[2])

    def test_training_set_error_is_zero(self, data_dir, trained_model, capsys):
        """Eight easy separated samples: the SVM nails its own training set."""
        main(["evaluate", "--model", str(trained_model), "--data", str(data_dir)])
        out = capsys.readouterr().out
        assert "ACE 0.00%" in out

    def test_unscorable_image_named(self, tmp_path, data_dir, capsys):
        """A convnet trained on 32x32 images cannot score a 20x20 one; the
        error names the image by its path in the dataset."""
        cfg = tmp_path / "convnet.ini"
        cfg.write_text(CONVNET_CONFIG, encoding="utf-8")
        model = tmp_path / "convnet.lvck"
        assert main(["train", "--config", str(cfg), "--data", str(data_dir), "--out", str(model)]) == 0
        small, _ = make_texture_dataset(1, size=20, seed=3)
        (data_dir / "live" / "zz_small.pgm").write_bytes(write_pgm(small[0]))
        capsys.readouterr()
        code = main(["evaluate", "--model", str(model), "--data", str(data_dir)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == "error: live/zz_small.pgm: expected 900 features, got 324\n"
        assert captured.out == ""


class TestGridSearch:
    def test_report_table_written(self, tmp_path, data_dir, capsys):
        cfg = tmp_path / "grid.ini"
        cfg.write_text(GRID_CONFIG, encoding="utf-8")
        report = tmp_path / "report.tsv"
        code = main(["gridsearch", "--config", str(cfg), "--data", str(data_dir), "--report", str(report)])
        captured = capsys.readouterr()
        assert code == 0
        assert f"report written to {report}" in captured.out
        assert "selected candidate" in captured.out
        lines = report.read_text(encoding="utf-8").splitlines()
        header = lines[0].split("\t")
        assert header == ["candidate", "preprocess", "extract", "transform", "classify", "mean_ace", "fold_aces", "status"]
        assert len(lines) == 3  # header + two candidates
        for row in lines[1:]:
            cells = row.split("\t")
            assert cells[-1] == "ok"
            assert len(cells[-2].split(",")) == 10  # ten fold ACEs

    def test_optional_winner_model(self, tmp_path, data_dir, capsys):
        cfg = tmp_path / "grid.ini"
        cfg.write_text(GRID_CONFIG, encoding="utf-8")
        report = tmp_path / "report.tsv"
        out = tmp_path / "winner.lvck"
        code = main(
            ["gridsearch", "--config", str(cfg), "--data", str(data_dir), "--report", str(report), "--out", str(out)]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert out.exists()
        assert "model digest" in captured.out
        loaded = load_model(out)
        assert loaded.classifier.support_vectors.shape[0] >= 1

    def test_every_candidate_failing_exits_two(self, tmp_path, data_dir, capsys):
        """Blocks finer than the 32x32 images fail every candidate: the
        table and report are still written, then the command fails."""
        cfg = tmp_path / "grid.ini"
        cfg.write_text(GRID_CONFIG.replace("variant = uniform", "variant = uniform\nblocks = 40x40"), encoding="utf-8")
        report, out = tmp_path / "report.tsv", tmp_path / "winner.lvck"
        code = main(
            ["gridsearch", "--config", str(cfg), "--data", str(data_dir), "--report", str(report), "--out", str(out)]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert "selected candidate" not in captured.out
        assert captured.err == (
            "error: every candidate failed; candidate 0/0/0/0 failed with "
            "ValueError: block grid of 40 is too fine for extent 30\n"
        )
        rows = report.read_text(encoding="utf-8").splitlines()[1:]
        assert len(rows) == 2 and all("\tfailed: ValueError: block grid" in row for row in rows)
        assert not out.exists()


def _counted(calls: list, run):
    def counting(*args):
        calls.append(run)
        return run(*args)

    return counting


class TestCacheDirIgnored:
    def test_variable_changes_nothing(self, tmp_path, data_dir, capsys, monkeypatch):
        """With LIVECHECK_CACHE_DIR set, ``gridsearch --report --out`` prints,
        reports and saves the bytes of a run without it, runs every stage
        runner each time, and leaves the directory empty."""
        calls = []
        for name in ("_run_preprocess", "_run_extract", "_run_transform", "_run_classify"):
            monkeypatch.setattr(modelsel, name, _counted(calls, getattr(modelsel, name)))
        cfg = tmp_path / "grid.ini"
        cfg.write_text(GRID_CONFIG, encoding="utf-8")
        report, out = tmp_path / "report.tsv", tmp_path / "winner.lvck"
        argv = ["gridsearch", "--config", str(cfg), "--data", str(data_dir), "--report", str(report), "--out", str(out)]

        def run():
            calls.clear()
            assert main(argv) == 0
            return capsys.readouterr().out, report.read_bytes(), out.read_bytes(), len(calls)

        without = run()
        monkeypatch.setenv("LIVECHECK_CACHE_DIR", str(tmp_path / "cache"))
        assert run() == run() == without
        assert without[-1] == 10 + 10 + 10 + 20  # ten splits, two SVMs
        assert list((tmp_path / "cache").glob("*")) == []


class TestTrainAndGridSearchAgree:
    def test_same_table_selection_and_model(self, tmp_path, data_dir, capsys):
        cfg = tmp_path / "grid.ini"
        cfg.write_text(GRID_CONFIG, encoding="utf-8")
        data = ["--config", str(cfg), "--data", str(data_dir)]
        assert main(["train", *data, "--out", str(tmp_path / "t.lvck")]) == 0
        train_out = capsys.readouterr().out.splitlines()
        report = tmp_path / "report.tsv"
        assert main(["gridsearch", *data, "--report", str(report), "--out", str(tmp_path / "g.lvck")]) == 0
        grid_out = capsys.readouterr().out.splitlines()

        table = train_out[:3]  # header + two candidates
        assert table[0] == "candidate\tpreprocess\textract\ttransform\tclassify\tmean_ace\tstatus"
        assert [row.split("\t")[0] for row in table[1:]] == ["0/0/0/0", "0/0/0/1"]
        selected, digest = train_out[3], train_out[5]
        assert re.fullmatch(r"selected candidate 0/0/0/[01] with mean ACE \d\.\d{4}", selected)
        assert train_out == [*table, selected, f"model written to {tmp_path / 't.lvck'}", digest]
        assert grid_out == [
            *table,
            f"report written to {report}",
            selected,
            f"model written to {tmp_path / 'g.lvck'}",
            digest,
        ]
        assert (tmp_path / "t.lvck").read_bytes() == (tmp_path / "g.lvck").read_bytes()


def _refit_argv(command: str, config_text: str, data_dir, tmp_path) -> tuple[list[str], Path]:
    """Arguments of a grid ``train`` or ``gridsearch --report --out`` run,
    and the model path it writes."""
    cfg, out = tmp_path / "grid.ini", tmp_path / f"{command}.lvck"
    cfg.write_text(config_text, encoding="utf-8")
    argv = [command, "--config", str(cfg), "--data", str(data_dir), "--out", str(out)]
    if command == "gridsearch":
        argv += ["--report", str(tmp_path / "report.tsv")]
    return argv, out


class TestRefitReusesSearch:
    """The winner's refit finds every image the search preprocessed and
    extracted, and saves the model ``fit_pipeline`` makes on its own."""

    @pytest.mark.parametrize("command", ["gridsearch", "train"])
    def test_one_label_map_per_image_and_extractor(self, tmp_path, data_dir, capsys, monkeypatch, command):
        """Label maps are counted by image: the eight 64x64 images of an
        extractor go to ``lbp_map`` as one stack."""
        mapped = []
        real = lbp.lbp_map

        def counting(img):
            mapped.append(len(img) if np.ndim(img) == 3 else 1)
            return real(img)

        monkeypatch.setattr(lbp, "lbp_map", counting)
        argv, _ = _refit_argv(command, LBP_AUG_GRID, data_dir, tmp_path)
        assert main(argv) == 0
        assert mapped == [8, 8]  # eight images, two extractors, none for the refit

    @pytest.mark.parametrize("grid", [LBP_AUG_GRID, CONVNET_AUG_GRID], ids=["lbp", "convnet"])
    @pytest.mark.parametrize("command", ["gridsearch", "train"])
    def test_model_equals_fit_outside_search(self, tmp_path, data_dir, capsys, monkeypatch, command, grid):
        """The convnet's rows are reused only under the seed that drew its
        banks; the refit's rows are those it would compute."""
        extracted = count_extracted(monkeypatch, pipeline)
        argv, out = _refit_argv(command, grid, data_dir, tmp_path)
        assert main(argv) == 0
        parsed = parse_config_file(argv[2])
        assert extracted["images"] == 8 * len(parsed.grid_spec().stages[1].candidates)
        images, labels = load_images(load_dataset(data_dir))
        result = grid_search(images, labels, parsed.grid_spec(), parsed.seed, augmented=parsed.augmented)
        model = fit_pipeline(images, labels, parsed.pipeline_config(*result.best_configs()))
        assert out.read_bytes() == model_bytes(model)

    def test_convnet_rows_keyed_by_seed(self, data_dir):
        """Two fits in one scope with different seeds draw different banks,
        so neither may read the other's rows."""
        config = parse_config(CONVNET_CONFIG).single_config()
        configs = [config, dataclasses.replace(config, seed=config.seed + 1)]
        images, labels = load_images(load_dataset(data_dir))
        alone = [model_bytes(fit_pipeline(images, labels, c)) for c in configs]
        with pipeline._memo_scope():
            shared = [model_bytes(fit_pipeline(images, labels, c)) for c in configs]
        assert shared == alone
        assert alone[0] != alone[1]

    def test_memo_released_when_main_returns(self, tmp_path, data_dir, capsys, monkeypatch):
        preprocessed = []
        real = pipeline.preprocess_image

        def recording(img, config):
            out = real(img, config)
            preprocessed.append(weakref.ref(out))
            return out

        monkeypatch.setattr(pipeline, "preprocess_image", recording)
        argv, _ = _refit_argv("gridsearch", LBP_AUG_GRID, data_dir, tmp_path)
        assert main(argv) == 0
        assert len(preprocessed) == 8
        assert [ref() for ref in preprocessed] == [None] * 8

    def test_uncached_search_in_scope_recomputes_and_adds_nothing(self, data_dir, monkeypatch):
        """4 candidates x 10 splits, each preprocessing all 8 images."""
        calls = []
        monkeypatch.setattr(pipeline, "preprocess_image", _counted(calls, pipeline.preprocess_image))
        parsed = parse_config(LBP_AUG_GRID)
        images, labels = load_images(load_dataset(data_dir))
        with pipeline._memo_scope():
            grid_search(images, labels, parsed.grid_spec(), parsed.seed, augmented=True, use_cache=False)
            assert len(calls) == 4 * 10 * 8
            assert pipeline._MEMO.get() == {}


class TestDeterminism:
    def test_same_invocation_same_digest(self, tmp_path, data_dir, config_path, capsys):
        outs = []
        for name in ("a.lvck", "b.lvck"):
            out = tmp_path / name
            assert main(["train", "--config", str(config_path), "--data", str(data_dir), "--out", str(out)]) == 0
            captured = capsys.readouterr()
            digest = [l for l in captured.out.splitlines() if l.startswith("model digest ")][0]
            outs.append((digest, out.read_bytes()))
        assert outs[0][0] == outs[1][0]
        assert outs[0][1] == outs[1][1]
