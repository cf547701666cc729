"""Dataset tree loading and INI pipeline configs."""

import numpy as np
import pytest

from livecheck import config as config_module
from livecheck.config import parse_config, parse_config_file
from livecheck.convnet import ConvNetConfig
from livecheck import dataset
from livecheck.dataset import load_dataset, load_images
from livecheck.imageproc import write_pgm
from livecheck.lbp import LbpConfig
from livecheck.pipeline import PipelineConfig, PreprocessConfig, TransformConfig
from livecheck.svm import SvmParams
from livecheck.synthdata import make_texture_dataset, write_dataset_tree


def _write_tree(root, n_live=2, n_fake=2, size=16):
    images, labels = make_texture_dataset(max(n_live, n_fake), size=size, seed=5)
    keep = images[:n_live] + images[len(images) // 2 :][:n_fake]
    keep_labels = np.concatenate([np.ones(n_live), -np.ones(n_fake)])
    write_dataset_tree(root, keep, keep_labels)


class TestLoadDataset:
    def test_live_first_sorted_within_class(self, tmp_path):
        _write_tree(tmp_path, n_live=3, n_fake=2)
        manifest = load_dataset(tmp_path)
        assert [e[0] for e in manifest.entries] == [
            "live/0001.pgm", "live/0002.pgm", "live/0003.pgm",
            "fake/0001.pgm", "fake/0002.pgm",
        ]
        np.testing.assert_array_equal(manifest.labels(), [1.0, 1.0, 1.0, -1.0, -1.0])

    def test_load_images_round_trip(self, tmp_path, rng):
        imgs = [rng.random((6, 7)), rng.random((6, 7))]
        write_dataset_tree(tmp_path, imgs, np.array([1.0, -1.0]))
        manifest = load_dataset(tmp_path)
        loaded, labels = load_images(manifest)
        assert len(loaded) == 2
        np.testing.assert_array_equal(labels, [1.0, -1.0])
        # PGM stores 8-bit grey, so values come back within half a level.
        assert np.abs(loaded[0] - imgs[0]).max() <= 0.5 / 255.0 + 1e-12

    def test_missing_class_dir_rejected(self, tmp_path):
        (tmp_path / "live").mkdir()
        (tmp_path / "live" / "a.pgm").write_bytes(write_pgm(np.zeros((4, 4))))
        with pytest.raises(ValueError, match="fake"):
            load_dataset(tmp_path)

    def test_missing_root_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="not a directory"):
            load_dataset(tmp_path / "nope")

    def test_broken_file_is_an_error_by_default(self, tmp_path):
        _write_tree(tmp_path)
        (tmp_path / "live" / "0000_bad.pgm").write_bytes(b"P5 not really")
        with pytest.raises(ValueError, match="0000_bad"):
            load_dataset(tmp_path)

    def test_skip_unreadable_collects_the_bad_ones(self, tmp_path):
        _write_tree(tmp_path)
        (tmp_path / "fake" / "0000_bad.pgm").write_bytes(b"garbage")
        manifest = load_dataset(tmp_path, skip_unreadable=True)
        assert len(manifest.entries) == 4
        assert len(manifest.skipped) == 1
        assert manifest.skipped[0][0] == "fake/0000_bad.pgm"

    def test_each_file_decoded_once(self, tmp_path, monkeypatch):
        _write_tree(tmp_path, n_live=3, n_fake=2)
        (tmp_path / "fake" / "0000_bad.pgm").write_bytes(b"garbage")
        decoded = []
        original = dataset.ingest

        def counting(data):
            decoded.append(data)
            return original(data)

        monkeypatch.setattr(dataset, "ingest", counting)
        images, labels = load_images(load_dataset(tmp_path, skip_unreadable=True))
        files = sorted(p for p in tmp_path.rglob("*.pgm"))
        assert sorted(decoded) == sorted(p.read_bytes() for p in files)  # six files, one decode each
        assert len(images) == len(labels) == 5
        np.testing.assert_array_equal(images[0], original((tmp_path / "live" / "0001.pgm").read_bytes()))

    def test_class_of_only_garbage_rejected(self, tmp_path):
        _write_tree(tmp_path)
        for p in (tmp_path / "fake").iterdir():
            p.write_bytes(b"nope")
        with pytest.raises(ValueError, match="no readable images"):
            load_dataset(tmp_path, skip_unreadable=True)


MINIMAL = """
[search]
seed = 7
"""


class TestParseConfig:
    def test_defaults_fill_in(self):
        cfg = parse_config(MINIMAL)
        assert not cfg.is_grid
        pipeline = cfg.single_config()
        assert pipeline.preprocess.filter == "none"
        assert isinstance(pipeline.extractor, LbpConfig)
        assert pipeline.extractor.variant == "uniform"
        assert pipeline.transform.pca_fraction == 0.2
        assert pipeline.classifier.C == 10.0
        assert pipeline.seed == 7
        assert not pipeline.augmented

    def test_defaults_are_the_dataclass_defaults(self):
        """A default changed in ``config._SCHEMA`` or in a config
        dataclass, but not in both, fails here."""
        pipeline = parse_config("[search]\nseed = 3\n").single_config()
        assert pipeline == PipelineConfig(
            PreprocessConfig(), LbpConfig(), TransformConfig(), SvmParams(), augmented=False, seed=3
        )

    def test_seed_required(self):
        with pytest.raises(ValueError, match="search.seed"):
            parse_config("[preprocess]\nscale = 0.5\n")

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            parse_config("[search]\nseed = -3\n")

    def test_alternatives_build_a_grid(self):
        cfg = parse_config(
            """
            [preprocess]
            filter = none|highpass
            [classify]
            c = 1|10|100
            [search]
            seed = 1
            """
        )
        assert cfg.is_grid
        assert len(cfg.preprocess) == 2
        assert len(cfg.classify) == 3
        assert [c.C for c in cfg.classify] == [1.0, 10.0, 100.0]
        with pytest.raises(ValueError, match="grid"):
            cfg.single_config()
        spec = cfg.grid_spec()
        assert spec.size == 6
        assert [s.name for s in spec.stages] == ["preprocess", "extract", "transform", "classify"]

    def test_method_union_not_product(self):
        """LBP keys and convnet keys never cross; candidates are a union."""
        cfg = parse_config(
            """
            [extract]
            method = lbp|convnet
            variant = uniform|original
            layers = 1
            filters = 4|8
            filter_sizes = 3
            [search]
            seed = 0
            """
        )
        kinds = [type(c) for c in cfg.extract]
        assert kinds.count(LbpConfig) == 2      # two variants
        assert kinds.count(ConvNetConfig) == 2  # two filter counts
        assert len(cfg.extract) == 4

    def test_per_layer_lists_broadcast(self):
        cfg = parse_config(
            """
            [extract]
            method = convnet
            layers = 3
            filters = 4,8,16
            filter_sizes = 5
            [search]
            seed = 0
            """
        )
        net = cfg.extract[0]
        assert tuple(l.num_filters for l in net.layers) == (4, 8, 16)
        assert tuple(l.filter_size for l in net.layers) == (5, 5, 5)

    def test_wrong_list_length_rejected(self):
        with pytest.raises(ValueError, match="extract.filters"):
            parse_config(
                """
                [extract]
                method = convnet
                layers = 3
                filters = 4,8
                [search]
                seed = 0
                """
            )

    def test_unknown_key_named_with_suggestions(self):
        with pytest.raises(ValueError, match=r"preprocess\.sclae.*known keys.*scale"):
            parse_config("[preprocess]\nsclae = 0.5\n[search]\nseed = 0\n")

    def test_unknown_section_named(self):
        with pytest.raises(ValueError, match=r"\[postprocess\].*known sections"):
            parse_config("[postprocess]\nx = 1\n[search]\nseed = 0\n")

    def test_no_alternatives_in_search_or_augment(self):
        with pytest.raises(ValueError, match="search.seed"):
            parse_config("[search]\nseed = 1|2\n")
        with pytest.raises(ValueError, match="augment.enabled"):
            parse_config("[augment]\nenabled = true|false\n[search]\nseed = 0\n")

    def test_augment_flag_lands_in_pipeline(self):
        cfg = parse_config("[augment]\nenabled = yes\n[search]\nseed = 2\n")
        assert cfg.augmented
        assert cfg.single_config().augmented

    def test_bad_values_name_the_key(self):
        with pytest.raises(ValueError, match="preprocess.scale"):
            parse_config("[preprocess]\nscale = fast\n[search]\nseed = 0\n")
        with pytest.raises(ValueError, match="extract.blocks"):
            parse_config("[extract]\nblocks = 3by3\n[search]\nseed = 0\n")
        with pytest.raises(ValueError, match="preprocess.filter"):
            parse_config("[preprocess]\nfilter = bandpass\n[search]\nseed = 0\n")

    def test_non_finite_classifier_values_rejected(self):
        for key in ("c", "gamma", "tol"):
            for value in ("nan", "inf"):
                with pytest.raises(ValueError, match="finite"):
                    parse_config(f"[classify]\n{key} = {value}\n[search]\nseed = 0\n")

    def test_retired_max_passes_still_parses(self):
        cfg = parse_config("[classify]\nmax_passes = 10\n[search]\nseed = 0\n")
        assert cfg.single_config().classifier == parse_config(MINIMAL).single_config().classifier
        with pytest.raises(ValueError, match="classify.max_passes"):
            parse_config("[classify]\nmax_passes = many\n[search]\nseed = 0\n")

    def test_empty_alternative_rejected(self):
        with pytest.raises(ValueError, match="empty alternative"):
            parse_config("[classify]\nc = 1||10\n[search]\nseed = 0\n")

    def test_inline_comments_stripped(self):
        cfg = parse_config("[search]\nseed = 11  # chosen by fair dice roll\n")
        assert cfg.seed == 11

    def test_file_helper_and_missing_file(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text(MINIMAL, encoding="utf-8")
        assert parse_config_file(path).seed == 7
        with pytest.raises(ValueError, match="does not exist"):
            parse_config_file(tmp_path / "other.ini")


class TestGridBound:
    # six alternatives for each of six keys: 6**6 = 46,656 candidates from 242 bytes
    WIDE_PREPROCESS = (
        "[preprocess]\n"
        "scale = 1|0.9|0.8|0.7|0.6|0.5\n"
        "filter = none|lowpass|highpass|none|lowpass|highpass\n"
        "roi = true|false|true|false|true|false\n"
        "equalize = true|false|true|false|true|false\n"
        "clahe_tiles = 8x8|4x4|2x2|8x8|4x4|2x2\n"
        "clahe_clip = 1|2|3|4|5|6\n"
        "[search]\nseed = 1\n"
    )

    def test_wide_section_rejected_before_it_is_built(self, monkeypatch):
        built = []
        monkeypatch.setattr(config_module, "PreprocessConfig", lambda **kw: built.append(kw))
        with pytest.raises(ValueError, match="46656 candidates"):
            parse_config(self.WIDE_PREPROCESS)
        assert built == []

    def test_bound_counts_the_whole_grid(self):
        # 4 * 4 * 4 * 4 * 4 = 1024 is allowed; one more C alternative is not
        scale = "scale = 1|0.9|0.8|0.7\nclahe_clip = 1|2|3|4\n[transform]\npca_fraction = 0.1|0.2|0.3|0.4\n"
        ok = f"[preprocess]\n{scale}[classify]\nc = 1|2|3|4\ngamma = 1|2|3|4\n[search]\nseed = 1\n"
        assert parse_config(ok).grid_spec().size == 1024
        with pytest.raises(ValueError, match="1280 candidates"):
            parse_config(ok.replace("c = 1|2|3|4", "c = 1|2|3|4|5"))

    def test_extract_counts_only_the_keys_its_method_reads(self):
        # 1,024 convnet filter counts do not matter to an LBP-only grid
        filters = "|".join(["8"] * 1024)
        text = f"[extract]\nmethod = lbp\nvariant = uniform|original\nfilters = {filters}\n[search]\nseed = 1\n"
        assert len(parse_config(text).extract) == 2
        with pytest.raises(ValueError, match="1026 candidates"):
            parse_config(text.replace("method = lbp", "method = lbp|convnet"))
