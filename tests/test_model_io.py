"""Binary model files: byte-exact round trips and corruption handling."""

import functools
import hashlib
import json
import struct

import numpy as np
import pytest

from livecheck.convnet import ConvLayerConfig, ConvNetConfig
from livecheck.lbp import LbpConfig
from livecheck.model_io import (
    FORMAT_VERSION,
    MAGIC,
    load_model,
    model_bytes,
    model_digest,
    model_from_bytes,
    save_model,
)
from livecheck.pipeline import (
    PipelineConfig,
    PreprocessConfig,
    TrainedPipeline,
    TransformConfig,
    fit_pipeline,
)
from livecheck.svm import SvmModel, SvmParams
from livecheck.synthdata import make_texture_dataset
from livecheck.transform import PcaModel, Standardizer


def _lbp_pipeline():
    images, labels = make_texture_dataset(6, size=32, seed=3)
    config = PipelineConfig(
        preprocess=PreprocessConfig(filter="highpass"),
        extractor=LbpConfig(variant="uniform", blocks=(2, 2)),
        transform=TransformConfig(pca_fraction=0.3),
        classifier=SvmParams(C=1.0, gamma=0.5),
        seed=17,
    )
    return fit_pipeline(images, labels, config), images


def _convnet_pipeline():
    images, labels = make_texture_dataset(5, size=24, seed=4)
    net = ConvNetConfig(
        layers=(
            ConvLayerConfig(num_filters=3, filter_size=3, pool_size=2, lcn_window=5),
        )
    )
    config = PipelineConfig(
        preprocess=PreprocessConfig(),
        extractor=net,
        transform=TransformConfig(pca_fraction=0.5),
        classifier=SvmParams(C=1.0, gamma=0.2),
        augmented=True,
        seed=23,
    )
    return fit_pipeline(images, labels, config), images


_STAGES = ("preprocess", "augment", "extract", "transform", "classify")


def _split(blob):
    """Decode a model byte stream into (header, array bytes) per stage."""
    stages, offset = [], 6
    while offset < len(blob) - 32:
        (length,) = struct.unpack_from("<Q", blob, offset)
        block = blob[offset + 8 : offset + 8 + length]
        (head_len,) = struct.unpack_from("<I", block, 0)
        stages.append((json.loads(block[4 : 4 + head_len]), block[4 + head_len :]))
        offset += 8 + length
    return stages


def _join(stages):
    """Re-encode stages as a well-formed, correctly checksummed model."""
    out = bytearray(MAGIC + struct.pack("<H", FORMAT_VERSION))
    for header, body in stages:
        head = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
        block = struct.pack("<I", len(head)) + head + body
        out += struct.pack("<Q", len(block)) + block
    return bytes(out) + hashlib.sha256(bytes(out)).digest()


def _key_paths(node, path=()):
    """Paths to every dict key in a decoded JSON header, nested ones too."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield path + (key,)
            yield from _key_paths(value, path + (key,))
    elif isinstance(node, list):
        for index, value in enumerate(node):
            yield from _key_paths(value, path + (index,))


_DROP = object()


def _mutated(header, path, new):
    """A deep copy of ``header`` with the key at ``path`` set to ``new``,
    or removed for ``_DROP``."""
    copy = json.loads(json.dumps(header))
    parent = functools.reduce(lambda node, step: node[step], path[:-1], copy)
    if new is _DROP:
        del parent[path[-1]]
    else:
        parent[path[-1]] = new
    return copy


@pytest.fixture(scope="module")
def lbp_trained():
    return _lbp_pipeline()


@pytest.fixture(scope="module")
def convnet_trained():
    return _convnet_pipeline()


class TestRoundTrip:
    def test_bytes_stable_across_a_round_trip(self, lbp_trained):
        pipeline, _ = lbp_trained
        blob = model_bytes(pipeline)
        again = model_bytes(model_from_bytes(blob))
        assert blob == again

    def test_header_layout(self, lbp_trained):
        pipeline, _ = lbp_trained
        blob = model_bytes(pipeline)
        assert blob[:4] == MAGIC
        assert int.from_bytes(blob[4:6], "little") == FORMAT_VERSION

    def test_scores_identical_after_reload(self, lbp_trained, tmp_path):
        pipeline, images = lbp_trained
        path = tmp_path / "model.lvck"
        digest = save_model(path, pipeline)
        loaded = load_model(path)
        assert digest == model_digest(model_bytes(loaded))
        for img in images[:4]:
            assert loaded.decision_score(img) == pipeline.decision_score(img)

    def test_convnet_banks_survive(self, convnet_trained, tmp_path):
        pipeline, images = convnet_trained
        path = tmp_path / "net.lvck"
        save_model(path, pipeline)
        loaded = load_model(path)
        assert loaded.config.augmented
        assert len(loaded.banks) == len(pipeline.banks)
        for a, b in zip(loaded.banks, pipeline.banks):
            np.testing.assert_array_equal(a, b)
        for img in images[:3]:
            assert loaded.decision_score(img) == pipeline.decision_score(img)

    def test_retired_max_passes_key_still_loads(self, lbp_trained):
        """Files written while SvmParams had max_passes carry it in the
        classify header; the reader ignores it."""
        pipeline, images = lbp_trained
        stages = _split(model_bytes(pipeline))
        classify, body = stages[-1]
        assert "max_passes" not in classify
        legacy = model_from_bytes(_join(stages[:-1] + [({**classify, "max_passes": 10}, body)]))
        assert model_bytes(legacy) == model_bytes(pipeline)
        for img in images:
            assert legacy.decision_score(img) == pipeline.decision_score(img)

    def test_config_fields_survive(self, lbp_trained):
        pipeline, _ = lbp_trained
        loaded = model_from_bytes(model_bytes(pipeline))
        assert loaded.config == pipeline.config
        np.testing.assert_array_equal(
            loaded.classifier.support_vectors, pipeline.classifier.support_vectors
        )
        assert loaded.classifier.bias == pipeline.classifier.bias
        np.testing.assert_array_equal(loaded.pca.components, pipeline.pca.components)
        np.testing.assert_array_equal(loaded.standardizer.means, pipeline.standardizer.means)


class TestCorruption:
    def test_wrong_magic(self, lbp_trained):
        blob = bytearray(model_bytes(lbp_trained[0]))
        blob[:4] = b"NOPE"
        with pytest.raises(ValueError, match="magic"):
            model_from_bytes(bytes(blob))

    def test_unknown_version(self, lbp_trained):
        blob = bytearray(model_bytes(lbp_trained[0]))
        blob[4:6] = (99).to_bytes(2, "little")
        with pytest.raises(ValueError, match="version"):
            model_from_bytes(bytes(blob))

    def test_flipped_payload_byte_caught_by_checksum(self, lbp_trained):
        blob = bytearray(model_bytes(lbp_trained[0]))
        blob[len(blob) // 2] ^= 0xFF
        with pytest.raises(ValueError, match="checksum"):
            model_from_bytes(bytes(blob))

    def test_truncation(self, lbp_trained):
        blob = model_bytes(lbp_trained[0])
        for cut in (3, 5, 40, len(blob) - 1):
            with pytest.raises(ValueError):
                model_from_bytes(blob[:cut])

    def test_trailing_garbage(self, lbp_trained):
        blob = model_bytes(lbp_trained[0]) + b"\x00\x01"
        with pytest.raises(ValueError):
            model_from_bytes(blob)

    def test_missing_file(self, tmp_path):
        with pytest.raises((ValueError, OSError)):
            load_model(tmp_path / "absent.lvck")

    def test_non_finite_classifier_values_rejected(self, lbp_trained):
        pipeline, _ = lbp_trained
        stages = _split(model_bytes(pipeline))
        classify, body = stages[-1]
        for key in ("C", "gamma", "tol"):
            for value in (float("nan"), float("inf")):
                blob = _join(stages[:-1] + [({**classify, key: value}, body)])
                with pytest.raises(ValueError, match="finite"):
                    model_from_bytes(blob)

    def test_non_finite_arrays_rejected(self, lbp_trained, convnet_trained):
        """One inf or nan anywhere in a stage's arrays, e.g. ``feature_stds``
        all inf, would otherwise give every image the same margin."""
        for pipeline, _ in (lbp_trained, convnet_trained):
            stages = _split(model_bytes(pipeline))
            for index, (header, body) in enumerate(stages):
                offset = 0
                for spec in header["arrays"]:
                    count = int(np.prod(spec["shape"]))
                    for value in (np.inf, -np.inf, np.nan):
                        values = np.frombuffer(body, dtype="<f8").copy()
                        values[offset + count // 2] = value
                        blob = _join(stages[:index] + [(header, values.tobytes())] + stages[index + 1 :])
                        match = f"stage {_STAGES[index]} array {spec['name']} holds non-finite"
                        with pytest.raises(ValueError, match=match):
                            model_from_bytes(blob)
                    offset += count

    def test_epsilon_and_bias_must_be_finite(self, lbp_trained):
        stages = _split(model_bytes(lbp_trained[0]))
        cases = [("transform", "epsilon", v) for v in (float("inf"), float("nan"), -1e-8)]
        cases += [("classify", "bias", v) for v in (float("inf"), float("-inf"), float("nan"))]
        for stage, key, value in cases:
            index = _STAGES.index(stage)
            header, body = stages[index]
            blob = _join(stages[:index] + [({**header, key: value}, body)] + stages[index + 1 :])
            with pytest.raises(ValueError, match=f"corrupt model file: stage {stage} key {key}"):
                model_from_bytes(blob)

    def test_infinite_clahe_clip_is_valid(self, lbp_trained):
        """An unbounded clip is plain adaptive equalization, not corruption."""
        pipeline, images = lbp_trained
        stages = _split(model_bytes(pipeline))
        preprocess, body = stages[0]
        blob = _join([({**preprocess, "clahe_clip": float("inf")}, body)] + stages[1:])
        loaded = model_from_bytes(blob)
        assert loaded.config.preprocess.clahe_clip == float("inf")
        assert model_bytes(loaded) == blob
        assert np.isfinite(loaded.decision_score(images[0]))

    def test_header_keys_dropped_or_retyped(self, lbp_trained, convnet_trained):
        """A checksummed file whose headers miss a key or hold a list where
        another type belongs names the corruption; a string there is a
        ValueError too.  Random integer lists load or are a ValueError."""
        rng = np.random.default_rng(29)
        for pipeline, _ in (lbp_trained, convnet_trained):
            stages = _split(model_bytes(pipeline))
            assert _join(stages) == model_bytes(pipeline)
            for index, (header, body) in enumerate(stages):
                for path in list(_key_paths(header)):
                    value = functools.reduce(lambda node, step: node[step], path, header)
                    random_ints = rng.integers(-2, 9, size=rng.integers(0, 4)).tolist()
                    for new, match in (
                        (_DROP, "corrupt model file"),
                        ([value], "corrupt model file"),
                        (json.dumps(value), None),
                        (random_ints, None),
                    ):
                        mutated = _mutated(header, path, new)
                        blob = _join(stages[:index] + [(mutated, body)] + stages[index + 1 :])
                        if new is random_ints:
                            try:
                                model_from_bytes(blob)
                            except ValueError:
                                pass
                            continue
                        with pytest.raises(ValueError, match=match):
                            model_from_bytes(blob)


def _golden_pipelines():
    """Hand-built LBP and convnet pipelines with every config field off
    its default and some values as numpy scalars.  Nothing is trained,
    so the bytes depend on the file format alone."""
    d, k, m = 4, 2, 3
    standardizer = Standardizer(means=np.arange(d) / 8.0, stds=np.arange(1, d + 1) / 4.0)
    pca = PcaModel(
        mean=np.linspace(-1.0, 1.0, d),
        components=np.arange(k * d, dtype=np.float64).reshape(k, d) / 16.0,
        component_variances=np.array([2.5, 0.75]),
        whiten=np.bool_(False),
        epsilon=1e-6,
    )
    classifier = SvmModel(
        support_vectors=np.arange(m * k, dtype=np.float64).reshape(m, k) / 2.0 - 1.0,
        dual_coefs=np.array([0.5, -1.25, 0.75]),
        bias=np.float64(-0.25),
        gamma=0.125,
    )
    shared = dict(
        transform=TransformConfig(pca_fraction=0.25, whiten=False),
        classifier=SvmParams(C=np.float64(2.5), gamma=0.125, tol=1e-4),
        augmented=np.bool_(True),
        seed=np.int64(17),
    )
    lbp = PipelineConfig(
        preprocess=PreprocessConfig(
            scale=0.5, filter="lowpass", roi=np.bool_(True), equalize=True,
            clahe_tiles=(np.int64(4), 3), clahe_clip=3.5,
        ),
        extractor=LbpConfig(variant="original", blocks=(np.int64(2), 3)),
        **shared,
    )
    net = ConvNetConfig(
        layers=(
            ConvLayerConfig(
                num_filters=np.int64(2), filter_size=np.int64(3), pool_size=2,
                pool_stride=1, lcn_window=3, seed=5,
            ),
            ConvLayerConfig(
                num_filters=3, filter_size=1, pool_size=3, pool_stride=2,
                lcn_window=1, seed=np.int64(6),
            ),
        )
    )
    convnet = PipelineConfig(
        preprocess=PreprocessConfig(
            scale=0.75, filter="highpass", roi=np.bool_(True), equalize=np.bool_(True),
            clahe_tiles=(2, 5), clahe_clip=float("inf"),
        ),
        extractor=net,
        **shared,
    )
    banks = [
        np.arange(2 * 1 * 3 * 3, dtype=np.float64).reshape(2, 1, 3, 3) / 32.0 - 0.25,
        np.array([0.5, -0.5, 1.0, 0.25, -1.0, 0.125]).reshape(3, 2, 1, 1),
    ]
    return {
        "lbp": TrainedPipeline(lbp, None, standardizer, pca, classifier),
        "convnet": TrainedPipeline(convnet, banks, standardizer, pca, classifier),
    }


class TestGoldenFormat:
    """The bytes of a model file are pinned: a change to the writer or to
    a stage config's fields shows here, and needs a FORMAT_VERSION bump."""

    DIGESTS = {
        "lbp": "396487618345f533bcee47395fe6331514cb423e24e2a85edfbc6bf9a895c18c",
        "convnet": "350b91c356802c468be5ba06cd3115a8e02c2aa0cd6a9ddf0182982ff1dc7828",
    }

    @pytest.mark.parametrize("name", sorted(DIGESTS))
    def test_digest_pinned_and_round_trip_exact(self, name):
        blob = model_bytes(_golden_pipelines()[name])
        assert model_digest(blob) == self.DIGESTS[name]
        assert model_bytes(model_from_bytes(blob)) == blob
