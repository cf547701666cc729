"""Binary model files.

Layout: the magic ``LVCK``, a little-endian u16 format version, then
five length-prefixed stage blocks in pipeline order (preprocess,
augment, extract, transform, classify), then a SHA-256 digest of
everything before it.  Each stage block is a u32-length-prefixed JSON
header followed by the raw bytes of its arrays as little-endian
float64 in C order; the header lists array names and shapes, so the
payload length is fully determined.  Header keys are the field names
of the stage's config dataclass, so adding a field changes the format.

Loading verifies the magic, version, digest, every declared length,
the presence and JSON type of every header key and array, that arrays,
``epsilon`` and ``bias`` are finite, and that nothing trails the
digest.  It also refuses a model that would fail at scoring or label
every input alike: no PCA component, a negative feature std or
component variance, or dual coefficients that do not take both signs
(sum(alpha_i y_i) = 0, so a solve that moves any alpha off 0 gives
both).  Any failure is a ``ValueError`` naming the stage and key.
Stored filter banks are used as-is on load rather than re-derived from
seeds, so a model file keeps scoring identically even if filter
initialization ever changes.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import math
import struct
import typing
from pathlib import Path

import numpy as np

from .convnet import ConvLayerConfig, ConvNetConfig
from .lbp import LbpConfig
from .pipeline import PipelineConfig, PreprocessConfig, TrainedPipeline, TransformConfig
from .svm import SvmModel, SvmParams
from .transform import PcaModel, Standardizer

__all__ = ["MAGIC", "FORMAT_VERSION", "model_bytes", "model_from_bytes", "save_model", "load_model", "model_digest"]

MAGIC = b"LVCK"
FORMAT_VERSION = 1

_STAGE_ORDER = ("preprocess", "augment", "extract", "transform", "classify")


def _encode_stage(header: dict, arrays: list[tuple[str, np.ndarray]]) -> bytes:
    header = dict(header)
    header["arrays"] = [{"name": name, "shape": list(arr.shape)} for name, arr in arrays]
    head = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    body = b"".join(np.ascontiguousarray(arr, dtype="<f8").tobytes() for _, arr in arrays)
    return struct.pack("<I", len(head)) + head + body


def _field(header: dict, stage: str, key: str, kind: type):
    """``header[key]`` checked to be a ``kind``; anything else is corruption.

    A ``float`` field also takes a JSON integer; a boolean passes only
    as ``bool``; a ``tuple[int, int]`` field is a list of two integers.
    """
    if typing.get_origin(kind) is tuple:
        return _ints(header, stage, key, len(typing.get_args(kind)))
    if key not in header:
        raise ValueError(f"corrupt model file: stage {stage} key {key} missing")
    value = header[key]
    accepted = (int, float) if kind is float else kind
    if isinstance(value, bool) != (kind is bool) or not isinstance(value, accepted):
        raise ValueError(f"corrupt model file: stage {stage} key {key} is not a {kind.__name__}")
    if kind is not float:
        return value
    try:
        return float(value)
    except OverflowError:  # a JSON integer beyond the float range
        raise ValueError(f"corrupt model file: stage {stage} key {key} is out of range") from None


def _finite(header: dict, stage: str, key: str, low: float = -math.inf) -> float:
    """``header[key]`` as a finite float no less than ``low``."""
    value = _field(header, stage, key, float)
    if not (math.isfinite(value) and value >= low):
        raise ValueError(f"corrupt model file: stage {stage} key {key} is out of range: {value}")
    return value


def _array(arrays: dict, stage: str, name: str, shape: tuple, dims: dict) -> np.ndarray:
    """``arrays[name]`` checked against ``shape``.  An integer entry is
    a fixed length; a string entry names a length that every array
    using the name must share, bound in ``dims`` at its first use."""
    value = _field(arrays, stage, name, np.ndarray)
    if value.ndim != len(shape) or any(
        dims.setdefault(want, got) != got if isinstance(want, str) else want != got
        for want, got in zip(shape, value.shape)
    ):
        raise ValueError(
            f"corrupt model file: stage {stage} array {name} has shape {value.shape}, expected {shape}"
        )
    return value


def _nonnegative(value: np.ndarray, stage: str, name: str) -> np.ndarray:
    """Array ``name`` of ``stage``, checked to hold no negative entry."""
    if (value < 0.0).any():
        raise ValueError(f"corrupt model file: stage {stage} array {name} holds a negative value")
    return value


def _ints(header: dict, stage: str, key: str, length: int | None = None) -> tuple[int, ...]:
    """``header[key]`` as a tuple of integers, of ``length`` items if given."""
    values = _field(header, stage, key, list)
    if not all(isinstance(v, int) and not isinstance(v, bool) for v in values):
        raise ValueError(f"corrupt model file: stage {stage} key {key} is not a list of integers")
    if length is not None and len(values) != length:
        raise ValueError(f"corrupt model file: stage {stage} key {key} does not hold {length} integers")
    return tuple(values)


@functools.cache
def _kinds(cls) -> dict[str, object]:
    """Field name -> annotated type of a stage config dataclass."""
    hints = typing.get_type_hints(cls)
    return {f.name: hints[f.name] for f in dataclasses.fields(cls)}


def _config_header(config) -> dict:
    """One key per config field: bools and ints cast to plain Python (a
    numpy scalar is not JSON), tuples as lists, floats and strings as-is."""
    casts = {bool: bool, int: int, tuple: list}
    return {
        name: casts.get(typing.get_origin(kind) or kind, lambda value: value)(getattr(config, name))
        for name, kind in _kinds(type(config)).items()
    }


def _config_from_header(cls, header: dict, stage: str):
    """``cls`` built from the header keys named after its fields."""
    return cls(**{name: _field(header, stage, name, kind) for name, kind in _kinds(cls).items()})


def _decode_stage(payload: bytes, stage: str) -> tuple[dict, dict[str, np.ndarray]]:
    if len(payload) < 4:
        raise ValueError(f"corrupt model file: stage {stage} too short")
    (head_len,) = struct.unpack_from("<I", payload, 0)
    if 4 + head_len > len(payload):
        raise ValueError(f"corrupt model file: stage {stage} header overruns block")
    try:
        header = json.loads(payload[4 : 4 + head_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise ValueError(f"corrupt model file: stage {stage} header unreadable") from exc
    if not isinstance(header, dict):
        raise ValueError(f"corrupt model file: stage {stage} header is not an object")
    arrays: dict[str, np.ndarray] = {}
    offset = 4 + head_len
    for spec in _field(header, stage, "arrays", list):
        if not isinstance(spec, dict):
            raise ValueError(f"corrupt model file: stage {stage} key arrays holds a non-object")
        name = _field(spec, stage, "name", str)
        shape = _ints(spec, stage, "shape")
        if any(s < 0 for s in shape):
            raise ValueError(f"corrupt model file: stage {stage} declares a negative shape")
        nbytes = math.prod(shape) * 8
        if offset + nbytes > len(payload):
            raise ValueError(f"corrupt model file: stage {stage} array {name} truncated")
        flat = np.frombuffer(payload, dtype="<f8", count=nbytes // 8, offset=offset)
        arrays[name] = flat.reshape(shape).astype(np.float64)
        if not np.isfinite(arrays[name]).all():
            raise ValueError(f"corrupt model file: stage {stage} array {name} holds non-finite values")
        offset += nbytes
    if offset != len(payload):
        raise ValueError(f"corrupt model file: stage {stage} has trailing bytes")
    return header, arrays


def _extract_stage(pipeline: TrainedPipeline) -> bytes:
    extractor = pipeline.config.extractor
    if isinstance(extractor, LbpConfig):
        return _encode_stage({"method": "lbp", **_config_header(extractor)}, [])
    header = {"method": "convnet", "layers": [_config_header(layer) for layer in extractor.layers]}
    return _encode_stage(header, [(f"bank{i}", bank) for i, bank in enumerate(pipeline.banks)])


def model_bytes(pipeline: TrainedPipeline) -> bytes:
    """Serialize a trained pipeline; same pipeline, same bytes."""
    config, pca, classifier = pipeline.config, pipeline.pca, pipeline.classifier
    stages = [
        _encode_stage({**_config_header(config.preprocess), "seed": int(config.seed)}, []),
        _encode_stage({"enabled": bool(config.augmented)}, []),
        _extract_stage(pipeline),
        _encode_stage(
            # whiten comes from the fitted PCA, the value scoring reads
            {**_config_header(config.transform), "whiten": bool(pca.whiten), "epsilon": pca.epsilon},
            [
                ("feature_means", pipeline.standardizer.means),
                ("feature_stds", pipeline.standardizer.stds),
                ("pca_mean", pca.mean),
                ("components", pca.components),
                ("component_variances", pca.component_variances),
            ],
        ),
        _encode_stage(
            {**_config_header(config.classifier), "bias": classifier.bias},
            [("support_vectors", classifier.support_vectors), ("dual_coefs", classifier.dual_coefs)],
        ),
    ]
    out = bytearray()
    out += MAGIC
    out += struct.pack("<H", FORMAT_VERSION)
    for block in stages:
        out += struct.pack("<Q", len(block))
        out += block
    out += hashlib.sha256(bytes(out)).digest()
    return bytes(out)


def model_from_bytes(data: bytes) -> TrainedPipeline:
    """Parse and verify a model byte stream back into a pipeline."""
    if len(data) < len(MAGIC) + 2 + 32:
        raise ValueError("corrupt model file: too short")
    if data[: len(MAGIC)] != MAGIC:
        raise ValueError(f"corrupt model file: bad magic {data[:4]!r}")
    (version,) = struct.unpack_from("<H", data, len(MAGIC))
    if version != FORMAT_VERSION:
        raise ValueError(f"unsupported model format version {version}")
    body, digest = data[:-32], data[-32:]
    if hashlib.sha256(body).digest() != digest:
        raise ValueError("corrupt model file: checksum mismatch")

    offset = len(MAGIC) + 2
    blocks = []
    for stage in _STAGE_ORDER:
        if offset + 8 > len(body):
            raise ValueError(f"corrupt model file: missing stage {stage}")
        (length,) = struct.unpack_from("<Q", body, offset)
        offset += 8
        if offset + length > len(body):
            raise ValueError(f"corrupt model file: stage {stage} overruns file")
        blocks.append(body[offset : offset + length])
        offset += length
    if offset != len(body):
        raise ValueError("corrupt model file: trailing bytes after last stage")

    pre_h, _ = _decode_stage(blocks[0], "preprocess")
    aug_h, _ = _decode_stage(blocks[1], "augment")
    ext_h, ext_arrays = _decode_stage(blocks[2], "extract")
    tr_h, tr_arrays = _decode_stage(blocks[3], "transform")
    cl_h, cl_arrays = _decode_stage(blocks[4], "classify")

    pre, tr, cl = "preprocess", "transform", "classify"
    preprocess = _config_from_header(PreprocessConfig, pre_h, pre)
    banks = None
    method = _field(ext_h, "extract", "method", str)
    if method == "lbp":
        extractor = _config_from_header(LbpConfig, ext_h, "extract")
    elif method == "convnet":
        layers = []
        for layer in _field(ext_h, "extract", "layers", list):
            if not isinstance(layer, dict):
                raise ValueError("corrupt model file: stage extract key layers holds a non-object")
            layers.append(_config_from_header(ConvLayerConfig, layer, "extract"))
        extractor = ConvNetConfig(layers=tuple(layers))
        banks = []
        for i, layer in enumerate(layers):
            channels = layers[i - 1].num_filters if i else 1
            shape = (layer.num_filters, channels, layer.filter_size, layer.filter_size)
            banks.append(_array(ext_arrays, "extract", f"bank{i}", shape, {}))
    else:
        raise ValueError(f"corrupt model file: unknown extractor {method!r}")

    config = PipelineConfig(
        preprocess=preprocess,
        extractor=extractor,
        transform=_config_from_header(TransformConfig, tr_h, tr),
        classifier=_config_from_header(SvmParams, cl_h, cl),
        augmented=_field(aug_h, "augment", "enabled", bool),
        seed=_field(pre_h, pre, "seed", int),
    )
    # d features, k components, m support vectors
    dims: dict[str, int] = {}
    standardizer = Standardizer(
        means=_array(tr_arrays, tr, "feature_means", ("d",), dims),
        stds=_nonnegative(_array(tr_arrays, tr, "feature_stds", ("d",), dims), tr, "feature_stds"),
    )
    pca_mean = _array(tr_arrays, tr, "pca_mean", ("d",), dims)
    components = _array(tr_arrays, tr, "components", ("k", "d"), dims)
    if not len(components):
        raise ValueError(f"corrupt model file: stage {tr} array components holds no component")
    pca = PcaModel(
        mean=pca_mean,
        components=components,
        component_variances=_nonnegative(
            _array(tr_arrays, tr, "component_variances", ("k",), dims), tr, "component_variances"
        ),
        whiten=config.transform.whiten,
        epsilon=_finite(tr_h, tr, "epsilon", low=0.0),
    )
    support_vectors = _array(cl_arrays, cl, "support_vectors", ("m", "k"), dims)
    dual_coefs = _array(cl_arrays, cl, "dual_coefs", ("m",), dims)
    if not ((dual_coefs > 0.0).any() and (dual_coefs < 0.0).any()):
        raise ValueError(f"corrupt model file: stage {cl} array dual_coefs lacks coefficients of both signs")
    classifier = SvmModel(support_vectors, dual_coefs, _finite(cl_h, cl, "bias"), config.classifier.gamma)
    return TrainedPipeline(config, banks, standardizer, pca, classifier)


def model_digest(data: bytes) -> str:
    """Hex SHA-256 of a serialized model, for logging and comparison."""
    return hashlib.sha256(data).hexdigest()


def save_model(path: str | Path, pipeline: TrainedPipeline) -> str:
    """Write the model file; returns its hex digest."""
    data = model_bytes(pipeline)
    Path(path).write_bytes(data)
    return model_digest(data)


def load_model(path: str | Path) -> TrainedPipeline:
    return model_from_bytes(Path(path).read_bytes())
