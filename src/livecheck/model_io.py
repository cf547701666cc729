"""Binary model files.

Layout: the magic ``LVCK``, a little-endian u16 format version, then
five length-prefixed stage blocks in pipeline order (preprocess,
augment, extract, transform, classify), then a SHA-256 digest of
everything before it.  Each stage block is a u32-length-prefixed JSON
header followed by the raw bytes of its arrays as little-endian
float64 in C order; the header lists array names and shapes, so the
payload length is fully determined.

Loading verifies the magic, version, digest, every declared length,
the presence and JSON type of every header key and array, and that
nothing trails the digest; any failure is a ``ValueError`` naming the
stage and key.  Stored filter banks are used
as-is on load rather than re-derived from seeds, so a model file keeps
scoring identically even if filter initialization ever changes.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
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
_LAYER_KEYS = ("num_filters", "filter_size", "pool_size", "pool_stride", "lcn_window", "seed")


def _encode_stage(header: dict, arrays: list[tuple[str, np.ndarray]]) -> bytes:
    header = dict(header)
    header["arrays"] = [{"name": name, "shape": list(arr.shape)} for name, arr in arrays]
    head = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    body = b"".join(np.ascontiguousarray(arr, dtype="<f8").tobytes() for _, arr in arrays)
    return struct.pack("<I", len(head)) + head + body


def _field(header: dict, stage: str, key: str, kind: type):
    """``header[key]`` checked to be a ``kind``; anything else is corruption.

    A ``float`` field also takes a JSON integer; a boolean passes only
    as ``bool``.
    """
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


def _ints(header: dict, stage: str, key: str, length: int | None = None) -> tuple[int, ...]:
    """``header[key]`` as a tuple of integers, of ``length`` items if given."""
    values = _field(header, stage, key, list)
    if not all(isinstance(v, int) and not isinstance(v, bool) for v in values):
        raise ValueError(f"corrupt model file: stage {stage} key {key} is not a list of integers")
    if length is not None and len(values) != length:
        raise ValueError(f"corrupt model file: stage {stage} key {key} does not hold {length} integers")
    return tuple(values)


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
        offset += nbytes
    if offset != len(payload):
        raise ValueError(f"corrupt model file: stage {stage} has trailing bytes")
    return header, arrays


def _extract_stage(pipeline: TrainedPipeline) -> bytes:
    extractor = pipeline.config.extractor
    if isinstance(extractor, LbpConfig):
        header = {"method": "lbp", "variant": extractor.variant, "blocks": list(extractor.blocks)}
        return _encode_stage(header, [])
    header = {
        "method": "convnet",
        "layers": [{key: int(getattr(layer, key)) for key in _LAYER_KEYS} for layer in extractor.layers],
    }
    arrays = [(f"bank{i}", bank) for i, bank in enumerate(pipeline.banks)]
    return _encode_stage(header, arrays)


def model_bytes(pipeline: TrainedPipeline) -> bytes:
    """Serialize a trained pipeline; same pipeline, same bytes."""
    pre = pipeline.config.preprocess
    stages = [
        _encode_stage(
            {
                "scale": pre.scale,
                "filter": pre.filter,
                "roi": bool(pre.roi),
                "equalize": bool(pre.equalize),
                "clahe_tiles": list(pre.clahe_tiles),
                "clahe_clip": pre.clahe_clip,
                "seed": int(pipeline.config.seed),
            },
            [],
        ),
        _encode_stage({"enabled": bool(pipeline.config.augmented)}, []),
        _extract_stage(pipeline),
        _encode_stage(
            {
                "pca_fraction": pipeline.config.transform.pca_fraction,
                "whiten": bool(pipeline.pca.whiten),
                "epsilon": pipeline.pca.epsilon,
            },
            [
                ("feature_means", pipeline.standardizer.means),
                ("feature_stds", pipeline.standardizer.stds),
                ("pca_mean", pipeline.pca.mean),
                ("components", pipeline.pca.components),
                ("component_variances", pipeline.pca.component_variances),
            ],
        ),
        _encode_stage(
            {
                "C": pipeline.config.classifier.C,
                "gamma": pipeline.config.classifier.gamma,
                "tol": pipeline.config.classifier.tol,
                "bias": pipeline.classifier.bias,
            },
            [
                ("support_vectors", pipeline.classifier.support_vectors),
                ("dual_coefs", pipeline.classifier.dual_coefs),
            ],
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

    pre = "preprocess"
    preprocess = PreprocessConfig(
        scale=_field(pre_h, pre, "scale", float),
        filter=_field(pre_h, pre, "filter", str),
        roi=_field(pre_h, pre, "roi", bool),
        equalize=_field(pre_h, pre, "equalize", bool),
        clahe_tiles=_ints(pre_h, pre, "clahe_tiles", 2),
        clahe_clip=_field(pre_h, pre, "clahe_clip", float),
    )
    banks = None
    method = _field(ext_h, "extract", "method", str)
    if method == "lbp":
        extractor = LbpConfig(
            variant=_field(ext_h, "extract", "variant", str), blocks=_ints(ext_h, "extract", "blocks", 2)
        )
    elif method == "convnet":
        layers = []
        for layer in _field(ext_h, "extract", "layers", list):
            if not isinstance(layer, dict):
                raise ValueError("corrupt model file: stage extract key layers holds a non-object")
            layers.append(ConvLayerConfig(**{key: _field(layer, "extract", key, int) for key in _LAYER_KEYS}))
        extractor = ConvNetConfig(layers=tuple(layers))
        banks = []
        for i, layer in enumerate(layers):
            channels = layers[i - 1].num_filters if i else 1
            shape = (layer.num_filters, channels, layer.filter_size, layer.filter_size)
            banks.append(_array(ext_arrays, "extract", f"bank{i}", shape, {}))
    else:
        raise ValueError(f"corrupt model file: unknown extractor {method!r}")

    tr, cl = "transform", "classify"
    whiten = _field(tr_h, tr, "whiten", bool)
    gamma = _field(cl_h, cl, "gamma", float)
    params = SvmParams(C=_field(cl_h, cl, "C", float), gamma=gamma, tol=_field(cl_h, cl, "tol", float))
    config = PipelineConfig(
        preprocess=preprocess,
        extractor=extractor,
        transform=TransformConfig(pca_fraction=_field(tr_h, tr, "pca_fraction", float), whiten=whiten),
        classifier=params,
        augmented=_field(aug_h, "augment", "enabled", bool),
        seed=_field(pre_h, pre, "seed", int),
    )
    # d features, k components, m support vectors
    dims: dict[str, int] = {}
    standardizer = Standardizer(
        means=_array(tr_arrays, tr, "feature_means", ("d",), dims),
        stds=_array(tr_arrays, tr, "feature_stds", ("d",), dims),
    )
    pca = PcaModel(
        mean=_array(tr_arrays, tr, "pca_mean", ("d",), dims),
        components=_array(tr_arrays, tr, "components", ("k", "d"), dims),
        component_variances=_array(tr_arrays, tr, "component_variances", ("k",), dims),
        whiten=whiten,
        epsilon=_field(tr_h, tr, "epsilon", float),
    )
    classifier = SvmModel(
        support_vectors=_array(cl_arrays, cl, "support_vectors", ("m", "k"), dims),
        dual_coefs=_array(cl_arrays, cl, "dual_coefs", ("m",), dims),
        bias=_field(cl_h, cl, "bias", float),
        gamma=gamma,
    )
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
