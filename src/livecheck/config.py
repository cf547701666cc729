"""Pipeline configuration files.

Plain INI syntax, one section per stage.  Any stage value may list
several candidates separated by ``|``; the file then describes a grid
over the cross product.  Commas are reserved for per-layer lists in
the convnet keys, so ``filters = 16,32|8,8`` reads as two candidates
of a two-layer network.  Unknown sections or keys are rejected by
name.  The ``[search]`` section must carry the root seed; there is no
implicit randomness anywhere.

Example::

    [preprocess]
    filter = highpass
    [extract]
    method = lbp
    variant = uniform|original
    [classify]
    C = 1|10|100
    [search]
    seed = 7
"""

from __future__ import annotations

import configparser
import itertools
from dataclasses import dataclass
from pathlib import Path

from .convnet import MAX_LAYERS, ConvLayerConfig, ConvNetConfig
from .lbp import LbpConfig
from .modelsel import (
    STAGE_CLASSIFY,
    STAGE_EXTRACT,
    STAGE_PREPROCESS,
    STAGE_TRANSFORM,
    GridSpec,
    GridStage,
)
from .pipeline import PipelineConfig, PreprocessConfig, TransformConfig
from .svm import SvmParams

__all__ = ["ParsedConfig", "parse_config", "parse_config_file"]


def _parse_float(text: str, key: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ValueError(f"bad value for {key}: {text!r} is not a number") from None


def _parse_int(text: str, key: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"bad value for {key}: {text!r} is not an integer") from None


def _parse_bool(text: str, key: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "yes", "1", "on"):
        return True
    if lowered in ("false", "no", "0", "off"):
        return False
    raise ValueError(f"bad value for {key}: {text!r} is not a boolean")


def _parse_dims(text: str, key: str) -> tuple[int, int]:
    parts = text.lower().split("x")
    if len(parts) != 2:
        raise ValueError(f"bad value for {key}: {text!r} is not ROWSxCOLS")
    return _parse_int(parts[0], key), _parse_int(parts[1], key)


def _parse_int_list(text: str, key: str) -> tuple[int, ...]:
    return tuple(_parse_int(part.strip(), key) for part in text.split(","))


def _choice(options: tuple[str, ...]):
    def parse(text: str, key: str) -> str:
        if text not in options:
            raise ValueError(f"bad value for {key}: {text!r} not in {options}")
        return text

    return parse


# key -> (parser, default text or None when required)
_SCHEMA: dict[str, dict[str, tuple]] = {
    "preprocess": {
        "scale": (_parse_float, "1.0"),
        "filter": (_choice(("none", "lowpass", "highpass")), "none"),
        "roi": (_parse_bool, "false"),
        "equalize": (_parse_bool, "false"),
        "clahe_tiles": (_parse_dims, "8x8"),
        "clahe_clip": (_parse_float, "2.0"),
    },
    "extract": {
        "method": (_choice(("lbp", "convnet")), "lbp"),
        "variant": (_choice(("uniform", "original")), "uniform"),
        "blocks": (_parse_dims, "1x1"),
        "layers": (_parse_int, "2"),
        "filters": (_parse_int_list, "16,32"),
        "filter_sizes": (_parse_int_list, "5"),
        "pool_sizes": (_parse_int_list, "3"),
        "pool_strides": (_parse_int_list, "0"),
        "lcn_windows": (_parse_int_list, "9"),
    },
    "transform": {
        "pca_fraction": (_parse_float, "0.2"),
        "whiten": (_parse_bool, "true"),
    },
    "classify": {
        "c": (_parse_float, "10.0"),
        "gamma": (_parse_float, "0.1"),
        "tol": (_parse_float, "1e-3"),
        "max_passes": (_parse_int, "10"),  # retired; parsed so old files load, then ignored
    },
    "augment": {
        "enabled": (_parse_bool, "false"),
    },
    "search": {
        "seed": (_parse_int, None),
    },
}

_LBP_KEYS = ("variant", "blocks")
_CONVNET_KEYS = ("layers", "filters", "filter_sizes", "pool_sizes", "pool_strides", "lcn_windows")


def _broadcast(values: tuple[int, ...], layers: int, key: str) -> tuple[int, ...]:
    if len(values) == layers:
        return values
    if len(values) == 1:
        return values * layers
    raise ValueError(f"bad value for {key}: expected 1 or {layers} entries, got {len(values)}")


def _build_preprocess(fields: dict) -> PreprocessConfig:
    return PreprocessConfig(
        scale=fields["scale"],
        filter=fields["filter"],
        roi=fields["roi"],
        equalize=fields["equalize"],
        clahe_tiles=fields["clahe_tiles"],
        clahe_clip=fields["clahe_clip"],
    )


def _build_extract(fields: dict):
    if fields["method"] == "lbp":
        return LbpConfig(variant=fields["variant"], blocks=fields["blocks"])
    layers = fields["layers"]
    # checked before the per-layer lists are broadcast to this length
    if not 1 <= layers <= MAX_LAYERS:
        raise ValueError(f"bad value for extract.layers: {layers} is not in 1..{MAX_LAYERS}")
    filters = _broadcast(fields["filters"], layers, "extract.filters")
    sizes = _broadcast(fields["filter_sizes"], layers, "extract.filter_sizes")
    pools = _broadcast(fields["pool_sizes"], layers, "extract.pool_sizes")
    strides = _broadcast(fields["pool_strides"], layers, "extract.pool_strides")
    windows = _broadcast(fields["lcn_windows"], layers, "extract.lcn_windows")
    return ConvNetConfig(
        layers=tuple(
            ConvLayerConfig(
                num_filters=filters[i],
                filter_size=sizes[i],
                pool_size=pools[i],
                pool_stride=strides[i],
                lcn_window=windows[i],
            )
            for i in range(layers)
        )
    )


def _build_transform(fields: dict) -> TransformConfig:
    return TransformConfig(pca_fraction=fields["pca_fraction"], whiten=fields["whiten"])


def _build_classify(fields: dict) -> SvmParams:
    return SvmParams(C=fields["c"], gamma=fields["gamma"], tol=fields["tol"])


@dataclass(frozen=True)
class ParsedConfig:
    """Candidate lists per stage plus the run-wide flags."""

    preprocess: tuple[PreprocessConfig, ...]
    extract: tuple
    transform: tuple[TransformConfig, ...]
    classify: tuple[SvmParams, ...]
    augmented: bool
    seed: int

    @property
    def is_grid(self) -> bool:
        return max(len(self.preprocess), len(self.extract), len(self.transform), len(self.classify)) > 1

    def single_config(self) -> PipelineConfig:
        if self.is_grid:
            raise ValueError("config describes a grid; run a grid search or drop the alternatives")
        return self.pipeline_config(
            self.preprocess[0], self.extract[0], self.transform[0], self.classify[0]
        )

    def pipeline_config(self, pre, ext, tr, cl) -> PipelineConfig:
        return PipelineConfig(
            preprocess=pre,
            extractor=ext,
            transform=tr,
            classifier=cl,
            augmented=self.augmented,
            seed=self.seed,
        )

    def grid_spec(self) -> GridSpec:
        return GridSpec(
            stages=(
                GridStage(STAGE_PREPROCESS, self.preprocess),
                GridStage(STAGE_EXTRACT, self.extract),
                GridStage(STAGE_TRANSFORM, self.transform),
                GridStage(STAGE_CLASSIFY, self.classify),
            )
        )


def _section_alternatives(parser: configparser.ConfigParser, section: str) -> dict[str, list]:
    """Parse every key of a section into its list of candidate values."""
    schema = _SCHEMA[section]
    present = dict(parser.items(section)) if parser.has_section(section) else {}
    for key in present:
        if key not in schema:
            known = ", ".join(sorted(schema))
            raise ValueError(f"unknown key '{section}.{key}' (known keys: {known})")
    out: dict[str, list] = {}
    for key, (parse, default) in schema.items():
        raw = present.get(key, default)
        if raw is None:
            raise ValueError(f"missing required key '{section}.{key}'")
        alternatives = [part.strip() for part in raw.split("|")]
        if any(not part for part in alternatives):
            raise ValueError(f"empty alternative in '{section}.{key}'")
        out[key] = [parse(part, f"{section}.{key}") for part in alternatives]
    return out


def _section_candidates(alternatives: dict[str, list], build) -> tuple:
    keys = list(alternatives)
    candidates = []
    for combo in itertools.product(*(alternatives[k] for k in keys)):
        candidates.append(build(dict(zip(keys, combo))))
    return tuple(candidates)


def _extract_candidates(alternatives: dict[str, list]) -> tuple:
    # The method key selects which other keys matter, so candidates are
    # the union over methods, not a blind product of everything.
    candidates = []
    for method in alternatives["method"]:
        keys = _LBP_KEYS if method == "lbp" else _CONVNET_KEYS
        sub = {k: alternatives[k] for k in keys}
        for combo in itertools.product(*(sub[k] for k in keys)):
            fields = dict(zip(keys, combo))
            fields["method"] = method
            candidates.append(_build_extract(fields))
    return tuple(candidates)


def parse_config(text: str) -> ParsedConfig:
    parser = configparser.ConfigParser(
        interpolation=None, inline_comment_prefixes=("#",), delimiters=("=",)
    )
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ValueError(f"bad config syntax: {exc}") from None
    for section in parser.sections():
        if section not in _SCHEMA:
            known = ", ".join(sorted(_SCHEMA))
            raise ValueError(f"unknown section [{section}] (known sections: {known})")

    pre = _section_alternatives(parser, "preprocess")
    ext = _section_alternatives(parser, "extract")
    tr = _section_alternatives(parser, "transform")
    cl = _section_alternatives(parser, "classify")
    augment = _section_alternatives(parser, "augment")
    search = _section_alternatives(parser, "search")

    for section, fields in (("augment", augment), ("search", search)):
        for key, values in fields.items():
            if len(values) > 1:
                raise ValueError(f"'{section}.{key}' cannot list alternatives")
    seed = search["seed"][0]
    if seed < 0:
        raise ValueError("bad value for search.seed: must be non-negative")

    return ParsedConfig(
        preprocess=_section_candidates(pre, _build_preprocess),
        extract=_extract_candidates(ext),
        transform=_section_candidates(tr, _build_transform),
        classify=_section_candidates(cl, _build_classify),
        augmented=augment["enabled"][0],
        seed=seed,
    )


def parse_config_file(path: str | Path) -> ParsedConfig:
    path = Path(path)
    if not path.is_file():
        raise ValueError(f"config file {path} does not exist")
    return parse_config(path.read_text(encoding="utf-8"))
