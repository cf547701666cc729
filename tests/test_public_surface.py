"""The names and shapes the benchmark in ``perfbench/`` builds on.

The benchmark drives livecheck through its public functions and a few
module-level names; renaming or reshaping any of them breaks it without
breaking another test.
"""

import ast
import dataclasses
import functools
import importlib
import inspect
from pathlib import Path

import livecheck
from livecheck import LbpConfig, PipelineConfig, PreprocessConfig, SvmParams, TrainedPipeline, TransformConfig
from livecheck import fit_pipeline, make_texture_dataset
from livecheck.modelsel import (
    STAGE_CLASSIFY,
    STAGE_EXTRACT,
    STAGE_PREPROCESS,
    STAGE_TRANSFORM,
    GridSearchResult,
    StageContext,
    default_runners,
)

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _dotted(node) -> str | None:
    """``a.b.c`` for an attribute chain rooted at a plain name."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    return ".".join([node.id, *reversed(parts)])


def _benchmark_nodes():
    """Every AST node of perfbench/*.py."""
    for path in sorted(PERFBENCH.glob("*.py")):
        yield from ast.walk(ast.parse(path.read_text(encoding="utf-8")))


def _benchmark_uses() -> tuple[set[tuple[str, str]], set[str]]:
    """(module, name) pairs imported from livecheck, and dotted
    ``livecheck.*`` attribute paths, across perfbench/*.py."""
    imported, attributes = set(), set()
    for node in _benchmark_nodes():
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "livecheck":
            imported.update((node.module, alias.name) for alias in node.names)
        elif isinstance(node, ast.Attribute):
            dotted = _dotted(node)
            if dotted and dotted.startswith("livecheck."):
                attributes.add(dotted)
    return imported, attributes


def _benchmark_keywords(names) -> dict[str, set[str]]:
    """The keyword names perfbench passes in calls to each of ``names``."""
    keywords: dict[str, set[str]] = {}
    for node in _benchmark_nodes():
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id in names:
            keywords.setdefault(node.func.id, set()).update(kw.arg for kw in node.keywords if kw.arg)
    return keywords


def test_every_imported_name_resolves():
    imported, _ = _benchmark_uses()
    names = {name for _, name in imported}
    expected = {
        "augment_training", "resolve_components", "default_runners", "fit_pipeline", "grid_search",
        "STAGE_PREPROCESS", "STAGE_EXTRACT", "STAGE_TRANSFORM", "STAGE_CLASSIFY",
    }
    assert expected <= names, expected - names  # the scan itself still sees them
    missing = [
        f"{module}.{name}" for module, name in sorted(imported)
        if not hasattr(importlib.import_module(module), name)
    ]
    assert missing == []


def test_every_keyword_is_a_parameter():
    imported, _ = _benchmark_uses()
    modules = {name: module for module, name in imported}
    passed = _benchmark_keywords(modules)
    assert {"augmented", "runners"} <= passed["grid_search"]  # the scan itself still sees them
    assert {"seed", "collect_diagnostics"} <= passed["train_smo"]
    unknown = [
        f"{name}({keyword}=)"
        for name, keywords in sorted(passed.items())
        for keyword in sorted(keywords)
        if keyword not in inspect.signature(getattr(importlib.import_module(modules[name]), name)).parameters
    ]
    assert unknown == []


def test_every_attribute_path_resolves():
    _, attributes = _benchmark_uses()
    assert "livecheck.dataset.ingest" in attributes  # patched to count decodes
    for dotted in sorted(attributes):
        functools.reduce(getattr, dotted.split(".")[1:], livecheck)


def test_trained_pipeline_builds_positionally():
    images, labels = make_texture_dataset(3, size=16, seed=3)
    config = PipelineConfig(
        preprocess=PreprocessConfig(),
        extractor=LbpConfig(variant="uniform"),
        transform=TransformConfig(pca_fraction=0.5),
        classifier=SvmParams(C=1.0, gamma=0.5),
        seed=1,
    )
    model = fit_pipeline(images, labels, config)
    rebuilt = TrainedPipeline(model.config, model.banks, model.standardizer, model.pca, model.classifier)
    assert rebuilt.decision_score(images[0]) == model.decision_score(images[0])


def test_stage_context_fields():
    assert [f.name for f in dataclasses.fields(StageContext)] == [
        "images", "labels", "train_idx", "test_idx", "split_index", "root_seed", "augmented",
    ]


def test_grid_search_result_counters():
    fields = {f.name for f in dataclasses.fields(GridSearchResult)}
    assert {"executions", "cache_hits"} <= fields


def test_default_runners_cover_the_stages():
    runners = default_runners()
    assert list(runners) == [STAGE_PREPROCESS, STAGE_EXTRACT, STAGE_TRANSFORM, STAGE_CLASSIFY]
    assert all(callable(run) for run in runners.values())
