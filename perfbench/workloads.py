"""The benchmark's workloads: set-up, quality protocol and timed passes.

``--seed`` generates the frames the scan workloads score.  The select
workload searches one fixed tree (see ``SelectLbpAug.setup``).  The scan
models' training sets and every labelled held-out set use the fixed
``QUALITY_SEED``, so ``ace_pct`` depends on the code alone and is
identical on every run.
"""

from __future__ import annotations

import math
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import livecheck.dataset
import traced
from frames import finger_frames
from livecheck import (
    ace,
    derive_seed,
    fit_pipeline,
    grid_search,
    ingest,
    load_dataset,
    load_images,
    load_model,
    make_texture_dataset,
    model_bytes,
    parse_config,
    save_model,
    train_smo,
    write_dataset_tree,
    write_pgm,
)
from livecheck.modelsel import default_runners
from spans import NO_TRACE, Tracer
from speed import SpeedProbe

CONFIG_DIR = Path(__file__).resolve().parent / "configs"

# Blur sigma of the fakes.  At 0.4 each workload's held-out ACE sits
# between 15% and 36%, at least two errors from 0% (see README.md).
SPOOF_SIGMA = 0.4
QUALITY_SEED = 2015
STAGES = ("preprocess", "extract", "transform", "classify")


@dataclass
class Checks:
    failures: list[str] = field(default_factory=list)

    def expect(self, ok: bool, message: str) -> None:
        if not ok:
            self.failures.append(message)


@dataclass
class Phase:
    """What one timed phase measured.

    ``pass_walls`` and ``unit_latencies`` are speed-adjusted (see
    ``speed.py``); the ``raw_`` lists hold the same spans in wall time.
    """

    probe: SpeedProbe
    pass_walls: list[float] = field(default_factory=list)
    unit_latencies: list[float] = field(default_factory=list)
    raw_pass_walls: list[float] = field(default_factory=list)
    raw_unit_latencies: list[float] = field(default_factory=list)
    images_per_pass: int = 0
    ops_per_pass: int = 0
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)


def _config(name: str):
    return parse_config((CONFIG_DIR / f"{name}.ini").read_text(encoding="utf-8"))


def _labels(scores) -> np.ndarray:
    return np.where(np.asarray(scores) >= 0.0, 1.0, -1.0)


@contextmanager
def _counting_decodes(tracer):
    """Count and time the PGM decodes made inside ``livecheck.dataset``."""
    original = livecheck.dataset.ingest

    def counted(data):
        tracer.count("dataset.decodes")
        with tracer.span("imageproc.ingest"):
            return original(data)

    livecheck.dataset.ingest = counted
    try:
        yield
    finally:
        livecheck.dataset.ingest = original


# ---------------------------------------------------------------------------
# select-lbp-aug


@dataclass
class JobResult:
    fold_aces: tuple
    best_indices: tuple
    model: object
    digest: str
    n_images: int
    executions: dict
    hits: dict
    train_Z: np.ndarray | None = None
    train_y: np.ndarray | None = None


def _spanned_runners(runners: dict, tracer) -> dict:
    """Wrap stage runners in one span per stage."""

    def wrap(stage, run):
        name = f"modelsel.{stage}"

        def spanned(cfg, upstream, ctx):
            with tracer.span(name):
                return run(cfg, upstream, ctx)

        return spanned

    return {stage: wrap(stage, run) for stage, run in runners.items()}


def select_job(tree: Path, model_path: Path, parsed, tracer) -> JobResult:
    """``livecheck gridsearch --out``: load, 5x2 CV grid search, refit, save."""
    with tracer.span("dataset.load"):
        with _counting_decodes(tracer) if tracer.enabled else nullcontext():
            images, labels = load_images(load_dataset(tree, skip_unreadable=True))
    runners = traced.runners(tracer) if tracer.enabled else default_runners()
    result = grid_search(
        images,
        labels,
        parsed.grid_spec(),
        parsed.seed,
        augmented=parsed.augmented,
        runners=_spanned_runners(runners, tracer),
    )
    failed = [c.message for c in result.candidates if c.failed]
    if failed:
        raise RuntimeError(f"grid candidate failed: {failed[0]}")
    config = parsed.pipeline_config(*result.best_configs())
    train_Z = train_y = None
    if tracer.enabled:
        model, train_Z, train_y = traced.fit(images, labels, config, tracer)
    else:
        model = fit_pipeline(images, labels, config)
    with tracer.span("model_io.save"):
        digest = save_model(model_path, model)
    return JobResult(
        fold_aces=tuple(c.fold_aces for c in result.candidates),
        best_indices=result.best_indices,
        model=model,
        digest=digest,
        n_images=len(images),
        executions=dict(result.executions),
        hits=dict(result.cache_hits),
        train_Z=train_Z,
        train_y=train_y,
    )


class SelectLbpAug:
    name = "select-lbp-aug"
    speed_kernel = "numpy-calls"
    setup_repeats = 5
    per_class = 12
    check_per_class = 4
    held_per_class = 100

    def setup(self, seed: int, workdir: Path, tracer) -> dict:
        # The tree is the same for every seed: SMO work varies by +-15%
        # between datasets drawn alike, which would swamp the timing.
        for tag, n in (("train", self.per_class), ("check", self.check_per_class)):
            images, labels = make_texture_dataset(
                n, size=64, seed=derive_seed(QUALITY_SEED, self.name, tag), blur_sigma=SPOOF_SIGMA
            )
            write_dataset_tree(workdir / tag, images, labels)
        held, held_labels = make_texture_dataset(
            self.held_per_class, size=64,
            seed=derive_seed(QUALITY_SEED, self.name, "held"), blur_sigma=SPOOF_SIGMA,
        )
        return {"parsed": _config(self.name), "workdir": workdir,
                "held": held, "held_labels": held_labels, "jobs": []}

    def check(self, state: dict, checks: Checks, tracer) -> None:
        """Library and traced composition agree on a small tree."""
        parsed, workdir = state["parsed"], state["workdir"]
        plain = select_job(workdir / "check", workdir / "plain.lvck", parsed, NO_TRACE)
        composed = select_job(workdir / "check", workdir / "composed.lvck", parsed, Tracer())
        checks.expect(composed.fold_aces == plain.fold_aces,
                      "traced grid search changed the fold ACEs")
        checks.expect(composed.best_indices == plain.best_indices,
                      "traced grid search picked another winner")
        checks.expect(composed.digest == plain.digest, "traced fit changed the model file")

    def run_pass(self, state: dict, tracer, phase: Phase) -> None:
        """One job is one pass and one unit."""
        probe = phase.probe
        phase.ops_per_pass = 1
        phase.attempted += 1
        raw, adjusted = probe.region()
        try:
            with tracer.op():
                job = select_job(state["workdir"] / "train", state["workdir"] / "model.lvck",
                                 state["parsed"], tracer)
        except Exception as exc:  # a failed job is counted, not fatal
            phase.failed += 1
            phase.errors.append(f"{type(exc).__name__}: {exc}")
            return
        probe.mark()
        phase.pass_walls.append(probe.adjusted - adjusted)
        phase.raw_pass_walls.append(probe.raw - raw)
        phase.unit_latencies.append(phase.pass_walls[-1])
        phase.raw_unit_latencies.append(phase.raw_pass_walls[-1])
        phase.images_per_pass = job.n_images
        state["jobs"].append(job)

    def finish(self, state: dict, checks: Checks, tracer) -> tuple[float, str]:
        """Held-out ACE of the selected model; every job must agree."""
        jobs = state["jobs"]
        checks.expect(len({(j.best_indices, j.fold_aces, j.digest) for j in jobs}) == 1,
                      "repeated selection jobs disagree")
        job = jobs[-1]
        with tracer.span("model_io.load"):
            loaded = load_model(state["workdir"] / "model.lvck")
        scores = [loaded.decision_score(img) for img in state["held"]]
        checks.expect(scores == [job.model.decision_score(img) for img in state["held"]],
                      "save then load changed held-out scores")
        checks.expect(all(math.isfinite(s) for s in scores), "non-finite held-out margin")
        winner = "/".join(str(i) for i in job.best_indices)
        return 100.0 * ace(_labels(scores), state["held_labels"]).ace, winner

    def layer_metrics(self, state: dict) -> dict:
        job = state["jobs"][-1]
        metrics = {}
        for stage in STAGES:
            metrics[f"modelsel.{stage}.executions"] = job.executions.get(stage, 0)
            metrics[f"modelsel.{stage}.hits"] = job.hits.get(stage, 0)
        runs = sum(job.executions.values()) + sum(job.hits.values())
        metrics["modelsel.hit_ratio"] = sum(job.hits.values()) / runs
        if job.train_Z is not None:
            config = job.model.config
            _, diag = train_smo(job.train_Z, job.train_y, config.classifier,
                                seed=derive_seed(config.seed, "smo"), collect_diagnostics=True)
            n = len(job.train_y)
            metrics["svm.smo_sweeps"] = diag.sweeps
            metrics["svm.smo_n"] = n
            metrics["svm.support_vectors"] = len(job.model.classifier.dual_coefs)
            metrics["svm.gram_mib_computed"] = 8.0 * n * n / 2**20
        metrics["model_io.bytes"] = len(model_bytes(job.model))
        return metrics


# ---------------------------------------------------------------------------
# Scan workloads


class ScanWorkload:
    """Set-up trains and saves a model; the timed phase scores PGM frames
    one at a time, from ingest to margin, as ``livecheck predict`` does."""

    setup_repeats = 2
    name: str
    speed_kernel: str
    train_per_class: int
    held_per_class: int
    scan_per_class: int
    images_per_pass: int

    def make_images(self, n_per_class: int, seed: int):
        raise NotImplementedError

    def setup(self, seed: int, workdir: Path, tracer) -> dict:
        parsed = _config(self.name)
        images, labels = self.make_images(
            self.train_per_class, derive_seed(QUALITY_SEED, self.name, "train"))
        write_dataset_tree(workdir / "train", images, labels)
        images, labels = load_images(load_dataset(workdir / "train"))
        trained = fit_pipeline(images, labels, parsed.single_config())
        with tracer.span("model_io.save"):
            digest = save_model(workdir / "model.lvck", trained)
        with tracer.span("model_io.load"):
            model = load_model(workdir / "model.lvck")
        held, held_labels = self.make_images(
            self.held_per_class, derive_seed(QUALITY_SEED, self.name, "held"))
        frames, _ = self.make_images(self.scan_per_class, derive_seed(seed, self.name))
        return {
            "trained": trained,
            "model": model,
            "digest": digest,
            "held": [write_pgm(img) for img in held],
            "held_labels": held_labels,
            "frames": [write_pgm(img) for img in frames],
            "margins": {},
            "mismatches": set(),
        }

    def check(self, state: dict, checks: Checks, tracer) -> None:
        """Score the held-out set; traced and reloaded models must agree."""
        model = state["model"]
        scores = [model.decision_score(ingest(data)) for data in state["held"]]
        checks.expect(all(math.isfinite(s) for s in scores), "non-finite held-out margin")
        first = state["held"][0]
        checks.expect(traced.scan(model, first, Tracer()) == scores[0],
                      "traced scoring changed a margin")
        checks.expect(state["trained"].decision_score(ingest(first)) == scores[0],
                      "save then load changed a margin")
        state["ace_pct"] = 100.0 * ace(_labels(scores), state["held_labels"]).ace

    def run_pass(self, state: dict, tracer, phase: Phase) -> None:
        """Each image is one unit; the probe is marked after each."""
        model, frames, probe = state["model"], state["frames"], phase.probe
        phase.images_per_pass = phase.ops_per_pass = self.images_per_pass
        pass_raw, pass_adjusted = probe.region()
        for _ in range(self.images_per_pass):
            index = phase.attempted % len(frames)
            data = frames[index]
            phase.attempted += 1
            raw, adjusted = probe.raw, probe.adjusted
            try:
                with tracer.op():
                    if tracer.enabled:
                        margin = traced.scan(model, data, tracer)
                    else:
                        margin = model.decision_score(ingest(data))
                if not math.isfinite(margin):
                    raise ValueError(f"non-finite margin {margin}")
                # Every phase scores the frames in the same order, so the
                # traced phase repeats margins the untraced one recorded.
                if state["margins"].setdefault(index, margin) != margin:
                    state["mismatches"].add(index)
            except Exception as exc:  # a failed image is counted, not fatal
                phase.failed += 1
                phase.errors.append(f"{type(exc).__name__}: {exc}")
                probe.mark()
                continue
            probe.mark()
            phase.unit_latencies.append(probe.adjusted - adjusted)
            phase.raw_unit_latencies.append(probe.raw - raw)
        phase.pass_walls.append(probe.adjusted - pass_adjusted)
        phase.raw_pass_walls.append(probe.raw - pass_raw)

    def finish(self, state: dict, checks: Checks, tracer) -> tuple[float, str]:
        checks.expect(not state["mismatches"],
                      f"frames {sorted(state['mismatches'])} scored differently when repeated or traced")
        return state["ace_pct"], state["digest"][:12]

    def layer_metrics(self, state: dict) -> dict:
        return {"model_io.bytes": len(model_bytes(state["model"]))}


class ScanSensor(ScanWorkload):
    name = "scan-sensor"
    speed_kernel = "window-max"
    train_per_class = 2
    held_per_class = 6
    scan_per_class = 3
    images_per_pass = 2

    def make_images(self, n_per_class, seed):
        return finger_frames(n_per_class, seed, SPOOF_SIGMA)


class ScanConvnetAug(ScanWorkload):
    name = "scan-convnet-aug"
    speed_kernel = "numpy-calls"
    train_per_class = 8
    held_per_class = 16
    scan_per_class = 10
    images_per_pass = 8

    def make_images(self, n_per_class, seed):
        return make_texture_dataset(n_per_class, size=64, seed=seed, blur_sigma=SPOOF_SIGMA)


WORKLOADS = {w.name: w for w in (SelectLbpAug(), ScanSensor(), ScanConvnetAug())}
