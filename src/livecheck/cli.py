"""Command line front end.

Subcommands: train, gridsearch, predict, evaluate.  Results and tables
go to stdout; progress notes, warnings, and timing measurements go to
stderr so that stdout stays scriptable and reproducible.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from .config import ParsedConfig, parse_config_file
from .dataset import DatasetManifest, load_dataset, load_images
from .imageproc import ingest
from .model_io import load_model, save_model
from .modelsel import GridSearchResult, ace, grid_search
from .pipeline import LIVE_LABEL, PipelineConfig, _memo_scope, fit_pipeline, margin_labels


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        with _memo_scope():  # a grid search's refit reuses the search's rows
            return args.handler(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="livecheck", description="Fingerprint liveness detection pipeline."
    )
    sub = parser.add_subparsers(dest="command", required=True)

    train = sub.add_parser("train", help="train a model from a config and a dataset")
    train.add_argument("--config", required=True, help="pipeline config file")
    train.add_argument("--data", required=True, help="dataset root with live/ and fake/")
    train.add_argument("--out", required=True, help="where to write the model file")
    train.set_defaults(handler=_cmd_train)

    grid = sub.add_parser("gridsearch", help="cross-validate a config grid")
    grid.add_argument("--config", required=True, help="pipeline config file with | alternatives")
    grid.add_argument("--data", required=True, help="dataset root with live/ and fake/")
    grid.add_argument("--report", required=True, help="where to write the candidate table (TSV)")
    grid.add_argument("--out", help="also train the winner on all data and store it here")
    grid.set_defaults(handler=_cmd_gridsearch)

    predict = sub.add_parser("predict", help="score images with a stored model")
    predict.add_argument("--model", required=True, help="model file")
    predict.add_argument("--timing", action="store_true", help="report per-image latency on stderr")
    predict.add_argument("images", nargs="+", help="PGM files to score")
    predict.set_defaults(handler=_cmd_predict)

    evaluate = sub.add_parser("evaluate", help="error rates of a model on a labeled dataset")
    evaluate.add_argument("--model", required=True, help="model file")
    evaluate.add_argument("--data", required=True, help="dataset root with live/ and fake/")
    evaluate.set_defaults(handler=_cmd_evaluate)
    return parser


def _load_data(data_dir: str) -> DatasetManifest:
    manifest = load_dataset(data_dir, skip_unreadable=True)
    for rel, reason in manifest.skipped:
        print(f"warning: skipping {rel}: {reason}", file=sys.stderr)
    return manifest


def _table_lines(result: GridSearchResult, columns) -> list[str]:
    """Header plus one line per candidate: its index path, each stage's
    config, the ``columns`` given as (name, cell function) pairs, status."""
    stages = result.grid.stages
    lines = ["\t".join(["candidate", *(s.name for s in stages), *(name for name, _ in columns), "status"])]
    for row in result.candidates:
        configs = [repr(stage.candidates[i]) for stage, i in zip(stages, row.indices)]
        status = f"failed: {row.message}" if row.failed else "ok"
        cells = ["/".join(str(i) for i in row.indices), *configs, *(cell(row) for _, cell in columns), status]
        lines.append("\t".join(cells))
    return lines


def _select(parsed: ParsedConfig, images, labels, report: str | None = None) -> PipelineConfig:
    """Grid-search the config, print the candidate table and the winner
    (writing the TSV report first when asked), return the winner.
    Raises ``ValueError`` after the table and report when every
    candidate failed."""
    result = grid_search(images, labels, parsed.grid_spec(), parsed.seed, augmented=parsed.augmented)
    print("\n".join(_table_lines(result, [("mean_ace", lambda r: f"{r.mean_ace:.4f}")])))
    if report is not None:
        lines = _table_lines(result, [
            ("mean_ace", lambda r: f"{r.mean_ace:.6f}"),
            ("fold_aces", lambda r: ",".join(f"{a:.6f}" for a in r.fold_aces)),
        ])
        Path(report).write_text("\n".join(lines) + "\n", encoding="utf-8")
        print(f"report written to {report}")
    configs = result.best_configs()
    best = next(r for r in result.candidates if r.indices == result.best_indices)
    print(f"selected candidate {'/'.join(str(i) for i in best.indices)} with mean ACE {best.mean_ace:.4f}")
    return parsed.pipeline_config(*configs)


def _fit_and_save(images, labels, config: PipelineConfig, out: str) -> None:
    digest = save_model(out, fit_pipeline(images, labels, config))
    print(f"model written to {out}")
    print(f"model digest {digest}")


def _cmd_train(args) -> int:
    parsed = parse_config_file(args.config)
    images, labels = load_images(_load_data(args.data))
    config = _select(parsed, images, labels) if parsed.is_grid else parsed.single_config()
    _fit_and_save(images, labels, config, args.out)
    return 0


def _cmd_gridsearch(args) -> int:
    parsed = parse_config_file(args.config)
    images, labels = load_images(_load_data(args.data))
    config = _select(parsed, images, labels, args.report)
    if args.out:
        _fit_and_save(images, labels, config, args.out)
    return 0


def _cmd_predict(args) -> int:
    model = load_model(args.model)
    failures = 0
    timings = []
    for image_path in args.images:
        try:
            img = ingest(Path(image_path).read_bytes())
            started = time.perf_counter()
            score = model.decision_score(img)
        except (OSError, ValueError) as exc:
            print(f"error: {image_path}: {exc}", file=sys.stderr)
            failures += 1
            continue
        elapsed = time.perf_counter() - started
        timings.append(elapsed)
        label = "live" if margin_labels(score) == LIVE_LABEL else "fake"
        print(f"{image_path}\t{score:+.6f}\t{label}")
        if args.timing:
            print(f"# timing {image_path}: {elapsed * 1000.0:.1f} ms", file=sys.stderr)
    if args.timing and timings:
        mean_ms = sum(timings) / len(timings) * 1000.0
        print(f"# timing mean: {mean_ms:.1f} ms/image over {len(timings)} images", file=sys.stderr)
    return 1 if failures else 0


def _cmd_evaluate(args) -> int:
    model = load_model(args.model)
    manifest = _load_data(args.data)
    predictions = []
    for (rel, _), img in zip(manifest.entries, manifest.images):
        try:
            predictions.append(model.predict(img))
        except ValueError as exc:
            raise ValueError(f"{rel}: {exc}") from exc
    report = ace(predictions, manifest.labels())
    print(f"FPR {report.fpr * 100.0:.2f}%  ({report.live_wrong}/{report.live_total} live called fake)")
    print(f"FNR {report.fnr * 100.0:.2f}%  ({report.fake_wrong}/{report.fake_total} fake called live)")
    print(f"ACE {report.ace * 100.0:.2f}%")
    return 0


if __name__ == "__main__":
    sys.exit(main())
