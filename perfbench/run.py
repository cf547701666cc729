"""livecheck benchmark: end-to-end metrics, or per-layer metrics when traced.

Run from the repository root:

    python3 perfbench/run.py --workload scan-sensor --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 0

One process runs one workload with a single caller in a closed loop.
Set-up runs several times and reports its median; then an untimed
quality protocol computes ``ace_pct`` and runs the correctness checks,
which also warms imports and first calls; then the timed phase repeats
passes until ``--seconds`` have elapsed.  Its times are speed-adjusted
(``speed.py``) and averaged over the phase; raw times are printed as
``#`` lines.  With ``--trace 1`` an untraced
and a traced timed phase run on the same inputs; the traced one gives
the per-layer metrics and the difference gives the tracing overhead.

Metric names and units come from BENCHMARK.json at the repository root.
The last line of stdout is one JSON object; lines before it starting
with ``#`` are a readable record.  The exit code is 0 only when every
correctness check passed and no operation failed.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
WORK_DIR = ROOT / ".perfbench_work"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Period of the speed probe's timer in set-up and untraced timed phases.
PROBE_EVERY_S = 0.15


def _limit_blas_threads() -> int:
    """Cap BLAS threads at the usable core count; must run before numpy loads."""
    cores = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        current = os.environ.get(var, "")
        wanted = min(int(current), cores) if current.isdigit() and int(current) > 0 else cores
        os.environ[var] = str(wanted)
    return cores


def _import_livecheck():
    """Import livecheck from this checkout's ``src``, nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import livecheck
    except ImportError as exc:
        raise SystemExit(f"error: cannot import livecheck from {src}: {exc}") from None
    if not Path(livecheck.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"error: livecheck imported from {livecheck.__file__}, not from {src}")
    return livecheck


def _git_commit() -> str | None:
    """HEAD of the repository this checkout is, or None outside git."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, check=False)
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _blas_threads(np) -> int | None:
    """Thread count reported by an OpenBLAS bundled with numpy, if any."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            query = getattr(lib, symbol, None)
            if query is not None:
                query.restype = ctypes.c_int
                return query()
    return None


def _machine(cores: int, livecheck) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": cores,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": _blas_threads(np),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "livecheck": livecheck.__version__,
        "commit": _git_commit(),
    }


def _timed_phase(workload, state, seconds: float, tracer):
    from speed import SpeedProbe
    from workloads import Phase

    every = None if tracer.enabled else PROBE_EVERY_S
    with SpeedProbe(workload.speed_kernel, every) as probe:
        phase = Phase(probe)
        start = perf_counter()
        while perf_counter() - start < seconds:
            workload.run_pass(state, tracer, phase)
    return phase


def _end_to_end(phase, setup_times, ace_pct) -> dict:
    wall = statistics.mean(phase.pass_walls)
    return {
        "wall_adj_s": wall,
        "latency_adj_ms": 1000.0 * statistics.mean(phase.unit_latencies),
        "images_per_adj_s": phase.images_per_pass / wall,
        "ace_pct": ace_pct,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": statistics.median(setup_times),
    }


def _per_layer(workload, state, plain, traced_phase, tracer, side) -> dict:
    from workloads import STAGES

    ops = sum(1 for span in tracer.spans if span[0] == "op")
    self_times = tracer.self_times()
    totals = tracer.total_times()
    counts = tracer.counters

    def per_op_ms(name):
        return 1000.0 * self_times.get(name, 0.0) / ops

    metrics = {}
    for name in ("imageproc.roi", "imageproc.clahe", "imageproc.filter", "imageproc.ingest",
                 "lbp.features", "augment.patch", "transform.standardize",
                 "transform.pca_fit", "transform.project", "svm.smo", "svm.score",
                 "dataset.load"):
        metrics[f"{name}_ms"] = per_op_ms(name)
    for layer in (1, 2):
        for step in ("conv", "relu", "lcn", "pool"):
            metrics[f"convnet.l{layer}.{step}_ms"] = per_op_ms(f"convnet.l{layer}.{step}")
    for name in ("lbp.calls", "convnet.calls", "augment.patches", "svm.score_calls",
                 "dataset.decodes"):
        metrics[name] = counts[name] / ops
    calls = counts["svm.score_calls"]
    metrics["svm.score_rows_per_call"] = counts["svm.score_rows"] / calls if calls else 0.0
    for stage in STAGES:
        metrics[f"modelsel.{stage}.ms"] = 1000.0 * totals.get(f"modelsel.{stage}", 0.0) / ops
        metrics[f"modelsel.{stage}.executions"] = 0
        metrics[f"modelsel.{stage}.hits"] = 0
    metrics["modelsel.hit_ratio"] = 0.0
    for name in ("svm.smo_sweeps", "svm.smo_n", "svm.support_vectors", "svm.gram_mib_computed"):
        metrics[name] = 0
    for kind in ("save", "load"):
        spent = [end - start for t in (side, tracer) for name, start, end, _, _ in t.spans
                 if name == f"model_io.{kind}"]
        metrics[f"model_io.{kind}_ms"] = 1000.0 * statistics.mean(spent) if spent else 0.0
    metrics["pipeline.self_ms"] = per_op_ms("op")
    overhead = statistics.mean(traced_phase.pass_walls) - statistics.mean(plain.pass_walls)
    metrics["trace.overhead_ms"] = 1000.0 * overhead / traced_phase.ops_per_pass
    metrics["wall_raw_s"] = statistics.mean(plain.raw_pass_walls)
    metrics["speed.reference_ms"] = 1000.0 * statistics.mean(plain.probe.reference_times)
    metrics.update(workload.layer_metrics(state))
    return metrics


def run_workload(args, spec: dict) -> int:
    cores = _limit_blas_threads()
    os.environ.pop("LIVECHECK_CACHE_DIR", None)  # a warm disk cache would skip the work
    livecheck = _import_livecheck()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from spans import NO_TRACE, Tracer
    from speed import SpeedProbe
    from workloads import SPOOF_SIGMA, WORKLOADS, Checks

    end_to_end_units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer_units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    workload = WORKLOADS[args.workload]
    print(f"# perfbench {workload.name} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print(f"# machine {json.dumps(_machine(cores, livecheck))}")

    checks = Checks()
    side = Tracer() if args.trace else NO_TRACE
    WORK_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK_DIR))
    attempted = failed = 0
    metrics: dict = {}
    try:
        setup_times, raw_setup_times, digests = [], [], set()
        with SpeedProbe(workload.speed_kernel, PROBE_EVERY_S) as probe:
            for repeat in range(workload.setup_repeats):
                raw, adjusted = probe.region()
                state = workload.setup(args.seed, workdir / f"setup{repeat}", side)
                probe.mark()
                setup_times.append(probe.adjusted - adjusted)
                raw_setup_times.append(probe.raw - raw)
                digests.add(state.get("digest"))
        print(f"# setup_s each: {' '.join(f'{t:.4f}' for t in setup_times)}"
              f" (raw {' '.join(f'{t:.4f}' for t in raw_setup_times)})")
        checks.expect(len(digests) == 1, "repeated set-up trained different models")
        try:
            workload.check(state, checks, side)
        except Exception as exc:  # reported as a failed check
            checks.expect(False, f"correctness check raised {type(exc).__name__}: {exc}")

        plain = _timed_phase(workload, state, args.seconds, NO_TRACE)
        phases = [plain]
        if args.trace:
            tracer = Tracer()
            phases.append(_timed_phase(workload, state, args.seconds, tracer))
        try:
            ace_pct, produced = workload.finish(state, checks, side)
        except Exception as exc:  # reported as a failed check
            checks.expect(False, f"quality protocol raised {type(exc).__name__}: {exc}")
            ace_pct, produced = float("nan"), "none"
        print(f"# quality ace_pct={ace_pct:.4f} model={produced} spoof_sigma={SPOOF_SIGMA}")

        attempted = sum(p.attempted for p in phases)
        failed = sum(p.failed for p in phases)
        for phase in phases:
            for error in phase.errors[:5]:
                print(f"# failed operation: {error}")
        checks.expect(failed == 0, f"{failed} of {attempted} operations failed")
        checks.expect(bool(plain.pass_walls), "no timed pass completed")

        if plain.pass_walls:
            raw = plain.raw_unit_latencies
            print(f"# timed passes={len(plain.pass_walls)} units={len(raw)}"
                  f" wall_raw_s={statistics.mean(plain.raw_pass_walls):.4f}"
                  f" speed.reference_ms={1000.0 * statistics.mean(plain.probe.reference_times):.4f}"
                  f" kernel={workload.speed_kernel}")
            print(f"# raw latency_p50_ms {1000.0 * statistics.median(raw):.4f}")
            if len(raw) >= 100:
                p90 = statistics.quantiles(raw, n=10)[-1]
                print(f"# raw latency_p90_ms {1000.0 * p90:.4f} over {len(raw)} units")
            if args.trace and phases[-1].pass_walls:
                computed = _per_layer(workload, state, plain, phases[-1], tracer, side)
                units = per_layer_units
                trace_path = WORK_DIR / f"trace-{workload.name}-seed{args.seed}.jsonl"
                tracer.write_jsonl(trace_path, run_id=f"{workload.name}-seed{args.seed}")
                print(f"# spans={len(tracer.spans)} written to {trace_path.relative_to(ROOT)}")
            else:
                computed = _end_to_end(plain, setup_times, ace_pct)
                units = end_to_end_units
            missing = sorted(set(units) - set(computed))
            checks.expect(not missing, f"metrics not computed: {missing}")
            metrics = {name: {"value": float(computed[name]), "unit": unit}
                       for name, unit in units.items() if name in computed}
            for name, entry in metrics.items():
                print(f"# {name} {entry['value']:.6g} {entry['unit']}")
    except Exception as exc:  # set-up or reporting failed: one failed operation
        attempted += 1
        failed += 1
        checks.expect(False, f"run raised {type(exc).__name__}: {exc}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for failure in checks.failures:
        print(f"# check failed: {failure}")
    correct = not checks.failures
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def run_all(args, spec: dict) -> int:
    """Run each workload in its own process, one after another."""
    results, code = {}, 0
    for entry in spec["workloads"]:
        command = [sys.executable, str(Path(__file__).resolve()), "--workload", entry["name"],
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True, check=False)
        sys.stdout.write(done.stdout)
        lines = done.stdout.strip().splitlines()
        last = lines[-1] if lines else ""
        results[entry["name"]] = json.loads(last) if last.startswith("{") else None
        code = max(code, done.returncode)
    print(json.dumps(results))
    return code


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="workload name from BENCHMARK.json, or 'all'")
    parser.add_argument("--seed", type=int, default=1, help="seed of the generated inputs")
    parser.add_argument("--seconds", type=float, default=15.0, help="length of the timed phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1 reports per-layer metrics from a traced run")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload == "all":
        return run_all(args, spec)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")
    return run_workload(args, spec)


if __name__ == "__main__":
    sys.exit(main())
