"""Session benchmark for the ecoplan CLI.

A session is a fixed sequence of ``ecoplan`` invocations, as a designer runs
them. Each invocation runs as its own subprocess, in a closed loop with one
client: the next invocation starts when the previous one has exited. Every
output is checked; see ``checks.py``.

Run from the root of a checkout:

    python3 perfbench/run.py --workload partition_large --seed 1 --seconds 60 --trace 0

``--trace 0`` times sessions and prints the end-to-end metrics. ``--trace 1``
runs the same invocations in-process, once untraced and once traced, and
prints the per-layer metrics, the import-time probe and the layer-scaling
probe. ``--trace all`` does both. The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``. Detailed results,
with the input properties and the machine description, go to
``.bench_results/``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

import checks
import gen
import tracing

STARTED = time.perf_counter()
RUN_LIMIT_S = 165  # a run must exit within 180 s
INVOCATION_TIMEOUT_S = 60
TAIL_BEYOND = 10  # sessions that must lie beyond the reported tail percentile
SUFFIXES = ("json", "csv", "md")


@dataclass(frozen=True)
class Step:
    """One CLI invocation of a session."""

    command: str
    config: str  # key into the generated configs
    args: tuple[str, ...] = ()

    @property
    def label(self) -> str:
        return " ".join((self.command, *self.args))

    @property
    def outputs(self) -> tuple[str, ...]:
        return tuple(f"{self.command}.{suffix}" for suffix in SUFFIXES)


@dataclass(frozen=True)
class Workload:
    steps: tuple[Step, ...]
    # Sessions per timed run at scale 1; it fixes the tail percentile (25 gives p60).
    sessions: int


WORKLOADS = {
    "partition_large": Workload(
        steps=(
            Step("partition", "main", ("--method", "greedy")),
            Step("partition", "subsystem", ("--method", "exact")),
        ),
        sessions=25,
    ),
    "analysis_large": Workload(
        steps=(
            Step("score", "main"),
            Step("compare", "main"),
            Step("carbon", "main"),
            Step("aging", "main"),
        ),
        sessions=25,
    ),
}

# The per-layer times each command must record; a zero there is reported.
EVERY_STEP_METRICS = ("cli.load_config_ms", "cli.self_ms", "report.render_ms", "report.write_ms")
STEP_METRICS = {
    "score": ("model.load_dataset_ms", "scoring.score_dataset_ms"),
    "partition --method greedy": ("model.load_dataset_ms", "scoring.score_dataset_ms",
                                  "partition.plan_greedy_ms", "partition.validate_plan_ms"),
    "partition --method exact": ("partition.plan_exact_ms", "partition.validate_plan_ms"),
    "carbon": ("carbon.calibrate_ms", "carbon.sweep_ms", "carbon.compare_ms"),
    "compare": ("model.load_dataset_ms", "report.platform_comparison_ms"),
    "aging": ("aging.slack_at_ms", "aging.remap_ms"),
}

SCALING_SIZES = (100, 1000, 10000)
EXACT_SIZES = (12, 16, 20)


def tail_percentile(sessions: int) -> int:
    """Highest whole percentile with at least TAIL_BEYOND sessions beyond it."""
    return max(0, math.floor(100 * (sessions - TAIL_BEYOND) / sessions))


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile, interpolated between the two nearest sessions."""
    if len(values) < 2 or q <= 0:
        return min(values)
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def remaining() -> float:
    return RUN_LIMIT_S - (time.perf_counter() - STARTED)


# --- subprocesses -------------------------------------------------------------

# Each invocation runs what the ``ecoplan`` console script runs
# (``ecoplan.cli:main``), and first reports on stderr when ``import ecoplan.cli``
# has finished, on the same system-wide monotonic clock as the parent.
IMPORTED = "ecoplan-bench-imported "
LAUNCH = ("import sys, time; from ecoplan.cli import main; "
          f"sys.stderr.write({IMPORTED!r} + repr(time.perf_counter()) + '\\n'); "
          "sys.exit(main())")


def run_child(argv: list[str], env: dict[str, str]) -> tuple[subprocess.CompletedProcess, float]:
    """Run one child to completion; returns it and its wall time in seconds."""
    start = time.perf_counter()
    proc = subprocess.run(argv, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, env=env,
                          text=True, errors="replace",
                          timeout=max(1.0, min(INVOCATION_TIMEOUT_S, remaining())))
    return proc, time.perf_counter() - start


class Session:
    """The invocations of one workload, with their inputs and reference bytes."""

    def __init__(self, workload: Workload, configs: dict[str, Path], work: Path,
                 env: dict[str, str]) -> None:
        self.steps = workload.steps
        self.configs = configs
        self.work = work
        self.env = env
        self.reference: list[dict[str, bytes]] = []

    def argv(self, index: int, step: Step, out_root: Path) -> list[str]:
        out = out_root / f"{index}"
        return [step.command, "--config", str(self.configs[step.config]), "--out", str(out),
                *step.args]

    def run_subprocess(self) -> tuple[float, list[float], list[str]]:
        """One timed session; returns its wall time, the start-up time of each
        invocation (interpreter start plus ``import ecoplan.cli``) and the
        problems found."""
        out_root = self.work / "out"
        shutil.rmtree(out_root, ignore_errors=True)
        problems, setups = [], []
        wall = 0.0
        for index, step in enumerate(self.steps):
            start = time.perf_counter()
            try:
                child, took = run_child([sys.executable, "-c", LAUNCH,
                                         *self.argv(index, step, out_root)], self.env)
            except subprocess.TimeoutExpired:
                wall += time.perf_counter() - start
                problems.append(f"{step.label}: timed out")
                continue
            wall += took
            imported = [line for line in child.stderr.splitlines() if line.startswith(IMPORTED)]
            if imported:
                setups.append(float(imported[0][len(IMPORTED):]) - start)
            if child.returncode != 0 or not imported:
                problems.append(f"{step.label}: exit {child.returncode}: "
                                f"{child.stderr.strip()[-300:]}")
        return wall, setups, problems + self.compare_outputs(out_root)

    def run_inprocess(self, main, out_root: Path) -> tuple[float, list[str]]:
        shutil.rmtree(out_root, ignore_errors=True)
        problems = []
        start = time.perf_counter()
        for index, step in enumerate(self.steps):
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()) as err:
                code = main(self.argv(index, step, out_root))
            if code != 0:
                problems.append(f"{step.label}: in-process exit {code}: {err.getvalue()[-300:]}")
        wall = time.perf_counter() - start
        return wall, problems + self.compare_outputs(out_root)

    def compare_outputs(self, out_root: Path) -> list[str]:
        """Every output must match the bytes of its first run in this process."""
        problems = []
        for index, step in enumerate(self.steps):
            files, missing = checks.read_outputs(out_root / f"{index}", step.outputs)
            problems += missing
            if not self.reference:
                continue
            for name, blob in files.items():
                if blob != self.reference[index].get(name):
                    problems.append(f"{step.label}: {name} differs from the first output")
        return problems

    def record_reference(self, inputs: dict) -> list[str]:
        """Run one untimed session and check its outputs against the inputs."""
        _, _, problems = self.run_subprocess()
        for index, step in enumerate(self.steps):
            files, _ = checks.read_outputs(self.work / "out" / f"{index}", step.outputs)
            self.reference.append(files)
            if files:
                problems += checks.check_invocation(step, files, inputs)
        return problems


# --- set-up -----------------------------------------------------------------


def load_inputs(configs: dict[str, Path]):
    """Parse every generated file through the package before timing starts."""
    from ecoplan.cli import load_config
    from ecoplan.model import load_dataset

    inputs, props = {}, {}
    for key, path in configs.items():
        config = load_config(path)
        dataset = load_dataset(config.dataset_path)
        raw_config = json.loads(path.read_text(encoding="utf-8"))
        raw_data = json.loads(config.dataset_path.read_text(encoding="utf-8"))
        inputs[key] = (raw_config, raw_data)
        total_area = sum(ip.area for ip in dataset.ips)
        capacity = (raw_config.get("fabric_budget") or {}).get("capacity")
        carbon = raw_config.get("carbon") or {}
        aging = raw_config.get("aging") or {}
        sweep = carbon.get("sweep", {})
        props[key] = {
            "ips": len(dataset.ips),
            "dataset_bytes": config.dataset_path.stat().st_size,
            "budget_to_total_area": capacity / total_area if capacity else None,
            "carbon_cells": sum(len(p) for p in carbon.get("anchors", {}).values())
            * (len(sweep.get("lifetimes_years", ())) + len(sweep.get("volumes", ()))),
            "aging_blocks": len(aging.get("blocks", ())),
            "aging_regions": len(aging.get("regions", ())),
        }
    return inputs, props


def machine() -> dict[str, object]:
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "platform": platform.platform(),
    }


# --- timed pass ---------------------------------------------------------------


def timed_pass(session: Session, fixed: int, seconds: float):
    """Closed loop: sessions back to back for ``seconds`` and at least ``fixed``
    of them."""
    latencies, setups, problems = [], [], []
    attempted = failed = 0
    busy = 0.0
    deadline = time.perf_counter() + seconds
    last = 0.0  # the previous session; no session starts past the deadline
    while attempted < fixed or time.perf_counter() + last < deadline:
        begin = time.perf_counter()
        if remaining() < 20:
            break  # ends the run in time; "sessions" below shows the shortfall
        wall, started, found = session.run_subprocess()
        attempted += 1
        busy += wall
        setups += started
        if found:
            failed += 1
            problems += found
        else:
            latencies.append(wall)
        last = time.perf_counter() - begin
    # Linux reports the largest max-RSS of any waited-for child, in KiB.
    peak_rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    q = tail_percentile(fixed)
    metrics = {
        "latency_p50_ms": (1000 * statistics.median(latencies), "ms"),
        "latency_tail_ms": (1000 * percentile(latencies, q), "ms"),
        "sessions_per_s": ((attempted - failed) / busy, "1/s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (peak_rss_kb / 1024, "MB"),
    } if latencies and setups else {}
    detail = {
        "sessions": attempted,
        "fixed_sessions": fixed,
        "tail_percentile": q,
        "setup_samples": len(setups),
        "error_rate": failed / attempted if attempted else None,
        "session_ms": [round(1000 * x, 3) for x in latencies],
    }
    return metrics, attempted, failed, problems, detail


# --- traced pass ----------------------------------------------------------------


def startup_probes(env: dict[str, str], rounds: int) -> dict[str, float]:
    bare, imports, numpy = [], [], []
    for _ in range(rounds):
        bare.append(run_child([sys.executable, "-c", "pass"], env)[1] * 1000)
        child, _ = run_child([sys.executable, "-X", "importtime", "-c", "import ecoplan.cli"],
                             env)
        parsed = tracing.parse_importtime(child.stderr)
        imports.append(parsed["import_ms"])
        numpy.append(parsed["numpy_ms"])
    return {
        "cli.interpreter_ms": statistics.median(bare),
        "cli.import_ms": statistics.median(imports),
        "cli.import_numpy_ms": statistics.median(numpy),
    }


def scaling_probe(seed: int, scale: float) -> dict[str, float]:
    """Layer times on synthetic sets of growing size, outside any session."""
    from ecoplan.model import Dataset, IpProfile, ScoreWeights
    from ecoplan.partition import FabricBudget, plan_exact, plan_greedy
    from ecoplan.scoring import score_dataset

    def build(n: int):
        raw = gen.scaling_dataset(n, seed)
        ips = tuple(IpProfile(**ip) for ip in raw["ips"])
        return Dataset(ips=ips, area_unit=raw["area_unit"]), FabricBudget(gen.budget_for(raw))

    def timed(fn, repeats: int) -> float:
        runs = []
        for _ in range(repeats):
            start = time.perf_counter()
            fn()
            runs.append(1000 * (time.perf_counter() - start))
        return statistics.median(runs)

    weights = ScoreWeights.default()
    out = {}
    for size in SCALING_SIZES:
        n = max(EXACT_SIZES[0], round(size * scale))
        dataset, budget = build(n)
        cards = score_dataset(dataset, weights)
        out[f"scoring.score_dataset_ms.n{n}"] = timed(
            lambda: score_dataset(dataset, weights), 5 if n <= 1000 else 3)
        out[f"partition.plan_greedy_ms.n{n}"] = timed(
            lambda: plan_greedy(cards, dataset, budget), 5 if n <= 1000 else 1)
    for n in EXACT_SIZES:
        dataset, budget = build(n)
        cards = score_dataset(dataset, weights)
        out[f"partition.plan_exact_ms.n{n}"] = timed(lambda: plan_exact(cards, dataset, budget), 5)
    return out


def traced_pass(session: Session, workload_name: str, seed: int, seconds: float, scale: float,
                env: dict[str, str], results: Path):
    import ecoplan.cli
    from ecoplan import aging, carbon, model, partition, report, scoring

    modules = {"cli": ecoplan.cli, "model": model, "scoring": scoring,
               "partition": partition, "carbon": carbon, "aging": aging, "report": report}
    tracer = tracing.Tracer(modules)
    started = time.perf_counter()
    metrics = startup_probes(env, 5)
    metrics.update(scaling_probe(seed, scale))
    deadline = started + seconds

    def main(argv):  # looked up per call: the tracer rebinds cli.main
        return ecoplan.cli.main(argv)

    problems: list[str] = []
    plain, traced, per_session = [], [], []
    attempted = failed = 0
    while len(traced) < 3 or time.perf_counter() + plain[-1] + traced[-1] < deadline:
        if traced and remaining() < 30:
            break
        first = len(tracer.spans)
        # Alternate which of the pair runs first, so warm-up favours neither.
        for with_trace in (True, False) if len(traced) % 2 else (False, True):
            if with_trace:
                tracer.install(len(traced))
            try:
                wall, found = session.run_inprocess(main, session.work / "inproc")
            finally:
                tracer.uninstall()
            (traced if with_trace else plain).append(wall)
            attempted += 1
            failed += bool(found)
            problems += found
        per_session.append(tracing.session_metrics(tracer.spans, first))
    spans = tracer.spans
    tracer.dump(results / f"{workload_name}-seed{seed}-spans.jsonl")

    metrics.update(tracing.medians(per_session))
    metrics["trace.overhead_ms"] = 1000 * statistics.median(
        t - p for t, p in zip(traced, plain))

    layer_spans = tracing.layer_span_counts(spans)
    expected = sorted({m for step in session.steps
                       for m in STEP_METRICS[step.label] + EVERY_STEP_METRICS})
    missing = [m for m in expected if not metrics.get(m)]
    missing += [f"layer {layer}" for layer, count in layer_spans.items() if count == 0
                and any(m.startswith(layer + ".") for m in expected)]
    detail = {
        "traced_sessions": len(traced),
        "bindings_wrapped": tracer.bindings,
        "spans_per_layer": layer_spans,
        "spans_missing": missing,
        "admitted_ratio_base": "IPs admitted / IPs considered, over all planner calls of a session",
        "inprocess_session_ms": [round(1000 * x, 3) for x in plain],
        "traced_session_ms": [round(1000 * x, 3) for x in traced],
    }
    units = {name: "ms" if "_ms" in name else "ratio" if name.endswith("_ratio")
             else "bytes" if name.endswith("bytes_written") else "count" for name in metrics}
    return ({k: (v, units[k]) for k, v in metrics.items()}, attempted, failed, problems, detail)


# --- main -------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=("0", "1", "all"), default="0")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="input size factor; below 1 only for the smoke test")
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "ecoplan" / "cli.py").is_file():
        print(f"error: no ecoplan sources under {src}; run from a checkout root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    env = dict(os.environ, PYTHONPATH=str(src))

    workload = WORKLOADS[args.workload]
    fixed = max(2, round(workload.sessions * min(1.0, args.scale)))
    results = root / ".bench_results"
    results.mkdir(exist_ok=True)
    work = root / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        configs = gen.generate(args.workload, args.seed, args.scale, work / "inputs")
        inputs, props = load_inputs(configs)
        session = Session(workload, configs, work, env)
        problems = session.record_reference(inputs)
        attempted, failed = 1, int(bool(problems))
        metrics: dict[str, tuple[float, str]] = {}
        detail: dict[str, object] = {}
        if args.trace in ("0", "all"):
            m, a, f, p, d = timed_pass(session, fixed, args.seconds)
            metrics.update(m)
            attempted, failed, problems = attempted + a, failed + f, problems + p
            detail["timed"] = d
        if args.trace in ("1", "all"):
            m, a, f, p, d = traced_pass(session, args.workload, args.seed, args.seconds,
                                        args.scale, env, results)
            metrics.update(m)
            attempted, failed, problems = attempted + a, failed + f, problems + p
            detail["traced"] = d
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            (root / ".bench_work").rmdir()

    correct = failed == 0 and not problems and bool(metrics)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": args.scale,
        "machine": machine(),
        "inputs": props,
        "problems": problems[:50],
        **detail,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (results / f"{stem}.json").write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")

    for line in problems[:20]:
        print(f"problem: {line}", file=sys.stderr)
    width = max(map(len, metrics), default=0)
    for name, (value, unit) in metrics.items():
        print(f"{name:<{width}}  {value:>14.4f}  {unit}")
    if "timed" in detail:
        t = detail["timed"]
        print(f"latency_tail_ms is p{t['tail_percentile']} of {t['sessions']} sessions "
              f"(fixed count {t['fixed_sessions']}); error_rate {t['error_rate']}")
    if "traced" in detail and detail["traced"]["spans_missing"]:
        print(f"no spans where expected: {', '.join(detail['traced']['spans_missing'])}")
    print(f"inputs: {json.dumps(props)}")
    print(f"machine: {json.dumps(report['machine'])}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": report["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
