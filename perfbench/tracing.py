"""Per-layer tracing of in-process ``ecoplan.cli.main`` runs.

The package's layers are its modules. ``Tracer.install`` wraps every public
function of each layer and binds the wrapper wherever another module of the
package reaches it: names copied by ``from .x import f``, and module objects
such as ``report_mod``, which are swapped for a namespace of wrappers. So a
call site that a later change moves is still traced. Calls inside one module
stay unwrapped and cost nothing. ``uninstall`` puts the originals back.

``cli`` is the entry layer. Its own functions are wrapped in its own module
too, so ``load_config`` and the commands get spans of their own. A span is
recorded for every call of a ``cli`` function and for every call ``cli``
makes into another layer. Calls between the other layers, such as
``scoring.composite`` validating weights once per IP, are folded into the
span of the entry call: a span each would cost more than the work it times.
"""

from __future__ import annotations

import functools
import inspect
import json
import re
import statistics
import sys
import types
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any, Callable

ENTRY = "cli"
LAYERS = ("cli", "model", "scoring", "partition", "carbon", "aging", "report")


@dataclass
class Span:
    name: str  # "<layer>.<function>"
    layer: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root
    session: int
    counts: dict[str, int] = field(default_factory=dict)


def _files_written(args, kwargs, paths) -> dict[str, int]:
    return {"files": len(paths), "bytes": sum(Path(p).stat().st_size for p in paths)}


def _blocks(args, kwargs, plan) -> dict[str, int]:
    blocks = kwargs.get("blocks", args[0] if args else ())
    moved = sum(plan.assignment.get(b.id) != b.region for b in blocks)
    return {"blocks": len(blocks), "moved": moved}


def _plan(args, kwargs, plan) -> dict[str, int]:
    return {"admitted": len(plan.efpga_ips),
            "considered": len(plan.efpga_ips) + len(plan.asic_ips)}


# Work counts taken from a span's arguments and result, after its end time.
COUNTERS: dict[str, Callable[[tuple, dict, Any], dict[str, int]]] = {
    "model.load_dataset": lambda a, k, r: {"ips": len(r.ips)},
    "scoring.score_dataset": lambda a, k, r: {"cards": len(r)},
    "partition.plan_greedy": _plan,
    "partition.plan_exact": _plan,
    "carbon.sweep": lambda a, k, r: {"cells": len(r.cells)},
    "aging.remap": _blocks,
    "report.write_outputs": _files_written,
}


class Tracer:
    """Spans of traced calls, kept in memory until ``dump``."""

    def __init__(self, layers: dict[str, types.ModuleType]) -> None:
        self.spans: list[Span | None] = []
        self.session = -1
        self._stack: list[tuple[int, str]] = []
        self._patches: list[tuple[Any, str, Any, Any]] = []
        wrappers: dict[int, tuple[Any, Any]] = {}
        for layer, module in layers.items():
            for name, fn in vars(module).items():
                if (not name.startswith("_") and inspect.isfunction(fn)
                        and fn.__module__ == module.__name__):
                    wrappers[id(fn)] = (fn, self._wrap(fn, layer, f"{layer}.{name}"))

        def wrapped(value):
            hit = wrappers.get(id(value))
            return hit[1] if hit is not None and hit[0] is value else None

        layer_modules = {id(m) for m in layers.values()}
        package = layers[ENTRY].__name__.split(".")[0]
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == package or mod_name.startswith(package + ".")):
                continue
            for attr, value in vars(mod).items():
                wrapper = wrapped(value)
                if wrapper is not None and (value.__module__ != mod_name
                                            or mod is layers[ENTRY]):
                    self._patches.append((mod, attr, value, wrapper))
                elif id(value) in layer_modules and id(mod) in layer_modules and value is not mod:
                    proxy = types.SimpleNamespace(**{
                        k: wrapped(v) or v for k, v in vars(value).items()})
                    self._patches.append((mod, attr, value, proxy))

    def _wrap(self, fn, layer: str, name: str):
        tracer = self
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            if layer != ENTRY and stack and stack[-1][1] != ENTRY:
                return fn(*args, **kwargs)
            index = len(tracer.spans)
            tracer.spans.append(None)
            stack.append((index, layer))
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                parent = stack[-1][0] if stack else -1
                tracer.spans[index] = Span(name, layer, start, end, parent, tracer.session)
            if counter is not None:
                tracer.spans[index].counts = counter(args, kwargs, result)
            return result

        return traced

    def install(self, session: int) -> None:
        self.session = session
        for mod, attr, _original, wrapper in self._patches:
            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original, _wrapper in self._patches:
            setattr(mod, attr, original)

    @property
    def bindings(self) -> int:
        return len(self._patches)

    def dump(self, path: Path) -> None:
        with path.open("w", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps(span.__dict__, sort_keys=True) + "\n")


def session_metrics(spans: list[Span], first: int) -> dict[str, float]:
    """Per-layer figures of the session whose spans start at ``spans[first]``
    (times in ms)."""
    session = spans[first:]
    child_time: dict[int, float] = {}
    for span in session:
        child_time[span.parent] = child_time.get(span.parent, 0.0) + span.end - span.start
    totals: dict[str, float] = {}
    counts: dict[str, int] = {}
    cli_self = 0.0
    for i, span in enumerate(session, start=first):
        duration = span.end - span.start
        totals[span.name] = totals.get(span.name, 0.0) + duration
        if span.layer == "cli" and span.name != "cli.load_config":
            cli_self += duration - child_time.get(i, 0.0)
        for key, value in span.counts.items():
            counts[f"{span.name}:{key}"] = counts.get(f"{span.name}:{key}", 0) + value

    def ms(*names: str) -> float:
        return 1000.0 * sum(totals.get(n, 0.0) for n in names)

    render = [n for n in totals if n.startswith("report.") and n.endswith("_report_files")]
    admitted = (counts.get("partition.plan_greedy:admitted", 0)
                + counts.get("partition.plan_exact:admitted", 0))
    considered = (counts.get("partition.plan_greedy:considered", 0)
                  + counts.get("partition.plan_exact:considered", 0))
    return {
        "cli.load_config_ms": ms("cli.load_config"),
        "cli.self_ms": 1000.0 * cli_self,
        "model.load_dataset_ms": ms("model.load_dataset"),
        "model.ips_loaded": counts.get("model.load_dataset:ips", 0),
        "scoring.score_dataset_ms": ms("scoring.score_dataset"),
        "scoring.cards": counts.get("scoring.score_dataset:cards", 0),
        "partition.plan_greedy_ms": ms("partition.plan_greedy"),
        "partition.plan_exact_ms": ms("partition.plan_exact"),
        "partition.validate_plan_ms": ms("partition.validate_plan"),
        "partition.admitted_ratio": admitted / considered if considered else 0.0,
        "carbon.calibrate_ms": ms("carbon.calibrated_params", "carbon.calibrate_e_use"),
        "carbon.sweep_ms": ms("carbon.sweep"),
        "carbon.compare_ms": ms("carbon.compare", "carbon.mean_reduction_at"),
        "carbon.cells": counts.get("carbon.sweep:cells", 0),
        "aging.slack_at_ms": ms("aging.slack_at"),
        "aging.remap_ms": ms("aging.remap"),
        "aging.blocks": counts.get("aging.remap:blocks", 0),
        "aging.blocks_moved": counts.get("aging.remap:moved", 0),
        "report.platform_comparison_ms": ms("report.platform_comparison"),
        "report.render_ms": ms(*render),
        "report.write_ms": ms("report.write_outputs"),
        "report.bytes_written": counts.get("report.write_outputs:bytes", 0),
        "report.files_written": counts.get("report.write_outputs:files", 0),
    }


def layer_span_counts(spans: list[Span]) -> dict[str, int]:
    out = dict.fromkeys(LAYERS, 0)
    for span in spans:
        out[span.layer] = out.get(span.layer, 0) + 1
    return out


_IMPORTTIME = re.compile(r"^import time:\s+(\d+) \|\s+(\d+) \|( *)(\S+)\s*$")


def parse_importtime(stderr: str) -> dict[str, float]:
    """Import cost of ``import ecoplan.cli`` from ``-X importtime`` output.

    ``import_ms`` sums the cumulative time of the top-level ``ecoplan``
    entries (the package, then ``ecoplan.cli``); ``numpy_ms`` is numpy's
    cumulative time wherever it is first imported, 0 if it is not imported.
    """
    import_us = numpy_us = 0
    for line in stderr.splitlines():
        match = _IMPORTTIME.match(line)
        if not match:
            continue
        cumulative, indent, name = int(match.group(2)), match.group(3), match.group(4)
        if len(indent) <= 1 and (name == "ecoplan" or name.startswith("ecoplan.")):
            import_us += cumulative
        if name == "numpy" and not numpy_us:
            numpy_us = cumulative
    return {"import_ms": import_us / 1000.0, "numpy_ms": numpy_us / 1000.0}


def medians(rows: list[dict[str, float]]) -> dict[str, float]:
    return {key: statistics.median(row[key] for row in rows) for key in rows[0]} if rows else {}
