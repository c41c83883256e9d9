"""Spans around the calls into thermops' public functions, for the traced run.

`Tracer.install()` wraps the functions in LAYERS and rebinds each wrapper
in every thermops module that holds the original, so calls between modules
(theorem2_bound -> check_eti, cli.main -> run_experiment -> csv_text) are
seen too; `uninstall()` puts the originals back.  A span records its name,
start, end, parent span and operation id.  Spans stay in memory until the
run ends.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict
from pathlib import Path

# module, function, how it is traced: "span" records a span, "count" only
# counts calls (logsumexp runs once per channel row, so a span per call
# would cost more than the call).
LAYERS = (
    ("construction", "extend_to_oscillator", "span"),
    ("construction", "auto_battery_size", "span"),
    ("construction", "truncation_tail", "span"),
    ("construction", "verify_extension", "span"),
    ("channels", "validate", "span"),
    ("channels", "check_eti", "span"),
    ("channels", "apply", "span"),
    ("spectra", "logsumexp", "count"),
    ("batteries", "work_distribution", "span"),
    ("bounds", "conditional_jarzynski", "span"),
    ("bounds", "theorem1_certify", "span"),
    ("bounds", "theorem2_bound", "span"),
    ("erasure", "oscillator_erasure_stats", "span"),
    ("feasibility", "thermo_majorizes", "span"),
    ("feasibility", "lp_feasible_transport", "span"),
    ("feasibility", "min_formation_gap", "span"),
    ("feasibility", "formation_feasible_at", "count"),
    ("fileio", "channel_to_text", "span"),
    ("fileio", "channel_from_text", "span"),
    ("fileio", "csv_text", "span"),
    ("cli", "main", "span"),
    ("experiments", "run_experiment", "span"),  # span named experiments.<name>
)

EXPERIMENT_NAMES = (
    "certify-thm1", "certify-thm2", "certify-thm4", "example1", "example2",
    "example3", "fig2a", "fig2b", "fig4", "oracle-feasibility",
)

# Per-layer metric -> (unit, layer, statistic).  ms (inclusive busy time),
# self_ms (minus traced child spans) and calls are averaged over operations;
# the sizes the wrappers record (MB, N) are maxima over the run.
METRICS = {
    "construction.extend_to_oscillator.ms": ("ms", "construction.extend_to_oscillator", "ms"),
    "construction.extend_to_oscillator.peak_mb": ("MB", "construction.extend_to_oscillator", "peak_mb"),
    "construction.channel_mb": ("MB", "construction.extend_to_oscillator", "channel_mb"),
    "construction.num_quanta": ("count", "construction.extend_to_oscillator", "num_quanta"),
    "construction.auto_battery_size.ms": ("ms", "construction.auto_battery_size", "ms"),
    "construction.truncation_tail.ms": ("ms", "construction.truncation_tail", "ms"),
    "construction.verify_extension.self_ms": ("ms", "construction.verify_extension", "self_ms"),
    "channels.validate.ms": ("ms", "channels.validate", "ms"),
    "channels.validate.calls": ("count", "channels.validate", "calls"),
    "channels.check_eti.ms": ("ms", "channels.check_eti", "ms"),
    "channels.check_eti.calls": ("count", "channels.check_eti", "calls"),
    "channels.apply.ms": ("ms", "channels.apply", "ms"),
    "spectra.logsumexp.calls": ("count", "spectra.logsumexp", "calls"),
    "batteries.work_distribution.ms": ("ms", "batteries.work_distribution", "ms"),
    "bounds.conditional_jarzynski.ms": ("ms", "bounds.conditional_jarzynski", "ms"),
    "bounds.conditional_jarzynski.calls": ("count", "bounds.conditional_jarzynski", "calls"),
    "bounds.theorem1_certify.self_ms": ("ms", "bounds.theorem1_certify", "self_ms"),
    "bounds.theorem2_bound.self_ms": ("ms", "bounds.theorem2_bound", "self_ms"),
    "erasure.oscillator_erasure_stats.self_ms": ("ms", "erasure.oscillator_erasure_stats", "self_ms"),
    "feasibility.thermo_majorizes.ms": ("ms", "feasibility.thermo_majorizes", "ms"),
    "feasibility.thermo_majorizes.calls": ("count", "feasibility.thermo_majorizes", "calls"),
    "feasibility.lp_feasible_transport.ms": ("ms", "feasibility.lp_feasible_transport", "ms"),
    "feasibility.lp_feasible_transport.calls": ("count", "feasibility.lp_feasible_transport", "calls"),
    "feasibility.min_formation_gap.self_ms": ("ms", "feasibility.min_formation_gap", "self_ms"),
    "feasibility.formation_feasible_at.calls": ("count", "feasibility.formation_feasible_at", "calls"),
    "fileio.channel_to_text.ms": ("ms", "fileio.channel_to_text", "ms"),
    "fileio.channel_from_text.ms": ("ms", "fileio.channel_from_text", "ms"),
    "fileio.channel_file_mb": ("MB", "fileio.channel_to_text", "file_mb"),
    "fileio.csv_text.ms": ("ms", "fileio.csv_text", "ms"),
    "cli.main.self_ms": ("ms", "cli.main", "self_ms"),
    **{f"experiments.{n}.ms": ("ms", f"experiments.{n}", "ms") for n in EXPERIMENT_NAMES},
}


class Tracer:
    """In-memory spans and counters, keyed by the current operation id."""

    def __init__(self):
        self.op = -1
        self.spans: list[list] = []  # [name, start, end, parent index, op]
        self.counts: dict[str, int] = defaultdict(int)
        self.values: dict[tuple[str, str], float] = defaultdict(float)  # run maxima
        self.largest_extension: tuple | None = None  # (bytes, sub, num_quanta)
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def _record(self, layer: str, stat: str, value: float) -> None:
        self.values[(layer, stat)] = max(self.values[(layer, stat)], value)

    def _span(self, layer, fn, after=None):
        spans, stack = self.spans, self._stack
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            name = layer(args) if callable(layer) else layer
            idx = len(spans)
            spans.append([name, perf(), 0.0, stack[-1] if stack else -1, self.op])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = perf()
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def _counter(self, layer, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[layer] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _after_extension(self, args, kwargs, channel) -> None:
        layer = "construction.extend_to_oscillator"
        nbytes = channel.matrix.nbytes
        self._record(layer, "channel_mb", nbytes / 1e6)
        self._record(layer, "num_quanta", channel.n_battery - 1)
        if self.largest_extension is None or nbytes > self.largest_extension[0]:
            sub = args[0] if args else kwargs["sub"]
            n = args[1] if len(args) > 1 else kwargs["num_quanta"]
            self.largest_extension = (nbytes, sub, n)

    def _after_channel_text(self, args, kwargs, text) -> None:
        self._record("fileio.channel_to_text", "file_mb", len(text.encode("utf-8")) / 1e6)

    def install(self) -> None:
        modules = {name: mod for name, mod in sys.modules.items() if name.startswith("thermops")}
        for mod_name, fn_name, kind in LAYERS:
            original = getattr(modules[f"thermops.{mod_name}"], fn_name)
            layer = f"{mod_name}.{fn_name}"
            if kind == "count":
                wrapper = self._counter(layer, original)
            elif fn_name == "run_experiment":
                wrapper = self._span(lambda args: f"experiments.{args[0]}", original)
            elif fn_name == "extend_to_oscillator":
                wrapper = self._span(layer, original, self._after_extension)
            elif fn_name == "channel_to_text":
                wrapper = self._span(layer, original, self._after_channel_text)
            else:
                wrapper = self._span(layer, original)
            for mod in modules.values():
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._restore.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._restore):
            setattr(mod, attr, original)
        self._restore.clear()

    def per_layer(self, num_ops: int, peak_mb: float) -> dict[str, float]:
        """Each per-layer metric: a mean per operation, or a maximum (0 where a layer is idle).

        Means, not medians: a layer that runs on a minority of operations
        (min_formation_gap on a third of oracle-mix) would read 0 as a median.
        """
        totals: dict[tuple[str, str], float] = defaultdict(float)
        child = [0.0] * len(self.spans)
        for name, start, end, parent, op in self.spans:
            if parent >= 0:
                child[parent] += end - start
        for i, (name, start, end, parent, op) in enumerate(self.spans):
            totals[(name, "ms")] += 1e3 * (end - start)
            totals[(name, "self_ms")] += 1e3 * (end - start - child[i])
            totals[(name, "calls")] += 1
        for layer, n in self.counts.items():
            totals[(layer, "calls")] += n
        maxima = {**self.values, ("construction.extend_to_oscillator", "peak_mb"): peak_mb}
        return {
            metric: maxima[(layer, stat)] if (layer, stat) in maxima else totals[(layer, stat)] / num_ops
            for metric, (unit, layer, stat) in METRICS.items()
        }

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent, "op": op}) + "\n")
