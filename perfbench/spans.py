"""Per-layer tracing of `hybeam run` from outside the package.

`install` wraps the public functions of every hybeam module in span
recorders and rebinds each wrapper in every module namespace that binds
the original, since `experiments` and `cli` import names directly.  Spans
nest through one stack, so a layer's self time excludes the spans of other
layers it calls (`zf_baseband` -> `zf_spectrum` -> `pinv_tall`,
`effective_channel` -> `circular_convolve`, `dft_of_taps`).

Spans stay in memory.  Pool workers are forked from the traced process, so
they inherit the wrappers and the open span stack; each worker writes its
spans to the trace directory when its block of realizations ends, and the
traced process writes its own when the CLI returns.  `summarize` merges the
files into the per-layer metrics.

Run a traced CLI as ``python perfbench/spans.py TRACE_DIR run fig2 ...``
with ``src`` on ``PYTHONPATH``.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time

# Layer metric -> the (module, function) pairs whose spans it sums.  A layer's
# time metric is the self time of its spans; its call count, where the
# benchmark reports one, is the number of its spans.
LAYERS = {
    "channel.draw": [("channel", "draw_rich"), ("channel", "draw_sparse")],
    "channel.spectrum": [("channel", "channel_spectrum")],
    "beamforming.combiner": [
        ("beamforming", "mf_combiner"),
        ("beamforming", "rf_ltap"),
        ("beamforming", "rf_1tap"),
        ("beamforming", "rf_1tap_sum_heuristic"),
        ("beamforming", "decompose_to_phase_banks"),
    ],
    "beamforming.effective": [("beamforming", "effective_channel")],
    "beamforming.zf": [("beamforming", "zf_baseband"), ("beamforming", "zf_spectrum")],
    "numerics.dft": [("numerics", "dft_of_taps")],
    "numerics.convolve": [("numerics", "circular_convolve")],
    "numerics.logdet": [("numerics", "logdet_psd_stack"), ("numerics", "logdet_psd")],
    "numerics.pinv": [("numerics", "pinv_tall")],
    "metrics.capacity": [("metrics", "capacity")],
    "metrics.spectral_rate": [("metrics", "rate_spectral")],
    "metrics.hybrid_rate": [("metrics", "achievable_rate_hybrid")],
    "metrics.sinr": [("metrics", "sinr_from_pdp"), ("metrics", "sum_rate_from_sinr")],
    "metrics.delay_spread": [("metrics", "delay_spread_report"), ("metrics", "rms_delay_spread")],
    "closed_forms": [
        ("closed_forms", "sinr_limit_ltap"),
        ("closed_forms", "sinr_limit_1tap"),
        ("closed_forms", "sinr_ceiling_ltap"),
        ("closed_forms", "sinr_ceiling_1tap"),
        ("closed_forms", "capacity_limit"),
        ("closed_forms", "delay_spread_envelopes"),
        ("closed_forms", "predict"),
    ],
    # The two private block functions are the worker entry points: they root
    # the spans of each pool worker and flush them.
    "experiments": [
        ("experiments", "run_scenario"),
        ("experiments", "rms_study"),
        ("experiments", "validate_closed_forms"),
        ("experiments", "draw_realization"),
        ("experiments", "_scenario_block"),
        ("experiments", "_rms_block"),
    ],
    "cli.write_csv": [("cli", "write_csv")],
}

# Reported name of each layer's self time.
TIME_METRICS = {
    "closed_forms": "closed_forms.ms",
    "experiments": "experiments.self_ms",
    "cli.write_csv": "cli.write_csv_ms",
}

# Reported call counts: metric -> layer whose spans are counted.
CALL_METRICS = {
    "channel.draw_calls": "channel.draw",
    "beamforming.combiner_calls": "beamforming.combiner",
    "beamforming.effective_calls": "beamforming.effective",
    "numerics.pinv_calls": "numerics.pinv",
    "metrics.capacity_calls": "metrics.capacity",
    "closed_forms.calls": "closed_forms",
}

# Counters kept by hooks rather than spans.
COUNTERS = (
    "beamforming.noise_power_calls",
    "numerics.logdet_matrices",
    "numerics.logdet_scalar_fallbacks",
    "experiments.realizations_evaluated",
    "experiments.pool_starts",
    "cli.csv_bytes",
)

_WORKER_ENTRIES = {"_scenario_block", "_rms_block"}


def time_metric(layer: str) -> str:
    return TIME_METRICS.get(layer, f"{layer}_ms")


class Tracer:
    """Span and counter store of one process; forked workers start empty."""

    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        self.stack: list[tuple[str, str]] = []
        self._new_process()
        os.register_at_fork(after_in_child=self._new_process)

    def _new_process(self):
        self.token = f"{os.getpid()}-{time.perf_counter_ns()}"
        self.next_id = 0
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self.draws: list[list] = []
        self.flushes = 0

    def count(self, name: str, amount: int = 1):
        self.counts[name] = self.counts.get(name, 0) + int(amount)

    def wrap(self, fn, layer: str, after=None):
        """Span recorder around ``fn``; ``after(args, kwargs, result, parent)`` adds counts."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self.stack[-1] if self.stack else None
            span_id = f"{self.token}:{self.next_id}"
            self.next_id += 1
            self.stack.append((span_id, layer))
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                self.stack.pop()
                self.spans.append([span_id, parent and parent[0], layer, start, end])
            if after is not None:
                after(args, kwargs, result, parent)
            return result

        return traced

    def flush(self):
        """Write this process's spans and counters, then drop them."""
        path = os.path.join(self.out_dir, f"spans-{self.token}-{self.flushes}.json")
        self.flushes += 1
        with open(path, "w", encoding="ascii") as fh:
            json.dump({"spans": self.spans, "counts": self.counts, "draws": self.draws}, fh)
        self.spans, self.counts, self.draws = [], {}, []


def _rebind(original, replacement):
    """Point every hybeam namespace that binds ``original`` at ``replacement``."""
    for name, module in list(sys.modules.items()):
        if name != "hybeam" and not name.startswith("hybeam."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def install(tracer: Tracer):
    """Wrap every traced function of hybeam and count pool start-ups."""
    import importlib

    import hybeam.cli  # noqa: F401  (its namespace must exist before rebinding)
    import hybeam.experiments as experiments

    def on_draw(args, kwargs, result, parent):
        seed = kwargs.get("seed", args[-1] if args else None)
        tracer.draws.append([int(seed), result.dims.antennas])

    def on_logdet_stack(args, kwargs, result, parent):
        tracer.count("numerics.logdet_matrices", result.size)

    def on_logdet(args, kwargs, result, parent):
        if parent is not None and parent[1] == "numerics.logdet":
            tracer.count("numerics.logdet_scalar_fallbacks")
        else:
            tracer.count("numerics.logdet_matrices")

    def on_csv(args, kwargs, result, parent):
        path = kwargs.get("path", args[0] if args else None)
        tracer.count("cli.csv_bytes", os.path.getsize(path))

    hooks = {
        "draw_rich": on_draw,
        "draw_sparse": on_draw,
        "logdet_psd_stack": on_logdet_stack,
        "logdet_psd": on_logdet,
        "write_csv": on_csv,
    }
    root_pid = os.getpid()

    def on_worker_block(args, kwargs, result, parent):
        tracer.count("experiments.realizations_evaluated", len(result))
        if os.getpid() != root_pid:
            tracer.flush()  # a pool worker ends without running exit handlers

    for layer, functions in LAYERS.items():
        for module_name, function_name in functions:
            module = importlib.import_module(f"hybeam.{module_name}")
            original = getattr(module, function_name, None)
            if original is None:
                print(f"spans: hybeam.{module_name}.{function_name} is gone, not traced", file=sys.stderr)
                continue
            after = on_worker_block if function_name in _WORKER_ENTRIES else hooks.get(function_name)
            _rebind(original, tracer.wrap(original, layer, after))

    import hybeam.beamforming as beamforming

    noise_power = beamforming.combiner_noise_power

    @functools.wraps(noise_power)
    def counted_noise_power(*args, **kwargs):
        tracer.count("beamforming.noise_power_calls")
        return noise_power(*args, **kwargs)

    _rebind(noise_power, counted_noise_power)

    pool_class = experiments.ProcessPoolExecutor

    class CountedPool(pool_class):
        def __init__(self, *args, **kwargs):
            tracer.count("experiments.pool_starts")
            super().__init__(*args, **kwargs)

    experiments.ProcessPoolExecutor = CountedPool


def _self_times(spans: list) -> dict:
    """Self time per span id: duration minus the union of its children's intervals."""
    children: dict = {}
    for span in spans:
        if span[1] is not None:
            children.setdefault(span[1], []).append((span[3], span[4]))
    out = {}
    for span_id, _, _, start, end in spans:
        covered, cursor = 0, start
        for lo, hi in sorted(children.get(span_id, ())):
            lo, hi = max(lo, cursor), min(hi, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[span_id] = (end - start) - covered
    return out


def summarize(trace_dir: str) -> dict:
    """Per-layer metrics of one traced run from the span files in ``trace_dir``."""
    spans, counts, draws = [], {}, []
    for name in sorted(os.listdir(trace_dir)):
        if not name.startswith("spans-"):
            continue
        with open(os.path.join(trace_dir, name), encoding="ascii") as fh:
            part = json.load(fh)
        spans += part["spans"]
        draws += part["draws"]
        for key, value in part["counts"].items():
            counts[key] = counts.get(key, 0) + value
    self_ns = _self_times(spans)
    metrics = {time_metric(layer): 0.0 for layer in LAYERS}
    calls = {layer: 0 for layer in LAYERS}
    for span in spans:
        metrics[time_metric(span[2])] += self_ns[span[0]] / 1e6
        calls[span[2]] += 1
    for metric, layer in CALL_METRICS.items():
        metrics[metric] = calls[layer]
    for metric in COUNTERS:
        metrics[metric] = counts.get(metric, 0)
    metrics["channel.draws_repeated"] = len(draws) - len({tuple(d) for d in draws})
    return metrics


def main(argv: list[str]) -> int:
    trace_dir, cli_args = argv[0], argv[1:]
    tracer = Tracer(trace_dir)
    install(tracer)
    import hybeam.cli

    try:
        return hybeam.cli.main(cli_args)
    finally:
        tracer.flush()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
