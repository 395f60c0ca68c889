"""Command-line front end: preset listing, scenario runs, chart rendering.

Exit codes: 0 on success, 2 for configuration problems (unknown presets,
malformed config files or overrides), 3 when too many realizations fail
numerically.
"""

from __future__ import annotations

import argparse
import csv
import gc
import os
import sys
from dataclasses import replace
from typing import Callable, NamedTuple

import numpy as np

from .channel import _MEMORY_BYTES, SparseChannelConfig
from .experiments import (
    PRESETS,
    ResultRow,
    Scenario,
    run_scenario,
    validate_closed_forms,
    validation_run,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

# Tolerated fraction of numerically failed realizations before exit code 3.
FAILURE_BUDGET = 0.01
# Memory of one point of an expanded SNR range: a float object and its tuple slot.
_SNR_POINT_BYTES = 32

# Column -> parser of its text, in the order of ``ResultRow``'s fields
_CSV_COLUMNS = {
    "scenario": str,
    "scheme": str,
    "snr_db": float,
    "metric": str,
    "value": float,
    "stderr": float,
    "realizations": int,
    "seed": int,
}
CSV_FIELDS = tuple(_CSV_COLUMNS)


def write_csv(path, rows, trailer: str | None = None) -> None:
    """Write result rows with full-precision floats; optional comment trailer."""
    with open(path, "w", newline="", encoding="ascii") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_FIELDS)
        for row in rows:
            writer.writerow(
                f"{value:.17g}" if parse is float else value
                for parse, value in zip(_CSV_COLUMNS.values(), vars(row).values())
            )
        if trailer:
            for line in trailer.splitlines():
                fh.write(f"# {line}\n")


def read_csv(path) -> list[ResultRow]:
    """Read rows written by ``write_csv``; comment lines are skipped, and a
    malformed row is named by its file and line."""
    with open(path, newline="", encoding="ascii") as fh:
        numbered = [
            (n, line) for n, line in enumerate(fh, 1) if line.strip() and not line.lstrip().startswith("#")
        ]
    if not numbered:
        raise ValueError(f"{path}: no data rows")
    numbers, lines = zip(*numbered)
    reader = csv.reader(lines)
    header = tuple(next(reader))
    if header != CSV_FIELDS:
        raise ValueError(f"{path}: unexpected header {header}")
    rows = []
    for record in reader:
        # the reader's line count is the index of the record's last line
        message = f"{path}:{numbers[reader.line_num - 1]}: malformed row {record}"
        if len(record) != len(CSV_FIELDS):
            raise ValueError(message)
        try:
            rows.append(ResultRow(*(parse(text) for parse, text in zip(_CSV_COLUMNS.values(), record))))
        except ValueError as exc:
            raise ValueError(f"{message}: {exc}") from None
    return rows


def parse_snr_spec(text: str) -> tuple[float, ...]:
    """SNR grid grammar: ``start:stop:step`` (inclusive) or a comma list."""
    text = text.strip()
    if ":" in text:
        from decimal import ROUND_FLOOR, Context, Decimal, InvalidOperation

        # decimal arithmetic rounded down, whose overflow reads as the largest decimal
        floor = Context(rounding=ROUND_FLOOR, traps=[])
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError(f"SNR range must be start:stop:step, got {text!r}")
        try:
            start, stop, step = (Decimal(p.strip()) for p in parts)
        except InvalidOperation:
            raise ValueError(f"bad SNR range {text!r}") from None
        if not all(d.is_finite() for d in (start, stop, step)) or step <= 0 or stop < start:
            raise ValueError(f"bad SNR range {text!r}")
        # counted before it is expanded: the quotient, rounded down, reaches the
        # most points that fit exactly when the count exceeds them
        span = floor.subtract(stop, start)
        if floor.divide(span, step) >= _MEMORY_BYTES // _SNR_POINT_BYTES:
            raise ValueError(f"SNR range {text!r} has more points than {_MEMORY_BYTES} bytes can hold")
        # exact decimal arithmetic: 0:1:0.1 ends at 0.7, not 0.7000000000000001
        count = int(span // step) + 1
        return tuple(float(start + i * step) for i in range(count))
    values = tuple(float(token) for token in text.split(",") if token.strip())
    if not values:
        raise ValueError("empty SNR list")
    return values


def _names(text: str) -> tuple[str, ...]:
    return tuple(token.strip() for token in text.split(",") if token.strip())


class _Key(NamedTuple):
    """How a run key is read and where its value goes."""

    flags: tuple[str, ...]  # its ``run`` options; none when only a config section sets it
    parse: Callable[[str], object]
    owner: str  # "dims", "sparse" or "scenario"
    field: str  # the field of ``SystemDims``, ``SparseChannelConfig`` or ``Scenario``
    help: str | None = None


# Every key of a config section, which may also be named by its flags
# without the dashes (``M`` for ``antennas``).  An integer key's text is read
# by ``int``, which rejects "16.5"; its value meets ``channel._integer``'s
# rule where it lands.
_KEYS = {
    "antennas": _Key(("--M", "--antennas"), int, "dims", "antennas"),
    "users": _Key(("--U", "--users"), int, "dims", "users"),
    "taps": _Key(("--L", "--taps"), int, "dims", "taps"),
    "subcarriers": _Key(("--K", "--subcarriers"), int, "dims", "subcarriers"),
    "realizations": _Key(("--realizations",), int, "scenario", "realizations"),
    "snr": _Key(("--snr",), parse_snr_spec, "scenario", "snr_db", "start:stop:step or comma list, in dB"),
    "seed": _Key(("--seed",), int, "scenario", "master_seed"),
    "schemes": _Key((), _names, "scenario", "schemes"),
    "model": _Key((), str, "scenario", "channel_model"),
    "paths_per_cluster": _Key((), int, "sparse", "paths_per_cluster"),
    "angular_spread_deg": _Key((), float, "sparse", "angular_spread_deg"),
    "spacing_ratio": _Key((), float, "sparse", "spacing_ratio"),
    "antenna_sweep": _Key((), lambda text: tuple(map(int, _names(text))), "scenario", "antenna_sweep"),
}
_NAMES = {name.lstrip("-").lower(): key for key, spec in _KEYS.items() for name in (key, *spec.flags)}


def _with_values(scenario: Scenario, values: dict) -> Scenario:
    """``scenario`` with the parsed values of run keys in place."""
    parts = {owner: {} for owner in ("dims", "sparse", "scenario")}
    for key, value in values.items():
        parts[_KEYS[key].owner][_KEYS[key].field] = value
    if parts["sparse"]:
        parts["scenario"]["sparse"] = replace(scenario.sparse or SparseChannelConfig(), **parts["sparse"])
    return replace(scenario, dims=replace(scenario.dims, **parts["dims"]), **parts["scenario"])


def _configure(scenario: Scenario, texts: dict, where: str, name=lambda key: key) -> Scenario:
    """``scenario`` with the run keys' ``texts`` parsed and in place.

    A value rejected as it parses or where it lands raises ``ValueError`` as
    ``<where><name(key)>: reason``, naming the first key without which the
    other values are accepted on ``scenario`` and still have schemes or an
    antenna sweep to run (a run of neither keeps nothing, so no realization
    count is too large for it).  When no key passes there, and the values
    also fail together on ``scenario`` with one user and one tap, which
    conflict with no geometry, the key is the first without which the others
    pass on that base.  Otherwise it is the first key that ``scenario``
    rejects on its own, with its own reason.
    """

    def build(base: Scenario, keys) -> Scenario:
        return _with_values(base, {key: _KEYS[key].parse(texts[key].strip()) for key in keys})

    def blamed(base: Scenario):
        for key in texts:
            try:
                rest = build(base, [other for other in texts if other != key])
            except ValueError:
                continue
            if rest.schemes or rest.antenna_sweep:
                return key

    try:
        return build(scenario, texts)
    except ValueError as exc:
        key = blamed(scenario)
        if key is None:
            fallback = _with_values(scenario, {"users": 1, "taps": 1})
            try:
                build(fallback, texts)
            except ValueError:
                key = blamed(fallback)
            else:
                for alone in texts:
                    try:
                        build(scenario, [alone])
                    except ValueError as own:
                        key, exc = alone, own
                        break
        if key is None:
            raise ValueError(f"{where}{exc}") from None
        raise ValueError(f"{where}{name(key)}: {exc}") from None


def load_config(path) -> list[Scenario]:
    """Parse an INI-style config file into runnable scenarios, one per section.

    Geometry, SNR grid, realization count and seed that a section leaves out
    take the presets' standard values, which ``fig2`` uses unchanged; sparse
    keys it leaves out keep the defaults of ``SparseChannelConfig``.  A value
    that is rejected, as it parses or by the scenario it makes, fails as
    ``[section] key: reason`` before any run.
    """
    import configparser

    template = PRESETS["fig2"].scenario
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    scenarios = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh)
        for section in parser.sections():
            texts = {}
            for name, text in parser.items(section):
                key = _NAMES.get(name)
                if key is None:
                    raise ValueError(f"[{section}] unknown key {name!r}")
                if key in texts:
                    raise ValueError(f"[{section}] {key} given twice")
                texts[key] = text
            scenario = _configure(replace(template, name=section, schemes=()), texts, f"[{section}] ")
            if not scenario.schemes and not scenario.antenna_sweep:
                raise ValueError(f"[{section}] needs schemes or an antenna_sweep")
            scenarios.append(scenario)
    except configparser.Error as exc:
        # a malformed file is a configuration error like any rejected value
        raise ValueError(str(exc)) from None
    if not scenarios:
        raise ValueError(f"{path}: config file defines no scenarios")
    return scenarios


def _apply_overrides(scenario: Scenario, args) -> Scenario:
    texts = {key: getattr(args, key) for key, spec in _KEYS.items() if spec.flags}
    texts = {key: text for key, text in texts.items() if text is not None}
    return _configure(scenario, texts, "", lambda key: "/".join(_KEYS[key].flags))


def cmd_list(args) -> int:
    for name, preset in PRESETS.items():
        scenario = preset.scenario
        dims = scenario.dims
        summary = (
            f"M={dims.antennas} U={dims.users} L={dims.taps} K={dims.subcarriers}, "
            f"{scenario.realizations} realizations"
        )
        if scenario.channel_model != "rich":
            summary += f", {scenario.channel_model} channel"
        if scenario.antenna_sweep:
            summary += f", antenna sweep {'/'.join(str(m) for m in scenario.antenna_sweep)}"
        print(f"{name}: {preset.description} [{summary}]")
    return EXIT_OK


def cmd_run(args) -> int:
    if args.target in PRESETS:
        scenarios = [PRESETS[args.target].scenario]
    elif os.path.exists(args.target):
        scenarios = load_config(args.target)
    else:
        raise ValueError(f"unknown preset or missing config file: {args.target!r}")
    scenarios = [_apply_overrides(scenario, args) for scenario in scenarios]
    runs = scenarios
    if args.validate:
        # every section's validated run is built before any draw; the CSV keeps
        # the section's own rows
        try:
            runs = [validation_run(scenario) for scenario in scenarios]
        except ValueError as exc:
            raise ValueError(f"--validate: {exc}") from None
    os.makedirs(args.outdir, exist_ok=True)
    status = EXIT_OK
    for scenario, run in zip(scenarios, runs):
        dump_dir = None
        if args.dump_channels:
            dump_dir = os.path.join(args.outdir, f"{scenario.name}_channels")
            os.makedirs(dump_dir, exist_ok=True)
        result = run_scenario(run, dump_dir=dump_dir)
        rows = [row for row in result.rows if row.scheme in scenario.schemes]
        rows += [row for row in result.sweep if row.snr_db in scenario.antenna_sweep]
        failures = result.failures
        trailer = None
        if args.validate:
            report = validate_closed_forms(scenario, result.rows + result.sweep)
            trailer = report.render()
            print(trailer)
        csv_path = os.path.join(args.outdir, f"{scenario.name}.csv")
        write_csv(csv_path, rows, trailer)
        print(
            f"wrote {csv_path}: {len(rows)} rows, "
            f"{failures}/{scenario.realizations} failed realizations"
        )
        if failures > FAILURE_BUDGET * scenario.realizations:
            status = EXIT_NUMERICAL
    return status


_YLABELS = {
    "rate": "sum rate (bits per channel use)",
    "capacity": "capacity (bits per channel use)",
}


def cmd_plot(args) -> int:
    from .plotting import render_line_chart

    rows = read_csv(args.csv)
    metric_rows = [row for row in rows if row.metric == args.metric]
    if not metric_rows:
        available = ", ".join(sorted({row.metric for row in rows}))
        raise ValueError(f"metric {args.metric!r} not in {args.csv}; available: {available}")
    if args.schemes:
        wanted = _names(args.schemes)
        present = {row.scheme for row in metric_rows}
        missing = [s for s in wanted if s not in present]
        if missing:
            raise ValueError(
                f"schemes {missing} not in {args.csv}; available: {', '.join(sorted(present))}"
            )
        metric_rows = [row for row in metric_rows if row.scheme in wanted]
    grouped: dict[str, list[ResultRow]] = {}
    for row in metric_rows:
        grouped.setdefault(row.scheme, []).append(row)
    series = [
        (scheme, [r.snr_db for r in group], [r.value for r in group])
        for scheme, group in grouped.items()
    ]
    is_sweep = args.metric.startswith("rms")
    xlabel = args.xlabel or ("antennas" if is_sweep else "SNR (dB)")
    ylabel = args.ylabel or _YLABELS.get(args.metric, args.metric)
    svg = render_line_chart(series, xlabel=xlabel, ylabel=ylabel, title=args.title or "")
    out = args.out
    if out is None:
        stem, _ = os.path.splitext(args.csv)
        out = f"{stem}_{args.metric}.svg"
    with open(out, "w", encoding="ascii") as fh:
        fh.write(svg)
    print(f"wrote {out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hybeam",
        description="Hybrid combining benchmarks for wideband massive MIMO uplinks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser("list", help="list the preset scenarios")
    p_list.set_defaults(func=cmd_list)

    p_run = sub.add_parser("run", help="run a preset or a config file")
    p_run.add_argument("target", help="preset name or config file path")
    for key, spec in _KEYS.items():
        if spec.flags:
            p_run.add_argument(*spec.flags, dest=key, default=None, help=spec.help)
    p_run.add_argument("--outdir", default="results")
    p_run.add_argument(
        "--dump-channels", action="store_true", help="write per-realization channel dumps"
    )
    p_run.add_argument(
        "--validate", action="store_true", help="check results against the closed-form limits"
    )
    p_run.set_defaults(func=cmd_run)

    p_plot = sub.add_parser("plot", help="render a CSV metric as an SVG chart")
    p_plot.add_argument("csv", help="results file written by the run command")
    p_plot.add_argument("--metric", required=True)
    p_plot.add_argument("--schemes", default=None, help="comma list; default: all schemes")
    p_plot.add_argument("--out", default=None)
    p_plot.add_argument("--xlabel", default=None)
    p_plot.add_argument("--ylabel", default=None)
    p_plot.add_argument("--title", default=None)
    p_plot.set_defaults(func=cmd_plot)
    return parser


def main(argv=None) -> int:
    if argv is None:
        # run as the program: the objects made at import live until exit, so
        # no collection, the one at exit included, need traverse them again
        gc.freeze()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except np.linalg.LinAlgError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
