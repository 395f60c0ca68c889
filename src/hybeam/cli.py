"""Command-line front end: preset listing, scenario runs, chart rendering.

Exit codes: 0 on success, 2 for configuration problems (unknown presets,
malformed config files or overrides), 3 when too many realizations fail
numerically.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import gc
import os
import sys
from dataclasses import replace
from decimal import Decimal, InvalidOperation

import numpy as np

from .channel import SparseChannelConfig
from .experiments import (
    PRESETS,
    VALIDATED_SCHEMES,
    VALIDATED_SWEEP,
    Preset,
    ResultRow,
    run_scenario,
    validate_closed_forms,
)
from .plotting import render_line_chart

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

# Tolerated fraction of numerically failed realizations before exit code 3.
FAILURE_BUDGET = 0.01

CSV_FIELDS = ("scenario", "scheme", "snr_db", "metric", "value", "stderr", "realizations", "seed")


def write_csv(path, rows, trailer: str | None = None) -> None:
    """Write result rows with full-precision floats; optional comment trailer."""
    with open(path, "w", newline="", encoding="ascii") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_FIELDS)
        for row in rows:
            writer.writerow(
                [
                    row.scenario,
                    row.scheme,
                    f"{row.snr_db:.17g}",
                    row.metric,
                    f"{row.value:.17g}",
                    f"{row.stderr:.17g}",
                    row.realizations,
                    row.seed,
                ]
            )
        if trailer:
            for line in trailer.splitlines():
                fh.write(f"# {line}\n")


def read_csv(path) -> list[ResultRow]:
    """Read rows written by ``write_csv``; comment lines are skipped."""
    with open(path, newline="", encoding="ascii") as fh:
        lines = [line for line in fh if line.strip() and not line.lstrip().startswith("#")]
    if not lines:
        raise ValueError(f"{path}: no data rows")
    reader = csv.reader(lines)
    header = tuple(next(reader))
    if header != CSV_FIELDS:
        raise ValueError(f"{path}: unexpected header {header}")
    rows = []
    for record in reader:
        if len(record) != len(CSV_FIELDS):
            raise ValueError(f"{path}: malformed row {record}")
        rows.append(
            ResultRow(
                scenario=record[0],
                scheme=record[1],
                snr_db=float(record[2]),
                metric=record[3],
                value=float(record[4]),
                stderr=float(record[5]),
                realizations=int(record[6]),
                seed=int(record[7]),
            )
        )
    return rows


def parse_snr_spec(text: str) -> tuple[float, ...]:
    """SNR grid grammar: ``start:stop:step`` (inclusive) or a comma list."""
    text = text.strip()
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError(f"SNR range must be start:stop:step, got {text!r}")
        try:
            start, stop, step = (Decimal(p.strip()) for p in parts)
        except InvalidOperation:
            raise ValueError(f"bad SNR range {text!r}") from None
        if not all(d.is_finite() for d in (start, stop, step)) or step <= 0 or stop < start:
            raise ValueError(f"bad SNR range {text!r}")
        # exact decimal arithmetic: 0:1:0.1 ends at 0.7, not 0.7000000000000001
        count = int((stop - start) // step) + 1
        return tuple(float(start + i * step) for i in range(count))
    values = tuple(float(token) for token in text.split(",") if token.strip())
    if not values:
        raise ValueError("empty SNR list")
    return values


_DIM_KEYS = ("antennas", "users", "taps", "subcarriers")
_KEY_ALIASES = {"m": "antennas", "u": "users", "l": "taps", "k": "subcarriers"}
_SPARSE_KEYS = {"paths_per_cluster": int, "angular_spread_deg": float, "spacing_ratio": float}
# key -> Scenario field
_SCENARIO_KEYS = {"snr": "snr_db", "realizations": "realizations", "seed": "master_seed"}
# key -> parser of its value; an integer key rejects "16.5" instead of truncating it
_CONFIG_KEYS = {
    **dict.fromkeys(_DIM_KEYS, int),
    **_SPARSE_KEYS,
    "snr": parse_snr_spec,
    "realizations": int,
    "seed": int,
    "model": str,
    "schemes": lambda text: tuple(tok.strip() for tok in text.split(",") if tok.strip()),
    "antenna_sweep": lambda text: tuple(int(tok) for tok in text.split(",") if tok.strip()),
}


def load_config(path) -> list[Preset]:
    """Parse an INI-style config file into runnable presets, one per section.

    Geometry, SNR grid, realization count and seed that a section leaves out
    take the presets' standard values, which ``fig2`` uses unchanged; sparse
    keys it leaves out keep the defaults of ``SparseChannelConfig``.  A value
    that does not parse fails as ``[section] key: reason``.
    """
    template = PRESETS["fig2"].scenario
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    with open(path, "r", encoding="utf-8") as fh:
        parser.read_file(fh)
    presets = []
    for section in parser.sections():
        raw = {}
        for name, value in parser.items(section):
            key = _KEY_ALIASES.get(name.lower(), name.lower())
            if key not in _CONFIG_KEYS:
                raise ValueError(f"[{section}] unknown key {key!r}")
            try:
                raw[key] = _CONFIG_KEYS[key](value.strip())
            except ValueError as exc:
                raise ValueError(f"[{section}] {name}: {exc}") from None
        dims = {key: raw[key] for key in _DIM_KEYS if key in raw}
        model = raw.get("model", template.channel_model)
        updates = {field: raw[key] for key, field in _SCENARIO_KEYS.items() if key in raw}
        if model == "sparse":
            sparse = {key: raw[key] for key in _SPARSE_KEYS if key in raw}
            updates["sparse"] = replace(SparseChannelConfig(), **sparse)
        elif any(key in raw for key in _SPARSE_KEYS):
            raise ValueError(f"[{section}] sparse keys given but model is {model!r}")
        schemes, sweep = raw.get("schemes", ()), raw.get("antenna_sweep", ())
        if not schemes and not sweep:
            raise ValueError(f"[{section}] needs schemes or an antenna_sweep")
        scenario = replace(
            template,
            name=section,
            dims=replace(template.dims, **dims),
            schemes=schemes,
            channel_model=model,
            **updates,
        )
        presets.append(Preset(scenario=scenario, antenna_sweep=sweep))
    if not presets:
        raise ValueError(f"{path}: config file defines no scenarios")
    return presets


def _apply_overrides(preset: Preset, args) -> Preset:
    given = {key: value for key, value in vars(args).items() if value is not None}
    scenario = preset.scenario
    dims = replace(scenario.dims, **{key: given[key] for key in _DIM_KEYS if key in given})
    # the scenario keys' options share their names and parsers with the config keys
    updates = {
        field: _CONFIG_KEYS[key](given[key]) for key, field in _SCENARIO_KEYS.items() if key in given
    }
    return replace(preset, scenario=replace(scenario, dims=dims, **updates))


def cmd_list(args) -> int:
    for name, preset in PRESETS.items():
        dims = preset.scenario.dims
        summary = (
            f"M={dims.antennas} U={dims.users} L={dims.taps} K={dims.subcarriers}, "
            f"{preset.scenario.realizations} realizations"
        )
        if preset.scenario.channel_model != "rich":
            summary += f", {preset.scenario.channel_model} channel"
        if preset.antenna_sweep:
            summary += f", antenna sweep {'/'.join(str(m) for m in preset.antenna_sweep)}"
        print(f"{name}: {preset.description} [{summary}]")
    return EXIT_OK


def _joined(own: tuple, needed: tuple) -> tuple:
    return own + tuple(item for item in needed if item not in own)


def cmd_run(args) -> int:
    if args.target in PRESETS:
        presets = [PRESETS[args.target]]
    elif os.path.exists(args.target):
        presets = load_config(args.target)
    else:
        raise ValueError(f"unknown preset or missing config file: {args.target!r}")
    presets = [_apply_overrides(preset, args) for preset in presets]
    runs = presets
    if args.validate:
        sparse = [p.scenario.name for p in presets if p.scenario.channel_model != "rich"]
        if sparse:
            raise ValueError(
                f"closed-form validation assumes the rich channel model: {', '.join(sparse)}"
            )
        # validation reads these schemes' and sizes' rows; the CSV keeps the section's own
        runs = [
            replace(
                p,
                scenario=replace(
                    p.scenario, schemes=_joined(p.scenario.schemes, VALIDATED_SCHEMES)
                ),
                antenna_sweep=_joined(p.antenna_sweep, VALIDATED_SWEEP),
            )
            for p in presets
        ]
    os.makedirs(args.outdir, exist_ok=True)
    status = EXIT_OK
    for preset, run in zip(presets, runs):
        scenario = preset.scenario
        dump_dir = None
        if args.dump_channels:
            dump_dir = os.path.join(args.outdir, f"{scenario.name}_channels")
            os.makedirs(dump_dir, exist_ok=True)
        result = run_scenario(run.scenario, dump_dir=dump_dir, antenna_sweep=run.antenna_sweep)
        rows = [row for row in result.rows if row.scheme in scenario.schemes]
        rows += [row for row in result.sweep if row.snr_db in preset.antenna_sweep]
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
    rows = read_csv(args.csv)
    metric_rows = [row for row in rows if row.metric == args.metric]
    if not metric_rows:
        available = ", ".join(sorted({row.metric for row in rows}))
        raise ValueError(f"metric {args.metric!r} not in {args.csv}; available: {available}")
    if args.schemes:
        wanted = tuple(tok.strip() for tok in args.schemes.split(",") if tok.strip())
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
    p_run.add_argument("--M", "--antennas", dest="antennas", type=int, default=None)
    p_run.add_argument("--U", "--users", dest="users", type=int, default=None)
    p_run.add_argument("--L", "--taps", dest="taps", type=int, default=None)
    p_run.add_argument("--K", "--subcarriers", dest="subcarriers", type=int, default=None)
    p_run.add_argument("--realizations", type=int, default=None)
    p_run.add_argument("--snr", default=None, help="start:stop:step or comma list, in dB")
    p_run.add_argument("--seed", type=int, default=None)
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
    except (ValueError, OSError, configparser.Error) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
