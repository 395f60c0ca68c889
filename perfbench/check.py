"""Independent checks of the CSV that `hybeam run` writes for one preset.

The checker takes only the channel draws from the program
(`hybeam.draw_realization`) and recomputes from them, with its own code:

- raw capacity, from `numpy.fft.fft` over the taps and `eigvalsh` of each
  Gram matrix, and the capacity of every RF-only effective channel the same
  way;
- the colored-noise rate of `rf_ltap+zf` and `rf_1tap+zf`, rebuilding the
  phase-only combiner from the channel phases and taking
  mean_k log2 det(I + snr G_k^H C_k^-1 G_k) with C_k = W_k W_k^H;
- the large-array RF sum-rate and capacity limits, from the paper's
  formulas, without importing `hybeam.closed_forms`.

On top of those it checks the properties every run must have: the rows are
exactly the expected ones, every series is nondecreasing in SNR, every
colored-noise rate is at most the raw capacity, fully digital ZF equals
capacity, and the validation trailer passes all of its checks.
"""

from __future__ import annotations

import csv
import io
import re
from dataclasses import replace

import numpy as np

# Recomputed values must match to this relative error.
REL_TOL = 1e-9
# Acceptance tolerance of the closed-form limits on the simulated rates.
LIMIT_TOL = 0.05
# The validation trailer prints values with six significant digits.
TRAILER_TOL = 1e-5
# Mean squared magnitude of a unit complex Gaussian, |E|h||^2 = pi/4.
COHERENT_GAIN = np.pi / 4.0

CSV_HEADER = ["scenario", "scheme", "snr_db", "metric", "value", "stderr", "realizations", "seed"]


def parse_csv(text: str) -> tuple[dict, list[str]]:
    """Rows keyed by (scheme, metric, snr_db), plus the comment trailer lines."""
    data = [line for line in text.splitlines() if line and not line.startswith("#")]
    trailer = [line[2:] for line in text.splitlines() if line.startswith("# ")]
    reader = csv.reader(io.StringIO("\n".join(data)))
    header = next(reader)
    if header != CSV_HEADER:
        raise ValueError(f"unexpected CSV header {header}")
    rows = {}
    for scenario, scheme, snr, metric, value, stderr, count, seed in reader:
        key = (scheme, metric, float(snr))
        if key in rows:
            raise ValueError(f"duplicate row {key}")
        rows[key] = {
            "scenario": scenario,
            "value": float(value),
            "stderr": float(stderr),
            "realizations": int(count),
            "seed": int(seed),
        }
    return rows, trailer


def expected_keys(schemes, snr_grid) -> set:
    keys = set()
    for scheme in schemes:
        if scheme == "capacity":
            metrics = ("capacity",)
        elif scheme == "zf" or scheme.endswith("+zf"):
            metrics = ("rate",)
        else:
            metrics = ("rate", "capacity")
        keys.update((scheme, metric, float(snr)) for metric in metrics for snr in snr_grid)
    return keys


def combiner_taps(base: str, taps: np.ndarray) -> np.ndarray:
    """Combiner taps A_l (L', U, M); A_l acts at delay -l on channel tap l."""
    m = taps.shape[1]
    if base == "mf":
        return np.conj(taps).transpose(0, 2, 1) / np.sqrt(m)
    if base == "rf_ltap":
        return np.exp(-1j * np.angle(taps)).transpose(0, 2, 1) / np.sqrt(m)
    if base == "rf_1tap":
        return np.exp(-1j * np.angle(taps[:1])).transpose(0, 2, 1) / np.sqrt(m)
    raise ValueError(f"no independent combiner for {base!r}")


def log2_det_grid(eigenvalues: np.ndarray, snrs: np.ndarray) -> np.ndarray:
    """mean_k sum_u log2(1 + snr * lambda_ku) for every linear SNR."""
    lam = np.clip(eigenvalues, 0.0, None)
    return np.array([np.mean(np.sum(np.log2(1.0 + snr * lam), axis=-1)) for snr in snrs])


def realization_values(channel, schemes, snrs: np.ndarray, k: int) -> dict:
    """Per-realization value of every recomputable (scheme, metric) over the SNR grid."""
    taps = channel.taps.taps
    h = np.fft.fft(taps, n=k, axis=0)
    out = {}
    if "capacity" in schemes:
        raw_gram = np.conj(h.transpose(0, 2, 1)) @ h
        out[("capacity", "capacity")] = log2_det_grid(np.linalg.eigvalsh(raw_gram), snrs)
    for scheme in schemes:
        base = scheme[: -len("+zf")] if scheme.endswith("+zf") else scheme
        if base not in ("mf", "rf_ltap", "rf_1tap"):
            continue
        # W(k) = sum_l A_l exp(+2 pi i l k / K), the spectrum of taps at delays -l.
        w = k * np.fft.ifft(combiner_taps(base, taps), n=k, axis=0)
        g = w @ h
        if scheme.endswith("+zf"):
            cov = w @ np.conj(w.transpose(0, 2, 1))
            quad = np.conj(g.transpose(0, 2, 1)) @ np.linalg.solve(cov, g)
            quad = 0.5 * (quad + np.conj(quad.transpose(0, 2, 1)))
            out[(scheme, "rate")] = log2_det_grid(np.linalg.eigvalsh(quad), snrs)
        else:
            gram = np.conj(g.transpose(0, 2, 1)) @ g
            out[(scheme, "capacity")] = log2_det_grid(np.linalg.eigvalsh(gram), snrs)
    return out


def recompute(scenario, snrs) -> dict:
    """Mean and standard error over realizations, keyed like the CSV rows."""
    from hybeam import draw_realization

    snrs = np.asarray(snrs, dtype=float)
    linear = 10.0 ** (snrs / 10.0)
    samples: dict = {}
    for index in range(scenario.realizations):
        channel = draw_realization(scenario, index)
        values = realization_values(channel, scenario.schemes, linear, scenario.dims.subcarriers)
        for key, series in values.items():
            samples.setdefault(key, []).append(series)
    out = {}
    for (scheme, metric), series in samples.items():
        data = np.asarray(series)
        mean = data.mean(axis=0)
        stderr = data.std(axis=0, ddof=1) / np.sqrt(data.shape[0])
        for snr, value, err in zip(snrs, mean, stderr):
            out[(scheme, metric, float(snr))] = (float(value), float(err))
    return out


def rf_limits(pdp: np.ndarray, antennas: int, snr_db: float) -> dict:
    """Large-array sum-rate and capacity limits of the two phase-aligned combiners.

    ``pdp`` is (L, U).  Per user u, with P the transmit power and unit noise:
    L-tap SINR = (pi/4) P M (sum_l sqrt p_lu)^2 / (L + P (U L - 1)),
    1-tap SINR = (pi/4) P M p_0u / (1 + P sum_{l>=1} p_lu + P (U - 1)),
    and the capacity limit is sum_u log2(1 + P (pi/4) M c_u) with c_u the
    coherently collected power, (sum_l sqrt p_lu)^2 or p_0u.
    """
    taps, users = pdp.shape
    power = 10.0 ** (snr_db / 10.0)
    coherent = np.sqrt(pdp).sum(axis=0) ** 2
    sinr_ltap = COHERENT_GAIN * power * antennas * coherent / (taps + power * (users * taps - 1))
    sinr_1tap = (
        COHERENT_GAIN * power * antennas * pdp[0]
        / (1.0 + power * pdp[1:].sum(axis=0) + power * (users - 1))
    )
    gain = power * COHERENT_GAIN * antennas
    return {
        ("rf_ltap", "rate"): float(np.sum(np.log2(1.0 + sinr_ltap))),
        ("rf_1tap", "rate"): float(np.sum(np.log2(1.0 + sinr_1tap))),
        ("rf_ltap", "capacity"): float(np.sum(np.log2(1.0 + gain * coherent))),
        ("rf_1tap", "capacity"): float(np.sum(np.log2(1.0 + gain * pdp[0]))),
    }


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


class Checker:
    """Recomputes one preset run once; `check` then judges any CSV text of it."""

    def __init__(self, scenario, validate: bool):
        self.scenario = scenario
        self.validate = validate
        self.snrs = tuple(float(s) for s in scenario.snr_db)
        self.reference = recompute(scenario, self.snrs)
        self.limits = {}
        if validate:
            from hybeam import draw_realization

            pdp = draw_realization(scenario, 0).pdp.gains
            for snr in self.snrs:
                for (scheme, metric), value in rf_limits(pdp, scenario.dims.antennas, snr).items():
                    self.limits[(scheme, metric, snr)] = value

    def check(self, text: str) -> list[str]:
        """Every failed check, as one line each; empty when the CSV is right."""
        try:
            rows, trailer = parse_csv(text)
        except (ValueError, StopIteration) as exc:
            return [f"unreadable CSV: {exc}"]
        sc = self.scenario
        problems = []
        expected = expected_keys(sc.schemes, self.snrs)
        if set(rows) != expected:
            problems.append(
                f"rows differ from the preset: missing {sorted(expected - set(rows))}, "
                f"extra {sorted(set(rows) - expected)}"
            )
        for key, row in rows.items():
            if (row["scenario"], row["realizations"], row["seed"]) != (
                sc.name, sc.realizations, sc.master_seed
            ):
                problems.append(f"{key}: bookkeeping columns {row}")
        for key, (value, err) in self.reference.items():
            if key not in rows:
                continue
            if _rel(rows[key]["value"], value) > REL_TOL:
                problems.append(f"{key}: value {rows[key]['value']!r} != recomputed {value!r}")
            if _rel(rows[key]["stderr"], err) > REL_TOL:
                problems.append(f"{key}: stderr {rows[key]['stderr']!r} != recomputed {err!r}")
        problems += self._properties(rows)
        if self.validate:
            problems += self._limits(rows, trailer)
        return problems

    def _properties(self, rows: dict) -> list[str]:
        problems = []
        series: dict = {}
        for (scheme, metric, snr), row in rows.items():
            series.setdefault((scheme, metric), []).append((snr, row["value"]))
        for key, points in series.items():
            values = [v for _, v in sorted(points)]
            if any(b < a for a, b in zip(values, values[1:])):
                problems.append(f"{key}: not nondecreasing in SNR: {values}")
        for (scheme, metric, snr), row in rows.items():
            cap = rows.get(("capacity", "capacity", snr))
            colored = metric == "rate" and (scheme == "zf" or scheme.endswith("+zf"))
            if colored and cap is not None and row["value"] > cap["value"] * (1.0 + REL_TOL):
                problems.append(
                    f"{(scheme, metric, snr)}: rate {row['value']!r} above capacity {cap['value']!r}"
                )
            if scheme == "zf" and cap is not None and _rel(row["value"], cap["value"]) > REL_TOL:
                problems.append(f"zf rate {row['value']!r} != capacity {cap['value']!r} at {snr} dB")
        return problems

    def _limits(self, rows: dict, trailer: list[str]) -> list[str]:
        problems = []
        for key, limit in self.limits.items():
            if key in rows and _rel(rows[key]["value"], limit) > LIMIT_TOL:
                problems.append(f"{key}: {rows[key]['value']!r} not within 5% of limit {limit!r}")
        pattern = re.compile(
            r"^(PASS|FAIL) (rf_ltap|rf_1tap)_(rate|capacity)@(-?[\d.]+)dB: "
            r"value=(\S+) .* target=(\S+) "
        )
        seen = 0
        for line in trailer:
            match = pattern.match(line)
            if not match:
                continue
            seen += 1
            _, scheme, metric, snr, value, target = match.groups()
            key = (scheme, metric, float(snr))
            limit = self.limits.get(key)
            if limit is None or _rel(float(target), limit) > TRAILER_TOL:
                problems.append(f"trailer target {target} for {key} != limit {limit!r}")
            if key in rows and _rel(float(value), rows[key]["value"]) > TRAILER_TOL:
                problems.append(f"trailer value {value} for {key} != CSV {rows[key]['value']!r}")
        if seen != len(self.limits):
            problems.append(f"trailer holds {seen} rate/capacity checks, expected {len(self.limits)}")
        if not trailer or trailer[-1] != "PASS: 43/43 checks passed":
            problems.append(f"validation trailer ends {trailer[-1:]!r}, expected PASS: 43/43")
        return problems


def perturb(text: str, key: tuple, rel: float = 1e-6) -> str:
    """The CSV text with the value of row ``key`` scaled by ``1 + rel``."""
    rows, _ = parse_csv(text)
    old = rows[key]["value"]
    scheme, metric, snr = key
    out = []
    for line in text.splitlines(keepends=True):
        fields = line.split(",")
        if (
            len(fields) == len(CSV_HEADER)
            and fields[1] == scheme
            and fields[3] == metric
            and fields[2] != "snr_db"
            and float(fields[2]) == snr
        ):
            fields[4] = f"{old * (1.0 + rel):.17g}"
            line = ",".join(fields)
        out.append(line)
    return "".join(out)


def scenario_for(preset: str, seed: int):
    from hybeam.experiments import PRESETS

    return replace(PRESETS[preset].scenario, master_seed=int(seed))
