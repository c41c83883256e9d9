"""Text formats: flat key-value configs, state/spectrum literals, channel files.

All floats are written with 17 significant digits so that every file
round-trips bit-exactly through repr/parse.
"""

from __future__ import annotations

import hashlib
import json
import math
from typing import Any

import numpy as np

from .channels import ThermalChannel, WitSubchannels
from .errors import DimensionMismatch, DomainError
from .spectra import DiagonalState, EnergySpectrum

FLOAT_FMT = "%.17g"


def fmt(x: float) -> str:
    return FLOAT_FMT % float(x)


def parse_flat_config(text: str) -> dict[str, Any]:
    """Parse `key = value` lines; values are JSON fragments or bare strings."""
    out: dict[str, Any] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise DomainError(f"config line {lineno} is not `key = value`: {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        value = value.strip()
        if not key:
            raise DomainError(f"config line {lineno} has an empty key")
        try:
            out[key] = json.loads(value)
        except json.JSONDecodeError:
            out[key] = value
    return out


def load_flat_config(path: str) -> dict[str, Any]:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_flat_config(fh.read())


_SHAPES = ("a number", "a list of numbers", "a nested list of numbers")


def _numeric(cfg: dict[str, Any], key: str, ndim: int) -> np.ndarray:
    """cfg[key] as a finite float array with `ndim` axes; anything else names the key."""
    try:
        value = np.asarray(cfg[key], dtype=float)
    except (TypeError, ValueError):
        value = None
    if value is None or value.ndim != ndim or not np.all(np.isfinite(value)):
        raise DomainError(f"config key {key!r} must be {_SHAPES[ndim]}, got {cfg[key]!r}")
    return value


def state_from_config(
    cfg: dict[str, Any], default_beta: float | None = 1.0
) -> tuple[DiagonalState, float]:
    """Build a state from keys levels/probs or delta/num_levels (+ optional beta).

    A ladder given by delta/num_levels without probs defaults to the Gibbs
    state at the config's beta.  With `default_beta=None` the config must
    carry `beta` itself.
    """
    if "beta" in cfg:
        beta = float(_numeric(cfg, "beta", 0))
    elif default_beta is None:
        raise DomainError("state config needs a `beta` key when no default beta is given")
    else:
        beta = float(default_beta)
    if "levels" in cfg:
        spectrum = EnergySpectrum(tuple(_numeric(cfg, "levels", 1).tolist()))
    elif "delta" in cfg and "num_levels" in cfg:
        num_levels = int(_numeric(cfg, "num_levels", 0))
        spectrum = EnergySpectrum.oscillator(num_levels - 1, float(_numeric(cfg, "delta", 0)))
    else:
        raise DomainError("state config needs `levels` or `delta` + `num_levels`")
    if "probs" in cfg:
        probs = _numeric(cfg, "probs", 1)
    else:
        from .spectra import gibbs_state

        return gibbs_state(spectrum, beta), beta
    if len(probs) != len(spectrum):
        raise DimensionMismatch("probs length does not match the spectrum")
    return DiagonalState(probs=probs, spectrum=spectrum), beta


def load_state(path: str, default_beta: float | None = 1.0) -> tuple[DiagonalState, float]:
    return state_from_config(load_flat_config(path), default_beta)


def channel_to_text(channel: ThermalChannel) -> str:
    """Header `d_sys_in d_sys_out n_battery beta`, three spectra lines, matrix rows."""
    lines = [
        f"{channel.d_in} {channel.d_out} {channel.n_battery} {fmt(channel.beta)}",
        " ".join(fmt(x) for x in channel.sys_in.levels),
        " ".join(fmt(x) for x in channel.sys_out.levels),
        " ".join(fmt(x) for x in channel.battery.levels),
    ]
    lines += [" ".join(fmt(x) for x in row) for row in channel.matrix]
    return "\n".join(lines) + "\n"


def _numbers(line: str, what: str) -> list[float]:
    try:
        return [float(x) for x in line.split()]
    except ValueError as exc:
        raise DomainError(f"channel file {what} line is not a list of numbers: {line!r}") from exc


def channel_from_text(text: str) -> ThermalChannel:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if len(lines) < 5:
        raise DomainError(
            f"channel file has {len(lines)} non-empty lines; it needs a header, "
            "three spectrum lines and the matrix rows"
        )
    head = lines[0].split()
    header_error = DomainError("channel header must be `d_sys_in d_sys_out n_battery beta`")
    if len(head) != 4:
        raise header_error
    try:
        d_in, d_out, nb = int(head[0]), int(head[1]), int(head[2])
        beta = float(head[3])
    except ValueError as exc:
        raise header_error from exc
    if not math.isfinite(beta):
        raise DomainError(f"channel header beta must be finite, got {head[3]!r}")
    sys_in = EnergySpectrum(tuple(_numbers(lines[1], "sys_in")), "sys_in")
    sys_out = EnergySpectrum(tuple(_numbers(lines[2], "sys_out")), "sys_out")
    battery = EnergySpectrum(tuple(_numbers(lines[3], "battery")), "battery")
    if len(sys_in) != d_in or len(sys_out) != d_out or len(battery) != nb:
        raise DimensionMismatch("spectra lines disagree with the header dimensions")
    rows = [_numbers(ln, "matrix") for ln in lines[4:]]
    if any(len(row) != len(rows[0]) for row in rows):
        raise DimensionMismatch("matrix rows differ in length")
    matrix = np.array(rows)
    if not np.isfinite(matrix).all():
        raise DomainError("channel file matrix holds a non-finite entry")
    return ThermalChannel(matrix, sys_in, sys_out, battery, beta)


def write_channel(path: str, channel: ThermalChannel) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(channel_to_text(channel))


def load_channel(path: str) -> ThermalChannel:
    with open(path, "r", encoding="utf-8") as fh:
        return channel_from_text(fh.read())


def subchannels_from_config(cfg: dict[str, Any]) -> WitSubchannels:
    """Keys: delta, beta, sys_levels, R00, R01, R10, R11 (nested JSON lists)."""
    needed = {"delta", "beta", "sys_levels", "R00", "R01", "R10", "R11"}
    missing = needed - cfg.keys()
    if missing:
        raise DomainError(f"subchannel config missing keys: {sorted(missing)}")
    system = EnergySpectrum(tuple(_numeric(cfg, "sys_levels", 1).tolist()), "sys")
    return WitSubchannels(
        r00=_numeric(cfg, "R00", 2),
        r01=_numeric(cfg, "R01", 2),
        r10=_numeric(cfg, "R10", 2),
        r11=_numeric(cfg, "R11", 2),
        delta=float(_numeric(cfg, "delta", 0)),
        beta=float(_numeric(cfg, "beta", 0)),
        system=system,
    )


def load_subchannels(path: str) -> WitSubchannels:
    return subchannels_from_config(load_flat_config(path))


def csv_text(header: list[str], rows: list[list[Any]]) -> str:
    """Comma-separated text with 17-significant-digit floats, deterministic."""
    lines = [",".join(header)]
    for row in rows:
        cells = [fmt(c) if isinstance(c, float) else str(c) for c in row]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
