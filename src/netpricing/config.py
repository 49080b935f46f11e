"""Flat key/value scenario configs and model construction.

Grammar: one ``key = value`` per line, ``#`` starts a comment, blank lines
are ignored, and dotted keys group related settings.  Sweep ranges use
``start:stop:count`` with inclusive endpoints.  Unknown keys are rejected so
typos fail loudly.

``_KEYS`` maps each key to its ``ScenarioConfig`` field and parser; README.md
lists the keys with their defaults, those of ``curves.baseline_model``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from pathlib import Path

from .curves import (PARAMETERS, CapacitySharing, CpPowerDemand,
                     ExponentialGain, MarketModel, MM1Queue, ReciprocalGain,
                     UserPowerDemand)
from .errors import ConfigError

GAIN_CURVES = {"reciprocal": ReciprocalGain, "exponential": ExponentialGain}
CONGESTION_CURVES = {"sharing": CapacitySharing, "mm1": MM1Queue}
_PARAM_ALIASES = {**{name: name for name in PARAMETERS},
                  "mu": "capacity", "s": "sensitivity"}


@dataclass(frozen=True)
class ScenarioConfig:
    gain: str = "reciprocal"
    congestion: str = "sharing"
    alpha: float = 1.0
    beta: float = 1.0
    cost: float = 0.7
    capacity: float = 1.0
    sensitivity: float = 1.0
    price_user: float | None = None
    price_cp: float | None = None
    sweep_parameter: str | None = None
    sweep_range: tuple[float, float, int] | None = None
    output_path: str | None = None
    output_columns: str = "all"
    verify: bool = False
    source: str = field(default="<defaults>", compare=False)


def _parse_float(key: str, raw: str) -> float:
    try:
        return float(raw)
    except ValueError:
        raise ConfigError(f"key {key!r}: expected a number, got {raw!r}") from None


def _parse_bool(key: str, raw: str) -> bool:
    lowered = raw.strip().lower()
    if lowered in ("true", "yes", "1", "on"):
        return True
    if lowered in ("false", "no", "0", "off"):
        return False
    raise ConfigError(f"key {key!r}: expected true/false, got {raw!r}")


def _parse_range(key: str, raw: str) -> tuple[float, float, int]:
    parts = raw.split(":")
    if len(parts) != 3:
        raise ConfigError(f"key {key!r}: ranges use start:stop:count, got {raw!r}")
    start = _parse_float(key, parts[0])
    stop = _parse_float(key, parts[1])
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise ConfigError(f"key {key!r}: range bounds must be finite, got {raw!r}")
    try:
        count = int(parts[2])
    except ValueError:
        raise ConfigError(f"key {key!r}: count must be an integer, got {parts[2]!r}") from None
    if count < 1:
        raise ConfigError(f"key {key!r}: count must be >= 1, got {count}")
    if count == 1 and start != stop:
        raise ConfigError(f"key {key!r}: a single-point range needs start == stop")
    return start, stop, count


def _parse_choice(choices):
    def parse(key: str, raw: str) -> str:
        if raw not in choices:
            raise ConfigError(f"{key} must be one of {tuple(choices)}, got {raw!r}")
        return raw
    return parse


_parse_gain = _parse_choice(GAIN_CURVES)
_parse_congestion = _parse_choice(CONGESTION_CURVES)


def _parse_parameter(key: str, raw: str) -> str:
    canonical = _PARAM_ALIASES.get(raw.lower())
    if canonical is None:
        raise ConfigError(
            f"sweep.parameter must be one of alpha, beta, capacity (mu), "
            f"sensitivity (s); got {raw!r}")
    return canonical


# config key -> (ScenarioConfig field, parser of the stripped value)
_KEYS = {
    "gain": ("gain", _parse_gain),
    "congestion": ("congestion", _parse_congestion),
    "user_demand.alpha": ("alpha", _parse_float),
    "cp_demand.beta": ("beta", _parse_float),
    "cost": ("cost", _parse_float),
    "capacity": ("capacity", _parse_float),
    "sensitivity": ("sensitivity", _parse_float),
    "price.user": ("price_user", _parse_float),
    "price.cp": ("price_cp", _parse_float),
    "sweep.parameter": ("sweep_parameter", _parse_parameter),
    "sweep.range": ("sweep_range", _parse_range),
    "output.path": ("output_path", lambda key, raw: raw),
    "output.columns": ("output_columns", _parse_choice(("all", "prices"))),
    "verify": ("verify", _parse_bool),
}


def _apply(cfg: ScenarioConfig, key: str, raw: str) -> ScenarioConfig:
    if key not in _KEYS:
        raise ConfigError(f"unknown config key {key!r}")
    name, parse = _KEYS[key]
    return replace(cfg, **{name: parse(key, raw.strip())})


def parse_config(text: str, source: str = "<string>") -> ScenarioConfig:
    cfg = ScenarioConfig(source=source)
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value', got {line!r}")
        key, raw = stripped.split("=", 1)
        try:
            cfg = _apply(cfg, key.strip(), raw)
        except ConfigError as exc:
            raise ConfigError(f"{source}:{lineno}: {exc}") from None
    return cfg


def load_config(path: str | Path) -> ScenarioConfig:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    return parse_config(text, source=str(path))


def apply_overrides(cfg: ScenarioConfig, overrides: list[str]) -> ScenarioConfig:
    """Apply ``key=value`` strings (CLI --set) on top of a parsed config."""
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, raw = item.split("=", 1)
        cfg = _apply(cfg, key.strip(), raw)
    return cfg


def build_model(cfg: ScenarioConfig) -> MarketModel:
    gain = GAIN_CURVES[_parse_gain("gain", cfg.gain)]()
    congestion = CONGESTION_CURVES[_parse_congestion("congestion", cfg.congestion)]()
    try:
        return MarketModel(
            gain=gain,
            congestion=congestion,
            user_demand=UserPowerDemand(alpha=cfg.alpha),
            cp_demand=CpPowerDemand(beta=cfg.beta),
            cost=cfg.cost,
            capacity=cfg.capacity,
            sensitivity=cfg.sensitivity,
        )
    except ValueError as exc:
        raise ConfigError(f"invalid model parameters: {exc}") from None
