"""Experiment and sweep configuration: flat key=value text with section headers.

Example::

    [equation]
    s = 3
    q = 1

    [modular]
    spec = power:p=1

    [phi]
    expr = mono(1,3) + sine(0.1,1)

    [alpha]
    spec = const:eps=0.1

    [run]
    method = t2
    grid = -10,10,41
    tol = 1e-9
    n_max = 60
    seed = 42
    out = report.json
    format = json

A sweep config adds a ``[sweep]`` section with value lists over the axes
``s``, ``q``, ``p``, ``theta`` and ``modular``, plus ``outdir``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .direct import MAX_N
from .equation import ControlFunction, EquationParams, parse_control
from .errors import ArgumentError, ConfigError
from .functions import FunctionHandle, parse_expression
from .modular import ModularSpec, parse_modular
from .sampling import Grid

__all__ = ["ExperimentConfig", "SweepConfig", "parse_experiment", "parse_sweep"]

METHODS = ("t1", "t2", "fixedpoint", "all")
SWEEP_AXES = ("s", "q", "p", "theta", "modular")
DEFAULT_SWEEP_CAP = 10_000

_EXPERIMENT_KEYS = {
    "equation": {"s", "q"},
    "modular": {"spec"},
    "phi": {"expr"},
    "alpha": {"spec"},
    "run": {"method", "grid", "tol", "n_max", "seed", "out", "format"},
}


def _parse_sections(text: str) -> dict[str, dict[str, str]]:
    sections: dict[str, dict[str, str]] = {}
    current: str | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#") or line.startswith(";"):
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip()
            if not current:
                raise ConfigError(f"line {lineno}: empty section header")
            if current in sections:
                raise ConfigError(f"line {lineno}: duplicate section [{current}]")
            sections[current] = {}
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        if current is None:
            raise ConfigError(f"line {lineno}: key outside any [section]")
        key, _, value = line.partition("=")
        key = key.strip()
        if key in sections[current]:
            raise ConfigError(f"line {lineno}: duplicate key {key!r} in [{current}]")
        sections[current][key] = value.strip()
    return sections


def _float(sections, sec: str, key: str, default: float | None = None) -> float:
    raw = sections.get(sec, {}).get(key)
    if raw is None:
        if default is None:
            raise ConfigError(f"missing required key {key!r} in [{sec}]")
        return default
    try:
        return float(raw)
    except ValueError as exc:
        raise ConfigError(f"[{sec}] {key}: not a number: {raw!r}") from exc


def _int(sections, sec: str, key: str, default: int | None = None) -> int:
    raw = sections.get(sec, {}).get(key)
    if raw is None:
        if default is None:
            raise ConfigError(f"missing required key {key!r} in [{sec}]")
        return default
    try:
        return int(raw)
    except ValueError as exc:
        raise ConfigError(f"[{sec}] {key}: not an integer: {raw!r}") from exc


@dataclass(frozen=True)
class ExperimentConfig:
    """One fully-parsed experiment; raw strings kept for report echoes."""

    params: EquationParams
    modular_spec: str
    modular: ModularSpec
    phi_expr: str
    phi: FunctionHandle
    alpha_spec: str
    alpha: ControlFunction
    method: str
    grid: Grid
    tol: float = 1e-9
    n_max: int = 60
    seed: int = 0
    out: str | None = None
    fmt: str = "json"

    def echo(self) -> dict:
        return {
            "s": self.params.s,
            "q": self.params.q,
            "modular": self.modular_spec,
            "phi": self.phi_expr,
            "alpha": self.alpha_spec,
            "method": self.method,
            "grid": {"lo": self.grid.lo, "hi": self.grid.hi, "count": self.grid.count},
            "tol": self.tol,
            "n_max": self.n_max,
            "seed": self.seed,
        }


@dataclass(frozen=True)
class SweepConfig:
    base: ExperimentConfig
    axes: dict[str, list[str]] = field(default_factory=dict)
    outdir: str = "sweep"
    cap: int = DEFAULT_SWEEP_CAP


def _build_experiment(sections: dict[str, dict[str, str]]) -> ExperimentConfig:
    for sec, keys in _EXPERIMENT_KEYS.items():
        if sec not in sections:
            raise ConfigError(f"missing required section [{sec}]")
        unknown = set(sections[sec]) - keys
        if unknown:
            raise ConfigError(f"unknown key(s) {sorted(unknown)} in [{sec}]")

    try:
        params = EquationParams(s=_int(sections, "equation", "s"),
                                q=_float(sections, "equation", "q"))
    except ArgumentError as exc:
        raise ConfigError(str(exc)) from exc

    modular_spec = sections["modular"]["spec"]
    modular = parse_modular(modular_spec)
    phi_expr = sections["phi"]["expr"]
    phi = parse_expression(phi_expr)
    alpha_spec = sections["alpha"]["spec"]
    alpha = parse_control(alpha_spec)

    run = sections["run"]
    method = run.get("method", "").strip()
    if method not in METHODS:
        raise ConfigError(f"[run] method must be one of {METHODS}, got {method!r}")
    grid_raw = run.get("grid")
    if grid_raw is None:
        raise ConfigError("missing required key 'grid' in [run]")
    parts = [p.strip() for p in grid_raw.split(",")]
    if len(parts) != 3:
        raise ConfigError(f"[run] grid must be 'lo,hi,count', got {grid_raw!r}")
    try:
        grid = Grid(lo=float(parts[0]), hi=float(parts[1]), count=int(parts[2]))
    except (ValueError, ArgumentError) as exc:
        raise ConfigError(f"[run] grid: {exc}") from exc

    tol = _float(sections, "run", "tol", default=1e-9)
    if not 0 < tol < math.inf:
        raise ConfigError(f"[run] tol must be positive and finite, got {tol}")
    n_max = _int(sections, "run", "n_max", default=60)
    if not 1 <= n_max <= MAX_N:
        raise ConfigError(f"[run] n_max must be in 1..{MAX_N}, got {n_max}")
    seed = _int(sections, "run", "seed", default=0)
    fmt = run.get("format", "json").strip()
    if fmt not in ("json", "csv"):
        raise ConfigError(f"[run] format must be json or csv, got {fmt!r}")

    return ExperimentConfig(
        params=params,
        modular_spec=modular_spec,
        modular=modular,
        phi_expr=phi_expr,
        phi=phi,
        alpha_spec=alpha_spec,
        alpha=alpha,
        method=method,
        grid=grid,
        tol=tol,
        n_max=n_max,
        seed=seed,
        out=run.get("out"),
        fmt=fmt,
    )


def parse_experiment(text: str) -> ExperimentConfig:
    """Parse an experiment config document."""
    sections = _parse_sections(text)
    if "sweep" in sections:
        raise ConfigError("config has a [sweep] section; use the sweep command")
    unknown = set(sections) - set(_EXPERIMENT_KEYS)
    if unknown:
        raise ConfigError(f"unknown section(s): {sorted(unknown)}")
    return _build_experiment(sections)


def parse_sweep(text: str) -> SweepConfig:
    """Parse a sweep config document: an experiment plus a [sweep] section."""
    sections = _parse_sections(text)
    if "sweep" not in sections:
        raise ConfigError("sweep config needs a [sweep] section")
    sweep_raw = sections.pop("sweep")
    unknown = set(sections) - set(_EXPERIMENT_KEYS)
    if unknown:
        raise ConfigError(f"unknown section(s): {sorted(unknown)}")
    base = _build_experiment(sections)

    allowed = set(SWEEP_AXES) | {"outdir", "cap"}
    bad = set(sweep_raw) - allowed
    if bad:
        raise ConfigError(f"unknown key(s) {sorted(bad)} in [sweep]")
    axes: dict[str, list[str]] = {}
    for axis in SWEEP_AXES:  # canonical order fixes the sweep row order
        if axis in sweep_raw:
            values = [v.strip() for v in sweep_raw[axis].split(",") if v.strip()]
            if not values:
                raise ConfigError(f"[sweep] {axis}: empty value list")
            axes[axis] = values
    cap = _int({"sweep": sweep_raw}, "sweep", "cap", default=DEFAULT_SWEEP_CAP)
    total = 1
    for values in axes.values():
        total *= len(values)
    if total > cap:
        raise ConfigError(f"sweep has {total} cells, exceeding the cap of {cap}")
    outdir = sweep_raw.get("outdir", "sweep")
    return SweepConfig(base=base, axes=axes, outdir=outdir, cap=cap)
