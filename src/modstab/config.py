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

import dataclasses
import math
from dataclasses import dataclass, field

from .direct import MAX_N
from .equation import ControlFunction, EquationParams, parse_control
from .errors import ArgumentError, ConfigError
from .functions import FunctionHandle, parse_expression
from .modular import ModularSpec, parse_modular
from .sampling import Grid

__all__ = ["ExperimentConfig", "SweepConfig", "cell_config", "parse_experiment", "parse_sweep"]

METHODS = ("t1", "t2", "fixedpoint", "all")
SWEEP_AXES = ("s", "q", "p", "theta", "modular")
SWEEP_CAP = 10_000

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


def check_run_number(key: str, value, label: str) -> None:
    """Range check of the run number ``key``; the error names the value ``label``."""
    if key == "tol":
        ok, wanted = 0 < value < math.inf, "positive and finite"
    elif key == "n_max":
        ok, wanted = 1 <= value <= MAX_N, f"in 1..{MAX_N}"
    else:  # numpy seeds only from non-negative integers
        ok, wanted = value >= 0, "non-negative"
    if not ok:
        raise ConfigError(f"{label} must be {wanted}, got {value}")


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
    n_max = _int(sections, "run", "n_max", default=60)
    seed = _int(sections, "run", "seed", default=0)
    for key, value in (("tol", tol), ("n_max", n_max), ("seed", seed)):
        check_run_number(key, value, f"[run] {key}")
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


def cell_config(base: ExperimentConfig, assignment: dict[str, str]) -> ExperimentConfig:
    """The experiment of one sweep cell: ``base`` with the axis values ``assignment``.

    Each value goes through the parser of its axis: ``s`` and ``q`` through
    ``EquationParams``, ``p`` and ``theta`` through ``ControlFunction.power``
    (which needs a power control in ``base``), ``modular`` through
    ``parse_modular``.
    """
    params = base.params
    alpha = base.alpha
    alpha_spec = base.alpha_spec
    modular = base.modular
    modular_spec = base.modular_spec
    if "s" in assignment or "q" in assignment:
        params = EquationParams(
            s=int(assignment.get("s", params.s)),
            q=float(assignment.get("q", params.q)),
        )
    if "p" in assignment or "theta" in assignment:
        if alpha.kind != "power":
            raise ConfigError(
                "sweep axes 'p'/'theta' need a power control function, "
                f"got {alpha_spec!r}"
            )
        alpha = ControlFunction.power(
            float(assignment.get("theta", alpha.theta)),
            float(assignment.get("p", alpha.p)),
        )
        alpha_spec = alpha.spec_string()
    if "modular" in assignment:
        modular_spec = assignment["modular"]
        modular = parse_modular(modular_spec)
    return dataclasses.replace(
        base, params=params, alpha=alpha, alpha_spec=alpha_spec,
        modular=modular, modular_spec=modular_spec,
    )


def parse_sweep(text: str) -> SweepConfig:
    """Parse a sweep config document: an experiment plus a [sweep] section.

    Every axis value is checked with the parser a cell uses (see
    ``cell_config``), so a value no cell could run is a ``ConfigError``
    before any cell runs.
    """
    sections = _parse_sections(text)
    if "sweep" not in sections:
        raise ConfigError("sweep config needs a [sweep] section")
    sweep_raw = sections.pop("sweep")
    unknown = set(sections) - set(_EXPERIMENT_KEYS)
    if unknown:
        raise ConfigError(f"unknown section(s): {sorted(unknown)}")
    base = _build_experiment(sections)

    allowed = set(SWEEP_AXES) | {"outdir"}
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
    total = 1
    for values in axes.values():
        total *= len(values)
    if total > SWEEP_CAP:
        raise ConfigError(f"sweep has {total} cells, exceeding the cap of {SWEEP_CAP}")
    # Each axis checks its values independently of the others, so a value
    # that parses with the base experiment parses in every cell.
    for axis, values in axes.items():
        for value in values:
            try:
                cell_config(base, {axis: value})
            except ValueError as exc:  # ConfigError and ArgumentError included
                raise ConfigError(f"[sweep] {axis} = {value}: {exc}") from exc
    outdir = sweep_raw.get("outdir", "sweep")
    return SweepConfig(base=base, axes=axes, outdir=outdir)
