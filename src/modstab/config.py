"""Experiment and sweep configuration: flat key=value text with section headers.

The sections and keys are ``_EXPERIMENT_KEYS``; the README's "Command line"
section has an example.  Every value is read through the input grammar of
``functions`` (``parse_number``, ``parse_integer``, ``parse_spec``).  A
sweep config adds a ``[sweep]`` section with value lists over the axes
``s``, ``q``, ``p``, ``theta`` and ``modular``, plus ``outdir``; its
``[run]`` section takes neither ``out`` nor ``format``.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field

from .direct import MAX_N
from .equation import ControlFunction, EquationParams, parse_control
from .errors import ArgumentError, ConfigError
from .functions import FunctionHandle, parse_expression, parse_integer, parse_number
from .modular import ModularSpec, parse_modular
from .sampling import Grid

__all__ = ["ExperimentConfig", "SweepConfig", "axis_values", "cell_config", "parse_experiment",
           "parse_sweep", "run_number"]

METHODS = ("t1", "t2", "fixedpoint", "all")
SWEEP_AXES = ("s", "q", "p", "theta", "modular")
SWEEP_CAP = 10_000

# Each section's required keys, then its optional ones.
_EXPERIMENT_KEYS = {
    "equation": (("s", "q"), ()),
    "modular": (("spec",), ()),
    "phi": (("expr",), ()),
    "alpha": (("spec",), ()),
    "run": (("grid",), ("method", "tol", "n_max", "seed", "out", "format")),
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


def run_number(key: str, text: str, label: str) -> float | int:
    """The run number ``key`` (``tol``, ``n_max`` or ``seed``), which a config and the
    command line both set, read from ``text`` and range checked; the ``ConfigError``
    that refuses it names the value ``label``."""
    if key == "tol":
        value = parse_number(text, label)
        ok, wanted = value > 0, "positive and finite"
    elif key == "n_max":
        value = parse_integer(text, label)
        ok, wanted = 1 <= value <= MAX_N, f"in 1..{MAX_N}"
    else:  # numpy seeds only from non-negative integers
        value = parse_integer(text, label)
        ok, wanted = value >= 0, "non-negative"
    if not ok:
        raise ConfigError(f"{label} must be {wanted}, got {value}")
    return value


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
    unknown = set(sections) - set(_EXPERIMENT_KEYS)
    if unknown:
        raise ConfigError(f"unknown section(s): {sorted(unknown)}")
    for sec, (required, optional) in _EXPERIMENT_KEYS.items():
        if sec not in sections:
            raise ConfigError(f"missing required section [{sec}]")
        unknown = set(sections[sec]) - {*required, *optional}
        if unknown:
            raise ConfigError(f"unknown key(s) {sorted(unknown)} in [{sec}]")
        for key in required:
            if key not in sections[sec]:
                raise ConfigError(f"missing required key {key!r} in [{sec}]")

    equation = sections["equation"]
    try:
        params = EquationParams(s=parse_integer(equation["s"], "[equation] s"),
                                q=parse_number(equation["q"], "[equation] q"))
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
    parts = run["grid"].split(",")
    if len(parts) != 3:
        raise ConfigError(f"[run] grid must be 'lo,hi,count', got {run['grid']!r}")
    lo, hi = (parse_number(end, "[run] grid") for end in parts[:2])
    try:
        grid = Grid(lo=lo, hi=hi, count=parse_integer(parts[2], "[run] grid"))
    except ArgumentError as exc:
        raise ConfigError(f"[run] grid: {exc}") from exc
    numbers = {key: run_number(key, run[key], f"[run] {key}")
               for key in ("tol", "n_max", "seed") if key in run}
    fmt = run.get("format", "json").strip()
    if fmt not in ("json", "csv"):
        raise ConfigError(f"[run] format must be json or csv, got {fmt!r}")

    return ExperimentConfig(
        params=params, modular_spec=modular_spec, modular=modular, phi_expr=phi_expr, phi=phi,
        alpha_spec=alpha_spec, alpha=alpha, method=method, grid=grid, out=run.get("out"),
        fmt=fmt, **numbers)


def parse_experiment(text: str) -> ExperimentConfig:
    """Parse an experiment config document."""
    sections = _parse_sections(text)
    if "sweep" in sections:
        raise ConfigError("config has a [sweep] section; use the sweep command")
    return _build_experiment(sections)


# The parser of each sweep axis but ``modular``, whose values stay spec text.
_AXIS_PARSERS = {"s": parse_integer, "q": parse_number, "p": parse_number, "theta": parse_number}


def axis_values(assignment: dict[str, str]) -> dict:
    """The sweep axis values ``assignment`` read through the input grammar: ``s`` an
    integer, ``q``, ``p`` and ``theta`` numbers, ``modular`` its spec text."""
    return {axis: _AXIS_PARSERS[axis](text, axis) if axis in _AXIS_PARSERS else text
            for axis, text in assignment.items()}


def cell_config(base: ExperimentConfig, assignment: dict[str, str]) -> ExperimentConfig:
    """The experiment of one sweep cell: ``base`` with the axis values ``assignment``.

    Each value is read by ``axis_values``, then checked by the parser of its
    axis: ``s`` and ``q`` by ``EquationParams``, ``p`` and ``theta`` by
    ``ControlFunction.power`` (which needs a power control in ``base``),
    ``modular`` by ``parse_modular``.
    """
    values = axis_values(assignment)
    cell = {}
    if "s" in values or "q" in values:
        cell["params"] = EquationParams(s=values.get("s", base.params.s),
                                        q=values.get("q", base.params.q))
    if "p" in values or "theta" in values:
        if base.alpha.kind != "power":
            raise ConfigError("sweep axes 'p'/'theta' need a power control function, "
                              f"got {base.alpha_spec!r}")
        alpha = ControlFunction.power(values.get("theta", base.alpha.theta),
                                      values.get("p", base.alpha.p))
        cell.update(alpha=alpha, alpha_spec=alpha.spec_string())
    if "modular" in values:
        cell.update(modular=parse_modular(values["modular"]), modular_spec=values["modular"])
    return dataclasses.replace(base, **cell)


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
    for key, why in (("out", "its directory is [sweep] outdir or --out"),
                     ("format", "its cell reports are JSON")):
        if key in sections.get("run", {}):
            raise ConfigError(f"[run] {key} is not a sweep key: {why}")
    base = _build_experiment(sections)

    bad = set(sweep_raw) - {*SWEEP_AXES, "outdir"}
    if bad:
        raise ConfigError(f"unknown key(s) {sorted(bad)} in [sweep]")
    axes: dict[str, list[str]] = {}
    for axis in SWEEP_AXES:  # canonical order fixes the sweep row order
        if axis in sweep_raw:
            values = [v.strip() for v in sweep_raw[axis].split(",") if v.strip()]
            if not values:
                raise ConfigError(f"[sweep] {axis}: empty value list")
            axes[axis] = values
    total = math.prod(len(values) for values in axes.values())
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
    return SweepConfig(base=base, axes=axes, outdir=sweep_raw.get("outdir", "sweep"))
