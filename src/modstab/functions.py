"""Deterministic scalar test functions built from a small expression grammar.

The grammar covers exact solutions of the radical equation plus controlled
perturbations::

    expr     := term ('+' term)*
    term     := [number '*'] atom
    atom     := mono(c,k) | sine(a,b) | envnoise(a,p,seed)

``mono(c,k)`` is ``c*x**k``, ``sine(a,b)`` is ``a*sin(b*x)`` and
``envnoise(a,p,seed)`` is ``a*|x|**p*u(x)`` where ``u`` is a seeded
oscillation with ``|u| <= 1``.  Evaluation is a pure function of
(expression, seed, x): identical inputs give identical output bits.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError

__all__ = ["FunctionHandle", "monomial", "sine", "envelope_noise", "parse_expression"]


@dataclass(frozen=True)
class _Monomial:
    coeff: float
    power: int

    def __call__(self, x: float) -> float:
        return self.coeff * x**self.power

    def describe(self) -> str:
        return f"mono({self.coeff:g},{self.power})"


@dataclass(frozen=True)
class _Sine:
    amplitude: float
    frequency: float

    def __call__(self, x: float) -> float:
        return self.amplitude * math.sin(self.frequency * x)

    def describe(self) -> str:
        return f"sine({self.amplitude:g},{self.frequency:g})"


@dataclass(frozen=True)
class _EnvelopeNoise:
    """``a * |x|**p * cos(freq*x + phase)`` with (freq, phase) drawn from seed."""

    amplitude: float
    exponent: float
    seed: int
    freq: float = field(init=False)
    phase: float = field(init=False)

    def __post_init__(self):
        rng = np.random.default_rng(self.seed)
        object.__setattr__(self, "freq", 0.5 + 1.5 * float(rng.random()))
        object.__setattr__(self, "phase", 2.0 * math.pi * float(rng.random()))

    def __call__(self, x: float) -> float:
        return self.amplitude * abs(x) ** self.exponent * math.cos(self.freq * x + self.phase)

    def describe(self) -> str:
        return f"envnoise({self.amplitude:g},{self.exponent:g},{self.seed})"


@dataclass(frozen=True)
class _Sum:
    terms: tuple

    def __call__(self, x: float) -> float:
        return sum(t(x) for t in self.terms)

    def describe(self) -> str:
        return " + ".join(t.describe() for t in self.terms)


@dataclass(frozen=True)
class _Scale:
    factor: float
    inner: object

    def __call__(self, x: float) -> float:
        return self.factor * self.inner(x)

    def describe(self) -> str:
        return f"{self.factor:g}*({self.inner.describe()})"


@dataclass(frozen=True)
class _ArgScale:
    # Argument rescaling: used by the limit constructions, not the grammar.
    factor: float
    inner: object

    def __call__(self, x: float) -> float:
        return self.inner(self.factor * x)

    def describe(self) -> str:
        return f"({self.inner.describe()})@(x*{self.factor:.6g})"


@dataclass(frozen=True)
class FunctionHandle:
    """An evaluable real function with a reproducible description."""

    expr: object
    description: str
    seed: int = 0

    def __call__(self, x: float) -> float:
        """``f(x)``, or ``inf`` where the float arithmetic cannot hold it.

        A power that overflows, ``0.0`` to a negative power and ``sin``/``cos``
        of an infinite argument all evaluate to ``inf``, the saturation
        signal every caller reads, so no caller guards the call.  An argument
        ``float()`` refuses still raises.
        """
        x = float(x)
        try:
            return self.expr(x)
        except (ArithmeticError, ValueError):  # ValueError: math domain error
            return math.inf

    def scaled(self, outer: float = 1.0, inner: float = 1.0) -> "FunctionHandle":
        """The function ``x -> outer * f(inner * x)``."""
        node = self.expr
        if inner != 1.0:
            node = _ArgScale(inner, node)
        if outer != 1.0:
            node = _Scale(outer, node)
        desc = f"{outer:.6g}*[{self.description}](x*{inner:.6g})"
        return FunctionHandle(expr=node, description=desc, seed=self.seed)

    def shifted(self, offset: float) -> "FunctionHandle":
        """The function ``x -> f(x) + offset``."""
        if offset == 0.0:
            return self
        node = _Sum((self.expr, _Monomial(float(offset), 0)))
        return FunctionHandle(node, f"[{self.description}] + {offset:.6g}", self.seed)

    def plus(self, other: "FunctionHandle") -> "FunctionHandle":
        node = _Sum((self.expr, other.expr))
        return FunctionHandle(node, f"{self.description} + {other.description}", self.seed)


def monomial(coeff: float, power: int) -> FunctionHandle:
    node = _Monomial(float(coeff), int(power))
    return FunctionHandle(node, node.describe())


def sine(amplitude: float, frequency: float) -> FunctionHandle:
    node = _Sine(float(amplitude), float(frequency))
    return FunctionHandle(node, node.describe())


def envelope_noise(amplitude: float, exponent: float, seed: int) -> FunctionHandle:
    node = _EnvelopeNoise(float(amplitude), float(exponent), int(seed))
    return FunctionHandle(node, node.describe(), seed=int(seed))


_NUMBER = r"[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?"
_ATOM_RE = re.compile(
    rf"(?P<name>mono|sine|envnoise)\(\s*(?P<args>{_NUMBER}(?:\s*,\s*{_NUMBER})*)\s*\)"
)


def _parse_atom(text: str):
    m = _ATOM_RE.fullmatch(text.strip())
    if m is None:
        raise ConfigError(f"malformed function atom {text!r}")
    name = m.group("name")
    args = [a.strip() for a in m.group("args").split(",")]
    if name == "mono":
        if len(args) != 2:
            raise ConfigError(f"mono takes 2 arguments, got {len(args)} in {text!r}")
        return _Monomial(float(args[0]), int(float(args[1])))
    if name == "sine":
        if len(args) != 2:
            raise ConfigError(f"sine takes 2 arguments, got {len(args)} in {text!r}")
        return _Sine(float(args[0]), float(args[1]))
    if len(args) != 3:
        raise ConfigError(f"envnoise takes 3 arguments, got {len(args)} in {text!r}")
    return _EnvelopeNoise(float(args[0]), float(args[1]), int(float(args[2])))


def _parse_term(text: str):
    t = text.strip()
    if not t:
        raise ConfigError("empty term in function expression")
    if "*" in t:
        head, _, tail = t.partition("*")
        if re.fullmatch(_NUMBER, head.strip()):
            return _Scale(float(head), _parse_atom(tail))
        if re.fullmatch(_NUMBER, tail.strip()):
            return _Scale(float(tail), _parse_atom(head))
        raise ConfigError(f"scalar multiple must pair a number with an atom: {text!r}")
    return _parse_atom(t)


def parse_expression(text: str) -> FunctionHandle:
    """Parse the function grammar into an evaluable handle.

    The handle's description is the normalized expression, and its seed is
    the first ``envnoise`` seed encountered (0 if none).
    """
    # Split on '+' at top level; atoms never nest, but numeric literals may
    # carry a sign or exponent, so split only on '+' preceded by ')' or digit
    # and followed by something that starts a term.
    pieces = re.split(r"(?<=[)\d])\s*\+\s*(?=[a-zA-Z+-]|\d|\.)", text.strip())
    if not pieces or not text.strip():
        raise ConfigError("empty function expression")
    terms = [_parse_term(p) for p in pieces]
    node = terms[0] if len(terms) == 1 else _Sum(tuple(terms))
    seed = 0
    for t in terms:
        inner = t.inner if isinstance(t, _Scale) else t
        if isinstance(inner, _EnvelopeNoise):
            seed = inner.seed
            break
    return FunctionHandle(node, node.describe(), seed=seed)
