"""Deterministic scalar test functions built from a small expression grammar.

The grammar covers exact solutions of the radical equation plus controlled
perturbations::

    expr     := term ('+' term)*
    term     := [number '*'] atom
    atom     := mono(c,k) | sine(a,b) | envnoise(a,p,seed)

``mono(c,k)`` is ``c*x**k`` for an integer ``k``, ``sine(a,b)`` is
``a*sin(b*x)`` and ``envnoise(a,p,seed)`` is ``a*|x|**p*u(x)`` where ``u`` is
an oscillation drawn from the non-negative integer ``seed``, with ``|u| <= 1``.

Parsing builds one plain closure per atom, scalar multiple and sum, together
with its description; ``scaled`` and ``shifted`` wrap a handle's closure the
same way.  A sum folds its terms left from the int ``0``, which is what
``sum()`` did before Python 3.12 made it compensated, so evaluation is a pure
function of (expression, x) that gives identical output bits on every
supported Python.

Each atom also has an array twin, and ``FunctionHandle.many`` evaluates a
whole array of points through it in one pass.  The twin makes the scalar
closure's operations in the same order: ``*``, ``+`` and ``abs`` run in
numpy, which rounds each IEEE operation as Python does, while every power,
sine and cosine maps the scalar routine (builtin ``pow``, ``math.sin``,
``math.cos``) over the points through ``mapped``, because numpy's vectorised
``**``, ``sin`` and ``cos`` may differ from libm in the last bit.  The
scalar multiples, argument scales and sums are the same closures in both
forms, since they only multiply and add.  A twin takes ``(xs, raised)``:
``mapped`` marks in the bool array ``raised`` each point where the scalar
routine raises, and ``many`` reads ``inf`` there, as the scalar handle does,
so each value is bit for bit the scalar handle's.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass
from itertools import repeat
from typing import Callable

import numpy as np

from .errors import ArgumentError, ConfigError

__all__ = ["FunctionHandle", "monomial", "sine", "envelope_noise", "parse_expression"]


def mapped(fn, *args, raised: np.ndarray | None = None) -> np.ndarray:
    """The scalar routine ``fn`` mapped over a list (and ``repeat()``ed constants), as a float array.

    This is how every array twin in modstab takes a power, sine, cosine or
    ``expm1``: numpy's own may differ from libm in the last bit.  It is
    total: an entry where ``fn`` raises ``ArithmeticError`` (a power that
    overflows, ``0.0`` to a negative power) or ``ValueError`` (``cos`` of
    ``inf``) is ``nan``, and is set in the bool array ``raised`` when the
    caller passes one.  A batch where nothing raises is one plain map.
    """
    n = len(args[0])
    try:
        return np.fromiter(map(fn, *args), float, n)
    except (ArithmeticError, ValueError):
        pass
    hit = []

    def total(i, *point):
        try:
            return fn(*point)
        except (ArithmeticError, ValueError):
            hit.append(i)
            return math.nan

    out = np.fromiter(map(total, range(n), *args), float, n)
    if raised is not None:
        raised[hit] = True
    return out


# Each atom's twin takes (xs, raised) and passes raised on to mapped.
def _monomial(coeff: float, power: int):
    return ((lambda x: coeff * x**power), f"mono({coeff:g},{power})",
            lambda xs, raised: coeff * mapped(pow, xs.tolist(), repeat(power), raised=raised))


def _sine(amplitude: float, frequency: float):
    return ((lambda x: amplitude * math.sin(frequency * x)),
            f"sine({amplitude:g},{frequency:g})",
            lambda xs, raised: amplitude * mapped(math.sin, (frequency * xs).tolist(),
                                                  raised=raised))


def _envelope_noise(amplitude: float, exponent: float, seed: int):
    """``a * |x|**p * cos(freq*x + phase)`` with (freq, phase) drawn from seed."""
    rng = np.random.default_rng(seed)
    freq = 0.5 + 1.5 * float(rng.random())
    phase = 2.0 * math.pi * float(rng.random())

    def many(xs, raised):
        envelope = amplitude * mapped(pow, abs(xs).tolist(), repeat(exponent), raised=raised)
        return envelope * mapped(math.cos, (freq * xs + phase).tolist(), raised=raised)

    return ((lambda x: amplitude * abs(x) ** exponent * math.cos(freq * x + phase)),
            f"envnoise({amplitude:g},{exponent:g},{seed})", many)


# The combinators only multiply and add, so each serves a scalar closure and
# an array twin alike: x is a float, or an array followed by its raised mask.
def _scale(factor: float, f):
    return lambda x, *raised: factor * f(x, *raised)


def _arg_scale(factor: float, f):
    return lambda x, *raised: f(factor * x, *raised)


def _sum(terms: tuple):
    def total(x, *raised):
        # Not sum(): since Python 3.12 it is compensated and rounds differently.
        acc = 0
        for term in terms:
            acc = acc + term(x, *raised)
        return acc
    return total


@dataclass(frozen=True)
class FunctionHandle:
    """An evaluable real function with a reproducible description.

    ``expr`` computes ``f(x)`` at one float; ``batch_expr``, when present,
    is its array twin, which ``many`` calls on a whole array of points and
    the bool array it marks where a scalar routine raised.
    """

    expr: Callable[[float], float]
    description: str
    batch_expr: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None

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

    def many(self, xs) -> np.ndarray:
        """``f`` at each point of the 1-D array ``xs``: ``[f(x) for x in xs]``, bit for bit.

        One pass of the array twin; the points where one of its scalar
        routines raised (see ``__call__`` for what raises) are ``inf``, and
        only those.  A handle without a twin goes point by point.
        """
        xs = np.asarray(xs, dtype=float)
        if self.batch_expr is None:
            return np.array([self(x) for x in xs.tolist()], dtype=float)
        raised = np.zeros(len(xs), dtype=bool)
        with np.errstate(over="ignore", invalid="ignore"):
            out = self.batch_expr(xs, raised)
        out[raised] = math.inf
        return out

    def scaled(self, outer: float = 1.0, inner: float = 1.0) -> "FunctionHandle":
        """The function ``x -> outer * f(inner * x)``."""
        def wrap(f):
            if inner != 1.0:
                f = _arg_scale(inner, f)
            if outer != 1.0:
                f = _scale(outer, f)
            return f
        twin = None if self.batch_expr is None else wrap(self.batch_expr)
        desc = f"{outer:.6g}*[{self.description}](x*{inner:.6g})"
        return FunctionHandle(wrap(self.expr), desc, twin)

    def shifted(self, offset: float) -> "FunctionHandle":
        """The function ``x -> f(x) + offset``."""
        if offset == 0.0:
            return self
        constant, _, constant_many = _monomial(float(offset), 0)
        twin = None if self.batch_expr is None else _sum((self.batch_expr, constant_many))
        return FunctionHandle(_sum((self.expr, constant)),
                              f"[{self.description}] + {offset:.6g}", twin)


def _integral(value, what: str) -> int:
    """``value`` as an int; a fractional or non-finite number is refused, not truncated."""
    try:
        return operator.index(value)  # int-like values stay exact, however large
    except TypeError:
        pass
    value = float(value)
    if not value.is_integer():
        raise ArgumentError(f"{what} must be an integer, got {value:g}")
    return int(value)


def _seed(value) -> int:
    seed = _integral(value, "envnoise seed")
    if seed < 0:  # numpy seeds only from non-negative integers
        raise ArgumentError(f"envnoise seed must be non-negative, got {seed}")
    return seed


def monomial(coeff: float, power: int) -> FunctionHandle:
    """``coeff * x**power``; ``power`` must be an integer (``ArgumentError``)."""
    return FunctionHandle(*_monomial(float(coeff), _integral(power, "mono power")))


def sine(amplitude: float, frequency: float) -> FunctionHandle:
    return FunctionHandle(*_sine(float(amplitude), float(frequency)))


def envelope_noise(amplitude: float, exponent: float, seed: int) -> FunctionHandle:
    """``amplitude * |x|**exponent * u(x)``; ``seed`` must be a non-negative integer."""
    return FunctionHandle(*_envelope_noise(float(amplitude), float(exponent), _seed(seed)))


_NUMBER = r"[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?"
_ATOM_RE = re.compile(
    rf"(?P<name>mono|sine|envnoise)\(\s*(?P<args>{_NUMBER}(?:\s*,\s*{_NUMBER})*)\s*\)"
)


def _finite(number: str, text: str) -> float:
    value = float(number)
    if not math.isfinite(value):
        raise ConfigError(f"number {number.strip()} in {text!r} must be finite")
    return value


def _parse_atom(text: str):
    """``(closure, description, array twin)`` of one atom."""
    m = _ATOM_RE.fullmatch(text.strip())
    if m is None:
        raise ConfigError(f"malformed function atom {text!r}")
    name = m.group("name")
    args = m.group("args").split(",")
    arity = 3 if name == "envnoise" else 2
    if len(args) != arity:
        raise ConfigError(f"{name} takes {arity} arguments, got {len(args)} in {text!r}")
    args = [_finite(a, text) for a in args]
    try:  # the library constructors' checks, reported as config errors
        if name == "mono":
            args[1] = _integral(args[1], "mono power")
        elif name == "envnoise":
            args[2] = _seed(args[2])
    except ArgumentError as exc:
        raise ConfigError(f"{exc} in {text!r}") from exc
    return {"mono": _monomial, "sine": _sine, "envnoise": _envelope_noise}[name](*args)


def _parse_term(text: str):
    t = text.strip()
    if not t:
        raise ConfigError("empty term in function expression")
    if "*" in t:
        head, _, tail = t.partition("*")
        if re.fullmatch(_NUMBER, head.strip()):
            factor, atom = head, tail
        elif re.fullmatch(_NUMBER, tail.strip()):
            factor, atom = tail, head
        else:
            raise ConfigError(f"scalar multiple must pair a number with an atom: {text!r}")
        factor = _finite(factor, text)
        f, desc, twin = _parse_atom(atom)
        return _scale(factor, f), f"{factor:g}*({desc})", _scale(factor, twin)
    return _parse_atom(t)


def parse_expression(text: str) -> FunctionHandle:
    """Parse the function grammar into an evaluable handle.

    The handle's description is the normalized expression.
    """
    # Split on '+' at top level; atoms never nest, but numeric literals may
    # carry a sign or exponent, so split only on '+' preceded by ')' or digit
    # and followed by something that starts a term.
    pieces = re.split(r"(?<=[)\d])\s*\+\s*(?=[a-zA-Z+-]|\d|\.)", text.strip())
    if not pieces or not text.strip():
        raise ConfigError("empty function expression")
    fs, descs, twins = zip(*(_parse_term(p) for p in pieces))
    if len(fs) == 1:
        return FunctionHandle(fs[0], descs[0], twins[0])
    return FunctionHandle(_sum(fs), " + ".join(descs), _sum(twins))
