"""Deterministic test functions built from a small expression grammar.

The grammar covers exact solutions of the radical equation plus controlled
perturbations::

    expr     := term ('+' term)*
    term     := [number '*'] atom
    atom     := mono(c,k) | sine(a,b) | envnoise(a,p,seed)

``mono(c,k)`` is ``c*x**k`` for an integer ``k``, ``sine(a,b)`` is
``a*sin(b*x)`` and ``envnoise(a,p,seed)`` is ``a*|x|**p*u(x)`` where ``u`` is
an oscillation drawn from the non-negative integer ``seed``, with ``|u| <= 1``.

Parsing builds one closure per atom, scalar multiple and sum, together with
its description; ``direct.limit_function`` builds a handle's closure the same
way.  Each closure takes ``(xs, raised)``: a float array of points and a
bool array of the same length, and evaluates every point in one pass.
``*``, ``+`` and ``abs`` run in numpy, which rounds each IEEE operation as
Python does.  Every power goes through ``power``, one ``np.float_power``
loop that calls libm ``pow`` per element as builtin ``pow`` does, and every
sine and cosine maps the scalar ``math.sin`` or ``math.cos`` over the points
through ``mapped``: numpy's ``**``, ``np.power``, ``sin`` and ``cos`` are
vectorised loops that may differ from libm in the last bit.  ``power`` and
``mapped`` mark in ``raised`` each point where the libm routine raises, and
the handle reads ``inf`` there.  A sum folds its terms left from the int
``0``, which is what ``sum()`` did before Python 3.12 made it compensated,
so evaluation is a pure function of (expression, x) that gives identical
output bits on every supported Python.

The module also holds modstab's one input grammar: every number, integer
and spec string modstab reads as text -- config values, command-line
flags, sweep axis values, spec strings and the expression itself -- goes
through ``parse_number``, ``parse_integer`` or ``parse_spec``, in ASCII
only.  A number is a decimal with an optional exponent: no ``_``
separators, no ``inf`` or ``nan``, no digits outside 0-9, and its value
must be finite.  An integer is digits with an optional sign, read by
``int`` exactly, never through a float.  Spaces and tabs around a token are
ignored, and no other whitespace is.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ArgumentError, ConfigError

__all__ = ["FunctionHandle", "monomial", "sine", "envelope_noise", "parse_expression",
           "parse_number", "parse_integer", "parse_spec"]


def mapped(fn, *args, raised: np.ndarray | None = None) -> np.ndarray:
    """The scalar routine ``fn`` mapped over lists of its arguments, as a float array.

    This is how every array kernel in modstab takes a sine, cosine or
    ``expm1``: numpy's vector ``sin``, ``cos`` and ``expm1`` may differ
    from libm in the last bit.  (Powers take ``power``, one C loop.)  It is
    total: an entry where ``fn`` raises ``ArithmeticError`` or
    ``ValueError`` (``cos`` of ``inf``) is ``nan``, and is set in the bool
    array ``raised`` when the caller passes one.  A batch where nothing
    raises is one plain map.
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


def power(bases, exponent, raised: np.ndarray | None = None) -> np.ndarray:
    """Builtin ``pow(b, exponent)`` at each entry ``b`` of ``bases``, bit for bit.

    ``bases`` is a float array of one or more dimensions, and the result
    has its shape.  One ``np.float_power`` loop, which calls libm ``pow``
    per element as builtin ``pow`` does; numpy's ``**`` and ``np.power``
    are vectorised loops that may differ from libm in the last bit.  A
    ``nan`` base comes back as it went in, sign included, as ``pow``
    returns it.  Total as ``mapped`` is: where ``pow`` raises -- a finite
    base whose power leaves the float range, ``0.0`` to a negative power,
    an int exponent past the float range -- the entry is ``nan`` and is set
    in ``raised`` when the caller passes one.  A fractional exponent needs
    non-negative bases (``pow`` gives a complex number for a negative one).

    The caller holds ``np.errstate(over="ignore", invalid="ignore")``
    around its batch, once rather than once per power: a power that
    overflows sets the flag and is then made ``nan`` here.
    """
    bases = np.asarray(bases, dtype=float)
    try:
        exponent = float(exponent)
    except OverflowError:  # pow converts the exponent first, and raises at every base
        if raised is not None:
            raised[...] = True
        return np.full(bases.shape, math.nan)
    if exponent < 0.0:
        with np.errstate(divide="ignore"):  # 0.0 to a negative power, made nan below
            out = np.float_power(bases, exponent)
    else:
        out = np.float_power(bases, exponent)
    if not math.isfinite(np.add.reduce(out, axis=None)):  # finite only if every entry is
        nan = np.isnan(bases)
        out[nan] = bases[nan]  # libm flips the sign of -nan at odd exponents; pow does not
        hit = ~np.isfinite(out) & np.isfinite(bases)
        out[hit] = math.nan
        if raised is not None:
            raised |= hit
    return out


# Each closure takes (xs, raised) and passes raised on to power or mapped.
def _monomial(coeff: float, exponent: int):
    return ((lambda xs, raised: coeff * power(xs, exponent, raised)),
            f"mono({coeff:g},{exponent})")


def _sine(amplitude: float, frequency: float):
    return ((lambda xs, raised: amplitude * mapped(math.sin, (frequency * xs).tolist(),
                                                   raised=raised)),
            f"sine({amplitude:g},{frequency:g})")


def _envelope_noise(amplitude: float, exponent: float, seed: int):
    """``a * |x|**p * cos(freq*x + phase)`` with (freq, phase) drawn from seed."""
    rng = np.random.default_rng(seed)
    freq = 0.5 + 1.5 * float(rng.random())
    phase = 2.0 * math.pi * float(rng.random())

    def expr(xs, raised):
        envelope = amplitude * power(abs(xs), exponent, raised)
        return envelope * mapped(math.cos, (freq * xs + phase).tolist(), raised=raised)

    return expr, f"envnoise({amplitude:g},{exponent:g},{seed})"


def _scale(factor: float, f):
    return lambda xs, raised: factor * f(xs, raised)


def _sum(terms: tuple):
    def total(xs, raised):
        # Not sum(): since Python 3.12 it is compensated and rounds differently.
        acc = 0
        for term in terms:
            acc = acc + term(xs, raised)
        return acc
    return total


@dataclass(frozen=True)
class FunctionHandle:
    """An evaluable real function with a reproducible description.

    ``expr`` computes ``f`` at a 1-D float array of points in one pass, and
    sets in the bool array it is handed each point where a libm routine
    raised; ``many`` and ``__call__`` read ``inf`` there.
    """

    expr: Callable[[np.ndarray, np.ndarray], np.ndarray]
    description: str

    def __call__(self, x: float) -> float:
        """``f(x)``: ``many`` at the one point ``x``.

        A power that overflows, ``0.0`` to a negative power and ``sin``/``cos``
        of an infinite argument all evaluate to ``inf``, the saturation
        signal every caller reads, so no caller guards the call.  An argument
        ``float()`` refuses still raises.
        """
        return float(self.many(np.array([float(x)]))[0])

    def many(self, xs) -> np.ndarray:
        """``f`` at each point of the 1-D array ``xs``, in one pass of ``expr``.

        The points where a libm routine raised -- a power that overflows,
        ``0.0`` to a negative power, ``sin`` or ``cos`` of an infinite
        argument -- are ``inf``, and only those.
        """
        xs = np.asarray(xs, dtype=float)
        raised = np.zeros(len(xs), dtype=bool)
        with np.errstate(over="ignore", invalid="ignore"):
            out = self.expr(xs, raised)
        out[raised] = math.inf
        return out


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


_NUMBER = r"[+-]?(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?"
_NUMBER_RE = re.compile(_NUMBER)
_INTEGER_RE = re.compile(r"[+-]?[0-9]+")
_BLANK = " \t"


def parse_number(text: str, what: str) -> float:
    """``text`` as a finite float; ``what`` names it in the ``ConfigError`` that refuses it."""
    token = text.strip(_BLANK)
    if _NUMBER_RE.fullmatch(token) is None:
        raise ConfigError(f"{what}: not a number: {token!r}")
    value = float(token)
    if not math.isfinite(value):
        raise ConfigError(f"{what}: not a finite number: {token!r}")
    return value


def parse_integer(text: str, what: str) -> int:
    """``text`` as an exact int; ``what`` names it in the ``ConfigError`` that refuses it."""
    token = text.strip(_BLANK)
    if _INTEGER_RE.fullmatch(token) is None:
        raise ConfigError(f"{what}: not an integer: {token!r}")
    try:
        return int(token)
    except ValueError:  # past sys.get_int_max_str_digits()
        raise ConfigError(f"{what}: integer of {len(token)} characters is too long") from None


def parse_spec(text: str, what: str, kinds: dict[str, tuple[str, ...]]) -> tuple[str, dict]:
    """A ``kind:key=value,...`` spec string as ``(kind, {key: number})``.

    ``kinds`` maps each kind to its keys; a kind with none is written bare
    (``exp``).  Each key of the kind appears exactly once, no other key is
    allowed, each value is a ``parse_number``, and spaces and tabs around
    ``:``, ``=`` and ``,`` are ignored.  ``what`` names the spec in the
    ``ConfigError`` that refuses it.
    """
    kind, colon, body = text.partition(":")
    kind = kind.strip(_BLANK)
    keys = kinds.get(kind)
    if keys is None:
        forms = " or ".join(repr(f"{k}:" + ",".join(f"{key}=..." for key in ks) if ks else k)
                            for k, ks in kinds.items())
        raise ConfigError(f"unknown {what} spec {text!r} (expected {forms})")
    malformed = f"malformed {what} spec {text!r}"
    fields: dict[str, float] = {}
    for item in body.split(",") if colon else ():
        key, equals, value = (part.strip(_BLANK) for part in item.partition("="))
        if not equals:
            raise ConfigError(f"{malformed}: expected key=value, got {item.strip(_BLANK)!r}")
        if key not in keys:
            raise ConfigError(f"{malformed}: unknown key {key!r}")
        if key in fields:
            raise ConfigError(f"{malformed}: duplicate key {key!r}")
        fields[key] = parse_number(value, f"{malformed}: {key}")
    for key in keys:
        if key not in fields:
            raise ConfigError(f"{malformed}: missing key {key!r}")
    return kind, fields


# Each atom's closure builder and its arguments, each with its name and parser.
_ATOMS = {
    "mono": (_monomial, (("coefficient", parse_number), ("power", parse_integer))),
    "sine": (_sine, (("amplitude", parse_number), ("frequency", parse_number))),
    "envnoise": (_envelope_noise, (("amplitude", parse_number), ("exponent", parse_number),
                                   ("seed", parse_integer))),
}
_ATOM_RE = re.compile(
    rf"(?P<name>mono|sine|envnoise)\([ \t]*(?P<args>{_NUMBER}(?:[ \t]*,[ \t]*{_NUMBER})*)[ \t]*\)"
)


def _parse_atom(text: str):
    """``(closure, description)`` of one atom."""
    m = _ATOM_RE.fullmatch(text.strip(_BLANK))
    if m is None:
        raise ConfigError(f"malformed function atom {text!r}")
    name = m.group("name")
    build, params = _ATOMS[name]
    args = m.group("args").split(",")
    if len(args) != len(params):
        raise ConfigError(f"{name} takes {len(params)} arguments, got {len(args)} in {text!r}")
    args = [parse(arg, f"{name} {param} in {text!r}") for arg, (param, parse) in zip(args, params)]
    if name == "envnoise":
        try:  # the library constructor's check, reported as a config error
            _seed(args[2])
        except ArgumentError as exc:
            raise ConfigError(f"{exc} in {text!r}") from exc
    return build(*args)


def _parse_term(text: str):
    t = text.strip(_BLANK)
    if not t:
        raise ConfigError("empty term in function expression")
    if "*" in t:
        head, _, tail = t.partition("*")
        if _NUMBER_RE.fullmatch(head.strip(_BLANK)):
            factor, atom = head, tail
        elif _NUMBER_RE.fullmatch(tail.strip(_BLANK)):
            factor, atom = tail, head
        else:
            raise ConfigError(f"scalar multiple must pair a number with an atom: {text!r}")
        factor = parse_number(factor, f"factor in {text!r}")
        f, desc = _parse_atom(atom)
        return _scale(factor, f), f"{factor:g}*({desc})"
    return _parse_atom(t)


def parse_expression(text: str) -> FunctionHandle:
    """Parse the function grammar into an evaluable handle.

    The handle's description is the normalized expression.
    """
    # Split on '+' at top level; atoms never nest, but numeric literals may
    # carry a sign or exponent, so split only on '+' preceded by what ends a
    # term (')', a digit, or the '.' of a number such as '5.') and followed by
    # something that starts a term.
    pieces = re.split(r"(?<=[).0-9])[ \t]*\+[ \t]*(?=[a-zA-Z+-]|[0-9]|\.)", text.strip(_BLANK))
    if not pieces or not text.strip(_BLANK):
        raise ConfigError("empty function expression")
    fs, descs = zip(*(_parse_term(p) for p in pieces))
    if len(fs) == 1:
        return FunctionHandle(fs[0], descs[0])
    return FunctionHandle(_sum(fs), " + ".join(descs))
