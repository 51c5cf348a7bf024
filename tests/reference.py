"""Scalar references for modstab's array kernels, one formula at one point.

``src/`` computes every formula of the radical equation's two routes with
array kernels.  This module writes each formula out again in plain Python
floats, point by point, as the code looked before the kernels: the tests
hold every kernel to these by raw IEEE bits.  So that no kernel is compared
with itself, nothing here calls modstab code.  The only names it takes from
modstab are the parameter types it reads fields or points from:
``EquationParams``, ``ModularSpec``, ``ControlFunction``, ``Mode`` and
``Grid`` (``tests/test_reference.py`` checks that).

* Functions of ``x`` are expression trees (``parse``), evaluated by the
  builtin ``**``, ``math.sin`` and ``math.cos``; ``value`` reads ``inf``
  where the arithmetic raises.  ``envnoise`` draws its frequency and phase
  from ``np.random.default_rng(seed)`` itself.
* A sum folds left from the int ``0`` and a running maximum replaces its
  value only on a strictly larger one, so ``nan`` is passed over.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

import numpy as np

from modstab import Mode

# -- functions of x: the expression grammar as a tree --------------------------


@dataclass(frozen=True)
class Mono:
    coeff: float
    power: int

    def __call__(self, x):
        return self.coeff * x**self.power

    def describe(self):
        return f"mono({self.coeff:g},{self.power})"


@dataclass(frozen=True)
class Sine:
    amplitude: float
    frequency: float

    def __call__(self, x):
        return self.amplitude * math.sin(self.frequency * x)

    def describe(self):
        return f"sine({self.amplitude:g},{self.frequency:g})"


@dataclass(frozen=True)
class EnvNoise:
    amplitude: float
    exponent: float
    seed: int
    freq: float = field(init=False)
    phase: float = field(init=False)

    def __post_init__(self):
        rng = np.random.default_rng(self.seed)
        object.__setattr__(self, "freq", 0.5 + 1.5 * float(rng.random()))
        object.__setattr__(self, "phase", 2.0 * math.pi * float(rng.random()))

    def __call__(self, x):
        return self.amplitude * abs(x) ** self.exponent * math.cos(self.freq * x + self.phase)

    def describe(self):
        return f"envnoise({self.amplitude:g},{self.exponent:g},{self.seed})"


@dataclass(frozen=True)
class Sum:
    terms: tuple

    def __call__(self, x):
        total = 0
        for t in self.terms:
            total = total + t(x)
        return total

    def describe(self):
        return " + ".join(t.describe() for t in self.terms)


@dataclass(frozen=True)
class Scale:
    factor: float
    inner: object

    def __call__(self, x):
        return self.factor * self.inner(x)

    def describe(self):
        return f"{self.factor:g}*({self.inner.describe()})"


@dataclass(frozen=True)
class ArgScale:
    factor: float
    inner: object

    def __call__(self, x):
        return self.inner(self.factor * x)


def value(node, x) -> float:
    """``node`` at ``x``, or ``inf`` where its arithmetic raises."""
    x = float(x)
    try:
        return node(x)
    except (ArithmeticError, ValueError):  # ValueError: math domain error
        return math.inf


_NUMBER = r"[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?"
_TERM = re.compile(rf"\s*(?:(?P<factor>{_NUMBER})\s*\*\s*)?(?P<name>mono|sine|envnoise)"
                   rf"\((?P<args>[^)]*)\)(?:\s*\*\s*(?P<post>{_NUMBER}))?\s*(?:\+|$)")


def parse(text: str):
    """The tree of a well-formed expression: terms joined by ``+``."""
    terms, pos = [], 0
    while pos < len(text):
        m = _TERM.match(text, pos)
        assert m is not None, text[pos:]
        args = [float(a) for a in m.group("args").split(",")]
        if m.group("name") == "mono":
            node = Mono(args[0], int(args[1]))
        elif m.group("name") == "sine":
            node = Sine(*args)
        else:
            node = EnvNoise(args[0], args[1], int(args[2]))
        factor = m.group("factor") or m.group("post")
        terms.append(node if factor is None else Scale(float(factor), node))
        pos = m.end()
    return terms[0] if len(terms) == 1 else Sum(tuple(terms))


def scaled(node, outer: float = 1.0, inner: float = 1.0):
    """``x -> outer * node(inner * x)``."""
    if inner != 1.0:
        node = ArgScale(inner, node)
    return node if outer == 1.0 else Scale(outer, node)


def limit(mode, phi, s: int, n: int, offset: float):
    """The n-th approximant of a route as a function of ``x``: ``limit_function``'s handle.

    Its ``value`` is ``inf`` wherever ``phi`` raises.  ``approximant_contract`` and
    ``approximant_expand`` apply the formula to that ``inf`` instead, as a table row does.
    """
    if mode is Mode.CONTRACT:
        return lambda x: 2.0**n * phi(2.0 ** (-n / s) * x)
    return lambda x: (phi(2.0 ** (n / s) * x) - offset) / 2.0**n


# -- powers, the modular and the control ---------------------------------------


def power(bases, exponent):
    """Builtin ``pow`` at each base: the values, ``nan`` where it raises, and those indices."""
    out, hit = [], []
    for i, b in enumerate(bases):
        try:
            out.append(pow(b, exponent))
        except ArithmeticError:  # out of range, 0.0 to a negative power
            out.append(math.nan)
            hit.append(i)
    return out, hit


def rho(spec, u: float) -> float:
    """The modular at ``u``; ``inf`` where ``u`` is not finite or the value overflows."""
    u = float(u)
    if not math.isfinite(u):
        return math.inf
    try:
        if spec.kind == "power":
            return abs(u) ** spec.p
        return math.expm1(abs(u))
    except OverflowError:
        return math.inf


def control(alpha, x: float, y: float, z: float) -> float:
    """The control at a triple: ``inf`` where a power overflows (``0`` for a zero control)."""
    if alpha.kind == "power":
        try:
            return alpha.theta * (abs(x) ** alpha.p + abs(y) ** alpha.p + abs(z) ** alpha.p)
        except OverflowError:
            return math.inf if alpha.theta else 0.0
    return alpha.eps


# -- the radical equation -------------------------------------------------------


def radical_root(t: float, s: int) -> float:
    """The real s-th root of ``t``, polished by one Newton step.

    Where ``r**s`` overflows, the step is taken as ``r - (r - |t| / r**(s-1))
    / s``, so every finite ``t`` has a finite root.
    """
    if s < 3 or s % 2 == 0:
        raise ValueError(f"radical_root needs an odd integer s >= 3, got {s}")
    t = float(t)
    if t == 0.0:
        return 0.0
    mag = abs(t)
    r = mag ** (1.0 / s)
    if math.isfinite(r) and r > 0.0:
        try:
            r -= (r**s - mag) / (s * r ** (s - 1))
        except OverflowError:  # r**s past the float range
            r -= (r - mag / r ** (s - 1)) / s
    return math.copysign(r, t)


def _powers(s: int, *coords: float) -> list[float]:
    # v**s for each coordinate; OverflowError where one is not a float.
    out = []
    for v in coords:
        try:
            pw = float(v) ** s
        except OverflowError:
            pw = math.inf
        if not math.isfinite(pw):
            raise OverflowError(f"{v!r}**{s} is not a float")
        out.append(pw)
    return out


def radical_combine(params, x: float, y: float, z: float) -> float:
    """The combined argument ``((x**s + y**s + z**s) / q) ** (1/s)``."""
    px, py, pz = _powers(params.s, x, y, z)
    return radical_root((px + py + pz) / params.q, params.s)


def defect(params, phi, spec, x: float, y: float, z: float) -> float:
    """Modular of the equation residual of ``phi`` at a triple; ``inf`` where ``x**s`` overflows."""
    try:
        w = radical_combine(params, x, y, z)
    except OverflowError:
        return math.inf
    residual = value(phi, x) + value(phi, y) + value(phi, z) - params.q * value(phi, w)
    return rho(spec, residual)


def pair_additivity_defect(phi, spec, s: int, x: float, y: float) -> float:
    """Modular of ``phi((x**s + y**s)**(1/s)) - phi(x) - phi(y)``; ``inf`` where a power overflows."""
    try:
        px, py = _powers(s, x, y)
    except OverflowError:
        return math.inf
    w = radical_root(px + py, s)
    return rho(spec, value(phi, w) - value(phi, x) - value(phi, y))


# -- the routes ------------------------------------------------------------------


def approximant_contract(phi, params, n: int, x: float) -> float:
    """n-th contract-route approximant ``2**n * phi(2**(-n/s) * x)``."""
    return 2.0**n * value(phi, 2.0 ** (-n / params.s) * x)


def approximant_expand(phi, params, n: int, x: float, offset: float | None = None) -> float:
    """n-th expand-route approximant ``(phi(2**(n/s)*x) - offset) / 2**n``.

    ``offset`` is ``q*phi(0)`` unless given.
    """
    if offset is None:
        offset = params.q * value(phi, 0.0)
    return (value(phi, 2.0 ** (n / params.s) * x) - offset) / 2.0**n


def fixed_point_iterate(phi, s: int, n: int, x: float) -> float:
    """``Lam**n(phi)(x) = phi(2**(n/s) * x) / 2**n``."""
    return value(phi, 2.0 ** (n / s) * x) / 2.0**n


def alpha_line(alpha, s: int, x: float) -> float:
    """The expand route's line ``alpha(x, x, -2**(1/s) x)``."""
    return control(alpha, x, x, -(2.0 ** (1.0 / s)) * x)


def contract_line(alpha, s: int, x: float) -> float:
    """The contract route's line ``alpha(x/2**(1/s), x/2**(1/s), -x)``."""
    return control(alpha, x / 2.0 ** (1 / s), x / 2.0 ** (1 / s), -x)


def series_sum(first: float, ratio: float) -> float:
    """A geometric series from ``first``: ``first / (1 - ratio)``, no finite sum at ratio >= 1."""
    if not ratio < 1.0:
        return 0.0 if first == 0.0 else math.inf
    return first / (1.0 - ratio)


def contraction(alpha, s: int, samples):
    """``estimate_contraction`` as a loop: worst sample, ``l_hat`` and samples skipped."""
    root = 2.0 ** (1.0 / s)
    l_hat, worst, skipped = -math.inf, None, 0
    for x in samples:
        denom = 2.0 * alpha_line(alpha, s, x)
        if denom <= 0.0:
            skipped += 1
            continue
        ratio = control(alpha, root * x, root * x, -(root * root) * x) / denom
        if ratio > l_hat:
            l_hat, worst = ratio, x
    return worst, l_hat, skipped


def audit_ratios(defects, alpha, triples) -> dict:
    """The audit's ratio step: each defect over the control at its triple."""
    max_defect, max_ratio, worst = 0.0, 0.0, triples[0]
    for d, (x, y, z) in zip(defects, triples):
        if d > max_defect:
            max_defect = d
        a = control(alpha, x, y, z)
        ratio = d / a if 0.0 < a < math.inf else (math.inf if d > 0.0 else 0.0)
        if ratio > max_ratio:
            max_ratio, worst = ratio, (x, y, z)
    return {"triples": len(triples), "max_defect": max_defect, "max_ratio": max_ratio,
            "worst_triple": worst, "hypothesis_ok": max_ratio <= 1.0 + 1e-9}


# -- samples ------------------------------------------------------------------------


def sample_points(grid) -> list[float]:
    """``function_sample_points``: the grid points and ``+-2**k`` for ``|k| <= 3``, in a set,
    sorted; of ``0.0`` and ``-0.0`` the set keeps the one the grid lists first."""
    ladder = [2.0**k for k in range(-3, 4)]
    return sorted({*grid.points(), *ladder, *(-v for v in ladder)})


def seeded_triples(lo: float, hi: float, count: int, seed: int):
    """``count`` triples drawn from ``[lo, hi]^3``, each coordinate converted on its own."""
    draws = np.random.default_rng(seed).uniform(lo, hi, size=(count, 3))
    return [(float(a), float(b), float(c)) for a, b, c in draws]


# -- the fixed-point gap window ----------------------------------------------------


def rho_hat_distance(f_values, g_values, denoms, spec) -> float:
    """Sampled function-space distance of ``f - g``: max of ``rho(f - g) / a`` from 0.

    Over the samples with control ``a > 0``; a non-finite difference is an
    infinite ratio.  With no such sample there is nothing to estimate
    (``ValueError``).
    """
    best, seen = 0.0, False
    for vf, vg, a in zip(f_values, g_values, denoms):
        if not a > 0.0:
            continue
        seen = True
        diff = vf - vg
        ratio = rho(spec, diff) / a if math.isfinite(diff) else math.inf
        if ratio > best:
            best = ratio
    if not seen:
        raise ValueError("the control vanished at every sample; nothing to estimate")
    return best


def window_stats(window, denoms, spec):
    """Gap history, quasi-contraction ratios and all-pairs gap of an iterate window."""
    gap_history, quasi = [], []
    for n in range(len(window) - 1):
        gap = rho_hat_distance(window[n + 1], window[n], denoms, spec)
        gap_history.append(gap)
        if n >= 1:
            d_fg = gap_history[n - 1]
            d_f_lf = gap_history[n - 1]
            d_g_lg = gap
            d_f_lg = rho_hat_distance(window[n - 1], window[n + 1], denoms, spec)
            denom = max(d_fg, d_f_lf, d_g_lg, d_f_lg)
            if denom > 0.0:
                quasi.append(gap / denom)
    delta_hat = 0.0
    for i in range(len(window)):
        for j in range(i + 1, len(window)):
            d = rho_hat_distance(window[i], window[j], denoms, spec)
            if d > delta_hat:
                delta_hat = d
    return gap_history, quasi, delta_hat


# -- the checks, each a running maximum over its points ------------------------------


def additivity(a, spec, s: int, grid, cap: int):
    """Worst pair and defect over every ``stride``-th pair of the square, ``n**2 / stride <= cap``."""
    pts = grid.points()
    n = len(pts)
    stride = -(-n * n // cap)
    worst, worst_at = -1.0, (pts[0], pts[0])
    for k in range(0, n * n, stride):
        x, y = pts[k // n], pts[k % n]
        d = pair_additivity_defect(a, spec, s, x, y)
        if d > worst:
            worst, worst_at = d, (x, y)
    return worst_at, worst


def oddness(a, spec, grid):
    worst, worst_at = rho(spec, value(a, 0.0)), 0.0
    for x in grid.points():
        d = rho(spec, value(a, x) + value(a, -x))
        if d > worst:
            worst, worst_at = d, x
    return worst_at, worst


def stability_bound(phi, a, spec, bounds, grid, shift=0.0):
    pts = grid.points()
    worst, worst_at = -math.inf, pts[0]
    for x, b in zip(pts, bounds):
        excess = rho(spec, value(phi, x) - shift - value(a, x)) - b
        if excess > worst:
            worst, worst_at = excess, x
    return worst_at, worst


def cross(a1, a2, spec, grid):
    worst, worst_at = -1.0, grid.lo
    for x in grid.points():
        d = rho(spec, value(a1, x) - value(a2, x))
        if d > worst:
            worst, worst_at = d, x
    return worst_at, worst
