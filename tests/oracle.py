"""The exact-solution oracle: a report's routes against ``c*x**s``, in 200-bit mpmath.

The radical equation is solved exactly by ``A(x) = c*x**s`` for every ``q``:
both sides equal ``c*(x**s + y**s + z**s)``.  Every ``phi`` the tests build
is ``mono(c,s)`` plus a perturbation, so the exact radical mapping each
route reconstructs is known in closed form, and ``c`` is the sum of the
``mono(c,s)`` coefficients of ``phi``.

The oracle reads a report as its canonical JSON parses (a committed golden,
or ``json.loads(canonical_json(report))`` of a run), evaluates ``phi`` on the
expression tree of ``reference.parse`` and the modular in mpmath at 200 bits,
and takes every reported float as the exact number it is.  Like
``tests/reference.py``, it calls no modstab code (``tests/test_reference.py``
checks that).
"""

from __future__ import annotations

import mpmath

import reference as ref

__all__ = ["PREC", "Route", "routes", "exact_coefficient", "phi_exact", "rho_exact",
           "bound_violations", "relative_errors"]

PREC = 200  # bits


def _mpf(v) -> mpmath.mpf:
    # A report prints a non-finite float as the string "inf", "-inf" or "nan".
    return mpmath.mpf(float(v))


def phi_exact(node, x: mpmath.mpf) -> mpmath.mpf:
    """``node`` (a ``reference.parse`` tree) at ``x``, at the working precision."""
    if isinstance(node, ref.Mono):
        return _mpf(node.coeff) * x**node.power
    if isinstance(node, ref.Sine):
        return _mpf(node.amplitude) * mpmath.sin(_mpf(node.frequency) * x)
    if isinstance(node, ref.EnvNoise):
        return (_mpf(node.amplitude) * abs(x) ** _mpf(node.exponent)
                * mpmath.cos(_mpf(node.freq) * x + _mpf(node.phase)))
    if isinstance(node, ref.Sum):
        return mpmath.fsum(phi_exact(t, x) for t in node.terms)
    if isinstance(node, ref.Scale):
        return _mpf(node.factor) * phi_exact(node.inner, x)
    raise TypeError(f"no exact evaluation for {node!r}")


def exact_coefficient(node, s: int) -> mpmath.mpf:
    """``c``: the sum of the ``mono(c, s)`` coefficients of ``node``."""
    if isinstance(node, ref.Mono):
        return _mpf(node.coeff) if node.power == s else mpmath.mpf(0)
    if isinstance(node, ref.Sum):
        return mpmath.fsum(exact_coefficient(t, s) for t in node.terms)
    if isinstance(node, ref.Scale):
        return _mpf(node.factor) * exact_coefficient(node.inner, s)
    return mpmath.mpf(0)


def rho_exact(spec: str, u: mpmath.mpf) -> mpmath.mpf:
    """The modular ``spec`` (``"exp"`` or ``"power:p=..."``) at ``u``."""
    if spec == "exp":
        return mpmath.expm1(abs(u))
    kind, _, p = spec.partition(":p=")
    assert kind == "power", spec
    return abs(u) ** _mpf(p)


class Route:
    """What the oracle reads of one route that ran to its checks: ``phi``, the modular,
    ``tol``, the route's ratio, its verdicts, its shift and its per-point rows."""

    def __init__(self, report: dict, method: str):
        cfg, section = report["config"], report["methods"][method]
        self.method, self.s, self.spec, self.tol = method, cfg["s"], cfg["modular"], cfg["tol"]
        self.phi = ref.parse(cfg["phi"])
        body = section.get("limit") or section["iteration"]
        self.saturated = body["saturated"]
        self.points = [{k: _mpf(v) for k, v in row.items()} for row in body["points"]]
        self.certified = {c["name"]: c["passed"] for c in section["checks"]}["stability_bound"]
        regime = section["regime"]
        self.ratio = regime["ratio"] if "ratio" in regime else regime["l_hat"]
        with mpmath.workprec(PREC):
            self.shift = (_mpf(cfg["q"]) * phi_exact(self.phi, mpmath.mpf(0))
                          if method == "t2" else mpmath.mpf(0))


def routes(report: dict) -> list[Route]:
    """Every route of ``report`` that ran to its checks."""
    return [Route(report, m) for m, sec in report.get("methods", {}).items() if "checks" in sec]


def bound_violations(route: Route) -> list[tuple[float, float, float]]:
    """``(x, rho(phi(x) - shift - c*x**s), bound)`` at each point where the bound fails."""
    out = []
    with mpmath.workprec(PREC):
        c = exact_coefficient(route.phi, route.s)
        for row in route.points:
            x = row["x"]
            dist = rho_exact(route.spec, phi_exact(route.phi, x) - route.shift - c * x**route.s)
            if not dist <= row["bound"]:
                out.append((float(x), float(dist), float(row["bound"])))
    return out


def relative_errors(route: Route) -> list[float]:
    """``|value - c*x**s| / (1 + |c*x**s|)`` at each point, rounded to floats."""
    out = []
    with mpmath.workprec(PREC):
        c = exact_coefficient(route.phi, route.s)
        for row in route.points:
            exact = c * row["x"] ** route.s
            out.append(float(abs(row["value"] - exact) / (1 + abs(exact))))
    return out
