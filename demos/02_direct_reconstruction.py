"""
Reconstructing an exact radical mapping by rescaled limits
==========================================================

Exact solutions of

    phi(x) + phi(y) + phi(z) = q * phi(((x^s + y^s + z^s)/q)^(1/s))

are the maps c*x^s.  Perturb one and the equation picks up a defect; as long
as the defect stays under a control function alpha, the exact solution can
be rebuilt as a limit of rescaled evaluations of the perturbed map, and the
distance between the two is bounded by an explicit geometric series in alpha.

Two dual routes exist.  Contracting the argument (and scaling the value up)
converges when the control decays fast at the origin; expanding the argument
(and scaling down) converges when it grows slowly at infinity.
"""

import math

import numpy as np

from modstab import (
    ControlFunction,
    EquationParams,
    Grid,
    ModularSpec,
    Mode,
    construct_limit,
    contract_bound_closed_form,
    parse_expression,
    route_bounds,
    route_line,
    route_ratio,
    verify_oddness,
    verify_radical_additivity,
    verify_stability_bound,
)

rho = ModularSpec.power(1)
params = EquationParams(s=3, q=1.0)
grid = Grid(-10, 10, 41)

# --- expand route: sine perturbation, constant control --------------------
phi = parse_expression("mono(1,3) + sine(0.1,1)")
res = construct_limit(Mode.EXPAND, phi, params, rho, grid, tol=1e-9)
worst = max(abs(v - x**3) for v, x in zip(res.values, grid.points()))
print("expand route, phi = x^3 + 0.1 sin x")
print(f"  converged at n = {res.achieved_n}, max |A - x^3| = {worst:.3e}")

# The bound at every grid point: the control along the route's line, summed
# as a geometric series with the route's term ratio.
alpha = ControlFunction.constant(0.1)
bounds = route_bounds(Mode.EXPAND, None, route_ratio(Mode.EXPAND, alpha, params.s),
                      route_line(Mode.EXPAND, alpha, params.s, grid.point_array))
check = verify_stability_bound(phi, res.function, rho, bounds, grid)
print(f"  error bound {bounds[0]:.6g} dominates |phi - A|: {check.passed} "
      f"(worst slack {check.worst_value:.3e})")

# The reconstruction really satisfies the equation's structure again.
for out in (verify_radical_additivity(res.function, rho, params.s, grid),
            verify_oddness(res.function, rho, grid)):
    print(f"  {out.name}: passed = {out.passed} (worst {out.worst_value:.3e})")

# --- contract route: sixth-power envelope, power control ------------------
phi6 = parse_expression("mono(1,3) + mono(0.004,6)")
res6 = construct_limit(Mode.CONTRACT, phi6, params, rho, grid, tol=1e-9)
worst6 = max(abs(v - x**3) for v, x in zip(res6.values, grid.points()))
print("\ncontract route, phi = x^3 + 0.004 x^6")
print(f"  converged at n = {res6.achieved_n}, max |A - x^3| = {worst6:.3e}")

# The bound series is geometric: first term / (1 - ratio).  For power
# controls it can also be written out in theta, p, s and tau; compare at x = 1.
alpha6 = ControlFunction.power(0.016, 6.0)
tau = rho.delta2_tau
ratio6 = route_ratio(Mode.CONTRACT, alpha6, params.s, tau)
(series,) = route_bounds(Mode.CONTRACT, tau, ratio6,
                         route_line(Mode.CONTRACT, alpha6, params.s, np.array([1.0])))
closed = contract_bound_closed_form(alpha6.theta, alpha6.p, params.s, tau, 1.0)
print(f"  series bound at x=1: {series:.12g} (ratio {ratio6:g})")
print(f"  closed form at x=1:  {closed:.12g}")

# --- where the routes stop working ----------------------------------------
# The expand route needs p < s: at p = 6 > 3 the term ratio is 2^(p/s)/2 = 2.
bad = route_ratio(Mode.EXPAND, alpha6, params.s)
(bound,) = route_bounds(Mode.EXPAND, None, bad,
                        route_line(Mode.EXPAND, alpha6, params.s, np.array([1.0])))
print("\nexpand route with p = 6 > s = 3:")
print(f"  converged = {bad < 1}, term ratio = {bad:g} "
      "(no bound exists; the library refuses to emit one)")
assert math.isinf(bound)
