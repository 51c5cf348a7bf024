"""
The fixed-point route: contraction of a scaling operator
========================================================

Instead of taking a limit of rescaled evaluations directly, view the
rescaling as an operator on function space,

    Lam(g)(x) = g(2^(1/s) * x) / 2,

whose fixed points include every exact solution c*x^s.  Measuring distances
relative to the control function alpha (the induced modular: the smallest
lambda with rho(g(x)) <= lambda * alpha(x, x, -2^(1/s)x) for all x) turns
Lam into a strict contraction whenever

    alpha(2^(1/s)x, 2^(1/s)x, -2^(2/s)x) <= 2 L alpha(x, x, -2^(1/s)x)

holds with L < 1.  Iterating from the perturbed map then converges
geometrically, with final error at most alpha(x, x, -2^(1/s)x) / (2(1-L)),
provided the defect of the perturbed map stays within alpha: the route is
gated on an audit of that hypothesis on sample triples.
"""

import numpy as np

from modstab import (
    ControlFunction,
    EquationParams,
    Grid,
    ModularSpec,
    Mode,
    audit_defects,
    audit_ratios,
    construct_limit,
    control_eval_many,
    corner_triples,
    cross_check,
    estimate_contraction,
    fixed_point_solve,
    parse_expression,
    route_ratio,
    seeded_triples,
    standard_ladder,
    verify_stability_bound,
)

rho = ModularSpec.power(1)
params = EquationParams(s=3, q=1.0)
grid = Grid(-10, 10, 41)
phi = parse_expression("mono(1,3) + mono(0.01,1)")
alpha = ControlFunction.power(0.02, 1.0)

# The contraction factor for a power control is L = 2^(p/s)/2, the expand
# route's series ratio, independent of x: route_ratio gives it in closed form
# and the fixed-point route is gated on it.  The sampled estimate below is an
# independent cross-check of that number, not a gate.
L = route_ratio(Mode.EXPAND, alpha, params.s)
samples = standard_ladder(-3, 3) + [-v for v in standard_ladder(-3, 3)]
cert = estimate_contraction(alpha, params.s, samples)
print(f"contraction factor L = {L:.12g}; sampled cross-check {cert.l_hat:.12g} "
      f"(valid: {cert.valid}, checked {cert.samples_checked} samples)")

# The defect hypothesis defect(x, y, z) <= alpha(x, y, z), audited on 500
# seeded triples in the grid box plus its corners; a refuted audit makes
# fixed_point_solve raise instead of iterating.  The defects do not read
# alpha, so one audit_defects array serves every control compared with it.
triples = np.array(seeded_triples(grid.lo, grid.hi, 500, seed=0)
                   + corner_triples(grid.lo, grid.hi))
audit = audit_ratios(audit_defects(phi, params, rho, triples),
                     control_eval_many(alpha, *triples.T), triples)
print(f"\ndefect audit over {audit['triples']} triples: largest defect/alpha "
      f"{audit['max_ratio']:.6f} (hypothesis holds: {audit['hypothesis_ok']})")

res = fixed_point_solve(phi, params, rho, alpha, grid, tol=1e-9, audit=audit)
print(f"converged after {res.iterations} iterations; "
      f"final sampled gap {res.rho_hat_gap:.3e}")

print("\ngap decay (each step multiplies by ~L):")
for n, (g0, g1) in enumerate(zip(res.gap_history, res.gap_history[1:])):
    if n % 8 == 0 and g0 > 0:
        print(f"  step {n:2d} -> {n+1:2d}: gap {g0:.6e} -> {g1:.6e} "
              f"(ratio {g1/g0:.9f})")

worst = max(abs(v - x**3) for v, x in zip(res.values, grid.points()))
print(f"\nmax |iterate - x^3| on the grid: {worst:.3e}")
check = verify_stability_bound(phi, res.function, rho, res.bound, grid)
print(f"final-error bound alpha(x,x,-2^(1/s)x)/(2(1-L)) holds at every "
      f"grid point: {check.passed}")

# Diagnostics: the five-distance contraction ratio stays under L, and the
# largest pairwise iterate distance over the window is finite.
print(f"five-distance contraction ratio (max over run): "
      f"{max(res.quasi_contraction):.6f}")
print(f"largest pairwise iterate distance over the window: "
      f"{res.delta_hat_window:.6f}")

# Uniqueness in practice: the expand-route limit and the fixed-point limit
# are the same function.
t2 = construct_limit(Mode.EXPAND, phi, params, rho, grid, tol=1e-9)
agree = cross_check(t2.function, res.function, rho, grid)
print(f"\nexpand-route limit agrees with fixed-point limit: {agree.passed} "
      f"(worst gap {agree.worst_value:.3e})")
