"""Cube-capacity upper bounds and the combinatorial obstruction search.

Run:  python demos/03_cube_bounds_and_obstruction.py
"""

from fractions import Fraction as F

from toricap import (
    cube_bound,
    finite_d_bound,
    format_orbit_set,
    obstruction_search,
    omega_a,
    parse_orbit_set,
    square_polygon,
)

om = omega_a(F(3, 10))

# When the boundary chain leaves and meets the axes at least diagonally,
# half the sum of the intercepts bounds the cube capacity from above.
print(f"cube bound for the a = 3/10 polygon: {cube_bound(om)}")
print("finite-degree certified bounds, shrinking toward the closed form:")
for d in (3, 9, 30, 90, 300):
    print(f"  d = {d:>3}: {finite_d_bound(om, d)}")
print()

# Feasible case: for the identity embedding, the search recovers the
# test set itself as a witness decomposition.
alpha = parse_orbit_set("e(1,1)")
report = obstruction_search(om, om, alpha, vmax=3, lmax=3)
print(f"identity embedding, test set {format_orbit_set(alpha)}:")
print(f"  status  = {report.status.value}")
print(f"  witness = {format_orbit_set(report.witness.alpha)}")
print()

# Infeasible case: the half cube cannot embed into the a = 3/10 domain.
# At degree 30 the finite-degree bound is 8/19 < 1/2, which certifies it.
# The search closes every decomposition into at most lmax = 3 factors
# without touching the direction bound; decompositions into more factors
# are not searched, so its claim holds within these limits only (at
# degree 3, lmax = 8 turns the same search Inconclusive).
alpha = parse_orbit_set("e(1,-1)^30 * e(-1,1)^30 * e(1,1)^2")
report = obstruction_search(square_polygon(F(1, 2)), om, alpha, vmax=3, lmax=3)
print(f"half cube into the a = 3/10 polygon, test set degree 30:")
print(f"  status          = {report.status.value}")
print(f"  obstructed size = {report.obstructed_a}")
b = report.bounds_used
print(f"  factor shapes considered = {b.candidate_factors}, "
      f"closed by the action/index inequality = {b.factors_pruned}")
print(f"  direction enumerations needed = {b.enumerations_run}")
