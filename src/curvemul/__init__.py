"""curvemul: symmetric multiplication formulas for finite-field extensions.

Builds, verifies, composes, and certifies symmetric bilinear multiplication
formulas for F_(q^n)/F_q by interpolation on genus-0 and genus-1 function
fields, and evaluates the exact, conditional, and asymptotic symmetric-rank
bounds down to the published comparison table.
"""

from .gf import (FieldTower, FieldElement, Polynomial, prime_field, extension,
                 canonical_extension, find_irreducible, embed, lift)
from .function_field import (ProjectiveLine, EllipticCurve, Place, Divisor,
                             RRBasis, place_divisor, curve_search)
from .ccma import (SymmetricBilinearFormula, construct_case1, construct_case3,
                   compose, verify, brute_force_symmetric_rank, quadratic_formula,
                   save_formula, load_formula)
from .bounds import (BoundCertificate, AsymptoticRecord, epsilon, exact_small,
                     rank_floor, theorem2_bounds, best_bound, asymptotic_bounds, cacr_bounds,
                     comparison_table, render_comparison_table, witness_degree,
                     drinfeld_vladut)

__version__ = "0.1.0"
