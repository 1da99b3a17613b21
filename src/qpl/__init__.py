"""Exact machinery for pairs of integral quaternary quadratic forms:
resolvent quartics and their invariants, the group action and its
stabilizers, irreducibility and local solubility tests, squarefree-sieve
normal forms, and the counting/LP utilities built on top of them.
"""

__version__ = "0.1.0"

from .arith import DegenerateInput, PreconditionError, QplError
from .quartic import (BinaryQuartic, compose_row, disc_via_resultant,
                      quartic_invariants, rational_linear_factor, roots_mod_p)
from .forms import (COORD_NAMES, GroupElement, InvariantPair, PairOfQuadrics,
                    act, invariants, is_strongly_irreducible,
                    reducibility_case, resolvent_quartic,
                    twist_identity_check)
from .realgeom import is_R_soluble, real_class, representative_L
from .localfp import (FpCurve, SolubilityVerdict, curve_four_torsion,
                      curve_from_invariants, fp_points_on_intersection,
                      jacobian_four_torsion, qp_soluble,
                      stabilizer_order_fp)
from .sieve import (apply_gamma_p, gamma_p, in_Wp, in_Wp1, in_Wp2,
                    normalize_Wp2, random_wp2_instance, sieve_scan,
                    verify_gamma_descent)
from .counting import (CountReport, DavenportReport, HAAR_EXPONENTS,
                       coordinate_weight, count_invariant_pairs,
                       davenport_check, enumerate_curves, scan_box,
                       verify_sibound_products, weight_table)
from .selmer import (LPResult, SelmerShape, extremal_bound,
                     pointwise_inequality, solve_equality_lp)
