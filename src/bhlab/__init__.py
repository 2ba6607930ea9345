"""Desk-scale numerics for averaged prime-counting sums over polynomial
families: truncated singular series, Bonferroni sieve weights with
neutralised sandwich bounds, exact residue-family identities, progression
error terms, and the family second-moment decomposition."""

# budgets comes first: it pins OpenBLAS to one thread before numpy loads
from .budgets import BudgetError
from .arith import (chebyshev_psi, euler_phi, is_prime_u64, mobius,
                    omega_distinct, phi_table, primorial, sieve_primes,
                    von_mangoldt, von_mangoldt_table)
from .eulerprod import (full_reference_product, nondiagonal_phi_sum,
                        reference_product, totient_ratio_sums,
                        truncated_bh_constant)
from .identities import (by_root_count, multiplicative_average,
                         omega_moment, residue_root_count,
                         squared_factor_sum)
from .moments import (MomentReport, ap_error, bv_average, diagonal_term,
                      lambda_terms, negative_part, nondiagonal_term, psi,
                      psi_abs, second_moment, theta)
from .poly import (FamilySpec, IntPolynomial, eval_poly, iter_family,
                   roots_count_mod_prime, roots_count_mod_squarefree,
                   traverse_family)
from .sieve import (SieveWeights, build_brun_weights, density_product,
                    neutralised_bounds, sandwich_check, sieve_sum,
                    truncated_density_product)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
