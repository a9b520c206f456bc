"""Exact verification of q-deformed top-to-random annihilation identities.

The package builds three views of the same element and checks that
they agree, with integer and polynomial arithmetic throughout:

* :mod:`qshuffle.hecke`: the type A Iwahori-Hecke algebra over Z[q],
  the element tau, and the vanishing product of (tau - [k]_q) factors;
* :mod:`qshuffle.flagmodel`: convolution of GL-invariant functions on
  pairs of complete flags over F_q, the functions f_t, their product
  rule, factorization, span, and structure constants;
* :mod:`qshuffle.spectral`: eigenvalue multiplicities of the tau
  action, proven from the annihilator and an elimination mod p in each
  irreducible representation of :mod:`qshuffle.seminormal`.

The command line entry point lives in :mod:`qshuffle.cli`.
"""

from .polyring import ONE, Poly, Q, ZERO, q_int
from .symgroup import Perm, cycle_element, enumerate_perms
from .hecke import (
    HeckeElt,
    group_mul,
    left_mult_matrix,
    mul,
    tau,
    wallach_group_product,
    wallach_product,
)
from .flagmodel import (
    FLAG_BUDGET,
    BudgetExceeded,
    Flag,
    OrbitFn,
    Subspace,
    check_orbit_representatives,
    compare_structure_constants,
    convolve,
    enumerate_flags,
    f1,
    f_t,
    flag_count,
    in_x_t,
    relative_position,
    representative_pair,
    verify_factorization,
    verify_lemma3,
    verify_span_commutativity,
)
from .spectral import (
    CertificateError,
    multiplicity,
    rank,
    rank_mod,
    tau_matrix,
    verify_multiplicities,
)
from .report import CheckResult

__version__ = "0.1.0"

__all__ = [
    "Poly", "Q", "ONE", "ZERO", "q_int",
    "Perm", "cycle_element", "enumerate_perms",
    "HeckeElt", "mul", "tau", "wallach_product", "group_mul", "wallach_group_product",
    "left_mult_matrix",
    "FLAG_BUDGET", "BudgetExceeded", "Subspace", "Flag",
    "flag_count", "enumerate_flags", "relative_position", "representative_pair",
    "OrbitFn", "f1", "f_t", "in_x_t", "convolve",
    "verify_lemma3", "verify_factorization", "verify_span_commutativity",
    "compare_structure_constants", "check_orbit_representatives",
    "CertificateError", "rank", "rank_mod", "tau_matrix", "multiplicity",
    "verify_multiplicities",
    "CheckResult",
    "__version__",
]
