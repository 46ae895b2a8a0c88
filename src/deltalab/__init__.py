"""deltalab: exact exponent calculus for derivative-test bounds on
character sums, with a numerical verification lab.

Subpackages by capability:

    exponents    exact-rational recursion for higher-order derivative tests
    monomials    symbolic max-of-monomials algebra and the scripted bound
                 derivation with frozen regression constants
    characters   real primitive characters, Gauss sums, L(1), L'(1),
                 residue main terms
    tables       sieved convolution functions, cutoff splits, divisor-sum
                 asymptotics, short-interval prime counts
    delta        exact triple character sums, exponential sums, fitting
    feasibility  exact (theta, r) parameter condition
    verify       the deterministic invariant suite behind verify-all
    cli          the deltalab command
"""

__version__ = "0.1.0"

from .characters import (  # noqa: F401
    RealCharacter,
    gauss_sum,
    kronecker,
    l_one,
    l_one_derivative,
    make_character,
    residue_main_term,
)
from .delta import DeltaSample, bound_check, exp_sum, exponent_fit, triple_delta  # noqa: F401
from .exponents import ExponentTuple, base_tuple, bound_eval, derive_tuple, step  # noqa: F401
from .feasibility import check, claim_report, minimal_r  # noqa: F401
from .monomials import (  # noqa: F401
    BoundExpr,
    Monomial,
    balance,
    derive_main_theorem,
    dominant_simplify,
    eliminate_bounded,
    evaluate,
    mono,
    mul,
    substitute,
)
from .tables import (  # noqa: F401
    CountReport,
    FunctionTable,
    asymptotic_residual,
    divisor_sum,
    psi_counts,
    sieve_tables,
    tau_moment_bound,
    verify_table_identities,
)
