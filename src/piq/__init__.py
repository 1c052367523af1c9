"""piq: exact-arithmetic prover for identities among the Gosper constants.

The package reduces each candidate identity to a finite coefficient check
justified by modular-form theory: Pi-monomials convert to eta quotients with
known weight, level, and exact cusp orders, Lambert sums reduce to certified
Eisenstein combinations, and Sturm's criterion turns holomorphy plus finitely
many matching coefficients into a proof.
"""

from .errors import (
    InsufficientPrecision,
    LevelMismatch,
    NoFitWithinBounds,
    NonRootLeadingCoefficient,
    NotAnEtaQuotient,
    NotInvertible,
    NotPolynomializable,
    NotWeightZero,
    ParseError,
    PiqError,
    PreconditionViolated,
    SemanticError,
    Unbounded,
)
from .series import ScaledSeries, eta_expansion, psi_expansion
from .etaq import (
    Cusp,
    EtaQuotient,
    ModularityFacts,
    PiMonomial,
    cusps,
    cusps_equivalent,
    index_gamma0,
    modularity_facts,
    order_at_cusp,
    pi_order_at_cusp,
    pi_to_eta,
)
from .quasimod import (
    E2Combo,
    E4Combo,
    LambertSpec,
    e2_split_rule,
    expand_lambert,
    is_modular_combo,
    reduce_atom,
    sigma,
    split_rule,
)
from .ident import (
    IdentityRecord,
    evaluate_to_bound,
    parse,
    parse_corpus,
    parse_expression,
    parse_identity,
    to_dsl,
)
from .linalg import RationalMatrix, kernel_basis
from .verify import Certificate, ProofReport, ProveConfig, check, prove, root_match, sturm_bound
from .discover import DiscoveredRelation, DiscoveryQuery, enumerate_monomials, gosper_bound, mine
from .haupt import HauptFit, cusp_table, fit_rational, haupt_candidate_check

__version__ = "0.1.0"


def corpus_path() -> str:
    """Filesystem path of the shipped identity corpus."""
    from importlib import resources

    return str(resources.files("piq") / "corpus" / "gosper.piq")


def load_corpus() -> list[IdentityRecord]:
    """Parse and return the shipped identity corpus."""
    with open(corpus_path(), "r", encoding="utf-8") as fh:
        return parse_corpus(fh.read())
