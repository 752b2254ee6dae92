"""Finite closure operators, pregeometries and ternary independence
relations, with exhaustive axiom checking at desk scale."""

from .axioms import AxiomId, AxiomReport, Comparison, Goal, check_all, check_axiom, compare
from .closure import (
    ClosureOperator,
    ExchangeFailure,
    LawViolation,
    Pregeometry,
    has_exchange,
    trivial_closure,
)
from .geometry import basis_of, brute_dim_oracle, check_modular
from .instances import Graph, Instance, OrderedConfig, catalog, parse_instance
from .lattice import GroundSet, format_mask, parse_mask
from .relcalc import (
    CapExceeded,
    TernaryRelation,
    closure_extend_c,
    materialize,
    monotonise_M,
    monotonise_m,
    opposite,
    rel_a,
    rel_cl,
    rel_intersection,
)
from .verify import SUITES, SuiteResult, run_suite

__version__ = "0.1.0"

__all__ = [
    "AxiomId",
    "AxiomReport",
    "CapExceeded",
    "ClosureOperator",
    "Comparison",
    "ExchangeFailure",
    "Goal",
    "Graph",
    "GroundSet",
    "Instance",
    "LawViolation",
    "OrderedConfig",
    "Pregeometry",
    "SUITES",
    "SuiteResult",
    "TernaryRelation",
    "basis_of",
    "brute_dim_oracle",
    "catalog",
    "check_all",
    "check_axiom",
    "check_modular",
    "closure_extend_c",
    "compare",
    "format_mask",
    "has_exchange",
    "materialize",
    "monotonise_M",
    "monotonise_m",
    "opposite",
    "parse_instance",
    "parse_mask",
    "rel_a",
    "rel_cl",
    "rel_intersection",
    "run_suite",
    "trivial_closure",
]
