"""Tight regular polytopes: constructions, verification, and census tools."""

from .errors import (
    AdjacentOddPair,
    BudgetExceeded,
    CapExceeded,
    DiamondViolation,
    InvariantViolation,
    NotAdmissible,
    PreconditionViolated,
    PresentationParseError,
    RelatorViolation,
    RouteDisagreement,
    TightpolyError,
)
from .words import (
    Admissibility,
    Presentation,
    Word,
    coxeter_presentation,
    gamma_pq_presentation,
    gamma_tuple_presentation,
    is_admissible,
    lambda_k_presentation,
    parse_presentation,
    write_presentation,
)
from .engine import PermRep, element_order
from .toddcox import (
    CosetTable,
    enumerate_cosets,
    group_order,
    perm_rep,
    regular_rep,
)
from .sggi import SggiProfile, profile
from .poset import FacePoset, FlagSystem, NotEquivelar, PosetReport, build_poset
from .families import FamilyVerdict, verify_gamma_family
from .classifier import CensusRecord, census_nonorientable, classify_tight, low_index_normal
from .atlas import ATLAS_SCHEMA_VERSION, AtlasEntry, admissible_tuples, load_atlas

__version__ = "0.1.0"
