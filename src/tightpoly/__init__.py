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
    kill_generators,
    lambda_k_presentation,
    parse_presentation,
    write_presentation,
)
from .toddcox import (
    CosetTable,
    PermRep,
    enumerate_cosets,
    group_order,
    perm_rep,
    regular_rep,
)
from .engine import element_order
from .sggi import SggiProfile, profile
from .poset import FacePoset, FlagSystem, NotEquivelar, PosetReport, build_poset
from .families import (
    FamilyVerdict,
    OeoReport,
    check_fap,
    oeo_permutation_rep,
    subgroup_2_check,
    verify_gamma_family,
    verify_lambda_family,
)
from .classifier import CensusRecord, census_nonorientable, classify_tight, low_index_normal
from .atlas import ATLAS_SCHEMA_VERSION, AtlasEntry, admissible_tuples, load_atlas

__version__ = "0.1.0"
