"""Exact symbolic computation for F-algebroids and their deformations.

The library verifies the defining identities of commutative associative
algebroids, Lie algebroids, F-algebroids, pre-Lie algebroids and pre-F
algebroids over rational-function coefficients, and constructs derived
objects: eventual-identity duals, Nijenhuis deformations, formal
deformations with their semi-classical limits and obstructions, and
commuting hierarchies of hydrodynamic flows.
"""

from .algebroid import (
    LAWS,
    AlgebroidPresentation,
    Section,
    VectorField,
    check_comm_assoc,
    check_f_algebroid,
    check_laws,
    check_lie_algebroid,
    check_pre_f,
    check_pre_lie_algebroid,
    check_prelie_com,
    find_identity,
    sub_adjacent,
)
from .constructions import (
    ActionSpec,
    FiniteAlgebra,
    action_f_algebroid,
    action_pre_f,
    direct_product,
    fixture_names,
    load_fixture,
)
from .deformation import (
    FormalDeformation,
    MultiDer,
    check_n_deformation,
    cohomology_point,
    equivalence_check,
    extend,
    obstruction,
    semiclassical_limit,
)
from .duality import (
    BundleMap,
    DualityCertificate,
    deform_by_nijenhuis,
    dubrovin_dual,
    ev_identity_closure,
    is_nijenhuis,
    is_pre_f_eventual_identity,
    is_pseudo_eventual_identity,
    nijenhuis_deformation,
    nijenhuis_from_eventual,
    pre_f_dual,
    verify_certificate,
)
from .errors import FalgError
from .exprparse import parse_expr, parse_presentation, presentation_to_document, print_expr
from .hierarchy import (
    Connection,
    HierarchyData,
    HydroFlow,
    check_flat_condition,
    eventual_identity_flows,
    flow_from_section,
    flows_commute,
    jet_names,
    principal_hierarchy,
    total_x,
)
from .report import Check, Report
from .ring import Poly, RatFunc

__version__ = "0.1.0"
