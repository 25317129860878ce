"""Classification of Boolean functions modulo Reed-Muller codes under the
affine general linear group, with applications: class-number tables, a
near-bent census, and covering-radius bounds from randomized coset searches.
"""

__version__ = "0.1.0"

from .errors import (
    RmclassError,
    InvalidInputError,
    DependencyMissingError,
    ResourceRefusedError,
    InternalConsistencyError,
)
from .bfcore import (
    BooleanFunction,
    mobius,
    walsh,
    is_near_bent,
)
from .group import (
    AffineMap,
    SubgroupOracle,
    act,
    generators_stu,
    group_order,
    random_affine,
    subgroup_order,
)
from .classify import (
    BoundaryAction,
    ClassRecord,
    OrbitSet,
    classify_levels,
    classify_space,
    descend,
    generator_set,
    orbit_enumerate,
    stab_histogram,
    stab_order_from_class_formula,
)
from .census import (
    burnside_count,
    duality_check,
    near_bent_census,
    table_render,
)
from .covrad import (
    TrialReport,
    covering_radius_bound,
    distance,
    exact_coset_min_weight,
    exact_covering_radius_rm1,
    pivoting,
    reduce,
    rm_generator_matrix,
)
