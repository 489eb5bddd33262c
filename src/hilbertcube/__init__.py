"""Exact-arithmetic homeomorphisms of the Hilbert cube.

Construct a certified plan moving any point to any other, evaluate the plan
and its inverse anywhere with exact error radii, and inspect the piecewise
affine twist maps the construction is built from.
"""

from .cube import (
    ORIGIN,
    BoundaryProfile,
    PointRep,
    cell_metric,
    classify_point,
    epsilon,
    make_point,
    metric_d,
)
from .errors import (
    AnchorOnBoundary,
    BadIndices,
    CubeError,
    DegeneratePair,
    EmptySampleSet,
    HorizonExceeded,
    MultiplePreimages,
    NoPreimage,
    OutOfRange,
    ParseError,
    RangeViolation,
    Unclassifiable,
)
from .homogeneity import (
    DEFAULT_HORIZON,
    EvalInfo,
    HomeoPlan,
    PlanCase,
    plan_eval,
    plan_eval_info,
    plan_inverse_eval,
    plan_inverse_eval_info,
    plan_report,
    solve,
    verify_plan,
)
from .interior import (
    InteriorMapParams,
    interior_map_eval,
    interior_map_inverse,
    lipschitz_bound,
)
from .limits import (
    CertifiedPoint,
    Schedule,
    build_schedule,
    final_coordinate,
    first_attempt_partial,
    forward_partial_eval,
    forward_tail_bound,
    h_eval,
    h_inverse_eval,
    reverse_partial_eval,
    reverse_tail_bound,
    schedule_budget_ok,
)
from .render import RenderSpec, render_svg
from .serialize import parse_plan, parse_point_spec, parse_rational
from .twists import (
    CellMap,
    ErrataReport,
    Finding,
    MapKind,
    Variant,
    lipschitz_sample_check,
    matching_regions,
    piece_inverse_oracle,
    piece_value,
    twist_cell_apply,
    twist_diagnostics,
    twist_eval,
    twist_eval_unchecked,
)

__version__ = "0.1.0"
