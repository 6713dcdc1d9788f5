"""Composite pulse sequences for systematic single-qubit control errors.

Build and simulate the pi/3-style correction sequences and the b2/b4
compensators at configurable precision, track error orders symbolically
with the min-plus calculus, and verify orders numerically with scans,
slope fits, and series coefficients from truncated power series.
"""

from .precision import set_digits, working_digits
from .su2 import (
    BranchError,
    ErrorVector,
    InvalidAxisError,
    Unitary,
    dagger,
    error_unitary,
    from_generator,
    infidelity,
    log_pauli,
    multiply,
    state_fidelity_error,
    trace_components,
)
from .sequences import (
    DslError,
    FrameOf,
    FrameTriad,
    Pulse,
    PulseSequence,
    Role,
    SequenceError,
    b2,
    b4,
    build_builtin,
    evaluate,
    naive,
    parse,
    parse_target,
    pi3_correct,
    pi5_sequence,
    serialize,
    symmetrize,
    target_pulse,
    total_angle,
)
from .error_models import (
    AxisDependentPi3,
    AxisOverRotation,
    CovariantVector,
    ErrorModel,
    LinearOverRotation,
    ModelConfigError,
    PerChannel,
    parse_model,
)
from .orders import (
    AXES,
    INFINITY,
    DeltaOrders,
    OrderTriple,
    Plan,
    PlanningError,
    correct_axis_dependent,
    correct_covariant,
    correct_perfect,
    plan,
)
from .analysis import (
    FitError,
    ModelFamily,
    OrderFit,
    ScanResult,
    ScanRow,
    component_scan,
    default_scales,
    fit_order,
    fit_points,
    infidelity_table,
    series_coefficient,
    to_csv,
)

__version__ = "0.1.0"
