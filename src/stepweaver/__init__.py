"""stepweaver: composable stepsize schedules for fixed-step gradient descent.

Construct schedules by joining smaller certified schedules, optimize whole
families by dynamic programming, run them on quadratic/Huber test problems,
and numerically verify every certified rate.
"""

__version__ = "0.1.0"

from .schedule import (  # noqa: F401
    CompClass,
    CompositionTree,
    JoinOp,
    StepSchedule,
    ClassMismatchError,
    IdentityError,
    ResourceCapError,
    ScheduleError,
    UncertifiedScheduleError,
    empty_schedule,
    fg_rates_from_s,
    join,
    join_step,
    materialize,
    reverse,
    validate_schedule,
)
