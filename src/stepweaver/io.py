"""Schedule files and run configuration.

Schedules serialize to JSON with all floats printed as 17-significant-digit
decimals, which round-trip binary64 exactly.  The schema is flat:

    {
      "schema_version": 1,
      "class": "f" | "g" | "s",
      "n": <int>,
      "steps": [<decimal>, ...],
      "rate": <decimal>,
      "construction": <composition expression, optional>,
      "provenance": <free text, optional>
    }

On load the closed-form identities are revalidated; if a construction is
present it is re-evaluated (one fold, no join per node) and must reproduce
the stored steps and rate (``schedule.check_steps``, the comparison the
verifier's tree check makes), and the schedule then carries the
construction tree.  Any construction error but a resource cap is a
``ScheduleFileError`` whose message starts ``construction:``.
"""

import json
import math
from dataclasses import dataclass, fields

import numpy as np

from .schedule import (
    DEFAULT_IDENTITY_TOL,
    CompClass,
    IdentityError,
    ScheduleError,
    StepSchedule,
    check_steps,
    validate_schedule,
)

SCHEMA_VERSION = 1

_REQUIRED_KEYS = ("schema_version", "class", "n", "steps", "rate")
_ALLOWED_KEYS = _REQUIRED_KEYS + ("construction", "provenance")


class ScheduleFileError(ScheduleError):
    """A schedule file violates the schema or fails revalidation."""


def _is_number(value, kinds=(int, float)) -> bool:
    """Whether a JSON value is a number of ``kinds``; JSON booleans are not."""
    return isinstance(value, kinds) and not isinstance(value, bool)


def _binary64(convert, value, field: str):
    """``convert(value)``; an integer beyond the binary64 range raises
    ``ScheduleFileError`` naming ``field``."""
    try:
        return convert(value)
    except OverflowError:
        raise ScheduleFileError(f"{field}: number beyond the binary64 range") from None


def read_text(path) -> str:
    """The UTF-8 text of an input file (a schedule or a config); bytes that
    do not decode raise ``ScheduleFileError`` naming the file."""
    with open(path, encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as err:
            raise ScheduleFileError(f"{path}: not UTF-8 text: {err}") from None


def _fmt17(x: float) -> str:
    return format(float(x), ".17g")


def dumps_schedule(schedule: StepSchedule, construction: "str | None" = None, provenance: str = "") -> str:
    """Serialize to the schedule-file JSON text (17-digit decimals)."""
    parts = [
        f'"schema_version": {SCHEMA_VERSION}',
        f'"class": {json.dumps(schedule.comp_class.value)}',
        f'"n": {schedule.n}',
        '"steps": [' + ", ".join(map("%.17g".__mod__, schedule.steps.tolist())) + "]",
        f'"rate": {_fmt17(schedule.rate)}',
    ]
    if construction:
        parts.append(f'"construction": {json.dumps(construction)}')
    if provenance:
        parts.append(f'"provenance": {json.dumps(provenance)}')
    return "{\n  " + ",\n  ".join(parts) + "\n}\n"


def loads_schedule(text: str, identity_tol: float = DEFAULT_IDENTITY_TOL) -> StepSchedule:
    """Parse and revalidate schedule-file JSON; see :func:`load_schedule`."""
    try:
        doc = json.loads(text)
    except ValueError as err:  # a JSONDecodeError, or an integer of over 4300 digits
        raise ScheduleFileError(f"not valid JSON: {err}") from err
    if not isinstance(doc, dict):
        raise ScheduleFileError("top level must be a JSON object")
    unknown = sorted(set(doc) - set(_ALLOWED_KEYS))
    if unknown:
        raise ScheduleFileError(f"unknown keys: {', '.join(unknown)}")
    missing = [k for k in _REQUIRED_KEYS if k not in doc]
    if missing:
        raise ScheduleFileError(f"missing keys: {', '.join(missing)}")
    if not _is_number(doc["schema_version"], int) or doc["schema_version"] != SCHEMA_VERSION:
        raise ScheduleFileError(f"schema_version: expected {SCHEMA_VERSION}, got {doc['schema_version']!r}")
    try:
        comp_class = CompClass(doc["class"])
    except ValueError:
        raise ScheduleFileError(f"class: expected one of f/g/s, got {doc['class']!r}") from None
    if not _is_number(doc["n"], int) or doc["n"] < 0:
        raise ScheduleFileError(f"n: expected a nonnegative integer, got {doc['n']!r}")
    steps = doc["steps"]
    if not isinstance(steps, list) or not all(_is_number(s) for s in steps):
        raise ScheduleFileError("steps: expected an array of numbers")
    if len(steps) != doc["n"]:
        raise ScheduleFileError(f"steps: length {len(steps)} does not match n={doc['n']}")
    if not _is_number(doc["rate"]):
        raise ScheduleFileError(f"rate: expected a number, got {doc['rate']!r}")
    for key in ("construction", "provenance"):
        if not isinstance(doc.get(key, ""), str):
            raise ScheduleFileError(f"{key}: expected a string, got {doc[key]!r}")

    steps = _binary64(lambda v: np.array(v, dtype=np.float64), steps, "steps")
    schedule = StepSchedule(steps, comp_class, _binary64(float, doc["rate"], "rate"))
    try:
        validate_schedule(schedule, identity_tol)
    except IdentityError as err:
        raise ScheduleFileError(f"rate fails revalidation: {err}") from err

    construction = doc.get("construction")
    if construction:
        from .dsl import compile_expression  # deferred: io loads without the dsl otherwise

        try:
            built, _ = compile_expression(construction, comp_class)
        except ScheduleError as err:  # not a ResourceCapError, which keeps its exit code
            raise ScheduleFileError(f"construction: {err}") from err
        try:
            check_steps(schedule, built.steps, built.rate, identity_tol, "construction")
        except IdentityError as err:
            raise ScheduleFileError(f"construction: expression does not reproduce the stored steps: {err}") from err
        # adopt the construction's tree (and conjectured flag) with stored steps
        schedule = StepSchedule(schedule.steps, comp_class, schedule.rate, built.tree, built.conjectured)
    return schedule


def load_schedule(path, identity_tol: float = DEFAULT_IDENTITY_TOL) -> StepSchedule:
    return loads_schedule(read_text(path), identity_tol)


@dataclass
class RunConfig:
    """Verification-run knobs; all numeric fields must be positive and finite.

    ``battery`` counts the verifier's random instances, each one coordinate
    (``verify.battery_instances``).  Defaults are fixed so runs are
    reproducible: 200 instances under numpy's PCG64 generator with seed
    0xC0FFEE.
    """

    battery: int = 200
    seed: int = 0xC0FFEE
    identity_tol: float = DEFAULT_IDENTITY_TOL
    slack_tol: float = 1e-8
    tight_tol: float = 1e-9
    q_tol: float = 1e-9

    def __post_init__(self):
        for name in (f.name for f in fields(self)):
            value = getattr(self, name)
            what = "integer" if name in ("battery", "seed") else "number"
            if not _is_number(value, int if what == "integer" else (int, float)) or not value > 0:
                raise ScheduleFileError(f"config field {name} must be a positive {what}, got {value!r}")
            if what == "number" and not math.isfinite(_binary64(float, value, f"config field {name}")):
                raise ScheduleFileError(f"config field {name} must be finite, got {value!r}")

    @classmethod
    def from_dict(cls, doc: dict) -> "RunConfig":
        allowed = {f.name for f in fields(cls)}
        unknown = sorted(set(doc) - allowed)
        if unknown:
            raise ScheduleFileError(f"unknown config keys: {', '.join(unknown)}")
        return cls(**doc)

    @classmethod
    def from_json(cls, text: str) -> "RunConfig":
        try:
            doc = json.loads(text)
        except ValueError as err:  # as in loads_schedule
            raise ScheduleFileError(f"config is not valid JSON: {err}") from err
        if not isinstance(doc, dict):
            raise ScheduleFileError("config top level must be a JSON object")
        return cls.from_dict(doc)
