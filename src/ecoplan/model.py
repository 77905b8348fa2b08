"""Domain types, dataset ingestion, and schema validation.

A dataset is a single UTF-8 JSON file with top-level keys ``schema_version``,
``area_unit``, and ``ips``. Parsing is strict: unknown keys are rejected so
that typos surface as errors instead of silently ignored fields. All types
are immutable after validation and safe to share across workers. Every
number must also convert to a finite float.

The IP number rules are one table, ``_IP_NUMBERS``. ``IpProfile.__post_init__``
walks it to word each error; ``load_dataset`` first applies each row to a whole
column and, when every column passes, builds the profiles without the per-IP
walk. On any failure or doubt it takes the per-IP path, so the first error
message is the same either way. Record keys come from the dataclasses.
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, asdict, dataclass, fields
from functools import cache
from itertools import chain, repeat
from operator import le
from pathlib import Path
from typing import Any, Mapping, Sequence

SCHEMA_VERSION = "1"
AREA_UNITS = ("um2", "gate_eq")

#: Platform labels used by the per-platform metric maps and the carbon and
#: comparison reports. ``ecologic`` denotes the hybrid ASIC + eFPGA platform.
PLATFORMS = ("asic", "fpga", "ecologic")

WEIGHT_SUM_TOLERANCE = 1e-9


class DatasetError(ValueError):
    """Base class for input, schema, and invariant failures."""


class ParseError(DatasetError):
    """The input file is not well-formed JSON."""


class ValidationError(DatasetError):
    """A declared invariant was violated; the message names the offender."""


class SchemaVersionError(ValidationError):
    """The file declares a schema_version this package does not understand."""


def _label(what: str, args: tuple[Any, ...]) -> str:
    return what % args if args else what


_INT = (int,)
_REAL = (int, float)


def _require_number(
    value: Any, types: tuple[type, ...], low: int | None, strict: bool, high: int | None,
    what: str, *args: Any,
) -> float:
    """``value`` as a finite float: one of ``types`` (never a bool), above
    ``low`` (or at it unless ``strict``) and at most ``high`` (None: no bound).
    ``what % args`` names it in the error and is only formatted on a failure.
    An int beyond the float range is rejected here rather than overflowing in
    later arithmetic."""
    # the exact type first: one lookup is cheaper than two isinstance calls
    if value.__class__ not in types and (not isinstance(value, types) or isinstance(value, bool)):
        kind = "a real number" if float in types else "an integer"
        raise ValidationError(f"{_label(what, args)} must be {kind}, got {value!r}")
    try:
        number = float(value)
    except OverflowError:
        raise ValidationError(
            f"{_label(what, args)} must be finite, got an integer too large for a float"
        ) from None
    if not math.isfinite(number):
        raise ValidationError(f"{_label(what, args)} must be finite, got {number!r}")
    if low is not None and not (number > low if strict else number >= low) or (
        high is not None and number > high
    ):
        bound = (f"be {'>' if strict else '>='} {low}" if high is None
                 else f"lie in {'(' if strict else '['}{low}, {high}]")
        raise ValidationError(f"{_label(what, args)} must {bound}")
    return number


def _require_finite(value: Any, what: str, *args: Any) -> float:
    """``value``, an int or float, as a finite float."""
    return _require_number(value, _REAL, None, False, None, what, *args)


def _require_count(value: Any, what: str, *args: Any) -> int:
    """``value``, an int that converts to a finite float."""
    _require_number(value, _INT, None, False, None, what, *args)
    return value


def _require_text(value: Any, what: str, *args: Any) -> str:
    """``value``, a non-empty string."""
    if not isinstance(value, str) or not value:
        raise ValidationError(f"{_label(what, args)} must be a non-empty string, got {value!r}")
    return value


def _check_keys(
    raw: Any, allowed: Sequence[str] | None, where: str, required: Sequence[str] = ()
) -> Mapping[str, Any]:
    """Require a JSON object with every ``required`` key and only ``allowed`` ones (None: any)."""
    if not isinstance(raw, Mapping):
        raise ValidationError(f"{where}: must be a JSON object")
    unknown = set() if allowed is None else set(raw).difference(allowed)
    if unknown:
        raise ValidationError(f"{where}: unknown key(s): {', '.join(sorted(unknown))}")
    missing = [k for k in required if k not in raw]
    if missing:
        raise ValidationError(f"{where}: missing key(s): {', '.join(missing)}")
    return raw


def _read_json_object(
    path: str | Path, allowed: Sequence[str], required: Sequence[str] = ()
) -> Mapping[str, Any]:
    """Parse a UTF-8 JSON file that must hold an object with known keys."""
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: not valid JSON: {exc}") from exc
    return _check_keys(raw, allowed, str(path), required)


_FIELD = "IP %r field %r"
_ENTRY = "IP %r field '%s[%s]'"  # a map entry; its platform, a PLATFORMS name, needs no repr
# (field, value types, lower bound, bound excluded, upper bound) of each IP
# number, in the order they are checked; a field whose default is None may be null
_IP_NUMBERS = (
    ("loc_changed", _INT, 0, False, None),
    ("churn_window", _INT, 1, False, None),
    ("confidentiality_risk", _REAL, 0, False, 1),
    ("io_control_nets", _INT, 0, False, None),
    ("internal_nets_and_state", _INT, 1, False, None),
    ("total_logic", _REAL, 0, True, None),
    ("logic_mapped_to_efpga", _REAL, 0, False, None),
    ("f_max_asic", _REAL, 0, True, None),
    ("f_max_efpga", _REAL, 0, True, None),
    ("area", _REAL, 0, True, None),
    ("f_max_fpga", _REAL, 0, True, None),
)
_IP_MAPS = ("power_mw", "slack_ns", "area_mm2")


@dataclass(frozen=True)
class IpProfile:
    """Raw per-IP inputs: churn, confidentiality, net counts, redaction
    amounts, per-platform frequency, and the synthesized area.

    ``logic_mapped_to_efpga`` and ``total_logic`` may use any unit (gates,
    LUTs, lines) as long as the two are consistent within the IP; only their
    ratio is ever used. ``area`` must use the dataset-wide ``area_unit``.

    The optional per-platform maps (``power_mw``, ``slack_ns``, ``area_mm2``)
    and ``f_max_fpga`` feed comparison reporting only; scoring never reads
    them.
    """

    id: str
    name: str
    loc_changed: int
    confidentiality_risk: float
    io_control_nets: int
    internal_nets_and_state: int
    logic_mapped_to_efpga: float
    total_logic: float
    f_max_asic: float
    f_max_efpga: float
    area: float
    churn_window: int = 3
    f_max_fpga: float | None = None
    power_mw: Mapping[str, float] | None = None
    slack_ns: Mapping[str, float] | None = None
    area_mm2: Mapping[str, float] | None = None

    def __post_init__(self) -> None:
        ip_id = _require_text(self.id, "IP id")
        if not isinstance(self.name, str) or not self.name:
            self._fail("name", "must be a non-empty string")
        for fname, types, low, strict, high in _IP_NUMBERS:
            value = getattr(self, fname)
            if value is not None or _IP_DEFAULTS[fname] is not None:
                value = _require_number(value, types, low, strict, high, _FIELD, ip_id, fname)
            if fname == "logic_mapped_to_efpga" and value > float(self.total_logic):
                self._fail(fname, "must not exceed total_logic")

        for fname in _IP_MAPS:
            metrics = getattr(self, fname)
            if metrics is None:
                continue
            if not isinstance(metrics, Mapping):
                self._fail(fname, "must be a platform -> value map")
            for platform, value in metrics.items():
                if platform not in PLATFORMS:
                    self._fail(fname, f"unknown platform {platform!r} (expected one of {PLATFORMS})")
                if _require_number(
                    value, _REAL, None, False, None, _ENTRY, ip_id, fname, platform
                ) < 0:
                    self._fail(fname, f"value for platform {platform!r} must be >= 0")

    def _fail(self, fname: str, why: str) -> None:
        raise ValidationError(f"IP {self.id!r} field {fname!r} {why}")


@dataclass(frozen=True)
class ScoreWeights:
    """The two weight vectors of the composite score.

    ``alpha``..``delta`` weight the four sub-scores (adaptability, piracy
    threat, performance tolerance, resource fit); ``mu``, ``nu``, ``xi``
    weight the piracy-threat sub-metrics (confidentiality, exposure,
    redaction). Each vector must sum to 1; use :func:`validate_weights`.
    """

    alpha: float
    beta: float
    gamma: float
    delta: float
    mu: float
    nu: float
    xi: float

    @classmethod
    def default(cls) -> "ScoreWeights":
        """Security-leaning default: (0.25, 0.35, 0.20, 0.20) / (0.5, 0.3, 0.2)."""
        return cls(alpha=0.25, beta=0.35, gamma=0.20, delta=0.20, mu=0.5, nu=0.3, xi=0.2)


def validate_weights(weights: ScoreWeights) -> ScoreWeights:
    """Check both weight vectors: components in [0, 1], sums equal to 1.

    Returns the weights unchanged on success so call sites can chain.
    Raises ValidationError naming the offending component or vector.
    """
    for fname in _fields_of(ScoreWeights)[0]:
        value = _require_finite(getattr(weights, fname), f"weight {fname!r}")
        if not 0.0 <= value <= 1.0:
            raise ValidationError(f"weight {fname!r} must lie in [0, 1], got {value}")
    quad = weights.alpha + weights.beta + weights.gamma + weights.delta
    if abs(quad - 1.0) > WEIGHT_SUM_TOLERANCE:
        raise ValidationError(f"weight sum alpha+beta+gamma+delta must equal 1, got {quad}")
    tri = weights.mu + weights.nu + weights.xi
    if abs(tri - 1.0) > WEIGHT_SUM_TOLERANCE:
        raise ValidationError(f"weight sum mu+nu+xi must equal 1, got {tri}")
    return weights


@dataclass(frozen=True)
class Dataset:
    ips: tuple[IpProfile, ...]
    area_unit: str
    schema_version: str = SCHEMA_VERSION

    def __post_init__(self) -> None:
        if self.schema_version != SCHEMA_VERSION:
            raise SchemaVersionError(
                f"unknown schema_version {self.schema_version!r} (supported: {SCHEMA_VERSION!r})"
            )
        if self.area_unit not in AREA_UNITS:
            raise ValidationError(f"area_unit must be one of {AREA_UNITS}, got {self.area_unit!r}")
        if not isinstance(self.ips, tuple):
            object.__setattr__(self, "ips", tuple(self.ips))
        if not self.ips:
            raise ValidationError("dataset must contain at least one IP")
        seen: set[str] = set()
        for ip in self.ips:
            if ip.id in seen:
                raise ValidationError(f"duplicate IP id {ip.id!r}")
            seen.add(ip.id)

    def ip(self, ip_id: str) -> IpProfile:
        for candidate in self.ips:
            if candidate.id == ip_id:
                return candidate
        raise KeyError(ip_id)

    @property
    def ip_ids(self) -> tuple[str, ...]:
        return tuple(ip.id for ip in self.ips)


# Every IpProfile field in order, mapped to its default (MISSING: required).
_IP_DEFAULTS = {f.name: f.default for f in fields(IpProfile)}
_TOP_LEVEL_KEYS = ("schema_version", "area_unit", "ips")


@cache
def _fields_of(cls: type) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """The field names of dataclass ``cls``, and those of them without a default."""
    names = fields(cls)
    return tuple(f.name for f in names), tuple(f.name for f in names if f.default is MISSING)


def _from_dict(cls: type, raw: Any, where: str) -> Any:
    """``cls`` built from the JSON object ``raw``: every key must name a field
    of ``cls``, and every field without a default must be given."""
    allowed, required = _fields_of(cls)
    return cls(**_check_keys(raw, allowed, where, required))


def _ip_from_dict(raw: Any, index: int) -> IpProfile:
    label = raw.get("id", f"#{index}") if isinstance(raw, dict) else f"#{index}"
    return _from_dict(IpProfile, raw, f"IP {label!r}")


def _column_ok(
    values: Sequence[Any], types: tuple[type, ...], low: int, strict: bool, high: int | None
) -> bool:
    """:func:`_require_number` for every value, comparing the values as they
    are rather than building floats: for integer bounds, an int or float lies
    within them exactly when its float does. A bool never passes."""
    if not set(map(type, values)).issubset(types):
        return False
    if not all(map(math.isfinite, values)):  # an int too large for a float raises
        return False
    return not values or (min(values) > low if strict else min(values) >= low) and (
        high is None or max(values) <= high
    )


def _ips_by_column(entries: list[Any]) -> tuple[IpProfile, ...] | None:
    """The profiles of ``entries`` if every column passes the rules of
    ``_IP_NUMBERS`` and ``IpProfile.__post_init__``, built without rerunning
    them per IP.

    None on any failure or doubt, an exception inside the check included:
    the caller then takes the per-IP path, the only source of error messages.
    """
    try:
        required = set(_fields_of(IpProfile)[1])
        # key sets are checked once per distinct key order, not once per IP
        if set(map(type, entries)) != {dict} or not all(
            required <= set(keys) <= _IP_DEFAULTS.keys()
            for keys in set(map(tuple, entries))
        ):
            return None
        columns = {name: list(map(dict.get, entries, repeat(name), repeat(default)))
                   for name, default in _IP_DEFAULTS.items()}
        for name in ("id", "name"):
            if set(map(type, columns[name])) != {str} or not all(columns[name]):
                return None
        for name, types, low, strict, high in _IP_NUMBERS:
            values = columns[name]
            if _IP_DEFAULTS[name] is None:
                values = [v for v in values if v is not None]
            if not _column_ok(values, types, low, strict, high):
                return None
        if not all(map(le, columns["logic_mapped_to_efpga"], columns["total_logic"])):
            return None
        maps = [m for name in _IP_MAPS for m in columns[name] if m is not None]
        if set(map(type, maps)) - {dict} or not all(
            set(keys) <= set(PLATFORMS) for keys in set(map(tuple, maps))
        ):
            return None
        if not _column_ok(list(chain.from_iterable(map(dict.values, maps))), _REAL, 0, False, None):
            return None
    except Exception:  # noqa: BLE001 - any surprise means: take the per-IP path
        return None
    # One profile at a time, field by field in field order, as the generated
    # __init__ does: CPython then keeps the fields in its compact shared-key
    # storage (allocating every profile first would give each its own dict).
    profiles = []
    for row in zip(*columns.values()):
        profile = object.__new__(IpProfile)
        for name, value in zip(_IP_DEFAULTS, row):
            object.__setattr__(profile, name, value)  # past the frozen-field guard
        profiles.append(profile)
    return tuple(profiles)


def load_dataset(path: str | Path) -> Dataset:
    """Load and validate a dataset file.

    The ``ips`` list takes the column check of the module docstring first
    and the per-IP path only when that check fails or is in doubt.

    Raises ParseError for malformed JSON, SchemaVersionError for an unknown
    schema_version, ValidationError for any invariant violation (the message
    names the IP and field), and OSError if the file cannot be read.
    """
    raw = _read_json_object(path, _TOP_LEVEL_KEYS, _TOP_LEVEL_KEYS)
    version = raw["schema_version"]
    if version != SCHEMA_VERSION:
        raise SchemaVersionError(
            f"{path}: unknown schema_version {version!r} (supported: {SCHEMA_VERSION!r})"
        )
    entries = raw["ips"]
    if not isinstance(entries, list) or not entries:
        raise ValidationError(f"{path}: 'ips' must be a non-empty list")
    ips = _ips_by_column(entries)
    if ips is None:
        ips = tuple(_ip_from_dict(entry, i) for i, entry in enumerate(entries))
    return Dataset(ips=ips, area_unit=raw["area_unit"], schema_version=version)


def dataset_to_dict(dataset: Dataset) -> dict[str, Any]:
    """Dictionary form of a dataset, suitable for JSON round-tripping."""
    return {
        "schema_version": dataset.schema_version,
        "area_unit": dataset.area_unit,
        # only the fields whose default is None can be null: those are left out
        "ips": [{k: v for k, v in asdict(ip).items() if v is not None} for ip in dataset.ips],
    }


def save_dataset(dataset: Dataset, path: str | Path) -> None:
    Path(path).write_text(
        json.dumps(dataset_to_dict(dataset), indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )


def weights_from_dict(raw: Mapping[str, Any]) -> ScoreWeights:
    """Build and validate ScoreWeights from a mapping with the seven keys."""
    return validate_weights(_from_dict(ScoreWeights, raw, "weights"))
