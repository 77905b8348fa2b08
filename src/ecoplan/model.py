"""Domain types, dataset ingestion, and schema validation.

A dataset is a single UTF-8 JSON file with top-level keys ``schema_version``,
``area_unit``, and ``ips``. Parsing is strict: unknown keys are rejected so
that typos surface as errors instead of silently ignored fields. Records
are frozen, but a map field is a plain dict: mutating one skips
validation. Every number must also convert to a finite float.

Every IP rule is stated once, in ``_check_ips``, which checks one column per
``IpProfile`` field. ``IpProfile`` runs it on one-IP columns; ``load_dataset``
runs it on the file's columns, then builds the profiles a field at a time
(``_build``). Record keys come from the dataclasses.
"""

from __future__ import annotations

import json
import math
import re
from collections import deque
from dataclasses import MISSING, asdict, dataclass, fields
from functools import cache, cached_property
from itertools import chain, compress, repeat
from pathlib import Path
from typing import Any, Collection, Hashable, Mapping, Sequence

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


_INT = (int,)
_REAL = (int, float)


def _require_number(
    value: Any, types: tuple[type, ...], low: int | None, strict: bool, high: int | None, what: str
) -> float:
    """``value`` as a finite float: one of ``types`` (never a bool), above
    ``low`` (or at it unless ``strict``) and at most ``high`` (None: no bound).
    ``what`` names it in the error. An int beyond the float range is rejected
    here rather than overflowing in later arithmetic."""
    if not isinstance(value, types) or isinstance(value, bool):
        kind = "a real number" if float in types else "an integer"
        raise ValidationError(f"{what} must be {kind}, got {value!r}")
    try:
        number = float(value)
    except OverflowError:
        raise ValidationError(f"{what} must be finite, got an integer too large "
                              "for a float") from None
    if not math.isfinite(number):
        raise ValidationError(f"{what} must be finite, got {number!r}")
    if low is not None and not (number > low if strict else number >= low) or (
        high is not None and number > high
    ):
        bound = (f"be {'>' if strict else '>='} {low}" if high is None
                 else f"lie in {'(' if strict else '['}{low}, {high}]")
        raise ValidationError(f"{what} must {bound}")
    return number


def _require_finite(value: Any, what: str) -> float:
    """``value``, an int or float, as a finite float."""
    return _require_number(value, _REAL, None, False, None, what)


def _require_text(value: Any, what: str) -> str:
    """``value``, a non-empty string without NUL that encodes as UTF-8. JSON
    can spell both a NUL and a lone surrogate; Python 3.10's ``csv`` rejects a NUL."""
    if not isinstance(value, str) or not value:
        raise ValidationError(f"{what} must be a non-empty string, got {value!r}")
    if "\0" in value:
        raise ValidationError(f"{what} must not contain NUL, got {value!r}")
    try:
        value.encode("utf-8")
    except UnicodeEncodeError:
        raise ValidationError(f"{what} must encode as UTF-8, got {value!r}") from None
    return value


def _require_unique(ids: Sequence[Hashable], what: str) -> None:
    """Raise ValidationError ``what % id`` for the first id in ``ids`` seen before."""
    if len(set(ids)) < len(ids):
        seen: set[Hashable] = set()
        raise ValidationError(what % next(i for i in ids if i in seen or seen.add(i)))


def _scaled(values: Sequence[float]) -> list[int]:
    """Exact integer numerators over one shared power-of-two denominator."""
    ratios = [v.as_integer_ratio() for v in values]
    denominator = max(d for _, d in ratios)  # powers of two: the max is a multiple of all
    return [num * (denominator // d) for num, d in ratios]


def _mean(values: Collection[float], message: str) -> float:
    """The mean of finite ``values``; ValidationError ``message`` if their sum overflows."""
    try:
        return math.fsum(values) / len(values)
    except OverflowError:
        raise ValidationError(message) from None


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


def _object_of(pairs: list[tuple[str, Any]]) -> dict[str, Any]:
    """A JSON object's dict: a key given twice is an error, not a silent overwrite."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        _require_unique([key for key, _ in pairs], "key %r given twice")
    return obj


def _read_json_object(
    path: str | Path, allowed: Sequence[str], required: Sequence[str] = ()
) -> Mapping[str, Any]:
    """Parse a UTF-8 JSON file that must hold an object with known keys, each given once."""
    try:  # bad UTF-8, deep nesting, overlong integers and repeated keys too
        raw = json.loads(Path(path).read_text(encoding="utf-8"), object_pairs_hook=_object_of)
    except (ValueError, RecursionError) as exc:
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


@dataclass(frozen=True, slots=True)
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
        _check_ips({name: [getattr(self, name)] for name in _IP_DEFAULTS})


@dataclass(frozen=True)
class ScoreWeights:
    """The two weight vectors of the composite score.

    ``alpha``..``delta`` weight the four sub-scores (adaptability, piracy
    threat, performance tolerance, resource fit); ``mu``, ``nu``, ``xi``
    weight the piracy-threat sub-metrics (confidentiality, exposure,
    redaction). Both vectors are checked by :func:`validate_weights` when the
    weights are built, so an instance always holds valid weights.
    """

    alpha: float
    beta: float
    gamma: float
    delta: float
    mu: float
    nu: float
    xi: float

    def __post_init__(self) -> None:
        validate_weights(self)

    @classmethod
    def default(cls) -> "ScoreWeights":
        """Security-leaning default: (0.25, 0.35, 0.20, 0.20) / (0.5, 0.3, 0.2)."""
        return cls(alpha=0.25, beta=0.35, gamma=0.20, delta=0.20, mu=0.5, nu=0.3, xi=0.2)


def validate_weights(weights: ScoreWeights) -> ScoreWeights:
    """Check both weight vectors: components in [0, 1], sums equal to 1.

    The one statement of the weight rules; every :class:`ScoreWeights` runs
    it when built. Returns the weights unchanged on success.
    Raises ValidationError naming the offending component or vector.
    """
    for fname in _fields_of(ScoreWeights)[0]:
        _require_number(getattr(weights, fname), _REAL, 0, False, 1, f"weight {fname!r}")
    quad = weights.alpha + weights.beta + weights.gamma + weights.delta
    if abs(quad - 1.0) > WEIGHT_SUM_TOLERANCE:
        raise ValidationError(f"weight sum alpha+beta+gamma+delta must equal 1, got {quad}")
    tri = weights.mu + weights.nu + weights.xi
    if abs(tri - 1.0) > WEIGHT_SUM_TOLERANCE:
        raise ValidationError(f"weight sum mu+nu+xi must equal 1, got {tri}")
    return weights


@dataclass(frozen=True)
class Dataset:
    """A checked set of IP profiles: at least one, ids unique, areas in ``area_unit``.

    ``ips`` keeps the order of the input; any sequence given becomes a tuple.
    """

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
        _require_unique(self.ip_ids, "duplicate IP id %r")

    def ip(self, ip_id: str) -> IpProfile:
        for candidate in self.ips:
            if candidate.id == ip_id:
                return candidate
        raise KeyError(ip_id)

    @cached_property
    def ip_ids(self) -> tuple[str, ...]:
        """The id of every IP, in dataset order; made once per dataset."""
        return tuple(ip.id for ip in self.ips)


# Every IpProfile field in order, mapped to its default (MISSING: required).
_IP_DEFAULTS = {f.name: f.default for f in fields(IpProfile)}
_TOP_LEVEL_KEYS = ("schema_version", "area_unit", "ips")


@cache
def _fields_of(cls: type) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """The field names of dataclass ``cls``, and those of them without a default."""
    names = fields(cls)
    return tuple(f.name for f in names), tuple(f.name for f in names if f.default is MISSING)


def _build(cls: type, columns: Sequence[Sequence[Any]]) -> list[Any]:
    """Instances of slotted dataclass ``cls`` from one column per field, in field
    order: its frozen ``__init__`` without ``__post_init__``, for checked values.
    Each slot is set through its member descriptor, past the frozen ``__setattr__``."""
    instances = list(map(object.__new__, repeat(cls, len(columns[0]))))
    for name, column in zip(_fields_of(cls)[0], columns, strict=True):
        deque(map(getattr(cls, name).__set__, instances, column), maxlen=0)
    return instances


def _from_dict(cls: type, raw: Any, where: str) -> Any:
    """``cls`` built from the JSON object ``raw``: every key must name a field
    of ``cls``, and every field without a default must be given."""
    allowed, required = _fields_of(cls)
    return cls(**_check_keys(raw, allowed, where, required))


def _column_ok(
    values: Sequence[Any], types: tuple[type, ...], low: int, strict: bool, high: int | None
) -> bool:
    """:func:`_require_number` for every value, comparing the values as they
    are rather than building floats: for integer bounds, an int or float lies
    within them exactly when its float does. A bool never passes."""
    try:
        return set(map(type, values)).issubset(types) and all(map(math.isfinite, values)) and (
            not values or (min(values) > low if strict else min(values) >= low)
            and (high is None or max(values) <= high))
    except OverflowError:  # an int too large for a float
        return False


def _texts_ok(values: Sequence[Any]) -> bool:
    """:func:`_require_text` for every value, tested on their join: UTF-8 fails a surrogate."""
    return set(map(type, values)) <= {str} and all(values) and not re.search(
        r"[\0\ud800-\udfff]", "".join(values))


def _check_ips(columns: Mapping[str, Sequence[Any]]) -> None:
    """Apply every IP rule to ``columns``, one per ``IpProfile`` field: id, name,
    the ``_IP_NUMBERS`` rows (``logic_mapped_to_efpga <= total_logic`` right after
    its row), the maps. A column that passes its whole-column test is not walked;
    in one that fails, its first bad entry words the error. For one IP, that is
    its first broken rule."""
    ids, totals = columns["id"], columns["total_logic"]
    for name in ("id", "name"):
        if not _texts_ok(columns[name]):
            for ip_id, value in zip(ids, columns[name]):
                _require_text(value, "IP id" if name == "id" else _FIELD % (ip_id, name))
    for name, types, low, strict, high in _IP_NUMBERS:
        values = columns[name]
        if _IP_DEFAULTS[name] is None:  # null: not given
            values = [v for v in values if v is not None]
        if not _column_ok(values, types, low, strict, high):
            for ip_id, value in zip(ids, columns[name]):
                if value is not None or _IP_DEFAULTS[name] is not None:
                    _require_number(value, types, low, strict, high, _FIELD % (ip_id, name))
        if name == "logic_mapped_to_efpga":  # the first IP over its total, compared as floats
            for ip_id in compress(ids, map(float.__gt__, map(float, values), map(float, totals))):
                raise ValidationError(f"{_FIELD % (ip_id, name)} must not exceed total_logic")
    maps = [m for name in _IP_MAPS for m in columns[name] if m is not None]
    if set(map(type, maps)) <= {dict} and set(chain.from_iterable(maps)) <= set(PLATFORMS) and (
            _column_ok([*chain.from_iterable(map(dict.values, maps))], _REAL, 0, False, None)):
        return
    for name in _IP_MAPS:
        for ip_id, metrics in zip(ids, columns[name]):
            if metrics is not None and not isinstance(metrics, Mapping):
                raise ValidationError(f"{_FIELD % (ip_id, name)} must be a platform -> value map")
            for platform, value in (metrics or {}).items():
                if platform not in PLATFORMS:
                    raise ValidationError(f"{_FIELD % (ip_id, name)} unknown platform "
                                          f"{platform!r} (expected one of {PLATFORMS})")
                _require_number(value, _REAL, 0, False, None, _ENTRY % (ip_id, name, platform))


def load_dataset(path: str | Path) -> Dataset:
    """Load and validate a dataset file.

    Every IP rule runs once over the whole ``ips`` list (``_check_ips``). When
    one fails, the entries are walked again one IP at a time, so the error names
    the first bad IP in file order and its first broken rule, keys first.

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
    try:
        if set(map(type, entries)) != {dict} or not all(  # once per distinct key order
                set(_fields_of(IpProfile)[1]) <= set(keys) <= _IP_DEFAULTS.keys()
                for keys in set(map(tuple, entries))):
            raise ValidationError("an IP has unknown or missing keys")
        columns = {name: list(map(dict.get, entries, repeat(name), repeat(default)))
                   for name, default in _IP_DEFAULTS.items()}
        _check_ips(columns)
    except ValidationError:
        for index, entry in enumerate(entries):  # the first bad IP words the error
            label = entry.get("id", f"#{index}") if isinstance(entry, dict) else f"#{index}"
            _from_dict(IpProfile, entry, f"IP {label!r}")
        raise
    ips = tuple(_build(IpProfile, list(columns.values())))
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
