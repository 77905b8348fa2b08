"""Domain types, dataset ingestion, and schema validation.

A dataset is a single UTF-8 JSON file with top-level keys ``schema_version``,
``area_unit``, and ``ips``. Parsing is strict: unknown keys are rejected so
that typos surface as errors instead of silently ignored fields. All types
are immutable after validation and safe to share across workers.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
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


def _require_finite(value: Any, what: str, *args: Any) -> float:
    """``value`` as a float; ``what % args`` names it in the error and is
    only formatted when a check fails."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ValidationError(f"{_label(what, args)} must be a real number, got {value!r}")
    value = float(value)
    if not math.isfinite(value):
        raise ValidationError(f"{_label(what, args)} must be finite, got {value!r}")
    return value


def _require_count(value: Any, what: str, *args: Any) -> int:
    """``value`` checked to be an int (not a bool); ``what`` as for :func:`_require_finite`."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValidationError(f"{_label(what, args)} must be an integer, got {value!r}")
    return value


def _check_keys(
    raw: Any, allowed: Sequence[str] | None, where: str, required: Sequence[str] = ()
) -> Mapping[str, Any]:
    """Require a JSON object with every ``required`` key and only ``allowed`` ones (None: any)."""
    if not isinstance(raw, Mapping):
        raise ValidationError(f"{where}: must be a JSON object")
    unknown = set() if allowed is None else set(raw) - set(allowed)
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
        if not isinstance(self.id, str) or not self.id:
            raise ValidationError(f"IP id must be a non-empty string, got {self.id!r}")
        if not isinstance(self.name, str) or not self.name:
            self._fail("name", "must be a non-empty string")

        ip_id = self.id
        if _require_count(self.loc_changed, _FIELD, ip_id, "loc_changed") < 0:
            self._fail("loc_changed", "must be >= 0")
        if _require_count(self.churn_window, _FIELD, ip_id, "churn_window") < 1:
            self._fail("churn_window", "must be >= 1")

        risk = _require_finite(self.confidentiality_risk, _FIELD, ip_id, "confidentiality_risk")
        if not 0.0 <= risk <= 1.0:
            self._fail("confidentiality_risk", "must lie in [0, 1]")

        if _require_count(self.io_control_nets, _FIELD, ip_id, "io_control_nets") < 0:
            self._fail("io_control_nets", "must be >= 0")
        if _require_count(
            self.internal_nets_and_state, _FIELD, ip_id, "internal_nets_and_state"
        ) < 1:
            self._fail("internal_nets_and_state", "must be >= 1")

        total = _require_finite(self.total_logic, _FIELD, ip_id, "total_logic")
        if total <= 0:
            self._fail("total_logic", "must be > 0")
        mapped = _require_finite(self.logic_mapped_to_efpga, _FIELD, ip_id, "logic_mapped_to_efpga")
        if mapped < 0:
            self._fail("logic_mapped_to_efpga", "must be >= 0")
        if mapped > total:
            self._fail("logic_mapped_to_efpga", "must not exceed total_logic")

        for fname in ("f_max_asic", "f_max_efpga", "area"):
            if _require_finite(getattr(self, fname), _FIELD, ip_id, fname) <= 0:
                self._fail(fname, "must be > 0")
        if self.f_max_fpga is not None:
            if _require_finite(self.f_max_fpga, _FIELD, ip_id, "f_max_fpga") <= 0:
                self._fail("f_max_fpga", "must be > 0")

        for fname in ("power_mw", "slack_ns", "area_mm2"):
            metrics = getattr(self, fname)
            if metrics is None:
                continue
            if not isinstance(metrics, Mapping):
                self._fail(fname, "must be a platform -> value map")
            for platform, value in metrics.items():
                if platform not in PLATFORMS:
                    self._fail(fname, f"unknown platform {platform!r} (expected one of {PLATFORMS})")
                # platform is a PLATFORMS name here, so '%s[%s]' spells the repr
                if _require_finite(value, "IP %r field '%s[%s]'", ip_id, fname, platform) < 0:
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
    for fname in ("alpha", "beta", "gamma", "delta", "mu", "nu", "xi"):
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


_IP_REQUIRED = (
    "id",
    "name",
    "loc_changed",
    "confidentiality_risk",
    "io_control_nets",
    "internal_nets_and_state",
    "logic_mapped_to_efpga",
    "total_logic",
    "f_max_asic",
    "f_max_efpga",
    "area",
)
_IP_OPTIONAL = ("churn_window", "f_max_fpga", "power_mw", "slack_ns", "area_mm2")
_TOP_LEVEL_KEYS = ("schema_version", "area_unit", "ips")


def _ip_from_dict(raw: Any, index: int) -> IpProfile:
    label = raw.get("id", f"#{index}") if isinstance(raw, dict) else f"#{index}"
    fields = _check_keys(raw, _IP_REQUIRED + _IP_OPTIONAL, f"IP {label!r}", _IP_REQUIRED)
    return IpProfile(**fields)


def load_dataset(path: str | Path) -> Dataset:
    """Load and validate a dataset file.

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
    if not isinstance(raw["ips"], list) or not raw["ips"]:
        raise ValidationError(f"{path}: 'ips' must be a non-empty list")
    ips = tuple(_ip_from_dict(entry, i) for i, entry in enumerate(raw["ips"]))
    return Dataset(ips=ips, area_unit=raw["area_unit"], schema_version=version)


def dataset_to_dict(dataset: Dataset) -> dict[str, Any]:
    """Dictionary form of a dataset, suitable for JSON round-tripping."""
    ips = []
    for ip in dataset.ips:
        entry = asdict(ip)
        for key in ("f_max_fpga", "power_mw", "slack_ns", "area_mm2"):
            if entry[key] is None:
                del entry[key]
        ips.append(entry)
    return {
        "schema_version": dataset.schema_version,
        "area_unit": dataset.area_unit,
        "ips": ips,
    }


def save_dataset(dataset: Dataset, path: str | Path) -> None:
    Path(path).write_text(
        json.dumps(dataset_to_dict(dataset), indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )


def weights_from_dict(raw: Mapping[str, Any]) -> ScoreWeights:
    """Build and validate ScoreWeights from a mapping with the seven keys."""
    expected = ("alpha", "beta", "gamma", "delta", "mu", "nu", "xi")
    _check_keys(raw, expected, "weights", expected)
    return validate_weights(ScoreWeights(**{k: raw[k] for k in expected}))
