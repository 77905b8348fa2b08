"""Sub-score computations, the composite score, and dataset-wide ranking.

The four sub-scores are dimensionless and live in [0, 1]:

* adaptability        ln(1 + loc) / ln(1 + max loc)        (RTL churn, log-tempered)
* piracy_threat       min(mu*C + nu*min(E, 1) + xi*R, 1)   (confidentiality, exposure, redaction)
* performance_tolerance  min(f_efpga / f_asic, 1)          (frequency retention)
* resource_fit        (a_max - area) / (a_max - a_min)     (relative footprint)

The composite is the convex combination alpha*A + beta*O + gamma*P + delta*R,
and the normalized column divides every composite by the set maximum so the
best candidate reads 1.0. :func:`score_dataset` maps these per-IP functions over a dataset.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat
from typing import Iterable, Mapping, Sequence

from .model import Dataset, ScoreWeights, _build

_MAX = 1.7976931348623157e308  # sys.float_info.max: also rejects an int float() cannot hold


@dataclass(frozen=True, slots=True)
class ScoreCard:
    """Computed scores for one IP. ``exposure`` is the raw (unclamped) ratio
    and may exceed 1; it is None when cards are built from pre-computed
    sub-scores rather than raw inputs, as is ``redaction_ratio``."""

    ip_id: str
    adaptability: float
    piracy_threat: float
    performance_tolerance: float
    resource_fit: float
    composite: float
    normalized: float
    exposure: float | None = None
    redaction_ratio: float | None = None


def adaptability(loc_changed: int, max_loc_changed: int) -> float:
    """Log-normalized churn score: ln(1 + loc) / ln(1 + max).

    ``max_loc_changed`` is the dataset-wide maximum. When no IP in the set
    changed at all (max == 0) the score is defined as 0 for everyone: no
    churn anywhere means no adaptability pressure.
    """
    if not (loc_changed >= 0 and 0 <= max_loc_changed <= _MAX):
        raise ValueError("loc counts must be finite and >= 0")
    if loc_changed > max_loc_changed:
        raise ValueError(
            f"loc_changed ({loc_changed}) exceeds the dataset maximum ({max_loc_changed})"
        )
    if max_loc_changed == 0:
        return 0.0
    return math.log1p(loc_changed) / math.log1p(max_loc_changed)


def exposure(io_control_nets: int, internal_nets_and_state: int) -> float:
    """Attack-surface estimate: I/O-and-control nets over internal nets + state.

    The raw quotient is returned unclamped (it can exceed 1 for pathological
    IPs); the piracy-threat combination clamps it at 1.
    """
    if not 0 < internal_nets_and_state <= _MAX:
        raise ValueError("internal_nets_and_state must be finite and > 0")
    if not 0 <= io_control_nets <= _MAX:
        raise ValueError("io_control_nets must be finite and >= 0")
    return io_control_nets / internal_nets_and_state


def redaction_ratio(mapped: float, total: float) -> float:
    """Fraction of the IP's logic that can be moved into the fabric; the two
    amounts are compared as floats, as :class:`ecoplan.model.IpProfile` does."""
    if not 0.0 < total <= _MAX:
        raise ValueError("total logic must be finite and > 0")
    if 0 <= mapped <= _MAX:  # before float(), which overflows past it
        mapped, total = float(mapped), float(total)
        if mapped <= total:
            return mapped / total
    raise ValueError(f"mapped logic must be finite and lie in [0, total], got {mapped} of {total}")


def piracy_threat(
    confidentiality: float, exposure_ratio: float, redaction: float, weights: ScoreWeights
) -> float:
    """Weighted threat score mu*C + nu*min(E, 1) + xi*R in [0, 1].

    The exposure ratio is clamped to 1 at this combination point only, so the
    raw ratio stays available for reporting. The sum is capped at 1: weights
    that sum to 1 only within ``WEIGHT_SUM_TOLERANCE`` can push it just above.
    """
    if not 0.0 <= confidentiality <= 1.0:
        raise ValueError(f"confidentiality must lie in [0, 1], got {confidentiality}")
    if not 0.0 <= redaction <= 1.0:
        raise ValueError(f"redaction must lie in [0, 1], got {redaction}")
    if not 0.0 <= exposure_ratio <= _MAX:
        raise ValueError(f"exposure must be finite and >= 0, got {exposure_ratio}")
    threat = weights.mu * confidentiality + weights.nu * min(exposure_ratio, 1.0)
    return min(threat + weights.xi * redaction, 1.0)


def performance_tolerance(f_asic: float, f_efpga: float) -> float:
    """Frequency retention min(f_efpga / f_asic, 1) in (0, 1].

    The ratio is clamped at 1 when the fabric implementation outpaces the
    hardened one; otherwise the convex combination bound of the composite
    would not hold.
    """
    if not (0.0 < f_asic <= _MAX and 0.0 < f_efpga <= _MAX):
        raise ValueError("frequencies must be finite and > 0")
    return min(f_efpga / f_asic, 1.0)


def resource_fit(area: float, a_min: float, a_max: float) -> float:
    """Relative-footprint score (a_max - area) / (a_max - a_min).

    The smallest IP in the set scores 1, the largest 0. When all areas are
    equal there is no differentiation and every IP scores 1.
    """
    if not 0.0 <= a_max - a_min < math.inf:
        raise ValueError(f"area range [{a_min}, {a_max}] must be ordered with a finite span")
    if not a_min <= area <= a_max:
        raise ValueError(f"area {area} outside observed range [{a_min}, {a_max}]")
    if a_max == a_min:
        return 1.0
    return (a_max - area) / (a_max - a_min)


def composite(
    adaptability_score: float,
    piracy_score: float,
    performance_score: float,
    resource_score: float,
    weights: ScoreWeights,
) -> float:
    """Convex combination alpha*A + beta*O + gamma*P + delta*R."""
    if not (0.0 <= adaptability_score <= 1.0 and 0.0 <= piracy_score <= 1.0
            and 0.0 <= performance_score <= 1.0 and 0.0 <= resource_score <= 1.0):
        subs = (adaptability_score, piracy_score, performance_score, resource_score)
        for name, value in zip(("adaptability", "piracy", "performance", "resource"), subs):
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} sub-score must lie in [0, 1], got {value}")
    return (
        weights.alpha * adaptability_score
        + weights.beta * piracy_score
        + weights.gamma * performance_score
        + weights.delta * resource_score
    )


def normalize_composites(values: Sequence[float]) -> list[float]:
    """Divide every composite by the set maximum.

    All tied maxima map to exactly 1.0. If every composite is 0 there is
    nothing to differentiate and all entries are treated as tied maxima.
    """
    if not values:
        raise ValueError("cannot normalize an empty composite list")
    if not all(0.0 <= v <= _MAX for v in values):
        raise ValueError("composites must be finite and >= 0")
    top = max(values)
    if top == 0:
        return [1.0] * len(values)
    return [v / top for v in values]


def rank_cards(cards: Iterable[ScoreCard], area_of: Mapping[str, float]) -> list[ScoreCard]:
    """Cards best-first: composite descending, then smaller area, then id."""
    return sorted(cards, key=lambda c: (-c.composite, area_of[c.ip_id], c.ip_id))


def score_dataset(
    dataset: Dataset, weights: ScoreWeights, *, normalize_piracy: bool = False
) -> list[ScoreCard]:
    """Score every IP and return cards ranked best-first.

    Dataset-wide quantities (max churn, min/max area) are taken over the
    given dataset. Each column maps its public per-IP function, :func:`exposure`
    ... :func:`resource_fit`, over the IPs, and the composites map
    :func:`composite`. Cards are ranked by :func:`rank_cards`.

    ``normalize_piracy`` additionally divides the piracy-threat column by its
    maximum before the composite step. This mirrors score tables that report
    the threat column post-normalized (best = 1.0); it is off by default
    because the weighted combination alone cannot reach 1.0 for typical
    in-range inputs.
    """
    ips = dataset.ips
    locs = [ip.loc_changed for ip in ips]
    areas = [ip.area for ip in ips]
    max_loc, a_min, a_max = max(locs), min(areas), max(areas)

    expo = [exposure(ip.io_control_nets, ip.internal_nets_and_state) for ip in ips]
    redact = [redaction_ratio(ip.logic_mapped_to_efpga, ip.total_logic) for ip in ips]
    piracy = [piracy_threat(ip.confidentiality_risk, e, r, weights)
              for ip, e, r in zip(ips, expo, redact)]
    if normalize_piracy:
        top = max(piracy)
        if top > 0:
            piracy = [value / top for value in piracy]

    ids = [ip.id for ip in ips]
    adapt = list(map(adaptability, locs, repeat(max_loc)))
    perf = [performance_tolerance(ip.f_max_asic, ip.f_max_efpga) for ip in ips]
    fit = list(map(resource_fit, areas, repeat(a_min), repeat(a_max)))
    cards = _cards(ids, adapt, piracy, perf, fit, weights, expo, redact)
    return rank_cards(cards, dict(zip(ids, areas)))


def _cards(
    ids: Sequence[str], adapt: Sequence[float], piracy: Sequence[float], perf: Sequence[float],
    fit: Sequence[float], weights: ScoreWeights, *raw: Sequence[float | None],
) -> list[ScoreCard]:
    """Unranked cards from one column per sub-score, plus the exposure and
    redaction columns as ``raw`` (all None without raw inputs). Composites map
    :func:`composite`, so the first row with a sub-score outside [0, 1] is named."""
    columns = (adapt, piracy, perf, fit)
    composites = list(map(composite, *columns, repeat(weights)))
    normalized = normalize_composites(composites)
    return _build(ScoreCard, (ids, *columns, composites, normalized, *raw))


def score_from_subscores(
    rows: Iterable[tuple[str, float, float, float, float]], weights: ScoreWeights
) -> list[ScoreCard]:
    """Build ranked cards from pre-computed (id, A, O, P, R) tuples.

    Useful for verifying published score tables without the raw inputs.
    Without areas, ranking ties are broken by id alone.
    """
    rows = list(rows)
    if not rows:
        raise ValueError("need at least one sub-score row")
    ids, adapt, piracy, perf, fit = zip(*rows, strict=True)
    cards = _cards(ids, adapt, piracy, perf, fit, weights, [None] * len(ids), [None] * len(ids))
    return rank_cards(cards, dict.fromkeys(ids, 0.0))
