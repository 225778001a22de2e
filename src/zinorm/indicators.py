"""Field- and time-normalized impact indicators with 95% confidence intervals.

All four indicators compare a group's per-stratum mention proportions against
the world's, where the world profile contains the group. Values are ratios:
1.0 means the group performs like the world baseline. Intervals are normal
approximations on the log scale (except MNPC, whose interval is assembled
from per-stratum log-scale intervals) using the fixed 95% quantile 1.96.

Each formula is written once, as an array function over cells shaped
``(..., strata)`` that returns an `Estimate`: a single report evaluates it
on 1-D cells through the profile-level functions (`emnpc`, `mnpc`, `mhq`,
`mhq_prime`), and the coverage experiment on ``(replications, strata)``
cells, into scratch buffers it passes as ``out`` and reuses from block to
block. With or without ``out``, each element goes through the same IEEE
operations in the same order, so the results are the same bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, NamedTuple

import numpy as np

from ._kernels import mh_accumulate, mh_batch
from .errors import DegenerateComputationError, InputDataError
from .profiles import CountProfile, StratumKey, world_rows

#: Normal quantile used by every interval here; fixed rather than configurable.
Z95 = 1.96


class IndicatorKind(Enum):
    """The four indicators, declared in the order reports list them."""

    EMNPC = "emnpc"
    MNPC = "mnpc"
    MHQ = "mhq"
    MHQ_PRIME = "mhq_prime"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class IndicatorResult:
    """A computed indicator value with its 95% confidence interval.

    Invariants are checked on construction: the value and both bounds are
    finite and positive, the bounds bracket the value, and at least one
    stratum contributed.
    """

    kind: IndicatorKind
    value: float
    ci_lower: float
    ci_upper: float
    strata_used: int
    notes: tuple[str, ...] = field(default=())

    def __post_init__(self) -> None:
        for name in ("value", "ci_lower", "ci_upper"):
            x = getattr(self, name)
            if not math.isfinite(x) or x <= 0:
                raise DegenerateComputationError(
                    f"{self.kind} {name} is not a positive finite number: {x!r}"
                )
        if not (self.ci_lower <= self.value <= self.ci_upper):
            raise DegenerateComputationError(
                f"{self.kind} interval [{self.ci_lower}, {self.ci_upper}] "
                f"does not bracket the value {self.value}"
            )
        if self.strata_used < 1:
            raise DegenerateComputationError(
                f"{self.kind} computed from no strata"
            )


def percent_vs_world(value: float) -> float:
    """Express a ratio indicator as a percentage difference from the world."""
    if not math.isfinite(value) or value <= 0:
        raise DegenerateComputationError(
            f"cannot express {value!r} as a percentage of the world baseline"
        )
    return 100.0 * (value - 1.0)


def _mentioned_and_total(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mentioned and total counts of ``(strata, 2)`` cells; none may be empty."""
    mentioned, not_mentioned = counts.T
    total = mentioned + not_mentioned
    if not total.all():
        raise DegenerateComputationError("stratum has no papers")
    return mentioned, total


def _equalized(mentioned: np.ndarray, total: np.ndarray, out=None) -> np.ndarray:
    """Mean mentioned proportion over the strata; `out` takes the proportions."""
    return np.divide(mentioned, total, out=out).mean(axis=-1)


class Estimate(NamedTuple):
    """Indicator values and 95% bounds over the leading axes of the cells.

    Where ``degenerate`` is true the interval is undefined, and the value
    and both bounds are NaN. ``strata_used`` counts contributing strata.
    """

    value: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    degenerate: np.ndarray
    strata_used: np.ndarray


def _estimate(value, lower, upper, degenerate, strata_used) -> Estimate:
    value, lower, upper = (
        np.where(degenerate, np.nan, x) for x in (value, lower, upper)
    )
    strata_used = np.broadcast_to(strata_used, np.shape(degenerate))
    return Estimate(value, lower, upper, degenerate, strata_used)


def emnpc_arrays(
    group_mentioned: np.ndarray,
    group_total: np.ndarray,
    world_mentioned: np.ndarray,
    world_total: np.ndarray,
) -> Estimate:
    """EMNPC over per-stratum counts shaped ``(..., strata)``.

    The group counts cover the group's strata and the world counts those
    of the world baseline, so the two strata axes may differ in length.
    Degenerate where either equalized proportion is zero.
    """
    return _emnpc(
        _equalized(group_mentioned, group_total),
        group_total.sum(axis=-1),
        _equalized(world_mentioned, world_total),
        world_total.sum(axis=-1),
        np.shape(group_mentioned)[-1],
    )


def _emnpc(p_g, group_papers, p_w, world_papers, strata: int) -> Estimate:
    """EMNPC from the equalized proportions and paper totals of group and world."""
    with np.errstate(divide="ignore", invalid="ignore"):
        half_width = Z95 * np.sqrt(
            ((1.0 - p_g) / p_g) / group_papers
            + ((1.0 - p_w) / p_w) / world_papers
        )
        value = p_g / p_w
        return _estimate(
            value,
            value * np.exp(-half_width),
            value * np.exp(half_width),
            (p_g == 0) | (p_w == 0),
            strata,
        )


def mnpc_arrays(
    group_mentioned: np.ndarray,
    group_total: np.ndarray,
    world_mentioned: np.ndarray,
    world_total: np.ndarray,
    out=None,
) -> Estimate:
    """MNPC over per-stratum counts shaped ``(..., strata)``.

    Group and world counts both cover the group's strata. Degenerate where
    some stratum has a zero group or world mentioned proportion. `out`, if
    given, holds six float64 and then two bool arrays shaped like the
    counts, which take the intermediates; otherwise they are allocated.
    """
    p_gf, p_wf, weights, ratio, x, y, zero, flag = out or (None,) * 8
    with np.errstate(divide="ignore", invalid="ignore"):
        p_gf = np.divide(group_mentioned, group_total, out=p_gf)
        p_wf = np.divide(world_mentioned, world_total, out=p_wf)
        weights = np.divide(
            group_total, group_total.sum(axis=-1, keepdims=True), out=weights
        )
        ratio = np.divide(p_gf, p_wf, out=ratio)
        # half_width = Z95 * sqrt(((1 - p_gf) / p_gf) / group_total
        #                         + ((1 - p_wf) / p_wf) / world_total)
        x = np.subtract(1.0, p_gf, out=x)
        x /= p_gf
        x /= group_total
        y = np.subtract(1.0, p_wf, out=y)
        y /= p_wf
        y /= world_total
        x += y
        half_width = np.sqrt(x, out=x)
        half_width *= Z95
        value = np.multiply(weights, ratio, out=y).sum(axis=-1)
        # lower_f = ratio * exp(-half_width); weights * (ratio - lower_f)
        lower_f = np.exp(np.negative(half_width, out=y), out=y)
        lower_f *= ratio
        arm = np.subtract(ratio, lower_f, out=y)
        arm *= weights
        lower = value - arm.sum(axis=-1)
        # upper_f = ratio * exp(half_width); weights * (upper_f - ratio)
        upper_f = np.exp(half_width, out=x)
        upper_f *= ratio
        arm = np.subtract(upper_f, ratio, out=x)
        arm *= weights
        upper = value + arm.sum(axis=-1)
    zero = np.equal(p_gf, 0, out=zero)
    zero |= np.equal(p_wf, 0, out=flag)
    degenerate = zero.any(axis=-1)
    return _estimate(value, lower, upper, degenerate, np.shape(group_mentioned)[-1])


def mh_quotient_arrays(
    a: np.ndarray,
    b: np.ndarray,
    c: np.ndarray,
    d: np.ndarray,
    n=None,
    out=None,
) -> Estimate:
    """Mantel-Haenszel quotient over cells shaped ``(..., strata)``.

    a, b are the group's cells and c, d the comparison row's. The interval
    uses the Robins-Breslow-Greenland log-scale variance. Degenerate where
    the pooled numerator or denominator is zero; ``strata_used`` counts the
    strata with a nonzero numerator or denominator term. Over more than one
    axis, `n` (a+b+c+d, if the caller has it) and `out` (scratch buffers)
    go to `mh_batch`.
    """
    if np.ndim(a) == 1:
        sums = mh_accumulate(a, b, c, d)
    else:
        sums = mh_batch(a, b, c, d, n, out)
    r, s, pr, cross, qs, contributing = (np.asarray(x) for x in sums)
    with np.errstate(divide="ignore", invalid="ignore"):
        variance = 0.5 * (pr / r**2 + cross / (r * s) + qs / s**2)
        half_width = Z95 * np.sqrt(variance)
        value = r / s
        return _estimate(
            value,
            value * np.exp(-half_width),
            value * np.exp(half_width),
            (r == 0) | (s == 0),
            contributing,
        )


def _result(
    kind: IndicatorKind, estimate: Estimate, notes: Iterable[str] = ()
) -> IndicatorResult:
    return IndicatorResult(
        kind=kind,
        value=float(estimate.value),
        ci_lower=float(estimate.lower),
        ci_upper=float(estimate.upper),
        strata_used=int(estimate.strata_used),
        notes=tuple(notes),
    )


def _group_rows(group: CountProfile, world: CountProfile) -> np.ndarray:
    """Rows of the group's strata in the world; the group must have some."""
    rows = world_rows(world, group)
    if len(group) == 0:
        raise DegenerateComputationError(
            f"group {group.label!r} has no strata"
        )
    return rows


def _cell_arrays(
    group: CountProfile, world: CountProfile
) -> tuple[tuple[StratumKey, ...], np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Group and world cells over the group's strata, dominance-checked."""
    keys = group.strata()
    a, b = group.counts.T
    c, d = world.counts[_group_rows(group, world)].T
    exceeds = (a > c) | (b > d)
    if exceeds.any():
        raise InputDataError(
            f"stratum {keys[int(exceeds.argmax())]}: group {group.label!r} "
            "counts exceed the world counts; the world must contain the group"
        )
    return keys, a, b, c, d


def emnpc(group: CountProfile, world: CountProfile) -> IndicatorResult:
    """Equalized mean normalized proportion cited/mentioned.

    The group's stratum-equalized mentioned proportion divided by the
    world's. The world average always runs over all world strata, also
    those where the group has no papers.

    Raises
    ------
    DegenerateComputationError
        If either equalized proportion is zero (the log-scale interval
        is undefined); continuity-correct the profiles first.
    """
    _group_rows(group, world)  # the group's strata must be in the world
    group_counts = _mentioned_and_total(group.counts)
    world_counts = _mentioned_and_total(world.counts)
    estimate = emnpc_arrays(*group_counts, *world_counts)
    if estimate.degenerate:
        p_g = _equalized(*group_counts)
        p_w = _equalized(*world_counts)
        raise DegenerateComputationError(
            "equalized proportion is zero for "
            f"{group.label!r} vs world ({p_g:g} / {p_w:g}); apply a "
            "continuity correction or drop the empty strata"
        )
    notes = [
        "interval width combines stratum-equalized proportions with pooled "
        "paper totals"
    ]
    return _result(IndicatorKind.EMNPC, estimate, notes)


def mnpc(group: CountProfile, world: CountProfile) -> IndicatorResult:
    """Mean normalized proportion cited/mentioned.

    Equivalent formulations: the size-weighted mean over the group's strata
    of (group proportion / world proportion), or the per-paper mean where a
    mentioned paper scores 1 over its stratum's world proportion and an
    unmentioned paper scores 0.

    The interval combines per-stratum log-scale ratio intervals: the bound
    offsets are the size-weighted sums of the per-stratum offsets, which
    keeps the lower bound positive.

    Raises
    ------
    DegenerateComputationError
        If any stratum has a zero group or world mentioned cell; apply a
        continuity correction (or drop such strata) first.
    """
    keys, a, b, c, d = _cell_arrays(group, world)
    n_gf = a + b
    n_wf = c + d
    if n_gf.sum() == 0:
        raise DegenerateComputationError(
            f"group {group.label!r} has no papers"
        )
    estimate = mnpc_arrays(a, n_gf, c, n_wf)
    if estimate.degenerate:
        with np.errstate(invalid="ignore"):
            world_zero = c / n_wf == 0
            group_zero = a / n_gf == 0
        i = int((world_zero | group_zero).argmax())
        if world_zero[i]:
            raise DegenerateComputationError(
                f"stratum {keys[i]}: world has no mentioned papers; apply a "
                "continuity correction or drop the stratum"
            )
        raise DegenerateComputationError(
            f"stratum {keys[i]}: group {group.label!r} has no mentioned "
            "papers; apply a continuity correction"
        )
    return _result(IndicatorKind.MNPC, estimate)


def _mh_result(
    kind: IndicatorKind,
    label: str,
    a: np.ndarray,
    b: np.ndarray,
    c: np.ndarray,
    d: np.ndarray,
    notes: list[str],
) -> IndicatorResult:
    estimate = mh_quotient_arrays(a, b, c, d)
    if estimate.degenerate:
        side = "denominator" if (a * d).any() else "numerator"
        raise DegenerateComputationError(
            f"{kind} for {label!r}: pooled {side} is zero; the quotient "
            "is undefined"
        )
    skipped = len(a) - int(estimate.strata_used)
    if skipped:
        notes.append(
            f"{skipped} stratum(s) with empty numerator and denominator "
            "contributed nothing"
        )
    return _result(kind, estimate, notes)


def mhq(group: CountProfile, world: CountProfile) -> IndicatorResult:
    """Mantel-Haenszel quotient of the group against the whole world.

    Pools per-stratum 2x2 tables (group row vs world row) into a single
    odds-ratio-style quotient; the interval uses the robust log-scale
    variance estimator for sparse pooled tables. Strata where both the
    pooled numerator and denominator terms vanish contribute nothing.

    Raises
    ------
    InputDataError
        If any group cell exceeds its world cell.
    DegenerateComputationError
        If the pooled numerator or denominator is zero.
    """
    _, a, b, c, d = _cell_arrays(group, world)
    return _mh_result(IndicatorKind.MHQ, group.label, a, b, c, d, [])


def mhq_prime(group: CountProfile, world: CountProfile) -> IndicatorResult:
    """Mantel-Haenszel quotient against the world excluding the group.

    Identical to `mhq` except the comparison row is the world minus the
    group's own papers, so a group is never compared against itself.
    Strata where the group is the entire world have an empty comparison
    row and are skipped with a note.

    Raises
    ------
    DegenerateComputationError
        If the group covers the whole world in every stratum, or the
        pooled numerator or denominator is zero.
    """
    keys, a, b, c, d = _cell_arrays(group, world)
    c_prime = c - a
    d_prime = d - b
    keep = (c_prime + d_prime) > 0
    notes: list[str] = []
    dropped = int((~keep).sum())
    if dropped:
        skipped_keys = [str(k) for k, used in zip(keys, keep) if not used]
        notes.append(
            f"skipped {dropped} stratum(s) where the group is the entire "
            "world: " + ", ".join(skipped_keys)
        )
    if not keep.any():
        raise DegenerateComputationError(
            f"group {group.label!r} is the entire world in every stratum; "
            "nothing remains to compare against"
        )
    return _mh_result(
        IndicatorKind.MHQ_PRIME,
        group.label,
        a[keep],
        b[keep],
        c_prime[keep],
        d_prime[keep],
        notes,
    )
