"""The conductor map from imaginary to real quadratic orders.

Given an order of conductor f in Q(sqrt(-d)), the matching real order in
Q(sqrt(d)) has the least conductor f' whose wide class number equals the
imaginary side's. The scan runs from f' = 1 through one pass of the
class-number kernel, which builds the real field once, and stops at f' = 1
when the field's class number does not divide the target.
"""

from __future__ import annotations

from . import quadforms
from .errors import Record, SearchLimitExceeded
from .intmath import squarefree_core
from .quadforms import BinaryQuadraticForm, QuadraticOrder

DEFAULT_SEARCH_LIMIT = 10_000


class RMTriple(Record):
    """An order in a real quadratic field with its ideal class representatives."""

    order: QuadraticOrder
    ideal_classes: tuple[BinaryQuadraticForm, ...]
    field_discriminant: int

    def __post_init__(self):
        if self.order.d_k <= 0:
            raise ValueError("the field must be real quadratic")
        if self.field_discriminant != self.order.d_k:
            raise ValueError("field discriminant does not match the order")
        expected = quadforms.class_number(self.order.discriminant, "wide")
        if len(self.ideal_classes) != expected:
            raise ValueError(
                f"{len(self.ideal_classes)} representatives for class number {expected}"
            )


def _normalize_radicand(d: int) -> int:
    if d <= 0:
        raise ValueError("d must be positive")
    core, _ = squarefree_core(d)
    if core == 1:
        raise ValueError(f"{d} is a perfect square; no quadratic field")
    return core


def rm_conductor(d: int, f: int, search_limit: int = DEFAULT_SEARCH_LIMIT) -> int:
    """Least f' with |Cl(Z + f'*O_Q(sqrt(d)))| = |Cl(Z + f*O_Q(sqrt(-d)))|.

    Both class numbers are wide. d is normalized to its squarefree core.
    Raises SearchLimitExceeded when no f' <= search_limit matches.
    """
    return _match(_normalize_radicand(d), f, search_limit)[1]


def _match(core: int, f: int, limit: int) -> tuple[int, int, int]:
    """(d_K, f', h) for the squarefree core: the real field's discriminant,
    the conductor matched to the order of conductor f in Q(sqrt(-core)), and
    the wide class number the two orders share."""
    if f < 1:
        raise ValueError("conductor f must be positive")
    _, target = next(quadforms._class_numbers(quadforms._field_discriminant(-core), (f,)))
    d_k = quadforms._field_discriminant(core)
    return d_k, _scan(d_k, target, limit)[0], target


def _scan(rm_k: int, target: int, limit: int) -> tuple[int, int, int]:
    """(f', narrow, wide) of the least f' <= limit whose order in the real field
    rm_k has wide class number target. Pic(Z + f'*O_K) maps onto Pic(O_K), so
    h_K divides every order's wide class number: if it does not divide the
    target, nothing is scanned."""
    if limit < 1:
        raise ValueError("search limit must be positive")
    conductors = range(1, limit + 1)
    for fp, (narrow, wide) in zip(conductors, quadforms._class_numbers(rm_k, conductors)):
        if wide == target:
            return fp, narrow, wide
        if fp == 1 and target % wide:
            break
    raise SearchLimitExceeded(target, limit)


def rm_triple(
    d: int,
    f: int,
    search_limit: int = DEFAULT_SEARCH_LIMIT,
) -> RMTriple:
    """The real-multiplication data matching complex multiplication by (d, f).

    The order's wide representatives are lifted from its field, and counted
    against the wide class number the scan matched.
    """
    d_k, fp, wide = _match(_normalize_radicand(d), f, search_limit)
    disc = d_k * fp * fp
    reps = sorted(quadforms._wide_names(quadforms._classes(d_k, fp), disc))
    if len(reps) != wide:
        raise AssertionError(f"{len(reps)} wide classes of {disc}, not {wide}")
    return RMTriple._trusted(
        QuadraticOrder._trusted(d_k, fp), tuple(BinaryQuadraticForm(*g) for g in reps), d_k
    )
