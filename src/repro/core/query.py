"""Multi-dimensional range queries (hyper-rectangles in attribute space).

A query gives a ``[lo, hi)`` interval per indexed attribute; ``None`` on
either side means unbounded on that side (a fully ``(None, None)`` dimension
is the paper's wildcard).  Queries operate in raw attribute units; the
embedding converts them to normalized rectangles.
"""

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.records import Record
from repro.core.schema import IndexSchema

Bound = Optional[float]
Interval = Tuple[Bound, Bound]
#: A normalized rectangle: per-dimension [lo, hi) within [0, 1].
NormRect = Tuple[Tuple[float, float], ...]


@dataclass(frozen=True)
class RangeQuery:
    """A hyper-rectangle over an index's attribute space.

    Example: the paper's alpha-flow query on Index-2 — *all flows destined
    for D carrying at least O octets within period T* — is::

        RangeQuery("index2", {
            "dest_prefix": (d_lo, d_hi),
            "timestamp": (t0, t0 + 300),
            "octets": (4_000_000, None),
        })
    """

    index: str
    ranges: Tuple[Tuple[str, Interval], ...]

    def __init__(self, index: str, ranges: Dict[str, Interval]) -> None:
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "ranges", tuple(sorted(ranges.items())))

    def interval(self, attribute: str) -> Interval:
        for name, iv in self.ranges:
            if name == attribute:
                return iv
        return (None, None)

    def intervals_for(self, schema: IndexSchema) -> List[Interval]:
        """Per-dimension intervals in schema attribute order."""
        known = set(schema.attribute_names)
        for name, _ in self.ranges:
            if name not in known:
                raise KeyError(f"query names unknown attribute {name!r} of index {schema.name}")
        return [self.interval(a) for a in schema.attribute_names]

    def matches(self, schema: IndexSchema, record: Record) -> bool:
        """Does a record fall inside this query's hyper-rectangle?

        Evaluated in normalized coordinates so that every layer — local
        stores, embeddings, ground-truth evaluation — agrees exactly,
        including for out-of-domain values clamped to the top of the
        range.  This is the scalar reference: ground-truth evaluation uses
        it, and the originator's batched response filter (``rect_mask``
        over ``normalize_batch``) is tested against it.
        """
        rect = self.normalized_rect(schema)
        return rect_contains_point(rect, schema.normalize(record.values))

    def normalized_rect(self, schema: IndexSchema) -> NormRect:
        """The query as a normalized rectangle (closed at 1.0 on top).

        Unbounded sides extend to the domain edge.  An upper bound at or
        beyond the attribute domain maps to 1.0 so that clamped top-of-range
        records still match.
        """
        rect = []
        for attr, (lo, hi) in zip(schema.attributes, self.intervals_for(schema)):
            n_lo = 0.0 if lo is None else attr.normalize(lo)
            if hi is None or hi >= attr.hi:
                n_hi = 1.0
            else:
                n_hi = attr.normalize(hi)
            if n_hi < n_lo:
                n_hi = n_lo
            rect.append((n_lo, n_hi))
        return tuple(rect)

    def to_wire(self) -> Dict:
        return {"index": self.index, "ranges": {k: list(v) for k, v in self.ranges}}

    @classmethod
    def from_wire(cls, data: Dict) -> "RangeQuery":
        return cls(data["index"], {k: (v[0], v[1]) for k, v in data["ranges"].items()})


def rect_intersection(a: NormRect, b: NormRect) -> Optional[NormRect]:
    """Intersection of two normalized rectangles, or ``None`` if empty."""
    out = []
    for (alo, ahi), (blo, bhi) in zip(a, b):
        lo, hi = max(alo, blo), min(ahi, bhi)
        if hi <= lo:
            return None
        out.append((lo, hi))
    return tuple(out)


def rect_contains_point(rect: NormRect, point: Sequence[float]) -> bool:
    """Is a normalized point inside the rectangle (half-open, closed at 1)?"""
    for (lo, hi), x in zip(rect, point):
        if x < lo:
            return False
        if x >= hi and not (hi >= 1.0 and x < 1.0):
            return False
    return True


def rect_mask(points: np.ndarray, rect: NormRect) -> Optional[np.ndarray]:
    """Vectorized :func:`rect_contains_point` over the rows of ``points``.

    Mirrors the scalar semantics exactly for *normalized* points (which
    ``IndexSchema.normalize``/``normalize_batch`` guarantee lie in
    ``[0, 1)``): half-open per dimension, except a top bound at/above 1.0
    admits every in-domain point (clamped out-of-domain records sit at
    ``1 - eps``).  Bounds that cannot exclude a normalized point —
    ``lo <= 0`` and ``hi >= 1`` — are skipped entirely; returns ``None``
    when every dimension is unbounded (all rows match).
    """
    mask: Optional[np.ndarray] = None
    for dim, (lo, hi) in enumerate(rect):
        column = points[:, dim]
        if lo > 0.0:
            test = column >= lo
            mask = test if mask is None else (mask & test)
        if hi < 1.0:
            test = column < hi
            mask = test if mask is None else (mask & test)
    return mask


def full_rect(dimensions: int) -> NormRect:
    return tuple((0.0, 1.0) for _ in range(dimensions))
