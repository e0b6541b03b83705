"""Columnar answer oracle for range queries issued during a benchmark run.

Every record the benchmark inserts is kept as one row: its normalized
point (from the schema's own ``normalize_batch``), the virtual time its
insert was issued, and the virtual time it was acknowledged (``inf`` while
unacknowledged or failed).  A query that started at ``s`` and ended at
``e`` with no failed regions must return

    matching records acked before ``s``  ⊆  answer  ⊆  matching records issued by ``e``

Records in flight while the query ran may or may not be in the answer;
anything outside those bounds is a wrong answer.
"""

from typing import Iterable

import numpy as np

from repro.core.query import RangeQuery
from repro.core.schema import IndexSchema


def rect_mask(points: np.ndarray, rect) -> np.ndarray:
    """Rows of ``points`` inside a normalized rectangle.

    Same half-open rule as :func:`repro.core.query.rect_contains_point`:
    ``lo <= x < hi``, with the top edge closed when ``hi`` reaches 1.0.
    Written independently of the store's scan so the oracle does not
    share code with the system it checks.
    """
    mask = np.ones(len(points), dtype=bool)
    for dim, (lo, hi) in enumerate(rect):
        x = points[:, dim]
        mask &= x >= lo
        mask &= (x < hi) | ((hi >= 1.0) & (x < 1.0))
    return mask


class Oracle:
    """Issue/ack bookkeeping for records keyed ``1..n``."""

    def __init__(self, schema: IndexSchema, values: np.ndarray) -> None:
        self.schema = schema
        self.points = schema.normalize_batch(values)
        n = len(values)
        self.issued_at = np.full(n, np.inf)
        self.acked_at = np.full(n, np.inf)

    def issued(self, key: int, now: float) -> None:
        self.issued_at[key - 1] = now

    def acked(self, key: int, now: float) -> None:
        self.acked_at[key - 1] = now

    def violates(self, query: RangeQuery, start: float, end: float, keys: Iterable[int]) -> bool:
        """Does a complete answer break the oracle bounds?"""
        n = len(self.points)
        answer = np.zeros(n, dtype=bool)
        for key in keys:
            if not 1 <= key <= n:
                return True  # a record the benchmark never inserted
            answer[key - 1] = True
        match = rect_mask(self.points, query.normalized_rect(self.schema))
        must = match & (self.acked_at < start)
        may = match & (self.issued_at <= end)
        return bool(np.any(must & ~answer) or np.any(answer & ~may))
