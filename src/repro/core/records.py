"""Data records inserted into MIND indices."""

import itertools
from dataclasses import dataclass, field
from typing import Any, Dict, Sequence, Tuple

_RECORD_IDS = itertools.count(1)

#: A record on the simulated wire: ``(values, payload, key)``.
WireRecord = Tuple[Tuple[float, ...], Dict[str, Any], int]


@dataclass(frozen=True, slots=True)
class Record:
    """One multi-dimensional data item.

    ``values`` are the indexed attribute values in schema order; ``payload``
    carries the non-indexed attributes (e.g. source prefix, monitor node).
    ``key`` uniquely identifies the record across primaries and replicas, so
    result sets can be compared for recall and deduplicated.

    Slotted: stores retain one instance per stored record — 10^6 of them
    in the scale tier — and the per-instance ``__dict__`` was a third of
    peak RSS there.
    """

    values: Tuple[float, ...]
    payload: Dict[str, Any] = field(default_factory=dict)
    key: int = field(default_factory=lambda: next(_RECORD_IDS))

    def __init__(self, values: Sequence[float], payload: Dict[str, Any] = None, key: int = None) -> None:
        object.__setattr__(self, "values", tuple(values))
        object.__setattr__(self, "payload", dict(payload or {}))
        object.__setattr__(self, "key", next(_RECORD_IDS) if key is None else key)

    def __hash__(self) -> int:
        return hash(self.key)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Record) and self.key == other.key

    def value(self, dim: int) -> float:
        return self.values[dim]

    def to_wire(self) -> WireRecord:
        """The record as a ``(values, payload, key)`` tuple.

        A tuple rather than a keyed dict: every record a query returns
        crosses the wire, and building and unpacking a dict per record
        costs a measurable share of the result path.  ``values`` is
        already an immutable tuple and is shipped as is; the payload dict
        is shared until :meth:`from_wire` copies it on the receiving side.
        """
        return (self.values, self.payload, self.key)

    @classmethod
    def from_wire(cls, data: WireRecord) -> "Record":
        values, payload, key = data
        return cls(values, payload, key)
