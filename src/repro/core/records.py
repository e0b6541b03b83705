"""Data records inserted into MIND indices."""

import itertools
from dataclasses import dataclass
from types import MappingProxyType
from typing import Any, Mapping, Sequence, Tuple

_RECORD_IDS = itertools.count(1)

#: Shared read-only payload of every record built without one.
_EMPTY_PAYLOAD: Mapping[str, Any] = MappingProxyType({})


@dataclass(frozen=True, slots=True)
class Record:
    """One multi-dimensional data item, immutable once built.

    ``values`` are the indexed attribute values in schema order; ``payload``
    carries the non-indexed attributes (e.g. source prefix, monitor node)
    as scalars.  ``key`` uniquely identifies the record across primaries
    and replicas, so result sets can be compared for recall and
    deduplicated.

    Immutability is the record's wire contract.  The dataclass is frozen,
    ``values`` is a tuple, and ``payload`` is a read-only view over a
    private copy of the caller's dict.  Nothing a receiver can reach from
    a record can be changed, so records cross the simulated wire as
    themselves: senders put the Record in the message and receivers store
    or return it as is, with the same sharing the message-isolation
    levels already give any immutable leaf.

    Slotted: stores retain one instance per stored record — 10^6 of them
    in the scale tier — and the per-instance ``__dict__`` was a third of
    peak RSS there.
    """

    values: Tuple[float, ...]
    payload: Mapping[str, Any]
    key: int

    def __init__(self, values: Sequence[float], payload: Mapping[str, Any] = None, key: int = None) -> None:
        object.__setattr__(self, "values", tuple(values))
        object.__setattr__(self, "payload", MappingProxyType(dict(payload)) if payload else _EMPTY_PAYLOAD)
        object.__setattr__(self, "key", next(_RECORD_IDS) if key is None else key)

    def __hash__(self) -> int:
        return hash(self.key)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Record) and self.key == other.key

    def __deepcopy__(self, memo: dict) -> "Record":
        # An immutable value is its own deep copy (as a tuple of scalars
        # is); the payload view itself cannot be copied.
        return self

    def __repr__(self) -> str:
        return f"Record(values={self.values!r}, payload={dict(self.payload)!r}, key={self.key!r})"

    def value(self, dim: int) -> float:
        return self.values[dim]
