"""The tuple-space layer: DepSpace's storage and synchronization kernel.

Implements the (non-blocking halves of the) DepSpace API:

* ``out(t)`` — insert a tuple,
* ``rdp(T)`` / ``inp(T)`` — read / take the oldest match, or None,
* ``rdall(T)`` — read every match (Table 2's ``rdAll``),
* ``cas(T, t)`` — insert ``t`` iff nothing matches ``T`` (the paper's
  "test-and-set-like" primitive),
* ``replace(T, t)`` — atomically swap the oldest match for ``t`` (the
  new tuple is the youngest);
* ``put(key, t)`` — store ``t`` under a key ``take`` returned, at that
  key's age (EDS's update and undo log).

Blocking (``rd``/``in``) is implemented by the replica on top of this
layer, since waiter bookkeeping must be coordinated with reply routing.
Determinism: "oldest match" is insertion order, and insertion order is
fixed by the BFT total order, so every correct replica returns the same
answers.

Lookups are indexed on the first field — the object convention
``(name, payload)`` makes that the discriminating field — with an
exact-value bucket index plus a sorted name list for ``Prefix``
templates, so matching cost stays logarithmic as the space grows.

Index-aware matching: when the template's first field is a ``str``
(answered from its bucket) or a ``Prefix`` (answered from the name
range), every candidate the index returns already satisfies field 0,
so only the arity and the remaining non-``ANY`` fields are tested. This
is exact, not a heuristic, because of two invariants the index keeps:

* a ``str`` bucket holds exactly the keys whose first field equals that
  string (no other primitive compares equal to a ``str``, and ``bool``
  can never equal one, so the ``True``/``1`` rule cannot apply);
* the name list holds exactly the keys whose first field is a ``str``,
  sorted by ``(name, key)``, so the half-open range
  ``[prefix, successor(prefix))`` is exactly the names starting with
  ``prefix``.

Every other first field (``ANY``, numbers, bytes, ``None``, unhashable
values) goes through the full :func:`~.tuples.matches`: an int bucket
also holds ``True`` and ``1.0``, which only the full test separates.

Lease tuples (DepSpace's client-failure detection, Table 2's
``monitor``): a tuple may be registered with a lease; replicas purge
expired leases deterministically using the agreed timestamp that the
ordering protocol attaches to every delivered request.
"""

from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass
from typing import (Any, Callable, Dict, Iterable, List, Optional, Sequence,
                    Tuple)

from .tuples import (BadTupleError, Prefix, _Any, _field_matches, is_template,
                     matches)

__all__ = ["TupleSpace", "LeaseRecord"]

#: The highest code point; a prefix ending in it has no one-char successor.
_MAX_CHAR = chr(0x10FFFF)


@dataclass
class LeaseRecord:
    owner: str
    expires_at: float


def _successor(prefix: str) -> Optional[str]:
    """Least string above every string that starts with ``prefix``.

    None when no such string exists (``""`` or all ``_MAX_CHAR``): the
    prefix range then runs to the end of the name list.
    """
    stem = prefix.rstrip(_MAX_CHAR)
    if not stem:
        return None
    return stem[:-1] + chr(ord(stem[-1]) + 1)


def _put_ordered(mapping: Dict[int, Any], key: int,
                 value: Any) -> Dict[int, Any]:
    """Add ``key`` keeping the keys in increasing (insertion) order;
    returns the dict to keep, rebuilt when ``key`` belongs in the middle."""
    newest = next(reversed(mapping), -1)
    mapping[key] = value
    if key > newest:
        return mapping
    return dict(sorted(mapping.items()))


#: Test an entry of the template's arity must pass; None when it always does.
_Test = Optional[Callable[[Tuple[Any, ...]], bool]]


def _tail_test(template: Sequence[Any]) -> _Test:
    """Test for candidates whose first field the index already proved."""
    rest = [(index, pattern) for index, pattern in enumerate(template)
            if index and not isinstance(pattern, _Any)]
    if not rest:
        return None
    return lambda entry: all(
        _field_matches(pattern, entry[index]) for index, pattern in rest)


class TupleSpace:
    """Insertion-ordered multiset of tuples with template matching."""

    def __init__(self):
        self._entries: Dict[int, Tuple[Any, ...]] = {}
        self._next_key = 0
        self._leases: Dict[int, LeaseRecord] = {}
        #: no lease expires before this instant (a lower bound: removing
        #: a lease can only raise the true minimum, so it is left alone).
        self._lease_floor = math.inf
        #: exact first field -> insertion-ordered set of keys.
        self._buckets: Dict[Any, Dict[int, None]] = {}
        #: sorted (string first field, key) pairs for Prefix queries.
        self._names: List[Tuple[str, int]] = []

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self):
        return iter(self._entries.values())

    # -- index maintenance -------------------------------------------------

    def _index_add(self, key: int, entry: Tuple[Any, ...]) -> None:
        if not entry:
            return
        first = entry[0]
        try:
            self._buckets[first] = _put_ordered(self._buckets.get(first, {}),
                                                key, None)
        except TypeError:
            pass  # unhashable first field: full scans will find it
        if isinstance(first, str):
            bisect.insort(self._names, (first, key))

    def _index_remove(self, key: int, entry: Tuple[Any, ...]) -> None:
        if not entry:
            return
        first = entry[0]
        try:
            bucket = self._buckets.get(first)
            if bucket is not None:
                bucket.pop(key, None)
                if not bucket:
                    del self._buckets[first]
        except TypeError:
            pass
        if isinstance(first, str):
            index = bisect.bisect_left(self._names, (first, key))
            if index < len(self._names) and self._names[index] == (first, key):
                del self._names[index]

    def _candidates(self, template: Sequence[Any]) -> Tuple[Iterable[int],
                                                             _Test]:
        """Keys to test against ``template`` in insertion order, and the
        test an entry of the right arity must also pass (see the module
        docstring)."""
        if not template:
            return (), None
        first = template[0]
        if first.__class__ is str:
            return self._buckets.get(first, ()), _tail_test(template)
        if isinstance(first, Prefix):
            names = self._names
            low = bisect.bisect_left(names, (first.prefix, -1))
            upper = _successor(first.prefix)
            high = (len(names) if upper is None
                    else bisect.bisect_left(names, (upper, -1), low))
            keys = [key for _name, key in names[low:high]]
            keys.sort()
            return keys, _tail_test(template)
        full = functools.partial(matches, template)
        if isinstance(first, _Any):
            return self._entries, full
        try:
            return self._buckets.get(first, ()), full
        except TypeError:
            return self._entries, full

    # -- core operations ---------------------------------------------------

    def out(self, entry: Sequence[Any], lease: Optional[LeaseRecord] = None) -> None:
        """Insert a concrete tuple (optionally lease-bound)."""
        entry = tuple(entry)
        if is_template(entry):
            raise BadTupleError("cannot out() a template")
        if not entry:
            raise BadTupleError("tuples must have at least one field")
        key = self._next_key
        self._next_key += 1
        self._entries[key] = entry
        self._index_add(key, entry)
        if lease is not None:
            self._attach_lease(key, lease)

    def _attach_lease(self, key: int, lease: LeaseRecord) -> None:
        self._leases[key] = lease
        self._lease_floor = min(self._lease_floor, lease.expires_at)

    def put(self, key: int, entry: Sequence[Any],
            lease: Optional[LeaseRecord] = None) -> None:
        """Store ``entry`` under ``key``, a key :meth:`take` returned,
        replacing whatever the key holds: the tuple takes that key's age
        in the insertion order every "oldest match" follows."""
        entry = tuple(entry)
        if key in self._entries:
            self._remove(key)
        elif not 0 <= key < self._next_key:
            raise BadTupleError(f"put() takes a key this space issued, "
                                f"not {key}")
        self._entries = _put_ordered(self._entries, key, entry)
        self._index_add(key, entry)
        if lease is not None:
            self._attach_lease(key, lease)

    def _find(self, template: Sequence[Any]) -> Optional[int]:
        keys, test = self._candidates(template)
        entries = self._entries
        arity = len(template)
        for key in keys:
            entry = entries[key]
            if len(entry) == arity and (test is None or test(entry)):
                return key
        return None

    def rdp(self, template: Sequence[Any]) -> Optional[Tuple[Any, ...]]:
        """Oldest matching tuple, or None (non-destructive)."""
        key = self._find(template)
        return self._entries[key] if key is not None else None

    def _remove(self, key: int) -> Tuple[Any, ...]:
        entry = self._entries.pop(key)
        self._index_remove(key, entry)
        self._leases.pop(key, None)
        return entry

    def take(self, template: Sequence[Any]) -> Optional[
            Tuple[int, Tuple[Any, ...], Optional[LeaseRecord]]]:
        """Remove the oldest match; returns ``(key, entry, lease)`` — what
        :meth:`put` needs to restore it — or None."""
        key = self._find(template)
        if key is None:
            return None
        lease = self._leases.get(key)
        return key, self._remove(key), lease

    def inp(self, template: Sequence[Any]) -> Optional[Tuple[Any, ...]]:
        """Remove and return the oldest matching tuple, or None."""
        key = self._find(template)
        return self._remove(key) if key is not None else None

    def rdall(self, template: Sequence[Any]) -> List[Tuple[Any, ...]]:
        """Every matching tuple, oldest first."""
        keys, test = self._candidates(template)
        arity = len(template)
        return [entry for entry in map(self._entries.__getitem__, keys)
                if len(entry) == arity and (test is None or test(entry))]

    def cas(self, template: Sequence[Any], entry: Sequence[Any]) -> bool:
        """Insert ``entry`` iff no tuple matches ``template``."""
        if self.rdp(template) is not None:
            return False
        self.out(entry)
        return True

    def replace(self, template: Sequence[Any],
                entry: Sequence[Any]) -> Optional[Tuple[Any, ...]]:
        """Swap the oldest match for ``entry``; returns the old tuple or None."""
        old = self.inp(template)
        if old is None:
            return None
        self.out(entry)
        return old

    # -- leases ----------------------------------------------------------------

    def renew_leases(self, owner: str, new_expiry: float) -> int:
        """Extend every lease held by ``owner``; returns how many."""
        count = 0
        for lease in self._leases.values():
            if lease.owner == owner:
                lease.expires_at = new_expiry
                count += 1
        if count and new_expiry < self._lease_floor:
            self._lease_floor = new_expiry
        return count

    def purge_expired(self, now: float) -> List[Tuple[Any, ...]]:
        """Remove tuples whose lease expired; returns them (oldest first).

        O(1) while ``now`` is below the earliest expiry; otherwise one
        pass over the leases, which also re-tightens that bound.
        """
        if now < self._lease_floor:
            return []
        doomed_keys = []
        floor = math.inf
        for key, lease in self._leases.items():
            if lease.expires_at <= now:
                doomed_keys.append(key)
            elif lease.expires_at < floor:
                floor = lease.expires_at
        self._lease_floor = floor
        return [self._remove(key) for key in sorted(doomed_keys)]

    def lease_of(self, entry: Sequence[Any]) -> Optional[LeaseRecord]:
        entry = tuple(entry)
        keys, _test = self._candidates(entry)
        for key in keys:
            if self._entries[key] == entry and key in self._leases:
                return self._leases[key]
        return None

    # -- state transfer ----------------------------------------------------------

    def snapshot(self) -> dict:
        return {
            "entries": dict(self._entries),
            "next_key": self._next_key,
            "leases": {
                key: (lease.owner, lease.expires_at)
                for key, lease in self._leases.items()
            },
        }

    def restore(self, snapshot: dict) -> None:
        self._entries = dict(snapshot["entries"])
        self._next_key = snapshot["next_key"]
        self._leases = {
            key: LeaseRecord(owner, expires)
            for key, (owner, expires) in snapshot["leases"].items()
        }
        self._lease_floor = min(
            (lease.expires_at for lease in self._leases.values()),
            default=math.inf)
        self._buckets = {}
        self._names = []
        pairs = []
        for key, entry in self._entries.items():
            if entry:
                first = entry[0]
                try:
                    self._buckets.setdefault(first, {})[key] = None
                except TypeError:
                    pass
                if isinstance(first, str):
                    pairs.append((first, key))
        pairs.sort()
        self._names = pairs

    def fingerprint(self) -> int:
        acc = hash(self._next_key)
        for key, entry in self._entries.items():
            acc ^= hash((key, entry))
        return acc
