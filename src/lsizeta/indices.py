"""Index combinatorics for multiple zeta values.

An index is a composition of positive integers ``(k_1, ..., k_n)``; the empty
index (written ``phi``) is allowed.  The weight is the sum of the parts, the
depth the number of parts, and an index is admissible when it is nonempty and
its last part is at least 2 (so that the nested zeta series converges).

This module provides the dual involution on admissible indices, the stepwise
truncation sequence ``k^(0), k^(1), ..., k^(|k|) = phi``, enumeration of all
admissible indices of a given weight, and deduplication of a list of indices
by the dual pairing.  ``_Frozen`` is the base of the package's immutable value
classes (``Index``, ``LsiMonomial``, ``MonomialBasis``, ``MzvRelation``),
written out so that the modules every command loads import no ``dataclasses``.
"""

from __future__ import annotations

import re

# the printed form of an index: the literals ``Index.parse`` takes besides ""
LITERAL = re.compile(r"phi|[1-9][0-9]*(?:,[1-9][0-9]*)*")


class _Frozen:
    """An immutable value, as a frozen dataclass would make it: ``__init__``
    checks its arguments and stores them in ``__slots__`` order; equality
    (within one class), hash, ``repr`` and pickling follow ``_fields``, the
    leading slots.  The hash, that of the tuple of fields, is computed once:
    values are dict keys in every kernel."""

    __slots__ = ("_hash",)
    _fields: tuple[str, ...] = ()

    def _store(self, *values) -> None:  # for __init__, once its checks pass
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)
        object.__setattr__(self, "_hash", hash(values[:len(self._fields)]))

    def _values(self) -> tuple:
        return tuple([getattr(self, f) for f in self._fields])

    def __eq__(self, other):
        return self._values() == other._values() if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return self._hash

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        return type(self), self._values()


class Index(_Frozen):
    """A composition of positive integers; ``Index()`` is the empty index."""

    __slots__ = _fields = ("parts",)

    def __init__(self, parts: tuple[int, ...] = ()):
        if not all(isinstance(p, int) and p >= 1 for p in parts):
            raise ValueError(f"index parts must be positive integers: {parts}")
        # _store and _values spelled out: every truncation is built and looked up
        object.__setattr__(self, "parts", parts)
        object.__setattr__(self, "_hash", hash((parts,)))

    def _values(self) -> tuple:
        return (self.parts,)

    @property
    def weight(self) -> int:
        return sum(self.parts)

    @property
    def depth(self) -> int:
        return len(self.parts)

    @property
    def admissible(self) -> bool:
        return bool(self.parts) and self.parts[-1] >= 2

    def __iter__(self):
        return iter(self.parts)

    def __len__(self):
        return len(self.parts)

    def __str__(self) -> str:
        return ",".join(str(p) for p in self.parts) if self.parts else "phi"

    @classmethod
    def parse(cls, text: str) -> "Index":
        """Parse an index as printed, e.g. ``"1,3"``, between optional blanks;
        "phi" or "" is empty."""
        text = text.strip()
        if text in ("", "phi"):
            return cls()
        if not LITERAL.fullmatch(text):
            raise ValueError(f"malformed index string: {text!r}")
        return cls(tuple(map(int, text.split(","))))

    def to_json(self) -> list[int]:
        return list(self.parts)


PHI = Index()


def _block_decomposition(k: Index) -> list[tuple[int, int]]:
    # Write k as ({1}^{a_1-1}, b_1+1, ..., {1}^{a_h-1}, b_h+1) and return
    # the list [(a_1, b_1), ..., (a_h, b_h)].  Requires an admissible index.
    blocks = []
    ones = 0
    for p in k.parts:
        if p == 1:
            ones += 1
        else:
            blocks.append((ones + 1, p - 1))
            ones = 0
    if ones:
        raise ValueError("dual undefined for non-admissible index")
    return blocks


def dual(k: Index) -> Index:
    """Dual index of an admissible index; an involution preserving weight."""
    if not k.admissible:
        raise ValueError("dual undefined for non-admissible index")
    parts: list[int] = []
    for a, b in reversed(_block_decomposition(k)):
        parts.extend([1] * (b - 1))
        parts.append(a + 1)
    return Index(tuple(parts))


def truncate(k: Index, m: int) -> Index:
    """m-fold truncation ``k^(m)``.

    One step removes 1 from the weight: decrement the last part if it exceeds
    1, otherwise drop it.  ``k^(|k|)`` is the empty index; truncating past it
    is an error.
    """
    if m < 0:
        raise ValueError("truncation count must be nonnegative")
    if m > k.weight:
        raise ValueError("truncation past empty index")
    return truncations(k)[m]


def truncations(k: Index) -> list[Index]:
    """``[k^(0), k^(1), ..., k^(|k|)]``, built in one walk down the weight."""
    parts = list(k.parts)
    out = [k]
    while parts:
        if parts[-1] > 1:
            parts[-1] -= 1
        else:
            parts.pop()
        out.append(Index(tuple(parts)))
    return out


def enumerate_admissible(w: int) -> list[Index]:
    """All 2^(w-2) admissible indices of weight ``w``, depth-major order.

    Ordered by increasing depth, then lexicographically on the parts.  With
    this order the first element of each dual pair is the lower-depth member
    (the representative used in the relation matrices), and ties at depth
    w/2 resolve to the lexicographically smaller index.
    """
    if w < 2:
        raise ValueError("admissible indices need weight >= 2")
    out: list[Index] = []

    def extend(prefix: list[int], remaining: int):
        if remaining >= 2:
            out.append(Index(tuple(prefix + [remaining])))
        for first in range(1, remaining - 1):
            extend(prefix + [first], remaining - first)

    extend([], w)
    out.sort(key=lambda k: (k.depth, k.parts))
    return out


def dedupe_by_duality(indices: list[Index], drop_self_dual: bool = False) -> list[Index]:
    """One representative per dual pair, keeping the first seen in input order.

    With ``drop_self_dual`` set, indices equal to their own dual are removed
    entirely (their zeta values contribute nothing to the imaginary-part
    relation rows).
    """
    seen: set[Index] = set()
    out: list[Index] = []
    for k in indices:
        if k in seen:
            continue
        kd = dual(k)
        seen.add(k)
        seen.add(kd)
        if k == kd and drop_self_dual:
            continue
        out.append(k)
    return out
