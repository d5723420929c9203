"""Integer partitions, conjugation, and first-column hook statistics.

Conventions used throughout the package:

* a partition is a finite nonincreasing sequence of positive integers;
* positions are 1-based (``parts[0]`` is never exposed as "part 0");
* the first-column hook length at position ``s`` is ``parts[s] + t - s``
  where ``t`` is the number of parts, so the sequence of first-column
  hook lengths is strictly decreasing (these are the beta-numbers);
* a partition has an ``h``-fixed hook at position ``s`` when the hook
  length there equals ``s + h``; such a position is unique per ``h``.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable, Iterator

# Enumeration guard: exhaustive generation beyond this weight is the wrong
# tool (p(n) grows superpolynomially); the series side covers larger n.
# Streaming every partition of n <= 80 (1.23e8 of them) takes about a minute
# at 2 M partitions per second.
MAX_ENUMERATION_WEIGHT = 80


class InvariantError(Exception):
    """A construction produced a result that breaks one of its stated invariants."""


FixedHookReport = namedtuple("FixedHookReport", "position hook part")
FixedHookReport.__doc__ = "A detected h-fixed hook: hook == part + t - position == position + h."


# The value classes below and in the other modules are written by hand, not by
# @dataclass: importing dataclasses loads inspect, ast and dis, about 12 of the
# 29 ms that importing hooklab.cli took on CPython 3.11 (DECISIONS.md section 29).

class Frozen:
    """Refuses to set or delete an attribute, as a frozen dataclass does; the
    FrozenInstanceError it raises is imported only when it is raised."""

    __slots__ = ()

    def __setattr__(self, name, value):
        from dataclasses import FrozenInstanceError
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        from dataclasses import FrozenInstanceError
        raise FrozenInstanceError(f"cannot delete field {name!r}")


class Record:
    """== and repr over the attributes that __init__ sets, in order, as @dataclass writes them.

    Defining __eq__ leaves a Record unhashable, as a dataclass that is not frozen is.
    """

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return tuple(vars(self).values()) == tuple(vars(other).values())
        return NotImplemented

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in vars(self).items())
        return f"{self.__class__.__qualname__}({fields})"


class Partition(Frozen):
    """An integer partition; immutable and hashable."""

    __slots__ = ("parts",)  # no __dict__ and no __weakref__

    def __init__(self, parts: Iterable[int] = ()) -> None:
        parts = tuple(parts)
        _set_parts(self, parts)
        for idx, value in enumerate(parts, start=1):
            if not isinstance(value, int) or isinstance(value, bool) or value <= 0:
                raise ValueError(f"part {idx} is {value!r}: parts must be positive integers")
            if idx < len(parts) and parts[idx] > value:
                raise ValueError(
                    f"part {idx} = {value} < part {idx + 1} = {parts[idx]}: "
                    "parts must be nonincreasing"
                )

    @classmethod
    def _trusted(cls, parts: tuple[int, ...]) -> "Partition":
        # Internal fast path for sequences already known to be valid.
        self = object.__new__(cls)
        _set_parts(self, parts)
        return self

    @property
    def n(self) -> int:
        """Total weight (sum of parts)."""
        return sum(self.parts)

    @property
    def t(self) -> int:
        """Number of parts."""
        return len(self.parts)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.parts == other.parts
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.parts,))

    def __repr__(self) -> str:
        return f"Partition({list(self.parts)})"

    def __reduce__(self):  # copy and pickle call __init__, as Frozen refuses their setattr
        return Partition, (self.parts,)

    def conjugate(self) -> "Partition":
        """Transpose of the Young diagram: part j of the conjugate counts parts >= j."""
        if not self.parts:
            return self
        counts = [0] * self.parts[0]
        for value in self.parts:
            for j in range(value):
                counts[j] += 1
        return Partition._trusted(tuple(counts))

    def hook_length(self, i: int, j: int) -> int:
        """Hook length of box (i, j): parts[i] + conjugate[j] - i - j + 1."""
        if not (1 <= i <= len(self.parts) and 1 <= j <= self.parts[i - 1]):
            raise ValueError(f"box ({i}, {j}) is not in the Young diagram of {self!r}")
        col = sum(1 for value in self.parts if value >= j)
        return self.parts[i - 1] + col - i - j + 1

    def first_column_hooks(self) -> tuple[int, ...]:
        """Strictly decreasing sequence of first-column hook lengths (beta-numbers)."""
        t = len(self.parts)
        return tuple(value + t - s for s, value in enumerate(self.parts, start=1))

    def find_h_fixed_hook(self, h: int) -> FixedHookReport | None:
        """The unique position s with hook length s + h in column 1, if any."""
        parts = self.parts
        t = len(parts)
        for s in range(1, t + 1):
            diff = parts[s - 1] + t - 2 * s  # hook minus position; strictly decreasing in s
            if diff == h:
                return FixedHookReport(s, parts[s - 1] + t - s, parts[s - 1])
            if diff < h:
                return None
        return None

    def find_h_fixed_point(self, h: int) -> int | None:
        """The position i with parts[i] == i + h, if any (parts[i] - i is strictly decreasing)."""
        for i, value in enumerate(self.parts, start=1):
            diff = value - i
            if diff == h:
                return i
            if diff < h:
                return None
        return None

    def mex(self) -> int:
        """Least positive integer that is not a part."""
        m = 1
        for value in reversed(self.parts):  # nonincreasing, so the small parts come first
            if value == m:
                m += 1
            elif value > m:
                break
        return m

    def multiplicity(self, i: int) -> int:
        """Number of parts equal to i."""
        if i < 1:
            raise ValueError(f"part size must be positive, got {i}")
        return self.parts.count(i)

    def parts_equal_to_multiplicity(self) -> frozenset[int]:
        """Part sizes i that appear exactly i times."""
        return frozenset(i for i in set(self.parts) if self.parts.count(i) == i)

    def to_list(self) -> list[int]:
        """Canonical JSON form: a plain list of parts."""
        return list(self.parts)


# The slot's own setter.  It skips Frozen.__setattr__ as object.__setattr__
# does, at about half the cost per call.
_set_parts = Partition.parts.__set__


def check_weight(n: int) -> None:
    """Refuse to enumerate the partitions of n unless 0 <= n <= MAX_ENUMERATION_WEIGHT."""
    if n < 0:
        raise ValueError(f"cannot partition a negative integer: {n}")
    if n > MAX_ENUMERATION_WEIGHT:
        raise ValueError(f"n = {n} exceeds the enumeration bound {MAX_ENUMERATION_WEIGHT}")


def iter_partition_tuples(n: int) -> Iterator[tuple[int, ...]]:
    """All partitions of n as raw tuples, in descending lexicographic order."""
    if n == 0:
        yield ()
        return
    # Zoghbi-Stojmenovic ZS1; x[1..m] holds the current partition.
    x = [1] * (n + 1)
    x[1] = n
    m = 1
    h = 1
    yield (n,)
    while x[1] != 1:
        if x[h] == 2:
            m += 1
            x[h] = 1
            h -= 1
        else:
            r = x[h] - 1
            t = m - h + 1
            x[h] = r
            while t >= r:
                h += 1
                x[h] = r
                t -= r
            if t == 0:
                m = h
            else:
                m = h + 1
                if t > 1:
                    h += 1
                    x[h] = t
        yield tuple(x[1 : m + 1])


def generate_partitions(n: int) -> Iterator[Partition]:
    """Every partition of n exactly once, in descending lexicographic order."""
    check_weight(n)
    return (Partition._trusted(parts) for parts in iter_partition_tuples(n))
