"""Graded multi-index sets for total-degree polynomial chaos bases.

A multi-index set collects all N-tuples of non-negative integers with total
degree at most P.  The set is ordered by total degree, and within each degree
the ordering is reverse lexicographic (largest tuple first), which is frozen
so that block layouts of the coupled Galerkin system are reproducible.  The
graded ordering makes the set nested: the first (N+l)!/(N!l!) entries form
exactly the order-l set, which is what the hierarchical block partition of
the global matrix relies on.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import comb

# Largest index set we are willing to enumerate (fits comfortably in memory
# and in 32-bit index arithmetic used by sparse formats).
MAX_SET_SIZE = 2**31 - 1


@dataclass(frozen=True)
class MultiIndexSet:
    """Total-degree multi-index set with graded, reverse-lexicographic order.

    Attributes
    ----------
    dims : number of variables N.
    degree : maximum total degree P.
    indices : tuple of N-tuples, graded order.
    degree_offsets : degree_offsets[l] is the position of the first index of
        total degree l; degree_offsets[P+1] == len(indices).
    """

    dims: int
    degree: int
    indices: tuple[tuple[int, ...], ...]
    degree_offsets: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.indices)

    def degrees(self) -> list[int]:
        return [sum(t) for t in self.indices]


def build_multi_index_set(dims: int, degree: int) -> MultiIndexSet:
    """Enumerate all multi-indices of total degree <= degree in graded order.

    The set has (dims+degree)!/(dims!degree!) members.  Within one total
    degree the indices are sorted reverse lexicographically, so for example
    the first-order indices appear as e_1, e_2, ..., e_N.
    """
    if dims < 1:
        raise ValueError(f"need at least one variable, got dims={dims}")
    if degree < 0:
        raise ValueError(f"degree must be non-negative, got {degree}")
    total = comb(dims + degree, degree)
    if total > MAX_SET_SIZE:
        raise ValueError(f"index set of size {total} exceeds supported range")

    indices: list[tuple[int, ...]] = []
    offsets = [0]
    for l in range(degree + 1):
        level = sorted(_compositions(l, dims), reverse=True)
        indices.extend(level)
        offsets.append(len(indices))
    assert len(indices) == total
    return MultiIndexSet(dims, degree, tuple(indices), tuple(offsets))


def _compositions(total: int, parts: int):
    """All tuples of `parts` non-negative integers summing to `total`."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest

