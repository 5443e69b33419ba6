"""Symmetric-group machinery for identical-particle configuration spaces.

A permutation sigma acts on a coordinate tuple by relabelling slots,

    (sigma x)_i = x_{sigma(i)},

so composition satisfies sigma (sigma' x) = (sigma sigma') x.
``group_table`` holds S_n once per n: a cached read-only table of image
tuples in the lexicographic order of ``itertools.permutations``, which
fixes the summation order of every permutation sum built on it, and
their signs.  Every other module enumerates, signs and ranks
permutations through this one.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import CapExceeded

#: Largest particle number enumerated by default (8! = 40320 elements).
DEFAULT_GROUP_CAP = 8


@dataclass(frozen=True)
class Permutation:
    """Element of S_n stored as the tuple sigma(0), ..., sigma(n-1) (0-based)."""

    images: tuple

    def __post_init__(self):
        n = len(self.images)
        if sorted(self.images) != list(range(n)):
            raise ValueError(f"not a permutation of 0..{n - 1}: {self.images}")

    @property
    def n(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        return self.images[i]

    def apply(self, x):
        """Relabel coordinates: (sigma x)_i = x_{sigma(i)}.

        Works on 1-d arrays and on batches shaped (..., n), acting on the
        last axis.
        """
        x = np.asarray(x)
        return x[..., list(self.images)]

    def compose(self, other: "Permutation") -> "Permutation":
        """Product sigma * other with sigma(other x) = (sigma * other) x."""
        if self.n != other.n:
            raise ValueError("size mismatch")
        return Permutation(tuple(other.images[i] for i in self.images))

    def inverse(self) -> "Permutation":
        inv = [0] * self.n
        for i, j in enumerate(self.images):
            inv[j] = i
        return Permutation(tuple(inv))

    @property
    def sign(self) -> int:
        """+1 for even permutations, -1 for odd ones."""
        return int(permutation_signs_batch(self.images))

    def is_identity(self) -> bool:
        return all(i == j for i, j in enumerate(self.images))


def identity(n: int) -> Permutation:
    return Permutation(tuple(range(n)))


def transposition(n: int, i: int, j: int) -> Permutation:
    """The swap of slots i and j (0-based)."""
    images = list(range(n))
    images[i], images[j] = images[j], images[i]
    return Permutation(tuple(images))


def adjacent_transposition(n: int, j: int) -> Permutation:
    """Swap of adjacent slots j and j+1 (0-based j in 0..n-2)."""
    return transposition(n, j, j + 1)


def permutation_signs_batch(order) -> np.ndarray:
    """Signs of a batch of permutations shaped (..., n) via inversion count."""
    order = np.asarray(order)
    n = order.shape[-1]
    inversions = np.zeros(order.shape[:-1], dtype=np.int64)
    for i in range(n):
        for j in range(i + 1, n):
            inversions += order[..., i] > order[..., j]
    return np.where(inversions % 2 == 0, 1, -1).astype(np.int64)


def permutation_ranks(order) -> np.ndarray:
    """Row index in ``group_table`` of a batch of permutations shaped
    (..., n): the Lehmer code read in the factorial base."""
    order = np.asarray(order)
    n = order.shape[-1]
    ranks = np.zeros(order.shape[:-1], dtype=np.int64)
    for i in range(n):
        smaller = np.sum(order[..., i + 1:] < order[..., i, None], axis=-1)
        ranks = ranks * (n - i) + smaller
    return ranks


@lru_cache(maxsize=None)
def group_table(n: int):
    """S_n as read-only arrays: images (n!, n), one permutation per row
    in the lexicographic order of ``itertools.permutations``, and their
    signs (n!,)."""
    images = np.array(list(itertools.permutations(range(n))), dtype=np.int64)
    signs = permutation_signs_batch(images)
    images.flags.writeable = False
    signs.flags.writeable = False
    return images, signs


def enumerate_group(n: int, cap: int = DEFAULT_GROUP_CAP):
    """List S_n as ``Permutation`` objects in ``group_table`` order.

    The order is lexicographic in the image tuples and therefore
    deterministic; permutation sums rely on this for bit-reproducible
    results.  Raises CapExceeded above the configured cap since the cost
    of everything downstream is n! kernel evaluations.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > cap:
        raise CapExceeded(
            f"n = {n} exceeds the enumeration cap {cap} ({math.factorial(n)} elements)"
        )
    return [Permutation(images) for images in map(tuple, group_table(n)[0].tolist())]


def permutation_matrix(p: Permutation) -> np.ndarray:
    """Matrix P with (P x)_i = x_{sigma(i)}."""
    mat = np.zeros((p.n, p.n))
    for i, j in enumerate(p.images):
        mat[i, j] = 1.0
    return mat
