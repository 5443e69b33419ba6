"""Symmetric-group machinery for identical-particle configuration spaces.

A permutation sigma acts on a coordinate tuple by relabelling slots,

    (sigma x)_i = x_{sigma(i)},

so sigma (sigma' x) = (sigma sigma') x.  ``group_table`` is the one
enumeration of S_n: a cached read-only table of image tuples in the
lexicographic order of ``itertools.permutations``, which fixes the
summation order of every permutation sum built on it, and their signs.
``Statistics`` holds the two one-dimensional characters of S_n,
trivial (Bose) and the sign (Fermi); ``Statistics.character`` is the
one map from a sign to chi.  ``group_sum`` is the one character-weighted
sum over the group: it gathers y[..., image] row by row in table order.
``sort_descending`` is the one descending sort: it sorts a point or a
batch into the descending sector and returns the sorting permutation and
its sign.  Every other module enumerates, sorts, signs, ranks and
weights permutations through this one.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import CapExceeded

#: Largest particle number ``group_table`` lists (8! = 40320 elements).
DEFAULT_GROUP_CAP = 8


class Statistics(enum.Enum):
    """Exchange statistics: the trivial (Bose) or sign (Fermi) character."""

    BOSE = "bose"
    FERMI = "fermi"

    def character(self, sign):
        """chi(sigma) from sgn(sigma), a scalar or an array of signs: the
        sign itself for FERMI, the scalar 1 for BOSE (no ones array)."""
        return sign if self is Statistics.FERMI else 1


@dataclass(frozen=True)
class Permutation:
    """Element of S_n stored as the tuple sigma(0), ..., sigma(n-1) (0-based)."""

    images: tuple

    def __post_init__(self):
        n = len(self.images)
        if sorted(self.images) != list(range(n)):
            raise ValueError(f"not a permutation of 0..{n - 1}: {self.images}")

    def apply(self, x):
        """Relabel coordinates: (sigma x)_i = x_{sigma(i)}.

        Works on 1-d arrays and on batches shaped (..., n), acting on the
        last axis.
        """
        x = np.asarray(x)
        return x[..., list(self.images)]

    @property
    def sign(self) -> int:
        """+1 for even permutations, -1 for odd ones."""
        return int(permutation_signs_batch(self.images))


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


def sort_descending(x):
    """Stable descending sort of one point (n,) or a batch (..., n).

    Returns (sorted values, order, sign): sorted = x[..., order] row by
    row, ties keep their slot order, the dtype of x is kept, and sign is
    the int64 sign of each sorting permutation, which equals the product
    of sgn(x_j - x_k) over pairs j < k when no two coordinates tie.
    """
    x = np.asarray(x)
    order = np.argsort(-x, axis=-1, kind="stable")
    return np.take_along_axis(x, order, axis=-1), order, permutation_signs_batch(order)


@lru_cache(maxsize=None)
def group_table(n: int):
    """S_n as read-only arrays: images (n!, n), one permutation per row
    in the lexicographic order of ``itertools.permutations``, and their
    signs (n!,).

    The order is deterministic; permutation sums rely on it for
    bit-reproducible results.  Raises CapExceeded above
    ``DEFAULT_GROUP_CAP`` since the cost of everything downstream is n!
    kernel evaluations.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > DEFAULT_GROUP_CAP:
        raise CapExceeded(
            f"n = {n} exceeds the enumeration cap {DEFAULT_GROUP_CAP} "
            f"({math.factorial(n)} elements)"
        )
    images = np.array(list(itertools.permutations(range(n))), dtype=np.int64)
    signs = permutation_signs_batch(images)
    images.flags.writeable = False
    signs.flags.writeable = False
    return images, signs


def group_sum(f, y, stat: Statistics):
    """sum_sigma chi(sigma) f(y[..., sigma]) over the rows of ``group_table``
    in table order, for y shaped (..., n) and f acting on such batches.

    The fixed order and the integer characters make the sum bitwise
    reproducible: with chi = -1 a term is subtracted exactly.
    """
    images, signs = group_table(y.shape[-1])
    total = 0.0
    for image, sign in zip(images.tolist(), signs.tolist()):
        total = total + stat.character(sign) * np.asarray(f(y[..., image]))
    return total
