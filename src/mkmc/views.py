"""Per-view visibility bookkeeping and artificial missingness.

A view with hidden objects is handled through its sorted visible and hidden
index arrays: the blocks are read, and imputed blocks written back, by direct
fancy indexing. Masks are generated with a seeded PCG64 generator so they are
bit-reproducible.
"""

from __future__ import annotations

import enum
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DimensionError
from .linalg import symmetrize


class Fill(str, enum.Enum):
    """Baseline fill for masked entries."""

    ZERO = "zero"
    MEAN = "mean"


def is_integer(value) -> bool:
    """The integer rule for callers' values: any integral type, numpy's too, but no bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _validate_hidden(ell: int, hidden) -> tuple[int, ...]:
    idx = tuple(hidden)
    if not all(map(is_integer, idx)):
        raise ConfigError(f"hidden indices must be integers, got {idx!r}")
    idx = tuple(map(int, idx))
    if any(i < 0 or i >= ell for i in idx):
        raise DimensionError(f"hidden index out of range [0, {ell})")
    if len(set(idx)) != len(idx):
        raise DimensionError("hidden index set contains duplicates")
    if len(idx) >= ell:
        raise DimensionError("at least one object must stay visible")
    return tuple(sorted(idx))


@dataclass(frozen=True)
class VisibilityPattern:
    """Which objects are hidden in each of the K >= 1 views.

    ``ell`` and every index must pass :func:`is_integer`; they are stored as ints.
    """

    ell: int
    hidden: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if not is_integer(self.ell):
            raise ConfigError(f"ell must be an integer, got {self.ell!r}")
        if self.ell < 1:
            raise DimensionError("ell must be >= 1")
        object.__setattr__(self, "ell", int(self.ell))
        clean = tuple(_validate_hidden(self.ell, h) for h in self.hidden)
        if not clean:
            raise DimensionError("a pattern needs at least one view")
        object.__setattr__(self, "hidden", clean)

    def check(self, matrices, what: str = "matrices") -> None:
        """Raise DimensionError unless ``matrices`` holds one ell x ell matrix per view."""
        if len(matrices) != self.n_views:
            raise DimensionError(f"{len(matrices)} {what} but pattern has {self.n_views} views")
        for k, m in enumerate(matrices):
            if np.shape(m) != (self.ell, self.ell):
                raise DimensionError(
                    f"{what}, view {k}: expected shape {(self.ell, self.ell)}, got {np.shape(m)}")

    @property
    def n_views(self) -> int:
        return len(self.hidden)


@dataclass(frozen=True)
class PartitionedView:
    """Visible/hidden blocks of a symmetric matrix for one view."""

    q_vv: np.ndarray
    q_vh: np.ndarray
    q_hh: np.ndarray


def visible_indices(ell: int, hidden) -> np.ndarray:
    hidden_set = set(hidden)
    return np.array([i for i in range(ell) if i not in hidden_set], dtype=int)


def partition(full: np.ndarray, hidden) -> PartitionedView:
    """Extract the visible/hidden blocks of ``full`` for one view."""
    ell = full.shape[0]
    if full.shape != (ell, ell):
        raise DimensionError(f"expected square matrix, got {full.shape}")
    hid = np.array(_validate_hidden(ell, hidden), dtype=int)
    vis = visible_indices(ell, hid)
    return PartitionedView(
        q_vv=full[np.ix_(vis, vis)],
        q_vh=full[np.ix_(vis, hid)],
        q_hh=full[np.ix_(hid, hid)],
    )


def random_mask(
    ell: int,
    n_views: int,
    fraction: float,
    seed: int,
    correlated: bool = False,
) -> VisibilityPattern:
    """Draw hidden index sets for each view without replacement.

    Uses numpy's PCG64 generator seeded with ``seed`` (>= 0); the same arguments
    always produce the same pattern. With ``correlated=True`` all views share
    a single draw instead of independent ones.
    """
    for name, value in (("ell", ell), ("n_views", n_views), ("seed", seed)):
        if not is_integer(value):
            raise ConfigError(f"{name} must be an integer, got {value!r}")
    if not 0.0 <= fraction < 1.0:
        raise ConfigError(f"fraction must be in [0, 1), got {fraction!r}")
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed!r}")
    if fraction * ell > ell - 1:
        raise DimensionError(
            f"fraction {fraction} would leave no visible object (ell={ell})"
        )
    n_hidden = math.floor(fraction * ell)
    rng = np.random.Generator(np.random.PCG64(seed))
    if correlated:
        shared = np.sort(rng.choice(ell, size=n_hidden, replace=False))
        hidden = tuple(tuple(int(i) for i in shared) for _ in range(n_views))
    else:
        hidden = tuple(
            tuple(int(i) for i in np.sort(rng.choice(ell, size=n_hidden, replace=False)))
            for _ in range(n_views)
        )
    return VisibilityPattern(ell=ell, hidden=hidden)


def apply_mask(full: np.ndarray, hidden, fill: Fill = Fill.ZERO) -> np.ndarray:
    """Overwrite every entry with a hidden row or column.

    ZERO writes zeros; MEAN writes the scalar mean of the visible block.
    Entries with both indices visible are never touched. Note the MEAN
    result need not be positive definite; it exists only as a baseline.
    """
    out = symmetrize(full)  # a new array: the input is never written
    ell = out.shape[0]
    hid = np.array(_validate_hidden(ell, hidden), dtype=int)
    if hid.size == 0:
        return out
    if Fill(fill) is Fill.ZERO:
        value = 0.0
    else:
        vis = visible_indices(ell, hid)
        value = float(np.mean(out[np.ix_(vis, vis)]))
    out[hid, :] = value
    out[:, hid] = value
    return out
