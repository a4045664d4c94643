"""Per-view visibility bookkeeping (:class:`VisibilityPattern`, :func:`partition`) and
seeded, bit-reproducible masks (:func:`random_mask`)."""

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


def is_real(value) -> bool:
    """Any real type, numpy's too, but no bool; NaN and inf pass, so bound the value too."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _validate_hidden(ell: int, hidden) -> tuple[int, ...]:
    idx = tuple(hidden)
    if not all(type(i) is int for i in idx):  # plain ints skip the slower ABC check
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

    @property
    def unobserved(self) -> tuple[int, ...]:
        """The objects hidden in every view, sorted: no view carries any information on them."""
        return tuple(sorted(set.intersection(*map(set, self.hidden))))


@dataclass(frozen=True)
class PartitionedView:
    """One view's split: its visible and hidden indices, its visible block Q_vv and the
    ``np.ix_`` index tuple of its vh block."""

    vis: np.ndarray
    hid: np.ndarray
    q_vv: np.ndarray
    vh: tuple


def visible_indices(ell: int, hidden) -> np.ndarray:
    hidden_set = set(hidden)
    return np.array([i for i in range(ell) if i not in hidden_set], dtype=int)


def partition(full: np.ndarray, hidden) -> PartitionedView:
    """Split ``full`` by the hidden objects of one view."""
    ell = full.shape[0]
    if full.shape != (ell, ell):
        raise DimensionError(f"expected a square matrix, got shape {full.shape}")
    hid = np.array(_validate_hidden(ell, hidden), dtype=int)
    vis = visible_indices(ell, hid)
    # two takes gather Q_vv faster than full[np.ix_(vis, vis)] does, with the same values
    return PartitionedView(vis, hid, full.take(vis, 0).take(vis, 1), np.ix_(vis, hid))


def random_mask(ell: int, n_views: int, fraction: float, seed: int) -> VisibilityPattern:
    """Draw floor(fraction * ell) hidden objects per view, independently, without replacement.

    A draw uses numpy's PCG64 generator seeded with ``seed`` (>= 0). A draw that
    hides some object in every view is refused (:attr:`VisibilityPattern.unobserved`),
    and the next seed is drawn, up to ``seed + 63``; the first draw that leaves every
    object seen is returned, so the same arguments always give the same pattern.
    When none of the 64 does, DimensionError is raised: so it is for one view hiding
    anything, and for two views that each hide many objects (``random_mask(50, 2, 0.3,
    seed=1)``), which overlap in every draw.
    """
    for name, value in (("ell", ell), ("n_views", n_views), ("seed", seed)):
        if not is_integer(value):
            raise ConfigError(f"{name} must be an integer, got {value!r}")
    if not (is_real(fraction) and 0.0 <= fraction < 1.0):
        raise ConfigError(f"fraction must be in [0, 1), got {fraction!r}")
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed!r}")
    if fraction * ell > ell - 1:
        raise DimensionError(f"fraction {fraction} would leave no visible object (ell={ell})")
    n_hidden = math.floor(fraction * ell)
    for draw in range(seed, seed + 64):
        rng = np.random.Generator(np.random.PCG64(draw))
        pattern = VisibilityPattern(ell=ell, hidden=[
            tuple(int(i) for i in np.sort(rng.choice(ell, size=n_hidden, replace=False)))
            for _ in range(n_views)])
        if not pattern.unobserved:
            return pattern
    raise DimensionError(f"no mask drawn from seeds {seed} to {seed + 63} leaves every object "
                         f"visible in some view (ell={ell}, {n_views} views, fraction {fraction})")


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
