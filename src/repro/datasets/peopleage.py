"""Synthetic PeopleAge-shaped dataset (Appendix F interactive experiment).

The original dataset is a gallery of 100 women, one per age from 1 to 100;
the query asks for the 10 *youngest*.  Workers compare perceived ages, and
age perception is well known to blur with age: telling a 5-year-old from a
15-year-old is trivial, telling 67 from 72 is not.  The oracle models a
worker's perceived age as

``perceived(a) = a + a·rel_noise·z₁ + abs_noise·z₂``

and answers the (scaled) difference of the two perceived ages, oriented so
positive favours the younger (better) item.
"""

from __future__ import annotations

import numpy as np

from ..core.items import ItemSet
from ..crowd.oracle import ItemRows, JudgmentOracle
from ..errors import OracleError
from ..rng import make_rng
from .base import Dataset

__all__ = ["make_peopleage", "AgePerceptionOracle"]


class AgePerceptionOracle(JudgmentOracle):
    """Pairwise age comparisons with age-proportional perception noise."""

    def __init__(
        self,
        ages: np.ndarray,
        rel_noise: float = 0.15,
        abs_noise: float = 2.0,
        scale: float = 10.0,
    ) -> None:
        ages = np.asarray(ages, dtype=np.float64)
        if ages.ndim != 1 or len(ages) < 2:
            raise OracleError("ages must be a 1-D array with >= 2 entries")
        if np.any(ages <= 0):
            raise OracleError("ages must be positive")
        if rel_noise < 0 or abs_noise < 0:
            raise OracleError("noise levels must be non-negative")
        if scale <= 0:
            raise OracleError("scale must be positive")
        self._ages = ages
        self._items = ItemRows(np.arange(len(ages)))
        self._rel = rel_noise
        self._abs = abs_noise
        self._scale = scale
        self.bounds = None  # Gaussian tails: unbounded support

    def _perceive(
        self, ages: np.ndarray, shape: tuple[int, int], rng: np.random.Generator
    ) -> np.ndarray:
        return (
            ages
            + ages * self._rel * rng.standard_normal(shape)
            + self._abs * rng.standard_normal(shape)
        )

    def draw_pairs(
        self,
        left: np.ndarray,
        right: np.ndarray,
        size: int,
        rng: np.random.Generator,
    ) -> np.ndarray:
        # Row 0 holds the left items' ages, row 1 the right items'.
        ages = self._ages[self._items.pairs(left, right)].reshape(2, -1, 1)
        shape = (ages.shape[1], size)
        # Positive preference = the left item looks younger.
        return (
            self._perceive(ages[1], shape, rng) - self._perceive(ages[0], shape, rng)
        ) / self._scale


def make_peopleage(
    seed: int | np.random.Generator = 0,
    n_items: int = 100,
    rel_noise: float = 0.15,
    abs_noise: float = 2.0,
) -> Dataset:
    """Build the synthetic PeopleAge dataset (one person per age, 1..n)."""
    if n_items < 2:
        raise ValueError(f"need at least 2 people, got {n_items}")
    rng = make_rng(seed)
    ages = np.arange(1, n_items + 1, dtype=np.float64)
    rng.shuffle(ages)  # item ids carry no age information

    items = ItemSet(
        ids=np.arange(n_items),
        scores=-ages,  # "top" = youngest
        labels=tuple(f"person aged {int(a)}" for a in ages),
    )
    oracle = AgePerceptionOracle(ages, rel_noise=rel_noise, abs_noise=abs_noise)
    return Dataset(
        name="peopleage",
        items=items,
        oracle=oracle,
        description=(
            f"synthetic PeopleAge: {n_items} people aged 1..{n_items}, "
            "query = youngest; perception noise grows with age"
        ),
    )
