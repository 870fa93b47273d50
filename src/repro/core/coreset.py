"""Top-k core-sets (Lemma 2) and nested core-set hierarchies.

A *core-set* for level ``K`` is a subset ``R`` of ``D`` such that for
every "large" predicate (``|q(D)| >= 4K``), the element with weight rank
``ceil(8*lambda*ln n)`` in ``q(R)`` has weight rank between ``K`` and
``4K`` in ``q(D)``.  Lemma 2 proves such a set of size
``O((n/K) log n)`` exists by sampling each element with probability
``p = 4*(lambda/K) ln n``; the same sampling realises it here.

The paper's proof is existential (a positive-probability argument over
all ``n^lambda`` predicates); verifying the property for every predicate
is neither possible for infinite ``Q`` nor necessary: Theorem 1's query
algorithm detects a bad probe (the fetched prefix is too small or too
large) and the implementation falls back to an exact prioritized query,
counting the event in :attr:`CoresetHierarchy.stats`.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.core.params import TuningParams
from repro.core.problem import Element
from repro.core.sampling import bernoulli_sample


@dataclass
class CoresetStats:
    """Build-time accounting for a hierarchy of core-sets."""

    sizes: List[int] = field(default_factory=list)
    rates: List[float] = field(default_factory=list)

    @property
    def depth(self) -> int:
        return len(self.sizes)


def build_coreset(
    elements: Sequence[Element],
    K: float,
    params: TuningParams,
    rng: random.Random,
) -> List[Element]:
    """One Lemma-2 core-set of ``elements`` for rank level ``K``.

    Expected size ``c * (n/K) * lam * ln n``; each element kept
    independently, so a core-set of a core-set is again a valid sample of
    the original set (the nesting Theorem 1 relies on).
    """
    n = len(elements)
    if n == 0:
        return []
    p = params.coreset_rate(n, K)
    return bernoulli_sample(elements, p, rng)


@dataclass
class CoresetHierarchy:
    """The nested chain ``R_0 = D, R_1, R_2, ...`` used for small-k queries.

    Section 3.2: take a core-set ``R_1`` of ``D`` with ``K = f``, then a
    core-set ``R_2`` of ``R_1`` with the same ``K``, and so on until the
    level has at most ``slack * f`` elements.  Eq. (12) shows each level
    shrinks by a factor ``>= g*sqrt(B)`` under the paper's constants, so
    the depth is ``O(log_{g sqrt B} n)``.
    """

    levels: List[List[Element]]
    K: float
    stats: CoresetStats

    @property
    def depth(self) -> int:
        """Number of levels including ``R_0 = D``."""
        return len(self.levels)


def build_hierarchy(
    elements: Sequence[Element],
    K: float,
    params: TuningParams,
    rng: random.Random,
    stop_size: Optional[int] = None,
) -> CoresetHierarchy:
    """Build the nested chain bottoming out at ``stop_size`` elements.

    ``stop_size`` defaults to ``slack * K`` (the paper's ``4f``).  A
    guard stops the recursion if a level fails to shrink (possible under
    aggressive practical constants when ``p`` saturates at 1).
    """
    if stop_size is None:
        stop_size = max(1, math.ceil(params.slack * K))
    stats = CoresetStats()
    levels: List[List[Element]] = [list(elements)]
    stats.sizes.append(len(elements))
    stats.rates.append(1.0)
    while len(levels[-1]) > stop_size:
        current = levels[-1]
        p = params.coreset_rate(len(current), K)
        nxt = bernoulli_sample(current, p, rng)
        if len(nxt) >= len(current):
            # p saturated; further levels cannot shrink — stop here.
            break
        levels.append(nxt)
        stats.sizes.append(len(nxt))
        stats.rates.append(p)
    return CoresetHierarchy(levels=levels, K=K, stats=stats)


def doubling_coresets(
    elements: Sequence[Element],
    f: int,
    params: TuningParams,
    rng: random.Random,
) -> List[List[Element]]:
    """The large-k ladder ``R[1..h]`` with ``K = 2^{i-1} f`` (Section 3.2).

    ``R[i]`` is a core-set of ``D`` at level ``K = 2^{i-1} f``; ``h`` is
    the largest ``i`` with ``2^{i-1} f <= n``.  Returns the list
    ``[R[1], ..., R[h]]`` (possibly empty when ``f > n``).
    """
    n = len(elements)
    ladder: List[List[Element]] = []
    i = 1
    while (2 ** (i - 1)) * f <= n:
        K = float((2 ** (i - 1)) * f)
        ladder.append(build_coreset(elements, K, params, rng))
        i += 1
    return ladder
