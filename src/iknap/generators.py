"""Random instance families for tests and benchmarks.

Every builder takes an explicit random.Random so callers control
reproducibility; a given rng state always yields the same instance.  The
class-based families build their oracle from per-profit-class matroids,
which keeps them inside the all-or-nothing contract by construction.
"""

from __future__ import annotations

import random
from typing import Callable

from .errors import BadFamily
from .instances import Instance, Item
from .oracles import MatroidSpec, matroid_rank_sum_oracle, modular_oracle


#: The last capacity is drawn as this fraction range of the total item weight.
_CAPACITY_FRACTION = (0.35, 0.7)


def random_capacities(
    rng: random.Random, total_weight: int, horizon: int
) -> tuple[int, ...]:
    """Non-decreasing capacities ending around a fraction of the total weight."""
    top = max(1, round(total_weight * rng.uniform(*_CAPACITY_FRACTION)))
    steps = sorted(rng.randint(0, top) for _ in range(horizon - 1))
    return tuple(steps + [top])


def random_deltas(rng: random.Random, horizon: int) -> tuple[int, ...]:
    return tuple(rng.randint(0, 3) for _ in range(horizon))


def _random_weight(rng: random.Random) -> int:
    # occasional zero-weight items exercise the free-insertion edge cases
    return 0 if rng.random() < 0.06 else rng.randint(1, 9)


def _split_into_classes(rng: random.Random, ids: list[int], k: int) -> list[list[int]]:
    """Partition ids into exactly k nonempty groups."""
    shuffled = ids[:]
    rng.shuffle(shuffled)
    groups: list[list[int]] = [[] for _ in range(k)]
    for pos, i in enumerate(shuffled):
        groups[pos % k if pos < k else rng.randrange(k)].append(i)
    return [sorted(g) for g in groups]


def _class_profits(rng: random.Random, k: int) -> list[int]:
    return sorted(rng.sample(range(1, 13), k))


def make_modular_instance(n: int, horizon: int, rng: random.Random) -> Instance:
    """Plain modular profits; every set is independent."""
    items = [Item(i, _random_weight(rng), rng.randint(1, 9)) for i in range(1, n + 1)]
    total = sum(it.weight for it in items)
    return Instance(
        items,
        horizon,
        random_capacities(rng, total, horizon),
        random_deltas(rng, horizon),
        modular_oracle({it.id: it.profit for it in items}),
    )


def _uniform_spec(rng: random.Random, members: list[int]) -> MatroidSpec:
    cap = 0 if rng.random() < 0.12 else rng.randint(1, len(members))
    return MatroidSpec.uniform(members, cap)


def _partition_spec(rng: random.Random, members: list[int]) -> MatroidSpec:
    n_groups = rng.randint(1, len(members))
    groups = _split_into_classes(rng, members, n_groups)
    return MatroidSpec.partition(
        [(g, 0 if rng.random() < 0.1 else rng.randint(1, len(g))) for g in groups]
    )


def _graphic_spec(rng: random.Random, members: list[int]) -> MatroidSpec:
    n_vertices = rng.randint(2, len(members) + 1)
    edges = []
    for i in members:
        if rng.random() < 0.06:  # self-loop: a rank-0 item, dropped in preprocessing
            v = rng.randrange(n_vertices)
            edges.append((i, v, v))
        else:
            u, v = rng.sample(range(n_vertices), 2)
            edges.append((i, u, v))
    return MatroidSpec.graphic(edges)


def _classes_instance(
    n: int,
    horizon: int,
    rng: random.Random,
    spec_of: Callable[[random.Random, list[int]], MatroidSpec],
) -> Instance:
    k = rng.randint(1, min(4, n))
    groups = _split_into_classes(rng, list(range(1, n + 1)), k)
    profits = _class_profits(rng, k)
    profit_of: dict[int, int] = {}
    specs = []
    for p, members in zip(profits, groups):
        for i in members:
            profit_of[i] = p
        specs.append((p, spec_of(rng, members)))
    items = [Item(i, _random_weight(rng), profit_of[i]) for i in range(1, n + 1)]
    total = sum(it.weight for it in items)
    return Instance(
        items,
        horizon,
        random_capacities(rng, total, horizon),
        random_deltas(rng, horizon),
        matroid_rank_sum_oracle(specs),
    )


def make_uniform_classes_instance(n: int, horizon: int, rng: random.Random) -> Instance:
    return _classes_instance(n, horizon, rng, _uniform_spec)


def make_partition_classes_instance(n: int, horizon: int, rng: random.Random) -> Instance:
    return _classes_instance(n, horizon, rng, _partition_spec)


def make_graphic_classes_instance(n: int, horizon: int, rng: random.Random) -> Instance:
    return _classes_instance(n, horizon, rng, _graphic_spec)


def make_matroid_rank_instance(n: int, horizon: int, rng: random.Random) -> Instance:
    """Unit profits, all-one coefficients, and a single-matroid rank oracle.

    The weight-ascending greedy chain is optimal on these instances.
    """
    members = list(range(1, n + 1))
    spec_of = rng.choice([_uniform_spec, _partition_spec, _graphic_spec])
    items = [Item(i, _random_weight(rng), 1) for i in members]
    total = sum(it.weight for it in items)
    return Instance(
        items,
        horizon,
        random_capacities(rng, total, horizon),
        tuple([1] * horizon),
        matroid_rank_sum_oracle([(1, spec_of(rng, members))]),
    )


FAMILIES: dict[str, Callable[[int, int, random.Random], Instance]] = {
    "modular": make_modular_instance,
    "uniform-classes": make_uniform_classes_instance,
    "partition-classes": make_partition_classes_instance,
    "graphic-classes": make_graphic_classes_instance,
}


def make_family_instance(
    family: str, n: int, horizon: int, rng: random.Random
) -> Instance:
    try:
        builder = FAMILIES[family]
    except KeyError:
        raise BadFamily(f"unknown family {family!r}; known: {sorted(FAMILIES)}") from None
    return builder(n, horizon, rng)
