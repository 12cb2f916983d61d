"""Aggregation oracles and their property checkers.

An aggregation oracle evaluates a set function gamma: 2^ground -> Z>=0 with
gamma(empty) = 0.  This module provides the constructive families used for
testing, benchmarking, and the hardness reduction (modular sums,
per-profit-class matroid ranks, edge coverage), plus checkers for the two
contracts solvers rely on: monotone submodularity and all-or-nothing
marginals.  Every oracle carries a JSON-serializable descriptor so instances
can be stored as self-contained files.
"""

from __future__ import annotations

import random
import threading
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence

from .errors import OverlappingClasses, UnknownItemId

#: Ground-set sizes up to which the checkers enumerate instead of sampling.
AON_EXHAUSTIVE_LIMIT = 12
SUBMODULAR_EXHAUSTIVE_LIMIT = 10

_CHECKER_SEED = 2024


class AggregationOracle:
    """Wraps a set function and counts evaluations.

    evaluate() may be called from multiple threads: the wrapped function must
    be stateless (all built-in families are) and the call counter is bumped
    under a lock, exactly once per call.

    Optional incremental protocol: grower_for(oracle) returns a Grower, which
    holds a set B that starts empty; gain(i) returns gamma(B + i) - gamma(B)
    and add(i) puts i into B.  Each gain() counts as one call in call_count,
    exactly as one evaluate() would; add() is free.  An oracle built with
    grower=(cls, data) answers through cls(oracle, data), a Grower subclass
    that builds its own state, so the oracle keeps none between calls; the
    modular and matroid-rank-sum families do this.  Without one, gains go
    through evaluate().  A grower is single-owner state: one caller, one loop.
    """

    __slots__ = ("_fn", "descriptor", "_count", "_lock", "_grower")

    def __init__(
        self,
        fn: Callable[[frozenset], int],
        descriptor: dict,
        grower: "tuple[type[Grower], object] | None" = None,
    ):
        self._fn = fn
        self.descriptor = descriptor
        self._count = 0
        self._lock = threading.Lock()
        self._grower = grower

    def evaluate(self, items: Iterable[int]) -> int:
        s = frozenset(items)
        with self._lock:
            self._count += 1
        return self._fn(s)

    @property
    def call_count(self) -> int:
        return self._count

    def __repr__(self) -> str:
        kind = self.descriptor.get("kind", "?")
        return f"AggregationOracle(kind={kind!r}, calls={self._count})"


class Grower:
    """gamma(B + i) - gamma(B) for a set B grown one item at a time from empty.

    gain(i) takes an item not in B and counts as one call on the oracle;
    add(i) puts into B the item whose gain was just asked.  Subclasses
    supply _marginal() and add().  Not thread-safe.
    """

    __slots__ = ("_oracle",)

    def __init__(self, oracle: AggregationOracle):
        self._oracle = oracle

    def gain(self, item: int) -> int:
        oracle = self._oracle
        with oracle._lock:
            oracle._count += 1
        return self._marginal(item)

    def _marginal(self, item: int) -> int:
        raise NotImplementedError

    def add(self, item: int) -> None:
        raise NotImplementedError


class _EvaluateGrower(Grower):
    """Any object with evaluate(): each gain is evaluate(B + i) minus the value of B.

    The value of the empty set is taken to be 0 (every oracle's contract),
    and the value of B + i is the answer of the gain(i) that preceded add(i).
    """

    __slots__ = ("_members", "_value", "_asked")

    def __init__(self, oracle):
        super().__init__(oracle)
        self._members: set[int] = set()
        self._value = 0
        self._asked: tuple[int, int] | None = None

    def gain(self, item: int) -> int:
        value = self._oracle.evaluate(self._members | {item})
        self._asked = (item, value)
        return value - self._value

    def add(self, item: int) -> None:
        if self._asked is None or self._asked[0] != item:
            raise ValueError(f"add({item}) must follow gain({item})")
        self._members.add(item)
        self._value = self._asked[1]
        self._asked = None


def grower_for(oracle) -> Grower:
    """The oracle's incremental grower, or one that calls evaluate() per gain.

    Any object with an evaluate() method works: coverage and user-supplied
    oracles, or a wrapper around an oracle, get the evaluate-backed grower,
    which asks gamma(B + i) on exactly the set B + i.
    """
    recipe = oracle._grower if isinstance(oracle, AggregationOracle) else None
    if recipe is None:
        return _EvaluateGrower(oracle)
    cls, data = recipe
    return cls(oracle, data)


@dataclass(frozen=True)
class MatroidSpec:
    """A matroid over item ids: uniform, partition, or graphic.

    Graphic specs describe a multigraph whose edges biject to the items
    (self-loops and parallel edges allowed); rank is the max forest size.
    """

    kind: str
    ground: frozenset
    rank_cap: int = 0
    groups: tuple[tuple[frozenset, int], ...] = ()
    edges: tuple[tuple[int, int, int], ...] = ()  # (item id, u, v)

    @staticmethod
    def uniform(ground: Iterable[int], cap: int) -> "MatroidSpec":
        if cap < 0:
            raise ValueError("uniform matroid cap must be >= 0")
        return MatroidSpec(kind="uniform", ground=frozenset(ground), rank_cap=cap)

    @staticmethod
    def partition(groups: Sequence[tuple[Iterable[int], int]]) -> "MatroidSpec":
        frozen = []
        ground: set[int] = set()
        for members, cap in groups:
            members = frozenset(members)
            if cap < 0:
                raise ValueError("partition matroid caps must be >= 0")
            if members & ground:
                raise ValueError("partition matroid groups must be disjoint")
            ground |= members
            frozen.append((members, int(cap)))
        return MatroidSpec(kind="partition", ground=frozenset(ground), groups=tuple(frozen))

    @staticmethod
    def graphic(edges: Sequence[tuple[int, int, int]]) -> "MatroidSpec":
        items = [e[0] for e in edges]
        if len(set(items)) != len(items):
            raise ValueError("graphic matroid items must biject to edges")
        return MatroidSpec(
            kind="graphic",
            ground=frozenset(items),
            edges=tuple((int(i), int(u), int(v)) for i, u, v in edges),
        )


def _find(parent: dict[int, int], x: int) -> int:
    """Root of x in a union-find forest kept as a parent map; compresses the path."""
    root = x
    while parent.setdefault(root, root) != root:
        root = parent[root]
    while parent[x] != root:
        parent[x], x = root, parent[x]
    return root


def matroid_rank(spec: MatroidSpec, items: Iterable[int]) -> int:
    """Rank of an item set under the spec's matroid."""
    s = frozenset(items)
    unknown = s - spec.ground
    if unknown:
        raise UnknownItemId(f"items {sorted(unknown)} outside matroid ground")
    if spec.kind == "uniform":
        return min(len(s), spec.rank_cap)
    if spec.kind == "partition":
        return sum(min(len(s & g), cap) for g, cap in spec.groups)
    if spec.kind == "graphic":
        parent: dict[int, int] = {}
        rank = 0
        for item, u, v in spec.edges:
            if item not in s:
                continue
            ru, rv = _find(parent, u), _find(parent, v)
            if ru != rv:
                parent[rv] = ru
                rank += 1
        return rank
    raise ValueError(f"unknown matroid kind {spec.kind!r}")


def _uniform_state(spec: MatroidSpec):
    free = [spec.rank_cap]

    def add(item: int) -> None:
        free[0] -= 1

    return (lambda item: free[0] > 0), add


def _partition_state(spec: MatroidSpec):
    group = {i: k for k, (members, _) in enumerate(spec.groups) for i in members}
    free = [cap for _, cap in spec.groups]

    def add(item: int) -> None:
        free[group[item]] -= 1

    return (lambda item: free[group[item]] > 0), add


def _graphic_state(spec: MatroidSpec):
    ends = {i: (u, v) for i, u, v in spec.edges}
    parent: dict[int, int] = {}

    def gain(item: int) -> bool:
        u, v = ends[item]
        return _find(parent, u) != _find(parent, v)

    def add(item: int) -> None:
        u, v = ends[item]
        parent[_find(parent, v)] = _find(parent, u)

    return gain, add


_MATROID_STATES = {
    "uniform": _uniform_state,
    "partition": _partition_state,
    "graphic": _graphic_state,
}


def _matroid_state(spec: MatroidSpec):
    """(gain, add) over a set B that starts empty: gain(i) says if B + i has higher rank.

    Uniform keeps the free rank, partition the free capacity per group (both
    may go negative once B is dependent), graphic a union-find forest.
    """
    if spec.kind not in _MATROID_STATES:
        raise ValueError(f"unknown matroid kind {spec.kind!r}")
    return _MATROID_STATES[spec.kind](spec)


class _TableGrower(Grower):
    """Modular marginals: gain(i) is p_i whatever B holds."""

    __slots__ = ("_table",)

    def __init__(self, oracle: AggregationOracle, table: dict[int, int]):
        super().__init__(oracle)
        self._table = table

    def _marginal(self, item: int) -> int:
        try:
            return self._table[item]
        except KeyError:
            raise UnknownItemId(f"item id {item} outside oracle ground") from None

    def add(self, item: int) -> None:
        pass


class _RankSumGrower(Grower):
    """Per-class matroid states, each built the first time one of its items comes up."""

    __slots__ = ("_specs", "_states", "_hit")

    def __init__(self, oracle: AggregationOracle, specs: list[tuple[int, MatroidSpec]]):
        super().__init__(oracle)
        self._specs = specs
        self._states: dict[int, tuple] = {}
        self._hit: tuple = (frozenset(), 0, None)

    def _class_of(self, item: int) -> tuple:
        """(ground, profit, (gain, add)) of the item's class."""
        # Callers mostly ask about one class at a time, so try the last one first.
        if item in self._hit[0]:
            return self._hit
        for p, spec in self._specs:
            if item in spec.ground:
                if p not in self._states:
                    self._states[p] = _matroid_state(spec)
                self._hit = (spec.ground, p, self._states[p])
                return self._hit
        raise UnknownItemId(f"item id {item} outside oracle ground")

    def _marginal(self, item: int) -> int:
        _, p, (gain, _) = self._class_of(item)
        return p if gain(item) else 0

    def add(self, item: int) -> None:
        _, _, (_, add) = self._class_of(item)
        add(item)


def modular_oracle(profits: Mapping[int, int]) -> AggregationOracle:
    """gamma(S) = sum of item profits; the trivially independent family."""
    table = {int(i): int(p) for i, p in profits.items()}

    def fn(s: frozenset) -> int:
        try:
            return sum(table[i] for i in s)
        except KeyError as exc:
            raise UnknownItemId(f"item id {exc.args[0]} outside oracle ground") from None

    return AggregationOracle(fn, {"kind": "modular"}, (_TableGrower, table))


def _matroid_to_obj(spec: MatroidSpec) -> dict:
    if spec.kind == "uniform":
        return {"kind": "uniform", "ground": sorted(spec.ground), "rank_cap": spec.rank_cap}
    if spec.kind == "partition":
        return {
            "kind": "partition",
            "groups": [{"members": sorted(g), "cap": cap} for g, cap in spec.groups],
        }
    return {
        "kind": "graphic",
        "edges": [{"item": i, "u": u, "v": v} for i, u, v in spec.edges],
    }


def _matroid_from_obj(obj: dict) -> MatroidSpec:
    kind = obj["kind"]
    if kind == "uniform":
        return MatroidSpec.uniform(obj["ground"], obj["rank_cap"])
    if kind == "partition":
        return MatroidSpec.partition([(g["members"], g["cap"]) for g in obj["groups"]])
    if kind == "graphic":
        return MatroidSpec.graphic([(e["item"], e["u"], e["v"]) for e in obj["edges"]])
    raise ValueError(f"unknown matroid kind {kind!r}")


def matroid_rank_sum_oracle(
    class_specs: Sequence[tuple[int, MatroidSpec]]
) -> AggregationOracle:
    """gamma(S) = sum over classes of p * rank(S restricted to the class).

    This is monotone, submodular, and all-or-nothing with per-item profit
    equal to the class profit.  Class grounds must be pairwise disjoint and
    class profits strictly increasing.
    """
    specs = [(int(p), spec) for p, spec in class_specs]
    ground: set[int] = set()
    prev_p = 0
    for p, spec in specs:
        if p <= prev_p:
            raise ValueError("class profits must be strictly increasing and >= 1")
        prev_p = p
        overlap = ground & spec.ground
        if overlap:
            raise OverlappingClasses(f"items {sorted(overlap)} appear in two classes")
        ground |= spec.ground

    def fn(s: frozenset) -> int:
        unknown = s - ground if not s <= ground else None
        if unknown:
            raise UnknownItemId(f"items {sorted(unknown)} outside oracle ground")
        return sum(p * matroid_rank(spec, s & spec.ground) for p, spec in specs)

    descriptor = {
        "kind": "matroid_rank_sum",
        "classes": [{"profit": p, "matroid": _matroid_to_obj(spec)} for p, spec in specs],
    }
    return AggregationOracle(fn, descriptor, (_RankSumGrower, specs))


def coverage_oracle(
    edges: Sequence[tuple[int, int]], vertex_of: Mapping[int, int]
) -> AggregationOracle:
    """gamma(S) = number of edges with an endpoint in the vertices of S.

    Monotone and submodular; marginals are bounded by the maximum degree.
    Requires a simple graph.
    """
    norm = []
    seen: set[tuple[int, int]] = set()
    for u, v in edges:
        if u == v:
            raise ValueError(f"self-loop at vertex {u}; coverage needs a simple graph")
        e = (min(u, v), max(u, v))
        if e in seen:
            raise ValueError(f"parallel edge {e}; coverage needs a simple graph")
        seen.add(e)
        norm.append(e)
    vmap = {int(i): int(v) for i, v in vertex_of.items()}

    def fn(s: frozenset) -> int:
        try:
            verts = {vmap[i] for i in s}
        except KeyError as exc:
            raise UnknownItemId(f"item id {exc.args[0]} outside oracle ground") from None
        return sum(1 for u, v in norm if u in verts or v in verts)

    items = sorted(vmap)
    descriptor = {
        "kind": "coverage",
        "edges": [[u, v] for u, v in norm],
        "items": items,
        "vertices": [vmap[i] for i in items],
    }
    return AggregationOracle(fn, descriptor)


def oracle_from_descriptor(
    descriptor: dict, profits_by_id: Mapping[int, int]
) -> AggregationOracle:
    """Rebuild an oracle from its serialized recipe.

    Modular oracles take their values from the instance profits, so the
    item profits must be supplied alongside the descriptor.
    """
    if not isinstance(descriptor, dict):
        raise ValueError(f"oracle descriptor must be an object, got {descriptor!r}")
    kind = descriptor.get("kind")
    if kind == "modular":
        return modular_oracle(profits_by_id)
    if kind == "matroid_rank_sum":
        specs = [
            (c["profit"], _matroid_from_obj(c["matroid"])) for c in descriptor["classes"]
        ]
        return matroid_rank_sum_oracle(specs)
    if kind == "coverage":
        vertex_of = dict(zip(descriptor["items"], descriptor["vertices"]))
        return coverage_oracle([tuple(e) for e in descriptor["edges"]], vertex_of)
    raise ValueError(f"unknown oracle kind {kind!r}")


def _gamma_table(oracle: AggregationOracle, ground: Sequence[int]) -> list[int]:
    """gamma over all subsets of ground, indexed by bitmask."""
    n = len(ground)
    table = [0] * (1 << n)
    for mask in range(1, 1 << n):
        table[mask] = oracle.evaluate(
            frozenset(ground[b] for b in range(n) if mask >> b & 1)
        )
    return table


def _mask_to_set(mask: int, ground: Sequence[int]) -> frozenset:
    return frozenset(ground[b] for b in range(len(ground)) if mask >> b & 1)


def _random_mask(rng: random.Random, n: int) -> int:
    return rng.getrandbits(n) if n else 0


def check_aon_property(
    oracle: AggregationOracle,
    profits: Mapping[int, int],
    ground: Iterable[int],
    sample_budget: int = 20_000,
    seed: int = _CHECKER_SEED,
):
    """Verify every marginal gamma(S+i) - gamma(S) is 0 or the full profit p_i.

    Exhaustive for grounds of size <= 12 (first violating pair in mask/bit
    order), seeded random sampling above that.  Returns None when no
    violation is found, else the pair (S, i).
    """
    ground = sorted(ground)
    n = len(ground)
    if n <= AON_EXHAUSTIVE_LIMIT:
        table = _gamma_table(oracle, ground)
        for mask in range(1 << n):
            g = table[mask]
            for b in range(n):
                if mask >> b & 1:
                    continue
                marginal = table[mask | 1 << b] - g
                if marginal != 0 and marginal != profits[ground[b]]:
                    return _mask_to_set(mask, ground), ground[b]
        return None
    rng = random.Random(seed)
    for _ in range(sample_budget):
        b = rng.randrange(n)
        mask = _random_mask(rng, n) & ~(1 << b)
        s = _mask_to_set(mask, ground)
        marginal = oracle.evaluate(s | {ground[b]}) - oracle.evaluate(s)
        if marginal != 0 and marginal != profits[ground[b]]:
            return s, ground[b]
    return None


def check_submodularity(
    oracle: AggregationOracle,
    ground: Iterable[int],
    sample_budget: int = 20_000,
    seed: int = _CHECKER_SEED,
):
    """Verify gamma is monotone non-decreasing and submodular.

    Exhaustive for grounds of size <= 10 via the equivalent local condition
    gamma(M+i) + gamma(M+j) >= gamma(M+i+j) + gamma(M) plus nonnegative
    marginals; seeded sampling of (S subset-of T, i) triples above that.
    Returns None, or a counterexample (S, T, i) with S a subset of T where
    either the marginal of i drops from S to T reversed, or gamma decreased.
    """
    ground = sorted(ground)
    n = len(ground)
    if n <= SUBMODULAR_EXHAUSTIVE_LIMIT:
        table = _gamma_table(oracle, ground)
        for mask in range(1 << n):
            g = table[mask]
            free = [b for b in range(n) if not mask >> b & 1]
            for pos, bi in enumerate(free):
                gi = table[mask | 1 << bi]
                if gi < g:  # monotonicity: adding an item may not decrease gamma
                    return (
                        _mask_to_set(mask, ground),
                        _mask_to_set(mask | 1 << bi, ground),
                        ground[bi],
                    )
                for bj in free[pos + 1 :]:
                    gj = table[mask | 1 << bj]
                    gij = table[mask | 1 << bi | 1 << bj]
                    if gi + gj < gij + g:
                        return (
                            _mask_to_set(mask, ground),
                            _mask_to_set(mask | 1 << bj, ground),
                            ground[bi],
                        )
        return None
    rng = random.Random(seed)
    for _ in range(sample_budget):
        b = rng.randrange(n)
        t_mask = _random_mask(rng, n) & ~(1 << b)
        s_mask = t_mask & _random_mask(rng, n)
        s = _mask_to_set(s_mask, ground)
        t = _mask_to_set(t_mask, ground)
        gs, gt = oracle.evaluate(s), oracle.evaluate(t)
        if gs > gt:
            return s, t, ground[b]
        item = ground[b]
        if oracle.evaluate(s | {item}) - gs < oracle.evaluate(t | {item}) - gt:
            return s, t, item
    return None
