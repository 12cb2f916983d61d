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

import itertools
import random
import threading
from dataclasses import dataclass
from operator import itemgetter
from typing import Callable, ClassVar, Iterable, Mapping, NamedTuple, Sequence

from .errors import OverlappingClasses, UnknownItemId

#: Ground-set sizes up to which the checkers enumerate instead of sampling.
AON_EXHAUSTIVE_LIMIT = 12
SUBMODULAR_EXHAUSTIVE_LIMIT = 10
EXCHANGE_EXHAUSTIVE_LIMIT = 8

#: Seeded samples drawn above those sizes.
_CHECKER_SAMPLES = 20_000
_EXCHANGE_SAMPLES = 2_000
_CHECKER_SEED = 2024


def _is_int(value) -> bool:
    # bool is an int subclass, but JSON true is not a weight.
    return isinstance(value, int) and not isinstance(value, bool)


def _integer(value, name: str) -> int:
    """value if it is an int; a float, bool or string would be silently truncated."""
    if not _is_int(value):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return value


def _integers(values: Iterable, name: str) -> list:
    """values as a list, each checked by _integer.

    One pass over the types settles the all-int case; only a list holding
    another type is checked value by value, so the first bad value is named.
    """
    values = list(values)
    if not {*map(type, values)} <= {int}:
        for value in values:
            _integer(value, name)
    return values


class _ItemTable(dict):
    """A dict keyed by item id whose missing keys raise UnknownItemId."""

    def __missing__(self, item):
        raise UnknownItemId(f"item id {item} outside oracle ground")


class Grower(NamedTuple):
    """gamma(B + i) - gamma(B) for a set B grown one item at a time from empty.

    gain(i) takes an item not in B and counts as one call on the oracle;
    add(i) puts into B an item whose gain was asked since B last grew.
    Built by grower_for().  Not thread-safe: one caller, one loop.
    """

    gain: Callable[[int], int]
    add: Callable[[int], None]


class AggregationOracle:
    """Wraps a set function and counts evaluations.

    evaluate() may be called from multiple threads: the wrapped function must
    be stateless (all built-in families are) and each call ticks the call
    counter exactly once, by next() on an itertools.count.  That is one C
    call, atomic under the GIL, so no tick is lost between threads and no
    lock is taken per call.  The count relies on the GIL (CI runs CPython
    3.10 to 3.13, all with it); a free-threaded build would need a lock per
    tick again.  The contract rests on this docstring: on a GIL build,
    TestCallCounter passes with an unlocked `self._n += 1` counter too, so
    no test catches a lost tick.
    Reading call_count ticks the counter too, so the read takes a lock and
    subtracts the ticks of all reads so far.

    descriptor may be a zero-argument function instead of a dict; the
    first read of the descriptor attribute calls it, and a solve never does.

    make_grower, if given, is a zero-argument factory that returns a fresh
    (gain, add) pair over a set B that starts empty, so the oracle keeps no
    state between calls; the modular and matroid-rank-sum families supply
    one.  grower_for() counts each of its gains as one call; without a
    factory, gains go through evaluate().
    """

    __slots__ = ("_fn", "_descriptor", "_ticks", "_reads", "_lock", "_make_grower")

    def __init__(
        self,
        fn: Callable[[frozenset], int],
        descriptor: "dict | Callable[[], dict]",
        make_grower: "Callable[[], tuple[Callable, Callable]] | None" = None,
    ):
        self._fn = fn
        self._descriptor = descriptor
        self._ticks = itertools.count()
        self._reads = 0
        self._lock = threading.Lock()
        self._make_grower = make_grower

    @property
    def descriptor(self) -> dict:
        with self._lock:  # so two threads reading it first get one dict
            if callable(self._descriptor):
                self._descriptor = self._descriptor()
            return self._descriptor

    def evaluate(self, items: Iterable[int]) -> int:
        s = frozenset(items)
        next(self._ticks)
        return self._fn(s)

    @property
    def call_count(self) -> int:
        with self._lock:
            calls = next(self._ticks) - self._reads
            self._reads += 1
            return calls

    def __repr__(self) -> str:
        kind = self.descriptor.get("kind", "?")
        return f"AggregationOracle(kind={kind!r}, calls={self.call_count})"


def grower_for(oracle) -> Grower:
    """A fresh Grower over the oracle; each gain() counts as one call.

    An AggregationOracle with a make_grower factory answers from the pair it
    returns, each gain ticking the oracle's call counter as evaluate() does,
    with no lock.  Any other object with an evaluate() method (coverage and
    user-supplied oracles, or a wrapper around an oracle) gets gains from
    evaluate() on exactly the set B + i; the value of the empty set is taken
    to be 0, and add(i) takes the value of B + i from a gain(i) asked since
    B last grew.
    """
    make = oracle._make_grower if isinstance(oracle, AggregationOracle) else None
    if make is not None:
        gain, add = make()
        tick = oracle._ticks.__next__

        def counted_gain(item: int) -> int:
            tick()
            return gain(item)

        return Grower(counted_gain, add)

    members: set[int] = set()
    value = 0
    asked: dict[int, int] = {}  # gamma(B + i) for each i asked since B last grew

    def evaluate_gain(item: int) -> int:
        asked[item] = oracle.evaluate(members | {item})
        return asked[item] - value

    def evaluate_add(item: int) -> None:
        nonlocal value
        if item not in asked:
            raise ValueError(f"add({item}) must follow gain({item})")
        members.add(item)
        value = asked[item]
        asked.clear()

    return Grower(evaluate_gain, evaluate_add)


def _find(parent: dict[int, int], x: int) -> int:
    """Root of x in a union-find forest kept as a parent map; compresses the path."""
    root = x
    while parent.setdefault(root, root) != root:
        root = parent[root]
    while parent[x] != root:
        parent[x], x = root, parent[x]
    return root


@dataclass(frozen=True)
class MatroidSpec:
    """A matroid over item ids: uniform, partition, or graphic.

    Build one with MatroidSpec.uniform, .partition or .graphic: each is the
    validating of() constructor of its kind's subclass.  Each kind also owns
    its closed-form rank(s) for a set s inside ground, its to_obj()
    descriptor, and state(): a (gain, add) pair over a set B that starts
    empty, where gain(i) says whether B + i has higher rank than B and
    add(i) puts i into B; the uniform and partition states count free
    capacity, which may go negative once B is dependent.
    """

    ground: frozenset
    kind: ClassVar[str]


@dataclass(frozen=True)
class UniformMatroid(MatroidSpec):
    """Every set of at most rank_cap items is independent."""

    rank_cap: int
    kind = "uniform"

    @classmethod
    def of(cls, ground: Iterable[int], cap: int) -> "UniformMatroid":
        if _integer(cap, "uniform matroid cap") < 0:
            raise ValueError("uniform matroid cap must be >= 0")
        return cls(frozenset(_integers(ground, "matroid item id")), cap)

    def rank(self, s: frozenset) -> int:
        return min(len(s), self.rank_cap)

    def state(self):
        free = self.rank_cap

        def add(item: int) -> None:
            nonlocal free
            free -= 1

        return (lambda item: free > 0), add

    def to_obj(self) -> dict:
        return {"kind": "uniform", "ground": sorted(self.ground), "rank_cap": self.rank_cap}


@dataclass(frozen=True)
class PartitionMatroid(MatroidSpec):
    """Disjoint groups, each with a cap on how many of its items a set may hold."""

    groups: tuple[tuple[frozenset, int], ...]
    kind = "partition"

    @classmethod
    def of(cls, groups: Sequence[tuple[Iterable[int], int]]) -> "PartitionMatroid":
        frozen = []
        ground: set[int] = set()
        for members, cap in groups:
            members = frozenset(_integers(members, "matroid item id"))
            if _integer(cap, "partition matroid cap") < 0:
                raise ValueError("partition matroid caps must be >= 0")
            if members & ground:
                raise ValueError("partition matroid groups must be disjoint")
            ground |= members
            frozen.append((members, cap))
        return cls(frozenset(ground), tuple(frozen))

    def rank(self, s: frozenset) -> int:
        return sum(min(len(s & g), cap) for g, cap in self.groups)

    def state(self):
        group = {i: k for k, (members, _) in enumerate(self.groups) for i in members}
        free = [cap for _, cap in self.groups]

        def add(item: int) -> None:
            free[group[item]] -= 1

        return (lambda item: free[group[item]] > 0), add

    def to_obj(self) -> dict:
        return {
            "kind": "partition",
            "groups": [{"members": sorted(g), "cap": cap} for g, cap in self.groups],
        }


@dataclass(frozen=True)
class GraphicMatroid(MatroidSpec):
    """A multigraph whose edges biject to the items; rank is the max forest size.

    Self-loops and parallel edges are allowed.
    """

    edges: tuple[tuple[int, int, int], ...]  # (item id, u, v)
    kind = "graphic"

    @classmethod
    def of(cls, edges: Sequence[tuple[int, int, int]]) -> "GraphicMatroid":
        edges = list(edges)
        if not {*map(type, itertools.chain.from_iterable(edges))} <= {int}:
            # Edge by edge, so the first bad field is the one named.
            for i, u, v in edges:
                _integer(i, "matroid item id")
                _integer(u, "graphic vertex")
                _integer(v, "graphic vertex")
        edges = tuple([(i, u, v) for i, u, v in edges])
        items = [e[0] for e in edges]
        if len(set(items)) != len(items):
            raise ValueError("graphic matroid items must biject to edges")
        return cls(frozenset(items), edges)

    def rank(self, s: frozenset) -> int:
        parent: dict[int, int] = {}
        rank = 0
        for item, u, v in self.edges:
            if item not in s:
                continue
            ru, rv = _find(parent, u), _find(parent, v)
            if ru != rv:
                parent[rv] = ru
                rank += 1
        return rank

    def state(self):
        ends = {i: (u, v) for i, u, v in self.edges}
        parent: dict[int, int] = {}

        def gain(item: int) -> bool:
            u, v = ends[item]
            return _find(parent, u) != _find(parent, v)

        def add(item: int) -> None:
            u, v = ends[item]
            parent[_find(parent, v)] = _find(parent, u)

        return gain, add

    def to_obj(self) -> dict:
        return {
            "kind": "graphic",
            "edges": [{"item": i, "u": u, "v": v} for i, u, v in self.edges],
        }


MatroidSpec.uniform = UniformMatroid.of
MatroidSpec.partition = PartitionMatroid.of
MatroidSpec.graphic = GraphicMatroid.of


def matroid_rank(spec: MatroidSpec, items: Iterable[int]) -> int:
    """Rank of an item set under the spec's matroid."""
    s = frozenset(items)
    unknown = s - spec.ground
    if unknown:
        raise UnknownItemId(f"items {sorted(unknown)} outside matroid ground")
    return spec.rank(s)


def modular_oracle(profits: Mapping[int, int]) -> AggregationOracle:
    """gamma(S) = sum of item profits; the trivially independent family.

    Ids and profits must be integers: a float, bool or numeric string
    raises ValueError instead of being truncated or parsed.
    """
    table = _ItemTable(profits)
    # One pass over the types keeps the all-int case cheap; modularize
    # builds this oracle on every solve.
    if {*map(type, table), *map(type, table.values())} != {int}:
        for i, p in table.items():
            _integer(i, "item id")
            _integer(p, f"profit of item {i}")
    return _modular(table)


def _modular(table: _ItemTable) -> AggregationOracle:
    """The modular oracle over an id -> profit table, taken as it is."""

    def fn(s: frozenset) -> int:
        return sum(map(table.__getitem__, s))

    # Marginals do not depend on B, so every grower shares one stateless pair.
    pair = (table.__getitem__, lambda item: None)
    return AggregationOracle(fn, {"kind": "modular"}, lambda: pair)


def _matroid_from_obj(obj: dict) -> MatroidSpec:
    kind = obj["kind"]
    if kind == "uniform":
        return MatroidSpec.uniform(obj["ground"], obj["rank_cap"])
    if kind == "partition":
        return MatroidSpec.partition([(g["members"], g["cap"]) for g in obj["groups"]])
    if kind == "graphic":
        return MatroidSpec.graphic(list(map(itemgetter("item", "u", "v"), obj["edges"])))
    raise ValueError(f"unknown matroid kind {kind!r}")


def matroid_rank_sum_oracle(
    class_specs: Sequence[tuple[int, MatroidSpec]]
) -> AggregationOracle:
    """gamma(S) = sum over classes of p * rank(S restricted to the class).

    This is monotone, submodular, and all-or-nothing with per-item profit
    equal to the class profit.  Class grounds must be pairwise disjoint and
    class profits strictly increasing.
    """
    specs = [(_integer(p, "class profit"), spec) for p, spec in class_specs]
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
    class_of: dict[int, int] | None = None  # item id -> index of its class in specs

    def fn(s: frozenset) -> int:
        unknown = s - ground if not s <= ground else None
        if unknown:
            raise UnknownItemId(f"items {sorted(unknown)} outside oracle ground")
        return sum(p * spec.rank(s & spec.ground) for p, spec in specs)

    def make_grower():
        """Per-class matroid states, each built the first time one of its items comes up."""
        nonlocal class_of
        if class_of is None:  # built for the first grower: oracles never grown stay small
            class_of = {i: k for k, (_, spec) in enumerate(specs) for i in spec.ground}
        classes = class_of
        states: list = [None] * len(specs)  # (profit, gain, add) of each class once built

        def build(k: int) -> tuple:
            p, spec = specs[k]
            states[k] = (p, *spec.state())
            return states[k]

        def gain(item: int) -> int:
            # A plain dict with try is faster here than an _ItemTable subscript.
            try:
                k = classes[item]
            except KeyError:
                raise UnknownItemId(f"item id {item} outside oracle ground") from None
            p, independent, _ = states[k] or build(k)
            return p if independent(item) else 0

        def add(item: int) -> None:
            k = classes[item]
            (states[k] or build(k))[2](item)

        return gain, add

    def descriptor() -> dict:
        classes = [{"profit": p, "matroid": spec.to_obj()} for p, spec in specs]
        return {"kind": "matroid_rank_sum", "classes": classes}

    return AggregationOracle(fn, descriptor, make_grower)


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
        _integer(u, "coverage vertex")
        _integer(v, "coverage vertex")
        if u == v:
            raise ValueError(f"self-loop at vertex {u}; coverage needs a simple graph")
        e = (min(u, v), max(u, v))
        if e in seen:
            raise ValueError(f"parallel edge {e}; coverage needs a simple graph")
        seen.add(e)
        norm.append(e)
    vmap = _ItemTable({
        _integer(i, "coverage item id"): _integer(v, "coverage vertex")
        for i, v in vertex_of.items()
    })

    def fn(s: frozenset) -> int:
        verts = set(map(vmap.__getitem__, s))
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
        # Unchecked: decoding passes item fields through, and validate_instance
        # reports a non-integer profit by name.
        return _modular(_ItemTable(profits_by_id))
    if kind == "matroid_rank_sum":
        specs = [
            (c["profit"], _matroid_from_obj(c["matroid"])) for c in descriptor["classes"]
        ]
        return matroid_rank_sum_oracle(specs)
    if kind == "coverage":
        items, vertices = descriptor["items"], descriptor["vertices"]
        if len(items) != len(vertices):
            raise ValueError(
                f"coverage has {len(items)} items but {len(vertices)} vertices"
            )
        vertex_of = dict(zip(items, vertices))
        if len(vertex_of) != len(items):
            raise ValueError("coverage item ids must be distinct")
        return coverage_oracle([tuple(e) for e in descriptor["edges"]], vertex_of)
    raise ValueError(f"unknown oracle kind {kind!r}")


def _gamma_table(oracle: AggregationOracle, ground: Sequence[int]) -> list[int]:
    """gamma over all subsets of ground, indexed by bitmask."""
    table = [0] * (1 << len(ground))
    for mask in range(1, len(table)):
        table[mask] = oracle.evaluate(_mask_to_set(mask, ground))
    return table


def _mask_to_set(mask: int, ground: Sequence[int]) -> frozenset:
    return frozenset(ground[b] for b in range(len(ground)) if mask >> b & 1)


def _random_mask(rng: random.Random, n: int) -> int:
    return rng.getrandbits(n) if n else 0


def check_aon_property(
    oracle: AggregationOracle, profits: Mapping[int, int], ground: Iterable[int]
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
    rng = random.Random(_CHECKER_SEED)
    for _ in range(_CHECKER_SAMPLES):
        b = rng.randrange(n)
        mask = _random_mask(rng, n) & ~(1 << b)
        s = _mask_to_set(mask, ground)
        marginal = oracle.evaluate(s | {ground[b]}) - oracle.evaluate(s)
        if marginal != 0 and marginal != profits[ground[b]]:
            return s, ground[b]
    return None


def check_submodularity(oracle: AggregationOracle, ground: Iterable[int]):
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
    rng = random.Random(_CHECKER_SEED)
    for _ in range(_CHECKER_SAMPLES):
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
