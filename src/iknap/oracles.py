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
import re
import threading
from dataclasses import dataclass
from operator import itemgetter
from typing import Callable, ClassVar, Iterable, Mapping, Sequence

from .errors import OracleViolation, OverlappingClasses, UnknownItemId

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


_DECIMAL = re.compile("-?[0-9]+")


def _parse_int(text: str, name: str) -> int:
    """text as an int when it is ASCII digits after an optional minus.

    int() alone would also take '+2', '1_2', surrounding spaces and
    non-ASCII digits such as '\u0663'.
    """
    if _DECIMAL.fullmatch(text) is None:
        raise ValueError(f"{name} must be an integer, got {text!r}")
    return int(text)


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


class AggregationOracle:
    """Wraps a set function and counts evaluations.

    evaluate() may be called from multiple threads: the wrapped function must
    be stateless (all built-in families are).  The call counter is one int,
    _calls: each evaluate() adds one to it, and each bulk answer of
    singleton_gains(), greedy_kept() and chain_gammas() adds as many as its
    evaluate() fallback would call, both under _lock, so no call is lost
    between threads.  Reading call_count only reads it.

    descriptor may be a zero-argument function instead of a dict; the
    first read of the descriptor attribute calls it, and a solve never does.

    bulk, if given, is a (singletons, greedy, chain) triple that answers
    singleton_gains(), greedy_kept() and chain_gammas() without
    evaluate(), ticked once per id, once per item, and once for S_1 plus
    once per later nonempty layer.  greedy takes a whole greedy_kept()
    call, the items of every profit class at once, and answers all of it
    or none.  None of the three keeps state between calls, ticks or falls
    back: each returns None for input it cannot answer, such as an id
    outside the ground or an item that does not carry its class's profit.
    """

    __slots__ = ("_fn", "_descriptor", "_calls", "_lock", "_bulk")

    def __init__(
        self,
        fn: Callable[[frozenset], int],
        descriptor: "dict | Callable[[], dict]",
        bulk: "tuple[Callable, Callable, Callable] | None" = None,
    ):
        self._fn = fn
        self._descriptor = descriptor
        self._calls = 0
        self._lock = threading.Lock()
        self._bulk = bulk

    @property
    def descriptor(self) -> dict:
        with self._lock:  # so two threads reading it first get one dict
            if callable(self._descriptor):
                self._descriptor = self._descriptor()
            return self._descriptor

    def evaluate(self, items: Iterable[int]) -> int:
        s = frozenset(items)
        with self._lock:
            self._calls += 1
        return self._fn(s)

    @property
    def call_count(self) -> int:
        return self._calls

    def __repr__(self) -> str:
        kind = self.descriptor.get("kind", "?")
        return f"AggregationOracle(kind={kind!r}, calls={self.call_count})"


def _tick(oracle: AggregationOracle, calls: int) -> None:
    """Count calls oracle calls at once."""
    with oracle._lock:
        oracle._calls += calls


def singleton_gains(oracle, ids: Sequence[int]) -> list:
    """gamma({i}) for each id, in order; each id counts as one oracle call.

    An AggregationOracle with a bulk triple answers every id in one call and
    then adds one call per id to its call counter.  Ids the triple
    cannot answer, and any other object with an evaluate() method (coverage
    and user-supplied oracles, or a wrapper around an oracle), are asked
    evaluate({i}) one by one.  Both paths give the same answers, call
    counts and errors.
    """
    bulk = oracle._bulk if isinstance(oracle, AggregationOracle) else None
    gains = bulk[0](ids) if bulk else None
    if gains is None:
        return [oracle.evaluate({i}) for i in ids]
    _tick(oracle, len(gains))
    return gains


def _by_class(items: Sequence[tuple]) -> list:
    """Items by (profit, weight, id): each profit class a run, in greedy order."""
    order = sorted(items, key=itemgetter(0))
    order.sort(key=itemgetter(1))
    order.sort(key=itemgetter(2))
    return order


def greedy_kept(oracle, items: Sequence[tuple]) -> list:
    """The items that join their profit class's greedy basis, in id order.

    items holds (id, weight, profit) items with distinct ids, of any number
    of profit classes (the items of one profit), in any order.  Each class
    is grown from an empty set B in (weight, id) order, the classes in
    increasing profit: an item joins B when its gain gamma(B + i) - gamma(B)
    is its profit, and a larger gain raises OracleViolation.  Each item
    counts as one oracle call: a bulk triple answers the whole call as
    singleton_gains() does, and otherwise the oracle is asked exactly
    evaluate(B + i) per item in that order, the value of the empty set
    taken to be 0.
    """
    bulk = oracle._bulk if isinstance(oracle, AggregationOracle) else None
    kept = bulk[1](items) if bulk else None
    if kept is not None:
        _tick(oracle, len(items))
        return kept
    # Each B stays independent, so gamma(B) = p(B) = value.
    kept = []
    profit = None
    for it in _by_class(items):
        i, _, p = it
        if p != profit:
            profit, members, value = p, set(), 0
        g = oracle.evaluate(members | {i}) - value
        if g > p:
            raise OracleViolation(
                f"gamma(S) = {value + g} > p(S) = {value + p} for S={sorted(members | {i})}; "
                "oracle is outside the all-or-nothing class"
            )
        if g == p:
            kept.append(it)
            members.add(i)
            value += p
    kept.sort(key=itemgetter(0))
    return kept


def chain_gammas(oracle, layers: Sequence[Sequence[int]]) -> list:
    """gamma(S_1), ..., gamma(S_T) for the chain whose layers are S_t - S_{t-1}.

    layers holds T lists of ids, no id twice.  gamma(S_1) and each gamma(S_t)
    whose layer is not empty count as one oracle call; a period with an
    empty layer repeats the value before it.  A bulk triple answers the
    whole chain in one call and ticks that count; otherwise, or for ids it
    cannot answer, the oracle is asked evaluate(S_t) for exactly those
    periods, so both paths give the same values, call counts and errors.
    """
    bulk = oracle._bulk if isinstance(oracle, AggregationOracle) else None
    gammas = bulk[2](layers) if bulk else None
    if gammas is not None:
        _tick(oracle, len(layers[:1]) + sum(map(bool, layers[1:])))
        return gammas
    gammas = []
    members: set[int] = set()
    for t, layer in enumerate(layers):
        if layer or not t:
            members.update(layer)
            value = oracle.evaluate(frozenset(members))
        gammas.append(value)
    return gammas


def _forest(edges: Iterable[tuple[int, int, int]]) -> list[int]:
    """Items of the (item, u, v) edges that join two trees, grown from no edge.

    An inline union-find by size: each vertex seen maps to the vertex list
    of its tree, so a find is one dict lookup, and a union relabels the
    smaller tree's vertices in one C call.
    """
    tree: dict[int, list[int]] = {}
    get = tree.get
    kept = []
    for item, u, v in edges:
        tu = get(u)
        tv = get(v)
        if tu is None:
            if tv is None:
                if u == v:
                    continue
                tree[u] = tree[v] = [u, v]
            else:
                tv.append(u)
                tree[u] = tv
        elif tv is None:
            tu.append(v)
            tree[v] = tu
        elif tu is tv:
            continue
        else:
            if len(tu) < len(tv):
                tu, tv = tv, tu
            tu += tv
            tree.update(dict.fromkeys(tv, tu))
        kept.append(item)
    return kept


@dataclass(frozen=True)
class MatroidSpec:
    """A matroid over item ids: uniform, partition, or graphic.

    Build one with MatroidSpec.uniform, .partition or .graphic: each is the
    validating of() constructor of its kind's subclass.  Each kind also owns
    its to_obj() descriptor, loops(): the ids of rank 0, and greedy(ids):
    the ids that raise the rank of the set grown from empty in the given
    order, for a list of distinct ids of ground.  greedy defines the rank:
    the rank of a set is the length of greedy over its ids in any order.
    greedy builds what it needs on each call (a counter per group, a
    union-find), so a spec holds only its definition.
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

    def loops(self) -> frozenset:
        return self.ground if self.rank_cap == 0 else frozenset()

    def greedy(self, ids: list) -> list:
        return ids[: self.rank_cap]

    def to_obj(self) -> dict:
        return {"kind": "uniform", "ground": sorted(self.ground), "rank_cap": self.rank_cap}


@dataclass(frozen=True)
class PartitionMatroid(MatroidSpec):
    """Disjoint groups, each with a cap on how many of its items a set may hold."""

    groups: tuple[tuple[frozenset, int], ...]
    kind = "partition"

    @classmethod
    def of(cls, groups: Sequence[tuple[Iterable[int], int]]) -> "PartitionMatroid":
        lists, caps = [], []
        for members, cap in groups:
            lists.append(list(members))
            caps.append(cap)
        chained = list(itertools.chain.from_iterable(lists))
        ground = frozenset(chained)
        # One pass each over all groups: types, caps, and disjointness by count.
        if not (
            {*map(type, chained), *map(type, caps)} <= {int}
            and min(caps, default=0) >= 0
            and len(ground) == len(chained)
        ):
            # Group by group, so the first bad value is the one named; a group
            # may repeat its own ids.
            seen: set[int] = set()
            for members, cap in zip(lists, caps):
                members = frozenset(_integers(members, "matroid item id"))
                if _integer(cap, "partition matroid cap") < 0:
                    raise ValueError("partition matroid caps must be >= 0")
                if members & seen:
                    raise ValueError("partition matroid groups must be disjoint")
                seen |= members
        return cls(ground, tuple(zip(map(frozenset, lists), caps)))

    def loops(self) -> frozenset:
        return frozenset().union(*[g for g, cap in self.groups if cap == 0])

    def greedy(self, ids: list) -> list:
        group = {i: k for k, (members, _) in enumerate(self.groups) for i in members}
        free = [cap for _, cap in self.groups]
        kept = []
        for i in ids:
            k = group[i]
            if free[k]:
                free[k] -= 1
                kept.append(i)
        return kept

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

    def loops(self) -> frozenset:
        return frozenset([i for i, u, v in self.edges if u == v])

    def greedy(self, ids: list) -> list:
        edge_of = dict(zip(map(itemgetter(0), self.edges), self.edges))
        return _forest(map(edge_of.__getitem__, ids))

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
    return len(spec.greedy(list(s)))


def modular_oracle(profits: Mapping[int, int]) -> AggregationOracle:
    """gamma(S) = sum of item profits; the trivially independent family.

    Ids and profits must be integers: a float, bool or numeric string
    raises ValueError instead of being truncated or parsed.
    """
    table = _ItemTable(profits)
    # One pass over the types keeps the all-int case cheap.
    if {*map(type, table), *map(type, table.values())} != {int}:
        for i, p in table.items():
            _integer(i, "item id")
            _integer(p, f"profit of item {i}")
    return _modular(table)


def _modular(table: _ItemTable) -> AggregationOracle:
    """The modular oracle, with a bulk triple, summing an id -> profit table this module built."""

    def fn(s: frozenset) -> int:
        return sum(map(table.__getitem__, s))

    # A gain does not depend on B: it is the table's value, so every item
    # is kept exactly when the table's values are the items' profits.
    def singletons(ids):
        try:
            return list(map(table.__getitem__, ids))
        except UnknownItemId:
            return None

    def greedy(items):
        if singletons(list(map(itemgetter(0), items))) != list(map(itemgetter(2), items)):
            return None
        return sorted(items, key=itemgetter(0))

    def chain(layers):
        try:
            sums = [sum(map(table.__getitem__, layer)) for layer in layers]
        except UnknownItemId:
            return None
        return list(itertools.accumulate(sums))

    return AggregationOracle(fn, {"kind": "modular"}, (singletons, greedy, chain))


def _modular_over(kept: Sequence[tuple]) -> AggregationOracle:
    """A new modular oracle, with its own call counter, over the kept items' profits.

    kept holds (id, weight, profit) items.  The id -> profit table is built
    from kept on the first evaluate(), which exact and heuristic solves never
    make.  There is no bulk triple: a bulk call takes the evaluate() path.
    Threads making the first evaluate() together may each build a table, all
    equal.
    """
    table = None

    def fn(s: frozenset) -> int:
        nonlocal table
        if table is None:
            table = _ItemTable(map(itemgetter(0, 2), kept))
        return sum(map(table.__getitem__, s))

    return AggregationOracle(fn, {"kind": "modular"})


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

    def fn(s: frozenset) -> int:
        unknown = s - ground
        if unknown:
            raise UnknownItemId(f"items {sorted(unknown)} outside oracle ground")
        return sum(p * len(spec.greedy(list(s & spec.ground))) for p, spec in specs)

    spec_of = dict(specs)  # class profits are distinct

    def singletons(ids):
        # Built per call, not kept: a per-item table held by every oracle
        # raised peak RSS on large instances.
        gain_of: dict[int, int] = {}
        for p, spec in specs:
            gain_of.update(dict.fromkeys(spec.ground, p))
            gain_of.update(dict.fromkeys(spec.loops(), 0))
        try:
            return list(map(gain_of.__getitem__, ids))
        except KeyError:
            return None

    def greedy(items):
        # Each profit's run goes to the spec of the class with that profit
        # when the run lies in the class's ground; anything else takes the
        # evaluate() path.
        kept: set[int] = set()
        for p, run in itertools.groupby(_by_class(items), itemgetter(2)):
            ids = list(map(itemgetter(0), run))
            spec = spec_of.get(p)
            if spec is None or not spec.ground.issuperset(ids):
                return None
            kept.update(spec.greedy(ids))
        by_id = sorted(items, key=itemgetter(0))
        ids = map(itemgetter(0), by_id)
        return list(itertools.compress(by_id, map(kept.__contains__, ids)))

    def chain(layers):
        # The greedy over a class's items in insertion order keeps a basis of
        # every prefix, so rank(S_t & class) counts the kept items of time <= t.
        time_of = {i: t for t, layer in enumerate(layers) for i in layer}
        if not ground.issuperset(time_of):
            return None
        gains = [0] * len(layers)
        for p, spec in specs:
            for i in spec.greedy(list(filter(spec.ground.__contains__, time_of))):
                gains[time_of[i]] += p
        return list(itertools.accumulate(gains))

    def descriptor() -> dict:
        classes = [{"profit": p, "matroid": spec.to_obj()} for p, spec in specs]
        return {"kind": "matroid_rank_sum", "classes": classes}

    return AggregationOracle(fn, descriptor, (singletons, greedy, chain))


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
    descriptor: dict, profits_by_id: Mapping[int, int] | Iterable[tuple[int, int]]
) -> AggregationOracle:
    """Rebuild an oracle from its serialized recipe.

    Modular oracles take their values from the instance profits, so the
    item profits must be supplied alongside the descriptor, as a mapping or
    as (id, profit) pairs; a modular oracle sums over one id -> profit
    table built from them.  Other kinds never read profits_by_id, so
    pairs given lazily are never built.
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
