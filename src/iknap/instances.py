"""Instances, chains, and the two profit functionals.

An instance couples items (nonnegative integer weights, positive integer
profits) with a time horizon, non-decreasing capacities, per-period
coefficients, and an aggregation oracle that prices any item set.  A
solution is a chain: item sets that only ever grow over the horizon.  All
arithmetic is exact integer arithmetic; Python integers never overflow, so
no width checks are needed.

Instances and chains are immutable after construction and safe to share
across threads.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Iterable, Mapping, NamedTuple, Sequence

from .errors import InvalidInstance, OracleViolation, UnknownItemId
from .oracles import _is_int, chain_gammas, singleton_gains


class Item(NamedTuple):
    """One knapsack item: weight >= 0, profit >= 1.

    A NamedTuple, so it is immutable and hashable and compares equal to a
    plain tuple (id, weight, profit) with the same fields.
    """

    id: int
    weight: int
    profit: int


class Chain:
    """A nested family S_1 <= S_2 <= ... <= S_T of item sets.

    Stored canonically as insertion times (item id -> first period the item
    is in the knapsack, 1-based).  Nestedness holds by construction; the set
    view is derived and round-trips exactly.
    """

    __slots__ = ("horizon", "_times")

    def __init__(self, horizon: int, times: Mapping[int, int] | None = None):
        if not _is_int(horizon) or horizon < 1:
            raise ValueError(f"chain horizon must be an integer >= 1, got {horizon!r}")
        times = dict(times or {})
        for i, t in times.items():
            # An exact int makes no _is_int call: a heuristic chain holds thousands.
            if (type(t) is not int and not _is_int(t)) or not 1 <= t <= horizon:
                raise ValueError(
                    f"insertion time must be an integer in 1..{horizon}, got {t!r} for item {i}"
                )
        self.horizon = horizon
        self._times = times

    @classmethod
    def empty(cls, horizon: int) -> "Chain":
        return cls(horizon, {})

    @classmethod
    def from_sets(cls, sets: Sequence[Iterable[int]]) -> "Chain":
        """Build a chain from explicit sets S_1..S_T (must be nested)."""
        frozen = [frozenset(s) for s in sets]
        times: dict[int, int] = {}
        prev: frozenset = frozenset()
        for t, s in enumerate(frozen, start=1):
            if not prev <= s:
                raise ValueError(f"chain sets not nested: S_{t} does not contain S_{t - 1}")
            for i in s - prev:
                times[i] = t
            prev = s
        return cls(len(frozen), times)

    def insertion_time(self, item_id: int) -> int | None:
        """First period containing the item, or None if never inserted."""
        return self._times.get(item_id)

    @property
    def times(self) -> dict[int, int]:
        return dict(self._times)

    @property
    def final_set(self) -> frozenset:
        return frozenset(self._times)

    def set_at(self, t: int) -> frozenset:
        if not 1 <= t <= self.horizon:
            raise ValueError(f"period {t} outside 1..{self.horizon}")
        return frozenset(i for i, ti in self._times.items() if ti <= t)

    def layers(self) -> list[list[int]]:
        """The ids first inserted at each period: S_1, S_2 - S_1, ..., S_T - S_{T-1}."""
        layers: list[list[int]] = [[] for _ in range(self.horizon)]
        for i, t in self._times.items():
            layers[t - 1].append(i)
        return layers

    def sets(self) -> list[frozenset]:
        """The set view S_1..S_T."""
        out: list[frozenset] = []
        cur: set[int] = set()
        for layer in self.layers():
            cur.update(layer)
            out.append(frozenset(cur))
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, Chain):
            return NotImplemented
        return self.horizon == other.horizon and self._times == other._times

    def __hash__(self) -> int:
        return hash((self.horizon, frozenset(self._times.items())))

    def __repr__(self) -> str:
        inner = ", ".join(f"{i}@{t}" for i, t in sorted(self._times.items()))
        return f"Chain(T={self.horizon}, {{{inner}}})"


class Instance:
    """An incremental knapsack instance with an aggregation oracle.

    Item ids need not be contiguous (preprocessing may drop items), but must
    be unique.  Treat instances as immutable.  The id -> item map that
    item() and the chain checks read is built on its first read, so an
    instance that is never looked up by id never builds it.  Threads that
    make the first read together may each build the map; the maps are
    equal and one is kept, so instances stay safe to share across threads.
    """

    __slots__ = ("items", "horizon", "capacities", "deltas", "oracle", "_id_map")

    def __init__(self, items, horizon, capacities, deltas, oracle):
        self.items: tuple[Item, ...] = tuple(items)
        self.horizon = horizon
        self.capacities: tuple[int, ...] = tuple(capacities)
        self.deltas: tuple[int, ...] = tuple(deltas)
        self.oracle = oracle
        self._id_map = None

    @property
    def _by_id(self) -> dict[int, Item]:
        by_id = self._id_map
        if by_id is None:
            by_id = self._id_map = {it.id: it for it in self.items}
        return by_id

    def __len__(self) -> int:
        return len(self.items)

    @property
    def item_ids(self) -> tuple[int, ...]:
        return tuple(map(itemgetter(0), self.items))

    def item(self, item_id: int) -> Item:
        try:
            return self._by_id[item_id]
        except KeyError:
            raise UnknownItemId(f"item id {item_id} not in instance") from None

    def weight_of(self, item_id: int) -> int:
        return self.item(item_id).weight

    def profit_of(self, item_id: int) -> int:
        return self.item(item_id).profit

    @property
    def profits_by_id(self) -> dict[int, int]:
        return {it.id: it.profit for it in self.items}

    def total_weight(self, ids: Iterable[int]) -> int:
        return sum(self.weight_of(i) for i in ids)

    def __repr__(self) -> str:
        return (
            f"Instance(n={len(self.items)}, T={self.horizon}, "
            f"W={list(self.capacities)}, deltas={list(self.deltas)})"
        )


def validate_instance(inst: Instance) -> list[str]:
    """Check every structural invariant; returns a (possibly empty) report.

    Each entry names the violated invariant and the offending index.  The
    singleton condition gamma({i}) = p_i is checked by
    preprocess_singletons, not here, to keep validation oracle-free.
    """
    problems: list[str] = []
    if not _is_int(inst.horizon):
        problems.append(f"NonIntegerField: T={inst.horizon!r} must be int")
    else:
        if inst.horizon < 1:
            problems.append(f"EmptyHorizon: T={inst.horizon} < 1")
        if len(inst.capacities) != inst.horizon:
            problems.append(
                f"LengthMismatch: {len(inst.capacities)} capacities for T={inst.horizon}"
            )
        if len(inst.deltas) != inst.horizon:
            problems.append(
                f"LengthMismatch: {len(inst.deltas)} coefficients for T={inst.horizon}"
            )
    seen: set[int] = set()
    # type(x) is int settles the common case without a call; _is_int takes the rest.
    for pos, (item_id, weight, profit) in enumerate(inst.items):
        if item_id in seen:
            problems.append(f"DuplicateItemId: id {item_id} at position {pos}")
        seen.add(item_id)
        if not (
            (type(weight) is int or _is_int(weight))
            and (type(profit) is int or _is_int(profit))
        ):
            problems.append(f"NonIntegerField: item {item_id} weight/profit must be int")
            continue
        if profit < 1:
            problems.append(f"NonPositiveProfit: item {item_id} has p={profit}")
        if weight < 0:
            problems.append(f"NegativeWeight: item {item_id} has w={weight}")
    prev = 0
    for t, w in enumerate(inst.capacities, start=1):
        if not (type(w) is int or _is_int(w)):
            problems.append(f"NonIntegerField: W_{t} must be int")
            continue
        if w < 0:
            problems.append(f"NonMonotoneCapacities: W_{t}={w} < 0")
        if w < prev:
            problems.append(f"NonMonotoneCapacities: W_{t}={w} < W_{t - 1}={prev}")
        prev = w
    for t, d in enumerate(inst.deltas, start=1):
        if not (type(d) is int or _is_int(d)):
            problems.append(f"NonIntegerField: delta_{t} must be int")
        elif d < 0:
            problems.append(f"NegativeDelta: delta_{t}={d}")
    return problems


def ensure_valid(inst: Instance) -> None:
    problems = validate_instance(inst)
    if problems:
        raise InvalidInstance(problems)


_WEIGHT, _PROFIT = itemgetter(1), itemgetter(2)


def _layers(inst: Instance, chain: Chain) -> list[list[int]]:
    """chain.layers(), once the chain's horizon and ids are checked against inst."""
    if chain.horizon != inst.horizon:
        raise ValueError(
            f"chain horizon {chain.horizon} != instance horizon {inst.horizon}"
        )
    if not inst._by_id.keys() >= chain._times.keys():
        unknown = chain._times.keys() - inst._by_id.keys()
        raise UnknownItemId(f"chain references unknown item ids {sorted(unknown)}")
    return chain.layers()


def _fits(inst: Instance, layers: list[list[int]]) -> bool:
    """True iff w(S_t) <= W_t for every period, S_t the union of layers[:t + 1]."""
    item = inst._by_id.__getitem__
    weight = 0
    for t, layer in enumerate(layers):
        weight += sum(map(_WEIGHT, map(item, layer)))
        if weight > inst.capacities[t]:
            return False
    return True


def _phi(inst: Instance, layers: list[list[int]]) -> int:
    """sum_t delta_t * gamma(S_t), from one chain_gammas() call over the layers."""
    deltas = inst.deltas
    return sum([deltas[t] * g for t, g in enumerate(chain_gammas(inst.oracle, layers))])


def _phi_bar(deltas: Sequence[int], layer_profits: Iterable[Iterable[int]]) -> int:
    """sum_t delta_t * p(S_t), given the item profits of each layer S_t - S_{t-1}."""
    total = profit = 0
    for delta, layer in zip(deltas, layer_profits):
        profit += sum(layer)
        total += delta * profit
    return total


def is_feasible(inst: Instance, chain: Chain) -> bool:
    """True iff w(S_t) <= W_t for every period (nestedness is structural)."""
    return _fits(inst, _layers(inst, chain))


def profit_phi(inst: Instance, chain: Chain) -> int:
    """Chain profit under the aggregation oracle: sum_t delta_t * gamma(S_t).

    One chain_gammas() call: it counts one oracle call for S_1 and one for
    each later S_t != S_{t-1}, so consecutive duplicates cost nothing extra.
    """
    return _phi(inst, _layers(inst, chain))


def suffix_coefficients(deltas: Sequence[int]) -> tuple[int, ...]:
    """D[j] = deltas[j] + ... + deltas[T-1] (0-based), with D[T] = 0.

    An item inserted at 0-based period j earns p * D[j], so D collapses the
    chain objective into independent per-item terms.  D is non-increasing.
    """
    horizon = len(deltas)
    out = [0] * (horizon + 1)
    for j in range(horizon - 1, -1, -1):
        out[j] = deltas[j] + out[j + 1]
    return tuple(out)


def profit_phi_bar(
    profits: Mapping[int, int], deltas: Sequence[int], chain: Chain
) -> int:
    """Modular chain profit: sum_t delta_t * p(S_t), no oracle involved."""
    horizon = len(deltas)
    if chain.horizon != horizon:
        raise ValueError(f"chain horizon {chain.horizon} != len(deltas)={horizon}")
    profit = profits.__getitem__
    try:
        return _phi_bar(deltas, [map(profit, layer) for layer in chain.layers()])
    except KeyError as exc:
        raise UnknownItemId(f"chain references unknown item id {exc.args[0]}") from None


def profit_partition(inst: Instance) -> tuple[tuple[int, frozenset], ...]:
    """Group items into (profit, ids) classes of equal profit, by increasing profit."""
    groups: dict[int, set[int]] = {}
    for it in inst.items:
        groups.setdefault(it.profit, set()).add(it.id)
    return tuple((p, frozenset(ids)) for p, ids in sorted(groups.items()))


def preprocess_singletons(inst: Instance) -> tuple[Instance, tuple[int, ...]]:
    """Drop every item whose singleton carries no profit.

    An item with gamma({i}) = 0 contributes nothing to any set (by
    submodularity), so removing it preserves the optimal value.  Any
    singleton value other than 0 or p_i breaks the all-or-nothing contract.
    Makes one oracle query per item, all through one singleton_gains() call
    (evaluate({i}) per item for oracles without a bulk answer), and checks
    the answers after it.  Returns inst itself when nothing is dropped,
    which one list compare decides.
    """
    gains = singleton_gains(inst.oracle, inst.item_ids)
    if gains == list(map(itemgetter(2), inst.items)):
        return inst, ()
    kept: list[Item] = []
    dropped: list[int] = []
    for it, g in zip(inst.items, gains):
        if g == it.profit:
            kept.append(it)
        elif g == 0:
            dropped.append(it.id)
        else:
            raise OracleViolation(
                f"gamma({{{it.id}}}) = {g}, expected 0 or p_{it.id} = {it.profit}"
            )
    return Instance(kept, inst.horizon, inst.capacities, inst.deltas, inst.oracle), tuple(dropped)
