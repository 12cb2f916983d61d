"""Property-based invariants over randomly shaped instances and chains."""

from hypothesis import given, settings
from hypothesis import strategies as st

from iknap import (
    Chain,
    Instance,
    Item,
    is_feasible,
    modular_oracle,
    profit_phi,
    profit_phi_bar,
    solve_exact,
    brute_force_chains,
)


@st.composite
def chains(draw, max_n=10, max_t=4):
    n = draw(st.integers(0, max_n))
    horizon = draw(st.integers(1, max_t))
    times = {
        i: draw(st.integers(1, horizon))
        for i in range(1, n + 1)
        if draw(st.booleans())
    }
    return Chain(horizon, times)


@st.composite
def modular_instances(draw, max_n=8, max_t=3):
    n = draw(st.integers(0, max_n))
    horizon = draw(st.integers(1, max_t))
    items = [
        Item(i, draw(st.integers(0, 9)), draw(st.integers(1, 9)))
        for i in range(1, n + 1)
    ]
    caps = sorted(draw(st.integers(0, 30)) for _ in range(horizon))
    deltas = [draw(st.integers(0, 3)) for _ in range(horizon)]
    oracle = modular_oracle({it.id: it.profit for it in items})
    return Instance(items, horizon, caps, deltas, oracle)


@settings(max_examples=80, deadline=None)
@given(chains())
def test_chain_set_view_round_trips(chain):
    assert Chain.from_sets(chain.sets()) == chain


@settings(max_examples=80, deadline=None)
@given(modular_instances(), st.randoms(use_true_random=False))
def test_feasibility_monotone_under_capacity_increase(inst, rng):
    times = {i: rng.randint(1, inst.horizon) for i in inst.item_ids if rng.random() < 0.5}
    chain = Chain(inst.horizon, times)
    if not is_feasible(inst, chain):
        return
    bumped, prev = [], 0
    for w in inst.capacities:
        prev = max(prev, w + rng.randint(0, 5))
        bumped.append(prev)
    wider = Instance(inst.items, inst.horizon, bumped, inst.deltas, inst.oracle)
    assert is_feasible(wider, chain)


@settings(max_examples=80, deadline=None)
@given(modular_instances(), st.randoms(use_true_random=False))
def test_phi_equals_phi_bar_under_modular_oracle(inst, rng):
    times = {i: rng.randint(1, inst.horizon) for i in inst.item_ids if rng.random() < 0.6}
    chain = Chain(inst.horizon, times)
    assert profit_phi(inst, chain) == profit_phi_bar(
        inst.profits_by_id, inst.deltas, chain
    )


@settings(max_examples=60, deadline=None)
@given(modular_instances(max_n=7))
def test_exact_solver_agrees_with_enumeration(inst):
    oracle = modular_oracle(inst.profits_by_id)
    ik = Instance(inst.items, inst.horizon, inst.capacities, inst.deltas, oracle)
    assert solve_exact(ik).value == brute_force_chains(ik)[0]
