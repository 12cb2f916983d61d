"""JSON codecs for instances, chains, and solve reports.

Instance files require item ids 1..n so the parallel arrays are
unambiguous; chains serialize as one (1-based) insertion time or null per
item, in instance order.  Dumps are canonical (sorted keys, fixed
indentation, trailing newline) so identical inputs produce byte-identical
files: byte for byte what json.dumps(obj, indent=2, sort_keys=True) writes,
but written through json's C encoder, which indent=2 would bypass.
"""

from __future__ import annotations

import json
from functools import lru_cache
from itertools import repeat
from json.encoder import encode_basestring_ascii
from typing import Sequence

from .instances import Chain, Instance, Item
from .modularize import SolveReport
from .oracles import _integer, _integers, oracle_from_descriptor


#: Types json's C encoder writes as the indent=2 encoder does.
_SCALARS = frozenset({str, int, float, bool, type(None)})


def dumps_canonical(obj) -> str:
    """json.dumps(obj, indent=2, sort_keys=True) plus a newline, byte for byte.

    indent=2 sends json.dumps to its pure-Python encoder.  Here dicts and
    lists are laid out in Python, and each scalar, and each list of
    scalars, is written by one call to the C encoder; the encoder for a
    list at one indent is built once.
    """
    parts: list[str] = []
    _dump(obj, "\n", parts)
    parts.append("\n")
    return "".join(parts)


def _dump(obj, newline: str, parts: list[str]) -> None:
    """Append obj as indent=2 writes it where newline starts its lines."""
    if isinstance(obj, dict):
        if not obj:
            parts.append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key, value in sorted(obj.items()):
            key = key if isinstance(key, str) else _key(key)
            parts.append(sep + encode_basestring_ascii(key) + ": ")
            _dump(value, inner, parts)
            sep = "," + inner
        parts.append(newline + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            parts.append("[]")
            return
        inner = newline + "  "
        if {*map(type, obj)} <= _SCALARS:
            text = _list_encoder(inner)(obj)
            parts.append("[" + inner + text[1:-1] + newline + "]")
            return
        sep = "[" + inner
        for value in obj:
            parts.append(sep)
            _dump(value, inner, parts)
            sep = "," + inner
        parts.append(newline + "]")
    else:
        parts.append(json.dumps(obj))


@lru_cache(maxsize=None)
def _list_encoder(inner: str):
    """json.dumps(values, separators=("," + inner, ": ")), built once per nesting depth."""
    return json.JSONEncoder(separators=("," + inner, ": ")).encode


def _key(key) -> str:
    """A non-string dict key as json writes it: the number, true, false or null."""
    if key is None or isinstance(key, (int, float)):
        return json.dumps(key)
    raise TypeError(f"keys must be str, int, float, bool or None, not {key.__class__.__name__}")


def instance_to_obj(inst: Instance) -> dict:
    ids = list(inst.item_ids)
    if ids != list(range(1, len(ids) + 1)):
        raise ValueError("only instances with contiguous ids 1..n can be serialized")
    return {
        "n": len(ids),
        "T": inst.horizon,
        "weights": [it.weight for it in inst.items],
        "profits": [it.profit for it in inst.items],
        "capacities": list(inst.capacities),
        "deltas": list(inst.deltas),
        "oracle": inst.oracle.descriptor,
    }


def instance_from_obj(obj: dict) -> Instance:
    """Decode an instance; item fields pass through uncoerced for validation.

    Only a modular oracle reads the lazy (id, profit) pairs it is handed.
    """
    n = _integer(obj["n"], "n")
    weights = obj["weights"]
    profits = obj["profits"]
    if len(weights) != n or len(profits) != n:
        raise ValueError(f"weights/profits arrays must have length n={n}")
    # tuple.__new__ builds each Item in C, where Item() runs a Python __new__.
    items = list(map(tuple.__new__, repeat(Item), zip(range(1, n + 1), weights, profits)))
    oracle = oracle_from_descriptor(obj["oracle"], zip(range(1, n + 1), profits))
    horizon = _integer(obj["T"], "T")
    return Instance(items, horizon, obj["capacities"], obj["deltas"], oracle)


def save_instance(inst: Instance, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_canonical(instance_to_obj(inst)))


def _load_json(path):
    """The JSON value in the file at path; nesting too deep to decode is a ValueError."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise ValueError(f"{path}: JSON nested too deeply to decode") from None


def load_instance(path) -> Instance:
    return instance_from_obj(_load_json(path))


def chain_to_obj(chain: Chain, item_ids: Sequence[int]) -> dict:
    times = chain.times
    return {"insertion_times": [times.get(i) for i in item_ids]}


def chain_from_obj(obj: dict, item_ids: Sequence[int], horizon: int):
    """Parse a chain; the explicit "sets" form is accepted for verification.

    Returns a Chain for the insertion-time form, or the raw list of sets
    for the "sets" form (which may be non-nested; verify_solution will
    diagnose that).
    """
    if "sets" in obj:
        sets = [{_integer(i, "chain item id") for i in s} for s in obj["sets"]]
        if len(sets) != horizon:
            raise ValueError(f"sets has {len(sets)} entries for T={horizon}")
        unknown = set().union(*sets) - set(item_ids)
        if unknown:
            raise ValueError(f"sets reference unknown item ids {sorted(unknown)}")
        return sets
    raw = obj["insertion_times"]
    if len(raw) != len(item_ids):
        raise ValueError(
            f"insertion_times has {len(raw)} entries for {len(item_ids)} items"
        )
    times = {i: t for i, t in zip(item_ids, raw) if t is not None}
    return Chain(horizon, times)


def report_to_obj(report: SolveReport, item_ids: Sequence[int]) -> dict:
    return {
        "phi": report.phi,
        "phi_bar": report.phi_bar,
        "oracle_calls": report.oracle_calls,
        "kept_items": list(report.kept_items),
        "chain": chain_to_obj(report.chain, item_ids),
        "solver": report.solver,
        "elapsed_ms": report.elapsed_ms,
    }


def load_report(path, item_ids: Sequence[int], horizon: int) -> tuple[Chain, int, int]:
    """The (chain, phi, phi_bar) a report file claims, each checked.

    Raises on the first of: no object, a kept_items (which may be missing)
    that is not a list of integers, then a missing or malformed chain (as
    chain_from_obj parses it), phi and phi_bar.  Other keys are not read.
    """
    obj = _load_json(path)
    if not isinstance(obj, dict):
        raise ValueError(f"report must be an object, got {type(obj).__name__}")
    kept = obj.get("kept_items", [])
    if not isinstance(kept, list):
        raise ValueError(f"kept_items must be a list, got {type(kept).__name__}")
    _integers(kept, "kept item id")
    chain = chain_from_obj(obj["chain"], item_ids, horizon)
    return chain, _integer(obj["phi"], "phi"), _integer(obj["phi_bar"], "phi_bar")
