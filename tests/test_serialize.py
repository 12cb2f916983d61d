"""JSON codecs: instance files, chain encodings, canonical dumps."""

import json
import random

import pytest

from iknap import (
    Chain,
    Instance,
    Item,
    chain_from_obj,
    chain_to_obj,
    instance_from_obj,
    instance_to_obj,
    modular_oracle,
    validate_instance,
)
from iknap.generators import FAMILIES
from iknap.serialize import dumps_canonical


class TestInstanceCodec:
    def test_round_trip_every_family(self):
        rng = random.Random(2)
        for fam in FAMILIES:
            inst = FAMILIES[fam](7, 3, rng)
            obj = instance_to_obj(inst)
            assert set(obj) == {
                "n", "T", "weights", "profits", "capacities", "deltas", "oracle"
            }
            rebuilt = instance_from_obj(obj)
            assert instance_to_obj(rebuilt) == obj
            for _ in range(20):
                s = {i for i in inst.item_ids if rng.random() < 0.5}
                assert rebuilt.oracle.evaluate(s) == inst.oracle.evaluate(s)

    @pytest.mark.parametrize("field", ["weights", "profits"])
    @pytest.mark.parametrize("raw", [2.7, True, "3"], ids=["float", "bool", "string"])
    def test_item_fields_pass_through_for_validation(self, field, raw):
        obj = instance_to_obj(FAMILIES["modular"](3, 2, random.Random(5)))
        obj[field][0] = raw
        inst = instance_from_obj(obj)
        assert getattr(inst.items[0], field[:-1]) is raw
        assert any(v.startswith("NonIntegerField") for v in validate_instance(inst))

    def test_non_contiguous_ids_rejected(self):
        inst = Instance([Item(3, 1, 1)], 1, (2,), (1,), modular_oracle({3: 1}))
        with pytest.raises(ValueError):
            instance_to_obj(inst)

    def test_canonical_dump_is_stable(self):
        rng = random.Random(3)
        inst = FAMILIES["graphic-classes"](6, 2, rng)
        text = dumps_canonical(instance_to_obj(inst))
        assert text == dumps_canonical(json.loads(text))
        assert text.endswith("\n")


class TestChainCodec:
    def test_insertion_times_align_with_items(self):
        chain = Chain(3, {1: 2, 3: 1})
        obj = chain_to_obj(chain, [1, 2, 3])
        assert obj == {"insertion_times": [2, None, 1]}
        assert chain_from_obj(obj, [1, 2, 3], 3) == chain

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            chain_from_obj({"insertion_times": [1]}, [1, 2], 1)

    def test_sets_form_passes_through_for_verification(self):
        parsed = chain_from_obj({"sets": [[1, 2], [2]]}, [1, 2], 2)
        assert parsed == [{1, 2}, {2}]

    @pytest.mark.parametrize("sets", [[[1]], [[1], [3]]], ids=["short", "unknown-id"])
    def test_sets_form_rejects_wrong_horizon_and_unknown_ids(self, sets):
        with pytest.raises(ValueError):
            chain_from_obj({"sets": sets}, [1, 2], 2)
