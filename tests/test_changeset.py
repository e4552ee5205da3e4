"""ChangeSet semantics: normalization, coalescing, two-phase validation.

The unified §5.4 pipeline promises that a changeset is (a) canonical —
one delta per edge, endpoints ordered, deltas sorted — (b) the *net
effect* of the input sequence, and (c) rejected as a whole, before any
mutation, on the first structural or network-level problem.  These are
the contracts every ``apply_updates`` implementation and the serving
update log lean on, so they get their own battery.
"""

from __future__ import annotations

import math

import pytest

from repro.core.changeset import (
    ApplyResult,
    ChangeSet,
    EdgeDelta,
    apply_changeset_to_network,
    as_changeset,
)
from repro.errors import DatasetError, QueryError
from repro.network import grid_network


@pytest.fixture()
def network():
    return grid_network(5, 5)


# ----------------------------------------------------------------------
# normalization
# ----------------------------------------------------------------------
class TestNormalization:
    def test_canonical_endpoint_order(self):
        changeset = ChangeSet.build([("set_weight", 9, 2, 3.0)])
        (delta,) = changeset
        assert (delta.u, delta.v) == (2, 9)
        assert delta.edge == (2, 9)

    def test_three_tuples_are_removes_only(self):
        changeset = ChangeSet.build([("remove", 1, 2)])
        assert changeset.as_tuples() == (("remove", 1, 2, None),)
        with pytest.raises(QueryError):
            ChangeSet.build([("add", 1, 2)])

    def test_remove_discards_weight(self):
        changeset = ChangeSet.build([("remove", 1, 2, 99.0)])
        (delta,) = changeset
        assert delta.weight is None

    def test_edge_delta_instances_pass_through(self):
        changeset = ChangeSet.build([EdgeDelta("add", 3, 1, 2.0)])
        assert changeset.as_tuples() == (("add", 1, 3, 2.0),)

    @pytest.mark.parametrize(
        "item",
        [
            ("teleport", 0, 1, 2.0),  # unknown op
            ("add", 4, 4, 1.0),  # self-loop
            ("add", 0, 1),  # missing weight
            ("set_weight", 0, 1, None),  # missing weight
            ("add", 0, 1, 0.0),  # non-positive
            ("add", 0, 1, -2.0),
            ("add", 0, 1, math.inf),  # non-finite
            ("add", 0, 1, math.nan),
            ("add", 0, 1, 2.0, 5),  # wrong arity
        ],
    )
    def test_structural_errors_are_query_errors(self, item):
        with pytest.raises(QueryError):
            ChangeSet.build([item])

    def test_query_error_is_a_value_error(self):
        # HTTP handlers map ValueError → 400; the taxonomy relies on it.
        with pytest.raises(ValueError):
            ChangeSet.build([("nope", 0, 1, 2.0)])


# ----------------------------------------------------------------------
# coalescing
# ----------------------------------------------------------------------
class TestCoalescing:
    def test_add_then_set_weight_is_add_at_final_weight(self):
        changeset = ChangeSet.build(
            [("add", 0, 1, 2.0), ("set_weight", 0, 1, 7.0)]
        )
        assert changeset.as_tuples() == (("add", 0, 1, 7.0),)

    def test_add_then_remove_cancels(self):
        changeset = ChangeSet.build([("add", 0, 1, 2.0), ("remove", 0, 1)])
        assert len(changeset) == 0
        assert not changeset

    def test_set_weight_last_wins(self):
        changeset = ChangeSet.build(
            [("set_weight", 0, 1, 2.0), ("set_weight", 1, 0, 5.0)]
        )
        assert changeset.as_tuples() == (("set_weight", 0, 1, 5.0),)

    def test_set_weight_then_remove_is_remove(self):
        changeset = ChangeSet.build(
            [("set_weight", 0, 1, 2.0), ("remove", 0, 1)]
        )
        assert changeset.as_tuples() == (("remove", 0, 1, None),)

    def test_remove_then_add_is_set_weight(self):
        # Net state: the edge exists at the new weight.
        changeset = ChangeSet.build([("remove", 0, 1), ("add", 0, 1, 4.0)])
        assert changeset.as_tuples() == (("set_weight", 0, 1, 4.0),)

    @pytest.mark.parametrize(
        "sequence",
        [
            [("add", 0, 1, 2.0), ("add", 0, 1, 3.0)],
            [("set_weight", 0, 1, 2.0), ("add", 0, 1, 3.0)],
            [("remove", 0, 1), ("remove", 0, 1)],
            [("remove", 0, 1), ("set_weight", 0, 1, 3.0)],
        ],
    )
    def test_inconsistent_sequences_are_rejected(self, sequence):
        with pytest.raises(QueryError):
            ChangeSet.build(sequence)

    def test_deltas_sorted_by_edge(self):
        changeset = ChangeSet.build(
            [
                ("set_weight", 9, 8, 1.0),
                ("set_weight", 0, 3, 1.0),
                ("set_weight", 2, 0, 1.0),
            ]
        )
        assert changeset.edges() == [(0, 2), (0, 3), (8, 9)]

    def test_touched_nodes(self):
        changeset = ChangeSet.build(
            [("set_weight", 3, 0, 1.0), ("remove", 3, 4)]
        )
        assert changeset.touched_nodes() == {0, 3, 4}


# ----------------------------------------------------------------------
# validation against a network
# ----------------------------------------------------------------------
class TestNetworkValidation:
    def test_valid_changeset_passes(self, network):
        # grid_network(5, 5): node i, i+1 adjacent within a row.
        ChangeSet.build([("set_weight", 0, 1, 2.0)]).validate(network)

    def test_unknown_node(self, network):
        changeset = ChangeSet.build([("set_weight", 0, 999, 2.0)])
        with pytest.raises(DatasetError):
            changeset.validate(network)

    def test_add_existing_edge(self, network):
        changeset = ChangeSet.build([("add", 0, 1, 2.0)])
        with pytest.raises(DatasetError):
            changeset.validate(network)

    def test_remove_missing_edge(self, network):
        changeset = ChangeSet.build([("remove", 0, 24)])
        with pytest.raises(DatasetError):
            changeset.validate(network)

    def test_set_weight_missing_edge(self, network):
        changeset = ChangeSet.build([("set_weight", 0, 24, 2.0)])
        with pytest.raises(DatasetError):
            changeset.validate(network)

    def test_validate_mutates_nothing(self, network):
        before = sorted((e.u, e.v, e.weight) for e in network.edges())
        with pytest.raises(DatasetError):
            ChangeSet.build(
                [("set_weight", 0, 1, 9.0), ("remove", 0, 24)]
            ).validate(network)
        after = sorted((e.u, e.v, e.weight) for e in network.edges())
        assert before == after


# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------
class TestHelpers:
    def test_as_changeset_coerces_and_passes_through(self):
        changeset = as_changeset([("set_weight", 0, 1, 2.0)])
        assert isinstance(changeset, ChangeSet)
        assert as_changeset(changeset) is changeset

    def test_apply_changeset_to_network(self, network):
        changeset = ChangeSet.build(
            [("set_weight", 0, 1, 42.0), ("remove", 1, 2), ("add", 0, 24, 7.0)]
        )
        changeset.validate(network)
        apply_changeset_to_network(network, changeset)
        assert network.edge_weight(0, 1) == 42.0
        assert not network.has_edge(1, 2)
        assert network.edge_weight(0, 24) == 7.0

    def test_apply_result_bump(self):
        result = ApplyResult(applied=2)
        result.bump("repaired")
        result.bump("repaired")
        result.bump("rebuilt", 3)
        assert result.applied == 2
        assert result.counters == {"repaired": 2, "rebuilt": 3}
