"""Tests for the TensorNetwork graph and contraction planning (Fig. 1)."""

import numpy as np
import pytest

from repro.errors import ShapeError
from repro.tensornet import TensorNetwork, random_tr, tr_to_tensor
from repro.tensornet.diagrams import describe_order, render_diagram


def lora_network(rng):
    net = TensorNetwork()
    net.add("A", rng.normal(size=(6, 2)), ("i", "r"))
    net.add("B", rng.normal(size=(2, 7)), ("r", "o"))
    return net


class TestConstruction:
    def test_duplicate_name_rejected(self, rng):
        net = lora_network(rng)
        with pytest.raises(ShapeError, match="already"):
            net.add("A", rng.normal(size=(2, 2)), ("x", "y"))

    def test_label_count_must_match_order(self, rng):
        net = TensorNetwork()
        with pytest.raises(ShapeError):
            net.add("T", rng.normal(size=(2, 3)), ("i",))

    def test_bond_dimension_must_agree(self, rng):
        net = TensorNetwork()
        net.add("A", rng.normal(size=(3, 4)), ("i", "r"))
        with pytest.raises(ShapeError, match="dimension"):
            net.add("B", rng.normal(size=(5, 2)), ("r", "o"))

    def test_bond_joins_at_most_two(self, rng):
        net = TensorNetwork()
        net.add("A", rng.normal(size=(2,)), ("r",))
        net.add("B", rng.normal(size=(2,)), ("r",))
        with pytest.raises(ShapeError, match="at most two"):
            net.add("C", rng.normal(size=(2,)), ("r",))

    def test_repeated_label_on_one_tensor_rejected(self, rng):
        net = TensorNetwork()
        with pytest.raises(ShapeError, match="repeats"):
            net.add("A", rng.normal(size=(2, 2)), ("r", "r"))


class TestStructure:
    def test_free_and_bond_labels(self, rng):
        net = lora_network(rng)
        assert net.free_labels() == ["i", "o"]
        assert net.bond_labels() == ["r"]

    def test_order_query(self, rng):
        net = lora_network(rng)
        assert net.order("A") == 2


class TestContraction:
    def test_lora_contracts_to_matmul(self, rng):
        net = lora_network(rng)
        a = net._tensors["A"]
        b = net._tensors["B"]
        assert np.allclose(net.contract(), a @ b)

    def test_schedule_matches_one_shot(self, rng):
        tr = random_tr((3, 4, 5), 2, rng)
        net = TensorNetwork()
        net.add("G1", tr.cores[0], ("r0", "i", "r1"))
        net.add("G2", tr.cores[1], ("r1", "j", "r2"))
        net.add("G3", tr.cores[2], ("r2", "k", "r0"))
        one_shot = net.contract()
        stepwise, schedule = net.contract_with_schedule()
        assert np.allclose(one_shot, stepwise)
        assert len(schedule) == 2
        assert np.allclose(one_shot, tr_to_tensor(tr))

    def test_greedy_prefers_small_intermediates(self, rng):
        # Chain a(i,r) - b(r,s) - c(s,j) with huge j: greedy must contract
        # a-b first (small result) rather than b-c (huge result).
        net = TensorNetwork()
        net.add("a", rng.normal(size=(2, 3)), ("i", "r"))
        net.add("b", rng.normal(size=(3, 4)), ("r", "s"))
        net.add("c", rng.normal(size=(4, 500)), ("s", "j"))
        schedule = net.greedy_schedule()
        assert {schedule[0].left, schedule[0].right} == {"a", "b"}

    def test_disconnected_network_outer_product(self, rng):
        net = TensorNetwork()
        net.add("u", rng.normal(size=3), ("i",))
        net.add("v", rng.normal(size=4), ("j",))
        u, v = net._tensors["u"], net._tensors["v"]
        assert np.allclose(net.contract(), np.outer(u, v))
        stepwise, __ = net.contract_with_schedule()
        assert np.allclose(stepwise, np.outer(u, v))

    def test_empty_network_raises(self):
        with pytest.raises(ShapeError):
            TensorNetwork().contract()

    def test_scalar_result(self, rng):
        net = TensorNetwork()
        net.add("u", rng.normal(size=5), ("i",))
        net.add("v", rng.normal(size=5), ("i",))
        u, v = net._tensors["u"], net._tensors["v"]
        assert net.contract() == pytest.approx(u @ v)


class TestDiagrams:
    def test_render_mentions_bonds_and_free_legs(self, rng):
        text = render_diagram(lora_network(rng))
        assert "A ──r(2)── B" in text
        assert "──i(6)──○" in text

    def test_describe_order_fig1_roles(self, rng):
        net = TensorNetwork()
        net.add("v", rng.normal(size=3), ("i",))
        net.add("M", rng.normal(size=(3, 4)), ("i", "j"))
        net.add("T", rng.normal(size=(4, 2, 2)), ("j", "k", "l"))
        roles = describe_order(net)
        assert roles["v"].startswith("vector")
        assert roles["M"].startswith("matrix")
        assert "3th-order" in roles["T"]
