"""Unit tests for the tree network (experiment F8)."""

import numpy as np
import pytest

from repro.xisort import NodeValue, TreeNetwork, fold_reduce, tree_depth, tree_node_count


class TestFoldReduce:
    def test_count(self):
        sel = [True, False, True, True]
        assert fold_reduce(sel, [1, 2, 3, 4]).count == 3

    def test_leftmost(self):
        assert fold_reduce([False, True, True], [9, 8, 7]).leftmost == 1
        assert fold_reduce([False, False], [1, 2]).leftmost is None

    def test_single_selected_retrieval(self):
        v = fold_reduce([False, True, False], [10, 20, 30])
        assert v.any_value == 20

    def test_empty_leaves(self):
        v = fold_reduce([], [])
        assert v.count == 0 and v.leftmost is None

    def test_non_power_of_two(self):
        sel = [True] * 5
        assert fold_reduce(sel, list(range(5))).count == 5

    def test_operator_associativity(self):
        a = NodeValue.leaf(0, True, 3)
        b = NodeValue.leaf(1, False, 0)
        c = NodeValue.leaf(2, True, 5)
        left = a.combine(b).combine(c)
        right = a.combine(b.combine(c))
        assert left == right


class TestTreeNetwork:
    def test_matches_fold(self):
        rng = np.random.default_rng(3)
        for n in (1, 2, 7, 16, 33):
            sel = rng.random(n) < 0.4
            data = rng.integers(0, 1000, n).astype(np.uint64)
            tree = TreeNetwork(n)
            folded = fold_reduce(list(sel), list(int(d) for d in data))
            assert tree.count(sel) == folded.count
            assert tree.leftmost(sel) == folded.leftmost

    def test_selected_value_unique(self):
        tree = TreeNetwork(4)
        sel = np.array([False, False, True, False])
        data = np.array([1, 2, 42, 4], dtype=np.uint64)
        assert tree.selected_value(sel, data) == 42

    def test_selected_value_none_selected(self):
        tree = TreeNetwork(4)
        assert tree.selected_value(np.zeros(4, bool), np.zeros(4, np.uint64)) == 0

    @pytest.mark.parametrize("dtype", [np.uint8, np.uint16, np.uint32, np.uint64])
    def test_selected_value_matches_fold_in_every_lane(self, dtype):
        top = int(np.iinfo(dtype).max)  # all-ones word: 2**64 - 1 on uint64
        rng = np.random.default_rng(5)
        n = 256
        data = rng.integers(0, top, n, dtype=dtype, endpoint=True)
        data[[0, 100, n - 1]] = top
        tree = TreeNetwork(n)
        one = np.zeros(n, bool)
        one[100] = True
        for sel in (np.zeros(n, bool), one, np.ones(n, bool), rng.random(n) < 0.3):
            expected = fold_reduce(list(sel), [int(d) for d in data]).any_value
            assert tree.selected_value(sel, data) == expected
        assert tree.selected_value(one, data) == top

    def test_validation(self):
        with pytest.raises(ValueError):
            TreeNetwork(0)


class TestGeometry:
    """The logarithmic-delay / linear-area structure of the tree (Fig. 8)."""

    @pytest.mark.parametrize("n,depth", [(1, 0), (2, 1), (4, 2), (5, 3), (64, 6), (100, 7)])
    def test_depth_is_log(self, n, depth):
        assert tree_depth(n) == depth

    @pytest.mark.parametrize("n", [1, 2, 8, 100])
    def test_node_count_is_linear(self, n):
        assert tree_node_count(n) == max(0, n - 1)

    def test_depth_grows_slower_than_nodes(self):
        # doubling leaves adds one level but doubles nodes
        assert tree_depth(256) == tree_depth(128) + 1
        assert tree_node_count(256) == 2 * tree_node_count(128) + 1
