"""The tree network over the cell array (paper Fig. 8 / thesis Fig. 3.9).

"A logarithmic height tree is used to compute the count of SIMD cells whose
selection flag register is set and to select a pivot element having an
imprecise interval ... Besides this the tree is able to retrieve a single
data value from the array of SIMD cells assuming that only a single
selection flag is set."

The interior nodes carry no persistent state — they are combinational folds
over associative operators, so every tree operation completes within one
clock period at a gate depth of ⌈log₂ n⌉ (which is what bounds the clock in
the area/timing model).  Two implementations:

* :class:`TreeNetwork` — vectorised NumPy reductions (the fast model);
* :func:`fold_reduce` — an explicit node-by-node binary fold used to verify
  the vectorised results and to count nodes/depth for the area model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np


@dataclass(frozen=True)
class NodeValue:
    """The value combined upward through one tree node.

    ``count``     — number of selected cells in the subtree;
    ``leftmost``  — index of the leftmost selected cell (or None);
    ``any_value`` — OR-combined data of selected cells (equals the datum of
    the unique selected cell when exactly one is selected — the retrieval
    trick the thesis uses).
    """

    count: int
    leftmost: Optional[int]
    any_value: int

    @staticmethod
    def leaf(index: int, selected: bool, data: int) -> "NodeValue":
        if selected:
            return NodeValue(1, index, data)
        return NodeValue(0, None, 0)

    def combine(self, right: "NodeValue") -> "NodeValue":
        """The associative operator of the interior node circuit."""
        return NodeValue(
            count=self.count + right.count,
            leftmost=self.leftmost if self.leftmost is not None else right.leftmost,
            any_value=self.any_value | right.any_value,
        )


def fold_reduce(selected: Sequence[bool], data: Sequence[int]) -> NodeValue:
    """Explicit binary-tree fold (structural model of the node network)."""
    leaves = [
        NodeValue.leaf(i, bool(s), int(d)) for i, (s, d) in enumerate(zip(selected, data))
    ]
    if not leaves:
        return NodeValue(0, None, 0)
    level = leaves
    while len(level) > 1:
        nxt = []
        for i in range(0, len(level) - 1, 2):
            nxt.append(level[i].combine(level[i + 1]))
        if len(level) % 2:
            nxt.append(level[-1])
        level = nxt
    return level[0]


def tree_depth(n_leaves: int) -> int:
    """Gate levels of the fold — ⌈log₂ n⌉ (timing-model input)."""
    if n_leaves <= 1:
        return 0
    return int(np.ceil(np.log2(n_leaves)))


def tree_node_count(n_leaves: int) -> int:
    """Interior nodes of a full binary fold over n leaves (area-model input)."""
    return max(0, n_leaves - 1)


class TreeNetwork:
    """Vectorised tree reductions over array state (the hot path).

    Operates directly on the NumPy state arrays of the cell array; each
    method corresponds to one output port of the tree in Fig. 3.9.
    """

    def __init__(self, n_leaves: int):
        if n_leaves < 1:
            raise ValueError("tree needs at least one leaf")
        self.n_leaves = n_leaves
        self.depth = tree_depth(n_leaves)
        self.node_count = tree_node_count(n_leaves)

    def count(self, selected: np.ndarray) -> int:
        """Flag count output."""
        return int(np.count_nonzero(selected))

    def leftmost(self, selected: np.ndarray) -> Optional[int]:
        """Index of the leftmost selected cell (pivot selection)."""
        idx = np.argmax(selected) if selected.any() else -1
        return int(idx) if idx >= 0 else None

    def selected_value(self, selected: np.ndarray, data: np.ndarray) -> int:
        """Single-cell retrieval: OR over selected data (unique ⇒ exact).

        Reduced in the data's own unsigned lane, exact up to uint64."""
        return int(np.bitwise_or.reduce(data, where=selected, initial=0))
