"""Parallel BAS tree partitioning (Fig. 5 / Sec. 3.3).

Every rank runs the serial BAS with the *same* seed for the first k steps
(k chosen dynamically: the first step whose layer holds more than N_u^*
unique prefixes), then the layer-k nodes are split into N_p contiguous,
equal-sized runs — balanced by *node count*, not by sample weight.

This departs from the paper's heuristic of balancing the sample counts.
Everything after the split (the subtree continuation, the taped forward,
E_loc and the backward) costs per *unique* row, and a heavy node can yield a
single leaf: on N2/STO-3G the HF prefix alone holds ~47% of the weight, so a
weight cut at N_u^* = 64 gave the two ranks [1, 1325] leaves, while the
node-count cut gives [543, 783].
"""
from __future__ import annotations

import numpy as np

from repro.core.sampler import BASTreeState

__all__ = ["split_tree_state"]


def split_tree_state(state: BASTreeState, n_parts: int) -> list[BASTreeState]:
    """Assign the layer-k nodes of a BAS tree to ``n_parts`` ranks.

    Part ``r`` gets the ``r``-th contiguous run of ``np.array_split`` over the
    P nodes, so part sizes differ by at most one and every part is non-empty
    whenever P >= ``n_parts``.  The inference session's KV-cache rows (when
    the state carries one) are gathered alongside the node arrays, so each
    rank continues its subtree without re-running the shared first k steps.
    """
    return [
        BASTreeState(
            prefixes=state.prefixes[idx],
            weights=state.weights[idx],
            counts_up=state.counts_up[idx],
            counts_dn=state.counts_dn[idx],
            step=state.step,
            session=state.session.select(idx) if state.session is not None else None,
        )
        for idx in np.array_split(np.arange(len(state.weights)), n_parts)
    ]
