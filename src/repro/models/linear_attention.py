"""Linear (SGFormer-style) global attention — Eqs. (8)-(9) of the paper.

All-pair attention over the ``N`` variable nodes at O(N·d²) cost instead
of the quadratic O(N²·d) of softmax attention:

    Q = f_Q(Z),  K = f_K(Z),  V = f_V(Z)
    Q̃ = Q / ‖Q‖_F,   K̃ = K / ‖K‖_F
    D = diag(1 + (1/N) · Q̃ (K̃ᵀ 1))
    LinearAttn(Z) = D⁻¹ [ V + (1/N) · Q̃ (K̃ᵀ V) ]

The trick: ``K̃ᵀ V`` and ``K̃ᵀ 1`` are d×d and d×1 reductions computed
once, so no N×N matrix ever materializes.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.nn.layers import Linear, Module
from repro.nn.tensor import Tensor, concat_rows


class LinearAttention(Module):
    """The linear global-attention unit applied to variable-node features.

    ``forward`` runs attention over *all* rows as one graph.  For a
    disjoint batch of graphs, pass ``segments``/``counts``: each member's
    rows must be contiguous and in member order (as
    :class:`~repro.graph.batching.BatchedBipartiteGraph` lays them out).
    Q/K/V are then computed once over all rows and Eq. (8)-(9) runs on
    each member's row range, so graphs never attend to each other.
    """

    def __init__(self, dim: int, rng: Optional[np.random.Generator] = None):
        rng = rng or np.random.default_rng(0)
        self.f_q = Linear(dim, dim, rng=rng)
        self.f_k = Linear(dim, dim, rng=rng)
        self.f_v = Linear(dim, dim, rng=rng)
        self.eps = 1e-12

    def forward(
        self,
        z: Tensor,
        segments: Optional[np.ndarray] = None,
        counts: Optional[np.ndarray] = None,
    ) -> Tensor:
        q = self.f_q(z)
        k = self.f_k(z)
        v = self.f_v(z)
        if segments is None:
            return self._attend(q, k, v)
        bounds = _member_bounds(segments, counts, z.shape[0])
        return concat_rows([
            self._attend(q[start:stop], k[start:stop], v[start:stop])
            for start, stop in zip(bounds[:-1], bounds[1:])
        ])

    def _attend(self, q: Tensor, k: Tensor, v: Tensor) -> Tensor:
        """Eq. (8)-(9) over the rows of one graph."""
        n = float(max(q.shape[0], 1))  # an empty graph has no rows to scale
        q_norm = ((q * q).sum() + self.eps).sqrt()
        k_norm = ((k * k).sum() + self.eps).sqrt()
        q_tilde = q / q_norm
        k_tilde = k / k_norm

        # K̃ᵀ 1 — column sums of K̃, shape (d,); K̃ᵀ V — shape (d, d).
        kt_one = k_tilde.sum(axis=0)
        kt_v = k_tilde.T @ v

        # D entries: 1 + (1/N) Q̃ (K̃ᵀ 1), shape (N,).
        d_vec = (q_tilde @ kt_one.reshape(-1, 1)) * (1.0 / n) + 1.0

        numerator = v + (q_tilde @ kt_v) * (1.0 / n)
        return numerator / d_vec  # row-wise D⁻¹


def _member_bounds(
    segments: np.ndarray, counts: Optional[np.ndarray], num_rows: int
) -> np.ndarray:
    """Row offsets ``[0, c0, c0+c1, ...]`` of the members, after checking
    that ``segments`` lists each member's rows contiguously, in order, and
    ``counts`` times over."""
    if counts is None:
        raise ValueError("segmented attention needs per-segment counts")
    sizes = np.asarray(counts)
    if sizes.ndim != 1 or np.any(sizes < 0) or np.any(sizes != np.round(sizes)):
        raise ValueError("segment counts must be a 1-D array of non-negative integers")
    sizes = sizes.astype(np.int64)
    expected = np.repeat(np.arange(len(sizes)), sizes)
    if len(expected) != num_rows or not np.array_equal(segments, expected):
        raise ValueError(
            "segments must list each member's rows contiguously and in order, "
            "matching counts and the number of rows"
        )
    return np.concatenate([[0], np.cumsum(sizes)])
