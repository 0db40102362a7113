"""Tests for graph batching and segmented linear attention."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cnf import CNF, random_ksat
from repro.graph import BatchedBipartiteGraph, BipartiteGraph, batch_graphs
from repro.models import LinearAttention, NeuroSelect
from repro.nn import Adam, Tensor, bce_with_logits

RNG = np.random.default_rng(3)


def graphs_of_sizes(*sizes, seed=0):
    return [
        BipartiteGraph(random_ksat(n, 3 * n, seed=seed + i))
        for i, n in enumerate(sizes)
    ]


class TestBatchedBipartiteGraph:
    def test_counts_are_sums(self):
        graphs = graphs_of_sizes(5, 8, 13)
        batch = batch_graphs(graphs)
        assert batch.num_vars == 26
        assert batch.num_clauses == sum(g.num_clauses for g in graphs)
        assert batch.num_edges == sum(g.num_edges for g in graphs)
        assert batch.num_graphs == 3

    def test_edges_offset_into_member_ranges(self):
        graphs = graphs_of_sizes(5, 8)
        batch = batch_graphs(graphs)
        # Second member's edges reference variables 5..12 (0-based).
        second = slice(graphs[0].num_edges, None)
        assert batch.edge_var[second].min() >= 5
        assert batch.edge_var[second].max() < 13

    def test_graph_index_segments(self):
        batch = batch_graphs(graphs_of_sizes(4, 6))
        assert list(batch.var_graph_index[:4]) == [0] * 4
        assert list(batch.var_graph_index[4:]) == [1] * 6
        assert list(batch.var_counts) == [4.0, 6.0]

    def test_var_slice(self):
        batch = batch_graphs(graphs_of_sizes(4, 6))
        assert batch.var_slice(1) == slice(4, 10)

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            BatchedBipartiteGraph([])

    def test_edges_never_cross_members(self):
        batch = batch_graphs(graphs_of_sizes(4, 6, 5))
        for var_idx, clause_idx in zip(batch.edge_var, batch.edge_clause):
            assert (
                batch.var_graph_index[var_idx]
                == batch.clause_graph_index[clause_idx]
            )


class TestSegmentedLinearAttention:
    def test_matches_per_segment_plain_attention(self):
        attn = LinearAttention(dim=6, rng=np.random.default_rng(1))
        z1 = RNG.normal(size=(5, 6))
        z2 = RNG.normal(size=(9, 6))
        merged = np.vstack([z1, z2])
        segments = np.array([0] * 5 + [1] * 9)
        counts = np.array([5.0, 9.0])

        batched = attn(Tensor(merged), segments=segments, counts=counts).data
        expect1 = attn(Tensor(z1)).data
        expect2 = attn(Tensor(z2)).data
        np.testing.assert_allclose(batched[:5], expect1, atol=1e-12)
        np.testing.assert_allclose(batched[5:], expect2, atol=1e-12)

    def test_segments_do_not_leak(self):
        """Changing one segment's rows must not change the other's output."""
        attn = LinearAttention(dim=4, rng=np.random.default_rng(2))
        z1 = RNG.normal(size=(4, 4))
        z2a = RNG.normal(size=(6, 4))
        z2b = RNG.normal(size=(6, 4))
        segments = np.array([0] * 4 + [1] * 6)
        counts = np.array([4.0, 6.0])
        out_a = attn(Tensor(np.vstack([z1, z2a])), segments=segments, counts=counts)
        out_b = attn(Tensor(np.vstack([z1, z2b])), segments=segments, counts=counts)
        np.testing.assert_allclose(out_a.data[:4], out_b.data[:4], atol=1e-12)

    def test_counts_required(self):
        attn = LinearAttention(dim=4)
        with pytest.raises(ValueError):
            attn(Tensor(RNG.normal(size=(3, 4))), segments=np.zeros(3, dtype=np.int64))

    @pytest.mark.parametrize(
        "segments, counts",
        [
            ([1, 1, 1, 0, 0, 0, 0], [3.0, 4.0]),  # members out of order
            ([0, 0, 1, 1, 0, 1, 1], [3.0, 4.0]),  # member 0 not contiguous
            ([0, 0, 0, 1, 1, 1, 1], [4.0, 3.0]),  # counts disagree with segments
            ([0, 0, 0, 1, 1, 1, 1], [3.0, 3.0]),  # counts miss a row
            ([0, 0, 0, 1, 1, 1], [3.0, 3.0]),  # segments miss a row
            ([0, 0, 0, 1, 1, 1, 1], [3.0, 4.0, 1.0]),  # count for a member with no rows
            ([0, 0, 0, 1, 1, 1, 1], [3.5, 3.5]),  # fractional counts
        ],
    )
    def test_non_contiguous_or_mismatched_segments_rejected(self, segments, counts):
        """Per-member attention reads each member as one contiguous row range."""
        attn = LinearAttention(dim=4)
        with pytest.raises(ValueError):
            attn(
                Tensor(RNG.normal(size=(7, 4))),
                segments=np.array(segments),
                counts=np.array(counts),
            )

    def test_empty_member_leaves_others_unchanged(self):
        attn = LinearAttention(dim=4, rng=np.random.default_rng(5))
        z1 = RNG.normal(size=(3, 4))
        z2 = RNG.normal(size=(2, 4))
        out = attn(
            Tensor(np.vstack([z1, z2])),
            segments=np.array([0, 0, 0, 2, 2]),
            counts=np.array([3.0, 0.0, 2.0]),
        ).data
        np.testing.assert_allclose(out[:3], attn(Tensor(z1)).data, atol=1e-12)
        np.testing.assert_allclose(out[3:], attn(Tensor(z2)).data, atol=1e-12)

    def test_gradients_flow_through_segmented_path(self):
        attn = LinearAttention(dim=4, rng=np.random.default_rng(0))
        z = Tensor(RNG.normal(size=(7, 4)), requires_grad=True)
        segments = np.array([0, 0, 0, 1, 1, 1, 1])
        out = attn(z, segments=segments, counts=np.array([3.0, 4.0]))
        out.sum().backward()
        assert z.grad is not None
        assert all(p.grad is not None for p in attn.parameters())


class TestBatchedNeuroSelect:
    def test_forward_batch_equals_per_graph(self):
        model = NeuroSelect(hidden_dim=8, seed=0)
        graphs = graphs_of_sizes(6, 11, 17, seed=4)
        batch = batch_graphs(graphs)
        batched = model.forward_batch(batch).data.ravel()
        single = np.array([model.forward(g).data.ravel()[0] for g in graphs])
        np.testing.assert_allclose(batched, single, atol=1e-12)

    def test_predict_proba_batch(self):
        model = NeuroSelect(hidden_dim=8, seed=0)
        graphs = graphs_of_sizes(6, 11, seed=1)
        probs = model.predict_proba_batch(batch_graphs(graphs))
        assert len(probs) == 2
        assert probs[0] == pytest.approx(model.predict_proba(graphs[0]))

    def test_non_mean_readout_rejected(self):
        model = NeuroSelect(hidden_dim=8, seed=0, readout="max")
        batch = batch_graphs(graphs_of_sizes(5, 5))
        with pytest.raises(NotImplementedError):
            model.forward_batch(batch)

    def test_batched_training_step(self):
        model = NeuroSelect(hidden_dim=8, seed=0)
        batch = batch_graphs(graphs_of_sizes(6, 9, seed=2))
        opt = Adam(model.parameters(), lr=1e-3)
        logits = model.forward_batch(batch)
        loss = bce_with_logits(logits[0], 0.0) + bce_with_logits(logits[1], 1.0)
        loss.backward()
        opt.step()
        assert all(p.grad is not None for p in model.parameters())


@settings(max_examples=20, deadline=None)
@given(
    st.lists(st.integers(min_value=4, max_value=12), min_size=1, max_size=4),
    st.integers(min_value=0, max_value=100),
)
def test_property_batching_invariant(sizes, seed):
    """Batched logits equal per-graph logits for any member mix."""
    model = NeuroSelect(hidden_dim=4, seed=1)
    graphs = [
        BipartiteGraph(random_ksat(n, 3 * n, seed=seed + i))
        for i, n in enumerate(sizes)
    ]
    batch = batch_graphs(graphs)
    batched = model.forward_batch(batch).data.ravel()
    single = np.array([model.forward(g).data.ravel()[0] for g in graphs])
    np.testing.assert_allclose(batched, single, atol=1e-10)
