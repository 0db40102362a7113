"""Tests for the NeuroSelect model family (Eqs. 3-10) and baselines."""

import numpy as np
import pytest

from repro.cnf import CNF, random_ksat
from repro.graph import BipartiteGraph, LiteralClauseGraph
from repro.models import (
    FeatureLogisticRegression,
    GINClassifier,
    HGTLayer,
    LinearAttention,
    MPNNStack,
    NeuroSATClassifier,
    NeuroSelect,
    neuroselect_without_attention,
)
from repro.models.mpnn import BipartiteMPNNLayer
from repro.models.readout import max_readout, mean_max_readout, mean_readout
from repro.nn import Adam, Tensor, bce_with_logits

RNG = np.random.default_rng(0)


def small_graph():
    return BipartiteGraph(random_ksat(8, 20, seed=1))


class TestMPNN:
    def test_shapes_preserved(self):
        g = small_graph()
        layer = BipartiteMPNNLayer(dim=6, rng=RNG)
        var_x = Tensor(g.initial_var_features(6))
        clause_x = Tensor(g.initial_clause_features(6))
        new_var, new_clause = layer(var_x, clause_x, g)
        assert new_var.shape == (8, 6)
        assert new_clause.shape == (20, 6)

    def test_stack_depth(self):
        g = small_graph()
        stack = MPNNStack(dim=4, num_layers=3, rng=RNG)
        assert len(stack.layers) == 3
        var_x, clause_x = stack(
            Tensor(g.initial_var_features(4)), Tensor(g.initial_clause_features(4)), g
        )
        assert var_x.shape == (8, 4)

    def test_rejects_zero_layers(self):
        with pytest.raises(ValueError):
            MPNNStack(dim=4, num_layers=0)

    def test_polarity_matters(self):
        """Flipping every literal's sign must change the embeddings."""
        base = CNF([[1, 2, 3], [-1, 2, -3], [2, -3, 1]])
        flipped = CNF([[-l for l in c.literals] for c in base.clauses])
        layer = BipartiteMPNNLayer(dim=4, rng=np.random.default_rng(5))
        outs = []
        for cnf in (base, flipped):
            g = BipartiteGraph(cnf)
            v, _ = layer(
                Tensor(g.initial_var_features(4)),
                Tensor(g.initial_clause_features(4)),
                g,
            )
            outs.append(v.data)
        assert not np.allclose(outs[0], outs[1])

    def test_gradients_reach_all_parameters(self):
        g = small_graph()
        layer = BipartiteMPNNLayer(dim=4, rng=RNG)
        var_x = Tensor(g.initial_var_features(4))
        clause_x = Tensor(g.initial_clause_features(4))
        new_var, new_clause = layer(var_x, clause_x, g)
        (new_var.sum() + new_clause.sum()).backward()
        assert all(p.grad is not None for p in layer.parameters())


class TestLinearAttention:
    def test_shape(self):
        attn = LinearAttention(dim=5, rng=RNG)
        out = attn(Tensor(RNG.normal(size=(7, 5))))
        assert out.shape == (7, 5)

    def test_matches_explicit_dense_formula(self):
        """Eq. (9) computed naively with an N x N matrix must agree."""
        dim, n = 4, 6
        attn = LinearAttention(dim=dim, rng=np.random.default_rng(3))
        z = RNG.normal(size=(n, dim))
        out = attn(Tensor(z)).data

        q = z @ attn.f_q.weight.data + attn.f_q.bias.data
        k = z @ attn.f_k.weight.data + attn.f_k.bias.data
        v = z @ attn.f_v.weight.data + attn.f_v.bias.data
        qt = q / np.sqrt((q * q).sum() + attn.eps)
        kt = k / np.sqrt((k * k).sum() + attn.eps)
        # Dense: D^{-1} [V + (1/N) Qt Kt^T V] with explicit N x N product.
        big = qt @ kt.T  # N x N attention matrix
        d = 1.0 + big.sum(axis=1) / n
        expected = (v + big @ v / n) / d[:, None]
        np.testing.assert_allclose(out, expected, atol=1e-10)

    def test_linear_cost_no_quadratic_matrix(self):
        """Smoke: scales to thousands of nodes quickly (linear memory)."""
        attn = LinearAttention(dim=8, rng=RNG)
        out = attn(Tensor(RNG.normal(size=(20_000, 8))))
        assert out.shape == (20_000, 8)

    def test_gradients_flow(self):
        attn = LinearAttention(dim=3, rng=RNG)
        z = Tensor(RNG.normal(size=(5, 3)), requires_grad=True)
        attn(z).sum().backward()
        assert z.grad is not None
        assert all(p.grad is not None for p in attn.parameters())


class TestHGTLayer:
    def test_attention_toggle(self):
        g = small_graph()
        with_attn = HGTLayer(dim=4, use_attention=True, rng=np.random.default_rng(1))
        without = HGTLayer(dim=4, use_attention=False, rng=np.random.default_rng(1))
        var_x = Tensor(g.initial_var_features(4))
        clause_x = Tensor(g.initial_clause_features(4))
        v1, _ = with_attn(var_x, clause_x, g)
        v2, _ = without(var_x, clause_x, g)
        assert not np.allclose(v1.data, v2.data)
        assert without.attention is None

    def test_clause_features_bypass_attention(self):
        g = small_graph()
        layer = HGTLayer(dim=4, rng=RNG)
        var_x = Tensor(g.initial_var_features(4))
        clause_x = Tensor(g.initial_clause_features(4))
        _, c_out = layer(var_x, clause_x, g)
        _, c_mpnn = layer.mpnn(var_x, clause_x, g)
        np.testing.assert_allclose(c_out.data, c_mpnn.data)


class TestReadouts:
    def test_mean(self):
        x = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]))
        np.testing.assert_allclose(mean_readout(x).data, [[2.0, 3.0]])

    def test_max(self):
        x = Tensor(np.array([[1.0, 5.0], [3.0, 4.0]]))
        np.testing.assert_allclose(max_readout(x).data, [[3.0, 5.0]])

    def test_mean_max(self):
        x = Tensor(np.array([[2.0], [4.0]]))
        np.testing.assert_allclose(mean_max_readout(x).data, [[7.0]])


class TestNeuroSelect:
    def test_forward_shape_and_probability(self):
        model = NeuroSelect(hidden_dim=8, seed=0)
        cnf = random_ksat(10, 30, seed=2)
        logit = model(BipartiteGraph(cnf))
        assert logit.shape == (1, 1)
        p = model.predict_proba(cnf)
        assert 0.0 <= p <= 1.0
        assert model.predict(cnf) in (0, 1)

    def test_accepts_cnf_or_graph(self):
        model = NeuroSelect(hidden_dim=8, seed=0)
        cnf = random_ksat(10, 30, seed=2)
        assert model.predict_proba(cnf) == pytest.approx(
            model.predict_proba(BipartiteGraph(cnf))
        )

    def test_paper_defaults(self):
        model = NeuroSelect()
        assert model.hidden_dim == 32
        assert len(model.hgt_layers) == 2
        assert len(model.hgt_layers[0].mpnn.layers) == 3

    def test_deterministic_by_seed(self):
        a = NeuroSelect(hidden_dim=8, seed=4)
        b = NeuroSelect(hidden_dim=8, seed=4)
        cnf = random_ksat(10, 30, seed=2)
        assert a.predict_proba(cnf) == b.predict_proba(cnf)

    def test_invalid_readout_rejected(self):
        with pytest.raises(ValueError):
            NeuroSelect(readout="bogus")

    def test_ablation_has_no_attention(self):
        model = neuroselect_without_attention(hidden_dim=8)
        assert all(layer.attention is None for layer in model.hgt_layers)
        assert model.num_parameters() < NeuroSelect(hidden_dim=8).num_parameters()

    def test_can_overfit_two_instances(self):
        model = NeuroSelect(hidden_dim=8, seed=1)
        cnfs = [random_ksat(10, 30, seed=s) for s in (0, 1)]
        graphs = [BipartiteGraph(c) for c in cnfs]
        labels = [0, 1]
        opt = Adam(model.parameters(), lr=1e-2)
        for _ in range(80):
            for g, y in zip(graphs, labels):
                opt.zero_grad()
                bce_with_logits(model(g), y).backward()
                opt.step()
        assert [model.predict(g) for g in graphs] == labels


class TestBaselines:
    @pytest.mark.parametrize("model_cls,graph_cls", [
        (NeuroSATClassifier, LiteralClauseGraph),
        (GINClassifier, BipartiteGraph),
    ])
    def test_forward_and_predict(self, model_cls, graph_cls):
        model = model_cls(hidden_dim=8, seed=0)
        cnf = random_ksat(10, 30, seed=3)
        assert model.graph_type is graph_cls
        p = model.predict_proba(cnf)
        assert 0.0 <= p <= 1.0

    @pytest.mark.parametrize(
        "model_cls", [NeuroSATClassifier, GINClassifier, FeatureLogisticRegression]
    )
    def test_predict_proba_records_no_graph(self, model_cls):
        """Inference runs under ``no_grad``: the forward output keeps no
        graph, and the probability is the recording pass's, bit for bit."""
        model = model_cls(seed=0)
        forward, calls = model.forward, []

        def keeping(instance):
            calls.append((instance, forward(instance)))
            return calls[-1][1]

        model.forward = keeping
        p = model.predict_proba(random_ksat(10, 30, seed=3))
        ((instance, out),) = calls
        assert not out.requires_grad and out._parents == ()
        recorded = forward(instance)
        assert recorded.requires_grad
        assert p == float(recorded.sigmoid().data.ravel()[0])

    def test_neurosat_rounds_change_output(self):
        cnf = random_ksat(10, 30, seed=3)
        a = NeuroSATClassifier(hidden_dim=8, num_rounds=1, seed=0)
        b = NeuroSATClassifier(hidden_dim=8, num_rounds=5, seed=0)
        assert a.predict_proba(cnf) != b.predict_proba(cnf)

    def test_gin_trainable(self):
        model = GINClassifier(hidden_dim=8, num_layers=2, seed=0)
        cnf = random_ksat(10, 30, seed=4)
        g = BipartiteGraph(cnf)
        opt = Adam(model.parameters(), lr=1e-2)
        # GIN's sum aggregation starts with a large positive logit, so the
        # interesting direction is pushing towards label 0.
        first = bce_with_logits(model(g), 0.0).item()
        assert first > 1.0
        for _ in range(60):
            opt.zero_grad()
            bce_with_logits(model(g), 0.0).backward()
            opt.step()
        assert bce_with_logits(model(g), 0.0).item() < first

    def test_neurosat_gradients_reach_initial_states(self):
        model = NeuroSATClassifier(hidden_dim=8, num_rounds=2, seed=0)
        g = LiteralClauseGraph(random_ksat(8, 20, seed=0))
        bce_with_logits(model(g), 1.0).backward()
        assert model.lit_init.grad is not None
        assert model.clause_init.grad is not None


class TestFeatureBaseline:
    def test_forward_and_predict(self):
        from repro.models import FeatureLogisticRegression

        model = FeatureLogisticRegression(seed=0)
        cnf = random_ksat(10, 30, seed=3)
        p = model.predict_proba(cnf)
        assert 0.0 <= p <= 1.0
        assert model.predict(cnf) in (0, 1)

    def test_learns_ratio_signal(self):
        """Clause/var ratio is a feature, so LR separates sparse vs dense."""
        from repro.models import FeatureLogisticRegression
        from repro.selection import Trainer
        from tests.conftest import make_labeled

        sparse = [make_labeled(random_ksat(12, 24, seed=s), 0) for s in range(4)]
        dense = [make_labeled(random_ksat(12, 60, seed=s), 1) for s in range(4)]
        instances = sparse + dense
        model = FeatureLogisticRegression(seed=0)
        trainer = Trainer(model, learning_rate=5e-2, epochs=40)
        trainer.fit(instances)
        assert trainer.evaluate(instances).accuracy == 1.0

    def test_scaler_statistics(self):
        from repro.models import FeatureLogisticRegression
        from repro.models.baselines.feature_lr import FeatureVector

        model = FeatureLogisticRegression(seed=0)
        vectors = [FeatureVector(random_ksat(10, 20 + 10 * i, seed=i)) for i in range(5)]
        model.fit_scaler(vectors)
        standardized = np.stack([model._standardize(v) for v in vectors])
        np.testing.assert_allclose(standardized.mean(axis=0), 0.0, atol=1e-9)
