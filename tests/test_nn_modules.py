"""Tests for layers, optimizers, losses, and serialization."""

import numpy as np
import pytest

from repro.nn import (
    MLP,
    Adam,
    Linear,
    Module,
    Tensor,
    bce_loss,
    bce_with_logits,
    load_module,
    save_module,
)

RNG = np.random.default_rng(7)


class TestLinear:
    def test_output_shape(self):
        layer = Linear(4, 3, rng=RNG)
        out = layer(Tensor(RNG.normal(size=(5, 4))))
        assert out.shape == (5, 3)

    def test_no_bias(self):
        layer = Linear(4, 3, bias=False, rng=RNG)
        assert layer.bias is None
        assert len(layer.parameters()) == 1

    def test_glorot_bound(self):
        layer = Linear(100, 100, rng=np.random.default_rng(0))
        bound = np.sqrt(6.0 / 200)
        assert np.abs(layer.weight.data).max() <= bound

    def test_parameters_require_grad(self):
        layer = Linear(2, 2)
        assert all(p.requires_grad for p in layer.parameters())


class TestMLP:
    def test_forward_and_depth(self):
        mlp = MLP([4, 8, 8, 1], rng=RNG)
        assert len(mlp.layers) == 3
        assert mlp(Tensor(RNG.normal(size=(2, 4)))).shape == (2, 1)

    def test_rejects_single_dim(self):
        with pytest.raises(ValueError):
            MLP([4])

    def test_activation_between_but_not_after(self):
        mlp = MLP([2, 2, 1], rng=RNG)
        # Output can be negative (no final ReLU).
        outs = [
            mlp(Tensor(RNG.normal(size=(1, 2)))).data.ravel()[0] for _ in range(50)
        ]
        assert min(outs) < 0 or max(outs) <= 0  # at least sometimes negative


class TestModule:
    def test_nested_parameter_discovery(self):
        class Net(Module):
            def __init__(self):
                self.branches = [Linear(2, 2), Linear(2, 2)]
                self.head = MLP([2, 1])
                self.scalar = Tensor(np.zeros(1), requires_grad=True)

        net = Net()
        # 2 linears (w+b each) + MLP single layer (w+b) + scalar = 7 tensors.
        assert len(net.parameters()) == 7
        assert net.num_parameters() == 2 * (4 + 2) + (2 + 1) + 1

    def test_zero_grad_clears(self):
        layer = Linear(2, 1)
        out = layer(Tensor(np.ones((1, 2)))).sum()
        out.backward()
        assert layer.weight.grad is not None
        layer.zero_grad()
        assert layer.weight.grad is None

    def test_state_dict_round_trip(self):
        a = MLP([3, 4, 1], rng=np.random.default_rng(1))
        b = MLP([3, 4, 1], rng=np.random.default_rng(2))
        b.load_state_dict(a.state_dict())
        x = Tensor(RNG.normal(size=(2, 3)))
        np.testing.assert_allclose(a(x).data, b(x).data)

    def test_state_dict_shape_mismatch_rejected(self):
        a = MLP([3, 4, 1])
        state = a.state_dict()
        key = next(iter(state))
        state[key] = np.zeros((99, 99))
        with pytest.raises(ValueError, match="shape mismatch"):
            a.load_state_dict(state)

    def test_state_dict_key_mismatch_rejected(self):
        a = MLP([3, 4, 1])
        with pytest.raises(ValueError, match="state mismatch"):
            a.load_state_dict({"bogus": np.zeros(1)})


class TestOptimizers:
    @staticmethod
    def quadratic_loss(param):
        return ((param - 3.0) * (param - 3.0)).sum()

    def test_adam_converges(self):
        p = Tensor(np.zeros(3), requires_grad=True)
        opt = Adam([p], lr=0.1)
        for _ in range(300):
            opt.zero_grad()
            self.quadratic_loss(p).backward()
            opt.step()
        np.testing.assert_allclose(p.data, 3.0, atol=1e-2)

    def test_adam_skips_params_without_grad(self):
        p = Tensor(np.ones(1), requires_grad=True)
        q = Tensor(np.ones(1), requires_grad=True)
        opt = Adam([p, q], lr=0.1)
        (p * p).sum().backward()
        opt.step()
        np.testing.assert_allclose(q.data, 1.0)

    def test_empty_parameter_list_rejected(self):
        with pytest.raises(ValueError):
            Adam([])

    def test_invalid_lr_rejected(self):
        p = Tensor(np.zeros(1), requires_grad=True)
        with pytest.raises(ValueError):
            Adam([p], lr=0.0)


class TestLosses:
    def test_bce_with_logits_matches_prob_form(self):
        logit = Tensor(np.array([[0.7]]), requires_grad=True)
        a = bce_with_logits(logit, 1.0)
        b = bce_loss(logit.sigmoid(), 1.0)
        assert a.item() == pytest.approx(b.item(), abs=1e-9)

    def test_bce_with_logits_extreme_values_stable(self):
        for x in (-1000.0, 1000.0):
            loss = bce_with_logits(Tensor(np.array([x])), 1.0)
            assert np.isfinite(loss.item())

    def test_bce_loss_clamps_at_zero(self):
        loss = bce_loss(Tensor(np.array([0.0])), 0.0)
        assert np.isfinite(loss.item())

    def test_bce_gradient_direction(self):
        logit = Tensor(np.array([0.0]), requires_grad=True)
        bce_with_logits(logit, 1.0).backward()
        assert logit.grad[0] < 0  # push logit up towards label 1

    def test_bce_rejects_bad_target(self):
        with pytest.raises(ValueError):
            bce_with_logits(Tensor(np.zeros(1)), 2.0)
        with pytest.raises(ValueError):
            bce_loss(Tensor(np.full(1, 0.5)), -1.0)

class TestSerialization:
    def test_save_load_round_trip(self, tmp_path):
        model = MLP([3, 5, 1], rng=np.random.default_rng(3))
        path = tmp_path / "model.npz"
        save_module(model, path)
        clone = MLP([3, 5, 1], rng=np.random.default_rng(99))
        load_module(clone, path)
        x = Tensor(RNG.normal(size=(2, 3)))
        np.testing.assert_allclose(model(x).data, clone(x).data)

    def test_load_into_wrong_architecture_fails(self, tmp_path):
        model = MLP([3, 5, 1])
        path = tmp_path / "model.npz"
        save_module(model, path)
        with pytest.raises(ValueError):
            load_module(MLP([3, 6, 1]), path)


class TestMetadataRoundTrip:
    def test_decision_threshold_travels_with_weights(self, tmp_path):
        model = MLP([3, 4, 1], rng=np.random.default_rng(0))
        model.decision_threshold = 0.37
        path = tmp_path / "m.npz"
        save_module(model, path)
        clone = MLP([3, 4, 1], rng=np.random.default_rng(9))
        load_module(clone, path)
        assert clone.decision_threshold == pytest.approx(0.37)

    def test_no_metadata_is_fine(self, tmp_path):
        model = MLP([3, 4, 1])
        path = tmp_path / "m.npz"
        save_module(model, path)
        clone = MLP([3, 4, 1])
        load_module(clone, path)
        assert not hasattr(clone, "decision_threshold")


class TestBlasThreads:
    def test_single_threaded_leaves_every_mapped_openblas_at_one_thread(self):
        import ctypes

        from repro.nn import blas

        if not blas.single_threaded():
            pytest.skip("no OpenBLAS with a known setter in this process")
        checked = 0
        for path in blas._mapped_openblas():
            library = ctypes.CDLL(path)
            for name in blas._SETTERS:
                if hasattr(library, name):
                    getter = getattr(library, name.replace("_set_", "_get_"))
                    getter.restype = ctypes.c_int
                    assert getter() == 1
                    checked += 1
                    break
        assert checked >= 1
