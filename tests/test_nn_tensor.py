"""Tests for the autograd engine: every op's gradient vs finite differences,
and the ``no_grad`` switch that turns recording off."""

import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.nn import MLP, Tensor, concat_rows, no_grad, ones, tensor, zeros
from repro.nn.tensor import segment_sum


def numeric_grad(fn, x: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of scalar fn w.r.t. array x."""
    grad = np.zeros_like(x)
    flat = x.ravel()
    gflat = grad.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        hi = fn()
        flat[i] = orig - eps
        lo = fn()
        flat[i] = orig
        gflat[i] = (hi - lo) / (2 * eps)
    return grad


def check_gradient(build, x_data, atol=1e-6):
    """build(t) -> scalar Tensor; compares autograd vs numeric grads."""
    t = Tensor(x_data.copy(), requires_grad=True)
    out = build(t)
    out.backward()
    numeric = numeric_grad(lambda: build(Tensor(t.data)).item(), t.data)
    np.testing.assert_allclose(t.grad, numeric, atol=atol)


RNG = np.random.default_rng(42)


class TestArithmeticGradients:
    def test_add_broadcast(self):
        b = Tensor(RNG.normal(size=(3,)))
        check_gradient(lambda t: ((t + b) * (t + b)).sum(), RNG.normal(size=(4, 3)))

    def test_mul(self):
        other = Tensor(RNG.normal(size=(4, 3)))
        check_gradient(lambda t: (t * other).sum(), RNG.normal(size=(4, 3)))

    def test_sub_and_neg(self):
        check_gradient(lambda t: ((-t) - 2.0).sum(), RNG.normal(size=(5,)))

    def test_div(self):
        denom = Tensor(RNG.uniform(1.0, 2.0, size=(4,)))
        check_gradient(lambda t: (t / denom).sum(), RNG.normal(size=(3, 4)))

    def test_div_by_tensor_gradient_flows_to_denominator(self):
        t = Tensor(np.array([2.0, 4.0]), requires_grad=True)
        out = (Tensor(np.array([1.0, 1.0])) / t).sum()
        out.backward()
        np.testing.assert_allclose(t.grad, [-0.25, -0.0625])

    def test_pow(self):
        check_gradient(lambda t: (t**3).sum(), RNG.uniform(0.5, 2.0, size=(4,)))

    def test_matmul_both_sides(self):
        a_data = RNG.normal(size=(3, 4))
        b = Tensor(RNG.normal(size=(4, 2)), requires_grad=True)
        a = Tensor(a_data, requires_grad=True)
        ((a @ b) ** 2).sum().backward()
        assert a.grad.shape == (3, 4)
        assert b.grad.shape == (4, 2)
        check_gradient(lambda t: ((t @ Tensor(b.data)) ** 2).sum(), a_data)


class TestReductionsAndShape:
    def test_sum_axis(self):
        check_gradient(lambda t: (t.sum(axis=0) ** 2).sum(), RNG.normal(size=(3, 4)))

    def test_sum_keepdims(self):
        check_gradient(
            lambda t: (t.sum(axis=1, keepdims=True) * t).sum(), RNG.normal(size=(3, 4))
        )

    def test_mean(self):
        check_gradient(lambda t: (t.mean(axis=1) ** 2).sum(), RNG.normal(size=(3, 4)))

    def test_max(self):
        x = np.array([[1.0, 5.0, 3.0], [7.0, 2.0, 2.0]])
        t = Tensor(x, requires_grad=True)
        t.max(axis=1).sum().backward()
        np.testing.assert_allclose(t.grad, [[0, 1, 0], [1, 0, 0]])

    def test_max_splits_ties(self):
        t = Tensor(np.array([2.0, 2.0]), requires_grad=True)
        t.max().backward()
        np.testing.assert_allclose(t.grad, [0.5, 0.5])

    def test_transpose(self):
        check_gradient(lambda t: (t.T @ t).sum(), RNG.normal(size=(3, 4)))

    def test_reshape(self):
        check_gradient(lambda t: (t.reshape(6) ** 2).sum(), RNG.normal(size=(2, 3)))

    def test_getitem(self):
        check_gradient(lambda t: (t[1] ** 2).sum(), RNG.normal(size=(3, 4)))

    def test_getitem_slices_accumulate(self):
        """Overlapping row slices each add their share to the gradient."""
        check_gradient(
            lambda t: (t[0:3] ** 2).sum() + (t[2:5] * t[1:4]).sum() + t[4, 1:].sum(),
            RNG.normal(size=(5, 3)),
        )

    def test_getitem_fancy_index_repeats_accumulate(self):
        check_gradient(
            lambda t: (t[np.array([0, 2, 0])] ** 2).sum(), RNG.normal(size=(3, 2))
        )

    def test_getitem_gradient_adds_to_existing_grad(self):
        t = Tensor(np.zeros((3, 2)), requires_grad=True)
        (t * 2.0).sum().backward()
        t[1:].sum().backward()
        np.testing.assert_allclose(t.grad, [[2, 2], [3, 3], [3, 3]])


class TestNonlinearities:
    def test_relu(self):
        x = RNG.normal(size=(10,))
        x[np.abs(x) < 0.1] = 0.5  # keep away from the kink
        check_gradient(lambda t: (t.relu() ** 2).sum(), x)

    def test_sigmoid(self):
        check_gradient(lambda t: t.sigmoid().sum(), RNG.normal(size=(6,)))

    def test_tanh(self):
        check_gradient(lambda t: t.tanh().sum(), RNG.normal(size=(6,)))

    def test_exp_log(self):
        check_gradient(lambda t: (t.exp().log() * t).sum(), RNG.uniform(0.5, 2, size=(5,)))

    def test_sqrt(self):
        check_gradient(lambda t: t.sqrt().sum(), RNG.uniform(0.5, 4, size=(5,)))


class TestGraphPrimitives:
    def test_gather_rows_grad_accumulates_duplicates(self):
        t = Tensor(np.eye(3), requires_grad=True)
        idx = np.array([0, 0, 2])
        t.gather_rows(idx).sum().backward()
        # Row 0 was gathered twice: its gradient is 2 in every column.
        np.testing.assert_allclose(t.grad.sum(axis=1), [6, 0, 3])

    def test_scatter_sum_forward(self):
        t = Tensor(np.array([[1.0], [2.0], [3.0]]))
        out = t.scatter_sum(np.array([0, 1, 0]), 2)
        np.testing.assert_allclose(out.data, [[4.0], [2.0]])

    def test_scatter_sum_gradient(self):
        data = RNG.normal(size=(5, 2))
        seg = np.array([0, 1, 1, 0, 2])
        check_gradient(lambda t: (t.scatter_sum(seg, 3) ** 2).sum(), data)

    def test_gather_rows_gradient(self):
        idx = np.array([3, 0, 3, 3, 1])
        check_gradient(
            lambda t: (t.gather_rows(idx) ** 2).sum(), RNG.normal(size=(4, 3))
        )

    def test_concat_rows_forward(self):
        a = Tensor(np.ones((2, 3)))
        b = Tensor(np.zeros((1, 3)))
        np.testing.assert_array_equal(
            concat_rows([a, b, a]).data, np.vstack([a.data, b.data, a.data])
        )

    def test_concat_rows_gradient(self):
        """A part used twice, an empty part, and a constant part."""
        const = Tensor(RNG.normal(size=(2, 3)))

        def build(t):
            parts = [t[:2], const, t[2:2], t, t[1:3]]
            return (concat_rows(parts) ** 2 * np.arange(1.0, 10.0)[:, None]).sum()

        check_gradient(build, RNG.normal(size=(3, 3)))

    def test_concat_rows_without_grad_records_nothing(self):
        out = concat_rows([Tensor(np.ones((1, 2))), Tensor(np.ones((2, 2)))])
        assert not out.requires_grad and out._backward is None

    def test_gather_then_scatter_gradient(self):
        data = RNG.normal(size=(4, 3))
        idx = np.array([0, 0, 2, 3, 1])
        seg = np.array([0, 1, 1, 0, 1])
        check_gradient(
            lambda t: (t.gather_rows(idx).scatter_sum(seg, 2) ** 2).sum(), data
        )


class TestAutogradMechanics:
    def test_backward_requires_scalar(self):
        t = Tensor(np.ones((2, 2)), requires_grad=True)
        with pytest.raises(ValueError):
            (t * 2).backward()

    def test_grad_accumulates_across_backward_calls(self):
        t = Tensor(np.array([1.0]), requires_grad=True)
        (t * 2).sum().backward()
        (t * 2).sum().backward()
        np.testing.assert_allclose(t.grad, [4.0])

    def test_zero_grad(self):
        t = Tensor(np.array([1.0]), requires_grad=True)
        (t * 2).sum().backward()
        t.zero_grad()
        assert t.grad is None

    def test_diamond_graph(self):
        # y = a*a used twice: gradients must accumulate once per path.
        t = Tensor(np.array([3.0]), requires_grad=True)
        y = t * t
        (y + y).sum().backward()
        np.testing.assert_allclose(t.grad, [12.0])

    def test_no_grad_tracking_without_requires_grad(self):
        t = Tensor(np.ones(3))
        out = (t * 2).sum()
        assert not out.requires_grad
        assert out._backward is None

    def test_detach_breaks_graph(self):
        t = Tensor(np.array([2.0]), requires_grad=True)
        d = t.detach()
        assert not d.requires_grad

    def test_factories(self):
        assert zeros(2, 3).shape == (2, 3)
        assert ones(4).data.sum() == 4
        assert tensor([1, 2]).data.dtype == np.float64


#: name -> op on a (4, 3) tensor that requires grad; covers every op.
OPS = {
    "add": lambda t: t + 1.0,
    "radd": lambda t: 1.0 + t,
    "neg": lambda t: -t,
    "sub": lambda t: t - 1.0,
    "rsub": lambda t: 1.0 - t,
    "mul": lambda t: t * t,
    "truediv": lambda t: t / 2.0,
    "rtruediv": lambda t: 2.0 / t,
    "pow": lambda t: t**2,
    "matmul": lambda t: t @ t.T,
    "transpose": lambda t: t.T,
    "reshape": lambda t: t.reshape(3, 4),
    "getitem_basic": lambda t: t[1:3],
    "getitem_fancy": lambda t: t[np.array([0, 0, 2])],
    "sum": lambda t: t.sum(),
    "mean": lambda t: t.mean(axis=0),
    "max": lambda t: t.max(axis=1),
    "relu": lambda t: t.relu(),
    "sigmoid": lambda t: t.sigmoid(),
    "tanh": lambda t: t.tanh(),
    "exp": lambda t: t.exp(),
    "log": lambda t: t.log(),
    "sqrt": lambda t: t.sqrt(),
    "gather_rows": lambda t: t.gather_rows(np.array([3, 0, 3])),
    "scatter_sum": lambda t: t.scatter_sum(np.array([1, 0, 1, 1]), 2),
    "concat_rows": lambda t: concat_rows([t, Tensor(np.ones((2, 3))), t]),
}


def _param() -> Tensor:
    return Tensor(RNG.uniform(0.5, 2.0, size=(4, 3)), requires_grad=True)


def _records_nothing(out: Tensor) -> bool:
    return not out.requires_grad and out._parents == () and out._backward is None


class TestNoGrad:
    @pytest.mark.parametrize("name", sorted(OPS))
    def test_op_records_nothing_and_keeps_values(self, name):
        t = _param()
        recorded = OPS[name](t)
        with no_grad():
            bare = OPS[name](t)
        assert recorded.requires_grad and _records_nothing(bare)
        assert t.requires_grad and t.grad is None
        np.testing.assert_array_equal(bare.data, recorded.data)

    def test_nesting_restores_previous_state(self):
        t = _param()
        with no_grad():
            with no_grad():
                assert _records_nothing(t * 2)
            assert _records_nothing(t * 2)
        assert (t * 2).requires_grad

    def test_exception_restores_previous_state(self):
        t = _param()
        with pytest.raises(RuntimeError):
            with no_grad():
                raise RuntimeError("forward pass failed")
        out = (t * 2).sum()
        assert out.requires_grad
        out.backward()
        np.testing.assert_array_equal(t.grad, np.full((4, 3), 2.0))

    def test_switch_is_thread_local(self):
        """A thread parked inside ``no_grad`` leaves another thread's
        forward and backward pass exactly as a serial run computes them."""
        x = Tensor(RNG.normal(size=(5, 3)))

        def train_step():
            model = MLP([3, 4, 1], rng=np.random.default_rng(7))
            model(x).sum().backward()
            return [p.grad for p in model.parameters()]

        serial = train_step()
        entered, release = threading.Event(), threading.Event()
        results = {}

        def inference():
            with no_grad():
                entered.set()
                release.wait(timeout=10)
                results["inference"] = OPS["matmul"](_param())

        def training():
            results["grads"] = train_step()

        parked = threading.Thread(target=inference)
        parked.start()
        assert entered.wait(timeout=10)
        worker = threading.Thread(target=training)
        worker.start()
        worker.join(timeout=10)
        release.set()
        parked.join(timeout=10)
        assert not worker.is_alive() and not parked.is_alive()
        assert _records_nothing(results["inference"])
        assert len(results["grads"]) == len(serial)
        for concurrent, expected in zip(results["grads"], serial):
            np.testing.assert_array_equal(concurrent, expected)

    def test_switch_is_thread_local_under_contention(self):
        """Eight threads on two kinds of pass, switching every few
        microseconds: no inference pass records and no training pass
        loses its graph."""
        x = Tensor(RNG.normal(size=(5, 3)))
        model = MLP([3, 4, 1], rng=np.random.default_rng(7))
        model(x).sum().backward()
        serial = [p.grad.copy() for p in model.parameters()]
        failures = []
        start = threading.Barrier(8)

        def inference():
            start.wait(timeout=10)
            for _ in range(200):
                with no_grad():
                    if not _records_nothing(model(x)):
                        failures.append("inference recorded a graph")

        def training():
            start.wait(timeout=10)
            for _ in range(200):
                local = MLP([3, 4, 1], rng=np.random.default_rng(7))
                local(x).sum().backward()
                grads = [p.grad for p in local.parameters()]
                if not all(np.array_equal(g, s) for g, s in zip(grads, serial)):
                    failures.append("training lost gradients")

        threads = [threading.Thread(target=fn) for fn in (inference, training) * 4]
        assert len(threads) == start.parties
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []


@settings(max_examples=30, deadline=None)
@given(
    hnp.arrays(
        np.float64,
        hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=4),
        elements=st.floats(min_value=-3, max_value=3, allow_nan=False),
    )
)
def test_property_sum_of_sigmoid_gradient(x):
    """Hypothesis: sigmoid-sum gradient matches finite differences anywhere."""
    check_gradient(lambda t: t.sigmoid().sum(), x.copy(), atol=1e-5)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=5), st.integers(min_value=1, max_value=5))
def test_property_matmul_chain_shapes(n, m):
    a = Tensor(RNG.normal(size=(n, m)), requires_grad=True)
    b = Tensor(RNG.normal(size=(m, n)), requires_grad=True)
    ((a @ b) ** 2).sum().backward()
    assert a.grad.shape == (n, m)
    assert b.grad.shape == (m, n)


def _add_at_reference(values, index, num_segments):
    out = np.zeros((num_segments,) + values.shape[1:])
    np.add.at(out, index, values)
    return out


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=0, max_value=30),
    st.integers(min_value=1, max_value=8),
    st.sampled_from([(), (3,), (2, 2)]),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_property_segment_sum_is_add_at_bit_for_bit(rows, num_segments, tail, seed):
    """Same values, same summation order: bit-identical to ``np.add.at``.

    Covers an empty index, repeated indices (few segments, many rows),
    segments no row maps to, and rows of shape (), (d,) and (d, d).
    """
    rng = np.random.default_rng(seed)
    # Mixed magnitudes make the result depend on summation order.
    values = rng.normal(size=(rows,) + tail) * 10.0 ** rng.integers(-8, 8, (rows,) + tail)
    index = rng.integers(0, num_segments, size=rows)
    got = segment_sum(values, index, num_segments)
    expected = _add_at_reference(values, index, num_segments)
    assert got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()
    via_tensor = Tensor(values).scatter_sum(index, num_segments).data
    assert via_tensor.tobytes() == expected.tobytes()


def test_segment_sum_edge_cases_bit_for_bit():
    values = np.array([[1.0, 1.0], [1e16, -0.0], [-1e16, 2.5]])
    for index, segments in (
        (np.array([0, 0, 0]), 1),  # one segment, order-sensitive sum
        (np.array([2, 2, 2]), 4),  # unused segments stay zero
        (np.array([1, 0, 1]), 2),
    ):
        assert (
            segment_sum(values, index, segments).tobytes()
            == _add_at_reference(values, index, segments).tobytes()
        )
    empty = segment_sum(np.zeros((0, 2, 2)), np.zeros(0, dtype=np.int64), 3)
    np.testing.assert_array_equal(empty, np.zeros((3, 2, 2)))


def test_gather_rows_backward_is_add_at_bit_for_bit():
    rng = np.random.default_rng(7)
    data = rng.normal(size=(6, 4))
    index = rng.integers(0, 6, size=40)
    upstream = rng.normal(size=(40, 4)) * 10.0 ** rng.integers(-8, 8, (40, 4))
    t = Tensor(data, requires_grad=True)
    t.gather_rows(index).backward(upstream)
    assert t.grad.tobytes() == _add_at_reference(upstream, index, 6).tobytes()
