"""The fused message-passing sum, on the compiled kernel and on numpy.

``Tensor.message_sum(source, target, weight, n)`` replaces the chain
``gather_rows(source) * weight -> scatter_sum(target, n)`` in every
message-passing layer.  Both of its engines must give that chain's
results bit for bit, forward and backward, so a model's numbers do not
depend on whether the C kernel could be built.  The numpy engine is
forced by making ``repro.solver.kernel.load`` report no kernel.
"""

import importlib

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.nn import Tensor, no_grad
from repro.solver import kernel
from tests.test_nn_tensor import check_gradient

ENGINES = ("c", "numpy")


@pytest.fixture(params=ENGINES)
def engine(request, monkeypatch):
    """Run the test on one engine; "c" skips when no kernel can be built."""
    if request.param == "numpy":
        monkeypatch.setattr(kernel, "load", lambda: None)
    elif kernel.load() is None:
        pytest.skip(f"no compiled kernel: {kernel.engine_info()[1]}")
    return request.param


def unfused(x, source, target, weight, num_targets):
    """The chain the op replaces: gather, weight multiply, scatter."""
    rows = x.gather_rows(source)
    if weight is not None:
        rows = rows * Tensor(weight[:, None])
    return rows.scatter_sum(target, num_targets)


#: The engine fixture's patch holds for every example of a test.
ACROSS_EXAMPLES = settings(
    suppress_health_check=[HealthCheck.function_scoped_fixture]
)


@st.composite
def edge_lists(draw, mixed: bool = True):
    """Random graphs with few nodes and many edges (repeats are common)
    and some targets without edges.  ``mixed`` values span 16 orders of
    magnitude, so any change of summation order would show in the bits;
    otherwise they are standard normal, for finite differences."""
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = np.random.default_rng(seed)
    num_sources = draw(st.integers(min_value=1, max_value=6))
    num_targets = draw(st.integers(min_value=1, max_value=8))
    num_edges = draw(st.integers(min_value=0, max_value=40))
    width = draw(st.integers(min_value=1, max_value=5))
    weights = draw(st.sampled_from(("none", "sign", "real")))
    strided = draw(st.booleans())

    def values(shape):
        scale = 10.0 ** rng.integers(-8, 8, shape) if mixed else 1.0
        return rng.normal(size=shape) * scale

    x = values((num_sources, 2 * width if strided else width))
    source = rng.integers(0, num_sources, size=2 * num_edges)
    target = rng.integers(0, num_targets, size=2 * num_edges)
    weight = {
        "none": None,
        "sign": np.where(rng.random(2 * num_edges) < 0.5, 1.0, -1.0),
        "real": values(2 * num_edges),
    }[weights]
    if strided:
        # Every other column and edge: views that are not contiguous.
        x, source, target = x[:, ::2], source[::2], target[::2]
        weight = None if weight is None else weight[::2]
    else:
        source, target = source[:num_edges], target[:num_edges]
        weight = None if weight is None else weight[:num_edges]
    upstream = values((num_targets, width))
    return x, source, target, weight, num_targets, upstream


@ACROSS_EXAMPLES
@given(case=edge_lists())
def test_property_bit_identical_to_the_unfused_chain(engine, case):
    x, source, target, weight, num_targets, upstream = case
    fused_in = Tensor(x.copy(), requires_grad=True)
    fused = fused_in.message_sum(source, target, weight, num_targets)
    fused.backward(upstream)
    chain_in = Tensor(x.copy(), requires_grad=True)
    chain = unfused(chain_in, source, target, weight, num_targets)
    chain.backward(upstream)
    assert fused.shape == chain.shape == (num_targets, x.shape[1])
    assert fused.data.tobytes() == chain.data.tobytes()
    assert fused_in.grad.tobytes() == chain_in.grad.tobytes()
    with no_grad():
        bare = fused_in.message_sum(source, target, weight, num_targets)
    assert not bare.requires_grad and bare._parents == () and bare._backward is None
    assert bare.data.tobytes() == fused.data.tobytes()


@ACROSS_EXAMPLES
@given(case=edge_lists(mixed=False))
def test_property_gradient_matches_finite_differences(engine, case):
    x, source, target, weight, num_targets, upstream = case
    upstream = Tensor(np.sign(upstream))
    check_gradient(
        lambda t: (
            t.message_sum(source, target, weight, num_targets) * upstream
        ).sum(),
        np.ascontiguousarray(x),
    )


def test_edge_cases_bit_identical(engine):
    x = np.array([[1.0, -0.0], [1e16, 2.5], [-1e16, 3.0]])
    cases = (
        (np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64), 3),  # no edges
        (np.array([1, 2, 0]), np.array([0, 0, 0]), 1),  # order-sensitive sum
        (np.array([0, 0, 0]), np.array([2, 2, 2]), 4),  # repeated edge, empty targets
    )
    for source, target, num_targets in cases:
        for weight in (None, np.array([-1.0, 1.0, -1.0])[: len(source)]):
            fused = Tensor(x).message_sum(source, target, weight, num_targets)
            chain = unfused(Tensor(x), source, target, weight, num_targets)
            assert fused.data.tobytes() == chain.data.tobytes()


def test_malformed_edge_arrays_are_rejected(engine):
    x = Tensor(np.ones((2, 3)))
    with pytest.raises(ValueError):
        x.message_sum(np.array([0, 1]), np.array([0]), None, 2)
    with pytest.raises(ValueError):
        x.message_sum(np.array([0, 1]), np.array([0, 1]), np.ones(3), 2)
    with pytest.raises(ValueError):
        x.message_sum(np.array([[0, 1]]), np.array([0]), None, 2)


@pytest.mark.parametrize(
    "source, target",
    [([0, 2], [0, 0]), ([0, 1], [0, 2]), ([-1, 0], [0, 0]), ([0, 0], [-1, 0])],
)
def test_compiled_path_rejects_out_of_range_indices(source, target):
    if kernel.load() is None:
        pytest.skip(f"no compiled kernel: {kernel.engine_info()[1]}")
    with pytest.raises(IndexError):
        Tensor(np.ones((2, 3))).message_sum(
            np.array(source), np.array(target), None, 2
        )


def test_compiled_path_does_not_fall_back_to_numpy(monkeypatch):
    if kernel.load() is None:
        pytest.skip(f"no compiled kernel: {kernel.engine_info()[1]}")

    def numpy_path(*args):
        raise AssertionError("the numpy path ran beside a loaded kernel")

    # ``repro.nn.tensor`` the attribute is the factory; take the module.
    tensor_module = importlib.import_module("repro.nn.tensor")
    monkeypatch.setattr(tensor_module, "segment_sum", numpy_path)
    out = Tensor(np.ones((2, 2))).message_sum(
        np.array([0, 1, 1]), np.array([1, 1, 0]), np.array([2.0, -1.0, 0.5]), 3
    )
    np.testing.assert_array_equal(out.data, [[0.5, 0.5], [1.0, 1.0], [0.0, 0.0]])
