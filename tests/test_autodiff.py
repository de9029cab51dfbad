import gc
import itertools
import weakref

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from floodnet.autodiff import ContractError, Graph, ShapeError, _LazyGrads
from floodnet.gradcheck import check_gradients
from floodnet.layers import batch_norm, layer_norm, register_bn
from floodnet.params import ParamStore

from oracles import (
    conv2d_loops,
    dft2_magnitude_quadratic,
    matmul_loops,
    maxpool2_scan,
    softmax_rows,
)


def rel_close(a, b, tol):
    denom = max(np.abs(b).max(), 1.0)
    return np.abs(a - b).max() / denom <= tol


# ---- matmul ----------------------------------------------------------


def test_matmul_identity():
    g = Graph()
    out = g.matmul(g.constant(np.eye(2)), g.constant([[1.0, 2.0], [3.0, 4.0]]))
    np.testing.assert_array_equal(out.value, [[1.0, 2.0], [3.0, 4.0]])


def test_matmul_hand_arithmetic():
    g = Graph()
    out = g.matmul(g.constant([[1.0, 2.0], [3.0, 4.0]]), g.constant([[5.0, 6.0], [7.0, 8.0]]))
    np.testing.assert_array_equal(out.value, [[19.0, 22.0], [43.0, 50.0]])


def test_matmul_matches_triple_loop_oracle():
    rng = np.random.default_rng(0)
    a, b = rng.standard_normal((5, 7)), rng.standard_normal((7, 3))
    g = Graph()
    out = g.matmul(g.constant(a), g.constant(b))
    assert rel_close(out.value, matmul_loops(a, b), 1e-12)


def test_matmul_rejects_bad_shapes():
    g = Graph()
    with pytest.raises(ShapeError):
        g.matmul(g.constant(np.ones((2, 3))), g.constant(np.ones((2, 3))))
    with pytest.raises(ShapeError):
        g.matmul(g.constant(np.ones(3)), g.constant(np.ones((3, 2))))


# ---- conv2d ----------------------------------------------------------


def test_conv2d_zero_kernel():
    g = Graph()
    rng = np.random.default_rng(1)
    out = g.conv2d(g.constant(rng.standard_normal((5, 5, 3))), g.constant(np.zeros((3, 3, 3, 2))))
    np.testing.assert_array_equal(out.value, np.zeros((5, 5, 2)))


def test_conv2d_identity_mixing():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((4, 4, 3))
    kernel = np.eye(3).reshape(1, 1, 3, 3)
    g = Graph()
    out = g.conv2d(g.constant(x), g.constant(kernel))
    np.testing.assert_allclose(out.value, x, atol=1e-15)


def test_conv2d_matches_nested_loop_oracle():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((6, 6, 4))
    kernel = rng.standard_normal((3, 3, 2, 4))
    g = Graph()
    out = g.conv2d(g.constant(x), g.constant(kernel), groups=2)
    assert rel_close(out.value, conv2d_loops(x, kernel, groups=2), 1e-12)


@st.composite
def conv_cases(draw):
    """Legal conv2d operands: K in {1,3,5,7}, groups in {1, 2, C_in},
    stride in {1,2,4}; extents at stride 1 may be odd."""
    K = draw(st.sampled_from((1, 3, 5, 7)))
    stride = draw(st.sampled_from((1, 2, 4)))
    c_in = draw(st.integers(1, 4))
    groups = draw(st.sampled_from(sorted({g for g in (1, 2, c_in) if c_in % g == 0})))
    c_out = groups * draw(st.integers(1, 2))
    if stride == 1:
        H, W = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    else:
        H, W = stride * draw(st.integers(1, 2)), stride * draw(st.integers(1, 2))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cig = c_in // groups
    kernel = rng.standard_normal((K, K, cig, c_out)) / np.sqrt(K * K * cig)
    return rng.standard_normal((H, W, c_in)), kernel, groups, stride


@given(conv_cases())
def test_conv2d_property_matches_loop_oracle(case):
    x, kernel, groups, stride = case
    g = Graph()
    out = g.conv2d(g.constant(x), g.constant(kernel), groups=groups, stride=stride)
    assert np.abs(out.value - conv2d_loops(x, kernel, groups)[::stride, ::stride]).max() <= 1e-10


@given(conv_cases())
def test_conv2d_property_gradcheck(case):
    x, kernel, groups, stride = case
    store = ParamStore(0)
    for name, value in (("x", x), ("kernel", kernel)):
        store.add(name, value.shape)
        store.entries[name].value[...] = value

    def build(g):
        out = g.conv2d(g.param(store, "x"), g.param(store, "kernel"), groups=groups, stride=stride)
        return g.reduce_sum(g.tanh(out))

    for name in ("kernel", "x"):
        check_gradients(build, store, names=[name], n_coords=6)


@given(conv_cases())
def test_conv2d_property_stride_equals_conv_then_slice(case):
    x, kernel, groups, stride = case
    H, W, _ = x.shape
    kept = np.random.default_rng(0).standard_normal((H // stride, W // stride, kernel.shape[3]))
    scattered = np.zeros((H, W, kernel.shape[3]))
    scattered[::stride, ::stride] = kept

    def run(s, weights):
        g = Graph()
        xn, kn = g.constant(x), g.constant(kernel)
        g.watch(xn)
        g.watch(kn)
        out = g.conv2d(xn, kn, groups=groups, stride=s)
        g.backward(g.reduce_sum(g.mul(out, g.constant(weights))))
        return out.value, xn.grad, kn.grad

    strided, full = run(stride, kept), run(1, scattered)
    assert rel_close(strided[0], full[0][::stride, ::stride], 1e-12)
    assert rel_close(strided[1], full[1], 1e-12)
    assert rel_close(strided[2], full[2], 1e-12)


def test_conv2d_stride_must_divide_extents():
    g = Graph()
    kernel = g.constant(np.ones((3, 3, 2, 2)))
    for shape in ((6, 8, 2), (8, 6, 2)):
        with pytest.raises(ShapeError):
            g.conv2d(g.constant(np.ones(shape)), kernel, stride=4)


# ---- batched ops -------------------------------------------------------


def _stack_per_sample(op, *operands):
    """np.stack of op's value over each leading-axis slice of the operands;
    an operand of rank 2 is shared by every slice."""
    B = operands[0].shape[0]
    outs = []
    for i in range(B):
        g = Graph()
        outs.append(op(g, *(g.constant(v[i] if v.ndim > 2 else v) for v in operands)).value)
    return np.stack(outs)


def _check_batched(op, operands, exact):
    """The batched value equals the per-sample values stacked, and
    check_gradients passes on every operand, the batched one included."""
    g = Graph()
    batched = op(g, *(g.constant(v) for v in operands)).value
    stacked = _stack_per_sample(op, *operands)
    assert batched.shape == stacked.shape
    if exact:
        np.testing.assert_array_equal(batched, stacked)
    else:
        assert np.abs(batched - stacked).max(initial=0.0) <= 1e-12
    _gradcheck_every_operand(op, operands)


def _gradcheck_every_operand(op, operands):
    """check_gradients on each operand of op, through tanh and fixed random
    weights on its output."""
    g = Graph()
    weights = np.random.default_rng(1).standard_normal(op(g, *(g.constant(v) for v in operands)).shape)
    store = ParamStore(0)
    names = [f"v{i}" for i in range(len(operands))]
    for name, value in zip(names, operands):
        store.add(name, value.shape)
        store.entries[name].value[...] = value

    def build(g):
        out = op(g, *(g.param(store, n) for n in names))
        return g.reduce_sum(g.mul(g.tanh(out), g.constant(weights)))

    for name in names:
        check_gradients(build, store, names=[name], n_coords=6)


@st.composite
def batches(draw, max_extent=7):
    """A batch of 1-3 maps (B, H, W, C) with any small extents."""
    B, H, W = draw(st.integers(1, 3)), draw(st.integers(1, max_extent)), draw(st.integers(1, max_extent))
    C = draw(st.integers(1, 3))
    return np.random.default_rng(draw(st.integers(0, 2**32 - 1))).standard_normal((B, H, W, C))


@given(conv_cases(), st.integers(1, 3), st.integers(0, 2**32 - 1))
def test_conv2d_batched_matches_per_sample(case, B, seed):
    x, kernel, groups, stride = case
    xs = np.random.default_rng(seed).standard_normal((B,) + x.shape)
    # the kernel has rank 4, so the per-sample runs share it as a constant
    op = lambda g, xn: g.conv2d(xn, g.constant(kernel), groups=groups, stride=stride)
    _check_batched(op, [xs], exact=False)
    g = Graph()
    kn = g.constant(kernel)
    g.watch(kn)
    g.backward(g.reduce_sum(g.tanh(g.conv2d(g.constant(xs), kn, groups=groups, stride=stride))))
    per_sample = 0.0
    for xi in xs:
        gi = Graph()
        ki = gi.constant(kernel)
        gi.watch(ki)
        gi.backward(gi.reduce_sum(gi.tanh(gi.conv2d(gi.constant(xi), ki, groups=groups, stride=stride))))
        per_sample = per_sample + ki.grad
    assert rel_close(kn.grad, per_sample, 1e-12)


@given(batches())
def test_maxpool2_batched_matches_per_sample(xs):
    _check_batched(lambda g, x: g.maxpool2(x), [xs], exact=True)


@given(batches(max_extent=4))
def test_upsample2_batched_matches_per_sample(xs):
    _check_batched(lambda g, x: g.upsample2(x), [xs], exact=True)


@given(batches(max_extent=6))
def test_fft2d_magnitude_batched_matches_per_sample(xs):
    _check_batched(lambda g, x: g.fft2d_magnitude(x), [xs], exact=False)


@given(batches())
def test_transpose_batched_matches_per_sample(xs):
    _check_batched(lambda g, x: g.transpose(x), [xs[..., 0]], exact=False)


@given(st.integers(1, 3), st.integers(1, 5), st.integers(1, 5), st.integers(1, 5),
       st.booleans(), st.integers(0, 2**32 - 1))
def test_matmul_rank3_forms_match_per_sample(B, n, k, m, stacked, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((B, n, k))
    b = rng.standard_normal((B, k, m) if stacked else (k, m))
    _check_batched(lambda g, x, y: g.matmul(x, y), [a, b], exact=False)


def test_matmul_rejects_mismatched_batches():
    g = Graph()
    with pytest.raises(ShapeError):
        g.matmul(g.constant(np.ones((2, 3, 4))), g.constant(np.ones((3, 4, 2))))


# ---- fft magnitude ---------------------------------------------------


def test_fft_magnitude_constant_image():
    c = 0.7
    g = Graph()
    out = g.fft2d_magnitude(g.constant(np.full((4, 4, 1), c)))
    expected = np.zeros((4, 4, 1))
    expected[0, 0, 0] = 16 * c
    np.testing.assert_allclose(out.value, expected, atol=1e-12)


def test_fft_magnitude_unit_impulse():
    x = np.zeros((4, 4, 1))
    x[0, 0, 0] = 1.0
    g = Graph()
    out = g.fft2d_magnitude(g.constant(x))
    np.testing.assert_allclose(out.value, np.ones((4, 4, 1)), atol=1e-12)


def test_fft_magnitude_matches_quadratic_dft_oracle():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((5, 7, 2))
    g = Graph()
    out = g.fft2d_magnitude(g.constant(x))
    assert np.abs(out.value - dft2_magnitude_quadratic(x)).max() < 1e-9


# ---- softmax / sigmoid ----------------------------------------------


def test_softmax_symmetry():
    g = Graph()
    out = g.softmax_last(g.constant([0.0, 0.0]))
    np.testing.assert_allclose(out.value, [0.5, 0.5], atol=1e-15)


def test_sigmoid_midpoint():
    g = Graph()
    assert g.sigmoid(g.constant([0.0])).value[0] == 0.5


def test_softmax_shift_invariance():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((3, 6))
    g = Graph()
    a = g.softmax_last(g.constant(x)).value
    b = g.softmax_last(g.constant(x + 100.0)).value
    assert np.abs(a - b).max() < 1e-12
    np.testing.assert_allclose(a, softmax_rows(x), atol=1e-12)


# ---- layer norm ------------------------------------------------------


def test_layer_norm_zero_and_constant_inputs():
    g = Graph()
    np.testing.assert_array_equal(layer_norm(g, g.constant(np.zeros(4))).value, np.zeros(4))
    np.testing.assert_allclose(layer_norm(g, g.constant(np.ones(4))).value, np.zeros(4), atol=1e-12)


def test_layer_norm_standardizes():
    rng = np.random.default_rng(6)
    x = rng.standard_normal(32) * 3.0 + 1.5
    g = Graph()
    out = layer_norm(g, g.constant(x)).value
    assert abs(out.mean()) < 1e-10
    assert abs(out.var() - 1.0) < 1e-3


@st.composite
def standardize_cases(draw):
    """(x, axes): rank 1-4 for the last axis, rank 3-4 for the spatial and
    whole-map axes, extents 1-4 with at least two entries reduced."""
    axes = draw(st.sampled_from([-1, (-3, -2), (-3, -2, -1)]))
    rank = draw(st.integers(1 if axes == -1 else 3, 4))
    shape = tuple(draw(st.integers(1, 4)) for _ in range(rank))
    if np.prod([shape[a] for a in np.atleast_1d(axes)]) < 2:
        shape = shape[:-1] + (2,)
    seed = draw(st.integers(0, 2**32 - 1))
    x = np.random.default_rng(seed).standard_normal(shape) * draw(st.sampled_from([0.1, 1.0, 30.0]))
    return x, axes


@given(standardize_cases())
def test_standardize_property_matches_numpy(case):
    x, axes = case
    g = Graph()
    out = g.standardize(g.constant(x), axes, 1e-5).value
    expected = (x - x.mean(axis=axes, keepdims=True)) / np.sqrt(x.var(axis=axes, keepdims=True) + 1e-5)
    assert np.abs(out - expected).max() <= 1e-12


@given(standardize_cases())
def test_standardize_property_gradcheck(case):
    x, axes = case
    store = ParamStore(0)
    store.add("x", x.shape)
    store.entries["x"].value[...] = x
    # a stream no drawn integer seed reproduces: weights affine in x would zero the grads
    weights = np.random.default_rng([1, 0x5D]).standard_normal(x.shape)

    def build(g):
        return g.reduce_sum(g.mul(g.standardize(g.param(store, "x"), axes, 1e-5), g.constant(weights)))

    check_gradients(build, store, n_coords=8, tol=1e-4)


@given(standardize_cases(), st.floats(-10.0, 10.0))
def test_standardize_property_constant_input_is_zero(case, c):
    x, axes = case
    g = Graph()
    xn = g.constant(np.full(x.shape, c))
    g.watch(xn)
    out = g.standardize(xn, axes, 1e-5)
    g.backward(g.reduce_sum(g.mul(out, g.constant(x))))
    assert np.abs(out.value).max() <= 1e-9
    assert np.isfinite(xn.grad).all()


# ---- batch norm ------------------------------------------------------


def test_batch_norm_constant_channel_is_zero_pre_affine():
    store = ParamStore(0)
    register_bn(store, "bn", 2)
    g = Graph()
    out = batch_norm(g, g.constant(np.full((3, 3, 2), 5.0)), store, "bn", train=True)
    np.testing.assert_allclose(out.value, np.zeros((3, 3, 2)), atol=1e-12)


def test_batch_norm_fixed_point():
    # variance exactly 1 - eps makes sqrt(var + eps) == 1, so a zero-mean
    # input passes through untouched
    eps = 1e-5
    base = np.array([-1.0, 1.0])
    x = (base * np.sqrt(1.0 - eps))[:, None, None] * np.ones((2, 2, 3))
    store = ParamStore(0)
    register_bn(store, "bn", 3)
    g = Graph()
    out = batch_norm(g, g.constant(x), store, "bn", train=True)
    assert np.abs(out.value - x).max() < 1e-6


def test_batch_norm_matches_statistics_oracle():
    rng = np.random.default_rng(7)
    x = rng.standard_normal((4, 5, 3)) * 2.0 + 0.3
    store = ParamStore(0)
    register_bn(store, "bn", 3)
    g = Graph()
    out = batch_norm(g, g.constant(x), store, "bn", train=True).value
    mu = x.mean(axis=(0, 1))
    var = x.var(axis=(0, 1))
    expected = (x - mu) / np.sqrt(var + 1e-5)
    assert np.abs(out - expected).max() < 1e-6
    # running buffers fold the batch statistics at momentum 0.9
    np.testing.assert_allclose(store.buffers["bn.running_mean"], 0.1 * mu, atol=1e-12)
    np.testing.assert_allclose(store.buffers["bn.running_var"], 0.9 + 0.1 * var, atol=1e-12)


def test_batch_norm_eval_uses_buffers():
    store = ParamStore(0)
    register_bn(store, "bn", 2)
    store.buffers["bn.running_mean"] = np.array([1.0, -1.0])
    store.buffers["bn.running_var"] = np.array([4.0, 9.0])
    x = np.ones((2, 2, 2))
    g = Graph()
    out = batch_norm(g, g.constant(x), store, "bn", train=False).value
    expected = (x - np.array([1.0, -1.0])) / np.sqrt(np.array([4.0, 9.0]) + 1e-5)
    np.testing.assert_allclose(out, expected, atol=1e-12)


# ---- pooling / resampling -------------------------------------------


def test_global_avg_pool_constant():
    from floodnet.layers import global_avg_pool

    g = Graph()
    out = global_avg_pool(g, g.constant(np.full((5, 4, 3), 2.5)))
    np.testing.assert_allclose(out.value, np.full((1, 1, 3), 2.5), atol=1e-15)


def test_maxpool_hand_case():
    g = Graph()
    out = g.maxpool2(g.constant(np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(2, 2, 1)))
    assert out.value.reshape(()) == 4.0


def test_maxpool_matches_window_scan():
    rng = np.random.default_rng(8)
    x = rng.standard_normal((8, 8, 3))
    g = Graph()
    np.testing.assert_array_equal(g.maxpool2(g.constant(x)).value, maxpool2_scan(x))


def test_maxpool_odd_extent_edge_replication():
    rng = np.random.default_rng(9)
    x = rng.standard_normal((5, 7, 2))
    g = Graph()
    np.testing.assert_array_equal(g.maxpool2(g.constant(x)).value, maxpool2_scan(x))


def test_upsample_replicates_single_value():
    g = Graph()
    out = g.upsample2(g.constant(np.full((1, 1, 1), 3.0)))
    np.testing.assert_array_equal(out.value, np.full((2, 2, 1), 3.0))


def test_upsample_gradient_counts_replicas():
    g = Graph()
    x = g.constant(np.zeros((2, 2, 1)))
    g.watch(x)
    loss = g.reduce_sum(g.upsample2(x))
    g.backward(loss)
    np.testing.assert_array_equal(x.grad, np.full((2, 2, 1), 4.0))


def test_upsample_avgpool_round_trip():
    rng = np.random.default_rng(10)
    x = rng.standard_normal((3, 4, 2))
    g = Graph()
    up = g.upsample2(g.constant(x)).value
    back = up.reshape(3, 2, 4, 2, 2).mean(axis=(1, 3))
    np.testing.assert_allclose(back, x, atol=1e-15)


# ---- backward --------------------------------------------------------


def test_backward_linear_loss():
    store = ParamStore(0)
    store.add("w", (3, 4))
    g = Graph()
    loss = g.reduce_sum(g.param(store, "w"))
    g.backward(loss)
    np.testing.assert_array_equal(store.entries["w"].grad, np.ones((3, 4)))


def test_backward_quadratic_loss():
    store = ParamStore(0)
    store.add("w", (3, 4))
    g = Graph()
    w = g.param(store, "w")
    loss = g.scale(g.reduce_sum(g.mul(w, w)), 0.5)
    g.backward(loss)
    np.testing.assert_allclose(store.entries["w"].grad, store.entries["w"].value, atol=1e-15)


def test_backward_rejects_non_scalar():
    g = Graph()
    with pytest.raises(ContractError):
        g.backward(g.constant(np.ones(3)))


def test_backward_keeps_only_constant_and_requested_grads():
    store = ParamStore(0)
    store.add("w", (3, 2))
    x = np.random.default_rng(0).standard_normal((4, 3))
    g = Graph()
    xn = g.constant(x)
    g.watch(xn)
    h = g.tanh(g.matmul(xn, g.param(store, "w")))
    unreached = g.relu(xn)
    mid = g.sigmoid(h)
    g.backward(g.reduce_sum(g.mul(mid, mid)), keep=(h, unreached))
    assert all(n.grad is None for n in g.nodes if n.bwd is not None and n not in (h, unreached))
    assert xn.grad.shape == x.shape and store.entries["w"].grad.any()
    np.testing.assert_array_equal(unreached.grad, np.zeros_like(x))
    # the kept grad equals that of h's value fed as a constant to the downstream ops
    ref = Graph()
    hc = ref.constant(h.value)
    ref.watch(hc)
    mid = ref.sigmoid(hc)
    ref.backward(ref.reduce_sum(ref.mul(mid, mid)))
    np.testing.assert_array_equal(h.grad, hc.grad)
    with pytest.raises(ContractError):
        g.backward(g.reduce_sum(h), keep=(hc,))


def test_dropped_tape_is_freed_without_the_cycle_collector():
    store = ParamStore(0)
    store.add("w", (3, 3))
    gc.disable()
    try:
        g = Graph()
        x = g.conv2d(g.constant(np.ones((2, 4, 4, 3))), g.constant(np.ones((3, 3, 3, 2))))
        loss = g.reduce_sum(g.tanh(g.matmul(g.reshape(x, (2, 16, 2)), g.narrow(g.param(store, "w"), 0, 0, 2))))
        g.backward(loss)
        graph, value = weakref.ref(g), weakref.ref(x.value)
        del g, x, loss
        assert graph() is None and value() is None
    finally:
        gc.enable()


def test_composite_forward_matches_finite_differences():
    from floodnet.gradcheck import check_gradients

    store = ParamStore(11)
    store.add("a", (3, 3))
    store.add("b", (3, 2))

    def build(g):
        h = g.tanh(g.matmul(g.param(store, "a"), g.param(store, "b")))
        s = g.sigmoid(g.reduce_sum(g.mul(h, h)))
        return g.softplus(g.add(s, 0.5))

    _, max_err = check_gradients(build, store, n_coords=25, seed=1)
    assert max_err <= 1e-4


def test_gradcheck_negative_control():
    # a param used through a value-only detour hides part of the gradient,
    # so the finite-difference check must fail
    from floodnet.gradcheck import check_gradients

    store = ParamStore(12)
    store.add("w", (4,))

    def build(g):
        w = g.param(store, "w")
        # wrong on purpose: constant copy breaks the w^2 gradient path
        frozen = g.constant(store.entries["w"].value)
        return g.reduce_sum(g.add(w, g.mul(frozen, frozen)))

    with pytest.raises(AssertionError):
        check_gradients(build, store, n_coords=20, seed=2)


# ---- gradcheck properties of the remaining ops -------------------------


def _draw_array(draw, shape, scale=1.0):
    return np.random.default_rng(draw(st.integers(0, 2**32 - 1))).standard_normal(shape) * scale


@st.composite
def shapes(draw):
    return tuple(draw(st.integers(1, 4)) for _ in range(draw(st.integers(1, 4))))


@st.composite
def broadcast_pairs(draw):
    """(a, b) where b's shape is a trailing part of a's with some extents
    set to 1, in either order."""
    full = draw(shapes())
    tail = full[len(full) - draw(st.integers(1, len(full))):]
    part = tuple(1 if draw(st.booleans()) else n for n in tail)
    a, b = _draw_array(draw, full), _draw_array(draw, part)
    return (a, b) if draw(st.booleans()) else (b, a)


@given(st.sampled_from(["add", "sub", "mul"]), broadcast_pairs())
def test_binary_elementwise_property_gradcheck(name, pair):
    _gradcheck_every_operand(lambda g, a, b: getattr(g, name)(a, b), pair)


@given(shapes(), st.floats(-3.0, 3.0), st.data())
def test_scale_property_gradcheck(shape, c, data):
    _gradcheck_every_operand(lambda g, a: g.scale(a, c), [_draw_array(data.draw, shape)])


@given(st.sampled_from(["sigmoid", "tanh", "relu", "softplus"]), shapes(),
       st.sampled_from([0.5, 3.0]), st.data())
def test_unary_elementwise_property_gradcheck(name, shape, scale, data):
    x = _draw_array(data.draw, shape, scale)
    if name == "relu":
        x = np.where(x < 0.0, x - 0.1, x + 0.1)  # keep the finite differences off the kink
    _gradcheck_every_operand(lambda g, a: getattr(g, name)(a), [x])


@st.composite
def reduce_cases(draw):
    """(x, axes, keepdims): axes None, one axis or several distinct axes,
    each given as a positive or a negative index."""
    shape = draw(shapes())
    rank = len(shape)
    picked = draw(st.lists(st.integers(0, rank - 1), min_size=1, max_size=rank, unique=True))
    picked = [a - rank if draw(st.booleans()) else a for a in picked]
    axes = draw(st.sampled_from([None, picked[0], tuple(picked)]))
    return _draw_array(draw, shape), axes, draw(st.booleans())


@given(st.sampled_from(["reduce_sum", "reduce_mean"]), reduce_cases())
def test_reduce_property_gradcheck(name, case):
    x, axes, keepdims = case
    _gradcheck_every_operand(lambda g, a: getattr(g, name)(a, axes, keepdims), [x])


@given(shapes(), st.sampled_from([1.0, 10.0]), st.data())
def test_softmax_last_property_gradcheck(shape, scale, data):
    _gradcheck_every_operand(lambda g, a: g.softmax_last(a), [_draw_array(data.draw, shape, scale)])


@given(shapes(), st.integers(1, 3), st.data())
def test_concat_property_gradcheck(shape, n_parts, data):
    axis = data.draw(st.integers(-len(shape), len(shape) - 1))
    parts = []
    for _ in range(n_parts):
        extent = list(shape)
        extent[axis] = data.draw(st.integers(1, 3))
        parts.append(_draw_array(data.draw, tuple(extent)))
    _gradcheck_every_operand(lambda g, *ps: g.concat(ps, axis), parts)


@given(shapes(), st.data())
def test_narrow_property_gradcheck(shape, data):
    axis = data.draw(st.integers(-len(shape), len(shape) - 1))
    start = data.draw(st.integers(0, shape[axis] - 1))
    length = data.draw(st.integers(1, shape[axis] - start))
    _gradcheck_every_operand(lambda g, a: g.narrow(a, axis, start, length), [_draw_array(data.draw, shape)])


@given(shapes(), st.data())
def test_reshape_property_gradcheck(shape, data):
    target = data.draw(st.permutations(shape + (1,) * (4 - len(shape))))
    if data.draw(st.booleans()):
        target = (-1,) + tuple(target[1:])
    _gradcheck_every_operand(lambda g, a: g.reshape(a, target), [_draw_array(data.draw, shape)])


@given(shapes(), st.sampled_from([0.0, 0.25, 0.5]), st.data())
def test_dropout_property_gradcheck(shape, rate, data):
    uniforms = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))).uniform(size=shape)
    _gradcheck_every_operand(lambda g, a: g.dropout(a, rate, uniforms), [_draw_array(data.draw, shape)])


@given(conv_cases())
def test_watch_property_gradcheck(case):
    """A watched constant gets the gradient that check_gradients verifies
    for the same value held as a parameter, through a conv whose kernel is
    inactive."""
    x, kernel, groups, stride = case
    store = ParamStore(0)
    store.add("x", x.shape)
    store.entries["x"].value[...] = x
    weights = np.random.default_rng(1).standard_normal(
        Graph().conv2d(x, kernel, groups=groups, stride=stride).shape)

    def build(g, leaf):
        out = g.conv2d(leaf, g.constant(kernel), groups=groups, stride=stride)
        return g.reduce_sum(g.mul(g.tanh(out), g.constant(weights)))

    check_gradients(lambda g: build(g, g.param(store, "x")), store, n_coords=6)
    g = Graph()
    xn = g.watch(g.constant(x))
    g.backward(build(g, xn))
    np.testing.assert_array_equal(xn.grad, store.entries["x"].grad)


@st.composite
def rule_cases(draw, name):
    """(op, operands): the op `name` and its operand values."""
    if name in ("add", "sub", "mul"):
        operands = list(draw(broadcast_pairs()))
        op = lambda g, a, b: getattr(g, name)(a, b)
    elif name == "matmul":
        B, n, k, m = (draw(st.integers(1, 3)) for _ in range(4))
        lead = draw(st.sampled_from([(), (B,)]))
        right = lead if lead and draw(st.booleans()) else ()
        operands = [_draw_array(draw, lead + (n, k)), _draw_array(draw, right + (k, m))]
        op = lambda g, a, b: g.matmul(a, b)
    elif name == "concat":
        operands = [_draw_array(draw, (2, draw(st.integers(1, 3)))) for _ in range(draw(st.integers(1, 3)))]
        op = lambda g, *ps: g.concat(ps, -1)
    elif name == "conv2d":
        x, kernel, groups, stride = draw(conv_cases())
        operands = [x, kernel]
        op = lambda g, a, b: g.conv2d(a, b, groups=groups, stride=stride)
    else:
        operands = [_draw_array(draw, (3, 4, 2))]
        op = lambda g, a: getattr(g, name)(a)
    return op, operands


@pytest.mark.parametrize("name", ["add", "sub", "mul", "matmul", "concat", "conv2d", "tanh", "maxpool2"])
@given(data=st.data(), seed=st.integers(0, 2**32 - 1))
def test_property_no_rule_writes_a_grad_for_an_inactive_parent(name, data, seed):
    op, operands = data.draw(rule_cases(name))

    def run(watched):
        g = Graph()
        leaves = [g.constant(v) for v in operands]
        for leaf, w in zip(leaves, watched):
            if w:
                g.watch(leaf)
        out = op(g, *leaves)
        written = _LazyGrads(g.nodes)
        if out.bwd is not None:
            out.bwd(np.random.default_rng(seed).standard_normal(out.shape), written)
        return out, [leaf.idx for leaf, w in zip(leaves, watched) if w], written

    # the grads a rule writes are those it writes when every parent is active
    _, _, full = run([True] * len(operands))
    for watched in itertools.product((False, True), repeat=len(operands)):
        out, active, written = run(watched)
        assert out.active == any(watched) and (out.bwd is None) == (not any(watched))
        assert sorted(written) == active
        for idx in active:
            np.testing.assert_array_equal(written[idx], full[idx])


def test_param_leaves_are_sources_only_in_a_graph_that_takes_param_grads():
    store = ParamStore(0)
    store.add("w", (3, 2))
    x = np.random.default_rng(0).standard_normal((4, 3))
    for param_grads in (True, False):
        store.entries["w"].grad[...] = 7.0
        g = Graph(param_grads=param_grads)
        xn = g.watch(g.constant(x))
        w = g.param(store, "w")
        g.backward(g.reduce_sum(g.tanh(g.matmul(xn, w))))
        assert w.active == param_grads and (w.bwd is not None) == param_grads
        assert (store.entries["w"].grad != 7.0).all() == param_grads
        assert xn.grad.shape == x.shape


def test_watch_rejects_a_node_an_op_already_read():
    g = Graph()
    x = g.constant(np.ones(3))
    y = g.tanh(x)
    with pytest.raises(ContractError):
        g.watch(x)
    assert not x.active and y.bwd is None
    g.watch(y)
    assert y.active and y.bwd is None


# every public Graph method that records a node with a backward rule, plus
# watch, which makes a node a source, and the property test that runs
# check_gradients through it
GRADCHECK_PROPERTIES = {
    "add": test_binary_elementwise_property_gradcheck,
    "sub": test_binary_elementwise_property_gradcheck,
    "mul": test_binary_elementwise_property_gradcheck,
    "scale": test_scale_property_gradcheck,
    "sigmoid": test_unary_elementwise_property_gradcheck,
    "tanh": test_unary_elementwise_property_gradcheck,
    "relu": test_unary_elementwise_property_gradcheck,
    "softplus": test_unary_elementwise_property_gradcheck,
    "matmul": test_matmul_rank3_forms_match_per_sample,
    "transpose": test_transpose_batched_matches_per_sample,
    "reshape": test_reshape_property_gradcheck,
    "concat": test_concat_property_gradcheck,
    "narrow": test_narrow_property_gradcheck,
    "reduce_sum": test_reduce_property_gradcheck,
    "reduce_mean": test_reduce_property_gradcheck,
    "softmax_last": test_softmax_last_property_gradcheck,
    "standardize": test_standardize_property_gradcheck,
    "conv2d": test_conv2d_property_gradcheck,
    "fft2d_magnitude": test_fft2d_magnitude_batched_matches_per_sample,
    "maxpool2": test_maxpool2_batched_matches_per_sample,
    "upsample2": test_upsample2_batched_matches_per_sample,
    "dropout": test_dropout_property_gradcheck,
    "watch": test_watch_property_gradcheck,
}


def test_every_recording_op_has_a_gradcheck_property():
    ops = {name for name, fn in vars(Graph).items() if callable(fn) and not name.startswith("_")}
    # backward records nothing; constant and param are the leaves: a constant
    # has no rule, and every check_gradients call reads the param sinks
    ops -= {"backward", "constant", "param"}
    assert ops == set(GRADCHECK_PROPERTIES)
