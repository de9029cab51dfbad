import gc
import itertools
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from floodnet import autodiff, layers
from floodnet.autodiff import ContractError, Graph, ShapeError, _Grads
from floodnet.data import generate_synthetic_dataset
from floodnet.gradcheck import check_gradients
from floodnet.layers import batch_norm, layer_norm
from floodnet.model import FloodNet
from floodnet.params import ParamStore

from conftest import make_tiny_config
from oracles import (
    attention_loops,
    attention_rows,
    conv2d_loops,
    dft2_magnitude_quadratic,
    matmul_loops,
    gated_norm_pool_chain,
    lstm_unrolled,
    maxpool2_grad_scan,
    maxpool2_scan,
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
        g.matmul(g.constant(np.ones(3)), g.constant(np.ones(3)))


def test_matmul_rank1_row_equals_the_one_row_matrix():
    """(k,) @ (k, m) is the (1, k) row's product, value and gradients alike."""
    rng = np.random.default_rng(5)
    x, w = rng.standard_normal(4), rng.standard_normal((4, 3))
    weights = rng.standard_normal(3)
    runs = []
    for row in (x, x.reshape(1, 4)):
        g = Graph()
        xn, wn = g.watch(g.constant(row)), g.watch(g.constant(w))
        out = g.matmul(xn, wn)
        g.backward(g.reduce_sum(g.mul(g.tanh(out), g.constant(weights))))
        runs.append((out, xn.grad, wn.grad))
    (out1, dx1, dw1), (out2, dx2, dw2) = runs
    assert out1.shape == (3,) and out2.shape == (1, 3) and dx1.shape == (4,)
    np.testing.assert_array_equal(out1.value, out2.value[0])
    np.testing.assert_array_equal(dx1, dx2[0])
    np.testing.assert_array_equal(dw1, dw2)
    _gradcheck_every_operand(lambda g, a, b: g.matmul(a, b), [x, w])


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
    """Legal conv2d operands: K in {1,3,5,7}, groups in {1, 2, C_in};
    extents may be odd."""
    K = draw(st.sampled_from((1, 3, 5, 7)))
    c_in = draw(st.integers(1, 4))
    groups = draw(st.sampled_from(sorted({g for g in (1, 2, c_in) if c_in % g == 0})))
    c_out = groups * draw(st.integers(1, 2))
    H, W = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cig = c_in // groups
    kernel = rng.standard_normal((K, K, cig, c_out)) / np.sqrt(K * K * cig)
    return rng.standard_normal((H, W, c_in)), kernel, groups


@given(conv_cases())
def test_conv2d_property_matches_loop_oracle(case):
    x, kernel, groups = case
    g = Graph()
    out = g.conv2d(g.constant(x), g.constant(kernel), groups=groups)
    assert np.abs(out.value - conv2d_loops(x, kernel, groups)).max() <= 1e-10


@given(conv_cases())
def test_conv2d_property_gradcheck(case):
    x, kernel, groups = case
    store = ParamStore(0)
    for name, value in (("x", x), ("kernel", kernel)):
        store.add(name, value.shape)
        store.entries[name].value[...] = value

    def build(g):
        out = g.conv2d(g.param(store, "x", x.shape), g.param(store, "kernel", kernel.shape), groups=groups)
        return g.reduce_sum(g.tanh(out))

    for name in ("kernel", "x"):
        check_gradients(build, store, names=[name], n_coords=6)


# Cases on each side of conv2d's kernel rule, H*W*C_out/groups <= nb*K*K:
# (leading extents, H, W, C_in, C_out, K, groups, dense)
RULE_CASES = {
    "mfim_k7_batch2": ((2,), 4, 4, 64, 22, 7, 1, False),
    "groups2": ((4,), 4, 4, 4, 4, 3, 2, True),
    "depthwise": ((2,), 4, 4, 3, 3, 7, 3, True),
    "k5_batch2": ((2,), 4, 4, 2, 2, 5, 1, True),
    "8x8_k3_batch1": ((1,), 8, 8, 3, 2, 3, 1, False),
}
CONV_KERNELS = {"dense": autodiff._conv_dense, "im2col": autodiff._conv_im2col}


def _kernels_run(monkeypatch):
    """The list of kernels conv2d runs from here on, by kind, in order."""
    ran = []
    for kind, fn in CONV_KERNELS.items():
        monkeypatch.setattr(autodiff, f"_conv_{kind}", lambda *a, kind=kind, fn=fn: ran.append(kind) or fn(*a))
    return ran


def _rule_case(name):
    lead, H, W, c_in, c_out, K, groups, dense = RULE_CASES[name]
    rng = np.random.default_rng(sorted(RULE_CASES).index(name))
    kernel = rng.standard_normal((K, K, c_in // groups, c_out)) / np.sqrt(K * K * c_in // groups)
    return rng.standard_normal(lead + (H, W, c_in)), kernel, groups, dense


@pytest.mark.parametrize("name", RULE_CASES)
def test_conv2d_rule_picks_the_kernel_with_the_smaller_matrix(name, monkeypatch):
    x, kernel, groups, dense = _rule_case(name)
    ran = _kernels_run(monkeypatch)
    Graph().conv2d(x, kernel, groups=groups)
    assert ran == ["dense" if dense else "im2col"]


@pytest.mark.parametrize("kind", CONV_KERNELS)
@pytest.mark.parametrize("name", RULE_CASES)
def test_conv2d_kernel_matches_loop_oracle_and_gradcheck(name, kind, monkeypatch):
    """Each kernel, forced whichever the rule picks, on every case; the
    other kernel, forced too, gives the same dx and dk to 1e-12, im2col's
    dx being a conv of g and the dense kernel's g times the map's matrix."""
    x, kernel, groups, _ = _rule_case(name)
    weights = np.random.default_rng(1).standard_normal(x.shape[:-1] + kernel.shape[-1:])

    def forced(k):
        monkeypatch.setattr(autodiff, "_conv_dense", CONV_KERNELS[k])
        monkeypatch.setattr(autodiff, "_conv_im2col", CONV_KERNELS[k])
        g = Graph()
        xn, kn = g.watch(g.constant(x)), g.watch(g.constant(kernel))
        out = g.conv2d(xn, kn, groups=groups)
        g.backward(g.reduce_sum(g.mul(out, g.constant(weights))))
        return out.value, xn.grad, kn.grad

    _, dx_other, dk_other = forced(next(k for k in CONV_KERNELS if k != kind))
    out, dx, dk = forced(kind)
    assert rel_close(dx, dx_other, 1e-12) and rel_close(dk, dk_other, 1e-12)
    H, W, c_in = x.shape[-3:]
    want = [conv2d_loops(xi, kernel, groups) for xi in x.reshape(-1, H, W, c_in)]
    assert np.abs(out - np.reshape(want, out.shape)).max() <= 1e-10
    store = ParamStore(0)
    for pname, value in (("x", x), ("kernel", kernel)):
        store.add(pname, value.shape)
        store.entries[pname].value[...] = value

    def build(g):
        out = g.conv2d(g.param(store, "x", x.shape), g.param(store, "kernel", kernel.shape), groups=groups)
        return g.reduce_sum(g.tanh(out))

    for pname in ("kernel", "x"):
        check_gradients(build, store, names=[pname], n_coords=6)


def test_conv2d_batch_that_crosses_the_rule_matches_per_sample(monkeypatch):
    """5x5 kernel on 4x4x2 maps: one sample runs im2col (16*2 > 25), a batch
    of three the dense kernel (32 <= 75)."""
    rng = np.random.default_rng(4)
    xs, kernel = rng.standard_normal((3, 4, 4, 2)), rng.standard_normal((5, 5, 2, 2)) / 5.0
    ran = _kernels_run(monkeypatch)

    def kernel_grad(x):
        g = Graph()
        kn = g.watch(g.constant(kernel))
        g.backward(g.reduce_sum(g.tanh(g.conv2d(g.constant(x), kn))))
        return kn.grad

    batched = kernel_grad(xs)
    per_sample = sum(kernel_grad(xi) for xi in xs)
    assert ran == ["dense", "im2col", "im2col", "im2col"]
    assert rel_close(batched, per_sample, 1e-12)
    _check_batched(lambda g, xn: g.conv2d(xn, g.constant(kernel)), [xs], exact=False)


# ---- im2col chunks ------------------------------------------------------


def _im2col_maps_per_chunk(H, W, c_in, K):
    """How many maps of (H, W, c_in) one im2col chunk takes: their lowering
    along W, (H+K-1) x W*K*c_in, and their padded input, in f64, within
    IM2COL_CHUNK_BYTES."""
    per_map = ((H + K - 1) * W * K + (H + K - 1) * (W + K - 1)) * c_in * 8
    return max(1, autodiff.IM2COL_CHUNK_BYTES // per_map)


@pytest.mark.parametrize("groups, K", [(1, 3), (2, 3), (1, 1), (2, 1), (1, 5), (2, 5)],
                         ids=["1", "2", "1-K1", "2-K1", "1-K5", "2-K5"])
def test_conv2d_im2col_over_several_chunks(groups, K, monkeypatch):
    """A batch of two full im2col chunks of x and a ragged third: each map
    matches the loop oracle and the map run alone, and check_gradients
    passes on x and on the kernel.  dx, the conv of g, runs over more than
    one chunk too.  K = 1 lowers without padding, and K = 5 reads row taps
    past i = 2."""
    H = W = 16
    c_in, c_out = 4, 4 * groups  # 4 * groups keeps the batch off the dense kernel at K = 5
    chunk = _im2col_maps_per_chunk(H, W, c_in, K)
    assert chunk >= 2
    nb = 2 * chunk + chunk // 2
    assert nb > _im2col_maps_per_chunk(H, W, c_out, K)
    rng = np.random.default_rng(groups * 10 + 1)
    x = rng.standard_normal((nb, H, W, c_in))
    kernel = rng.standard_normal((K, K, c_in // groups, c_out)) / np.sqrt(K * K * c_in // groups)
    ran = _kernels_run(monkeypatch)
    op = lambda g, xn, kn: g.conv2d(xn, kn, groups=groups)

    planned = []
    monkeypatch.setattr(autodiff, "_spans", lambda *a, f=autodiff._spans: planned.append(f(*a)) or planned[-1])
    batched = op(Graph(), x, kernel).value
    assert [(c, len(spans)) for c, spans in planned] == [(chunk, 3)]
    alone = np.stack([op(Graph(), xi, kernel).value for xi in x])
    assert ran == ["im2col"] * (nb + 1)
    assert np.abs(batched - alone).max() <= 1e-12
    for got, xi in zip(batched, x):
        assert np.abs(got - conv2d_loops(xi, kernel, groups)).max() <= 1e-12
    _gradcheck_every_operand(op, [x, kernel])


def test_conv2d_im2col_holds_one_chunk_of_columns():
    """Forward and backward of a conv whose full im2col matrix would be
    6.75 MiB allocate no more than the output, its gradient, dx, and the
    largest chunk that _spans plans for one of the three passes, with one
    row tap's product over it, and 64 KiB of small arrays.  The forward
    and dk lower chunks of x and its padded input; dx lowers g's, and one
    sample of those over C_out = 8 channels is 1.04 MiB, above the budget,
    so its chunk is the one-sample floor."""
    rng = np.random.default_rng(8)
    x, kernel = rng.standard_normal((8, 64, 64, 3)), rng.standard_normal((3, 3, 3, 8))
    full_columns = 8 * 64 * 64 * 3 * 3 * 3 * 8
    assert full_columns >= 6 * 2**20
    g = Graph()
    xn, kn = g.watch(g.constant(x)), g.watch(g.constant(kernel))
    tracemalloc.start()
    try:
        out = g.conv2d(xn, kn)
        g.backward(g.reduce_sum(out))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert xn.grad.shape == x.shape and kn.grad.shape == kernel.shape
    per_sample = lambda c: (66 * 64 * 3 + 66 * 66) * c * 8  # one map's lowering and padded input
    tap_product = lambda c: 64 * 64 * c * 8  # one map's product with one kernel row, over c outputs
    passes = [autodiff._spans(8, per_sample(c))[0] * (per_sample(c) + tap_product(c_prod))
              for c, c_prod in ((3, 8), (8, 3))]  # x's, g's
    assert per_sample(8) > autodiff.IM2COL_CHUNK_BYTES
    bound = 2 * out.value.nbytes + x.nbytes + max(passes) + 64 * 2**10
    assert bound < full_columns + 2 * out.value.nbytes
    assert peak <= bound, (peak, bound)


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
        out = op(g, *(g.param(store, n, v.shape) for n, v in zip(names, operands)))
        return g.reduce_sum(g.mul(g.tanh(out), g.constant(weights)))

    for name in names:
        check_gradients(build, store, names=[name], n_coords=6)


@st.composite
def batches(draw, max_extent=7, step=1):
    """A batch of 1-3 maps (B, H, W, C) with small extents, multiples of step."""
    B = draw(st.integers(1, 3))
    H, W = (step * draw(st.integers(1, max_extent // step)) for _ in range(2))
    C = draw(st.integers(1, 3))
    return np.random.default_rng(draw(st.integers(0, 2**32 - 1))).standard_normal((B, H, W, C))


@given(conv_cases(), st.integers(1, 3), st.integers(0, 2**32 - 1))
def test_conv2d_batched_matches_per_sample(case, B, seed):
    x, kernel, groups = case
    xs = np.random.default_rng(seed).standard_normal((B,) + x.shape)
    # the kernel has rank 4, so the per-sample runs share it as a constant
    op = lambda g, xn: g.conv2d(xn, g.constant(kernel), groups=groups)
    _check_batched(op, [xs], exact=False)
    g = Graph()
    kn = g.constant(kernel)
    g.watch(kn)
    g.backward(g.reduce_sum(g.tanh(g.conv2d(g.constant(xs), kn, groups=groups))))
    per_sample = 0.0
    for xi in xs:
        gi = Graph()
        ki = gi.constant(kernel)
        gi.watch(ki)
        gi.backward(gi.reduce_sum(gi.tanh(gi.conv2d(gi.constant(xi), ki, groups=groups))))
        per_sample = per_sample + ki.grad
    assert rel_close(kn.grad, per_sample, 1e-12)


@given(batches(max_extent=8, step=2))
def test_maxpool2_batched_matches_per_sample(xs):
    _check_batched(lambda g, x: g.maxpool2(x), [xs], exact=True)


@given(batches(max_extent=6))
def test_fft2d_magnitude_batched_matches_per_sample(xs):
    _check_batched(lambda g, x: g.fft2d_magnitude(x), [xs], exact=False)


@given(st.integers(1, 3), st.integers(1, 5), st.integers(1, 5), st.integers(1, 5),
       st.integers(0, 2**32 - 1))
def test_matmul_rank3_forms_match_per_sample(B, n, k, m, seed):
    rng = np.random.default_rng(seed)
    a, b = rng.standard_normal((B, n, k)), rng.standard_normal((k, m))
    _check_batched(lambda g, x, y: g.matmul(x, y), [a, b], exact=False)


def test_matmul_rejects_mismatched_batches():
    """The right operand is one (k, m) matrix: a stack of them is refused,
    whether or not its leading extent matches the left operand's."""
    g = Graph()
    for right in ((3, 4, 2), (2, 4, 2)):
        with pytest.raises(ShapeError):
            g.matmul(g.constant(np.ones((2, 3, 4))), g.constant(np.ones(right)))


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


# ---- attention / sigmoid --------------------------------------------


def test_softmax_symmetry():
    """Zero queries weigh every key alike: each row is the mean of v's rows."""
    v = np.random.default_rng(5).standard_normal((4, 6))
    g = Graph()
    out = g.attention(np.zeros((3, 6)), np.ones((4, 6)), v, 2)
    np.testing.assert_allclose(out.value, np.tile(v.mean(axis=0), (3, 1)), rtol=0, atol=1e-15)


def test_sigmoid_midpoint():
    g = Graph()
    assert g.sigmoid(g.constant([0.0])).value[0] == 0.5


def test_sigmoid_softplus_and_lstm_stay_finite_at_800():
    """The one sigmoid kernel where exp(800) overflows: sigmoid reaches
    exactly 0 and 1, and sigmoid, softplus and lstm stay finite, with their
    gradients, raising no floating point error.  Underflow stays at numpy's
    default: exp(-800) underflowing to 0 is how the sigmoid reaches 1."""
    rng = np.random.default_rng(4)
    z = np.array([-800.0, -40.0, 0.0, 40.0, 800.0])
    xw = 800.0 * np.where(rng.random((2, 3, 8)) < 0.5, -1.0, 1.0)
    u, b, weights = rng.standard_normal((2, 8)), rng.standard_normal(8), rng.standard_normal((2, 3, 2))
    with np.errstate(all="raise", under="ignore"):
        g = Graph()
        zn = g.watch(g.constant(z))
        s, sp = g.sigmoid(zn), g.softplus(zn)
        g.backward(g.reduce_sum(g.add(s, sp)))
        lg = Graph()
        xn, un, bn = (lg.watch(lg.constant(v)) for v in (xw, u, b))
        h = lg.lstm(xn, un, bn)
        lg.backward(lg.reduce_sum(lg.mul(h, weights)))
    np.testing.assert_array_equal(s.value[[0, -1]], [0.0, 1.0])
    np.testing.assert_array_equal(sp.value[[0, -1]], [0.0, 800.0])
    # d(sigmoid + softplus) = s * (1 - s) + s
    np.testing.assert_array_equal(zn.grad[[0, -1]], [0.0, 1.0])
    assert np.isfinite(zn.grad).all() and np.isfinite(h.value).all()
    for node in (xn, un, bn):
        assert np.isfinite(node.grad).all()


def test_softmax_shift_invariance():
    """Scores of about 1e3, where exp overflows unless the softmax shifts by
    the row maximum, stay finite and match the loop oracle head by head."""
    rng = np.random.default_rng(5)
    x, wq, wk, wv = rng.standard_normal((5, 4)), *rng.standard_normal((3, 4, 4))
    c = 1.0 / np.sqrt(2)
    wq *= 1e3 / np.abs((x @ wq)[:, :2] @ (x @ wk)[:, :2].T * c).max()
    g = Graph()
    out = g.attention(x @ wq, x @ wk, x @ wv, 2).value
    want = np.concatenate([attention_loops(x, wq[:, h], wk[:, h], wv[:, h], c)
                           for h in (slice(0, 2), slice(2, 4))], axis=1)
    assert np.isfinite(out).all()
    assert rel_close(out, want, 1e-12)


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
    out = g.standardize(g.constant(x), axes).value
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
        return g.reduce_sum(g.mul(g.standardize(g.param(store, "x", x.shape), axes), g.constant(weights)))

    check_gradients(build, store, n_coords=8)


@given(standardize_cases(), st.floats(-10.0, 10.0))
def test_standardize_property_constant_input_is_zero(case, c):
    x, axes = case
    g = Graph()
    xn = g.constant(np.full(x.shape, c))
    g.watch(xn)
    out = g.standardize(xn, axes)
    g.backward(g.reduce_sum(g.mul(out, g.constant(x))))
    assert np.abs(out.value).max() <= 1e-9
    assert np.isfinite(xn.grad).all()


@st.composite
def affine_standardize_cases(draw):
    """(x, axes, gamma, beta): axes that keep the channel axis, the spatial
    pair or H alone, with at least two entries reduced; gamma and beta (C,)."""
    axes = draw(st.sampled_from([(-3, -2), -2]))
    shape = tuple(draw(st.integers(1, 4)) for _ in range(draw(st.integers(3, 4))))
    if np.prod([shape[a] for a in np.atleast_1d(axes)]) < 2:
        shape = shape[:-3] + (shape[-3], 2, shape[-1])
    C = shape[-1]
    x = _draw_array(draw, shape, draw(st.sampled_from([0.1, 1.0, 30.0])))
    return x, axes, _draw_array(draw, (C,)), _draw_array(draw, (C,))


@given(affine_standardize_cases())
# gamma of either sign and zero, so dx vanishes in one channel and d(gamma) does not
@example(case=(np.arange(24.0).reshape(2, 3, 2, 2) % 5, (-3, -2), np.array([0.0, -1.5]), np.array([0.3, 0.0])))
# two values per slice: the whole dx is the eps term, ~eps / d^3
@example(case=(np.array([[[0.3, -1.2]], [[-0.9, 0.4]]]), (-3, -2), np.array([1.5, -0.5]), np.array([0.2, -0.3])))
def test_standardize_affine_property_gradcheck(case):
    """standardize(x, axes, (gamma, beta)) is the numpy oracle times gamma
    plus beta, and check_gradients passes on x, and on gamma and beta."""
    x, axes, gamma, beta = case
    g = Graph()
    out = g.standardize(g.constant(x), axes, (g.constant(gamma), g.constant(beta))).value
    norm = (x - x.mean(axis=axes, keepdims=True)) / np.sqrt(x.var(axis=axes, keepdims=True) + 1e-5)
    assert np.abs(out - (norm * gamma + beta)).max() <= 1e-12 * max(1.0, np.abs(gamma).max())
    store = ParamStore(0)
    for name, value in (("x", x), ("gamma", gamma), ("beta", beta)):
        store.add(name, value.shape)
        store.entries[name].value[...] = value
    weights = np.random.default_rng([1, 0x5D]).standard_normal(x.shape)

    def build(g):
        affine = (g.param(store, "gamma", gamma.shape), g.param(store, "beta", beta.shape))
        normed = g.standardize(g.param(store, "x", x.shape), axes, affine)
        return g.reduce_sum(g.mul(normed, g.constant(weights)))

    check_gradients(build, store, names=["x"], n_coords=8)
    check_gradients(build, store, names=["gamma", "beta"], n_coords=6)


def test_standardize_affine_rejects_what_is_not_per_channel():
    g = Graph()
    x = g.constant(np.ones((2, 3, 4)))
    ones = g.constant(np.ones(4))
    with pytest.raises(ShapeError, match="keep the last axis"):
        g.standardize(x, -1, (ones, ones))
    with pytest.raises(ShapeError, match="want"):
        g.standardize(x, (-3, -2), (ones, g.constant(np.ones(3))))


# ---- gated normalization and pooling ------------------------------------


def _identity_stats(C):
    """Running statistics whose 1 / sqrt(var + NORM_EPS) is exactly 1: with
    them, gamma 1 and beta 0, gated_norm_pool pools the swish gate alone."""
    return np.zeros(C), np.full(C, 1.0 - autodiff.NORM_EPS)


def _gate_pool(g, x, mask=None, scale=1.0):
    """gated_norm_pool of x under _identity_stats: maxpool2 of the gate."""
    C = x.shape[-1]
    return g.gated_norm_pool(x, (np.ones(C), np.zeros(C)), mask, scale, _identity_stats(C))[0]


def _first_max_scatter(y, g):
    """maxpool2_grad_scan over every (H, W, C) map of y."""
    maps, gs = y.reshape((-1,) + y.shape[-3:]), g.reshape((-1,) + g.shape[-3:])
    return np.stack([maxpool2_grad_scan(m, gi) for m, gi in zip(maps, gs)]).reshape(y.shape)


def _gate_grad(x, dy, float_mask):
    """The swish gate's gradient in closed form, dy * s * (1 + x * (1 - s))
    times the float mask and (x > 0), s = sigmoid(x)."""
    with np.errstate(over="ignore"):
        s = 1.0 / (1.0 + np.exp(-x))
    d = ((1.0 - s) * x + 1.0) * s * dy
    return (d if float_mask is None else d * float_mask) * (x > 0.0)


@st.composite
def gate_cases(draw):
    """(x, mask, scale): x of (H, W, C) or (B, H, W, C) with even extents,
    at three scales; mask None, or the bool dropout mask u >= rate, which
    holds zeros, with scale 1 / (1 - rate)."""
    lead = draw(st.sampled_from([(), (draw(st.integers(1, 3)),)]))
    shape = lead + (2 * draw(st.integers(1, 3)), 2 * draw(st.integers(1, 3)), draw(st.integers(1, 3)))
    x = _draw_array(draw, shape, draw(st.sampled_from([0.5, 3.0, 30.0])))
    if draw(st.booleans()):
        return x, None, 1.0
    rate = draw(st.sampled_from([0.2, 0.5]))
    u = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).random(shape)
    return x, u >= rate, 1.0 / (1.0 - rate)


@given(gate_cases())
@example(case=(np.zeros((2, 2, 3)), None, 1.0))  # the kink: the gradient there is 0, as relu's
@example(case=(np.array([-800.0, -30.0, 0.5, 800.0]).reshape(2, 2, 1), None, 1.0))  # exp(800) overflows: s = 0
@example(case=(np.array([1.5, -0.7, 2.0, 0.3]).reshape(2, 2, 1),
               np.array([False, True, True, False]).reshape(2, 2, 1), 2.0))
def test_swish_gate_property_gradcheck(case):
    """The swish gate inside gated_norm_pool: under statistics whose rstd
    is 1, gamma 1 and beta 0, the value is maxpool2 of relu(mul(x,
    sigmoid(x))) times the float mask bit for bit; the gradient is the
    closed form, with no NaN and no floating point error; check_gradients
    passes off the kink at 0."""
    x, mask, scale = case
    float_mask = None if mask is None else mask * scale
    weights = np.random.default_rng([2, 0x5D]).standard_normal(x[..., ::2, ::2, :].shape)
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        g = Graph()
        xn = g.watch(g.constant(x))
        out = _gate_pool(g, xn, mask, scale)
        g.backward(g.reduce_sum(g.mul(out, g.constant(weights))))
    g = Graph()
    chain = g.relu(g.mul(x, g.sigmoid(x)))
    if float_mask is not None:
        chain = g.mul(chain, float_mask)
    np.testing.assert_array_equal(out.value, g.maxpool2(chain).value)
    want = _gate_grad(x, _first_max_scatter(chain.value, weights), float_mask)
    assert np.isfinite(xn.grad).all()
    assert np.abs(xn.grad - want).max() <= 1e-14 * max(1.0, np.abs(want).max())

    # off the kink, and with no two positive entries tied in a window
    spread = 1e-3 * np.arange(x.size).reshape(x.shape)
    off_kink = np.where(x < 0.0, x - 0.1, x + 0.1 + spread)
    store = ParamStore(0)
    store.add("x", x.shape)
    store.entries["x"].value[...] = off_kink

    def build(g):
        gated = _gate_pool(g, g.param(store, "x", x.shape), mask, scale)
        return g.reduce_sum(g.mul(g.tanh(gated), g.constant(weights)))

    check_gradients(build, store, n_coords=8)


@pytest.mark.parametrize("rate", [0.2, 0.3, 0.5])
def test_swish_gate_bool_mask_and_scale_equal_the_float_mask(rate):
    """gated_norm_pool with the bool mask and scale 1 / (1 - rate) gives
    the values and gradient of the gate times the float mask
    (u >= rate) / (1 - rate), bit for bit: under statistics whose rstd is
    1, maxpool2 of the chain of single ops, and the closed form."""
    rng = np.random.default_rng(int(rate * 10))
    x, weights = rng.standard_normal((2, 6, 6, 3)) * 3.0, rng.standard_normal((2, 3, 3, 3))
    keep = rng.random(x.shape) >= rate
    float_mask = keep / (1.0 - rate)
    g = Graph()
    xn = g.watch(g.constant(x))
    out = _gate_pool(g, xn, keep, 1.0 / (1.0 - rate))
    g.backward(g.reduce_sum(g.mul(out, g.constant(weights))))
    c = Graph()
    chain = c.mul(c.relu(c.mul(x, c.sigmoid(x))), float_mask)
    assert not keep.all() and keep.any()
    np.testing.assert_array_equal(out.value, c.maxpool2(chain).value)
    np.testing.assert_array_equal(xn.grad, _gate_grad(x, _first_max_scatter(chain.value, weights), float_mask))


@st.composite
def gated_norm_pool_cases(draw):
    """(a, gamma, beta, mask, scale, stats): a of (H, W, C) or (B, H, W, C)
    with even extents and C of 1-5, gamma of either sign; mask None or a
    bool dropout mask with its scale; stats None (train mode) or
    per-channel running statistics (eval mode)."""
    lead = draw(st.sampled_from([(), (draw(st.integers(1, 3)),)]))
    C = draw(st.integers(1, 5))
    shape = lead + (2 * draw(st.integers(1, 3)), 2 * draw(st.integers(1, 3)), C)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = rng.standard_normal(shape) * draw(st.sampled_from([0.5, 3.0]))
    gamma = rng.uniform(0.5, 1.5, C) * rng.choice([-1.0, 1.0], C)
    beta = rng.standard_normal(C)
    mask, scale = None, 1.0
    if draw(st.booleans()):
        rate = draw(st.sampled_from([0.2, 0.5]))
        mask, scale = rng.random(shape) >= rate, 1.0 / (1.0 - rate)
    stats = None if draw(st.booleans()) else (rng.standard_normal(C), rng.uniform(0.5, 2.0, C))
    return a, gamma, beta, mask, scale, stats


def _gated_norm_pool_runs(a, gamma, beta, mask, scale, stats, weights):
    """(value, [grad of a, gamma, beta], moments) of gated_norm_pool, and
    (value, grads, gated map) of the oracle chain fed the float mask,
    through tanh and fixed weights."""
    runs = []
    for fused in (True, False):
        g = Graph()
        an, gn, bn = (g.watch(g.constant(v)) for v in (a, gamma, beta))
        if fused:
            out, extra = g.gated_norm_pool(an, (gn, bn), mask, scale, stats)
        else:
            out, act = gated_norm_pool_chain(g, an, (gn, bn), None if mask is None else mask * scale, stats)
            extra = act.value
        g.backward(g.reduce_sum(g.mul(g.tanh(out), g.constant(weights))))
        runs.append((out.value, [an.grad, gn.grad, bn.grad], extra))
    return runs


@given(gated_norm_pool_cases())
def test_gated_norm_pool_property_gradcheck(case):
    """gated_norm_pool matches the chain of single ops it replaces: the
    value and the gradients of a, gamma and beta to 1e-12, and in train
    mode the moments it hands back are mean_var of the gated map, bit for
    bit.  A batch equals its samples run one at a time, and
    check_gradients passes on a, gamma and beta."""
    a, gamma, beta, mask, scale, stats = case
    weights = np.random.default_rng([3, 0x5D]).standard_normal(a[..., ::2, ::2, :].shape)
    (out, grads, moments), (c_out, c_grads, gated) = _gated_norm_pool_runs(
        a, gamma, beta, mask, scale, stats, weights)
    for got, want in [(out, c_out)] + list(zip(grads, c_grads)):
        assert np.abs(got - want).max() <= 1e-12 * max(1.0, np.abs(want).max())
    if stats is None:
        for got, want in zip(moments, autodiff.mean_var(gated, (-3, -2))):
            np.testing.assert_array_equal(got, want)
    else:
        assert moments is None
    op = lambda g, an, gn, bn: g.gated_norm_pool(an, (gn, bn), mask, scale, stats)[0]
    if a.ndim == 4:
        alone = [Graph().gated_norm_pool(a[i], (gamma, beta), None if mask is None else mask[i], scale, stats)[0]
                 for i in range(len(a))]
        np.testing.assert_array_equal(out, np.stack([n.value for n in alone]))
    _gradcheck_every_operand(op, [a, gamma, beta])


def test_gated_norm_pool_over_several_chunks():
    """A train-mode batch with a mask, of two full chunks and a ragged
    third: each map equals the map run alone, the value and the gradients
    of a, gamma and beta match the chain to 1e-12, and check_gradients
    passes on a, gamma and beta."""
    H, W, C = 16, 16, 4
    chunk = max(1, autodiff.IM2COL_CHUNK_BYTES // (4 * H * W * C * 8))
    assert chunk >= 2
    nb = 2 * chunk + chunk // 2
    rng = np.random.default_rng(13)
    a = rng.standard_normal((nb, H, W, C))
    gamma, beta = rng.uniform(0.5, 1.5, C), rng.standard_normal(C)
    mask = rng.random(a.shape) >= 0.3
    weights = rng.standard_normal((nb, H // 2, W // 2, C))
    (out, grads, moments), (c_out, c_grads, _) = _gated_norm_pool_runs(
        a, gamma, beta, mask, 1.0 / 0.7, None, weights)
    for got, want in [(out, c_out)] + list(zip(grads, c_grads)):
        assert np.abs(got - want).max() <= 1e-12 * max(1.0, np.abs(want).max())
    alone = [Graph().gated_norm_pool(ai, (gamma, beta), mi, 1.0 / 0.7) for ai, mi in zip(a, mask)]
    np.testing.assert_array_equal(out, np.stack([node.value for node, _ in alone]))
    np.testing.assert_array_equal(moments[0], np.stack([m[0] for _, m in alone]))
    op = lambda g, an, gn, bn: g.gated_norm_pool(an, (gn, bn), mask, 1.0 / 0.7)[0]
    _gradcheck_every_operand(op, [a, gamma, beta])


def test_gated_norm_pool_sends_a_tied_window_to_its_first_maximum():
    """On whole-valued maps windows tie, at 0 wherever relu zeroes a whole
    window: the value is maxpool2 of the gate, and each window's gradient
    lands on its first maximum in row order, bit for bit."""
    rng = np.random.default_rng(12)
    x = rng.integers(-2, 3, (3, 6, 6, 2)).astype(np.float64)
    x[0, :2, :2] = 1.0  # a four-way tie
    x[0, 2:4, :2] = -1.0  # a window relu zeroes
    weights = rng.standard_normal((3, 3, 3, 2))
    g = Graph()
    xn = g.watch(g.constant(x))
    out = _gate_pool(g, xn)
    g.backward(g.reduce_sum(g.mul(out, g.constant(weights))))
    c = Graph()
    chain = c.relu(c.mul(x, c.sigmoid(x)))
    np.testing.assert_array_equal(out.value, c.maxpool2(chain).value)
    np.testing.assert_array_equal(xn.grad, _gate_grad(x, _first_max_scatter(chain.value, weights), None))
    assert (xn.grad[0, 0, 0] != 0.0).all()
    assert (xn.grad[0, :2, :2].reshape(4, 2)[1:] == 0.0).all()
    assert (xn.grad[0, 2:4, :2] == 0.0).all()


def test_gated_norm_pool_rejects_what_it_cannot_pool_or_mask():
    g = Graph()
    ones = np.ones(2)
    with pytest.raises(ShapeError, match="even"):
        g.gated_norm_pool(np.ones((3, 4, 2)), (ones, ones))
    with pytest.raises(ShapeError, match="want"):
        g.gated_norm_pool(np.ones((4, 4, 2)), (ones, np.ones(3)))
    with pytest.raises(ShapeError, match="bool"):
        g.gated_norm_pool(np.ones((4, 4, 2)), (ones, ones), np.ones((4, 4, 2)), 2.0)
    with pytest.raises(ShapeError, match="bool"):
        g.gated_norm_pool(np.ones((4, 4, 2)), (ones, ones), np.ones((4, 4, 1), dtype=bool), 2.0)


# ---- batch norm ------------------------------------------------------


def test_batch_norm_constant_channel_is_zero_pre_affine():
    store = ParamStore(0)
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
    g = Graph()
    out = batch_norm(g, g.constant(x), store, "bn", train=True)
    assert np.abs(out.value - x).max() < 1e-6


def test_batch_norm_matches_statistics_oracle():
    rng = np.random.default_rng(7)
    x = rng.standard_normal((4, 5, 3)) * 2.0 + 0.3
    store = ParamStore(0)
    g = Graph()
    out = batch_norm(g, g.constant(x), store, "bn", train=True).value
    mu = x.mean(axis=(0, 1))
    var = x.var(axis=(0, 1))
    expected = (x - mu) / np.sqrt(var + 1e-5)
    assert np.abs(out - expected).max() < 1e-6
    # running buffers fold the batch statistics at momentum 0.9
    np.testing.assert_allclose(store.buffers["bn.running_mean"], 0.1 * mu, atol=1e-12)
    np.testing.assert_allclose(store.buffers["bn.running_var"], 0.9 + 0.1 * var, atol=1e-12)


def test_batch_norm_fold_reads_the_moments_of_its_normalization(monkeypatch):
    """Train mode folds each map's np.mean and np.var into the buffers in
    batch order, and computes the moments once: the standardize node
    divides by the same arrays."""
    rng = np.random.default_rng(11)
    x = rng.standard_normal((3, 4, 5, 2)) * [1.0, 3.0] + rng.standard_normal((3, 1, 1, 2)) * 5.0
    calls = []

    def spy(v, axes, real=autodiff.mean_var):
        calls.append(axes)
        return real(v, axes)

    monkeypatch.setattr(autodiff, "mean_var", spy)
    monkeypatch.setattr(layers, "mean_var", spy)
    store = ParamStore(0)
    rm, rv = np.array([0.5, -0.5]), np.array([2.0, 0.7])
    store.buffers.update({"bn.running_mean": rm, "bn.running_var": rv})
    g = Graph()
    out = batch_norm(g, g.constant(x), store, "bn", train=True).value
    assert calls == [(-3, -2)]
    for b in range(3):
        rm = 0.9 * rm + 0.1 * np.mean(x[b], axis=(0, 1))
        rv = 0.9 * rv + 0.1 * np.var(x[b], axis=(0, 1))
    np.testing.assert_allclose(store.buffers["bn.running_mean"], rm, rtol=1e-12, atol=0)
    np.testing.assert_allclose(store.buffers["bn.running_var"], rv, rtol=1e-12, atol=0)
    mu, var = x.mean(axis=(1, 2), keepdims=True), x.var(axis=(1, 2), keepdims=True)
    assert np.abs(out - (x - mu) / np.sqrt(var + 1e-5)).max() <= 1e-12


def test_batch_norm_eval_uses_buffers():
    store = ParamStore(0)
    store.buffers["bn.running_mean"] = np.array([1.0, -1.0])
    store.buffers["bn.running_var"] = np.array([4.0, 9.0])
    x = np.ones((2, 2, 2))
    g = Graph()
    out = batch_norm(g, g.constant(x), store, "bn", train=False).value
    expected = (x - np.array([1.0, -1.0])) / np.sqrt(np.array([4.0, 9.0]) + 1e-5)
    np.testing.assert_allclose(out, expected, atol=1e-12)


# ---- pooling / resampling -------------------------------------------


def test_maxpool_hand_case():
    g = Graph()
    out = g.maxpool2(g.constant(np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(2, 2, 1)))
    assert out.value.reshape(()) == 4.0


def test_maxpool_matches_window_scan():
    rng = np.random.default_rng(8)
    x = rng.standard_normal((8, 8, 3))
    g = Graph()
    np.testing.assert_array_equal(g.maxpool2(g.constant(x)).value, maxpool2_scan(x))


def test_maxpool_rejects_odd_extents():
    for shape in [(5, 7, 2), (4, 7, 2), (5, 4, 2), (2, 3, 4, 1)]:
        with pytest.raises(ShapeError):
            Graph().maxpool2(np.ones(shape))


def test_maxpool_four_way_tie_sends_the_gradient_top_left():
    g = Graph()
    x = g.watch(g.constant(np.full((2, 2, 1), 3.0)))
    out = g.maxpool2(x)
    g.backward(g.mul(g.reduce_sum(out), 5.0))
    np.testing.assert_array_equal(out.value, np.full((1, 1, 1), 3.0))
    np.testing.assert_array_equal(x.grad[..., 0], [[5.0, 0.0], [0.0, 0.0]])


@given(batches(max_extent=6, step=2), st.integers(0, 2**32 - 1))
def test_maxpool2_gradient_goes_to_the_first_maximum(xs, seed):
    """On whole-valued maps, where windows often tie, each window's gradient
    lands on its first maximum in row order."""
    xs = np.round(xs)
    gs = np.random.default_rng(seed).standard_normal(xs[:, ::2, ::2].shape)
    g = Graph()
    x = g.watch(g.constant(xs))
    g.backward(g.reduce_sum(g.mul(g.maxpool2(x), g.constant(gs))))
    np.testing.assert_array_equal(x.grad, np.stack([maxpool2_grad_scan(xi, gi) for xi, gi in zip(xs, gs)]))


def _upsampled(x):
    """Nearest-neighbour x2 upsampling of (..., H, W, C)."""
    return np.repeat(np.repeat(x, 2, -3), 2, -2)


def _centre_tap(c):
    """3x3 kernel whose only nonzero tap, the centre, is the identity on c
    channels: upsample_conv2d with it upsamples."""
    kernel = np.zeros((3, 3, c, c))
    kernel[1, 1] = np.eye(c)
    return kernel


def test_upsample_replicates_single_value():
    out = Graph().upsample_conv2d(np.full((1, 1, 1), 3.0), _centre_tap(1))
    np.testing.assert_array_equal(out.value, np.full((2, 2, 1), 3.0))


def test_upsample_avgpool_round_trip():
    x = np.random.default_rng(10).standard_normal((3, 4, 2))
    up = Graph().upsample_conv2d(x, _centre_tap(2)).value
    np.testing.assert_array_equal(up, _upsampled(x))
    back = up.reshape(3, 2, 4, 2, 2).mean(axis=(1, 3))
    np.testing.assert_allclose(back, x, atol=1e-15)


def test_upsample_conv2d_centre_tap_gradient_counts_replicas():
    g = Graph()
    x = g.watch(g.constant(np.zeros((2, 2, 1))))
    g.backward(g.reduce_sum(g.upsample_conv2d(x, g.constant(_centre_tap(1)))))
    np.testing.assert_array_equal(x.grad, np.full((2, 2, 1), 4.0))


@st.composite
def upsample_conv_cases(draw):
    """upsample_conv2d operands: x of (H, W, C) or (B, H, W, C) with extents
    1-4, and a 3x3 kernel."""
    lead = draw(st.sampled_from([(), (draw(st.integers(1, 3)),)]))
    H, W, c_in, c_out = (draw(st.integers(1, 4)) for _ in range(4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kernel = rng.standard_normal((3, 3, c_in, c_out)) / (3.0 * np.sqrt(c_in))
    return rng.standard_normal(lead + (H, W, c_in)), kernel


@given(upsample_conv_cases())
def test_upsample_conv2d_property_gradcheck(case):
    """upsample_conv2d is conv2d of the x2 upsampled map: each map matches
    the loop oracle, a batch equals its samples one at a time, and
    check_gradients passes on x and on the kernel."""
    x, kernel = case
    op = lambda g, xn, kn: g.upsample_conv2d(xn, kn)
    out = op(Graph(), x, kernel)
    assert out.shape == x.shape[:-3] + (2 * x.shape[-3], 2 * x.shape[-2], kernel.shape[3])
    maps = x.reshape((-1,) + x.shape[-3:])
    want = np.stack([conv2d_loops(_upsampled(xi), kernel) for xi in maps])
    assert rel_close(out.value, want.reshape(out.shape), 1e-12)
    if x.ndim == 4:
        per_sample = np.stack([op(Graph(), xi, kernel).value for xi in x])
        assert np.abs(out.value - per_sample).max() <= 1e-12
    _gradcheck_every_operand(op, [x, kernel])


def test_upsample_conv2d_rejects_other_kernels():
    g = Graph()
    for x, kernel in (((4, 4, 2), (5, 5, 2, 3)), ((4, 4, 2), (3, 3, 3, 3)), ((4, 2), (3, 3, 2, 3))):
        with pytest.raises(ShapeError):
            g.upsample_conv2d(np.ones(x), np.ones(kernel))


# ---- backward --------------------------------------------------------


def test_backward_linear_loss():
    store = ParamStore(0)
    g = Graph()
    loss = g.reduce_sum(g.param(store, "w", (3, 4)))
    g.backward(loss)
    np.testing.assert_array_equal(store.entries["w"].grad, np.ones((3, 4)))


def test_backward_quadratic_loss():
    store = ParamStore(0)
    g = Graph()
    w = g.param(store, "w", (3, 4))
    loss = g.mul(g.reduce_sum(g.mul(w, w)), 0.5)
    g.backward(loss)
    np.testing.assert_allclose(store.entries["w"].grad, store.entries["w"].value, atol=1e-15)


def test_backward_rejects_non_scalar():
    g = Graph()
    with pytest.raises(ContractError):
        g.backward(g.constant(np.ones(3)))


def test_backward_keeps_only_constant_and_requested_grads():
    store = ParamStore(0)
    x = np.random.default_rng(0).standard_normal((4, 3))
    g = Graph()
    xn = g.constant(x)
    g.watch(xn)
    h = g.tanh(g.matmul(xn, g.param(store, "w", (3, 2))))
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


class _ZeroFill(dict):
    """The reference accumulator: each gradient a zero array on first use,
    every contribution added into it."""

    def __init__(self, nodes):
        super().__init__()
        self.nodes = nodes

    def writable(self, idx):
        if idx not in self:
            self[idx] = np.zeros_like(self.nodes[idx].value)
        return self[idx]

    def accumulate(self, idx, value):
        self.writable(idx)[...] += value


def _hand_graph():
    """add(x, x), read by a tanh and by a reshape; a narrow of the tanh whose
    first gradient is a reshape's view; a broadcast contribution from a
    reduce_sum; a kept node."""
    rng = np.random.default_rng(3)
    g = Graph()
    x = g.watch(g.constant(rng.standard_normal((3, 4))))
    y = g.add(x, x)
    t = g.tanh(y)
    flat = g.reshape(y, (12,))
    terms = [g.mul(flat, rng.standard_normal(12)), g.narrow(t, 1, 1, 2),
             g.mul(g.reshape(t, (12,)), rng.standard_normal(12)),
             g.mul(g.reduce_sum(x, axes=0), rng.standard_normal(4))]
    loss = g.reduce_sum(terms[0])
    for term in terms[1:]:
        loss = g.add(loss, g.reduce_sum(term))
    return g, loss, (flat,)


def _model_graph():
    cfg = make_tiny_config(dropout=0.2)
    g = Graph()
    batch = generate_synthetic_dataset(2, 0, 0.0, cfg.image_size, cfg.n_t)
    _, logit = FloodNet(cfg).forward(g, batch, train=True, dropout_rng=np.random.default_rng(0))
    return g, g.reduce_sum(logit), ()


@pytest.mark.parametrize("build", [_hand_graph, _model_graph])
def test_backward_stores_each_gradient_at_its_first_write(build):
    """Every rule gets the g that zero-filled accumulation gives, bit for
    bit, and no rule or later write changes a g it was handed."""
    g, loss, keep = build()
    rules = {n.idx: n.bwd for n in g.nodes if n.bwd is not None}
    seen = {}

    def spy(idx, rule):
        def bwd(grad, grads):
            seen[idx] = (grad, grad.copy())
            rule(grad, grads)
        return bwd

    for idx, rule in rules.items():
        g.nodes[idx].bwd = spy(idx, rule)
    g.backward(loss, keep=keep)
    leaves = {n.idx: n.grad for n in g.nodes if n.grad is not None}
    for grad, at_call in seen.values():
        np.testing.assert_array_equal(grad, at_call)

    want = _ZeroFill(g.nodes)
    want[loss.idx] = np.ones_like(loss.value)
    for node in reversed(g.nodes[:loss.idx + 1]):
        if node.idx in want and node.idx in rules:
            rules[node.idx](want[node.idx], want)
    assert sorted(seen) == sorted(i for i in rules if i in want)
    for idx, (grad, _) in seen.items():
        np.testing.assert_array_equal(grad, want[idx])
    assert sorted(leaves) == sorted(i for i in want if i not in rules or g.nodes[i] in keep)
    for idx, grad in leaves.items():
        np.testing.assert_array_equal(grad, want[idx])


def test_dropped_tape_is_freed_without_the_cycle_collector():
    store = ParamStore(0)
    gc.disable()
    try:
        g = Graph()
        x = g.conv2d(g.constant(np.ones((2, 4, 4, 3))), g.constant(np.ones((3, 3, 3, 2))))
        loss = g.reduce_sum(g.tanh(g.matmul(g.reshape(x, (2, 16, 2)), g.narrow(g.param(store, "w", (3, 3)), 0, 0, 2))))
        g.backward(loss)
        graph, value = weakref.ref(g), weakref.ref(x.value)
        del g, x, loss
        assert graph() is None and value() is None
    finally:
        gc.enable()


def test_composite_forward_matches_finite_differences():
    from floodnet.gradcheck import check_gradients

    store = ParamStore(11)

    def build(g):
        h = g.tanh(g.matmul(g.param(store, "a", (3, 3)), g.param(store, "b", (3, 2))))
        s = g.sigmoid(g.reduce_sum(g.mul(h, h)))
        return g.softplus(g.add(s, 0.5))

    _, max_err = check_gradients(build, store, n_coords=25, seed=1)
    assert max_err <= 1e-4


def test_gradcheck_negative_control():
    # a param used through a value-only detour hides part of the gradient,
    # so the finite-difference check must fail
    from floodnet.gradcheck import check_gradients

    store = ParamStore(12)

    def build(g):
        w = g.param(store, "w", (4,))
        # wrong on purpose: constant copy breaks the w^2 gradient path
        frozen = g.constant(store.entries["w"].value)
        return g.reduce_sum(g.add(w, g.mul(frozen, frozen)))

    with pytest.raises(AssertionError):
        check_gradients(build, store, n_coords=20, seed=2)


def test_gradcheck_needs_a_coordinate_before_it_builds():
    def build(g):
        raise AssertionError("built")

    for n_coords in (0, -2):
        with pytest.raises(ValueError, match=f"n_coords must be >= 1, got {n_coords}"):
            check_gradients(build, ParamStore(0), n_coords=n_coords)


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
    kwargs = {"keepdims": keepdims} if name == "reduce_sum" else {}
    _gradcheck_every_operand(lambda g, a: getattr(g, name)(a, axes, **kwargs), [x])


@st.composite
def attention_cases(draw):
    """(q, k, v, heads): leading axes () or (B,), n query rows against
    m != n key rows, 1-4 heads of width 1-3, q and k at two scales."""
    lead = draw(st.sampled_from([(), (draw(st.integers(1, 3)),)]))
    heads, d = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    n = draw(st.integers(1, 4))
    m = draw(st.integers(1, 5).filter(lambda m: m != n))
    scale = draw(st.sampled_from([0.5, 2.0]))
    q, k = (_draw_array(draw, lead + (rows, heads * d), scale) for rows in (n, m))
    return q, k, _draw_array(draw, lead + (m, heads * d)), heads


@given(attention_cases())
def test_attention_property_gradcheck(case):
    """attention equals the per-head loop oracle, a batch equals its samples
    one at a time, and check_gradients passes on q, k and v."""
    q, k, v, heads = case
    op = lambda g, a, b, c: g.attention(a, b, c, heads)
    out = op(Graph(), q, k, v).value
    d = q.shape[-1] // heads
    cols = [slice(h * d, (h + 1) * d) for h in range(heads)]
    for i in np.ndindex(q.shape[:-2]):
        want = [attention_rows(q[i][:, c], k[i][:, c], v[i][:, c], 1.0 / np.sqrt(d)) for c in cols]
        assert rel_close(out[i], np.concatenate(want, axis=-1), 1e-12)
    if q.ndim == 3:
        _check_batched(op, [q, k, v], exact=False)
    else:
        _gradcheck_every_operand(op, [q, k, v])


@st.composite
def lstm_cases(draw):
    """(xw, u, b, reverse): leading axes () or (B,), 1-4 rows, hid of 1-3,
    xw at two scales, either direction."""
    lead = draw(st.sampled_from([(), (draw(st.integers(1, 3)),)]))
    n, hid = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    xw = _draw_array(draw, lead + (n, 4 * hid), draw(st.sampled_from([0.5, 2.0])))
    return xw, _draw_array(draw, (hid, 4 * hid)), _draw_array(draw, (4 * hid,)), draw(st.booleans())


@given(lstm_cases())
def test_lstm_property_gradcheck(case):
    """lstm equals the unrolled per-gate oracle over its rows, taken from
    the last when reverse, a batch equals its samples one at a time within
    1e-12, and check_gradients passes on xw, u and b.  Not bit for bit: a
    batch's h @ u is one gemm per step, and numpy runs a single sample's
    as a gemv, which rounds differently."""
    xw, u, b, reverse = case
    op = lambda g, x, uu, bb: g.lstm(x, uu, bb, reverse)
    out = op(Graph(), xw, u, b).value
    hid = u.shape[0]
    gates = lambda m: {gate: m[..., k * hid:(k + 1) * hid] for k, gate in enumerate("ifgo")}
    # xw's rows are already x @ W: the oracle's W is the identity, split by gate
    w = gates(np.eye(4 * hid))
    order = slice(None, None, -1 if reverse else 1)
    for i in np.ndindex(xw.shape[:-2]):
        want = np.array(lstm_unrolled(list(xw[i][order]), w, gates(u), gates(b), hid))[order]
        assert rel_close(out[i], want, 1e-12)
    if xw.ndim == 3:
        _check_batched(op, [xw, u, b], exact=False)
    else:
        _gradcheck_every_operand(op, [xw, u, b])


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


@given(conv_cases())
def test_watch_property_gradcheck(case):
    """A watched constant gets the gradient that check_gradients verifies
    for the same value held as a parameter, through a conv whose kernel is
    inactive."""
    x, kernel, groups = case
    store = ParamStore(0)
    store.add("x", x.shape)
    store.entries["x"].value[...] = x
    weights = np.random.default_rng(1).standard_normal(Graph().conv2d(x, kernel, groups=groups).shape)

    def build(g, leaf):
        out = g.conv2d(leaf, g.constant(kernel), groups=groups)
        return g.reduce_sum(g.mul(g.tanh(out), g.constant(weights)))

    check_gradients(lambda g: build(g, g.param(store, "x", x.shape)), store, n_coords=6)
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
        operands = [_draw_array(draw, lead + (n, k)), _draw_array(draw, (k, m))]
        op = lambda g, a, b: g.matmul(a, b)
    elif name == "attention":
        *operands, heads = draw(attention_cases())
        op = lambda g, q, k, v: g.attention(q, k, v, heads)
    elif name == "lstm":
        *operands, reverse = draw(lstm_cases())
        op = lambda g, xw, u, b: g.lstm(xw, u, b, reverse)
    elif name == "concat":
        operands = [_draw_array(draw, (2, draw(st.integers(1, 3)))) for _ in range(draw(st.integers(1, 3)))]
        op = lambda g, *ps: g.concat(ps, -1)
    elif name == "conv2d":
        x, kernel, groups = draw(conv_cases())
        operands = [x, kernel]
        op = lambda g, a, b: g.conv2d(a, b, groups=groups)
    elif name == "upsample_conv2d":
        operands = list(draw(upsample_conv_cases()))
        op = lambda g, a, b: g.upsample_conv2d(a, b)
    elif name == "maxpool2":
        operands = [draw(batches(max_extent=6, step=2))]
        op = lambda g, a: g.maxpool2(a)
    elif name == "gated_norm_pool":
        a, gamma, beta, mask, scale, stats = draw(gated_norm_pool_cases())
        operands = [a, gamma, beta]
        op = lambda g, a, gamma, beta: g.gated_norm_pool(a, (gamma, beta), mask, scale, stats)[0]
    elif name == "standardize":
        x = draw(batches())
        operands = [x, _draw_array(draw, x.shape[-1:]), _draw_array(draw, x.shape[-1:])]
        op = lambda g, a, gamma, beta: g.standardize(a, (-3, -2), (gamma, beta))
    else:
        operands = [_draw_array(draw, (3, 4, 2))]
        op = lambda g, a: getattr(g, name)(a)
    return op, operands


@pytest.mark.parametrize("name", ["add", "sub", "mul", "matmul", "attention", "lstm", "concat", "conv2d", "tanh",
                                  "maxpool2", "standardize", "gated_norm_pool", "upsample_conv2d"])
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
        written = _Grads()
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
        w = g.param(store, "w", (3, 2))
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
    "sigmoid": test_unary_elementwise_property_gradcheck,
    "tanh": test_unary_elementwise_property_gradcheck,
    "relu": test_unary_elementwise_property_gradcheck,
    "softplus": test_unary_elementwise_property_gradcheck,
    "matmul": test_matmul_rank3_forms_match_per_sample,
    "attention": test_attention_property_gradcheck,
    "lstm": test_lstm_property_gradcheck,
    "reshape": test_reshape_property_gradcheck,
    "concat": test_concat_property_gradcheck,
    "narrow": test_narrow_property_gradcheck,
    "reduce_sum": test_reduce_property_gradcheck,
    "reduce_mean": test_reduce_property_gradcheck,
    "standardize": test_standardize_property_gradcheck,
    "gated_norm_pool": test_gated_norm_pool_property_gradcheck,
    "conv2d": test_conv2d_property_gradcheck,
    "fft2d_magnitude": test_fft2d_magnitude_batched_matches_per_sample,
    "maxpool2": test_maxpool2_batched_matches_per_sample,
    "upsample_conv2d": test_upsample_conv2d_property_gradcheck,
    "watch": test_watch_property_gradcheck,
}


def test_every_recording_op_has_a_gradcheck_property():
    ops = {name for name, fn in vars(Graph).items() if callable(fn) and not name.startswith("_")}
    # backward records nothing; constant and param are the leaves: a constant
    # has no rule, and every check_gradients call reads the param sinks
    ops -= {"backward", "constant", "param"}
    assert ops == set(GRADCHECK_PROPERTIES)
