"""Tape-based reverse-mode autodiff over dense float64 arrays.

Every forward operation appends a node to the active Graph; nodes only
reference earlier nodes, so the insertion order is already topological and
the backward pass is a single reverse sweep.  Values are plain numpy
float64 arrays of rank 1..4 and are never mutated by an operation.

Activity is decided when a node is recorded: a node is active iff it is a
source or one of its parents is active.  The sources are the parameter
leaves of a graph built with `param_grads=True` (the default) and the nodes
a caller passes to `Graph.watch`.  Only an active node keeps a backward
rule, and a rule writes no gradient for an inactive parent, so a sweep
covers just the sources' descendants.  A graph with no sources, such as
`Graph(param_grads=False)` for inference, records no rules at all.

The sweep stores each node's first gradient contribution as given, so a
node's gradient may be another node's, or a view of it, and replaces it
with a fresh sum on each later one.  No rule writes into its g or into an
array it has handed on.

The image ops take (..., H, W, C), matmul takes (..., k) @ (k, m) and
attention takes (..., rows, width), so one graph can carry a whole batch on
a leading axis; without one, an op does exactly the unbatched work.  maxpool2
and gated_norm_pool need even H and W.

conv2d is a stride-1 same-padded conv with two kernels, picked from the
operand shapes: im2col times the kernel, or the input times the dense
matrix of the whole map, whichever matrix holds fewer entries.  With nb the
product of the leading extents, that is the dense one when
H*W*C_out/groups <= nb*K*K: a batch of small maps read by a wide kernel,
where most im2col entries are zero padding.  The rule still compares with
the K*K-wide im2col matrix, but that kernel lowers x along W only (MEC,
Cho & Brand 2017, arXiv:1706.06873), K copies of x where im2col makes K*K,
and sums K matmuls: kernel row i times a view of lowered rows i..i+H-1.
It runs over chunks of the leading indices, each chunk's lowering and
padded input within IM2COL_CHUNK_BYTES.  Its backward lowers x again for
dk, the same K views transposed times g, and runs the same chunked conv on
g for dx: a stride-1 same-padded conv's input gradient is the conv of g by
the kernel flipped in space, each group's C_in and C_out swapped,
k'[i, j, o, c] = k[K-1-i, K-1-j, c, o] (Dumoulin & Visin 2016,
arXiv:1603.07285, Sec. 4).  The tape keeps neither the lowering nor a
padded copy of x.  upsample_conv2d, a 3x3 conv of a x2 nearest-upsampled
map, records a `conv2d` node too; it never builds the upsampled map.

gated_norm_pool is a gated block's swish gate, dropout mask, normalization,
affine and 2x2 max pool as one node, run a chunk of leading indices at a
time within the same budget; its tape keeps neither the gated map nor the
pre-pool map.  An active node's rule keeps the normalized map, each
window's first-maximum index and one map of the gate's derivative times
the keep map of a > 0 and the dropout mask, formed in the forward while a
and sigmoid(a) are in cache.  An inactive node keeps none of them.

Each computation has one kernel: `_sigmoid` serves sigmoid, softplus's
rule, lstm's gates and gated_norm_pool's gate; `_maxpool2_first` pools and
`_unpool_first` routes the gradient for maxpool2 and gated_norm_pool; add,
sub and mul record through `_binary`, the activations through `_unary`.

lstm is one LSTM direction's whole recurrence as one node, over the rows
of xw = x @ W.  Its tape keeps the gate activations, c and tanh(c).  Its
rule is backpropagation through time, from the last step run to the
first: dh_t = g_t + dz_{t+1} @ u^T, dc_t = dh_t * o * (1 - tanh(c_t)^2)
+ dc_{t+1} * f_{t+1}, and dz_t the gates' derivatives times dc_t (i, f, g)
or dh_t (o).  dxw is dz as one array, du = sum_t h_{t-1}^T dz_t is one
gemm over every row and step, and db sums dz over them.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

NORM_EPS = 1e-5  # added to every variance a normalization divides by


class ShapeError(ValueError):
    """Raised when operand shapes do not conform."""


class ContractError(RuntimeError):
    """Raised when an operation's calling contract is violated."""


def _as_f64(value) -> np.ndarray:
    a = np.asarray(value, dtype=np.float64)
    if a.ndim == 0:
        a = a.reshape(1)
    if a.ndim > 4:
        raise ShapeError(f"rank {a.ndim} exceeds the rank-4 limit")
    return a


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a broadcast gradient back down to the original shape."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, extent in enumerate(shape):
        if extent == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


@np.errstate(over="ignore")
def _sigmoid(z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """1 / (1 + exp(-z)), each step in out (a new array when None).  exp
    overflows to inf below z of about -709, which gives exactly 0."""
    out = np.negative(z, out=out)
    np.exp(out, out=out)
    out += 1.0
    return np.divide(1.0, out, out=out)


class Node:
    """One recorded operation: output value plus its backward rule.

    A node knows its graph only by its position in the tape, so the tape is
    acyclic and a dropped graph is freed at once, without waiting for the
    cyclic garbage collector.  `bwd` is None on an inactive node; every
    node keeps its parents, which `Graph.watch` and the traced benchmark read.
    """

    __slots__ = ("idx", "value", "grad", "parents", "bwd", "tag", "active")

    def __init__(self, idx, value, parents, bwd, tag, active):
        self.idx = idx
        self.value = value
        self.grad = None
        self.parents = parents
        self.bwd = bwd
        self.tag = tag
        self.active = active

    @property
    def shape(self):
        return self.value.shape


class _Grads(dict):
    """Gradients by node index.  A node's first contribution is stored as
    given, so it may be a rule's g or a view of it; each later one replaces
    the stored array with old + value.  No stored array is written into."""

    def accumulate(self, idx: int, value: np.ndarray) -> None:
        old = self.get(idx)
        self[idx] = value if old is None else old + value


class Graph:
    """Ordered tape of Nodes; single-writer during one forward/backward.

    With param_grads=False the parameter leaves are not sources, so
    backward leaves every ParamStore grad untouched."""

    def __init__(self, param_grads: bool = True):
        self.nodes: list[Node] = []
        self.param_grads = param_grads

    def _record(self, value, parents, bwd, tag, source=False) -> Node:
        active = source
        for p in parents:
            if p.active:
                active = True
                break
        node = Node(len(self.nodes), value, parents, bwd if active else None, tag, active)
        self.nodes.append(node)
        return node

    def _coerce(self, x) -> Node:
        if isinstance(x, Node):
            # a node belongs to this graph iff it sits at its index in the tape
            if x.idx < len(self.nodes) and self.nodes[x.idx] is x:
                return x
            raise ContractError("node belongs to a different graph")
        return self.constant(x)

    # ---- leaves -------------------------------------------------------

    def constant(self, value) -> Node:
        return self._record(_as_f64(value), (), None, "const")

    def param(self, store, name: str, shape, init: str = "fanin", blocks: tuple = ()) -> Node:
        """Leaf backed by the ParamStore entry `name` of `shape`, added with
        `init` and `blocks` (`ParamStore.add`) on its first read; backward accumulates there."""
        entry = store.get(name, shape, init, blocks)

        def bwd(g, grads):
            entry.grad += g  # zeroed in place by zero_grad and adamw_step

        return self._record(entry.value, (), bwd, f"param:{name}", source=self.param_grads)

    def watch(self, node: Node) -> Node:
        """Makes node a source: backward gives it a gradient, and every node
        recorded after it that reads it is active.  No op may have read it yet."""
        node = self._coerce(node)
        if any(node in later.parents for later in self.nodes[node.idx + 1:]):
            raise ContractError("watch a node before any op reads it")
        node.active = True
        return node

    # ---- elementwise --------------------------------------------------

    def _binary(self, a: Node, b: Node, out, da, db, tag: str) -> Node:
        """Records out = a op b; da(g) and db(g) are the operands' gradients before _unbroadcast."""

        def bwd(g, grads):
            if a.active:
                grads.accumulate(a.idx, _unbroadcast(da(g), a.shape))
            if b.active:
                grads.accumulate(b.idx, _unbroadcast(db(g), b.shape))

        return self._record(out, (a, b), bwd, tag)

    def _unary(self, a: Node, out, rule, tag: str) -> Node:
        """Records out, an elementwise function of a, whose gradient is rule(g)."""
        return self._record(out, (a,), lambda g, grads: grads.accumulate(a.idx, rule(g)), tag)

    def add(self, a, b) -> Node:
        a, b = self._coerce(a), self._coerce(b)
        return self._binary(a, b, a.value + b.value, lambda g: g, lambda g: g, "add")

    def sub(self, a, b) -> Node:
        a, b = self._coerce(a), self._coerce(b)
        return self._binary(a, b, a.value - b.value, lambda g: g, np.negative, "sub")

    def mul(self, a, b) -> Node:
        a, b = self._coerce(a), self._coerce(b)
        return self._binary(a, b, a.value * b.value, lambda g: g * b.value, lambda g: g * a.value, "mul")

    def sigmoid(self, a) -> Node:
        a = self._coerce(a)
        out = _sigmoid(a.value)
        return self._unary(a, out, lambda g: g * out * (1.0 - out), "sigmoid")

    def tanh(self, a) -> Node:
        a = self._coerce(a)
        out = np.tanh(a.value)
        return self._unary(a, out, lambda g: g * (1.0 - out * out), "tanh")

    def relu(self, a) -> Node:
        a = self._coerce(a)
        return self._unary(a, np.maximum(a.value, 0.0), lambda g: g * (a.value > 0.0), "relu")

    def softplus(self, a) -> Node:
        """log(1 + exp(a)) without overflow or cancellation."""
        a = self._coerce(a)
        return self._unary(a, np.logaddexp(0.0, a.value), lambda g: g * _sigmoid(a.value), "softplus")

    # ---- linear algebra ----------------------------------------------

    def matmul(self, a, b) -> Node:
        """(..., k) @ (k, m), every leading axis of a folded into the rows of
        one gemm."""
        a, b = self._coerce(a), self._coerce(b)
        av, bv = a.value, b.value
        if bv.ndim != 2:
            raise ShapeError(f"matmul needs (...,k) @ (k,m), got {a.shape} and {b.shape}")
        k, m = bv.shape
        if av.shape[-1] != k:
            raise ShapeError(f"matmul inner extents differ: {a.shape} vs {b.shape}")
        rows = av.reshape(-1, k)
        out = (rows @ bv).reshape(av.shape[:-1] + (m,))

        def bwd(g, grads):
            g = g.reshape(-1, m)
            if a.active:
                grads.accumulate(a.idx, (g @ bv.T).reshape(av.shape))
            if b.active:
                grads.accumulate(b.idx, rows.T @ g)

        return self._record(out, (a, b), bwd, "matmul")

    def attention(self, q, k, v, heads: int) -> Node:
        """softmax(q_h k_h^T / sqrt(d)) v_h for each head h, the heads side
        by side: q is (..., n, heads * d), k and v are (..., m, heads * d),
        and head h reads columns h*d to (h+1)*d.  The backward starts from
        the kept softmax P: with dP = dO V^T, dV = P^T dO,
        dS = P * (dP - rowsum(dP * P)) / sqrt(d), dQ = dS K and dK = dS^T Q."""
        q, k, v = self._coerce(q), self._coerce(k), self._coerce(v)
        width = q.shape[-1]
        if (q.value.ndim < 2 or k.shape != v.shape or k.shape[:-2] != q.shape[:-2]
                or k.shape[-1] != width or heads < 1 or width % heads):
            raise ShapeError(f"attention of {heads} heads needs (...,n,heads*d) and two (...,m,heads*d), "
                             f"got {q.shape}, {k.shape} and {v.shape}")
        # (..., rows, heads * d) <-> (..., heads, rows, d)
        split = lambda a: a.reshape(a.shape[:-1] + (heads, -1)).swapaxes(-2, -3)
        merge = lambda a: a.swapaxes(-2, -3).reshape(a.shape[:-3] + (a.shape[-2], width))
        qh, kh, vh = split(q.value), split(k.value), split(v.value)
        c = 1.0 / np.sqrt(width // heads)
        s = qh @ kh.swapaxes(-1, -2) * c
        p = np.exp(s - s.max(axis=-1, keepdims=True))
        p /= p.sum(axis=-1, keepdims=True)

        def bwd(g, grads):
            gh = split(g)
            if v.active:
                grads.accumulate(v.idx, merge(p.swapaxes(-1, -2) @ gh))
            dp = gh @ vh.swapaxes(-1, -2)
            ds = p * (dp - (dp * p).sum(axis=-1, keepdims=True)) * c
            if q.active:
                grads.accumulate(q.idx, merge(ds @ kh))
            if k.active:
                grads.accumulate(k.idx, merge(ds.swapaxes(-1, -2) @ qh))

        return self._record(merge(p @ vh), (q, k, v), bwd, "attention")

    def lstm(self, xw, u, b, reverse: bool = False) -> Node:
        """The hidden states h of one LSTM direction, (..., n, hid) in input
        order.  The rows of xw (..., n, 4*hid) are x_t @ W, the gates side
        by side in the order i, f, g, o, as in u (hid, 4*hid) and b (4*hid,).
        From h = c = 0, each step, from the first row to the last, or from
        the last to the first when reverse, computes
        z = (xw_t + h @ u) + b, sigmoid(z) = 1 / (1 + exp(-z)) for i, f and
        o, tanh(z) for g, c = f * c + i * g and h = o * tanh(c).  Only
        h @ u runs step by step, as one matmul of the whole batch; the
        module docstring gives the rule."""
        xw, u, b = self._coerce(xw), self._coerce(u), self._coerce(b)
        hid = u.shape[0]
        if xw.value.ndim < 2 or u.shape != (hid, 4 * hid) or b.shape != (4 * hid,) or xw.shape[-1] != 4 * hid:
            raise ShapeError(f"lstm needs (...,n,4*hid), (hid,4*hid) and (4*hid,), "
                             f"got {xw.shape}, {u.shape} and {b.shape}")
        n = xw.shape[-2]
        nb, uv, bv = math.prod(xw.shape[:-2]), u.value, b.value
        # arrays are time-major, in the order the steps run
        run = slice(None, None, -1 if reverse else 1)
        to_run = lambda v, width: v.reshape(nb, n, width).transpose(1, 0, 2)[run]
        xs = to_run(xw.value, 4 * hid)
        act = np.empty((n, nb, 4 * hid))  # sigmoid(z) of i, f and o, tanh(z) of g
        i, f, gt, o = act.reshape(n, nb, 4, hid).transpose(2, 0, 1, 3)
        hs, cs = np.zeros((n + 1, nb, hid)), np.zeros((n + 1, nb, hid))  # the zero state, then each step's
        tc = np.empty((n, nb, hid))
        z = np.empty((nb, 4 * hid))
        for t in range(n):
            np.matmul(hs[t], uv, out=z)
            z += xs[t]
            z += bv
            _sigmoid(z, out=act[t])
            np.tanh(z[:, 2 * hid:3 * hid], out=gt[t])
            np.multiply(f[t], cs[t], out=cs[t + 1])
            cs[t + 1] += i[t] * gt[t]
            np.tanh(cs[t + 1], out=tc[t])
            np.multiply(o[t], tc[t], out=hs[t + 1])
        from_run = lambda v: v[run].transpose(1, 0, 2).reshape(xw.shape[:-1] + (v.shape[-1],))

        def bwd(g, grads):
            # each gate's dz over dc (i, f and g) or over dh (o)
            fac = np.stack([gt * i * (1.0 - i), cs[:-1] * f * (1.0 - f), i * (1.0 - gt * gt),
                            tc * o * (1.0 - o)], axis=-2)
            dc_dh = o * (1.0 - tc * tc)  # a step's dc over its dh, before the later step's dc
            gh = to_run(g, hid)
            dz = np.empty(act.shape)
            dz4 = dz.reshape(n, nb, 4, hid)
            # dh and dc start each step as what the later step sends back
            dh, dc = np.zeros((nb, hid)), np.zeros((nb, hid))
            for t in range(n - 1, -1, -1):
                dh += gh[t]
                dc += dh * dc_dh[t]
                np.multiply(dc[:, None], fac[t, :, :3], out=dz4[t, :, :3])
                np.multiply(dh, fac[t, :, 3], out=dz4[t, :, 3])
                dc *= f[t]
                np.matmul(dz[t], uv.T, out=dh)
            if xw.active:
                grads.accumulate(xw.idx, from_run(dz))
            if u.active:
                grads.accumulate(u.idx, hs[:-1].reshape(-1, hid).T @ dz.reshape(-1, 4 * hid))
            if b.active:
                grads.accumulate(b.idx, dz.reshape(-1, 4 * hid).sum(axis=0))

        return self._record(from_run(hs[1:]), (xw, u, b), bwd, "lstm")

    # ---- shape surgery ------------------------------------------------

    def reshape(self, a, shape) -> Node:
        a = self._coerce(a)
        out = a.value.reshape(shape)

        def bwd(g, grads):
            grads.accumulate(a.idx, g.reshape(a.shape))

        return self._record(out, (a,), bwd, "reshape")

    def concat(self, parts, axis: int) -> Node:
        parts = [self._coerce(p) for p in parts]
        out = np.concatenate([p.value for p in parts], axis=axis)

        def bwd(g, grads):
            sl = [slice(None)] * g.ndim
            hi = 0
            for p in parts:
                lo, hi = hi, hi + p.shape[axis]
                if p.active:
                    sl[axis] = slice(lo, hi)
                    grads.accumulate(p.idx, g[tuple(sl)])

        return self._record(out, tuple(parts), bwd, "concat")

    def narrow(self, a, axis: int, start: int, length: int) -> Node:
        a = self._coerce(a)
        sl = [slice(None)] * a.value.ndim
        sl[axis] = slice(start, start + length)
        sl = tuple(sl)
        out = a.value[sl].copy()

        def bwd(g, grads):
            dx = np.zeros(a.shape)
            dx[sl] = g
            grads.accumulate(a.idx, dx)

        return self._record(out, (a,), bwd, "narrow")

    # ---- reductions ---------------------------------------------------

    def reduce_sum(self, a, axes=None, keepdims=False) -> Node:
        a = self._coerce(a)
        if axes is not None and not isinstance(axes, tuple):
            axes = (axes,)
        out = a.value.sum(axis=axes, keepdims=keepdims)
        if out.ndim == 0:
            out = out.reshape(1)
        kept = list(a.value.shape)  # out's shape with keepdims
        for ax in range(len(kept)) if axes is None else axes:
            kept[ax] = 1

        def bwd(g, grads):
            grads.accumulate(a.idx, np.broadcast_to(g.reshape(kept), a.shape))

        return self._record(out, (a,), bwd, "sum")

    def reduce_mean(self, a, axes=None) -> Node:
        a = self._coerce(a)
        total = self.reduce_sum(a, axes)
        return self.mul(total, total.value.size / a.value.size)

    def standardize(self, a, axes, affine=None, moments=None) -> Node:
        """n = (a - mean) / sqrt(var + NORM_EPS) over `axes`, with the biased
        variance; n * gamma + beta when affine = (gamma, beta) is given.

        gamma and beta are per-channel, (C,) for an a of (..., C), so axes
        must keep the last axis.  moments, when given, is
        `mean_var(a.value, axes)`, for a caller that reads them too."""
        a = self._coerce(a)
        mean, var = mean_var(a.value, axes) if moments is None else moments
        n = a.value - mean
        rstd = 1.0 / np.sqrt(var + NORM_EPS)
        n *= rstd
        parents, out = (a,), n
        if affine is not None:
            gamma, beta = self._affine(affine, a.shape)
            if rstd.shape[-1] != a.shape[-1]:
                raise ShapeError(f"a per-channel affine needs axes {axes} to keep the last axis")
            parents = (a, gamma, beta)
            out = n * gamma.value
            out += beta.value
        count = n.size // rstd.size

        def bwd(g, grads):
            # with gamma constant over each slice:
            # dx = gamma * rstd * (g - mean(g) - n * mean(g * n))
            sum_g = _sum(g, axes)
            gn = g * n
            sum_gn = _sum(gn, axes)
            if a.active:
                np.multiply(n, sum_gn / count, out=gn)
                dx = g - sum_g / count
                dx -= gn
                dx *= rstd if affine is None else rstd * gamma.value
                grads.accumulate(a.idx, dx)
            if affine is not None and gamma.active:
                grads.accumulate(gamma.idx, _per_channel(sum_gn))
            if affine is not None and beta.active:
                grads.accumulate(beta.idx, _per_channel(sum_g))

        return self._record(out, parents, bwd, "standardize")

    def _affine(self, affine, shape) -> tuple[Node, Node]:
        """affine = (gamma, beta) as nodes, checked to be (C,) for a map of shape (..., C)."""
        gamma, beta = self._coerce(affine[0]), self._coerce(affine[1])
        C = shape[-1]
        if gamma.shape != (C,) or beta.shape != (C,):
            raise ShapeError(f"affine of {gamma.shape} and {beta.shape} for {shape}: want ({C},)")
        return gamma, beta

    # ---- neural primitives -------------------------------------------

    def conv2d(self, x, kernel, groups: int = 1) -> Node:
        """Grouped same-padded stride-1 cross-correlation of x (..., H, W, C_in)
        by kernel (K, K, C_in // groups, C_out), to (..., H, W, C_out).
        Per group, the dense matrix of the map (`_conv_dense`) has
        H*W*C_in/groups x H*W*C_out/groups entries and the im2col matrix
        nb*H*W x K*K*C_in/groups, nb the product of the leading extents; the
        dense kernel runs when its matrix is no larger, else `_conv_im2col`,
        one matmul per kernel row over the input lowered along W."""
        x, kernel = self._coerce(x), self._coerce(kernel)
        if x.value.ndim < 3 or kernel.value.ndim != 4:
            raise ShapeError(f"conv2d expects (...,H,W,C) and (K,K,Cg,Cout), got {x.shape}, {kernel.shape}")
        *lead, H, W, c_in = x.shape
        K, K2, cg, c_out = kernel.shape
        if K != K2 or K % 2 == 0:
            raise ShapeError(f"kernel must be square with odd extent, got {K}x{K2}")
        if c_in % groups or c_out % groups:
            raise ShapeError(f"channels ({c_in} in, {c_out} out) not divisible by groups={groups}")
        if cg != c_in // groups:
            raise ShapeError(f"kernel input slice {cg} != C_in/groups = {c_in // groups}")
        dense = H * W * (c_out // groups) <= math.prod(lead) * K * K
        out, bwd = (_conv_dense if dense else _conv_im2col)(x, kernel, groups)
        return self._record(out, (x, kernel), bwd, "conv2d")

    def fft2d_magnitude(self, x) -> Node:
        """Per-channel 2D DFT magnitude sqrt(Re^2 + Im^2) over the H and W
        axes of (..., H, W, C); its gradient at exact spectral zeros is zero."""
        x = self._coerce(x)
        if x.value.ndim < 3:
            raise ShapeError(f"fft2d_magnitude expects (...,H,W,C), got {x.shape}")
        H, W, _ = x.shape[-3:]
        X = np.fft.fft2(x.value, axes=(-3, -2))
        out = np.abs(X)

        def bwd(g, grads):
            safe = np.where(out == 0.0, 1.0, out)
            gc = np.where(out == 0.0, 0.0, g / safe) * X
            grads.accumulate(x.idx, np.real(np.fft.ifft2(gc, axes=(-3, -2))) * (H * W))

        return self._record(out, (x,), bwd, "fft2d_mag")

    def maxpool2(self, x) -> Node:
        """2x2 max pooling over (..., H, W, C), H and W even, by _maxpool2_first:
        a window's gradient goes to its first maximum in row order."""
        x = self._coerce(x)
        _check_poolable(x.shape)
        out = np.empty(x.shape[:-3] + (x.shape[-3] // 2, x.shape[-2] // 2, x.shape[-1]))
        first = np.empty(out.shape, dtype=np.uint8)
        _maxpool2_first(x.value, out, first)

        def bwd(g, grads):
            dx = np.empty(x.shape)
            _unpool_first(g, first, dx)
            grads.accumulate(x.idx, dx)

        return self._record(out, (x,), bwd, "maxpool2")

    def gated_norm_pool(self, a, affine, mask=None, scale: float = 1.0, stats=None):
        """maxpool2(n * gamma + beta) in one node, for a of (..., H, W, C)
        with H and W even and affine = (gamma, beta), each (C,).  n is the
        swish gate t = relu(a * sigmoid(a)), times the bool mask and then
        scale when a mask of a's shape is given, normalized per (H, W) map:
        n = (t - mean) / sqrt(var + NORM_EPS), by each map's own mean and
        biased variance when stats is None, else by the per-channel
        stats = (mean, var), such as a batch norm's running buffers.  The
        values are bit for bit those of relu(mul(a, sigmoid(a))), mul by
        the mask and by scale, standardize (or sub, mul, for stats), mul by
        gamma, add beta and maxpool2.

        Returns the node and, when stats is None, each map's (mean, var)
        with keepdims, as mean_var gives them; else None.  Both passes run
        a chunk of leading indices at a time, within IM2COL_CHUNK_BYTES.
        An active node's rule keeps n, each map's 1 / sqrt(var + NORM_EPS),
        the uint8 index of each window's first maximum in row order, where
        the window's gradient goes, and, when a is active, the gate's
        derivative f = s * (1 + a * (1 - s)) * (a > 0) * mask, s being
        sigmoid(a).  An inactive node keeps none of them: it works in
        chunk-sized scratch and pools by maxima alone."""
        a = self._coerce(a)
        gamma, beta = self._affine(affine, a.shape)
        _check_poolable(a.shape)
        if mask is not None and (mask.shape != a.shape or mask.dtype != bool):
            raise ShapeError(f"the dropout mask must be bool of {a.shape}, got {mask.dtype} of {mask.shape}")
        if mask is None:
            scale = 1.0  # scale applies to a masked activation only
        active = a.active or gamma.active or beta.active
        *lead, H, W, C = a.shape
        lead, nb, count = tuple(lead), math.prod(lead), H * W
        # each map is worked on as H rows of W*C against statistics widened
        # to one row, so that numpy's inner loops run along rows, not along C
        rows = (nb, H, W * C)
        maps = lambda v: v.reshape(-1, H, W, C)
        wide = lambda stat: stat.reshape(-1, 1, 1, C).repeat(W, axis=2).reshape(-1, 1, W * C)
        av = a.value.reshape(rows)
        mask = None if mask is None else mask.reshape(rows)
        out = np.empty((nb, H // 2, W // 2, C))
        gamma_w, beta_w = wide(gamma.value), wide(beta.value)
        if stats is None:
            mean, var, rstd = np.empty((3, nb, 1, 1, C))
        else:
            mean_w, rstd_w = wide(stats[0]), wide(1.0 / np.sqrt(stats[1] + NORM_EPS))
        # per sample: a map's gate, its normalization and the gradient's temporaries
        chunk, spans = _spans(nb, 4 * H * W * C * 8)
        work = (chunk, H, W * C)
        t = np.empty(work)
        n = np.empty(rows if active else work)
        first = np.empty(out.shape, dtype=np.uint8) if active else None
        f = np.empty(rows) if a.active else None
        for b0, b1 in spans:
            ac, tc = av[b0:b1], t[:b1 - b0]
            # sc, n's chunk, holds sigmoid(a) until the normalization overwrites it
            sc = nc = n[b0:b1] if active else n[:b1 - b0]
            _sigmoid(ac, out=sc)
            np.multiply(ac, sc, out=tc)
            np.maximum(tc, 0.0, out=tc)
            if mask is not None:
                tc *= mask[b0:b1]
                tc *= scale
            if f is not None:
                # the gate's derivative, rounded as the chain's rule rounds it
                fc = f[b0:b1]
                np.subtract(1.0, sc, out=fc)
                fc *= ac
                fc += 1.0
                fc *= sc
                fc *= ac > 0.0
                if mask is not None:
                    fc *= mask[b0:b1]
            if stats is None:
                # mean_var's steps; its centred map is n's first step
                mean[b0:b1] = _sum(maps(tc), (-3, -2)) / count
                np.subtract(tc, wide(mean[b0:b1]), out=nc)
                np.multiply(nc, nc, out=tc)
                var[b0:b1] = _sum(maps(tc), (-3, -2)) / count
                rstd[b0:b1] = 1.0 / np.sqrt(var[b0:b1] + NORM_EPS)
                nc *= wide(rstd[b0:b1])
            else:
                np.subtract(tc, mean_w, out=nc)
                nc *= rstd_w
            np.multiply(nc, gamma_w, out=tc)
            tc += beta_w
            _maxpool2_first(maps(tc), out[b0:b1], None if first is None else first[b0:b1])

        def bwd(g, grads):
            g = g.reshape(out.shape)
            da = np.empty(rows) if f is not None else None
            sum_g, sum_gn = np.empty((nb, 1, 1, C)), np.empty((nb, 1, 1, C))
            dy, gn = np.empty(work), np.empty(work)
            for b0, b1 in spans:
                dc, gc, nc = dy[:b1 - b0], gn[:b1 - b0], n[b0:b1]
                _unpool_first(g[b0:b1], first[b0:b1], maps(dc))
                np.multiply(dc, nc, out=gc)
                sum_g[b0:b1], sum_gn[b0:b1] = _sum(maps(dc), (-3, -2)), _sum(maps(gc), (-3, -2))
                if da is None:
                    continue
                if stats is None:
                    # as standardize's rule: rstd * gamma * (dy - mean(dy) - n * mean(dy * n))
                    np.multiply(nc, wide(sum_gn[b0:b1] / count), out=gc)
                    dc -= wide(sum_g[b0:b1] / count)
                    dc -= gc
                    dc *= wide(rstd[b0:b1] * gamma.value)
                else:
                    dc *= gamma_w
                    dc *= rstd_w
                d = da[b0:b1]
                np.multiply(f[b0:b1], dc, out=d)
                if scale != 1.0:
                    d *= scale
            if da is not None:
                grads.accumulate(a.idx, da.reshape(a.shape))
            if gamma.active:
                grads.accumulate(gamma.idx, _per_channel(sum_gn))
            if beta.active:
                grads.accumulate(beta.idx, _per_channel(sum_g))

        node = self._record(out.reshape(lead + out.shape[1:]), (a, gamma, beta), bwd, "gated_norm_pool")
        if stats is not None:
            return node, None
        return node, (mean.reshape(lead + (1, 1, C)), var.reshape(lead + (1, 1, C)))

    def upsample_conv2d(self, x, kernel) -> Node:
        """conv2d(u, kernel) for a 3x3 kernel, u being x upsampled x2 by
        nearest neighbour (each value repeated over a 2x2 block), computed
        on x's own grid.

        x: (..., H, W, C), kernel: (3, 3, C, C_out); output (..., 2H, 2W, C_out).
        Output pixel (2p + a, 2q + b) reads rows p + a + d - 1 and columns
        q + b + e - 1 of x for d, e in {0, 1}, each through the sum of the
        3x3 taps that land there: one 2x2 conv of x per output parity (a, b),
        the sub-pixel convolution of Shi et al. 2016, 4/9 of the multiplies.
        The folded kernels are `_UPSAMPLE_FOLD @ kernel`; its backward is
        `_UPSAMPLE_FOLD.T @ dkeff`."""
        x, kernel = self._coerce(x), self._coerce(kernel)
        if x.value.ndim < 3 or kernel.value.ndim != 4 or kernel.shape[:3] != (3, 3, x.shape[-1]):
            raise ShapeError(f"upsample_conv2d expects (...,H,W,C) and (3,3,C,Cout), "
                             f"got {x.shape}, {kernel.shape}")
        *lead, H, W, C = x.shape
        lead = tuple(lead)
        n, c_out = len(lead), kernel.shape[3]
        rows = math.prod(lead) * H * W
        xp = np.zeros(lead + (H + 2, W + 2, C))
        xp[..., 1:H + 1, 1:W + 1, :] = x.value
        # (16, C*C_out) -> (parity ab, taps de and channel c, C_out)
        keff = (_UPSAMPLE_FOLD @ kernel.value.reshape(9, C * c_out)).reshape(4, 4 * C, c_out)
        # (ab, lead, H, W, C_out) <-> (lead, H, a, W, b, C_out), the output's layout
        to_out = (*range(2, n + 2), n + 2, 0, n + 3, 1, n + 4)
        from_out = (n + 1, n + 3, *range(n), n, n + 2, n + 4)

        # (a, b, lead, p, q, d, e, c) -> xp[lead, p + a + d, q + b + e, c]
        sh, sw, sc = xp.strides[-3:]
        windows = _view(xp, (2, 2) + lead + (H, W, 2, 2, C), (sh, sw) + xp.strides[:-3] + (sh, sw, sh, sw, sc))
        im2col = lambda: windows.reshape(4, rows, 4 * C)  # copies: the windows overlap

        out = np.matmul(im2col(), keff).reshape((2, 2) + lead + (H, W, c_out))
        out = out.transpose(to_out).reshape(lead + (2 * H, 2 * W, c_out))

        def bwd(g, grads):
            gm = g.reshape(lead + (H, 2, W, 2, c_out)).transpose(from_out).reshape(4, rows, c_out)
            if kernel.active:
                dkeff = np.matmul(im2col().transpose(0, 2, 1), gm).reshape(16, C * c_out)
                grads.accumulate(kernel.idx, (_UPSAMPLE_FOLD.T @ dkeff).reshape(kernel.shape))
            if x.active:
                dcols = np.matmul(gm, keff.transpose(0, 2, 1)).reshape((2, 2) + lead + (H, W, 2, 2, C))
                dxp = np.zeros_like(xp)
                for a, b, d, e in itertools.product((0, 1), repeat=4):
                    dxp[..., a + d:a + d + H, b + e:b + e + W, :] += dcols[a, b, ..., d, e, :]
                grads.accumulate(x.idx, dxp[..., 1:H + 1, 1:W + 1, :])

        return self._record(out, (x, kernel), bwd, "conv2d")

    # ---- backward -----------------------------------------------------

    def backward(self, loss: Node, keep=()) -> None:
        """Reverse sweep from a scalar loss over the active nodes.

        Parameter leaves that are sources add their gradient into their
        ParamStore entry.  Each gradient is freed once its rule has run, so
        afterwards only the `keep` nodes and the nodes without a rule that
        the loss reaches hold `.grad`: watched leaves, and the loss itself
        when it is inactive.  A kept node always gets a gradient of its own,
        zeros where the loss does not reach it; a leaf's may share memory
        with another node's, or be a read-only broadcast view."""
        if not (loss.idx < len(self.nodes) and self.nodes[loss.idx] is loss):
            raise ContractError("loss node belongs to a different graph")
        if loss.value.size != 1:
            raise ContractError(f"loss must be scalar, got shape {loss.shape}")
        kept = {self._coerce(n).idx for n in keep}
        grads = _Grads((idx, np.zeros_like(self.nodes[idx].value)) for idx in kept)
        grads[loss.idx] = np.ones_like(loss.value)
        for node in reversed(self.nodes[:loss.idx + 1]):
            g = grads.get(node.idx) if node.idx in kept else grads.pop(node.idx, None)
            node.grad = g if node.bwd is None or node.idx in kept else None
            if g is not None and node.bwd is not None:
                node.bwd(g, grads)


# ---- normalization moments -------------------------------------------


def _spatial(nd: int, axes) -> bool:
    """axes are the H and W axes of a (..., H, W, C) array of rank nd."""
    if not isinstance(axes, (tuple, list)) or len(axes) != 2 or nd < 3:
        return False
    return sorted((axes[0] % nd, axes[1] % nd)) == [nd - 3, nd - 2]


def _sum(v: np.ndarray, axes) -> np.ndarray:
    """Sum of v over axes, with keepdims.  Over the spatial axes of
    (..., H, W, C) it is one gemv, ones(H*W) @ v as (nb, H*W, C): numpy's
    strided reduction over those axes is several times slower."""
    if _spatial(v.ndim, axes):
        *lead, H, W, C = v.shape
        return np.matmul(np.ones(H * W), v.reshape(-1, H * W, C)).reshape(tuple(lead) + (1, 1, C))
    return v.sum(axis=axes, keepdims=True)


def mean_var(v: np.ndarray, axes) -> tuple[np.ndarray, np.ndarray]:
    """Mean and biased variance of v over axes, with keepdims."""
    sums = _sum(v, axes)
    count = v.size // sums.size
    mean = sums / count
    centered = v - mean
    centered *= centered
    return mean, _sum(centered, axes) / count


def _per_channel(stat: np.ndarray) -> np.ndarray:
    """The sum over every map of a (..., C) statistic, a (C,) gradient."""
    return stat.reshape(-1, stat.shape[-1]).sum(axis=0)


# ---- 2x2 max pooling ---------------------------------------------------

_WINDOW = ((0, 0), (0, 1), (1, 0), (1, 1))  # a pooling window's entries in row order


def _check_poolable(shape: tuple) -> None:
    if len(shape) < 3:
        raise ShapeError(f"2x2 max pooling expects (...,H,W,C), got {shape}")
    H, W = shape[-3:-1]
    if H % 2 or W % 2:
        raise ShapeError(f"2x2 max pooling needs even extents, got {H}x{W}")


def _maxpool2_first(y: np.ndarray, out: np.ndarray, first: np.ndarray | None) -> None:
    """Writes the 2x2 max pool of y into out, and, unless first is None,
    into first the index in _WINDOW of each window's first maximum.  No
    comparison with NaN holds, so a window holding NaN pools to NaN and
    points at the first maximum of its entries before the first NaN, or at
    its first entry."""
    views = [y[..., i::2, j::2, :] for i, j in _WINDOW]
    if first is not None:
        np.greater(views[1], views[0], out=first)
        hit = np.empty(first.shape, dtype=np.uint8)
    np.maximum(views[0], views[1], out=out)
    for k in (2, 3):
        if first is not None:
            # a view that exceeds the running maximum is the first maximum so far
            np.greater(views[k], out, out=hit)
            hit *= k
            np.maximum(first, hit, out=first)
        np.maximum(out, views[k], out=out)


def _unpool_first(g: np.ndarray, first: np.ndarray, dx: np.ndarray) -> None:
    """Writes into dx, (..., H, W, C), the gradient of a 2x2 max pool whose
    first maxima _maxpool2_first wrote: each window's g at its first
    maximum, zero at its other entries."""
    for k, (i, j) in enumerate(_WINDOW):
        np.multiply(g, first == k, out=dx[..., i::2, j::2, :])


# ---- conv2d kernels -------------------------------------------------

# (a, d) x i: 1 where row i of a 3x3 kernel, at output row 2p + a of a x2
# nearest-upsampled map, reads row p + a + d - 1 of the small map
_FOLD_ROWS = np.array([[1, 0, 0], [0, 1, 1], [1, 1, 0], [0, 0, 1]], dtype=np.float64).reshape(2, 2, 3)
# (16, 9): rows (a, b, d, e), columns (i, j); folds a 3x3 kernel into the
# four 2x2 kernels of Graph.upsample_conv2d
_UPSAMPLE_FOLD = np.einsum("adi,bej->abdeij", _FOLD_ROWS, _FOLD_ROWS).reshape(16, 9)

# one chunk's columns and padded input in _im2col, or its maps in gated_norm_pool
IM2COL_CHUNK_BYTES = 1 << 20


def _spans(nb: int, bytes_per_sample: int) -> tuple[int, list[tuple[int, int]]]:
    """The chunk of leading indices that fits IM2COL_CHUNK_BYTES, at least
    one, and the (start, stop) of each chunk of nb."""
    chunk = min(nb, max(1, IM2COL_CHUNK_BYTES // bytes_per_sample))
    return chunk, [(b, min(b + chunk, nb)) for b in range(0, nb, chunk)]


def _view(buf: np.ndarray, shape: tuple, strides: tuple) -> np.ndarray:
    """A read-only view of buf's memory from its first byte, by shape and
    strides; numpy raises if the view reaches outside buf."""
    view = np.ndarray(shape, buf.dtype, buf, 0, strides)
    view.flags.writeable = False
    return view


def _columns(xb: np.ndarray, K: int, groups: int):
    """Yields (b0, b1, taps) for each chunk of xb's (nb, H, W, C) maps.  The
    chunk is lowered along W only (MEC, Cho & Brand 2017, arXiv:1706.06873)
    into low, (groups, m, H+K-1, W*K*cg) with cg = C/groups, where
    low[g, b, r, (q, j, c)] is the zero-padded x[b, r, q + j, g*cg + c];
    taps[i] is the (groups, m, H*W, K*cg) view of its rows i..i+H-1, which
    kernel row i reads.  Built from a padded copy of the chunk, valid until
    the next."""
    nb, H, W, c_in = xb.shape
    P, cg = K // 2, c_in // groups
    Hp, Wp = H + 2 * P, W + 2 * P
    chunk, spans = _spans(nb, (Hp * W * K + Hp * Wp) * c_in * 8)  # lowering, padded input
    xp = np.zeros((chunk, Hp, Wp, c_in))  # the border stays zero
    low = np.empty((groups, chunk, Hp, W, K, cg))
    sb, sh, sw, sc = xp.strides
    for b0, b1 in spans:
        m = b1 - b0
        xp[:m, P:P + H, P:P + W] = xb[b0:b1]
        # (groups, m, Hp, W, K, cg) -> xp[b, r, q + j, group*cg + c]
        windows = _view(xp, (groups, m, Hp, W, K, cg), (cg * sc, sb, sh, sw, sw, sc))
        np.copyto(low[:, :m], windows)
        yield b0, b1, [low[:, :m, i:i + H].reshape(groups, m, H * W, K * cg) for i in range(K)]


def _im2col(xb: np.ndarray, kernel: np.ndarray, groups: int) -> np.ndarray:
    """The conv of xb's (nb, H, W, C_in) maps by kernel (K, K, C_in/groups,
    C_out), as (nb, H, W, C_out): per chunk, the sum over kernel rows i of
    taps[i] times row i viewed as (groups, K*C_in/groups, C_out/groups)."""
    nb, H, W, _ = xb.shape
    K, _, cg, c_out = kernel.shape
    cog = c_out // groups
    krows = kernel.reshape(K, K * cg, groups, cog).transpose(0, 2, 1, 3)[:, :, None]
    out = np.empty((nb, H * W, groups, cog))
    for b0, b1, taps in _columns(xb, K, groups):
        acc = out[b0:b1].transpose(2, 0, 1, 3)
        np.matmul(taps[0], krows[0], out=acc)
        for tap, krow in zip(taps[1:], krows[1:]):
            acc += np.matmul(tap, krow)
    return out.reshape(nb, H, W, c_out)


# Each takes conv2d's checked operands and returns the output value and the
# backward rule.


def _conv_im2col(x: Node, kernel: Node, groups: int):
    """_im2col of x's maps; bwd lowers x again for dk, the same row taps
    transposed times g, and gets dx as the _im2col of g by the flipped
    kernel (see the module docstring)."""
    H, W, c_in = x.shape[-3:]
    K, _, cg, c_out = kernel.shape
    cog = c_out // groups
    xb = x.value.reshape(-1, H, W, c_in)

    def bwd(g, grads):
        if kernel.active:
            gm = g.reshape(-1, H * W, groups, cog).transpose(2, 0, 1, 3)
            # (K, groups, K*cg, cog); no name outlives the pass to keep its
            # last chunk's lowering
            dk = sum(np.stack([np.matmul(tap.transpose(0, 1, 3, 2), gm[:, b0:b1]).sum(axis=1) for tap in taps])
                     for b0, b1, taps in _columns(xb, K, groups))
            dk = dk.reshape(K, groups, K, cg, cog).transpose(0, 2, 3, 1, 4)
            grads.accumulate(kernel.idx, dk.reshape(kernel.shape))
        if x.active:  # not so for the raw image batch
            flipped = kernel.value[::-1, ::-1].reshape(K, K, cg, groups, cog).transpose(0, 1, 4, 3, 2)
            dx = _im2col(g.reshape(-1, H, W, c_out), flipped.reshape(K, K, cog, c_in), groups)
            grads.accumulate(x.idx, dx.reshape(x.shape))

    return _im2col(xb, kernel.value, groups).reshape(x.shape[:-1] + (c_out,)), bwd


@functools.lru_cache(maxsize=64)
def _tap_index(H: int, W: int, K: int) -> np.ndarray:
    """(H*W, H*W) read-only: the tap ty*K + tx of a KxK same-padded kernel
    that links each input pixel to each output pixel, or K*K where that
    tap falls outside the kernel.  Cached: it costs more than a small
    map's whole dense forward."""
    P = K // 2
    ty = (np.arange(H)[:, None] - np.arange(H) + P)[:, None, :, None]
    tx = (np.arange(W)[:, None] - np.arange(W) + P)[None, :, None, :]
    inside = (0 <= ty) & (ty < K) & (0 <= tx) & (tx < K)
    t = np.where(inside, ty * K + tx, K * K).reshape(H * W, -1)
    t.flags.writeable = False
    return t


def _conv_dense(x: Node, kernel: Node, groups: int):
    """x as (groups, nb, H*W*cg) times the dense matrix D of the map,
    (groups, H*W*cg, H*W*cog): D[(p, c), (q, o)] is the kernel entry of the
    tap t[p, q] that links input pixel p to output pixel q, or zero where
    that tap falls outside the kernel."""
    *lead, H, W, c_in = x.shape
    K, _, cg, c_out = kernel.shape
    cog, nb, HW = c_out // groups, math.prod(lead), H * W
    t = _tap_index(H, W, K)
    taps = np.concatenate([kernel.value.reshape(K * K, cg, groups, cog), np.zeros((1, cg, groups, cog))])
    # bwd reads D: it is no larger than the im2col matrix, and rebuilding
    # it there measured slower than keeping it until the sweep
    D = taps[t].transpose(3, 0, 2, 1, 4).reshape(groups, HW * cg, HW * cog)
    xm = x.value.reshape(nb, HW, groups, cg).transpose(2, 0, 1, 3).reshape(groups, nb, HW * cg)
    out = np.matmul(xm, D).reshape(groups, nb, HW, cog).transpose(1, 2, 0, 3)
    out = out.reshape(tuple(lead) + (H, W, c_out))

    def bwd(g, grads):
        gm = g.reshape(nb, HW, groups, cog).transpose(2, 0, 1, 3).reshape(groups, nb, HW * cog)
        if kernel.active:
            dD = np.matmul(xm.transpose(0, 2, 1), gm).reshape(groups, HW, cg, HW, cog)
            dD = dD.transpose(1, 3, 2, 0, 4).reshape(HW * HW, cg * c_out)
            # one-hot of t without the zero tap's row
            onehot = (np.arange(K * K)[:, None] == t.reshape(1, -1)).astype(np.float64)
            grads.accumulate(kernel.idx, (onehot @ dD).reshape(kernel.shape))
        if x.active:
            dx = np.matmul(gm, D.transpose(0, 2, 1)).reshape(groups, nb, HW, cg).transpose(1, 2, 0, 3)
            grads.accumulate(x.idx, dx.reshape(x.shape))

    return out, bwd
