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

The image ops take (..., H, W, C) and matmul takes (..., n, k) @ (k, m) or
(B, n, k) @ (B, k, m), so one graph can carry a whole batch on a leading
axis; without one, an op does exactly the unbatched work.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


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


class _LazyGrads(dict):
    """Gradient accumulators by node index, zero-filled on first use."""

    def __init__(self, nodes):
        super().__init__()
        self.nodes = nodes

    def __missing__(self, idx):
        z = np.zeros_like(self.nodes[idx].value)
        self[idx] = z
        return z


class Graph:
    """Ordered tape of Nodes; single-writer during one forward/backward.

    With param_grads=False the parameter leaves are not sources, so
    backward leaves every ParamStore grad untouched."""

    def __init__(self, param_grads: bool = True):
        self.nodes: list[Node] = []
        self.param_grads = param_grads

    def _record(self, value, parents, bwd, tag, source=False) -> Node:
        active = source or any(p.active for p in parents)
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

    def param(self, store, name: str) -> Node:
        """Leaf backed by a ParamStore entry; backward accumulates there."""
        entry = store.entries[name]

        def bwd(g, grads):
            entry.grad += g  # read at call time: adamw_step replaces the array

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

    def add(self, a, b) -> Node:
        a, b = self._coerce(a), self._coerce(b)
        out = a.value + b.value

        def bwd(g, grads):
            if a.active:
                grads[a.idx] += _unbroadcast(g, a.shape)
            if b.active:
                grads[b.idx] += _unbroadcast(g, b.shape)

        return self._record(out, (a, b), bwd, "add")

    def sub(self, a, b) -> Node:
        a, b = self._coerce(a), self._coerce(b)
        out = a.value - b.value

        def bwd(g, grads):
            if a.active:
                grads[a.idx] += _unbroadcast(g, a.shape)
            if b.active:
                grads[b.idx] -= _unbroadcast(g, b.shape)

        return self._record(out, (a, b), bwd, "sub")

    def mul(self, a, b) -> Node:
        a, b = self._coerce(a), self._coerce(b)
        out = a.value * b.value

        def bwd(g, grads):
            if a.active:
                grads[a.idx] += _unbroadcast(g * b.value, a.shape)
            if b.active:
                grads[b.idx] += _unbroadcast(g * a.value, b.shape)

        return self._record(out, (a, b), bwd, "mul")

    def scale(self, a, c: float) -> Node:
        a = self._coerce(a)
        out = a.value * c

        def bwd(g, grads):
            grads[a.idx] += g * c

        return self._record(out, (a,), bwd, "scale")

    def sigmoid(self, a) -> Node:
        a = self._coerce(a)
        with np.errstate(over="ignore"):
            out = 1.0 / (1.0 + np.exp(-a.value))

        def bwd(g, grads):
            grads[a.idx] += g * out * (1.0 - out)

        return self._record(out, (a,), bwd, "sigmoid")

    def tanh(self, a) -> Node:
        a = self._coerce(a)
        out = np.tanh(a.value)

        def bwd(g, grads):
            grads[a.idx] += g * (1.0 - out * out)

        return self._record(out, (a,), bwd, "tanh")

    def relu(self, a) -> Node:
        a = self._coerce(a)
        out = np.maximum(a.value, 0.0)

        def bwd(g, grads):
            grads[a.idx] += g * (a.value > 0.0)

        return self._record(out, (a,), bwd, "relu")

    def softplus(self, a) -> Node:
        """log(1 + exp(a)) without overflow or cancellation."""
        a = self._coerce(a)
        out = np.logaddexp(0.0, a.value)

        def bwd(g, grads):
            with np.errstate(over="ignore"):
                grads[a.idx] += g * (1.0 / (1.0 + np.exp(-a.value)))

        return self._record(out, (a,), bwd, "softplus")

    # ---- linear algebra ----------------------------------------------

    def matmul(self, a, b) -> Node:
        """(..., n, k) @ (k, m), or (B, n, k) @ (B, k, m) batched per row of B."""
        a, b = self._coerce(a), self._coerce(b)
        av, bv = a.value, b.value
        stacked = av.ndim == bv.ndim == 3 and av.shape[0] == bv.shape[0]
        if av.ndim < 2 or not (bv.ndim == 2 or stacked):
            raise ShapeError(f"matmul needs (...,n,k) @ (k,m) or (B,n,k) @ (B,k,m), "
                             f"got {a.shape} and {b.shape}")
        if av.shape[-1] != bv.shape[-2]:
            raise ShapeError(f"matmul inner extents differ: {a.shape} vs {b.shape}")
        k, m = bv.shape[-2:]
        folded = av.ndim > 2 and not stacked  # rows fold into one gemm; rank 2 skips the reshapes
        if folded:
            out = (av.reshape(-1, k) @ bv).reshape(av.shape[:-1] + (m,))
        else:
            out = av @ bv

        def bwd(g, grads):
            if a.active:
                da = (g.reshape(-1, m) @ bv.T).reshape(av.shape) if folded else g @ bv.swapaxes(-1, -2)
                grads[a.idx] += da
            if b.active:
                grads[b.idx] += av.reshape(-1, k).T @ g.reshape(-1, m) if folded else av.swapaxes(-1, -2) @ g

        return self._record(out, (a, b), bwd, "matmul")

    def transpose(self, a) -> Node:
        """Swaps the last two axes."""
        a = self._coerce(a)
        if a.value.ndim < 2:
            raise ShapeError(f"transpose needs rank >= 2, got {a.shape}")
        out = np.swapaxes(a.value, -1, -2).copy()

        def bwd(g, grads):
            grads[a.idx] += np.swapaxes(g, -1, -2)

        return self._record(out, (a,), bwd, "transpose")

    # ---- shape surgery ------------------------------------------------

    def reshape(self, a, shape) -> Node:
        a = self._coerce(a)
        out = a.value.reshape(shape)

        def bwd(g, grads):
            grads[a.idx] += g.reshape(a.shape)

        return self._record(out, (a,), bwd, "reshape")

    def concat(self, parts, axis: int) -> Node:
        parts = [self._coerce(p) for p in parts]
        out = np.concatenate([p.value for p in parts], axis=axis)
        offsets = np.cumsum([0] + [p.shape[axis] for p in parts])

        def bwd(g, grads):
            for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
                if not p.active:
                    continue
                sl = [slice(None)] * g.ndim
                sl[axis] = slice(lo, hi)
                grads[p.idx] += g[tuple(sl)]

        return self._record(out, tuple(parts), bwd, "concat")

    def narrow(self, a, axis: int, start: int, length: int) -> Node:
        a = self._coerce(a)
        sl = [slice(None)] * a.value.ndim
        sl[axis] = slice(start, start + length)
        sl = tuple(sl)
        out = a.value[sl].copy()

        def bwd(g, grads):
            grads[a.idx][sl] += g

        return self._record(out, (a,), bwd, "narrow")

    # ---- reductions ---------------------------------------------------

    def reduce_sum(self, a, axes=None, keepdims=False) -> Node:
        a = self._coerce(a)
        out = a.value.sum(axis=axes, keepdims=keepdims)
        if out.ndim == 0:
            out = out.reshape(1)
        nd = a.value.ndim
        reduced = range(nd) if axes is None else {ax % nd for ax in np.atleast_1d(axes)}
        kept = tuple(1 if i in reduced else n for i, n in enumerate(a.shape))

        def bwd(g, grads):
            grads[a.idx] += g.reshape(kept)

        return self._record(out, (a,), bwd, "sum")

    def reduce_mean(self, a, axes=None, keepdims=False) -> Node:
        a = self._coerce(a)
        total = self.reduce_sum(a, axes, keepdims)
        return self.scale(total, total.value.size / a.value.size)

    def softmax_last(self, a) -> Node:
        a = self._coerce(a)
        shifted = a.value - a.value.max(axis=-1, keepdims=True)
        e = np.exp(shifted)
        out = e / e.sum(axis=-1, keepdims=True)

        def bwd(g, grads):
            dot = (g * out).sum(axis=-1, keepdims=True)
            grads[a.idx] += out * (g - dot)

        return self._record(out, (a,), bwd, "softmax")

    def standardize(self, a, axes, eps: float) -> Node:
        """(a - mean) / sqrt(var + eps) over `axes`, with the biased variance."""
        a = self._coerce(a)
        centered = a.value - a.value.mean(axis=axes, keepdims=True)
        rstd = 1.0 / np.sqrt((centered * centered).mean(axis=axes, keepdims=True) + eps)
        out = centered * rstd

        def bwd(g, grads):
            gy = (g * out).mean(axis=axes, keepdims=True)
            grads[a.idx] += (g - g.mean(axis=axes, keepdims=True) - out * gy) * rstd

        return self._record(out, (a,), bwd, "standardize")

    # ---- neural primitives -------------------------------------------

    def conv2d(self, x, kernel, groups: int = 1, stride: int = 1) -> Node:
        """Grouped same-padded cross-correlation kept at rows and columns
        0, stride, 2*stride, ...

        x: (..., H, W, C_in) with H and W multiples of stride,
        kernel: (K, K, C_in // groups, C_out); output (..., H/stride, W/stride, C_out).
        Computed as one matmul batched over groups: an im2col matrix with
        columns ordered (i, j, c), and one row per output pixel of every
        leading index, times the kernel viewed as
        (groups, K*K*C_in/groups, C_out/groups).
        """
        x, kernel = self._coerce(x), self._coerce(kernel)
        if x.value.ndim < 3 or kernel.value.ndim != 4:
            raise ShapeError(f"conv2d expects (...,H,W,C) and (K,K,Cg,Cout), got {x.shape}, {kernel.shape}")
        *lead, H, W, c_in = x.shape
        lead = tuple(lead)
        n = len(lead)
        K, K2, cg, c_out = kernel.shape
        if K != K2 or K % 2 == 0:
            raise ShapeError(f"kernel must be square with odd extent, got {K}x{K2}")
        if c_in % groups or c_out % groups:
            raise ShapeError(f"channels ({c_in} in, {c_out} out) not divisible by groups={groups}")
        if cg != c_in // groups:
            raise ShapeError(f"kernel input slice {cg} != C_in/groups = {c_in // groups}")
        if stride < 1 or H % stride or W % stride:
            raise ShapeError(f"extents {H}x{W} not divisible by stride {stride}")
        P, s = K // 2, stride
        Ho, Wo, cog = H // s, W // s, c_out // groups
        rows = math.prod(lead) * Ho * Wo
        # bwd rebuilds the columns: keeping them on the tape would hold
        # K*K copies of every conv input until the sweep ends
        xp = np.zeros(lead + (H + 2 * P, W + 2 * P, c_in))  # np.pad costs several times this
        xp[..., P:P + H, P:P + W, :] = x.value
        kmat = kernel.value.reshape(K * K * cg, groups, cog).transpose(1, 0, 2)
        # (lead, Ho, Wo, groups, cg, K, K) -> (groups, lead, Ho, Wo, K, K, cg),
        # and the column grads back to (lead, Ho, Wo, K, K, groups, cg)
        to_cols = (n + 2, *range(n + 2), n + 4, n + 5, n + 3)
        from_cols = (*range(1, n + 5), 0, n + 5)

        def im2col():
            win = sliding_window_view(xp, (K, K), axis=(n, n + 1))[..., ::s, ::s, :, :, :]
            win = win.reshape(lead + (Ho, Wo, groups, cg, K, K)).transpose(to_cols)
            return win.reshape(groups, rows, K * K * cg)

        out = np.matmul(im2col(), kmat).transpose(1, 0, 2).reshape(lead + (Ho, Wo, c_out))

        def bwd(g, grads):
            gm = g.reshape(rows, groups, cog).transpose(1, 0, 2)
            if kernel.active:
                dk = np.matmul(im2col().transpose(0, 2, 1), gm)
                grads[kernel.idx] += dk.transpose(1, 0, 2).reshape(kernel.shape)
            if x.active:  # not so for the raw image batch
                dcols = np.matmul(gm, kmat.transpose(0, 2, 1)).reshape((groups,) + lead + (Ho, Wo, K, K, cg))
                dcols = dcols.transpose(from_cols)
                dxp = np.zeros_like(xp)
                dxp_g = dxp.reshape(lead + (H + 2 * P, W + 2 * P, groups, cg))
                for i in range(K):
                    for j in range(K):
                        dxp_g[..., i:i + H:s, j:j + W:s, :, :] += dcols[..., i, j, :, :]
                grads[x.idx] += dxp[..., P:P + H, P:P + W, :]

        return self._record(out, (x, kernel), bwd, "conv2d")

    def fft2d_magnitude(self, x) -> Node:
        """Per-channel 2D DFT magnitude sqrt(Re^2 + Im^2) over the H and W
        axes of (..., H, W, C).

        Gradient at exact spectral zeros is defined as zero.
        """
        x = self._coerce(x)
        if x.value.ndim < 3:
            raise ShapeError(f"fft2d_magnitude expects (...,H,W,C), got {x.shape}")
        H, W, _ = x.shape[-3:]
        X = np.fft.fft2(x.value, axes=(-3, -2))
        out = np.abs(X)

        def bwd(g, grads):
            safe = np.where(out == 0.0, 1.0, out)
            gc = np.where(out == 0.0, 0.0, g / safe) * X
            grads[x.idx] += np.real(np.fft.ifft2(gc, axes=(-3, -2))) * (H * W)

        return self._record(out, (x,), bwd, "fft2d_mag")

    def maxpool2(self, x) -> Node:
        """2x2 max pooling over (..., H, W, C); odd extents are edge-replicated first."""
        x = self._coerce(x)
        if x.value.ndim < 3:
            raise ShapeError(f"maxpool2 expects (...,H,W,C), got {x.shape}")
        *lead, H, W, C = x.shape
        lead = tuple(lead)
        n = len(lead)
        ph, pw = H % 2, W % 2
        xp = x.value
        if ph or pw:
            xp = np.pad(xp, ((0, 0),) * n + ((0, ph), (0, pw), (0, 0)), mode="edge")
        H2, W2 = (H + ph) // 2, (W + pw) // 2
        keep = tuple(range(n))
        r = xp.reshape(lead + (H2, 2, W2, 2, C)).transpose(keep + (n, n + 2, n + 4, n + 1, n + 3))
        r = r.reshape(lead + (H2, W2, C, 4))
        arg = r.argmax(axis=-1)
        out = np.take_along_axis(r, arg[..., None], axis=-1)[..., 0]

        def bwd(g, grads):
            dr = np.zeros(lead + (H2, W2, C, 4))
            np.put_along_axis(dr, arg[..., None], g[..., None], axis=-1)
            dxp = dr.reshape(lead + (H2, W2, C, 2, 2)).transpose(keep + (n, n + 3, n + 1, n + 4, n + 2))
            dxp = dxp.reshape(lead + (H2 * 2, W2 * 2, C))
            dx = dxp[..., :H, :W, :].copy()
            if ph:
                dx[..., H - 1, :, :] += dxp[..., H, :W, :]
            if pw:
                dx[..., :, W - 1, :] += dxp[..., :H, W, :]
            if ph and pw:
                dx[..., H - 1, W - 1, :] += dxp[..., H, W, :]
            grads[x.idx] += dx

        return self._record(out, (x,), bwd, "maxpool2")

    def upsample2(self, x) -> Node:
        """Nearest-neighbor x2 upsampling of (..., H, W, C); gradient sums replicated cells."""
        x = self._coerce(x)
        if x.value.ndim < 3:
            raise ShapeError(f"upsample2 expects (...,H,W,C), got {x.shape}")
        out = np.repeat(np.repeat(x.value, 2, axis=-3), 2, axis=-2)
        *lead, H, W, C = x.shape

        def bwd(g, grads):
            grads[x.idx] += g.reshape(tuple(lead) + (H, 2, W, 2, C)).sum(axis=(-4, -2))

        return self._record(out, (x,), bwd, "upsample2")

    def dropout(self, x, rate: float, uniforms: np.ndarray) -> Node:
        """Inverted dropout that keeps the entries whose uniform draw in
        [0, 1) is >= rate; caller only invokes this in train mode."""
        x = self._coerce(x)
        if uniforms.shape != x.shape:
            raise ShapeError(f"dropout uniforms {uniforms.shape} do not match {x.shape}")
        mask = (uniforms >= rate) / (1.0 - rate)
        out = x.value * mask

        def bwd(g, grads):
            grads[x.idx] += g * mask

        return self._record(out, (x,), bwd, "dropout")

    # ---- backward -----------------------------------------------------

    def backward(self, loss: Node, keep=()) -> None:
        """Reverse sweep from a scalar loss over the active nodes.

        Parameter leaves that are sources add their gradient into their
        ParamStore entry.  Each gradient is freed once its rule has run, so
        afterwards only the `keep` nodes and the nodes without a rule that
        the loss reaches hold `.grad`: watched leaves, and the loss itself
        when it is inactive.  A kept node always gets a gradient, zeros
        where the loss does not reach it."""
        if not (loss.idx < len(self.nodes) and self.nodes[loss.idx] is loss):
            raise ContractError("loss node belongs to a different graph")
        if loss.value.size != 1:
            raise ContractError(f"loss must be scalar, got shape {loss.shape}")
        kept = {self._coerce(n).idx for n in keep}
        grads = _LazyGrads(self.nodes)
        grads[loss.idx] = np.ones_like(loss.value)
        for node in reversed(self.nodes[:loss.idx + 1]):
            g = grads[node.idx] if node.idx in kept else grads.pop(node.idx, None)
            node.grad = g if node.bwd is None or node.idx in kept else None
            if g is not None and node.bwd is not None:
                node.bwd(g, grads)
