"""Independent brute-force reference implementations used by the tests.

Everything here is deliberately naive (explicit loops, quadratic DFT) so
that agreement with the production code is meaningful.
"""

from __future__ import annotations

import numpy as np


def matmul_loops(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    n, k = a.shape
    k2, m = b.shape
    assert k == k2
    out = np.zeros((n, m))
    for i in range(n):
        for j in range(m):
            for t in range(k):
                out[i, j] += a[i, t] * b[t, j]
    return out


def conv2d_loops(x: np.ndarray, kernel: np.ndarray, groups: int = 1) -> np.ndarray:
    """Same-padded stride-1 grouped cross-correlation, six nested loops."""
    H, W, c_in = x.shape
    K, _, cg, c_out = kernel.shape
    P = K // 2
    cig, cog = c_in // groups, c_out // groups
    out = np.zeros((H, W, c_out))
    for gi in range(groups):
        for d in range(cog):
            do = gi * cog + d
            for i in range(H):
                for j in range(W):
                    acc = 0.0
                    for c in range(cig):
                        ci = gi * cig + c
                        for u in range(K):
                            for v in range(K):
                                ii, jj = i + u - P, j + v - P
                                if 0 <= ii < H and 0 <= jj < W:
                                    acc += x[ii, jj, ci] * kernel[u, v, c, do]
                    out[i, j, do] = acc
    return out


def gated_norm_pool_chain(g, a, affine, mask, stats):
    """Graph.gated_conv_pool after its conv a, as the chain of single ops
    it replaces: relu(mul(a, sigmoid(a))), mul by the float dropout mask when given, then
    standardize over (H, W) when stats is None, else sub stats[0] and mul by
    1 / sqrt(stats[1] + 1e-5), mul by gamma, add beta, and maxpool2.
    Returns the pooled node and the gated one."""
    act = g.relu(g.mul(a, g.sigmoid(a)))
    if mask is not None:
        act = g.mul(act, g.constant(mask))
    if stats is None:
        normed = g.standardize(act, (-3, -2))
    else:
        normed = g.mul(g.sub(act, g.constant(stats[0])), g.constant(1.0 / np.sqrt(stats[1] + 1e-5)))
    gamma, beta = affine
    return g.maxpool2(g.add(g.mul(normed, gamma), beta)), act


def gated_block_chain(g, store, name: str, x, c_out: int, train: bool, mask):
    """The gated block as the chain of single ops it was built from: conv2d
    and gated_norm_pool_chain, which in train mode normalizes by each map's
    moments, folding each map's np.mean and np.var into the store's running
    buffers in batch order, and in eval mode by those buffers."""
    conv = g.conv2d(x, g.param(store, f"{name}.kernel", (3, 3, x.shape[-1], c_out)))
    gamma = g.param(store, f"{name}.bn.gamma", (c_out,), "ones")
    beta = g.param(store, f"{name}.bn.beta", (c_out,), "zeros")
    keys = [f"{name}.bn.running_mean", f"{name}.bn.running_var"]
    stats = None if train else tuple(store.buffers[k] for k in keys)
    out, act = gated_norm_pool_chain(g, conv, (gamma, beta), mask, stats)
    if train:
        for key, stat in zip(keys, (np.mean, np.var)):
            buf = store.buffers[key]
            for per_map in stat(act.value, axis=(-3, -2)).reshape(-1, c_out):
                buf = 0.9 * buf + 0.1 * per_map
            store.buffers[key] = buf
    return out


def dft2_magnitude_quadratic(x: np.ndarray) -> np.ndarray:
    """Direct O((HW)^2) per-channel 2D DFT magnitude."""
    H, W, C = x.shape
    out = np.zeros((H, W, C))
    for c in range(C):
        for u in range(H):
            for v in range(W):
                acc = 0.0 + 0.0j
                for i in range(H):
                    for j in range(W):
                        acc += x[i, j, c] * np.exp(-2j * np.pi * (u * i / H + v * j / W))
                out[u, v, c] = abs(acc)
    return out


def maxpool2_scan(x: np.ndarray) -> np.ndarray:
    H, W, C = x.shape
    out = np.zeros((H // 2, W // 2, C))
    for i in range(H // 2):
        for j in range(W // 2):
            for c in range(C):
                out[i, j, c] = max(
                    x[2 * i, 2 * j, c],
                    x[2 * i, 2 * j + 1, c],
                    x[2 * i + 1, 2 * j, c],
                    x[2 * i + 1, 2 * j + 1, c],
                )
    return out


def maxpool2_grad_scan(x: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Each window's gradient at its first maximum in row order."""
    dx = np.zeros_like(x)
    for i in range(x.shape[0] // 2):
        for j in range(x.shape[1] // 2):
            for c in range(x.shape[2]):
                window = [(2 * i + di, 2 * j + dj) for di in (0, 1) for dj in (0, 1)]
                values = [x[r, s, c] for r, s in window]
                r, s = window[values.index(max(values))]
                dx[r, s, c] = g[i, j, c]
    return dx


def lstm_unrolled(xs, w, u, b, hid):
    """Per-gate unrolled LSTM over rows of xs; returns hidden states.

    w, u, b are dicts keyed by gate letter i/f/g/o.
    """

    def sig(z):
        return 1.0 / (1.0 + np.exp(-z))

    h = np.zeros(hid)
    c = np.zeros(hid)
    outs = []
    for x in xs:
        i_t = sig(x @ w["i"] + h @ u["i"] + b["i"])
        f_t = sig(x @ w["f"] + h @ u["f"] + b["f"])
        g_t = np.tanh(x @ w["g"] + h @ u["g"] + b["g"])
        o_t = sig(x @ w["o"] + h @ u["o"] + b["o"])
        c = f_t * c + i_t * g_t
        h = o_t * np.tanh(c)
        outs.append(h.copy())
    return outs


def softmax_rows(z: np.ndarray) -> np.ndarray:
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def attention_loops(x, wq, wk, wv, scale):
    """Explicit QK^T/softmax/V single-head self-attention."""
    return attention_rows(x @ wq, x @ wk, x @ wv, scale)


def attention_rows(q, k, v, scale):
    """Each row of q attends over the rows of k: v's rows weighted by the
    softmax of q[i] . k[j] * scale over j."""
    out = np.zeros((len(q), v.shape[1]))
    for i in range(len(q)):
        logits = np.array([q[i] @ k[j] * scale for j in range(len(k))])
        w = np.exp(logits - logits.max())
        w /= w.sum()
        for j in range(len(k)):
            out[i] += w[j] * v[j]
    return out


def layer_norm_ref(x: np.ndarray, eps: float = 1e-5) -> np.ndarray:
    mu = x.mean(axis=-1, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=-1, keepdims=True)
    return (x - mu) / np.sqrt(var + eps)


def adamw_reference(w0, grads, lr, b1, b2, eps, wd):
    """Standalone scalar AdamW trajectory."""
    w = float(w0)
    m = v = 0.0
    for t, g in enumerate(grads, start=1):
        w *= 1.0 - lr * wd
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        m_hat = m / (1 - b1**t)
        v_hat = v / (1 - b2**t)
        w -= lr * m_hat / (np.sqrt(v_hat) + eps)
    return w


def binom_two_sided(b: int, c: int) -> float:
    import math

    n = b + c
    if n == 0:
        return 1.0
    k = min(b, c)
    tail = sum(math.comb(n, i) for i in range(k + 1)) * 0.5**n
    return min(1.0, 2.0 * tail)
