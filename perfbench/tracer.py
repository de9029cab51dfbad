"""Outside-in tracer: wraps floodnet's public entry points from the
benchmark's side, records spans at module boundaries and keeps counters
per op tag.

- A span is ``[name, start, end, parent, op]``; ``parent`` indexes the
  enclosing span (None at top level) and ``op`` is the step or request id
  ("setup" and "teardown" outside the timed loop).
- Forward time per op tag is self time: a Graph method's duration minus
  that of the Graph methods it calls (reduce_mean calls reduce_sum, ...).
- Backward time per node comes from wrapping each tape node's ``bwd``
  just before ``Graph.backward`` runs.  A module's backward time is the
  sum over the node-index range its forward call appended.
- Node, byte and FLOP counts are computed from the tape's array shapes.

Nothing is written until ``dump``.  Wrappers are installed by ``patched``
and removed when it exits, so untraced code runs the original functions.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import time

from floodnet import cctfrm, data, gradcam, hcamam, layers, mfim, model, params, training
from floodnet import checkpoint
from floodnet.autodiff import Graph

MIB = 1024.0 * 1024.0

TAGS = ("conv2d", "matmul", "fft2d_mag", "maxpool2", "upsample2", "subsample",
        "softmax", "elementwise", "shape", "reduce")
_SHAPE_TAGS = {"const", "param", "reshape", "concat", "narrow", "transpose"}
# Graph method name -> tag of the node it records, where the two differ
_METHOD_TAG = {"constant": "const", "reduce_sum": "sum", "reduce_mean": "sum",
               "softmax_last": "softmax", "fft2d_magnitude": "fft2d_mag",
               "nearest_subsample": "subsample"}


def tag_class(tag: str) -> str:
    """Maps a node tag onto TAGS; unnamed tags go to the last three."""
    tag = tag.split(":", 1)[0]
    if tag in TAGS:
        return tag
    if tag in _SHAPE_TAGS:
        return "shape"
    return "reduce" if tag == "sum" else "elementwise"


# (span name, owner, attribute).  Names starting "train|" resolve to
# "training.*" normally and to "gradcam.*" inside a Grad-CAM call.
_SPANS = (
    ("train|forward", model.FloodNet, "forward"),
    ("train|backward", Graph, "backward"),
    ("training.loss", training, "bce_loss"),
    ("params.adamw", training, "adamw_step"),
    ("params.zero_grad", params.ParamStore, "zero_grad"),
    ("metrics.compute", training, "compute_metrics"),
    ("model.stub_encoders", model, "stub_text_encoder"),
    ("model.stub_encoders", model, "stub_image_encoder"),
    ("model.stub_encoders", model, "extract_global_features"),
    ("model.head", model.FloodNet, "head"),
    ("mfim", model, "mfim_forward"),
    ("mfim.local", mfim, "prepare_local_features"),
    ("mfim.attention", mfim, "attention_pipeline"),
    ("mfim.cross", mfim, "cross_modal_attention"),
    ("hcamam", model, "hcamam_forward"),
    ("hcamam.hren", hcamam, "hren_forward"),
    ("hcamam.feeca", hcamam, "feeca_forward"),
    ("hcamam.fmsa", hcamam, "fmsa_forward"),
    ("cctfrm", model, "cctfrm_forward"),
    ("cctfrm.encoder", cctfrm, "encoder"),
    ("cctfrm.transformer", cctfrm, "transformer_encoder"),
    ("cctfrm.decoder", cctfrm, "decoder_cascade"),
    ("cctfrm.harmonize", cctfrm, "reverse_feature_harmonization"),
    # layers: wrapped under the name each importing module uses
    ("layers.batch_norm", hcamam, "batch_norm"),
    ("layers.batch_norm", cctfrm, "batch_norm"),
    ("layers.layer_norm", mfim, "layer_norm"),
    ("layers.layer_norm", hcamam, "layer_norm"),
    ("layers.layer_norm", cctfrm, "layer_norm"),
    ("layers.layer_norm", layers, "layer_norm"),  # via layer_norm_flat
    ("gradcam", gradcam, "grad_cam"),
    ("gradcam.heatmap", gradcam, "heatmap_from_activation"),
    ("data.generate", data, "generate_synthetic_dataset"),
    ("checkpoint.save", checkpoint, "save_checkpoint"),
    ("checkpoint.load", checkpoint, "load_checkpoint"),
)
MODULES = {
    "mfim": ("local", "attention", "cross"),
    "hcamam": ("hren", "feeca", "fmsa"),
    "cctfrm": ("encoder", "transformer", "decoder", "harmonize"),
}
# spans reported per step or request; the rest are reported per occurrence
_ONCE = ("data.generate", "checkpoint.save", "checkpoint.load")

_COUNT = "count"
PER_LAYER: list[tuple[str, str, str]] = []  # (name, unit, better)
for _t in TAGS:
    PER_LAYER += [(f"autodiff.{_t}.fwd_s", "s", "lower"), (f"autodiff.{_t}.bwd_s", "s", "lower"),
                  (f"autodiff.{_t}.calls", _COUNT, "lower")]
PER_LAYER += [
    ("autodiff.backward.sweep_s", "s", "lower"),
    ("autodiff.backward.dispatch_s", "s", "lower"),
    ("autodiff.tape.nodes", _COUNT, "lower"),
    ("autodiff.tape.value_mb", "MiB", "lower"),
    ("autodiff.backward.retained_grad_mb", "MiB", "lower"),
    ("autodiff.conv2d.gflop", "GFLOP", "lower"),
    ("autodiff.conv2d.gflop_per_s", "GFLOP/s", "higher"),
]
for _m, _subs in MODULES.items():
    PER_LAYER += [(f"{_m}.fwd_s", "s", "lower"), (f"{_m}.bwd_s", "s", "lower"),
                  (f"{_m}.nodes", _COUNT, "lower")]
    for _s in _subs:
        PER_LAYER += [(f"{_m}.{_s}.fwd_s", "s", "lower"), (f"{_m}.{_s}.bwd_s", "s", "lower")]
PER_LAYER += [
    ("layers.batch_norm.fwd_s", "s", "lower"), ("layers.batch_norm.bwd_s", "s", "lower"),
    ("layers.layer_norm.fwd_s", "s", "lower"), ("layers.layer_norm.bwd_s", "s", "lower"),
    ("model.stub_encoders_s", "s", "lower"), ("model.head.fwd_s", "s", "lower"),
    ("training.forward_s", "s", "lower"), ("training.loss_s", "s", "lower"),
    ("training.backward_s", "s", "lower"),
    ("params.adamw_s", "s", "lower"), ("params.zero_grad_s", "s", "lower"),
    ("checkpoint.save_s", "s", "lower"), ("checkpoint.load_s", "s", "lower"),
    ("checkpoint.bytes", "bytes", "lower"),
    ("data.generate_s", "s", "lower"),
    ("gradcam.forward_s", "s", "lower"), ("gradcam.backward_s", "s", "lower"),
    ("gradcam.heatmap_s", "s", "lower"),
    ("metrics.compute_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("trace.unattributed_s", "s", "lower"),
]
# counts that must repeat exactly from one operation of a kind to the next
COMPUTED_COUNTS = tuple(n for n, u, _ in PER_LAYER if u in (_COUNT, "MiB", "GFLOP", "bytes"))


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._op = "setup"
        self._gradcam_depth = 0
        self._fwd_stack = [0.0]
        # per-op scratch: graphs touched, module node ranges, bwd node times
        self._graphs: dict[int, Graph] = {}
        self._ranges: list[tuple[str, int, int, int]] = []
        self._bwd_times: dict[int, list[float]] = {}
        self._retained = 0
        # totals over timed operations
        self.n_ops = 0
        self.op_seconds = 0.0
        self.top_level_s = 0.0
        self.fwd_self = dict.fromkeys(TAGS, 0.0)
        self.bwd = dict.fromkeys(TAGS, 0.0)
        self.calls = dict.fromkeys(TAGS, 0)
        self.span_fwd: dict[str, float] = {}
        self.span_bwd: dict[str, float] = {}
        self.span_nodes: dict[str, int] = {}
        self.sweep_s = 0.0
        self.in_closures_s = 0.0
        # (nodes, value bytes, retained grad bytes, conv FLOP) per op, by op kind
        self.per_op_counts: dict[str, list[tuple[int, int, int, int]]] = {}
        self.ckpt_bytes = 0

    # ---- installing wrappers -------------------------------------------

    @contextlib.contextmanager
    def patched(self):
        saved = []
        try:
            for name, owner, attr in _SPANS:
                fn = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
                saved.append((owner, attr, fn))
                setattr(owner, attr, self._span_wrapper(name, fn))
            for attr, fn in list(vars(Graph).items()):
                if callable(fn) and not attr.startswith("_") and attr != "backward":
                    saved.append((Graph, attr, fn))
                    setattr(Graph, attr, self._op_wrapper(tag_class(_METHOD_TAG.get(attr, attr)), fn))
            yield self
        finally:
            for owner, attr, fn in reversed(saved):
                setattr(owner, attr, fn)

    def _span_wrapper(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            resolved = name
            if name.startswith("train|"):
                kind = name[len("train|"):]
                resolved = ("gradcam." if tracer._gradcam_depth else "training.") + kind
            g = next((a for a in args if isinstance(a, Graph)), None)
            if g is not None:
                tracer._graphs[id(g)] = g
            if name == "train|backward":
                tracer._wrap_bwd(g)
            lo = len(g.nodes) if g is not None else 0
            idx = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else None
            tracer._stack.append(idx)
            tracer._gradcam_depth += name == "gradcam"
            span = [resolved, time.perf_counter(), None, parent, tracer._op]
            tracer.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                tracer._stack.pop()
                tracer._gradcam_depth -= name == "gradcam"
            if g is not None:
                tracer._ranges.append((resolved, id(g), lo, len(g.nodes)))
            if name == "train|backward":
                tracer._retained += sum(n.grad.nbytes for n in g.nodes if n.grad is not None)
            if name == "checkpoint.save":
                tracer.ckpt_bytes = int(result)
            return result

        return wrapper

    def _op_wrapper(self, tag, fn):
        stack, fwd_self = self._fwd_stack, self.fwd_self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                fwd_self[tag] += dt - stack.pop()
                stack[-1] += dt

        return wrapper

    def _wrap_bwd(self, g: Graph) -> None:
        times = [0.0] * len(g.nodes)
        self._bwd_times[id(g)] = times
        for node in g.nodes:
            if node.bwd is not None:
                node.bwd = _timed_bwd(node.bwd, node.idx, times)

    # ---- operations ----------------------------------------------------

    @contextlib.contextmanager
    def op(self, op_id):
        """Brackets one step or request; counters accumulate only for
        integer ids.  The caller passes the op's measured seconds to
        `finish_op` from inside the block."""
        self._op = op_id
        self._fwd_stack[:] = [0.0]
        saved_fwd = dict(self.fwd_self)
        first_span = len(self.spans)
        self._op_seconds = None
        try:
            yield self
        finally:
            if isinstance(op_id, int):
                self._account(first_span)
            else:
                self.fwd_self.update(saved_fwd)
            self._graphs.clear()
            self._ranges.clear()
            self._bwd_times.clear()
            self._retained = 0

    def finish_op(self, kind: str, seconds: float) -> None:
        self._op_kind, self._op_seconds = kind, seconds

    def _account(self, first_span: int) -> None:
        self.n_ops += 1
        self.op_seconds += self._op_seconds
        for name, start, end, parent, _ in self.spans[first_span:]:
            self.span_fwd[name] = self.span_fwd.get(name, 0.0) + (end - start)
            if parent is None:
                self.top_level_s += end - start
            if name == "training.backward" or name == "gradcam.backward":
                self.sweep_s += end - start
        nodes = value_bytes = flop = 0
        prefix: dict[int, list[float]] = {}
        for gid, g in self._graphs.items():
            times = self._bwd_times.get(gid)
            for node in g.nodes:
                tc = tag_class(node.tag)
                self.calls[tc] += 1
                value_bytes += node.value.nbytes
                if tc == "conv2d":
                    k, _, cg, _ = node.parents[1].value.shape
                    flop += 2 * node.value.size * k * k * cg
                if times is not None:
                    self.bwd[tc] += times[node.idx]
            nodes += len(g.nodes)
            if times is not None:
                self.in_closures_s += sum(times)
                prefix[gid] = [0.0, *itertools.accumulate(times)]
        for name, gid, lo, hi in self._ranges:
            self.span_nodes[name] = self.span_nodes.get(name, 0) + hi - lo
            if gid in prefix:
                self.span_bwd[name] = self.span_bwd.get(name, 0.0) + prefix[gid][hi] - prefix[gid][lo]
        self.per_op_counts.setdefault(self._op_kind, []).append(
            (nodes, value_bytes, self._retained, flop))

    # ---- results -------------------------------------------------------

    def counts_repeat(self) -> bool:
        """Every operation of one kind produced identical computed counts."""
        return all(len(set(v)) == 1 for v in self.per_op_counts.values())

    def metrics(self, overhead_ratio: float) -> dict[str, float]:
        n = max(self.n_ops, 1)
        fwd = lambda name: self.span_fwd.get(name, 0.0)
        out: dict[str, float] = {}
        for t in TAGS:
            out[f"autodiff.{t}.fwd_s"] = self.fwd_self[t] / n
            out[f"autodiff.{t}.bwd_s"] = self.bwd[t] / n
            out[f"autodiff.{t}.calls"] = self.calls[t] / n
        out["autodiff.backward.sweep_s"] = self.sweep_s / n
        out["autodiff.backward.dispatch_s"] = (self.sweep_s - self.in_closures_s) / n
        nodes, value_bytes, retained, flop = (
            sum(col) for col in zip(*itertools.chain(*self.per_op_counts.values())))
        out["autodiff.tape.nodes"] = nodes / n
        # one division each, so a per-op count repeats bit for bit whatever n is
        out["autodiff.tape.value_mb"] = value_bytes / (MIB * n)
        out["autodiff.backward.retained_grad_mb"] = retained / (MIB * n)
        out["autodiff.conv2d.gflop"] = flop / (1e9 * n)
        conv_s = self.fwd_self["conv2d"]
        out["autodiff.conv2d.gflop_per_s"] = flop / 1e9 / conv_s if conv_s > 0 else 0.0
        for m, subs in MODULES.items():
            out[f"{m}.fwd_s"] = fwd(m) / n
            out[f"{m}.bwd_s"] = self.span_bwd.get(m, 0.0) / n
            out[f"{m}.nodes"] = self.span_nodes.get(m, 0) / n
            for s in subs:
                out[f"{m}.{s}.fwd_s"] = fwd(f"{m}.{s}") / n
                out[f"{m}.{s}.bwd_s"] = self.span_bwd.get(f"{m}.{s}", 0.0) / n
        for layer in ("batch_norm", "layer_norm"):
            out[f"layers.{layer}.fwd_s"] = fwd(f"layers.{layer}") / n
            out[f"layers.{layer}.bwd_s"] = self.span_bwd.get(f"layers.{layer}", 0.0) / n
        out["model.stub_encoders_s"] = fwd("model.stub_encoders") / n
        out["model.head.fwd_s"] = fwd("model.head") / n
        for name in ("training.forward", "training.loss", "training.backward",
                     "params.adamw", "params.zero_grad", "gradcam.forward",
                     "gradcam.backward", "gradcam.heatmap", "metrics.compute"):
            out[f"{name}_s"] = fwd(name) / n
        for name in _ONCE:
            found = [e - s for nm, s, e, _, _ in self.spans if nm == name]
            out[f"{name}_s"] = sum(found) / len(found) if found else 0.0
        out["checkpoint.bytes"] = self.ckpt_bytes
        out["trace.overhead_ratio"] = overhead_ratio
        out["trace.unattributed_s"] = (self.op_seconds - self.top_level_s) / n
        return out

    def dump(self, path: str, env: dict, metrics: dict) -> None:
        with open(path, "w") as fh:
            json.dump({"env": env, "metrics": metrics, "spans": self.spans,
                       "span_fields": ["name", "start", "end", "parent", "op"]}, fh)


def _timed_bwd(fn, i, times):
    def timed(g, grads):
        t0 = time.perf_counter()
        fn(g, grads)
        times[i] += time.perf_counter() - t0

    return timed
