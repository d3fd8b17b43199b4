"""Minimal dynamic computation graph with a differentiable backward pass.

Values are float64 numpy arrays and every node is immutable once created.
The trick that makes second-order terms (gradient penalties) work: the
backward pass *builds new graph nodes* out of the same primitives, so the
returned gradients can be differentiated again with another `backward`.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NumericError, ShapeError

EPS_NORM = 1e-12


class DiffNode:
    """One node of the graph: a frozen value plus how it was produced."""

    __slots__ = ("values", "op", "parents", "requires_grad", "meta")

    def __init__(self, values, op="leaf", parents=(), requires_grad=False, meta=None):
        if not isinstance(values, np.ndarray) or values.dtype != np.float64:
            values = np.asarray(values, dtype=np.float64)
        # Sum-based fast path; the exact check runs only when the sum is
        # non-finite, which also clears a sum that merely overflowed.
        if not math.isfinite(values.sum()) and not np.isfinite(values).all():
            raise NumericError(f"non-finite values produced by op {op!r}")
        values.setflags(write=False)
        self.values = values
        self.op = op
        self.parents = parents
        self.meta = meta
        if requires_grad:
            self.requires_grad = True
        else:
            self.requires_grad = any(p.requires_grad for p in parents)

    @property
    def shape(self):
        return self.values.shape

    @property
    def ndim(self):
        return self.values.ndim

    def item(self) -> float:
        return float(self.values)

    def detach(self) -> "DiffNode":
        return DiffNode(self.values, op="leaf")

    def __repr__(self):
        return f"DiffNode(op={self.op!r}, shape={self.shape}, grad={self.requires_grad})"


def constant(values) -> DiffNode:
    """Leaf that is never differentiated; input array is copied."""
    return DiffNode(np.array(values, dtype=np.float64))


def variable(values) -> DiffNode:
    """Leaf marked as a differentiation variable; input array is copied."""
    return DiffNode(np.array(values, dtype=np.float64), requires_grad=True)


def _as_node(x) -> DiffNode:
    return x if isinstance(x, DiffNode) else constant(x)


def _require_same_shape(a, b, op):
    if a.shape != b.shape:
        raise ShapeError(f"{op}: shape {a.shape} vs {b.shape}")


def _require_2d(a, op):
    if a.ndim != 2:
        raise ShapeError(f"{op}: expected 2-d operand, got shape {a.shape}")


# ---------------------------------------------------------------------------
# Primitive ops. Each forward computes the value and records enough in `meta`
# for its VJP builder further below.
# ---------------------------------------------------------------------------

def add(a, b):
    a, b = _as_node(a), _as_node(b)
    _require_same_shape(a, b, "add")
    return DiffNode(a.values + b.values, "add", (a, b))


def sub(a, b):
    a, b = _as_node(a), _as_node(b)
    _require_same_shape(a, b, "sub")
    return DiffNode(a.values - b.values, "sub", (a, b))


def neg(a):
    return DiffNode(-a.values, "neg", (a,))


def mul(a, b):
    a, b = _as_node(a), _as_node(b)
    _require_same_shape(a, b, "mul")
    return DiffNode(a.values * b.values, "mul", (a, b))


def div(a, b):
    a, b = _as_node(a), _as_node(b)
    _require_same_shape(a, b, "div")
    return DiffNode(a.values / b.values, "div", (a, b))


def add_scalar(a, c):
    return DiffNode(a.values + float(c), "add_scalar", (a,))


def mul_scalar(a, c):
    return DiffNode(a.values * float(c), "mul_scalar", (a,), meta=float(c))


def square(a):
    return DiffNode(np.square(a.values), "square", (a,))


def sqrt(a):
    if np.any(a.values < 0):
        raise NumericError("sqrt of negative value")
    return DiffNode(np.sqrt(a.values), "sqrt", (a,))


def exp(a):
    return DiffNode(np.exp(a.values), "exp", (a,))


def log(a):
    if np.any(a.values <= 0):
        raise NumericError("log of non-positive value")
    return DiffNode(np.log(a.values), "log", (a,))


def leaky_relu(a, slope=0.01):
    values = np.where(a.values > 0, a.values, slope * a.values)
    return DiffNode(values, "leaky_relu", (a,), meta=float(slope))


def clamp_min(a, floor):
    """max(a, floor); zero sub-gradient on the clamped region."""
    return DiffNode(np.maximum(a.values, float(floor)), "clamp_min", (a,), meta=float(floor))


def clip_max(a, ceiling):
    """min(a, ceiling); zero sub-gradient on the clipped region (incl. boundary)."""
    return DiffNode(np.minimum(a.values, float(ceiling)), "clip_max", (a,), meta=float(ceiling))


def abs_val(a):
    """|a| with sign sub-gradient (0 at the kink)."""
    return DiffNode(np.abs(a.values), "abs_val", (a,))


def matmul(a, b):
    _require_2d(a, "matmul")
    _require_2d(b, "matmul")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: inner dims {a.shape} @ {b.shape}")
    return DiffNode(a.values @ b.values, "matmul", (a, b))


def transpose(a):
    _require_2d(a, "transpose")
    return DiffNode(a.values.T, "transpose", (a,))


def reshape(a, shape):
    shape = tuple(shape)
    return DiffNode(a.values.reshape(shape), "reshape", (a,), meta=a.shape)


def sum_all(a):
    return DiffNode(np.sum(a.values), "sum_all", (a,), meta=a.shape)


def broadcast_to(a, shape):
    if a.shape != ():
        raise ShapeError("broadcast_to expects a scalar node")
    return DiffNode(np.full(shape, float(a.values)), "broadcast_to", (a,))


def sum_axis(a, axis):
    """2-d reduction with keepdims, axis 0 or 1."""
    _require_2d(a, "sum_axis")
    if axis not in (0, 1):
        raise ShapeError("sum_axis supports axis 0 or 1")
    return DiffNode(a.values.sum(axis=axis, keepdims=True), "sum_axis", (a,), meta=axis)


def tile_axis(a, axis, reps):
    """Repeat a length-1 axis of a 2-d node; inverse pair of sum_axis."""
    _require_2d(a, "tile_axis")
    if axis not in (0, 1) or a.shape[axis] != 1:
        raise ShapeError(f"tile_axis: axis {axis} of {a.shape} must have size 1")
    shape = (reps, a.shape[1]) if axis == 0 else (a.shape[0], reps)
    return DiffNode(np.broadcast_to(a.values, shape).copy(), "tile_axis", (a,), meta=axis)


def _segment_width(a, segments, op):
    _require_2d(a, op)
    if segments < 1 or a.shape[1] % segments != 0:
        raise ShapeError(f"{op}: {a.shape[1]} columns do not split into {segments} segments")
    return a.shape[1] // segments


def unfold_segments(a, kernel, segments):
    """(C, S*w) -> (C*kernel, S*w) sliding windows, row-major taps.

    The columns hold S segments of width w side by side; each segment is
    zero-padded by (kernel - 1) // 2 on both sides on its own, so windows
    never reach across a segment boundary.
    """
    width = _segment_width(a, segments, "unfold_segments")
    if kernel < 1 or kernel % 2 == 0:
        raise ShapeError(f"unfold_segments: kernel {kernel} must be odd")
    c, pad = a.shape[0], (kernel - 1) // 2
    padded = np.zeros((c, segments, width + 2 * pad))
    padded[:, :, pad : pad + width] = a.values.reshape(c, segments, width)
    windows = np.lib.stride_tricks.sliding_window_view(padded, kernel, axis=2)
    values = np.ascontiguousarray(windows.transpose(0, 3, 1, 2)).reshape(c * kernel, -1)
    return DiffNode(values, "unfold_segments", (a,), meta=(kernel, segments))


def fold_segments(a, kernel, segments):
    """Adjoint of unfold_segments: scatter-add windows back to (C, S*w)."""
    width = _segment_width(a, segments, "fold_segments")
    if kernel < 1 or kernel % 2 == 0 or a.shape[0] % kernel != 0:
        raise ShapeError(f"fold_segments: shape {a.shape} with kernel {kernel}")
    c, pad = a.shape[0] // kernel, (kernel - 1) // 2
    cube = a.values.reshape(c, kernel, segments, width)
    padded = np.zeros((c, segments, width + 2 * pad))
    for j in range(kernel):
        padded[:, :, j : j + width] += cube[:, j]
    values = padded[:, :, pad : pad + width].reshape(c, segments * width)
    return DiffNode(values, "fold_segments", (a,), meta=(kernel, segments))


# ---------------------------------------------------------------------------
# VJP builders. Each returns one gradient node per parent (or None when that
# parent's gradient is not needed), constructed from the primitives above so
# the backward graph is differentiable again.
# ---------------------------------------------------------------------------

def _vjp_add(node, g, needed):
    return (g if needed[0] else None, g if needed[1] else None)


def _vjp_sub(node, g, needed):
    return (g if needed[0] else None, neg(g) if needed[1] else None)


def _vjp_neg(node, g, needed):
    return (neg(g),)


def _vjp_mul(node, g, needed):
    a, b = node.parents
    return (mul(g, b) if needed[0] else None, mul(g, a) if needed[1] else None)


def _vjp_div(node, g, needed):
    a, b = node.parents
    ga = div(g, b) if needed[0] else None
    gb = neg(div(mul(g, node), b)) if needed[1] else None
    return (ga, gb)


def _vjp_add_scalar(node, g, needed):
    return (g,)


def _vjp_mul_scalar(node, g, needed):
    return (mul_scalar(g, node.meta),)


def _vjp_square(node, g, needed):
    (a,) = node.parents
    return (mul_scalar(mul(g, a), 2.0),)


def _vjp_sqrt(node, g, needed):
    return (div(mul_scalar(g, 0.5), node),)


def _vjp_exp(node, g, needed):
    return (mul(g, node),)


def _vjp_log(node, g, needed):
    (a,) = node.parents
    return (div(g, a),)


def _vjp_leaky_relu(node, g, needed):
    (a,) = node.parents
    mask = np.where(a.values > 0, 1.0, node.meta)
    return (mul(g, DiffNode(mask)),)


def _vjp_clamp_min(node, g, needed):
    (a,) = node.parents
    mask = (a.values > node.meta).astype(np.float64)
    return (mul(g, DiffNode(mask)),)


def _vjp_clip_max(node, g, needed):
    (a,) = node.parents
    mask = (a.values < node.meta).astype(np.float64)
    return (mul(g, DiffNode(mask)),)


def _vjp_abs_val(node, g, needed):
    (a,) = node.parents
    return (mul(g, DiffNode(np.sign(a.values))),)


def _vjp_matmul(node, g, needed):
    a, b = node.parents
    ga = matmul(g, transpose(b)) if needed[0] else None
    gb = matmul(transpose(a), g) if needed[1] else None
    return (ga, gb)


def _vjp_transpose(node, g, needed):
    return (transpose(g),)


def _vjp_reshape(node, g, needed):
    return (reshape(g, node.meta),)


def _vjp_sum_all(node, g, needed):
    return (broadcast_to(g, node.meta),)


def _vjp_broadcast_to(node, g, needed):
    return (sum_all(g),)


def _vjp_sum_axis(node, g, needed):
    (a,) = node.parents
    axis = node.meta
    return (tile_axis(g, axis, a.shape[axis]),)


def _vjp_tile_axis(node, g, needed):
    return (sum_axis(g, node.meta),)


def _vjp_unfold_segments(node, g, needed):
    return (fold_segments(g, *node.meta),)


def _vjp_fold_segments(node, g, needed):
    return (unfold_segments(g, *node.meta),)


_VJPS = {
    "add": _vjp_add,
    "sub": _vjp_sub,
    "neg": _vjp_neg,
    "mul": _vjp_mul,
    "div": _vjp_div,
    "add_scalar": _vjp_add_scalar,
    "mul_scalar": _vjp_mul_scalar,
    "square": _vjp_square,
    "sqrt": _vjp_sqrt,
    "exp": _vjp_exp,
    "log": _vjp_log,
    "leaky_relu": _vjp_leaky_relu,
    "clamp_min": _vjp_clamp_min,
    "clip_max": _vjp_clip_max,
    "abs_val": _vjp_abs_val,
    "matmul": _vjp_matmul,
    "transpose": _vjp_transpose,
    "reshape": _vjp_reshape,
    "sum_all": _vjp_sum_all,
    "broadcast_to": _vjp_broadcast_to,
    "sum_axis": _vjp_sum_axis,
    "tile_axis": _vjp_tile_axis,
    "unfold_segments": _vjp_unfold_segments,
    "fold_segments": _vjp_fold_segments,
}


# ---------------------------------------------------------------------------
# Composite ops used by both networks.
# ---------------------------------------------------------------------------

def l2_norm_eps(a, eps=EPS_NORM):
    """sqrt(sum(a^2) + eps): Euclidean norm differentiable at 0."""
    return sqrt(add_scalar(sum_all(square(a)), eps))


def softmax_columns(a):
    """Column-wise softmax of a 2-d node (stable via constant max shift)."""
    _require_2d(a, "softmax_columns")
    shift = DiffNode(np.broadcast_to(a.values.max(axis=0, keepdims=True), a.shape).copy())
    e = exp(sub(a, shift))
    totals = tile_axis(sum_axis(e, 0), 0, a.shape[0])
    return div(e, totals)


def linear(weight, x, bias=None):
    """weight @ x (+ bias); bias broadcasts over columns when needed."""
    out = matmul(weight, x)
    if bias is not None:
        if bias.shape == out.shape:
            out = add(out, bias)
        elif bias.shape == (out.shape[0], 1):
            out = add(out, tile_axis(bias, 1, out.shape[1]))
        else:
            raise ShapeError(f"linear: bias {bias.shape} vs output {out.shape}")
    return out


def conv1d(x, weight, bias=None, segments=1):
    """Same-padded 1-d convolution over columns, stride 1.

    x: (C_in, S*L) holding S segments of width L side by side, each
    convolved on its own; weight: (C_out, C_in, K) with K odd;
    bias: (C_out, 1) or None.
    """
    _require_2d(x, "conv1d")
    if weight.ndim != 3:
        raise ShapeError(f"conv1d: weight must be 3-d, got {weight.shape}")
    c_out, c_in, kernel = weight.shape
    if c_in != x.shape[0]:
        raise ShapeError(f"conv1d: input channels {x.shape[0]} vs weight {c_in}")
    columns = unfold_segments(x, kernel, segments)
    out = matmul(reshape(weight, (c_out, c_in * kernel)), columns)
    if bias is not None:
        out = add(out, tile_axis(bias, 1, out.shape[1]))
    return out


def segment_sum(a, segments):
    """(C, S*w) -> (C, S): the sum over each w-wide column block."""
    width = _segment_width(a, segments, "segment_sum")
    rows = a.shape[0]
    return reshape(sum_axis(reshape(a, (rows * segments, width)), 1), (rows, segments))


def segment_norms(a, segments, eps=EPS_NORM):
    """(C, S*w) -> (1, S): l2_norm_eps of each w-wide column block."""
    return sqrt(add_scalar(sum_axis(segment_sum(square(a), segments), 0), eps))


# ---------------------------------------------------------------------------
# Reverse-mode differentiation.
# ---------------------------------------------------------------------------

def _topo_order(root):
    """Parents-before-children ordering, deterministic in graph structure."""
    order = []
    visited = set()
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for parent in reversed(node.parents):
            if id(parent) not in visited:
                stack.append((parent, False))
    return order


def backward(root, wrt, create_graph=False):
    """Gradients of a scalar root w.r.t. each node in `wrt`.

    With create_graph the returned gradients are ordinary graph nodes,
    so they can be fed into another `backward`. Nodes unreachable from
    the root get an exact zero gradient.
    """
    if root.shape != ():
        raise ShapeError(f"backward root must be scalar, got shape {root.shape}")
    wrt = list(wrt)
    for node in wrt:
        if not node.requires_grad:
            raise ValueError("every wrt node must have requires_grad set")

    order = _topo_order(root)
    # Restrict work to nodes through which some wrt node is reachable.
    active = {id(node) for node in wrt}
    for node in order:
        if id(node) in active:
            continue
        for parent in node.parents:
            if id(parent) in active:
                active.add(id(node))
                break

    adjoints = {id(root): DiffNode(np.float64(1.0))}
    for node in reversed(order):
        nid = id(node)
        grad = adjoints.get(nid)
        if grad is None or nid not in active or not node.parents:
            continue
        needed = tuple(id(p) in active for p in node.parents)
        contributions = _VJPS[node.op](node, grad, needed)
        for parent, contribution in zip(node.parents, contributions):
            if contribution is None or id(parent) not in active:
                continue
            pid = id(parent)
            seen = adjoints.get(pid)
            adjoints[pid] = contribution if seen is None else add(seen, contribution)

    results = []
    for node in wrt:
        grad = adjoints.get(id(node))
        if grad is None:
            grad = DiffNode(np.zeros(node.shape))
        elif not create_graph:
            grad = grad.detach()
        results.append(grad)
    return results
