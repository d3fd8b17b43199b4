"""Minimal dynamic computation graph with a differentiable backward pass.

Values are float64 numpy arrays and every node is immutable once created.
The trick that makes second-order terms (gradient penalties) work: the
backward pass *builds new graph nodes* out of the same primitives, so the
returned gradients can be differentiated again with another `backward`.
Only `create_graph` needs that graph. Any other `backward` is a freeing
sweep: while it runs, a new node keeps its value but records no parents, so
each VJP output is a bare leaf, and each adjoint is dropped once its node's
VJP has used it. The gradient graph then never outlives the sweep.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigError, NumericError, ShapeError

EPS_NORM = 1e-12

# False while a backward without create_graph runs; read by DiffNode.
_recording = True


class DiffNode:
    """One node of the graph: a frozen value plus how it was produced, its
    VJP builder (None for a leaf) with the parents and meta it reads."""

    __slots__ = ("values", "vjp", "parents", "requires_grad", "meta")

    def __init__(self, values, vjp=None, parents=(), requires_grad=False, meta=None):
        if not isinstance(values, np.ndarray) or values.dtype != np.float64:
            values = np.asarray(values, dtype=np.float64)
        # Sum-based fast path; the exact check runs only when the sum is
        # non-finite, which also clears a sum that merely overflowed.
        if not math.isfinite(values.sum()) and not np.isfinite(values).all():
            raise NumericError(f"non-finite values produced by op {_op_name(vjp)!r}")
        values.setflags(write=False)
        if not _recording:
            vjp, parents, meta = None, (), None
        self.values = values
        self.vjp = vjp
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

    def __repr__(self):
        return (
            f"DiffNode(op={_op_name(self.vjp)!r}, shape={self.shape}, grad={self.requires_grad})"
        )


def _op_name(vjp) -> str:
    """The primitive a node came from, named after its VJP builder."""
    return "leaf" if vjp is None else vjp.__name__.removeprefix("_vjp_")


def constant(values) -> DiffNode:
    """Leaf that is never differentiated; input array is copied."""
    return DiffNode(np.array(values, dtype=np.float64))


def variable(values) -> DiffNode:
    """Leaf marked as a differentiation variable; input array is copied."""
    return DiffNode(np.array(values, dtype=np.float64), requires_grad=True)


def _require_same_shape(a, b, op):
    if a.shape != b.shape:
        raise ShapeError(f"{op}: shape {a.shape} vs {b.shape}")


def _require_2d(a, op):
    if a.ndim != 2:
        raise ShapeError(f"{op}: expected 2-d operand, got shape {a.shape}")


# ---------------------------------------------------------------------------
# Primitive ops. Each forward computes the value, names its VJP builder
# (further below) and records what that builder needs in `meta`.
# ---------------------------------------------------------------------------

def add(a, b):
    _require_same_shape(a, b, "add")
    return DiffNode(a.values + b.values, _vjp_add, (a, b))


def sub(a, b):
    _require_same_shape(a, b, "sub")
    return DiffNode(a.values - b.values, _vjp_sub, (a, b))


def neg(a):
    return DiffNode(-a.values, _vjp_neg, (a,))


def mul(a, b):
    _require_same_shape(a, b, "mul")
    return DiffNode(a.values * b.values, _vjp_mul, (a, b))


def div(a, b):
    _require_same_shape(a, b, "div")
    return DiffNode(a.values / b.values, _vjp_div, (a, b))


def add_scalar(a, c):
    return DiffNode(a.values + float(c), _vjp_add_scalar, (a,))


def mul_scalar(a, c):
    return DiffNode(a.values * float(c), _vjp_mul_scalar, (a,), meta=float(c))


def square(a):
    return DiffNode(np.square(a.values), _vjp_square, (a,))


def sqrt(a):
    if np.any(a.values < 0):
        raise NumericError("sqrt of negative value")
    return DiffNode(np.sqrt(a.values), _vjp_sqrt, (a,))


def exp(a):
    return DiffNode(np.exp(a.values), _vjp_exp, (a,))


def log(a):
    if np.any(a.values <= 0):
        raise NumericError("log of non-positive value")
    return DiffNode(np.log(a.values), _vjp_log, (a,))


def leaky_relu(a, slope=0.01):
    """max(a, slope*a): equal to a where a > 0 and slope*a elsewhere, signed
    zeros included, for 0 <= slope <= 1, the only slopes accepted."""
    if not 0 <= slope <= 1:
        raise ConfigError(f"leaky_relu slope must lie in [0, 1], got {slope!r}")
    values = np.maximum(a.values, slope * a.values)
    return DiffNode(values, _vjp_leaky_relu, (a,), meta=float(slope))


def clamp_min(a, floor):
    """max(a, floor); zero sub-gradient on the clamped region."""
    return DiffNode(np.maximum(a.values, float(floor)), _vjp_clamp_min, (a,), meta=float(floor))


def mul_const(a, factor):
    """a times a fixed array that is never differentiated, such as a mask."""
    return DiffNode(a.values * factor, _vjp_mul_const, (a,), meta=factor)


def matmul(a, b, trans_a=False, trans_b=False):
    """op(a) @ op(b), where op transposes its operand when its flag is set."""
    _require_2d(a, "matmul")
    _require_2d(b, "matmul")
    left = a.values.T if trans_a else a.values
    right = b.values.T if trans_b else b.values
    if left.shape[1] != right.shape[0]:
        raise ShapeError(f"matmul: inner dims {left.shape} @ {right.shape}")
    return DiffNode(left @ right, _vjp_matmul, (a, b), meta=(trans_a, trans_b))


def add_bias(a, bias):
    """a + bias, the (rows, 1) bias broadcast over the columns of 2-d a."""
    _require_2d(a, "add_bias")
    if bias.shape != (a.shape[0], 1):
        raise ShapeError(f"add_bias: bias {bias.shape} vs {a.shape}")
    return DiffNode(a.values + bias.values, _vjp_add_bias, (a, bias))


def reshape(a, shape):
    shape = tuple(shape)
    return DiffNode(a.values.reshape(shape), _vjp_reshape, (a,), meta=a.shape)


def sum_all(a):
    return DiffNode(np.sum(a.values), _vjp_sum_all, (a,), meta=a.shape)


def broadcast_to(a, shape):
    if a.shape != ():
        raise ShapeError("broadcast_to expects a scalar node")
    return DiffNode(np.full(shape, float(a.values)), _vjp_broadcast_to, (a,))


def sum_axis(a, axis):
    """2-d reduction with keepdims, axis 0 or 1."""
    _require_2d(a, "sum_axis")
    if axis not in (0, 1):
        raise ShapeError("sum_axis supports axis 0 or 1")
    return DiffNode(a.values.sum(axis=axis, keepdims=True), _vjp_sum_axis, (a,), meta=axis)


def tile_axis(a, axis, reps):
    """Repeat a length-1 axis of a 2-d node; inverse pair of sum_axis."""
    _require_2d(a, "tile_axis")
    if axis not in (0, 1) or a.shape[axis] != 1:
        raise ShapeError(f"tile_axis: axis {axis} of {a.shape} must have size 1")
    return DiffNode(np.repeat(a.values, reps, axis=axis), _vjp_tile_axis, (a,), meta=axis)


def _segment_width(a, segments, op):
    _require_2d(a, op)
    if segments < 1 or a.shape[1] % segments != 0:
        raise ShapeError(f"{op}: {a.shape[1]} columns do not split into {segments} segments")
    return a.shape[1] // segments


def _windows(x, kernel, segments):
    """(C, S*w) array -> (C*kernel, S*w) sliding windows, row-major taps.

    The columns hold S segments of width w side by side; each segment is
    zero-padded by (kernel - 1) // 2 on both sides on its own, so windows
    never reach across a segment boundary.
    """
    c, total = x.shape
    width, pad = total // segments, (kernel - 1) // 2
    cube = x.reshape(c, segments, width)
    out = np.zeros((c, kernel, segments, width))
    for j in range(kernel):
        lo, hi = max(pad - j, 0), min(width + pad - j, width)
        out[:, j, :, lo:hi] = cube[:, :, lo + j - pad : hi + j - pad]
    return out.reshape(c * kernel, total)


def _fold(columns, kernel, segments):
    """Adjoint of _windows: scatter-add windows back to (C, S*w), each
    column's taps summed in tap order onto zeros."""
    rows, total = columns.shape
    c, width, pad = rows // kernel, total // segments, (kernel - 1) // 2
    cube = columns.reshape(c, kernel, segments, width)
    out = np.zeros((c, segments, width))
    for j in range(kernel):
        lo, hi = max(j - pad, 0), min(width + j - pad, width)
        out[:, :, lo:hi] += cube[:, j, :, lo + pad - j : hi + pad - j]
    return out.reshape(c, total)


def _check_conv(a, b, kernel, segments, op, fits):
    """a splits into segments, kernel is odd and 2-d b passes fits(rows, cols)."""
    _segment_width(a, segments, op)
    if kernel < 1 or kernel % 2 == 0 or b.ndim != 2 or not fits(*b.shape):
        raise ShapeError(f"{op}: shapes {a.shape} and {b.shape} with kernel {kernel}")


def conv(x, taps, kernel, segments):
    """taps @ windows(x): the same-padded convolution of x (C_in, S*w), each
    of its S segments on its own, with taps (C_out, C_in*kernel)."""
    _check_conv(x, taps, kernel, segments, "conv", lambda r, c: c == x.shape[0] * kernel)
    values = taps.values @ _windows(x.values, kernel, segments)
    return DiffNode(values, _vjp_conv, (x, taps), meta=(kernel, segments))


def conv_input_grad(g, taps, kernel, segments):
    """fold(taps^T @ g): conv's VJP in x, (C_out, S*w) -> (C_in, S*w)."""
    _check_conv(
        g, taps, kernel, segments, "conv_input_grad",
        lambda r, c: r == g.shape[0] and c % kernel == 0,
    )
    values = _fold(taps.values.T @ g.values, kernel, segments)
    return DiffNode(values, _vjp_conv_input_grad, (g, taps), meta=(kernel, segments))


def conv_weight_grad(g, x, kernel, segments):
    """g @ windows(x)^T: conv's VJP in taps, (C_out, S*w) -> (C_out, C_in*kernel)."""
    _check_conv(g, x, kernel, segments, "conv_weight_grad", lambda r, c: c == g.shape[1])
    values = g.values @ _windows(x.values, kernel, segments).T
    return DiffNode(values, _vjp_conv_weight_grad, (g, x), meta=(kernel, segments))


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
    return (mul_const(g, np.maximum((a.values > 0).astype(np.float64), node.meta)),)


def _vjp_clamp_min(node, g, needed):
    (a,) = node.parents
    return (mul_const(g, (a.values > node.meta).astype(np.float64)),)


def _vjp_mul_const(node, g, needed):
    return (mul_const(g, node.meta),)


def _vjp_matmul(node, g, needed):
    a, b = node.parents
    trans_a, trans_b = node.meta
    ga = gb = None
    if needed[0]:
        ga = matmul(b, g, trans_b, True) if trans_a else matmul(g, b, False, not trans_b)
    if needed[1]:
        gb = matmul(g, a, True, trans_a) if trans_b else matmul(a, g, not trans_a, False)
    return (ga, gb)


def _vjp_add_bias(node, g, needed):
    return (g if needed[0] else None, sum_axis(g, 1) if needed[1] else None)


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


def _vjp_conv(node, g, needed):
    x, taps = node.parents
    return (
        conv_input_grad(g, taps, *node.meta) if needed[0] else None,
        conv_weight_grad(g, x, *node.meta) if needed[1] else None,
    )


def _vjp_conv_input_grad(node, g, needed):
    out_grad, taps = node.parents
    return (
        conv(g, taps, *node.meta) if needed[0] else None,
        conv_weight_grad(out_grad, g, *node.meta) if needed[1] else None,
    )


def _vjp_conv_weight_grad(node, g, needed):
    out_grad, x = node.parents
    return (
        conv(x, g, *node.meta) if needed[0] else None,
        conv_input_grad(out_grad, g, *node.meta) if needed[1] else None,
    )


# ---------------------------------------------------------------------------
# Composite ops used by both networks.
# ---------------------------------------------------------------------------

def softmax_columns(a):
    """Column-wise softmax of a 2-d node (stable via constant max shift)."""
    _require_2d(a, "softmax_columns")
    shift = DiffNode(np.repeat(a.values.max(axis=0, keepdims=True), a.shape[0], axis=0))
    e = exp(sub(a, shift))
    totals = tile_axis(sum_axis(e, 0), 0, a.shape[0])
    return div(e, totals)


def linear(weight, x, bias):
    """weight @ x + bias, the (rows, 1) bias broadcast over the columns."""
    return add_bias(matmul(weight, x), bias)


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
    # One reshape node, so weight-gradient contributions are summed before reshaping.
    out = conv(x, reshape(weight, (c_out, c_in * kernel)), kernel, segments)
    return out if bias is None else add_bias(out, bias)


def segment_sum(a, segments):
    """(C, S*w) -> (C, S): the sum over each w-wide column block."""
    width = _segment_width(a, segments, "segment_sum")
    rows = a.shape[0]
    return reshape(sum_axis(reshape(a, (rows * segments, width)), 1), (rows, segments))


def segment_norms(a, segments, eps=EPS_NORM):
    """(C, S*w) -> (1, S): sqrt(sum(a^2) + eps) of each w-wide column block."""
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
    so they can be fed into another `backward`; without it they are bare
    leaves (see the module docstring). Nodes unreachable from the root get
    an exact zero gradient.
    """
    global _recording
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

    wanted = {id(node) for node in wrt}
    adjoints = {id(root): DiffNode(np.float64(1.0))}
    previous, _recording = _recording, create_graph
    try:
        for node in reversed(order):
            nid = id(node)
            if nid not in active or not node.parents:
                continue
            grad = adjoints.get(nid) if nid in wanted else adjoints.pop(nid, None)
            if grad is None:
                continue
            needed = tuple(id(p) in active for p in node.parents)
            contributions = node.vjp(node, grad, needed)
            for parent, contribution in zip(node.parents, contributions):
                if contribution is None or id(parent) not in active:
                    continue
                pid = id(parent)
                seen = adjoints.get(pid)
                adjoints[pid] = contribution if seen is None else add(seen, contribution)
    finally:
        _recording = previous
    return [
        adjoints[id(node)] if id(node) in adjoints else DiffNode(np.zeros(node.shape))
        for node in wrt
    ]
