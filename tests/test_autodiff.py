import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from edsurrogate import autodiff as ad
from edsurrogate.errors import ConfigError, NumericError, ShapeError

from .oracles import (
    abs_val,
    assert_gradients_close,
    broadcast_softmax_columns,
    broadcast_tile_axis,
    clip_max,
    finite_difference_gradient,
    l2_norm_eps,
    where_leaky_relu,
)

RNG = np.random.default_rng(1234)


def fd_check(build, x0, abs_tol=1e-7, rel_tol=1e-4, step=1e-5):
    """Compare backward() against central differences for scalar build(x)."""
    x0 = np.asarray(x0, dtype=np.float64)
    leaf = ad.variable(x0)
    (grad,) = ad.backward(build(leaf), [leaf])
    numeric = finite_difference_gradient(lambda v: float(build(ad.variable(v)).values), x0, step)
    assert_gradients_close(grad.values, numeric, abs_tol, rel_tol)


# --- forward values -------------------------------------------------------

def test_leaky_relu_forward():
    node = ad.leaky_relu(ad.constant([-1.0, 2.0]), slope=0.01)
    assert np.allclose(node.values, [-0.01, 2.0])


# Signed zeros, subnormals and values far from 1 besides ordinary floats;
# at most 12 entries of magnitude <= 1e300 keep every sum finite.
EDGE_VALUES = [0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, 1e300, -1e300]
edge_elements = st.sampled_from(EDGE_VALUES) | st.floats(-1e300, 1e300)


@pytest.mark.parametrize("slope", [0.0, 0.01, 0.3, 1.0])
@given(values=hnp.arrays(np.float64, (3, 4), elements=edge_elements))
def test_leaky_relu_and_its_mask_equal_the_where_forms_bitwise(slope, values):
    shipped, oracle = ad.variable(values), ad.variable(values)
    out, expected = ad.leaky_relu(shipped, slope), where_leaky_relu(oracle, slope)
    assert out.values.tobytes() == expected.values.tobytes()
    # The gradient of the sum is 1.0 times the VJP mask, bit for bit.
    (mask,) = ad.backward(ad.sum_all(out), [shipped])
    (expected_mask,) = ad.backward(ad.sum_all(expected), [oracle])
    assert mask.values.tobytes() == expected_mask.values.tobytes()


@pytest.mark.parametrize("factor", [-1.0, -2.5, 0.5, 3.0, 1e-3])
@given(values=hnp.arrays(np.float64, (3, 4), elements=edge_elements))
def test_mul_const_by_a_float_is_the_ieee_product_bitwise(factor, values):
    x = ad.variable(values)
    out = ad.mul_const(x, factor)
    assert out.values.tobytes() == (values * factor).tobytes()
    if factor == -1.0:
        assert out.values.tobytes() == (-values).tobytes()
    # The gradient of the sum is factor everywhere, bit for bit.
    (grad,) = ad.backward(ad.sum_all(out), [x])
    assert grad.values.tobytes() == np.full(values.shape, factor).tobytes()


@pytest.mark.parametrize("slope", [-0.01, 1.5, float("nan")])
def test_leaky_relu_rejects_a_slope_outside_the_unit_interval(slope):
    with pytest.raises(ConfigError, match="slope must lie in"):
        ad.leaky_relu(ad.constant([1.0]), slope)


@given(
    layout=st.sampled_from([((1, 4), 0), ((3, 1), 1), ((1, 1), 0), ((1, 1), 1)]),
    reps=st.integers(1, 5),
    data=st.data(),
)
def test_tile_axis_equals_the_broadcast_copy_bitwise(layout, reps, data):
    shape, axis = layout
    node = ad.constant(data.draw(hnp.arrays(np.float64, shape, elements=edge_elements)))
    expected = broadcast_tile_axis(node, axis, reps)
    assert ad.tile_axis(node, axis, reps).values.tobytes() == expected.values.tobytes()


@given(values=hnp.arrays(np.float64, (4, 3), elements=st.floats(-50, 50)))
def test_softmax_shift_equals_the_broadcast_copy_bitwise(values):
    node = ad.constant(values)
    expected = broadcast_softmax_columns(node)
    assert ad.softmax_columns(node).values.tobytes() == expected.values.tobytes()


def test_softmax_of_zero_column_is_uniform():
    out = ad.softmax_columns(ad.constant(np.zeros((4, 2))))
    assert np.allclose(out.values, 0.25)
    assert np.allclose(out.values.sum(axis=0), 1.0)


def test_conv1d_identity_kernel_preserves_input():
    x = ad.constant(RNG.random((2, 4)))
    weight = np.zeros((2, 2, 3))
    weight[0, 0, 1] = 1.0
    weight[1, 1, 1] = 1.0
    out = ad.conv1d(x, ad.constant(weight))
    assert np.allclose(out.values, x.values)


def test_values_are_frozen_after_creation():
    node = ad.constant([1.0, 2.0])
    with pytest.raises(ValueError):
        node.values[0] = 5.0


def test_nonfinite_values_rejected():
    with pytest.raises(NumericError):
        ad.constant([1.0, np.nan])
    with pytest.raises(NumericError):
        ad.log(ad.constant([0.0]))
    with pytest.raises(NumericError):
        ad.sqrt(ad.constant([-1.0]))


def test_numeric_error_and_repr_name_the_op():
    with np.errstate(over="ignore"), pytest.raises(NumericError, match="op 'exp'"):
        ad.exp(ad.constant([800.0]))
    assert repr(ad.exp(ad.constant([1.0]))).startswith("DiffNode(op='exp',")
    assert repr(ad.constant([1.0])).startswith("DiffNode(op='leaf',")


def test_shape_mismatch_rejected():
    with pytest.raises(ShapeError):
        ad.add(ad.constant([1.0]), ad.constant([1.0, 2.0]))
    with pytest.raises(ShapeError):
        ad.matmul(ad.constant(np.ones((2, 3))), ad.constant(np.ones((2, 3))))


# --- first-order gradients vs finite differences ---------------------------

OTHER = ad.constant(RNG.random((3, 4)) + 0.5)

ELEMENTWISE_CASES = [
    ("add", lambda x: ad.sum_all(ad.add(x, OTHER))),
    ("sub", lambda x: ad.sum_all(ad.sub(x, OTHER))),
    ("mul_const_-1.0", lambda x: ad.sum_all(ad.mul_const(x, -1.0))),
    ("mul", lambda x: ad.sum_all(ad.mul(x, OTHER))),
    ("div", lambda x: ad.sum_all(ad.div(x, OTHER))),
    ("div_denom", lambda x: ad.sum_all(ad.div(OTHER, x))),
    ("add_scalar", lambda x: ad.sum_all(ad.add_scalar(x, 1.7))),
    ("mul_const_-2.5", lambda x: ad.sum_all(ad.mul_const(x, -2.5))),
    ("square", lambda x: ad.sum_all(ad.square(x))),
    ("sqrt", lambda x: ad.sum_all(ad.sqrt(x))),
    ("exp", lambda x: ad.sum_all(ad.exp(x))),
    ("log", lambda x: ad.sum_all(ad.log(x))),
    ("leaky_relu", lambda x: ad.sum_all(ad.leaky_relu(x, 0.01))),
    ("clamp_min", lambda x: ad.sum_all(ad.clamp_min(x, 0.9))),
    ("clip_max", lambda x: ad.sum_all(clip_max(x, 0.9))),
    ("abs_val", lambda x: ad.sum_all(abs_val(x))),
]


@pytest.mark.parametrize("name,build", ELEMENTWISE_CASES, ids=[c[0] for c in ELEMENTWISE_CASES])
def test_elementwise_gradients(name, build):
    # Offset keeps inputs away from kinks (relu/abs/clamp) and log's pole.
    x0 = RNG.random((3, 4)) + 0.25
    fd_check(build, x0)


def test_matmul_gradients_both_sides():
    b_const = ad.constant(RNG.random((4, 2)))
    fd_check(lambda a: ad.sum_all(ad.square(ad.matmul(a, b_const))), RNG.random((3, 4)))
    a_const = ad.constant(RNG.random((3, 4)))
    fd_check(lambda b: ad.sum_all(ad.square(ad.matmul(a_const, b))), RNG.random((4, 2)))


TRANSPOSE_FLAGS = [(False, False), (False, True), (True, False), (True, True)]


@pytest.mark.parametrize("trans_a,trans_b", TRANSPOSE_FLAGS)
def test_matmul_transpose_flag_gradients(trans_a, trans_b):
    a0 = RNG.standard_normal((4, 3) if trans_a else (3, 4))
    b0 = RNG.standard_normal((2, 4) if trans_b else (4, 2))
    b_const, a_const = ad.constant(b0), ad.constant(a0)
    fd_check(lambda a: ad.sum_all(ad.square(ad.matmul(a, b_const, trans_a, trans_b))), a0)
    fd_check(lambda b: ad.sum_all(ad.square(ad.matmul(a_const, b, trans_a, trans_b))), b0)

    # Second order: s(a) = || d/db sum(square(op(a) @ op(b))) ||.
    def s_of(a_values):
        a, b = ad.variable(a_values), ad.variable(b0)
        f = ad.sum_all(ad.square(ad.matmul(a, b, trans_a, trans_b)))
        (grad_b,) = ad.backward(f, [b], create_graph=True)
        return a, l2_norm_eps(grad_b)

    a_leaf, s = s_of(a0)
    (analytic,) = ad.backward(s, [a_leaf])
    numeric = finite_difference_gradient(lambda v: float(s_of(v)[1].values), a0)
    assert_gradients_close(analytic.values, numeric, abs_tol=1e-7, rel_tol=1e-4)


def test_shape_op_gradients():
    weights = ad.constant(RNG.random((2, 6)))
    fd_check(lambda x: ad.sum_all(ad.mul(ad.reshape(x, (2, 6)), weights)), RNG.random((3, 4)))
    fd_check(lambda x: ad.sum_all(ad.square(ad.segment_sum(x, 2))), RNG.random((3, 4)))
    fd_check(lambda x: ad.square(ad.sum_all(x)), RNG.random((2, 3)))
    fd_check(
        lambda x: ad.sum_all(ad.square(ad.tile_axis(ad.sum_axis(x, 0), 0, 3))),
        RNG.random((3, 4)),
    )
    fd_check(
        lambda x: ad.sum_all(ad.square(ad.tile_axis(ad.sum_axis(x, 1), 1, 4))),
        RNG.random((3, 4)),
    )


# Each conv primitive with the shapes of its two operands and its output,
# for kernel 3, 2 segments of width 3, 2 input and 3 output channels: x is
# (2, 6), an output gradient g is (3, 6) and the taps are (3, 2 * 3).
CONV_PRIMITIVES = {
    "conv": (ad.conv, (2, 6), (3, 6), (3, 6)),
    "input_grad": (ad.conv_input_grad, (3, 6), (3, 6), (2, 6)),
    "weight_grad": (ad.conv_weight_grad, (3, 6), (2, 6), (3, 6)),
}


@pytest.mark.parametrize("name", CONV_PRIMITIVES)
def test_conv_primitive_gradients(name):
    op, first, second, out = CONV_PRIMITIVES[name]
    r = ad.constant(RNG.random(out))
    b = ad.constant(RNG.standard_normal(second))
    fd_check(lambda a: ad.sum_all(ad.mul(op(a, b, 3, 2), r)), RNG.standard_normal(first))
    a = ad.constant(RNG.standard_normal(first))
    fd_check(lambda b: ad.sum_all(ad.mul(op(a, b, 3, 2), r)), RNG.standard_normal(second))


def _padded_windows_oracle(x, kernel, segments):
    """Sliding windows of each zero-padded segment, by explicit loops over
    segments, channels and taps: row ch * kernel + j holds tap j of channel ch."""
    c, total = x.shape
    width, pad = total // segments, (kernel - 1) // 2
    out = np.zeros((c * kernel, total))
    for s in range(segments):
        block = np.zeros((c, width + 2 * pad))
        block[:, pad : pad + width] = x[:, s * width : (s + 1) * width]
        for ch in range(c):
            for j in range(kernel):
                out[ch * kernel + j, s * width : (s + 1) * width] = block[ch, j : j + width]
    return out


def _fold_oracle(columns, kernel, segments):
    """Adjoint of the windows: a loop scatter-add onto each zero-padded
    segment, taps added in order."""
    rows, total = columns.shape
    c, width, pad = rows // kernel, total // segments, (kernel - 1) // 2
    out = np.zeros((c, total))
    for s in range(segments):
        block = np.zeros((c, width + 2 * pad))
        for ch in range(c):
            for j in range(kernel):
                block[ch, j : j + width] += columns[ch * kernel + j, s * width : (s + 1) * width]
        out[:, s * width : (s + 1) * width] = block[:, pad : pad + width]
    return out


@settings(max_examples=30, deadline=None)
@given(
    channels=st.integers(1, 3),
    outputs=st.integers(1, 3),
    segments=st.integers(1, 4),
    width=st.integers(1, 5),
    kernel=st.sampled_from([1, 3, 5]),
    seed=st.integers(0, 2**16),
)
def test_conv_primitives_match_oracle_and_are_adjoint(
    channels, outputs, segments, width, kernel, seed
):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((channels, segments * width))
    g = rng.standard_normal((outputs, segments * width))
    taps = rng.standard_normal((outputs, channels * kernel))
    out = ad.conv(ad.constant(x), ad.constant(taps), kernel, segments).values
    x_grad = ad.conv_input_grad(ad.constant(g), ad.constant(taps), kernel, segments).values
    taps_grad = ad.conv_weight_grad(ad.constant(g), ad.constant(x), kernel, segments).values
    windows = _padded_windows_oracle(x, kernel, segments)
    assert np.array_equal(out, taps @ windows)
    assert np.array_equal(x_grad, _fold_oracle(taps.T @ g, kernel, segments))
    assert np.array_equal(taps_grad, g @ windows.T)
    # <conv(x, T), g> = <x, conv_input_grad(g, T)> = <T, conv_weight_grad(g, x)>
    assert np.sum(out * g) == pytest.approx(np.sum(x * x_grad), rel=1e-12, abs=1e-12)
    assert np.sum(out * g) == pytest.approx(np.sum(taps * taps_grad), rel=1e-12, abs=1e-12)


def test_conv1d_rejects_bad_shapes():
    weight = ad.constant(np.ones((1, 2, 3)))
    with pytest.raises(ShapeError):  # 5 columns do not split into 2 segments
        ad.conv1d(ad.constant(np.ones((2, 5))), weight, segments=2)
    with pytest.raises(ShapeError):  # even kernel
        ad.conv1d(ad.constant(np.ones((2, 6))), ad.constant(np.ones((1, 2, 2))), segments=2)
    with pytest.raises(ShapeError):  # 5 window rows do not split into 3 taps
        ad.conv_input_grad(ad.constant(np.ones((1, 6))), ad.constant(np.ones((1, 5))), 3, 2)


@pytest.mark.parametrize("name", CONV_PRIMITIVES)
def test_conv_primitive_second_order_matches_fd(name):
    # s(w) = || d/d(a, b) sum(square(P(w * a, b))) || with P the primitive,
    # so the create_graph backward runs through P's VJPs (the other two
    # primitives) in both operands and is differentiated again.
    op, first, second, _ = CONV_PRIMITIVES[name]
    w0, a0, b0 = (RNG.standard_normal(shape) for shape in (first, first, second))

    def s_of(w_values):
        w, a, b = ad.variable(w_values), ad.variable(a0), ad.variable(b0)
        f = ad.sum_all(ad.square(op(ad.mul(w, a), b, 3, 2)))
        grad_a, grad_b = ad.backward(f, [a, b], create_graph=True)
        return w, ad.add(l2_norm_eps(grad_a), l2_norm_eps(grad_b))

    w_leaf, s = s_of(w0)
    (analytic,) = ad.backward(s, [w_leaf])
    numeric = finite_difference_gradient(lambda v: float(s_of(v)[1].values), w0)
    assert_gradients_close(analytic.values, numeric, abs_tol=1e-7, rel_tol=1e-4)


def test_segmented_conv_equals_one_conv_per_segment():
    w = ad.constant(RNG.standard_normal((3, 2, 3)))
    b = ad.constant(RNG.standard_normal((3, 1)))
    x = RNG.standard_normal((2, 12))
    together = ad.conv1d(ad.constant(x), w, b, segments=3).values
    apart = [ad.conv1d(ad.constant(x[:, i : i + 4]), w, b).values for i in (0, 4, 8)]
    assert np.allclose(together, np.concatenate(apart, axis=1), rtol=0, atol=1e-12)


def test_segment_norms_equal_l2_norm_of_each_block():
    x = RNG.standard_normal((3, 8))
    norms = ad.segment_norms(ad.constant(x), 2).values
    expected = [float(l2_norm_eps(ad.constant(x[:, i : i + 4])).values) for i in (0, 4)]
    assert norms.shape == (1, 2)
    assert np.allclose(norms[0], expected, rtol=1e-14, atol=0)
    fd_check(lambda v: ad.sum_all(ad.segment_norms(v, 2)), x)


def test_softmax_columns_gradient():
    r = ad.constant(RNG.random((4, 3)))
    fd_check(lambda x: ad.sum_all(ad.mul(ad.softmax_columns(x), r)), RNG.standard_normal((4, 3)))


def test_conv1d_gradients_input_weight_bias():
    w0 = RNG.standard_normal((3, 2, 3)) * 0.5
    b0 = RNG.standard_normal((3, 1)) * 0.5
    x0 = RNG.standard_normal((2, 5))

    w_const, b_const, x_const = ad.constant(w0), ad.constant(b0), ad.constant(x0)
    fd_check(lambda x: ad.sum_all(ad.square(ad.conv1d(x, w_const, b_const))), x0)
    fd_check(lambda w: ad.sum_all(ad.square(ad.conv1d(x_const, w, b_const))), w0)
    fd_check(lambda b: ad.sum_all(ad.square(ad.conv1d(x_const, w_const, b))), b0)


def test_linear_gradient():
    x_const = ad.constant(RNG.random((4, 1)))
    b_const = ad.constant(RNG.random((3, 1)))
    fd_check(lambda w: ad.sum_all(ad.square(ad.linear(w, x_const, b_const))), RNG.random((3, 4)))


def test_l2_norm_eps_zero_input_is_differentiable():
    x = ad.variable(np.zeros(4))
    norm = l2_norm_eps(x)
    assert float(norm.values) == pytest.approx(np.sqrt(ad.EPS_NORM))
    (grad,) = ad.backward(norm, [x])
    assert np.all(np.isfinite(grad.values))


def test_weighted_norm_gradient_matches_fd_tightly():
    # rel tol 1e-6 with an eps-free norm, away from zero
    w_const = ad.constant(RNG.random(5) + 0.5)
    x0 = RNG.random(5) + 0.5

    def build(x):
        return l2_norm_eps(ad.mul(w_const, x), eps=0.0)

    leaf = ad.variable(x0)
    (grad,) = ad.backward(build(leaf), [leaf])
    numeric = finite_difference_gradient(lambda v: float(build(ad.variable(v)).values), x0)
    assert_gradients_close(grad.values, numeric, abs_tol=1e-9, rel_tol=1e-6)


@settings(max_examples=25, deadline=None)
@given(
    hnp.arrays(
        np.float64,
        (2, 3),
        elements=st.floats(min_value=-2.0, max_value=2.0, allow_nan=False),
    )
)
def test_polynomial_gradient_property(x0):
    fd_check(lambda x: ad.sum_all(ad.add(ad.square(x), ad.mul_const(x, 3.0))), x0)


# --- backward semantics -----------------------------------------------------

def test_square_first_and_second_derivative():
    x = ad.variable(3.0)
    y = ad.square(x)
    (first,) = ad.backward(y, [x], create_graph=True)
    assert float(first.values) == pytest.approx(6.0)
    (second,) = ad.backward(first, [x])
    assert float(second.values) == pytest.approx(2.0)


def test_unreachable_wrt_gets_exact_zero():
    x = ad.variable([1.0, 2.0])
    other = ad.variable([5.0])
    root = ad.sum_all(ad.square(x))
    (grad,) = ad.backward(root, [other])
    assert grad.shape == (1,)
    assert np.all(grad.values == 0.0)


def test_backward_rejects_nonscalar_root_and_constant_wrt():
    x = ad.variable([1.0, 2.0])
    with pytest.raises(ShapeError):
        ad.backward(ad.square(x), [x])
    c = ad.constant([1.0])
    with pytest.raises(ValueError):
        ad.backward(ad.sum_all(ad.square(x)), [c])


def test_backward_rejects_a_non_leaf_wrt():
    x = ad.variable([1.0, 2.0])
    doubled = ad.add(x, x)
    with pytest.raises(ValueError, match="requires_grad"):
        ad.backward(ad.sum_all(ad.square(doubled)), [doubled])


def test_gradient_accumulation_is_linear():
    x0 = RNG.random((2, 3))
    x = ad.variable(x0)
    f = ad.sum_all(ad.square(x))
    g = ad.sum_all(ad.mul_const(x, 4.0))
    (grad_sum,) = ad.backward(ad.add(f, g), [x])
    (grad_f,) = ad.backward(f, [x])
    (grad_g,) = ad.backward(g, [x])
    assert np.allclose(grad_sum.values, grad_f.values + grad_g.values)


def test_backward_without_create_graph_returns_bare_leaves():
    x = ad.variable(RNG.random((2, 3)))
    root = ad.sum_all(ad.square(ad.leaky_relu(x, 0.01)))
    (graphed,) = ad.backward(root, [x], create_graph=True)
    (bare,) = ad.backward(root, [x])
    assert graphed.parents
    assert bare.parents == () and bare.vjp is None
    assert bare.values.tobytes() == graphed.values.tobytes()


def test_numeric_error_in_a_freeing_sweep_names_its_op():
    # 1 / x is finite at x = 1e-200, but its derivative -1 / x^2 overflows.
    x = ad.variable([1e-200])
    root = ad.sum_all(ad.div(ad.constant([1.0]), x))
    with np.errstate(over="ignore"), pytest.raises(NumericError, match="op 'div'"):
        ad.backward(root, [x])


def test_failed_freeing_sweep_restores_graph_recording():
    x = ad.variable([1e-200])
    with np.errstate(over="ignore"), pytest.raises(NumericError):
        ad.backward(ad.sum_all(ad.div(ad.constant([1.0]), x)), [x])
    y = ad.variable(3.0)
    assert ad.square(y).parents == (y,)
    (first,) = ad.backward(ad.square(y), [y], create_graph=True)
    assert first.parents
    (second,) = ad.backward(first, [y])
    assert float(second.values) == pytest.approx(2.0)


def test_fan_out_accumulates_both_paths():
    x = ad.variable(2.0)
    y = ad.add(ad.square(x), ad.mul_const(x, 3.0))  # x^2 + 3x
    (grad,) = ad.backward(y, [x])
    assert float(grad.values) == pytest.approx(7.0)


def test_replay_is_bitwise_deterministic():
    x0 = RNG.random((3, 4))
    w0 = RNG.standard_normal((2, 3, 3))

    def run():
        x = ad.variable(x0)
        out = ad.softmax_columns(ad.conv1d(x, ad.constant(w0)))
        root = l2_norm_eps(out)
        (grad,) = ad.backward(root, [x])
        return root.values.copy(), grad.values.copy()

    v1, g1 = run()
    v2, g2 = run()
    assert v1.tobytes() == v2.tobytes()
    assert g1.tobytes() == g2.tobytes()


# --- second-order ----------------------------------------------------------

def test_grad_norm_second_order_matches_fd():
    # s(W) = || d/dx sum(square(W @ x)) ||; check dS/dW against FD of s.
    w0 = RNG.standard_normal((3, 4)) * 0.7
    x0 = RNG.standard_normal((4, 1))

    def s_of(w_values):
        w = ad.variable(w_values)
        x = ad.variable(x0)
        f = ad.sum_all(ad.square(ad.matmul(w, x)))
        (grad_x,) = ad.backward(f, [x], create_graph=True)
        return w, l2_norm_eps(grad_x)

    w_leaf, s = s_of(w0)
    (analytic,) = ad.backward(s, [w_leaf])
    numeric = finite_difference_gradient(lambda v: float(s_of(v)[1].values), w0)
    assert_gradients_close(analytic.values, numeric, abs_tol=1e-7, rel_tol=1e-3)


def test_second_backward_flows_through_conv():
    w0 = RNG.standard_normal((2, 2, 3)) * 0.5
    x0 = RNG.standard_normal((2, 4))

    def s_of(w_values):
        w = ad.variable(w_values)
        x = ad.variable(x0)
        f = ad.sum_all(ad.square(ad.conv1d(x, w)))
        (grad_x,) = ad.backward(f, [x], create_graph=True)
        return w, l2_norm_eps(grad_x)

    w_leaf, s = s_of(w0)
    (analytic,) = ad.backward(s, [w_leaf])
    numeric = finite_difference_gradient(lambda v: float(s_of(v)[1].values), w0)
    assert_gradients_close(analytic.values, numeric, abs_tol=1e-7, rel_tol=1e-3)
