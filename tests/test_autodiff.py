import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from edsurrogate import autodiff as ad
from edsurrogate.errors import NumericError, ShapeError

from .oracles import assert_gradients_close, finite_difference_gradient

RNG = np.random.default_rng(1234)


def fd_check(build, x0, abs_tol=1e-7, rel_tol=1e-4, step=1e-5):
    """Compare backward() against central differences for scalar build(x)."""
    x0 = np.asarray(x0, dtype=np.float64)
    leaf = ad.variable(x0)
    (grad,) = ad.backward(build(leaf), [leaf])
    numeric = finite_difference_gradient(lambda v: build(ad.variable(v)).item(), x0, step)
    assert_gradients_close(grad.values, numeric, abs_tol, rel_tol)


# --- forward values -------------------------------------------------------

def test_leaky_relu_forward():
    node = ad.leaky_relu(ad.constant([-1.0, 2.0]), slope=0.01)
    assert np.allclose(node.values, [-0.01, 2.0])


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
    ("neg", lambda x: ad.sum_all(ad.neg(x))),
    ("mul", lambda x: ad.sum_all(ad.mul(x, OTHER))),
    ("div", lambda x: ad.sum_all(ad.div(x, OTHER))),
    ("div_denom", lambda x: ad.sum_all(ad.div(OTHER, x))),
    ("add_scalar", lambda x: ad.sum_all(ad.add_scalar(x, 1.7))),
    ("mul_scalar", lambda x: ad.sum_all(ad.mul_scalar(x, -2.5))),
    ("square", lambda x: ad.sum_all(ad.square(x))),
    ("sqrt", lambda x: ad.sum_all(ad.sqrt(x))),
    ("exp", lambda x: ad.sum_all(ad.exp(x))),
    ("log", lambda x: ad.sum_all(ad.log(x))),
    ("leaky_relu", lambda x: ad.sum_all(ad.leaky_relu(x, 0.01))),
    ("clamp_min", lambda x: ad.sum_all(ad.clamp_min(x, 0.9))),
    ("clip_max", lambda x: ad.sum_all(ad.clip_max(x, 0.9))),
    ("abs_val", lambda x: ad.sum_all(ad.abs_val(x))),
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


def test_shape_op_gradients():
    weights = ad.constant(RNG.random((2, 6)))
    fd_check(lambda x: ad.sum_all(ad.mul(ad.reshape(x, (2, 6)), weights)), RNG.random((3, 4)))
    fd_check(lambda x: ad.sum_all(ad.square(ad.transpose(x))), RNG.random((3, 4)))
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


def test_unfold_fold_gradients():
    r = ad.constant(RNG.random((6, 6)))
    fd_check(lambda x: ad.sum_all(ad.mul(ad.unfold_segments(x, 3, 2), r)), RNG.random((2, 6)))
    r2 = ad.constant(RNG.random((2, 6)))
    fd_check(lambda x: ad.sum_all(ad.mul(ad.fold_segments(x, 3, 2), r2)), RNG.random((6, 6)))


def _padded_windows_oracle(x, kernel, segments):
    """unfold_segments by explicit loops over segments, channels and taps."""
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


@settings(max_examples=30, deadline=None)
@given(
    channels=st.integers(1, 3),
    segments=st.integers(1, 4),
    width=st.integers(1, 5),
    kernel=st.sampled_from([1, 3, 5]),
    seed=st.integers(0, 2**16),
)
def test_segment_pair_matches_oracle_and_is_adjoint(channels, segments, width, kernel, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((channels, segments * width))
    g = rng.standard_normal((channels * kernel, segments * width))
    unfolded = ad.unfold_segments(ad.constant(x), kernel, segments).values
    folded = ad.fold_segments(ad.constant(g), kernel, segments).values
    assert np.array_equal(unfolded, _padded_windows_oracle(x, kernel, segments))
    # <unfold(x), g> = <x, fold(g)>
    assert np.sum(unfolded * g) == pytest.approx(np.sum(x * folded), rel=1e-12, abs=1e-12)


def test_segment_pair_rejects_bad_shapes():
    with pytest.raises(ShapeError):
        ad.unfold_segments(ad.constant(np.ones((2, 5))), 3, 2)
    with pytest.raises(ShapeError):
        ad.unfold_segments(ad.constant(np.ones((2, 6))), 2, 2)
    with pytest.raises(ShapeError):
        ad.fold_segments(ad.constant(np.ones((5, 6))), 3, 2)


@pytest.mark.parametrize("op", ["unfold", "fold"])
def test_segment_pair_second_order_matches_fd(op):
    # s(w) = || d/dx sum(square(T(w * x))) || with T one of the pair, so the
    # create_graph backward runs through T's VJP and is differentiated again.
    if op == "unfold":
        w0, x0 = RNG.standard_normal((2, 6)), RNG.standard_normal((2, 6))

        def transform(a):
            return ad.unfold_segments(a, 3, 2)
    else:
        w0, x0 = RNG.standard_normal((6, 6)), RNG.standard_normal((6, 6))

        def transform(a):
            return ad.fold_segments(a, 3, 2)

    def s_of(w_values):
        w = ad.variable(w_values)
        x = ad.variable(x0)
        f = ad.sum_all(ad.square(transform(ad.mul(w, x))))
        (grad_x,) = ad.backward(f, [x], create_graph=True)
        return w, ad.l2_norm_eps(grad_x)

    w_leaf, s = s_of(w0)
    (analytic,) = ad.backward(s, [w_leaf])
    numeric = finite_difference_gradient(lambda v: s_of(v)[1].item(), w0)
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
    expected = [ad.l2_norm_eps(ad.constant(x[:, i : i + 4])).item() for i in (0, 4)]
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
    norm = ad.l2_norm_eps(x)
    assert norm.item() == pytest.approx(np.sqrt(ad.EPS_NORM))
    (grad,) = ad.backward(norm, [x])
    assert np.all(np.isfinite(grad.values))


def test_weighted_norm_gradient_matches_fd_tightly():
    # rel tol 1e-6 with an eps-free norm, away from zero
    w_const = ad.constant(RNG.random(5) + 0.5)
    x0 = RNG.random(5) + 0.5

    def build(x):
        return ad.l2_norm_eps(ad.mul(w_const, x), eps=0.0)

    leaf = ad.variable(x0)
    (grad,) = ad.backward(build(leaf), [leaf])
    numeric = finite_difference_gradient(lambda v: build(ad.variable(v)).item(), x0)
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
    fd_check(lambda x: ad.sum_all(ad.add(ad.square(x), ad.mul_scalar(x, 3.0))), x0)


# --- backward semantics -----------------------------------------------------

def test_square_first_and_second_derivative():
    x = ad.variable(3.0)
    y = ad.square(x)
    (first,) = ad.backward(y, [x], create_graph=True)
    assert first.item() == pytest.approx(6.0)
    (second,) = ad.backward(first, [x])
    assert second.item() == pytest.approx(2.0)


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


def test_gradient_accumulation_is_linear():
    x0 = RNG.random((2, 3))
    x = ad.variable(x0)
    f = ad.sum_all(ad.square(x))
    g = ad.sum_all(ad.mul_scalar(x, 4.0))
    (grad_sum,) = ad.backward(ad.add(f, g), [x])
    (grad_f,) = ad.backward(f, [x])
    (grad_g,) = ad.backward(g, [x])
    assert np.allclose(grad_sum.values, grad_f.values + grad_g.values)


def test_fan_out_accumulates_both_paths():
    x = ad.variable(2.0)
    y = ad.add(ad.square(x), ad.mul_scalar(x, 3.0))  # x^2 + 3x
    (grad,) = ad.backward(y, [x])
    assert grad.item() == pytest.approx(7.0)


def test_replay_is_bitwise_deterministic():
    x0 = RNG.random((3, 4))
    w0 = RNG.standard_normal((2, 3, 3))

    def run():
        x = ad.variable(x0)
        out = ad.softmax_columns(ad.conv1d(x, ad.constant(w0)))
        root = ad.l2_norm_eps(out)
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
        return w, ad.l2_norm_eps(grad_x)

    w_leaf, s = s_of(w0)
    (analytic,) = ad.backward(s, [w_leaf])
    numeric = finite_difference_gradient(lambda v: s_of(v)[1].item(), w0)
    assert_gradients_close(analytic.values, numeric, abs_tol=1e-7, rel_tol=1e-3)


def test_second_backward_flows_through_conv():
    w0 = RNG.standard_normal((2, 2, 3)) * 0.5
    x0 = RNG.standard_normal((2, 4))

    def s_of(w_values):
        w = ad.variable(w_values)
        x = ad.variable(x0)
        f = ad.sum_all(ad.square(ad.conv1d(x, w)))
        (grad_x,) = ad.backward(f, [x], create_graph=True)
        return w, ad.l2_norm_eps(grad_x)

    w_leaf, s = s_of(w0)
    (analytic,) = ad.backward(s, [w_leaf])
    numeric = finite_difference_gradient(lambda v: s_of(v)[1].item(), w0)
    assert_gradients_close(analytic.values, numeric, abs_tol=1e-7, rel_tol=1e-3)
