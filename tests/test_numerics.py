"""Autodiff op correctness: closed-form examples plus finite-difference
gradient checks for every differentiable operation."""

from __future__ import annotations

import math

import numpy as np
import pytest

from mrpdiff.errors import InvalidShapeError, NoGradError
from mrpdiff.numerics import arrays as A
from mrpdiff.numerics import optim
from mrpdiff.numerics import tensor as T
from mrpdiff.numerics.optim import OptimizerState, adamw_step, cosine_lr
from mrpdiff.numerics.tensor import Tensor, backward, no_grad, zero_grads

from util import check_grads


# ---------------------------------------------------------------------------
# softmax
# ---------------------------------------------------------------------------


def test_softmax_symmetric_pair():
    out = T.softmax_rows(T.tensor([0.0, 0.0]))
    np.testing.assert_allclose(out.data, [0.5, 0.5], rtol=0, atol=1e-15)


def test_softmax_closed_form():
    out = T.softmax_rows(T.tensor([0.0, math.log(2.0)]))
    np.testing.assert_allclose(out.data, [1.0 / 3.0, 2.0 / 3.0], rtol=1e-14)


def test_softmax_shift_invariance():
    rng = np.random.default_rng(11)
    for _ in range(50):
        x = rng.normal(size=(3, 9))
        c = float(rng.normal()) * 10
        a = T.softmax_rows(T.tensor(x)).data
        b = T.softmax_rows(T.tensor(x + c)).data
        np.testing.assert_allclose(a, b, atol=1e-12)


def test_softmax_rows_sum_to_one_and_positive():
    rng = np.random.default_rng(3)
    x = rng.normal(scale=30.0, size=(200, 17))
    p = T.softmax_rows(T.tensor(x)).data
    np.testing.assert_allclose(p.sum(axis=-1), 1.0, rtol=0, atol=1e-12)
    assert (p > 0).all()


def test_softmax_blocked_entry_is_exact_zero_with_no_subnormal_gradient():
    z = T.param(np.array([0.0, -1e30]))  # -1e30: a blocked attention score
    p = T.softmax_rows(z)
    assert p.data.tolist() == [1.0, 0.0]
    backward(T.sum_all(T.mul(p, T.tensor([0.0, 1e-6]))))
    g = z.grad
    assert not np.any((g != 0.0) & (np.abs(g) < np.finfo(np.float64).tiny))


def test_softmax_empty_last_extent_raises():
    with pytest.raises(InvalidShapeError):
        T.softmax_rows(T.tensor(np.empty((3, 0))))


# ---------------------------------------------------------------------------
# kl_per_row
# ---------------------------------------------------------------------------


def test_kl_identical_is_zero():
    p = T.tensor([0.3, 0.7])
    assert abs(T.kl_per_row(p, p).item()) < 1e-15


def test_kl_closed_form():
    p = T.tensor([1.0, 0.0])
    q = T.tensor([0.5, 0.5])
    assert abs(T.kl_per_row(p, q).item() - math.log(2.0)) < 1e-12


def test_kl_nonnegative_on_random_pairs():
    rng = np.random.default_rng(5)
    for _ in range(1000):
        p = T.softmax_rows(T.tensor(rng.normal(size=8))).data
        q = T.softmax_rows(T.tensor(rng.normal(size=8))).data
        assert T.kl_per_row(T.tensor(p), T.tensor(q)).item() >= -1e-15


def test_kl_zero_q_is_clamped_not_raised():
    p = T.tensor([0.5, 0.5])
    q = T.tensor([1.0, 0.0])
    val = T.kl_per_row(p, q).item()
    assert np.isfinite(val) and val > 0


def test_kl_one_value_per_row():
    p = T.tensor([[1.0, 0.0], [0.5, 0.5]])
    q = T.tensor([[0.5, 0.5], [0.5, 0.5]])
    kl = T.kl_per_row(p, q).data
    assert kl.shape == (2,)
    assert abs(kl[0] - math.log(2.0)) < 1e-12 and abs(kl[1]) < 1e-15


# ---------------------------------------------------------------------------
# backward semantics
# ---------------------------------------------------------------------------


def test_backward_square():
    x = T.param(np.asarray(3.0).reshape(1))
    loss = T.sum_all(T.mul(x, x))
    backward(loss)
    assert abs(x.grad[0] - 6.0) < 1e-12


def test_backward_accumulates_on_repeat():
    x = T.param(np.asarray(3.0).reshape(1))
    loss = T.sum_all(T.mul(x, x))
    backward(loss)
    backward(loss)
    assert abs(x.grad[0] - 12.0) < 1e-12


def test_leaf_gradients_never_share_memory():
    # add's backward hands both leaves the same gradient array; a later
    # backward adds into one of them only
    a, b = T.param(np.ones(3)), T.param(np.ones(3))
    backward(T.sum_all(T.add(a, b)))
    backward(T.sum_all(T.mul(a, 2.0)))
    assert np.array_equal(a.grad, [3.0, 3.0, 3.0]) and np.array_equal(b.grad, [1.0, 1.0, 1.0])


def test_backward_disconnected_param_gets_no_grad():
    x = T.param(np.ones(2))
    y = T.param(np.ones(2))
    loss = T.sum_all(T.mul(x, x))
    backward(loss)
    assert y.grad is None
    assert x.grad is not None


def test_backward_requires_scalar():
    x = T.param(np.ones(3))
    with pytest.raises(InvalidShapeError):
        backward(T.mul(x, x))


def test_no_grad_suppresses_tape():
    x = T.param(np.ones(2))
    with no_grad():
        y = T.mul(x, x)
    assert y._parents == ()


def test_diamond_graph_grad():
    # z = (x + x) * x  ->  dz/dx = 4x
    x = T.param(np.asarray([2.0]))
    z = T.sum_all(T.mul(T.add(x, x), x))
    backward(z)
    assert abs(x.grad[0] - 8.0) < 1e-12


_TWO_OPERANDS = {"add": [(3, 4), (3, 4)], "mul": [(3, 4), (4,)],
                 "concat_last": [(3, 4), (3, 2)], "matmul": [(3, 4), (4, 2)],
                 "rmsnorm": [(3, 4), (4,)], "kl_per_row": [(3, 4), (3, 4)]}


@pytest.mark.parametrize("constant", [0, 1], ids=["first-constant", "second-constant"])
@pytest.mark.parametrize("op", _TWO_OPERANDS)
def test_a_backward_takes_no_gradient_for_a_constant_operand(monkeypatch, op, constant):
    rng = np.random.default_rng(3)
    # positive rows summing to 1: probability rows for kl_per_row
    arrays = [a / a.sum(axis=-1, keepdims=True)
              for a in (rng.random(shape) + 0.1 for shape in _TWO_OPERANDS[op])]
    pushed, push = [], T._push
    monkeypatch.setattr(T, "_push", lambda table, t, g: (pushed.append(t), push(table, t, g)))
    grads = []
    for tracked in ({1 - constant}, {0, 1}):
        operands = [T.param(a) if i in tracked else a for i, a in enumerate(arrays)]
        backward(T.sum_all(getattr(T, op)(*operands)))
        grads.append(operands[1 - constant].grad)
    assert pushed and all(t._tracked() for t in pushed)
    # the tracked operand's gradient is the one it takes beside a tracked twin
    assert np.array_equal(*grads)


# ---------------------------------------------------------------------------
# finite-difference checks, one per differentiable op
# ---------------------------------------------------------------------------


def _rand(rng, *shape):
    return T.param(rng.normal(size=shape))


def test_fd_elementwise_ops():
    rng = np.random.default_rng(0)
    a, b = _rand(rng, 4, 5), _rand(rng, 4, 5)
    check_grads(lambda: T.sum_all(T.mul(T.add(a, b), T.mul(a, b))), [a, b])
    c = _rand(rng, 5)  # broadcast add
    check_grads(lambda: T.sum_all(T.mul(T.add(a, c), T.add(a, c))), [a, c])
    check_grads(lambda: T.sum_all(T.silu(a)), [a])
    check_grads(lambda: T.sum_all(T.mul(a, 2.5)), [a])


def test_fd_matmul():
    rng = np.random.default_rng(1)
    a, w = _rand(rng, 6, 4), _rand(rng, 4, 3)
    check_grads(lambda: T.sum_all(T.mul(T.matmul(a, w), T.matmul(a, w))), [a, w])
    # batched both sides
    q, k = _rand(rng, 2, 5, 3), _rand(rng, 2, 3, 5)
    check_grads(lambda: T.sum_all(T.mul(T.matmul(q, k), T.matmul(q, k))), [q, k])


def test_fd_softmax_and_logsoftmax():
    rng = np.random.default_rng(2)
    x = _rand(rng, 3, 7)
    w = rng.normal(size=(3, 7))
    check_grads(lambda: T.sum_all(T.mul(T.softmax_rows(x), w)), [x])
    check_grads(lambda: T.sum_all(T.mul(T.log_softmax_rows(x), w)), [x])


def test_fd_rmsnorm():
    rng = np.random.default_rng(3)
    x, g = _rand(rng, 4, 6), T.param(1.0 + 0.1 * rng.normal(size=6))
    w = rng.normal(size=(4, 6))
    check_grads(lambda: T.sum_all(T.mul(T.rmsnorm(x, g), w)), [x, g])


def test_fd_shape_ops():
    rng = np.random.default_rng(4)
    x = _rand(rng, 4, 6)
    w = rng.normal(size=(2, 2, 6))
    check_grads(
        lambda: T.sum_all(T.mul(T.transpose(T.reshape(x, (2, 2, 6)), (1, 0, 2)), w)),
        [x],
    )
    y = _rand(rng, 4, 3)
    check_grads(lambda: T.sum_all(T.mul(T.concat_last(x, y), T.concat_last(x, y))), [x, y])
    check_grads(lambda: T.sum_all(T.mul(T.slice_last(x, 1, 4), T.slice_last(x, 1, 4))), [x])
    check_grads(lambda: T.sum_all(T.mul(T.slice_rows(x, 2), T.slice_rows(x, 2))), [x])


def test_array_twin_of_slice_rows_matches_tensor_op():
    rng = np.random.default_rng(8)
    y = rng.normal(size=(6, 3))
    assert np.array_equal(A.slice_rows(y, 5, 2), T.slice_rows(T.tensor(y), 5, 2).data)
    z = _rand(rng, 6, 3)
    check_grads(lambda: T.sum_all(T.mul(T.slice_rows(z, 5, 2), T.slice_rows(z, 5, 2))), [z])


def test_fd_gather_ops():
    rng = np.random.default_rng(5)
    # one gather: an embedding lookup of (B, L) ids, and the rows a loss reads
    table = _rand(rng, 9, 4)
    ids = np.array([[1, 3, 3, 0], [8, 1, 0, 1]])
    assert np.array_equal(A.select_rows(table.data, ids), T.select_rows(table, ids).data)
    check_grads(lambda: T.sum_all(T.mul(T.select_rows(table, ids), T.select_rows(table, ids))),
                [table])
    x = _rand(rng, 6, 5)
    idx = np.array([0, 2, 2, 5])
    check_grads(lambda: T.sum_all(T.mul(T.select_rows(x, idx), T.select_rows(x, idx))), [x])
    cols = np.array([4, 0, 1, 1, 2, 3])
    check_grads(lambda: T.sum_all(T.mul(T.take_per_row(x, cols), T.take_per_row(x, cols))), [x])


def test_fd_kl_per_row_student_side():
    rng = np.random.default_rng(6)
    p = T.tensor(T.softmax_rows(T.tensor(rng.normal(size=(4, 6)))).data)
    z = _rand(rng, 4, 6)
    check_grads(lambda: T.sum_all(T.kl_per_row(p, T.softmax_rows(z))), [z])


def test_fd_weighted_kl_per_row_both_sides():
    # a distillation step's loss: each row weighs 1 / unroll over its
    # sequence's masked count, here rows of sequences of 1, 2 and 3 rows.
    # p is a free positive leaf, so its gradient's +1 term shows (through
    # a softmax it would cancel)
    rng = np.random.default_rng(7)
    p = T.param(rng.uniform(0.1, 1.0, size=(6, 5)))
    zq = _rand(rng, 6, 5)
    weights = 0.5 / np.array([1, 2, 2, 3, 3, 3])
    check_grads(lambda: T.sum_all(T.mul(T.kl_per_row(p, T.softmax_rows(zq)), weights)), [p, zq])


# ---------------------------------------------------------------------------
# linearity
# ---------------------------------------------------------------------------


def test_linear_map_additivity():
    rng = np.random.default_rng(7)
    w = T.tensor(rng.normal(size=(8, 5)))
    a = rng.normal(size=(3, 8))
    b = rng.normal(size=(3, 8))
    lhs = T.matmul(T.tensor(a + b), w).data
    rhs = T.matmul(T.tensor(a), w).data + T.matmul(T.tensor(b), w).data
    np.testing.assert_allclose(lhs, rhs, atol=1e-10)


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------


def _opt(**kw):
    defaults = dict(peak_lr=1e-3, min_lr=1e-5, total_steps=100)
    defaults.update(kw)
    return OptimizerState(**defaults)


def test_cosine_endpoints_and_midpoint():
    opt = _opt()
    assert cosine_lr(0, opt) == opt.peak_lr
    assert cosine_lr(100, opt) == opt.min_lr
    assert abs(cosine_lr(50, opt) - (opt.peak_lr + opt.min_lr) / 2) < 1e-18
    assert cosine_lr(1000, opt) == opt.min_lr  # clamps past the end


def test_adamw_first_step_closed_form():
    p = T.param(np.asarray([1.0]))
    p.grad = np.asarray([0.5])
    opt = _opt(peak_lr=1e-3, min_lr=1e-3, weight_decay=0.0)
    adamw_step([("p", p)], opt)
    # bias-corrected first step: lr * g / (sqrt(g^2) + eps) ~= lr
    assert abs((1.0 - p.data[0]) - 1e-3) < 1e-8
    assert opt.step_count == 1


def test_adamw_zero_grad_zero_wd_no_change():
    p = T.param(np.asarray([2.0]))
    q = T.param(np.asarray([1.0]))
    q.grad = np.asarray([0.1])
    opt = _opt(peak_lr=1e-3, min_lr=1e-3)
    adamw_step([("p", p), ("q", q)], opt)
    assert p.data[0] == 2.0


def test_adamw_decoupled_decay_exact():
    p = T.param(np.asarray([2.0]))
    q = T.param(np.asarray([1.0]))
    q.grad = np.asarray([0.0])
    opt = _opt(peak_lr=1e-3, min_lr=1e-3, weight_decay=0.1)
    adamw_step([("p", p), ("q", q)], opt)
    assert abs(p.data[0] - (2.0 - 1e-3 * 0.1 * 2.0)) < 1e-15


def test_adamw_matches_the_textbook_update_bit_for_bit():
    rng = np.random.default_rng(3)
    p = T.param(rng.normal(size=(4, 5)))
    q = T.param(rng.normal(size=(3,)))
    ref = {"p": p.data.copy(), "q": q.data.copy()}
    moments = {name: (np.zeros_like(a), np.zeros_like(a)) for name, a in ref.items()}
    opt = _opt(peak_lr=1e-2, min_lr=1e-4, weight_decay=0.1)
    b1, b2 = optim.BETA1, optim.BETA2
    for step in range(1, 6):
        lr = cosine_lr(opt.step_count, opt)
        for t in (p, q):
            t.grad = rng.normal(size=t.shape)
        grads = {"p": p.grad, "q": q.grad}
        adamw_step([("p", p), ("q", q)], opt)
        for name, a in ref.items():
            m, v = moments[name]
            g = grads[name]
            m = b1 * m + (1.0 - b1) * g
            v = b2 * v + (1.0 - b2) * (g * g)
            moments[name] = (m, v)
            a -= lr * opt.weight_decay * a
            a -= lr * (m / (1.0 - b1 ** step)) / (np.sqrt(v / (1.0 - b2 ** step)) + optim.EPS)
        assert np.array_equal(p.data, ref["p"]) and np.array_equal(q.data, ref["q"])
        assert np.array_equal(opt.first_moment["p"], moments["p"][0])
        assert np.array_equal(opt.second_moment["q"], moments["q"][1])


def test_adamw_before_backward_raises():
    p = T.param(np.asarray([1.0]))
    with pytest.raises(NoGradError):
        adamw_step([("p", p)], _opt())


def test_zero_grads():
    p = T.param(np.ones(3))
    p.grad = np.ones(3)
    zero_grads([p])
    assert p.grad is None


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------


def test_op_determinism():
    rng1 = np.random.default_rng(42)
    rng2 = np.random.default_rng(42)

    def run(rng):
        x = T.param(rng.normal(size=(6, 8)))
        w = T.param(rng.normal(size=(8, 8)))
        out = T.softmax_rows(T.matmul(T.rmsnorm(x, T.tensor(np.ones(8))), w))
        loss = T.sum_all(T.mul(out, out))
        backward(loss)
        return out.data.copy(), x.grad.copy()

    o1, g1 = run(rng1)
    o2, g2 = run(rng2)
    assert np.array_equal(o1, o2) and np.array_equal(g1, g2)
