import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ltreflect import losses, nn
from ltreflect.errors import DimensionError, NumericError

from oracles import fd_grad_params, max_rel_err, mse_logits


def two_layer_model(w0, b0, w1, b1):
    """The model whose flat vector holds w0, b0, w1, b1 in that order."""
    flat = np.concatenate([np.ravel(a) for a in (w0, b0, w1, b1)]).astype(np.float64)
    return nn.ModelParams(flat, (np.shape(w0)[1], np.shape(w0)[0], np.shape(w1)[0]))


# --- forward ------------------------------------------------------------------


def test_forward_zero_map():
    params = two_layer_model(np.zeros((5, 2)), np.zeros(5), np.zeros((3, 5)), np.zeros(3))
    rec = nn.forward(params, np.random.default_rng(0).normal(size=(4, 2)))
    assert np.array_equal(rec.features, np.zeros((4, 5)))
    assert np.array_equal(rec.logits, np.zeros((4, 3)))


def test_forward_hand_computed():
    params = two_layer_model([[1.0, 0.0], [0.0, -2.0]], [1.0, 1.0], [[1.0, 1.0], [2.0, -1.0]], [0.5, 0.0])
    rec = nn.forward(params, np.array([[3.0, 3.0]]))
    assert np.array_equal(rec.features, [[4.0, 0.0]])  # pre-activations 4 and -5
    assert np.array_equal(rec.logits, [[4.5, 8.0]])


@pytest.mark.parametrize("stack", [0, 3])
@pytest.mark.parametrize("hidden", [1, 5])
def test_forward_is_pure(stack, hidden):
    """The forward writes only the arrays it allocates, and its in-place bias
    add and ReLU give the bits of the written-out expression, on a batch with
    an all-zero row and a NaN row."""
    rng = np.random.default_rng(1)
    models = [nn.init_params(4, 3, hidden, rng) for _ in range(max(stack, 1))]
    params = nn.stack_params(models) if stack else models[0]
    batch = rng.normal(size=(*([stack] if stack else []), 6, 4))
    batch[..., 1, :] = 0.0
    batch[..., 4, 2] = np.nan
    batch_before, flat_before = batch.tobytes(), params.flat.tobytes()
    rec = nn.forward(params, batch)
    assert batch.tobytes() == batch_before and params.flat.tobytes() == flat_before
    for s, model in enumerate(models):
        x = batch[s] if stack else batch
        features, logits = (rec.features[s], rec.logits[s]) if stack else (rec.features, rec.logits)
        (w0, b0), (w1, b1) = model.layers
        want = np.maximum(0.0, x @ w0.T + b0)
        assert features.tobytes() == want.tobytes()
        assert logits.tobytes() == (want @ w1.T + b1).tobytes()


def test_forward_rejects_bad_width():
    params = nn.init_params(4, 3, 5, np.random.default_rng(0))
    with pytest.raises(DimensionError):
        nn.forward(params, np.zeros((2, 5)))


def test_mlp_features_are_nonnegative():
    rng = np.random.default_rng(2)
    params = nn.init_params(6, 4, 8, rng)
    rec = nn.forward(params, rng.normal(size=(20, 6)))
    assert (rec.features >= 0).all()


# --- the flat parameter buffer -----------------------------------------------------


@given(st.integers(0, 100), st.integers(1, 8))
def test_layers_are_views_into_flat(seed, hidden):
    rng = np.random.default_rng(seed)
    params = nn.init_params(3, 4, hidden, rng)
    batch = rng.normal(size=(5, 3))
    before = nn.forward(params, batch).logits
    # the spans tile the flat vector in layer order; each layer views its span
    spans = params.layer_spans()
    offset = 0
    for (w, b), (_, w_start, w_size), (_, b_start, b_size) in zip(
        params.layers, spans[::2], spans[1::2]
    ):
        assert (w_start, b_start) == (offset, offset + w_size)
        assert np.shares_memory(w, params.flat) and np.shares_memory(b, params.flat)
        assert np.array_equal(w.ravel(), params.flat[w_start : w_start + w_size])
        assert np.array_equal(b, params.flat[b_start : b_start + b_size])
        offset = b_start + b_size
    assert offset == params.flat.size == params.num_params
    # writing the flat vector writes the layers and changes the output
    params.flat[:] = rng.normal(size=params.num_params)
    assert np.array_equal(
        np.concatenate([np.concatenate([w.ravel(), b]) for w, b in params.layers]), params.flat
    )
    assert not np.array_equal(nn.forward(params, batch).logits, before)


@given(st.integers(0, 2**32 - 1), st.sampled_from([1, 32]), st.integers(1, 16))
def test_a_stack_steps_each_model_as_it_steps_alone(seed, hidden, batch):
    """Row s of a stack's flat buffer is model s: views into it, and its
    forward, K-stacked backward and SGD step bitwise those of model s alone."""
    rng = np.random.default_rng(seed)
    models = [nn.init_params(32, 20, hidden, rng) for _ in range(3)]
    stack = nn.stack_params(models)
    for w, b in stack.layers:
        assert np.shares_memory(w, stack.flat) and np.shares_memory(b, stack.flat)
    x = rng.normal(size=(3, batch, 32))
    g = rng.normal(size=(3, 2, batch, 20))
    rec = nn.forward(stack, x)
    grads = nn.backward(stack, rec, g)
    lr, momentum = 0.1, 0.9
    velocity = rng.normal(size=stack.flat.shape)
    alone_velocity = velocity.copy()
    nn.sgd_step(stack, grads[:, 0], lr, momentum, velocity)
    for s, model in enumerate(models):
        one = nn.forward(model, x[s])
        assert rec.logits[s].tobytes() == one.logits.tobytes()
        assert grads[s].tobytes() == nn.backward(model, one, g[s]).tobytes()
        nn.sgd_step(model, grads[s, 0], lr, momentum, alone_velocity[s])
        assert stack.run(s).flat.tobytes() == model.flat.tobytes()
        assert velocity[s].tobytes() == alone_velocity[s].tobytes()


def test_sgd_step_output_matches_a_rebuilt_model():
    rng = np.random.default_rng(12)
    params = nn.init_params(4, 3, 5, rng)
    grad = rng.normal(size=params.num_params)
    nn.sgd_step(params, grad, lr=0.1, momentum=0.9, velocity=np.zeros(params.num_params))
    rebuilt = nn.ModelParams(params.flat.copy(), params.dims)
    assert np.array_equal(rebuilt.flat, params.flat)
    batch = rng.normal(size=(6, 4))
    assert np.array_equal(nn.forward(rebuilt, batch).logits, nn.forward(params, batch).logits)


def test_init_params_draws_the_flat_vector_in_layer_order():
    """`flat` is one Generator's uniform draws w0, b0, w1, b1, each weight
    drawn as an [out, in] array, each at its layer's fan-scaled bound."""
    dims = (6, 5, 3)
    params = nn.init_params(6, 3, 5, np.random.default_rng(7))
    rng = np.random.default_rng(7)
    draws = []
    for fan_in, fan_out in zip(dims, dims[1:]):
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        draws += [rng.uniform(-bound, bound, size=(fan_out, fan_in)).ravel(),
                  rng.uniform(-bound, bound, size=fan_out)]
    assert params.dims == dims
    assert params.flat.tobytes() == np.concatenate(draws).tobytes()


# --- backward -------------------------------------------------------------------


def test_backward_zero_gradient():
    rng = np.random.default_rng(3)
    params = nn.init_params(4, 3, 5, rng)
    rec = nn.forward(params, rng.normal(size=(2, 4)))
    g = nn.backward(params, rec, np.zeros_like(rec.logits))
    assert np.array_equal(g, np.zeros(params.num_params))


def test_backward_single_row_outer_product():
    rng = np.random.default_rng(4)
    params = nn.init_params(4, 3, 5, rng)
    x = rng.normal(size=(1, 4))
    rec = nn.forward(params, x)
    dlogits = rng.normal(size=(1, 3))
    g = nn.backward(params, rec, dlogits)
    d_hidden = (dlogits[0] @ params.layers[1][0]) * (rec.features[0] > 0)
    # flat layout: layer0 weight [5, 4] and bias [5], then layer1 weight [3, 5] and bias [3]
    assert np.allclose(g[:20].reshape(5, 4), np.outer(d_hidden, x[0]), atol=1e-15)
    assert np.allclose(g[20:25], d_hidden, atol=1e-15)
    assert np.allclose(g[25:40].reshape(3, 5), np.outer(dlogits[0], rec.features[0]), atol=1e-15)
    assert np.allclose(g[40:], dlogits[0], atol=1e-15)


def test_backward_rejects_shape_mismatch():
    rng = np.random.default_rng(5)
    params = nn.init_params(4, 3, 5, rng)
    rec = nn.forward(params, rng.normal(size=(2, 4)))
    with pytest.raises(DimensionError):
        nn.backward(params, rec, np.zeros((2, 4)))


@pytest.mark.parametrize("shape", [(3,), (3, 2, 4), (2, 3, 3), (1, 1, 2, 3)])
def test_backward_rejects_stack_shape_mismatch(shape):
    rng = np.random.default_rng(5)
    params = nn.init_params(4, 3, 5, rng)
    rec = nn.forward(params, rng.normal(size=(2, 4)))
    with pytest.raises(DimensionError):
        nn.backward(params, rec, np.zeros(shape))


@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from([1, 32]),
    st.integers(1, 3),
    st.sampled_from([1.0, 1e-13, 0.0]),
    st.integers(1, 16),
)
def test_stacked_backward_matches_separate_calls_bitwise(seed, hidden, k, scale, batch):
    rng = np.random.default_rng(seed)
    params = nn.init_params(32, 20, hidden, rng)
    rec = nn.forward(params, rng.normal(size=(batch, 32)))
    g = rng.normal(size=(k, batch, 20)) * scale
    stacked = nn.backward(params, rec, g)
    assert stacked.shape == (k, params.num_params)
    for row, one in zip(stacked, g):
        assert row.tobytes() == nn.backward(params, rec, one.copy()).tobytes()


@pytest.mark.parametrize("hidden", [1, 5])
@pytest.mark.parametrize(
    "loss_name", ["ce", "bsce", "soft_ce", "kl_distill", "mse_logits"]
)
def test_backward_matches_finite_differences(hidden, loss_name):
    rng = np.random.default_rng(6)
    params = nn.init_params(4, 3, hidden, rng)
    batch = rng.normal(size=(5, 4))
    labels = np.array([0, 1, 2, 0, 1])
    counts = np.array([50, 10, 2])
    targets = np.abs(rng.normal(size=(5, 3)))
    prev = rng.normal(size=(5, 3))

    def batch_loss(logits):
        if loss_name == "ce":
            return losses.ce_loss(logits, labels)
        if loss_name == "bsce":
            return losses.bsce_loss(logits, labels, counts)
        if loss_name == "soft_ce":
            return losses.soft_ce(logits, targets)
        if loss_name == "kl_distill":
            return losses.kl_distill(prev, logits, tau=2.0)
        return mse_logits(prev, logits)

    rec = nn.forward(params, batch)
    out = batch_loss(rec.logits)
    analytic = nn.backward(params, rec, out.dlogits)
    numeric = fd_grad_params(
        params, lambda p: batch_loss(nn.forward(p, batch).logits).value
    )
    assert max_rel_err(analytic, numeric) < 1e-4


# --- sgd -------------------------------------------------------------------------


def test_sgd_zero_grad_is_identity():
    rng = np.random.default_rng(7)
    params = nn.init_params(3, 2, 4, rng)
    before = params.flat.copy()
    vel = np.zeros(params.num_params)
    nn.sgd_step(params, np.zeros(params.num_params), lr=0.1, momentum=0.9, velocity=vel)
    assert np.array_equal(params.flat, before)
    assert np.array_equal(vel, np.zeros(params.num_params))


def test_sgd_no_momentum_unit_lr():
    rng = np.random.default_rng(8)
    params = nn.init_params(3, 2, 4, rng)
    before = params.flat.copy()
    grad = rng.normal(size=params.num_params)
    nn.sgd_step(params, grad, lr=1.0, momentum=0.0, velocity=np.zeros(params.num_params))
    assert np.allclose(params.flat, before - grad, atol=1e-15)


def test_sgd_momentum_two_steps():
    rng = np.random.default_rng(9)
    params = nn.init_params(3, 2, 4, rng)
    before = params.flat.copy()
    grad = rng.normal(size=params.num_params)
    vel = np.zeros(params.num_params)
    lr = 0.25
    nn.sgd_step(params, grad, lr=lr, momentum=0.9, velocity=vel)
    nn.sgd_step(params, grad, lr=lr, momentum=0.9, velocity=vel)
    displacement = before - params.flat
    assert np.allclose(displacement, lr * (grad + 1.9 * grad), atol=1e-12)


def test_sgd_rejects_non_finite_grad():
    rng = np.random.default_rng(10)
    params = nn.init_params(3, 2, 4, rng)
    before = params.flat.copy()
    grad = np.zeros(params.num_params)
    grad[0] = np.nan
    with pytest.raises(NumericError):
        nn.sgd_step(params, grad, lr=0.1, momentum=0.9, velocity=np.zeros(params.num_params))
    assert np.array_equal(params.flat, before)  # step aborted


def test_init_is_seed_deterministic_and_bounded():
    a = nn.init_params(10, 7, 16, np.random.default_rng(11))
    b = nn.init_params(10, 7, 16, np.random.default_rng(11))
    assert np.array_equal(a.flat, b.flat)
    for (w, bias), (fan_in, fan_out) in zip(a.layers, [(10, 16), (16, 7)]):
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        assert np.abs(w).max() <= bound and np.abs(bias).max() <= bound
