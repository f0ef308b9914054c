"""MLP initialization, forward pass, gradients, training and model files."""

import numpy as np
import pytest

from vconv.mlp import (
    MlpModel,
    ModelDimensionError,
    ModelFormatError,
    ModelVersionError,
    TrainingDivergedError,
    _flatten,
    _unflatten,
    compute_gradients,
    forward,
    init_mlp,
    load_model,
    save_model,
    train,
)


def _linear_unit(w=0.0, b=0.0):
    """Single 1-to-1 layer; the output layer is linear, so y = w*x + b."""
    return MlpModel(weights=[np.array([[w]])], biases=[np.array([b])])


def test_init_shapes_and_bounds():
    model = init_mlp([24, 30, 24], seed=42)
    assert [w.shape for w in model.weights] == [(30, 24), (24, 30)]
    assert [b.shape for b in model.biases] == [(30,), (24,)]
    assert model.layer_sizes == [24, 30, 24]
    for w, (fan_in, fan_out) in zip(model.weights, [(24, 30), (30, 24)]):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        assert np.all(np.abs(w) <= limit)
    for b in model.biases:
        assert not np.any(b)


def test_init_is_deterministic():
    a = init_mlp([4, 7, 3], seed=11)
    b = init_mlp([4, 7, 3], seed=11)
    c = init_mlp([4, 7, 3], seed=12)
    for wa, wb in zip(a.weights, b.weights):
        np.testing.assert_array_equal(wa, wb)
    assert any(not np.array_equal(wa, wc)
               for wa, wc in zip(a.weights, c.weights))


def test_init_rejects_bad_sizes():
    with pytest.raises(ValueError):
        init_mlp([24])
    with pytest.raises(ValueError):
        init_mlp([24, 0, 24])


def test_forward_linear_unit():
    np.testing.assert_allclose(forward(_linear_unit(2.0, 1.0), [3.0]), [7.0])


def test_forward_hidden_layer_is_tanh():
    model = MlpModel(weights=[np.array([[1.0]]), np.array([[1.0]])],
                     biases=[np.zeros(1), np.zeros(1)])
    np.testing.assert_allclose(forward(model, [0.0]), [0.0])
    np.testing.assert_allclose(forward(model, [1.0]), [np.tanh(1.0)],
                               rtol=1e-15)


def test_forward_batch_matches_single():
    rng = np.random.default_rng(42)
    model = init_mlp([6, 9, 4], seed=1)
    batch = rng.standard_normal((8, 6))
    out = forward(model, batch)
    assert out.shape == (8, 4)
    for i in range(8):
        # batched and single-row matmuls may differ in the last ulp
        np.testing.assert_allclose(out[i], forward(model, batch[i]),
                                   rtol=1e-12, atol=1e-15)


def test_forward_dimension_mismatch():
    with pytest.raises(ValueError):
        forward(init_mlp([6, 4], seed=0), np.zeros(5))


def test_gradients_hand_case():
    # loss (wx + b - t)^2 at w=b=0, x=1, t=0.5: both derivatives are -1
    grads_w, grads_b, loss = compute_gradients(_linear_unit(), [1.0], [0.5])
    assert loss == pytest.approx(0.25)
    np.testing.assert_allclose(grads_w[0], [[-1.0]])
    np.testing.assert_allclose(grads_b[0], [-1.0])


def test_gradients_zero_at_perfect_fit():
    grads_w, grads_b, loss = compute_gradients(_linear_unit(2.0, 0.0),
                                               [1.5], [3.0])
    assert loss == 0.0
    np.testing.assert_array_equal(grads_w[0], [[0.0]])
    np.testing.assert_array_equal(grads_b[0], [0.0])


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(42)
    model = init_mlp([3, 5, 2], seed=7)
    h = 1e-6
    # one vector, then a 5-row batch whose loss sums over the rows
    for x, t in [(rng.standard_normal(3), rng.standard_normal(2)),
                 (rng.standard_normal((5, 3)), rng.standard_normal((5, 2)))]:
        grads_w, grads_b, loss = compute_gradients(model, x, t)

        def loss_at(m):
            y = forward(m, x)
            return float(np.sum((y - t) ** 2))

        assert loss == pytest.approx(loss_at(model), rel=1e-14)
        for l in range(len(model.weights)):
            for idx in np.ndindex(model.weights[l].shape):
                model.weights[l][idx] += h
                up = loss_at(model)
                model.weights[l][idx] -= 2 * h
                down = loss_at(model)
                model.weights[l][idx] += h
                numeric = (up - down) / (2 * h)
                ref = max(abs(numeric), abs(grads_w[l][idx]), 1e-3)
                assert abs(grads_w[l][idx] - numeric) / ref <= 1e-4
            for u in range(len(model.biases[l])):
                model.biases[l][u] += h
                up = loss_at(model)
                model.biases[l][u] -= 2 * h
                down = loss_at(model)
                model.biases[l][u] += h
                numeric = (up - down) / (2 * h)
                ref = max(abs(numeric), abs(grads_b[l][u]), 1e-3)
                assert abs(grads_b[l][u] - numeric) / ref <= 1e-4


def test_gradients_dimension_mismatch():
    model = init_mlp([3, 2], seed=0)
    with pytest.raises(ValueError):
        compute_gradients(model, np.zeros(4), np.zeros(2))
    with pytest.raises(ValueError):
        compute_gradients(model, np.zeros(3), np.zeros(3))
    with pytest.raises(ValueError, match="empty"):
        compute_gradients(model, np.zeros((0, 3)), np.zeros((0, 2)))
    with pytest.raises(ValueError, match="3 inputs vs 2 targets"):
        compute_gradients(model, np.zeros((3, 3)), np.zeros((2, 2)))


def test_unflatten_views_the_flat_vector():
    net = init_mlp([3, 4, 2], seed=1)
    theta = _flatten(net)
    view = _unflatten(theta, net.layer_sizes)
    for w, v in zip(net.weights + net.biases, view.weights + view.biases):
        np.testing.assert_array_equal(w, v)
        assert np.shares_memory(v, theta)


def test_train_is_deterministic():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((30, 4))
    net1, rep1 = train(init_mlp([4, 6, 4], seed=2), x, 0.5 * x + 0.1, 50)
    net2, rep2 = train(init_mlp([4, 6, 4], seed=2), x, 0.5 * x + 0.1, 50)
    for w1, w2 in zip(net1.weights, net2.weights):
        np.testing.assert_array_equal(w1, w2)
    np.testing.assert_array_equal(rep1.mse_history, rep2.mse_history)


def test_train_reduces_loss():
    rng = np.random.default_rng(6)
    x = rng.standard_normal((40, 3))
    net, report = train(init_mlp([3, 8, 3], seed=3), x, 0.3 * x, 300)
    assert report.final_mse < report.mse_history[0]
    assert report.final_mse < 0.01
    assert report.final_mse == report.mse_history[-1]
    assert report.epochs_run == len(report.mse_history)


def test_train_converges_on_easy_task():
    x = np.array([[-1.0], [-0.5], [0.5], [1.0]])
    net, report = train(_linear_unit(), x, 2.0 * x, 5000)
    assert report.converged
    assert report.epochs_run < 5000
    np.testing.assert_allclose(net.weights[0], [[2.0]], atol=1e-3)


def test_train_divergence_raises_with_epoch():
    # a loss that is not finite before the first step cannot be descended
    with pytest.raises(TrainingDivergedError) as exc:
        train(_linear_unit(1e200), [[1e200], [2.0]], [[1.0], [4.0]], 2000)
    assert exc.value.epoch == 0


def test_train_mse_history_never_rises():
    rng = np.random.default_rng(8)
    for k in range(6):
        sizes = [int(s) for s in rng.integers(1, 9, size=int(rng.integers(2, 5)))]
        x = rng.standard_normal((int(rng.integers(1, 60)), sizes[0]))
        t = np.tanh(rng.standard_normal((x.shape[0], sizes[-1])))
        _, report = train(init_mlp(sizes, seed=k), x, t, 200)
        assert np.all(np.diff(report.mse_history) <= 0), sizes
        assert report.mse_history[0] <= np.mean(np.sum(
            (forward(init_mlp(sizes, seed=k), x) - t) ** 2, axis=1))


def test_train_stops_on_a_plateau():
    rng = np.random.default_rng(10)
    x = rng.standard_normal((50, 3))
    t = np.sin(x) + 0.1 * rng.standard_normal((50, 3))
    _, report = train(init_mlp([3, 6, 3], seed=1), x, t, 5000)
    assert report.converged
    assert 10 <= report.epochs_run < 5000
    losses = report.mse_history
    assert losses[-11] - losses[-1] <= 3e-3 * losses[-1]
    assert losses[-12] - losses[-2] > 3e-3 * losses[-2]


def test_train_cap_is_the_iteration_count():
    rng = np.random.default_rng(11)
    x = rng.standard_normal((50, 3))
    _, report = train(init_mlp([3, 6, 3], seed=1), x, np.sin(2.0 * x), 7)
    assert len(report.mse_history) == report.epochs_run == 7
    assert not report.converged


def test_train_leaves_argument_untouched():
    model = init_mlp([2, 3, 2], seed=4)
    before = [w.copy() for w in model.weights]
    train(model, np.zeros((1, 2)), np.ones((1, 2)), 10)
    for w, old in zip(model.weights, before):
        np.testing.assert_array_equal(w, old)


def test_train_rejects_bad_input():
    model = init_mlp([2, 2], seed=0)
    with pytest.raises(ValueError, match="empty"):
        train(model, np.zeros((0, 2)), np.zeros((0, 2)))
    with pytest.raises(ValueError, match="do not match"):
        train(model, np.zeros((1, 3)), np.zeros((1, 2)))
    with pytest.raises(ValueError, match="3 inputs vs 2 targets"):
        train(model, np.zeros((3, 2)), np.zeros((2, 2)))
    with pytest.raises(ValueError, match=r"got shapes \(2,\) and \(1, 2\)"):
        train(model, np.zeros(2), np.zeros((1, 2)))


def test_train_config_validation():
    model = init_mlp([2, 2], seed=0)
    x = np.zeros((1, 2))
    with pytest.raises(ValueError, match="max_epochs"):
        train(model, x, x, max_epochs=0)
    with pytest.raises(ValueError, match="max_epochs"):
        train(model, x, x, max_epochs=-1)
    assert train(model, x, x, max_epochs=1)[1].epochs_run <= 1


def test_model_file_round_trip(tmp_path):
    model = init_mlp([24, 50, 24], seed=42)
    path = tmp_path / "net.mlp"
    save_model(model, path)
    back = load_model(path)
    assert back.layer_sizes == [24, 50, 24]
    for w1, w2 in zip(model.weights, back.weights):
        np.testing.assert_array_equal(w1, w2)
    for b1, b2 in zip(model.biases, back.biases):
        np.testing.assert_array_equal(b1, b2)


def test_model_file_layout(tmp_path):
    model = init_mlp([2, 3, 1], seed=0)
    path = tmp_path / "net.mlp"
    save_model(model, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "VCMLP 1"
    assert lines[1] == "2 3 1"
    assert len(lines) == 2 + 3 + 1
    # each parameter line holds a bias plus fan_in weights
    assert len(lines[2].split()) == 3
    assert len(lines[5].split()) == 4


def test_load_rejects_future_version(tmp_path):
    model = init_mlp([2, 2], seed=0)
    path = tmp_path / "net.mlp"
    save_model(model, path)
    text = path.read_text().replace("VCMLP 1", "VCMLP 2", 1)
    path.write_text(text)
    with pytest.raises(ModelVersionError):
        load_model(path)


def test_load_rejects_bad_magic(tmp_path):
    path = tmp_path / "net.mlp"
    path.write_text("NOTMLP 1\n2 2\n0 1 1\n0 1 1\n")
    with pytest.raises(ModelFormatError):
        load_model(path)


def test_load_rejects_missing_lines(tmp_path):
    model = init_mlp([2, 3, 1], seed=0)
    path = tmp_path / "net.mlp"
    save_model(model, path)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:-1]) + "\n")
    with pytest.raises(ModelDimensionError):
        load_model(path)


def test_load_rejects_short_parameter_line(tmp_path):
    path = tmp_path / "net.mlp"
    path.write_text("VCMLP 1\n2 1\n0.0 1.0\n")
    with pytest.raises(ModelDimensionError):
        load_model(path)


def test_load_rejects_garbage_values(tmp_path):
    path = tmp_path / "net.mlp"
    path.write_text("VCMLP 1\n2 1\n0.0 1.0 spam\n")
    with pytest.raises(ModelFormatError):
        load_model(path)


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_load_rejects_non_finite_parameters(tmp_path, value):
    model = init_mlp([2, 3, 1], seed=0)
    path = tmp_path / "net.mlp"
    save_model(model, path)
    lines = path.read_text().splitlines()
    lines[3] = " ".join([value] + lines[3].split()[1:])  # bias of hidden unit 1
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ModelFormatError, match="line 4"):
        load_model(path)


def test_load_rejects_empty_file(tmp_path):
    path = tmp_path / "net.mlp"
    path.write_text("")
    with pytest.raises(ModelFormatError):
        load_model(path)


def test_saved_model_predicts_identically(tmp_path):
    rng = np.random.default_rng(13)
    model = init_mlp([5, 9, 5], seed=8)
    path = tmp_path / "net.mlp"
    save_model(model, path)
    back = load_model(path)
    x = rng.standard_normal((10, 5))
    np.testing.assert_array_equal(forward(model, x), forward(back, x))
