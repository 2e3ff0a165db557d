import numpy as np
import pytest

from mvcil.sparse_features import (
    ACTIVATIONS,
    ExtractionConfig,
    RandomEncoder,
    activation_derivative,
    apply_activation,
    extract_view_feature,
    fista_fit,
    soft_threshold,
)

from mvcil_support import objective


class Batch:
    def __init__(self, inputs, class_id=0, view_id=0):
        self.inputs = inputs
        self.class_id = class_id
        self.view_id = view_id


def ista_reference(Z, X, lam, iters):
    # plain ISTA: no momentum, same prox; slow but unambiguous
    xi = 2.0 * np.linalg.eigvalsh(Z.T @ Z).max()
    theta = np.zeros((Z.shape[1], X.shape[1]))
    for _ in range(iters):
        grad = 2.0 * Z.T @ (Z @ theta - X)
        theta = soft_threshold(theta - grad / xi, lam / xi)
    return theta


def test_soft_threshold_hand_values():
    x = np.array([3.0, -3.0, 0.5, -0.5, 0.0])
    out = soft_threshold(x, 1.0)
    assert np.array_equal(out, np.array([2.0, -2.0, 0.0, 0.0, 0.0]))


def test_soft_threshold_rejects_negative_tau():
    with pytest.raises(ValueError):
        soft_threshold(np.zeros(3), -0.1)


def test_fista_first_step_uses_exact_lipschitz(rng):
    # from theta = 0 one iteration is soft_threshold(2 Z^T X / xi, lam / xi)
    # with xi = 2 * lambda_max(Z^T Z)
    for _ in range(5):
        Z = rng.standard_normal((40, 12))
        X = rng.standard_normal((40, 4))
        xi = 2.0 * np.linalg.eigvalsh(Z.T @ Z).max()
        want = soft_threshold(2.0 * (Z.T @ X) / xi, 0.5 / xi)
        assert np.allclose(fista_fit(Z, X, lam=0.5, K=1), want, rtol=1e-12, atol=1e-15)


def test_fista_lam_zero_matches_lstsq(rng):
    for _ in range(5):
        Z = rng.standard_normal((60, 8))
        X = rng.standard_normal((60, 5))
        theta = fista_fit(Z, X, lam=0.0, K=500)
        theta_ref, *_ = np.linalg.lstsq(Z, X, rcond=None)
        denom = max(1.0, np.linalg.norm(theta_ref))
        assert np.linalg.norm(theta - theta_ref) / denom < 1e-6


def test_fista_large_lam_gives_exact_zeros(rng):
    Z = rng.standard_normal((30, 6))
    X = rng.standard_normal((30, 4))
    lam = 2.0 * np.abs(2.0 * Z.T @ X).max() * 1.1
    theta = fista_fit(Z, X, lam=lam, K=50)
    assert np.count_nonzero(theta) == 0


def test_fista_endpoint_objective_decreases(rng):
    Z = rng.standard_normal((50, 10))
    X = rng.standard_normal((50, 7))
    theta = fista_fit(Z, X, lam=0.05, K=50)
    assert objective(Z, X, theta, 0.05) <= objective(Z, X, np.zeros_like(theta), 0.05)


def test_fista_matches_ista_limit(rng):
    Z = rng.standard_normal((40, 6))
    X = rng.standard_normal((40, 3))
    lam = 0.1
    theta_f = fista_fit(Z, X, lam=lam, K=400)
    theta_i = ista_reference(Z, X, lam, iters=8000)
    obj_f = objective(Z, X, theta_f, lam)
    obj_i = objective(Z, X, theta_i, lam)
    assert obj_f == pytest.approx(obj_i, rel=1e-6, abs=1e-9)


def test_fista_zero_code_matrix_warns_and_returns_zero():
    Z = np.zeros((10, 4))
    X = np.ones((10, 2))
    with pytest.warns(UserWarning):
        theta = fista_fit(Z, X, lam=0.1, K=5)
    assert theta.shape == (4, 2)
    assert np.count_nonzero(theta) == 0
    assert objective(Z, X, theta, 0.1) == pytest.approx(float(np.sum(X * X)))


def test_fista_overflow_raises_floating_point_error(rng):
    with np.errstate(over="ignore", invalid="ignore"):
        # the Gram matrix overflows to inf
        with pytest.raises(FloatingPointError):
            fista_fit(np.full((5, 3), 1e160), np.ones((5, 2)), lam=0.1, K=5)
        # finite Gram matrix, but Z^T X and the iterates overflow
        with pytest.raises(FloatingPointError):
            fista_fit(rng.standard_normal((5, 3)), np.full((5, 2), 1e308), lam=0.1, K=5)


def test_fista_validates_shapes(rng):
    with pytest.raises(ValueError):
        fista_fit(rng.standard_normal((5, 3)), rng.standard_normal((6, 2)), 0.1, 5)
    with pytest.raises(ValueError):
        fista_fit(rng.standard_normal((5, 3)), rng.standard_normal((5, 2)), 0.1, 0)
    with pytest.raises(ValueError):
        fista_fit(rng.standard_normal((5, 3)), rng.standard_normal((5, 2)), -0.1, 5)
    with pytest.raises(ValueError, match="nonempty"):
        fista_fit(np.zeros((5, 0)), rng.standard_normal((5, 2)), 0.1, 5)


def test_activation_derivatives_match_finite_differences(rng):
    x = rng.uniform(-2.0, 2.0, size=(4, 5))
    eps = 1e-6
    for name in ACTIVATIONS:
        out = apply_activation(name, x)
        deriv = activation_derivative(name, x, out)
        fd = (apply_activation(name, x + eps) - apply_activation(name, x - eps)) / (2 * eps)
        assert np.allclose(deriv, fd, atol=1e-8)


def test_unknown_activation_rejected():
    with pytest.raises(ValueError):
        apply_activation("relu", np.zeros(3))
    with pytest.raises(ValueError):
        activation_derivative("relu", np.zeros(3), np.zeros(3))


def test_encoder_seeded_and_frozen():
    a = RandomEncoder.create(12, n=3, L=4, seed=7)
    b = RandomEncoder.create(12, n=3, L=4, seed=7)
    c = RandomEncoder.create(12, n=3, L=4, seed=8)
    for wa, wb in zip(a.weights, b.weights):
        assert np.array_equal(wa, wb)
    assert not np.array_equal(a.weights[0], c.weights[0])
    with pytest.raises(ValueError):
        a.weights[0][0, 0] = 1.0


def test_encoder_shape_and_range():
    enc = RandomEncoder.create(6, n=2, L=5, seed=0)
    assert enc.n * enc.L == 10
    assert [w.shape for w in enc.weights] == [(6, 5)] * 2
    assert [b.shape for b in enc.biases] == [(5,)] * 2
    assert np.all(np.abs(enc.weights[0]) <= 1.0)


def test_extract_view_feature_contract(rng):
    enc = RandomEncoder.create(9, n=2, L=4, activation="tanh", seed=3)
    cfg = ExtractionConfig(lam=1e-3, max_iter=30)
    X = rng.uniform(0, 1, size=(25, 9))
    before = [w.copy() for w in enc.weights]
    vf = extract_view_feature(enc, Batch(X, class_id=2, view_id=1), cfg)
    assert vf.features.shape == (25, 8)
    assert 0.0 <= vf.sparsity <= 1.0
    assert vf.class_id == 2 and vf.view_id == 1
    assert np.all(np.abs(vf.features) <= 1.0)  # tanh range
    for w, w0 in zip(enc.weights, before):
        assert np.array_equal(w, w0)
    with pytest.raises(ValueError, match="input_dim"):
        extract_view_feature(enc, Batch(X[:, :5]), cfg)


def test_extract_fits_decoder_on_linear_codes(rng):
    # oracle: per group, FISTA on the linear codes X W_g + b_g, then
    # re-encode through the transposed decoder with the encoder's activation
    enc = RandomEncoder.create(7, n=2, L=3, activation="sigmoid", seed=5)
    cfg = ExtractionConfig(lam=1e-2, max_iter=20)
    X = rng.uniform(0, 1, size=(15, 7))
    want = [apply_activation("sigmoid", X @ fista_fit(X @ w + b, X, cfg.lam, cfg.max_iter).T + b)
            for w, b in zip(enc.weights, enc.biases)]
    vf = extract_view_feature(enc, Batch(X), cfg)
    assert np.array_equal(vf.features, np.concatenate(want, axis=1))


def test_extract_sparsity_increases_with_lam(rng):
    enc = RandomEncoder.create(9, n=2, L=6, seed=3)
    X = rng.uniform(0, 1, size=(30, 9))
    lo = extract_view_feature(enc, Batch(X), ExtractionConfig(lam=1e-4, max_iter=40))
    hi = extract_view_feature(enc, Batch(X), ExtractionConfig(lam=1.0, max_iter=40))
    assert hi.sparsity >= lo.sparsity


def test_extraction_config_validation():
    with pytest.raises(ValueError):
        ExtractionConfig(n=0)
    with pytest.raises(ValueError):
        ExtractionConfig(lam=-1.0)
    with pytest.raises(ValueError):
        ExtractionConfig(max_iter=0)
    with pytest.raises(ValueError):
        ExtractionConfig(activation="step")
    cfg = ExtractionConfig()
    assert cfg.make_encoder(10, seed=1).input_dim == 10

