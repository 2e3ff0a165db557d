import re

import numpy as np
import pytest

from mvcil import sparse_features
from mvcil.sparse_features import (
    ExtractionConfig,
    ViewFeature,
    extract_view_feature,
    fista_fit,
)

from mvcil_support import objective, soft_threshold


class Batch:
    def __init__(self, inputs):
        self.inputs = inputs


def ista_reference(Z, X, lam, iters):
    # plain ISTA: no momentum, same prox; slow but unambiguous
    xi = 2.0 * np.linalg.eigvalsh(Z.T @ Z).max()
    theta = np.zeros((Z.shape[1], X.shape[1]))
    for _ in range(iters):
        grad = 2.0 * Z.T @ (Z @ theta - X)
        theta = soft_threshold(theta - grad / xi, lam / xi)
    return theta


def test_fista_first_step_uses_exact_lipschitz(rng):
    # from theta = 0 one iteration is soft_threshold(2 Z^T X / xi, lam / xi)
    # with xi = 2 * lambda_max(Z^T Z)
    for _ in range(5):
        Z = rng.standard_normal((40, 12))
        X = rng.standard_normal((40, 4))
        xi = 2.0 * np.linalg.eigvalsh(Z.T @ Z).max()
        want = soft_threshold(2.0 * (Z.T @ X) / xi, 0.5 / xi)
        assert np.allclose(fista_fit(Z, X, lam=0.5, K=1), want, rtol=1e-12, atol=1e-15)


def fista_per_iteration_reference(Z, X, lam, K):
    # the loop with the step's constant added at every iteration and the
    # sign-form prox, one tau per stack entry
    G = np.swapaxes(Z, -1, -2) @ Z
    xi = 2.0 * np.linalg.eigvalsh(G)[..., -1]
    step = (2.0 / xi)[..., None, None]
    A = np.eye(Z.shape[-1]) - step * G
    C = step * (np.swapaxes(Z, -1, -2) @ X)
    tau = lam / xi[..., None, None]
    theta = y = np.zeros(C.shape)
    t = 1.0
    for _ in range(K):
        theta_new = soft_threshold(A @ y + C, tau)
        t_new = (1.0 + np.sqrt(1.0 + 4.0 * t * t)) / 2.0
        y = theta_new + (t - 1.0) / t_new * (theta_new - theta)
        theta, t = theta_new, t_new
    return theta


@pytest.mark.parametrize("groups, dim", [(2, 784), (30, 32)])
def test_fista_matches_per_iteration_reference(rng, groups, dim):
    # folding the step's constant into the prox bounds only reorders float
    # operations, so theta agrees to 1e-12 of its largest entry (an entry
    # near zero carries the rounding of the larger terms it cancels); a
    # large lam runs the prox's dead zone on many entries
    Z = rng.uniform(-1.0, 1.0, size=(groups, 64, 20))
    X = rng.uniform(0.0, 1.0, size=(64, dim))
    for lam in (1e-3, 5.0):
        got = fista_fit(Z, X, lam=lam, K=50)
        want = fista_per_iteration_reference(Z, X, lam, 50)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
        if lam == 5.0:
            assert np.count_nonzero(want == 0.0) > want.size // 4
            assert np.array_equal(got == 0.0, want == 0.0)


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
        # finite Gram matrix, but twice its largest eigenvalue is not: the
        # step 2 / inf = 0 would leave the decoder at zero and the run go on
        with pytest.raises(FloatingPointError, match="Lipschitz"):
            fista_fit(np.array([[1e154, 0.0], [0.0, 1.0]]), np.ones((2, 1)), lam=0.1, K=5)


def test_fista_validates_shapes(rng):
    with pytest.raises(ValueError):
        fista_fit(rng.standard_normal((5, 3)), rng.standard_normal((6, 2)), 0.1, 5)
    with pytest.raises(ValueError):
        fista_fit(rng.standard_normal((5, 3)), rng.standard_normal((5, 2)), 0.1, 0)
    with pytest.raises(ValueError):
        fista_fit(rng.standard_normal((5, 3)), rng.standard_normal((5, 2)), -0.1, 5)
    with pytest.raises(ValueError, match="nonempty"):
        fista_fit(np.zeros((5, 0)), rng.standard_normal((5, 2)), 0.1, 5)
    # each malformed operand alone is refused by the one shape check
    for z_shape, x_shape in (((5,), (5, 2)), ((5, 3), (5,)), ((5, 3), (6, 2))):
        with pytest.raises(ValueError, match=re.escape(
                f"row counts must match, got Z {z_shape} and X {x_shape}")):
            fista_fit(np.ones(z_shape), np.ones(x_shape), 0.1, 5)


@pytest.mark.parametrize("dim", [784, 32])
def test_fista_stack_equals_per_slice_solves(rng, dim):
    # a stack of code matrices sharing one X solves each entry on its own,
    # bit for bit, at the benchmark's widest and narrowest input widths
    Z = rng.standard_normal((3, 64, 20))
    X = rng.uniform(0, 1, size=(64, dim))
    stacked = fista_fit(Z, X, lam=1e-3, K=30)
    assert stacked.shape == (3, 20, dim)
    for g in range(3):
        assert np.array_equal(stacked[g], fista_fit(Z[g], X, lam=1e-3, K=30))


def test_fista_zero_group_takes_unit_step_alone(rng):
    Z = rng.standard_normal((3, 20, 5))
    Z[1] = 0.0
    X = rng.standard_normal((20, 4))
    with pytest.warns(UserWarning, match="1 of 3"):
        theta = fista_fit(Z, X, lam=0.1, K=10)
    # unit step on a zero Gram matrix and zero Z^T X: the iterates stay zero
    assert np.count_nonzero(theta[1]) == 0
    for g in (0, 2):
        assert np.array_equal(theta[g], fista_fit(Z[g], X, lam=0.1, K=10))


def test_encoder_seeded_and_frozen():
    a = ExtractionConfig(n=3, L=4).make_encoder(12, seed=7)
    b = ExtractionConfig(n=3, L=4).make_encoder(12, seed=7)
    c = ExtractionConfig(n=3, L=4).make_encoder(12, seed=8)
    assert np.array_equal(a.weights, b.weights)
    assert np.array_equal(a.bias, b.bias)
    assert not np.array_equal(a.weights, c.weights)
    # checkpoints regenerate encoders, so the draw order is part of the
    # format: per group, its column block of weights and then of bias
    rng = np.random.default_rng(np.random.SeedSequence(7))
    for g in range(3):
        cols = slice(4 * g, 4 * g + 4)
        assert np.array_equal(a.weights[:, cols], rng.uniform(-1.0, 1.0, size=(12, 4)))
        assert np.array_equal(a.bias[cols], rng.uniform(-1.0, 1.0, size=4))
    with pytest.raises(ValueError):
        a.weights[0, 0] = 1.0
    with pytest.raises(ValueError):
        a.bias[0] = 1.0


def test_encoder_shape_and_range():
    enc = ExtractionConfig(n=2, L=5).make_encoder(6, seed=0)
    assert enc.n * enc.L == 10
    assert enc.weights.shape == (6, 10)
    assert enc.bias.shape == (10,)
    assert np.all(np.abs(enc.weights) <= 1.0)
    assert np.all(np.abs(enc.bias) <= 1.0)
    with pytest.raises(ValueError, match="^input_dim must be >= 1, got 0$"):
        ExtractionConfig().make_encoder(0, seed=0)
    assert ExtractionConfig(n=1, L=2).make_encoder(1, seed=0).weights.shape == (1, 2)


def test_extract_view_feature_contract(rng):
    enc = ExtractionConfig(n=2, L=4).make_encoder(9, seed=3)
    cfg = ExtractionConfig(lam=1e-3, max_iter=30)
    X = rng.uniform(0, 1, size=(25, 9))
    before = enc.weights.copy(), enc.bias.copy()
    vf = extract_view_feature(enc, Batch(X), cfg)
    assert vf.features.shape == (25, 8)
    assert 0.0 <= vf.sparsity <= 1.0
    assert np.all(np.abs(vf.features) <= 1.0)  # tanh range
    assert np.array_equal(enc.weights, before[0])
    assert np.array_equal(enc.bias, before[1])
    with pytest.raises(ValueError, match="input_dim"):
        extract_view_feature(enc, Batch(X[:, :5]), cfg)


def test_extract_fits_decoder_on_linear_codes(rng):
    # oracle: per group, FISTA on the linear codes X W_g + b_g, then
    # re-encode through the transposed decoder and the bias, then tanh.
    # The codes are column blocks of one X W + b product: a separate
    # narrow product X W_g may differ from it in the last bit. The 7-wide
    # encoder is one stack; the 784-wide one a stack of 2 groups, then 1.
    assert sparse_features._FISTA_CHUNK // (20 * 784) == 2
    cfg = ExtractionConfig(lam=1e-2, max_iter=20)
    for n, L, dim in ((2, 3, 7), (3, 20, 784)):
        enc = ExtractionConfig(n=n, L=L).make_encoder(dim, seed=5)
        X = rng.uniform(0, 1, size=(15, dim))
        codes = X @ enc.weights + enc.bias
        want = []
        for g in range(n):
            cols = slice(g * L, (g + 1) * L)
            theta = fista_fit(codes[:, cols], X, cfg.lam, cfg.max_iter)
            want.append(np.tanh(X @ theta.T + enc.bias[cols]))
        vf = extract_view_feature(enc, Batch(X), cfg)
        assert np.array_equal(vf.features, np.concatenate(want, axis=1))


def test_extract_sparsity_increases_with_lam(rng):
    enc = ExtractionConfig(n=2, L=6).make_encoder(9, seed=3)
    X = rng.uniform(0, 1, size=(30, 9))
    lo = extract_view_feature(enc, Batch(X), ExtractionConfig(lam=1e-4, max_iter=40))
    hi = extract_view_feature(enc, Batch(X), ExtractionConfig(lam=1.0, max_iter=40))
    assert hi.sparsity >= lo.sparsity


def test_sparsity_is_the_share_of_exact_zero_decoder_entries(rng):
    n, L, dim = 3, 4, 9
    enc = ExtractionConfig(n=n, L=L).make_encoder(dim, seed=3)
    X = rng.uniform(0, 1, size=(20, dim))
    codes = X @ enc.weights + enc.bias
    shares = []
    for lam in (0.0, 0.5, 1e6):
        zeros = sum(int(np.count_nonzero(fista_fit(codes[:, g * L:(g + 1) * L], X, lam, 20) == 0))
                    for g in range(n))
        vf = extract_view_feature(enc, Batch(X), ExtractionConfig(lam=lam, max_iter=20))
        assert vf.sparsity == zeros / (n * L * dim)
        shares.append(vf.sparsity)
    assert shares[0] == 0.0 and 0.0 < shares[1] < 1.0 and shares[2] == 1.0


def test_view_feature_refuses_a_non_finite_entry():
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="^view feature contains non-finite entries$"):
            ViewFeature(np.array([[0.5, bad]]), 0.0)


def test_extraction_config_validation():
    with pytest.raises(ValueError):
        ExtractionConfig(n=0)
    with pytest.raises(ValueError):
        ExtractionConfig(lam=-1.0)
    with pytest.raises(ValueError):
        ExtractionConfig(max_iter=0)
    cfg = ExtractionConfig()
    assert cfg.make_encoder(10, seed=1).input_dim == 10
    # the documented minimums: one group and one FISTA iteration extract a feature
    cfg = ExtractionConfig(n=1, max_iter=1)
    X = np.random.default_rng(0).uniform(0, 1, (3, 4))
    feats = extract_view_feature(cfg.make_encoder(4, seed=0), Batch(X), cfg).features
    assert feats.shape == (3, 20)

