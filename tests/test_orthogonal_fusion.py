import numpy as np
import pytest

from mvcil import orthogonal_fusion
from mvcil.orthogonal_fusion import FusionLayer, Projector


def projector_direct(Z: np.ndarray, alpha: float, d: int | None = None) -> np.ndarray:
    """Reference form: I - Z~ (Z~^T Z~ + alpha I)^-1 Z~^T with Z~ = Z^T.

    Z holds absorbed features as rows [m x d]. Dense solve; empty Z returns
    the identity.
    """
    if alpha <= 0:
        raise ValueError(f"alpha must be > 0, got {alpha}")
    Z = np.asarray(Z, dtype=np.float64)
    if Z.size == 0:
        if d is None:
            d = Z.shape[1] if Z.ndim == 2 else 0
        if d < 1:
            raise ValueError("empty Z requires an explicit dimension d")
        return np.eye(d)
    m, dim = Z.shape
    gram = Z @ Z.T + alpha * np.eye(m)
    return np.eye(dim) - Z.T @ np.linalg.solve(gram, Z)


def test_direct_empty_is_identity():
    P = projector_direct(np.zeros((0, 4)), alpha=1.0, d=4)
    assert np.array_equal(P, np.eye(4))
    with pytest.raises(ValueError):
        projector_direct(np.zeros((0, 0)), alpha=1.0)


def test_direct_rejects_bad_alpha(rng):
    with pytest.raises(ValueError):
        projector_direct(rng.standard_normal((3, 4)), alpha=0.0)


def test_recursive_matches_direct_over_instances(rng):
    # the recursive update must agree with the dense reference form
    for trial in range(20):
        d = int(rng.integers(2, 24))
        m = int(rng.integers(1, 40))
        alpha = float(rng.choice([0.1, 1.0, 10.0]))
        Z = rng.standard_normal((m, d))
        proj = Projector(d, alpha)
        proj.absorb(Z)
        ref = projector_direct(Z, alpha)
        rel = np.linalg.norm(proj.P - ref) / np.linalg.norm(ref)
        assert rel < 1e-6, f"trial {trial}: rel error {rel}"


def test_block_equals_rank_one_sequence(rng, monkeypatch):
    d = 10
    Z = rng.standard_normal((23, d))
    one = Projector(d, alpha=0.5)
    ref = np.eye(d)
    for row in Z:
        one.absorb(row)
        # rank-1 rule: P <- P - (P z z^T P) / (alpha + z^T P z)
        k = ref @ row
        ref = ref - np.outer(k, k) / (0.5 + row @ k)
    block = Projector(d, alpha=0.5)
    monkeypatch.setattr(orthogonal_fusion, "_ABSORB_CHUNK", 7)
    block.absorb(Z)
    assert np.allclose(one.P, ref, atol=1e-10)
    assert np.allclose(one.P, block.P, atol=1e-10)


def test_in_place_absorb_matches_out_of_place_form(rng, monkeypatch):
    # the update runs in place through the Cholesky factor; it must equal
    # the plain formula bit for bit, across several chunks, leave P exactly
    # symmetric with no symmetrize pass, and agree with the general-solve
    # form of the same update
    d, chunk = 9, 4
    monkeypatch.setattr(orthogonal_fusion, "_ABSORB_CHUNK", chunk)
    proj = Projector(d, alpha=0.7)
    ref = np.eye(d)
    solved = np.eye(d)
    for _ in range(3):
        Z = rng.standard_normal((11, d))
        proj.absorb(Z)
        for start in range(0, Z.shape[0], chunk):
            zb = Z[start : start + chunk]
            kb = zb @ ref
            gram = 0.7 * np.eye(zb.shape[0]) + kb @ zb.T
            m = np.linalg.inv(np.linalg.cholesky(gram)) @ kb
            ref = ref - m.T @ m
            kb = zb @ solved
            gram = 0.7 * np.eye(zb.shape[0]) + kb @ zb.T
            solved = solved - kb.T @ np.linalg.solve(gram, kb)
        solved = (solved + solved.T) / 2.0
        assert np.array_equal(proj.P, ref)
        assert np.array_equal(proj.P, proj.P.T)
        np.testing.assert_allclose(proj.P, solved, rtol=1e-12, atol=1e-12)


def test_projector_symmetric_and_contractive(rng):
    d = 8
    proj = Projector(d, alpha=1.0)
    proj.absorb(rng.standard_normal((15, d)))
    assert np.array_equal(proj.P, proj.P.T)
    eigs = np.linalg.eigvalsh(proj.P)
    assert eigs.min() > -1e-12
    assert eigs.max() <= 1.0 + 1e-12


def test_absorbed_direction_suppressed(rng):
    d = 6
    proj = Projector(d, alpha=1e-4)
    z = rng.standard_normal(d)
    for _ in range(50):
        proj.absorb(z)
    # P z ~ 0: updates along z are blocked
    assert np.linalg.norm(proj.P @ z) < 1e-4 * np.linalg.norm(z)
    # orthogonal directions pass through
    q = rng.standard_normal(d)
    q -= (q @ z) / (z @ z) * z
    assert np.linalg.norm(proj.P @ q) > 0.9 * np.linalg.norm(q)


def test_alpha_monotonicity_of_suppression(rng):
    # larger alpha biases P toward identity (more plasticity)
    d = 12
    Z = rng.standard_normal((30, d))
    traces = []
    for alpha in (0.1, 1.0, 10.0, 100.0):
        p = Projector(d, alpha)
        p.absorb(Z)
        traces.append(np.trace(p.P))
    assert all(a < b for a, b in zip(traces, traces[1:]))


def test_projector_validation(rng):
    with pytest.raises(ValueError):
        Projector(0, 1.0)
    with pytest.raises(ValueError):
        Projector(3, 0.0)
    proj = Projector(3, 1.0)
    for wrong in (np.ones(4), np.ones((2, 4)), np.ones((1, 1, 3))):
        with pytest.raises(ValueError, match="expected features of dim 3"):
            proj.absorb(wrong)
    with pytest.raises(ValueError):
        proj.absorb(np.array([np.nan, 0.0, 0.0]))


def test_degenerate_absorb_raises(rng):
    # a row whose denominator alpha + z^T P z is not positive
    proj = Projector(3, alpha=1.0)
    proj.P = -np.eye(3)
    with pytest.raises(FloatingPointError):
        proj.absorb(np.ones(3))
    # a block whose Gram matrix overflows
    proj = Projector(3, alpha=1.0)
    with np.errstate(over="ignore"), pytest.raises(FloatingPointError):
        proj.absorb(np.full((2, 3), 1e200))


def test_fusion_layer_seeded_init_and_forward(rng):
    a = FusionLayer(7, 4, seed=11)
    b = FusionLayer(7, 4, seed=11)
    c = FusionLayer(7, 4, seed=12)
    assert np.array_equal(a.weights, b.weights)
    assert not np.array_equal(a.weights, c.weights)
    assert np.array_equal(a.bias, np.zeros(4))
    X = rng.standard_normal((9, 7))
    out = a.forward(X)
    assert out.shape == (9, 4)
    assert np.allclose(out, np.tanh(X @ a.weights))
    with pytest.raises(ValueError, match="7 columns"):
        a.forward(X[:, :5])
    with pytest.raises(ValueError, match="layer dims must be >= 1, got 7, 0"):
        FusionLayer(7, 0)
    with pytest.raises(ValueError, match="layer dims must be >= 1, got 0, 4"):
        FusionLayer(0, 4)
    # one unit in and out is the narrowest layer
    one = FusionLayer(1, 1, seed=11)
    assert np.allclose(one.forward(X[:, :1]), np.tanh(X[:, :1] @ one.weights))
    with pytest.raises(ValueError, match="eta must be > 0, got 0"):
        FusionLayer(7, 4, eta=0)


def test_activation_derivatives_match_finite_differences(rng):
    # forward_with_grad's derivative against central differences of forward
    # in the bias: out[:, j] depends on bias[j] alone
    layer = FusionLayer(5, 4, seed=2)
    layer.bias = rng.uniform(-1.0, 1.0, size=4)
    Z = rng.uniform(-2.0, 2.0, size=(6, 5))
    out, dact = layer.forward_with_grad(Z)
    assert np.array_equal(out, layer.forward(Z))
    eps = 1e-6
    b0 = layer.bias
    layer.bias = b0 + eps
    up = layer.forward(Z)
    layer.bias = b0 - eps
    down = layer.forward(Z)
    assert np.allclose(dact, (up - down) / (2 * eps), atol=1e-8)


def test_learning_without_interference(rng):
    # after absorbing a batch, steps along (Z_new P)^T da, the direction the
    # trainer builds, leave the absorbed batch's outputs unchanged
    d_in, d_out = 10, 3
    layer = FusionLayer(d_in, d_out, eta=0.1, alpha=1e-6, seed=5)
    Z_old = rng.standard_normal((4, d_in))  # rank 4 of 10: room to keep learning
    layer.projector.absorb(Z_old)
    out_before = layer.forward(Z_old)
    W0 = layer.weights.copy()
    Z_p = rng.standard_normal((6, d_in)) @ layer.projector.P
    for _ in range(10):
        layer.orthogonal_step(Z_p.T @ rng.standard_normal((6, d_out)), np.zeros(d_out))
    out_after = layer.forward(Z_old)
    assert np.allclose(out_before, out_after, atol=1e-3)
    # the weights still moved: plasticity survives outside the absorbed span
    assert np.linalg.norm(layer.weights - W0) > 1e-3


def test_unprojected_step_is_plain_descent(rng):
    # the layer steps along the direction it is given, whatever P holds:
    # projecting is the caller's job
    layer = FusionLayer(4, 2, eta=0.5, alpha=1e-6, seed=1)
    layer.projector.absorb(rng.standard_normal((3, 4)))
    W0 = layer.weights.copy()
    g = rng.standard_normal((4, 2))
    layer.orthogonal_step(g, np.zeros(2))
    assert np.array_equal(layer.weights, W0 - 0.5 * g)


def test_fresh_projector_step_reduces_to_plain(rng):
    layer = FusionLayer(4, 2, eta=0.2, seed=1)
    W0 = layer.weights.copy()
    g = rng.standard_normal((4, 2))
    layer.orthogonal_step(g, np.zeros(2))  # P = I
    assert np.array_equal(layer.weights, W0 - 0.2 * g)


def test_bias_updates_unprojected(rng):
    layer = FusionLayer(4, 2, eta=0.1, alpha=1e-6, seed=1)
    layer.projector.absorb(rng.standard_normal((30, 4)))
    b0 = layer.bias.copy()
    gb = np.array([1.0, -2.0])
    layer.orthogonal_step(np.zeros((4, 2)), gb)
    assert np.allclose(layer.bias, b0 - 0.1 * gb)


def test_step_validates_gradients(rng):
    layer = FusionLayer(3, 2, seed=0)
    layer.bias = rng.standard_normal(2)
    W0, b0 = layer.weights.copy(), layer.bias.copy()
    good_w = rng.standard_normal((3, 2))
    rejected = [
        (ValueError, np.zeros((2, 2)), np.zeros(2)),
        (FloatingPointError, np.full((3, 2), np.nan), np.zeros(2)),
        (ValueError, good_w, np.ones((2, 1))),
        (ValueError, good_w, np.ones(1)),
        (FloatingPointError, good_w, np.array([np.inf, 0.0])),
    ]
    for error, direction, grad_b in rejected:
        with pytest.raises(error):
            layer.orthogonal_step(direction, grad_b)
        # a rejected step changes nothing, not even the weights when only
        # the bias gradient is bad
        assert np.array_equal(layer.weights, W0)
        assert np.array_equal(layer.bias, b0)
    # the steps run in place but never write to the caller's arrays
    direction, grad_b = good_w.copy(), rng.standard_normal(2)
    d0, g0 = direction.copy(), grad_b.copy()
    layer.orthogonal_step(direction, grad_b)
    assert np.array_equal(direction, d0)
    assert np.array_equal(grad_b, g0)
    assert np.array_equal(layer.weights, W0 - layer.eta * d0)
    assert np.array_equal(layer.bias, b0 - layer.eta * g0)
