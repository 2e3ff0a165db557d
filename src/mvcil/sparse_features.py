"""Phase I: randomization-based sparse feature extraction.

A frozen grouped random encoder maps inputs to codes; a FISTA-fit sparse
decoder is solved per view, and the view-optimal feature is the input
re-encoded through the fitted (transposed) decoder weights with the
encoder's activation and original random bias.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

ACTIVATIONS = ("linear", "tanh", "sigmoid")


def apply_activation(name: str, x: np.ndarray) -> np.ndarray:
    if name == "linear":
        return x
    if name == "tanh":
        return np.tanh(x)
    if name == "sigmoid":
        return 1.0 / (1.0 + np.exp(-x))
    raise ValueError(f"unknown activation {name!r}; expected one of {ACTIVATIONS}")


def activation_derivative(name: str, preact: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Derivative of the activation w.r.t. its preactivation.

    `out` is the already-computed activation output, reused so tanh/sigmoid
    derivatives cost one elementwise expression.
    """
    if name == "linear":
        return np.ones_like(preact)
    if name == "tanh":
        return 1.0 - out * out
    if name == "sigmoid":
        return out * (1.0 - out)
    raise ValueError(f"unknown activation {name!r}; expected one of {ACTIVATIONS}")


@dataclass(frozen=True)
class RandomEncoder:
    """n groups of frozen random affine maps, output dim n*L.

    Weights are drawn once, uniform on [-1, 1], and never mutated; arrays are
    marked read-only so the reset contract is enforced structurally.
    """

    n: int
    L: int
    input_dim: int
    activation: str
    seed: int
    weights: tuple[np.ndarray, ...]
    biases: tuple[np.ndarray, ...]

    @classmethod
    def create(
        cls,
        input_dim: int,
        n: int = 30,
        L: int = 20,
        activation: str = "tanh",
        seed: int = 0,
    ) -> "RandomEncoder":
        if n < 1 or L < 1 or input_dim < 1:
            raise ValueError(f"n, L, input_dim must be >= 1, got {n}, {L}, {input_dim}")
        if activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {activation!r}; expected one of {ACTIVATIONS}")
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        ws, bs = [], []
        for _ in range(n):
            w = rng.uniform(-1.0, 1.0, size=(input_dim, L))
            b = rng.uniform(-1.0, 1.0, size=L)
            w.setflags(write=False)
            b.setflags(write=False)
            ws.append(w)
            bs.append(b)
        return cls(n, L, input_dim, activation, seed, tuple(ws), tuple(bs))


def soft_threshold(x: np.ndarray, tau: float) -> np.ndarray:
    """Elementwise sign(x) * max(|x| - tau, 0)."""
    if tau < 0:
        raise ValueError(f"tau must be >= 0, got {tau}")
    x = np.asarray(x, dtype=np.float64)
    return np.sign(x) * np.maximum(np.abs(x) - tau, 0.0)


def fista_fit(Z: np.ndarray, X: np.ndarray, lam: float, K: int) -> np.ndarray:
    """Fit decoder theta' minimizing ||Z theta' - X||_F^2 + lam * ||theta'||_1.

    Runs K iterations of {gradient step at y_k with step 1/xi, soft threshold
    with tau = lam/xi, momentum extrapolation with t_{k+1} = (1+sqrt(1+4 t_k^2))/2}
    from a zero start, where xi = 2 * lambda_max(Z^T Z) is the exact Lipschitz
    constant of the gradient. Returns the last prox iterate.
    """
    Z = np.asarray(Z, dtype=np.float64)
    X = np.asarray(X, dtype=np.float64)
    if Z.ndim != 2 or X.ndim != 2 or Z.shape[0] != X.shape[0]:
        raise ValueError(f"row counts must match, got Z {Z.shape} and X {X.shape}")
    if Z.size == 0:
        raise ValueError("Z must be nonempty")
    if K < 1:
        raise ValueError(f"K must be >= 1, got {K}")
    if lam < 0:
        raise ValueError(f"lambda must be >= 0, got {lam}")

    G = Z.T @ Z
    if not np.all(np.isfinite(G)):
        raise FloatingPointError("FISTA Gram matrix is not finite")
    B = Z.T @ X
    xi = 2.0 * float(np.linalg.eigvalsh(G)[-1])
    if xi <= 0.0:
        warnings.warn("all-zero code matrix: Lipschitz constant is 0, using unit step")
        xi = 1.0
    theta = np.zeros((Z.shape[1], X.shape[1]))
    y = theta
    t = 1.0
    for _ in range(K):
        grad = 2.0 * (G @ y - B)
        theta_new = soft_threshold(y - grad / xi, lam / xi)
        t_new = (1.0 + np.sqrt(1.0 + 4.0 * t * t)) / 2.0
        y = theta_new + ((t - 1.0) / t_new) * (theta_new - theta)
        theta, t = theta_new, t_new
    # a non-finite entry never turns finite again under these updates
    if not np.all(np.isfinite(theta)):
        raise FloatingPointError(f"FISTA iterates diverged within {K} iterations")
    return theta


@dataclass(frozen=True)
class ExtractionConfig:
    """Hyper-parameters for the encoder + sparse decoder pair."""

    n: int = 30
    L: int = 20
    max_iter: int = 50
    lam: float = 1e-3
    activation: str = "tanh"

    def __post_init__(self) -> None:
        if self.n < 1 or self.L < 1:
            raise ValueError(f"n and L must be >= 1, got {self.n}, {self.L}")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be >= 1, got {self.max_iter}")
        if self.lam < 0:
            raise ValueError(f"lambda must be >= 0, got {self.lam}")
        if self.activation not in ACTIVATIONS:
            raise ValueError(
                f"unknown activation {self.activation!r}; expected one of {ACTIVATIONS}"
            )

    def make_encoder(self, input_dim: int, seed: int) -> "RandomEncoder":
        return RandomEncoder.create(
            input_dim, n=self.n, L=self.L, activation=self.activation, seed=seed
        )


@dataclass(frozen=True)
class ViewFeature:
    """View-optimal feature matrix for one (class, view) batch."""

    features: np.ndarray
    class_id: int
    view_id: int
    sparsity: float

    def __post_init__(self) -> None:
        if not np.all(np.isfinite(self.features)):
            raise ValueError("view feature contains non-finite entries")


def extract_view_feature(encoder: RandomEncoder, batch, config: ExtractionConfig) -> ViewFeature:
    """Alg.-style extraction: encode, fit the sparse decoder per group,
    re-encode with theta* = theta'^T and the original random bias.

    The encoder is immutable; calling this any number of times leaves its
    stored random weights bitwise unchanged.
    """
    X = np.asarray(batch.inputs, dtype=np.float64)
    if X.shape[1] != encoder.input_dim:
        raise ValueError(
            f"batch input_dim {X.shape[1]} does not match encoder input_dim {encoder.input_dim}"
        )
    blocks = []
    zeros = 0
    total = 0
    for w, b in zip(encoder.weights, encoder.biases):
        # the decoder is fit against the linear codes X W_g + b_g
        theta_g = fista_fit(X @ w + b, X, config.lam, config.max_iter)
        zeros += int(np.count_nonzero(theta_g == 0.0))
        total += theta_g.size
        # theta*_g = theta'_g^T maps inputs back to this group's L nodes
        blocks.append(apply_activation(encoder.activation, X @ theta_g.T + b))
    feats = np.concatenate(blocks, axis=1)
    return ViewFeature(
        features=feats,
        class_id=int(batch.class_id),
        view_id=int(batch.view_id),
        sparsity=zeros / total,
    )
