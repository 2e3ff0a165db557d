"""Phase I: randomization-based sparse feature extraction.

A frozen grouped random encoder maps inputs to codes; a FISTA-fit sparse
decoder is solved per view, and the view-optimal feature is the input
re-encoded through the fitted (transposed) decoder weights and the
encoder's original random bias, then passed through tanh.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .config import check, setting


@dataclass(frozen=True)
class RandomEncoder:
    """n groups of frozen random affine maps, output dim n*L.

    Built by ExtractionConfig.make_encoder. Group g owns the column block
    g*L:(g+1)*L of `weights` [input_dim, n*L] and of `bias` [n*L], so all
    codes come from one product. Values are drawn once, uniform on [-1, 1],
    and never mutated; the arrays are marked read-only so the reset contract
    is enforced structurally.
    """

    n: int
    L: int
    input_dim: int
    weights: np.ndarray
    bias: np.ndarray


def fista_fit(Z: np.ndarray, X: np.ndarray, lam: float, K: int) -> np.ndarray:
    """Fit decoder theta' minimizing ||Z theta' - X||_F^2 + lam * ||theta'||_1.

    Runs K iterations of {gradient step at y_k with step 1/xi, soft threshold
    with tau = lam/xi, momentum extrapolation with t_{k+1} = (1+sqrt(1+4 t_k^2))/2}
    from a zero start, where xi = 2 * lambda_max(Z^T Z) is the exact Lipschitz
    constant of the gradient. Returns the last prox iterate.

    Z may be a stack [..., N, L] of code matrices sharing one X [N, D]; each
    entry is solved on its own, with its own xi, and the result is
    [..., L, D]. The gradient step is folded once into
    y - (2/xi)(G y - Z^T X) = A y + C, with A = I - (2/xi) G and
    C = (2/xi) Z^T X, and C once into the prox bounds, as prox_tau(u + C)
    = u - clip(u, -tau - C, tau - C); the loop runs in preallocated buffers.
    """
    Z = np.ascontiguousarray(Z, dtype=np.float64)
    X = np.ascontiguousarray(X, dtype=np.float64)
    if Z.ndim < 2 or X.ndim != 2 or Z.shape[-2] != X.shape[0]:
        raise ValueError(f"row counts must match, got Z {Z.shape} and X {X.shape}")
    if Z.size == 0:
        raise ValueError("Z must be nonempty")
    if K < 1:
        raise ValueError(f"K must be >= 1, got {K}")
    if lam < 0:
        raise ValueError(f"lambda must be >= 0, got {lam}")

    Zt = np.swapaxes(Z, -1, -2)
    G = Zt @ Z
    if not np.all(np.isfinite(G)):
        raise FloatingPointError("FISTA Gram matrix is not finite")
    xi = 2.0 * np.linalg.eigvalsh(G)[..., -1]
    if not np.all(np.isfinite(xi)):  # else a step of 2 / inf = 0 leaves theta' at zero
        raise FloatingPointError("FISTA Lipschitz constant is not finite")
    dead = xi <= 0.0
    if np.any(dead):
        warnings.warn(f"all-zero code matrix in {int(np.sum(dead))} of {dead.size} "
                      "stack entries: Lipschitz constant is 0, using unit step there")
        xi = np.where(dead, 1.0, xi)
    step = (2.0 / xi)[..., None, None]
    A = np.eye(Z.shape[-1]) - step * G
    C = step * (Zt @ X)
    tau = lam / xi[..., None, None]
    lo = -tau - C
    hi = np.subtract(tau, C, out=C)
    theta = np.zeros(hi.shape)
    theta_new = np.empty_like(theta)
    y = np.zeros_like(theta)
    v = np.empty_like(theta)
    t = 1.0
    for _ in range(K):
        np.matmul(A, y, out=v)
        np.maximum(v, lo, out=theta_new)
        np.minimum(theta_new, hi, out=theta_new)
        np.subtract(v, theta_new, out=theta_new)
        t_new = (1.0 + np.sqrt(1.0 + 4.0 * t * t)) / 2.0
        np.subtract(theta_new, theta, out=y)
        y *= (t - 1.0) / t_new
        y += theta_new
        theta, theta_new, t = theta_new, theta, t_new
    # a non-finite entry never turns finite again under these updates
    if not np.all(np.isfinite(theta)):
        raise FloatingPointError(f"FISTA iterates diverged within {K} iterations")
    return theta


# Groups are solved in stacks of about this many decoder entries: each
# iterate array of a stack then takes about 256 KiB, so the four of them,
# both prox bounds and the folded step stay in cache. Stacking all 30 groups
# of a 784-wide input instead spills them and runs slower than one at a time.
_FISTA_CHUNK = 1 << 15


@dataclass(frozen=True)
class ExtractionConfig:
    """Hyper-parameters for the encoder + sparse decoder pair."""

    n: int = setting(30, ge=1)
    L: int = setting(20, ge=1)
    max_iter: int = setting(50, ge=1, le=10_000)  # FISTA runs all of them: bounds eval time
    lam: float = setting(1e-3, ge=0)

    def __post_init__(self) -> None:
        check("encoder", self)

    def make_encoder(self, input_dim: int, seed: int) -> RandomEncoder:
        """The frozen encoder for inputs of width `input_dim`, drawn from
        `seed`: per group, its weights and then its bias."""
        if input_dim < 1:
            raise ValueError(f"input_dim must be >= 1, got {input_dim}")
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        weights = np.empty((input_dim, self.n * self.L))
        bias = np.empty(self.n * self.L)
        for g in range(self.n):
            cols = slice(g * self.L, (g + 1) * self.L)
            weights[:, cols] = rng.uniform(-1.0, 1.0, size=(input_dim, self.L))
            bias[cols] = rng.uniform(-1.0, 1.0, size=self.L)
        weights.setflags(write=False)
        bias.setflags(write=False)
        return RandomEncoder(self.n, self.L, input_dim, weights, bias)


@dataclass(frozen=True)
class ViewFeature:
    """View-optimal feature matrix for one (class, view) batch."""

    features: np.ndarray
    sparsity: float

    def __post_init__(self) -> None:
        if not np.all(np.isfinite(self.features)):
            raise ValueError("view feature contains non-finite entries")


def extract_view_feature(encoder: RandomEncoder, batch, config: ExtractionConfig) -> ViewFeature:
    """Alg.-style extraction: encode, fit the sparse decoder per group,
    re-encode with theta* = theta'^T and the original random bias, then tanh.

    Groups are fit together in stacks of _FISTA_CHUNK // (L * D) (at least
    one), each stack re-encoded into its columns of the output, so no
    decoder for all n groups is held at once.

    The encoder is immutable; calling this any number of times leaves its
    stored random weights bitwise unchanged.
    """
    X = np.asarray(batch.inputs, dtype=np.float64)
    if X.shape[1] != encoder.input_dim:
        raise ValueError(
            f"batch input_dim {X.shape[1]} does not match encoder input_dim {encoder.input_dim}"
        )
    N, D = X.shape
    n, L = encoder.n, encoder.L
    # the decoder is fit against the linear codes X W_g + b_g
    codes = (X @ encoder.weights + encoder.bias).reshape(N, n, L)
    bias = encoder.bias.reshape(n, L)
    feats = np.empty((N, n, L))
    zeros = 0
    stack = max(1, _FISTA_CHUNK // (L * D))
    for g0 in range(0, n, stack):
        groups = slice(g0, g0 + stack)
        theta = fista_fit(codes[:, groups].transpose(1, 0, 2), X, config.lam, config.max_iter)
        zeros += int(np.count_nonzero(theta == 0.0))
        # theta*_g = theta'_g^T maps inputs back to this group's L nodes
        pre = X @ np.swapaxes(theta, -1, -2) + bias[groups, None, :]
        feats[:, groups] = np.tanh(pre).transpose(1, 0, 2)
    return ViewFeature(features=feats.reshape(N, n * L), sparsity=zeros / (n * L * D))
