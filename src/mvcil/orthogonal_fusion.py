"""Phase II: orthogonal-projection fusion.

A running d x d projector P tracks the subspace spanned by all previously
absorbed view features; fusion-layer weights are updated only along P's
range, so new sessions do not interfere with directions already in use.
P is maintained by recursive least-squares block updates (a single row is a
block of one), never by storing past features.
"""

from __future__ import annotations

import numpy as np

from .sparse_features import ACTIVATIONS, activation_derivative, apply_activation


class Projector:
    """Orthogonal projector maintained recursively; fresh state is I."""

    def __init__(self, dim: int, alpha: float = 1.0):
        if dim < 1:
            raise ValueError(f"dim must be >= 1, got {dim}")
        if alpha <= 0:
            raise ValueError(f"alpha must be > 0, got {alpha}")
        self.dim = dim
        self.alpha = float(alpha)
        self.P = np.eye(dim)

    def absorb(self, z: np.ndarray, chunk_size: int = 256) -> None:
        """Absorb one feature vector or a mini-batch of rows.

        The block update over a chunk Zb,
            P <- P - P Zb^T (alpha I_k + Zb P Zb^T)^-1 Zb P,
        equals absorbing the rows one at a time by the rank-1 rule
        P <- P - (P z z^T P)/(alpha + z^T P z); no past features are stored.
        """
        z = np.asarray(z, dtype=np.float64)
        if z.ndim == 1:
            z = z[None, :]
        if z.ndim != 2 or z.shape[1] != self.dim:
            raise ValueError(f"expected features of dim {self.dim}, got shape {z.shape}")
        if not np.all(np.isfinite(z)):
            raise ValueError("cannot absorb non-finite features")
        for start in range(0, z.shape[0], chunk_size):
            zb = z[start : start + chunk_size]
            kb = zb @ self.P  # [k x d]; P symmetric so this is (P zb^T)^T
            gram = self.alpha * np.eye(zb.shape[0]) + kb @ zb.T
            if not np.all(np.isfinite(gram)) or np.any(np.diag(gram) <= 0):
                raise FloatingPointError("degenerate projector block update")
            self.P = self.P - kb.T @ np.linalg.solve(gram, kb)
        # keep P numerically symmetric
        self.P = (self.P + self.P.T) / 2.0


class FusionLayer:
    """One affine + activation fusion stage with projector-modulated updates."""

    def __init__(
        self,
        d_in: int,
        d_out: int,
        activation: str = "tanh",
        eta: float = 0.01,
        alpha: float = 1.0,
        seed: int = 0,
    ):
        if d_in < 1 or d_out < 1:
            raise ValueError(f"layer dims must be >= 1, got {d_in}, {d_out}")
        if activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {activation!r}; expected one of {ACTIVATIONS}")
        if eta <= 0:
            raise ValueError(f"eta must be > 0, got {eta}")
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        limit = np.sqrt(6.0 / (d_in + d_out))
        self.weights = rng.uniform(-limit, limit, size=(d_in, d_out))
        self.bias = np.zeros(d_out)
        self.activation = activation
        self.eta = float(eta)
        self.projector = Projector(d_in, alpha)

    def forward(self, Z: np.ndarray) -> np.ndarray:
        """activation(Z @ W + b)."""
        Z = np.asarray(Z, dtype=np.float64)
        if Z.ndim != 2 or Z.shape[1] != self.weights.shape[0]:
            raise ValueError(
                f"expected inputs with {self.weights.shape[0]} columns, got shape {Z.shape}"
            )
        return apply_activation(self.activation, Z @ self.weights + self.bias)

    def forward_with_grad(self, Z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Returns (activations, elementwise activation derivative at the preactivation)."""
        Z = np.asarray(Z, dtype=np.float64)
        pre = Z @ self.weights + self.bias
        out = apply_activation(self.activation, pre)
        return out, activation_derivative(self.activation, pre, out)

    def orthogonal_step(
        self, grad_w: np.ndarray, grad_b: np.ndarray | None = None, project: bool = True
    ) -> None:
        """W <- W - eta * (P @ grad_w); bias steps unprojected."""
        grad_w = np.asarray(grad_w, dtype=np.float64)
        if grad_w.shape != self.weights.shape:
            raise ValueError(
                f"gradient shape {grad_w.shape} does not match weights {self.weights.shape}"
            )
        if not np.all(np.isfinite(grad_w)):
            raise FloatingPointError("non-finite fusion gradient")
        step = self.projector.P @ grad_w if project else grad_w
        self.weights = self.weights - self.eta * step
        if grad_b is not None:
            if not np.all(np.isfinite(grad_b)):
                raise FloatingPointError("non-finite fusion bias gradient")
            self.bias = self.bias - self.eta * np.asarray(grad_b, dtype=np.float64)

