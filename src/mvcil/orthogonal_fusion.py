"""Phase II: orthogonal-projection fusion.

A running d x d projector P tracks the subspace spanned by all previously
absorbed view features; fusion-layer weights are updated only along P's
range, so new sessions do not interfere with directions already in use.
The trainer's supervised loop hands the layer steps already in that range.
P is maintained by recursive least-squares block updates (a single row is a
block of one), never by storing past features.
"""

from __future__ import annotations

import numpy as np

# rows per block update: bounds the k x k Gram and its Cholesky factor
_ABSORB_CHUNK = 256


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

    def absorb(self, z: np.ndarray) -> None:
        """Absorb one feature vector or a mini-batch of rows.

        The block update over each chunk Zb of up to _ABSORB_CHUNK rows,
            P <- P - P Zb^T (alpha I_k + Zb P Zb^T)^-1 Zb P,
        equals absorbing the rows one at a time by the rank-1 rule
        P <- P - (P z z^T P)/(alpha + z^T P z); no past features are stored.
        With the Cholesky factor gram = C C^T and M = C^-1 Zb P it is
        P <- P - M^T M, which matmul forms exactly symmetric, and so is P.
        """
        z = np.asarray(z, dtype=np.float64)
        if z.ndim == 1:
            z = z[None, :]
        if z.ndim != 2 or z.shape[1] != self.dim:
            raise ValueError(f"expected features of dim {self.dim}, got shape {z.shape}")
        if not np.all(np.isfinite(z)):
            raise ValueError("cannot absorb non-finite features")
        for start in range(0, z.shape[0], _ABSORB_CHUNK):
            zb = z[start : start + _ABSORB_CHUNK]
            kb = zb @ self.P  # [k x d]; P symmetric so this is (P zb^T)^T
            gram = self.alpha * np.eye(zb.shape[0]) + kb @ zb.T
            if not np.all(np.isfinite(gram)):
                raise FloatingPointError("degenerate projector block update")
            try:
                chol = np.linalg.cholesky(gram)
            except np.linalg.LinAlgError as exc:
                raise FloatingPointError("degenerate projector block update") from exc
            # inv(chol) @ kb runs several times faster than solve(chol, kb)
            m = np.linalg.inv(chol) @ kb
            self.P -= m.T @ m  # in place: one d x d temporary, not two


class FusionLayer:
    """One affine + tanh fusion stage with projector-modulated updates."""

    def __init__(
        self,
        d_in: int,
        d_out: int,
        eta: float = 0.01,
        alpha: float = 1.0,
        seed: int = 0,
    ):
        if d_in < 1 or d_out < 1:
            raise ValueError(f"layer dims must be >= 1, got {d_in}, {d_out}")
        if eta <= 0:
            raise ValueError(f"eta must be > 0, got {eta}")
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        limit = np.sqrt(6.0 / (d_in + d_out))
        self.weights = rng.uniform(-limit, limit, size=(d_in, d_out))
        self.bias = np.zeros(d_out)
        self.eta = float(eta)
        self.projector = Projector(d_in, alpha)

    def forward(self, Z: np.ndarray) -> np.ndarray:
        """tanh(Z @ W + b)."""
        Z = np.asarray(Z, dtype=np.float64)
        if Z.ndim != 2 or Z.shape[1] != self.weights.shape[0]:
            raise ValueError(
                f"expected inputs with {self.weights.shape[0]} columns, got shape {Z.shape}"
            )
        return np.tanh(Z @ self.weights + self.bias)

    def forward_with_grad(self, Z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Returns (activations, elementwise tanh derivative at the preactivation)."""
        Z = np.asarray(Z, dtype=np.float64)
        out = np.tanh(Z @ self.weights + self.bias)
        return out, 1.0 - out * out

    def orthogonal_step(self, direction: np.ndarray, grad_b: np.ndarray) -> None:
        """W <- W - eta * direction and b <- b - eta * grad_b (unprojected).

        The caller hands in a direction that already lies in P's range, as
        the trainer's (Z P)[R]^T A for a window of rows R does.
        """
        direction = np.asarray(direction, dtype=np.float64)
        grad_b = np.asarray(grad_b, dtype=np.float64)
        for what, step, target in (("step", direction, self.weights),
                                   ("bias gradient", grad_b, self.bias)):
            if step.shape != target.shape:
                raise ValueError(f"{what} shape {step.shape} does not match {target.shape}")
            if not np.all(np.isfinite(step)):
                raise FloatingPointError(f"non-finite fusion {what}")
        # in place, after every check: a rejected step changes nothing
        self.weights -= self.eta * direction
        self.bias -= self.eta * grad_b
