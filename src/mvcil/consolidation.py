"""Phase III: expandable softmax head with selective weight consolidation.

The head owns the class in progress: `expand_head` opens its column,
`DecisionHead.imprint` seeds it and `DecisionHead.pool` averages its
per-session Fisher estimates into `pending`. The next `expand_head` closes
the class by `end_of_class`, which anchors the current weights and adds
`pending` to a single running sum, so the quadratic penalty
(mu/2) * sum fisher_sum * (W - anchor)^2 needs O(h * C) memory no matter how
many classes have passed. The head is weights only: logits are H @ W.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

# the mean logit a new class's imprinted head column starts near
IMPRINT_SCALE = 2.0


@dataclass(frozen=True)
class FisherEstimate:
    """Diagonal empirical Fisher over N_t samples."""

    diag: np.ndarray  # [h x C_seen], per-weight
    sample_count: int

    def __post_init__(self) -> None:
        if self.sample_count < 1:
            raise ValueError("Fisher estimate needs at least one sample")
        if np.any(self.diag < 0):
            raise ValueError("Fisher diagonal must be nonnegative")


class HeadGradients(NamedTuple):
    loss: float
    grad_w: np.ndarray
    grad_hidden: np.ndarray


class DecisionHead:
    """Softmax output layer over hidden dim h, expanded as classes arrive."""

    def __init__(self, hidden_dim: int, mu: float = 1000.0):
        if hidden_dim < 1:
            raise ValueError(f"hidden_dim must be >= 1, got {hidden_dim}")
        if mu < 0:
            raise ValueError(f"mu must be >= 0, got {mu}")
        self.hidden_dim = hidden_dim
        self.mu = float(mu)
        self.weights = np.zeros((hidden_dim, 0))
        self.anchor = np.zeros((hidden_dim, 0))
        self.fisher_sum = np.zeros((hidden_dim, 0))
        # the Fisher of the class in progress, folded in by end_of_class
        self.pending: FisherEstimate | None = None

    @property
    def classes_seen(self) -> int:
        return self.weights.shape[1]

    def imprint(self, mean_hidden: np.ndarray) -> None:
        """Seed the newest column with the class's mean hidden direction, scaled
        so its mean logit starts near IMPRINT_SCALE. A zero column never trains
        when the class arrives alone (single-class softmax saturates, so gradient
        and Fisher both vanish) and would lose to every later class's logit for good."""
        energy = float(mean_hidden @ mean_hidden)
        if energy > 0.0:
            self.weights[:, -1] = mean_hidden * (IMPRINT_SCALE / energy)

    def pool(self, fisher: FisherEstimate) -> None:
        """Pool one session's estimate into `pending`: the class's estimate
        is the sample-weighted mean over all of its sessions."""
        if fisher.diag.shape != self.fisher_sum.shape:
            raise ValueError(f"Fisher shape {fisher.diag.shape} does not match "
                             f"head {self.fisher_sum.shape}")
        prev = self.pending
        if prev is not None:
            n = prev.sample_count + fisher.sample_count
            diag = (prev.diag * prev.sample_count + fisher.diag * fisher.sample_count) / n
            fisher = FisherEstimate(diag, n)
        self.pending = fisher

    def logits(self, H: np.ndarray) -> np.ndarray:
        H = np.asarray(H, dtype=np.float64)
        if H.ndim != 2 or H.shape[1] != self.hidden_dim:
            raise ValueError(
                f"expected hidden width {self.hidden_dim}, got shape {H.shape}"
            )
        if self.classes_seen == 0:
            raise ValueError("head has no classes yet; call expand_head first")
        return H @ self.weights


def softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def expand_head(head: DecisionHead) -> None:
    """Add one zero-initialized output column for the next class slot.

    The class in progress is closed first (`end_of_class`), since its
    pending Fisher covers only the columns already there. Old columns are
    untouched, so logits of previously seen classes are unchanged afterwards.
    """
    end_of_class(head)
    h = head.hidden_dim
    head.weights = np.hstack([head.weights, np.zeros((h, 1))])
    head.fisher_sum = np.hstack([head.fisher_sum, np.zeros((h, 1))])


def fisher_diag(head: DecisionHead, H: np.ndarray, labels: np.ndarray) -> FisherEstimate:
    """Empirical diagonal Fisher of the output weights over the batch.

    Per weight (i, j): mean over samples of ((softmax - onehot)[j] * H[i])^2,
    the squared gradient of the conditional log-likelihood.
    """
    H = np.asarray(H, dtype=np.float64)
    labels = np.asarray(labels)
    if H.shape[0] == 0:
        raise ValueError("Fisher estimate needs a nonempty batch")
    delta = softmax(head.logits(H))
    delta[np.arange(H.shape[0]), labels] -= 1.0
    diag = (H * H).T @ (delta * delta) / H.shape[0]
    return FisherEstimate(diag=diag, sample_count=H.shape[0])


def swc_loss_and_grad(head: DecisionHead, H: np.ndarray, labels: np.ndarray) -> HeadGradients:
    """Cross-entropy plus the consolidation penalty; analytic gradients.

    loss = mean CE + (mu/2) * sum fisher_sum * (W - anchor)^2 over anchor
    columns (previously seen classes); the gradient adds
    mu * fisher_sum * (W - anchor) there. grad_hidden backpropagates the CE
    term into the fusion stage.
    """
    H = np.asarray(H, dtype=np.float64)
    labels = np.asarray(labels)
    n = H.shape[0]
    if labels.min() < 0 or labels.max() >= head.classes_seen:
        raise ValueError(
            f"labels must lie in [0, {head.classes_seen}), got range "
            f"[{labels.min()}, {labels.max()}]"
        )
    # the softmax, turned in place into the CE gradient wrt the logits
    delta = softmax(head.logits(H))
    eps = 1e-300  # guards log(0) for a fully confident wrong prediction
    ce = -float(np.mean(np.log(delta[np.arange(n), labels] + eps)))
    delta[np.arange(n), labels] -= 1.0
    delta /= n
    grad_w = H.T @ delta
    grad_hidden = delta @ head.weights.T

    # before the first class boundary the anchor has no columns, and this adds 0
    c_anchor = head.anchor.shape[1]
    drift = head.weights[:, :c_anchor] - head.anchor
    fsum = head.fisher_sum[:, :c_anchor]
    loss = ce + 0.5 * head.mu * float(np.sum(fsum * drift * drift))
    grad_w[:, :c_anchor] += head.mu * fsum * drift
    return HeadGradients(loss=loss, grad_w=grad_w, grad_hidden=grad_hidden)


def end_of_class(head: DecisionHead) -> None:
    """Fold the pending Fisher into the running sum and re-center the anchor, if one is pending."""
    if head.pending is None:
        return
    head.fisher_sum = head.fisher_sum + head.pending.diag
    head.pending = None
    head.anchor = head.weights.copy()
