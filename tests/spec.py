"""An executable specification of the learner: the paper's three phases
(arXiv:2306.09675) written out step by step from the module docstrings of
`mvcil`, for `test_spec.py` to hold `mvcil.trainer.run` against.

It shares no arithmetic with the library. FISTA runs one group at a time
with a plain soft threshold, each fusion step projects its own gradient,
the projectors absorb one row at a time by the rank-1 rule and the Fisher
is summed one sample at a time. From `mvcil` it takes only seeded draws:
the frozen encoders, the fusion layer's initial weights, the session order
and each session's step-plan generator. It is slow by design and meant for
small streams.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from mvcil.dataset import derive_seed, stream_sessions
from mvcil.orthogonal_fusion import FusionLayer

# consolidation.DecisionHead.imprint: the mean logit a new column starts near
IMPRINT_SCALE = 2.0


def _seed(*parts: int) -> int:
    return int(derive_seed(*parts).generate_state(1)[0])


# ---- Phase I: sparse random features (sparse_features docstrings) ---------

def soft_threshold(u: np.ndarray, tau: float) -> np.ndarray:
    """The prox of tau * ||.||_1."""
    return np.sign(u) * np.maximum(np.abs(u) - tau, 0.0)


def fista(Z: np.ndarray, X: np.ndarray, lam: float, K: int) -> np.ndarray:
    """theta' minimising ||Z theta' - X||_F^2 + lam ||theta'||_1 by K FISTA
    iterations from zero (Beck & Teboulle, 2009; `fista_fit`): a gradient
    step of 1/xi at y, xi = 2 lambda_max(Z^T Z), the soft threshold at
    lam/xi, then momentum with t' = (1 + sqrt(1 + 4 t^2)) / 2."""
    G, ZtX = Z.T @ Z, Z.T @ X
    xi = 2.0 * np.linalg.eigvalsh(G)[-1]
    theta = y = np.zeros((Z.shape[1], X.shape[1]))
    t = 1.0
    for _ in range(K):
        gradient = 2.0 * (G @ y - ZtX)  # of ||Z y - X||^2
        new = soft_threshold(y - gradient / xi, lam / xi)
        t_new = (1.0 + np.sqrt(1.0 + 4.0 * t * t)) / 2.0
        y = new + (t - 1.0) / t_new * (new - theta)
        theta, t = new, t_new
    return theta


def features(config, X: np.ndarray) -> np.ndarray:
    """The view-optimal feature (`extract_view_feature`): per group g, the
    codes Z_g = X W_g + b_g, the decoder theta'_g fit by FISTA, and
    tanh(X theta'_g^T + b_g), the groups side by side."""
    X = np.asarray(X, dtype=np.float64)
    enc = config.encoder
    encoder = enc.make_encoder(X.shape[1], seed=_seed(config.seed, 0xE2C, X.shape[1]))
    out = []
    for g in range(enc.n):
        cols = slice(g * enc.L, (g + 1) * enc.L)
        W, b = encoder.weights[:, cols], encoder.bias[cols]
        theta = fista(X @ W + b, X, enc.lam, enc.max_iter)
        out.append(np.tanh(X @ theta.T + b))
    return np.hstack(out)


# ---- Phase II: orthogonal-projection fusion (orthogonal_fusion) ----------

def absorb(P: np.ndarray, rows: np.ndarray, alpha: float) -> None:
    """Recursive least squares, one row z at a time (`Projector.absorb`; the
    projector of OWM, Zeng et al., 2019):
    P <- P - (P z)(P z)^T / (alpha + z^T P z), for a symmetric P."""
    for z in rows:
        k = P @ z
        P -= np.outer(k, k) / (alpha + z @ k)


# ---- the learner's state (trainer.Model) ---------------------------------

@dataclass
class Learner:
    """The arrays `Model._state()` names, plus the class in progress."""

    config: object
    W: np.ndarray  # fusion weights [d, h]
    b: np.ndarray  # fusion bias [h]
    P: np.ndarray  # fusion projector [d, d]
    head: np.ndarray  # head weights [h, classes seen]
    anchor: np.ndarray  # head weights at the last class boundary
    fisher_sum: np.ndarray
    head_P: np.ndarray | None  # the head's hidden-space projector
    mu: float
    # the class in progress: its per-sample Fisher terms summed, and their count
    fisher: np.ndarray | None = None
    fisher_samples: int = 0
    classes: list[int] = field(default_factory=list)
    sessions: int = 0

    def state(self) -> dict[str, np.ndarray]:
        state = {"fusion/0/weights": self.W, "fusion/0/bias": self.b,
                 "fusion/0/projector": self.P, "head/weights": self.head,
                 "head/anchor": self.anchor, "head/fisher_sum": self.fisher_sum}
        if self.head_P is not None:
            state["head_projector"] = self.head_P
        return state


def fresh(config) -> Learner:
    """The state before the first session. The modes (trainer docstring):
    `full` keeps both projectors and the penalty, `net2_orth_both` both
    projectors and no penalty, `net1_orth_only` the fusion projector only."""
    d, h = config.encoder.n * config.encoder.L, config.fusion.width
    init = FusionLayer(d, h, seed=_seed(config.seed, 0xF5, 0)).weights
    mode = config.mode
    return Learner(config, init.copy(), np.zeros(h), np.eye(d), np.zeros((h, 0)),
                   np.zeros((h, 0)), np.zeros((h, 0)),
                   np.eye(h) if mode in ("full", "net2_orth_both") else None,
                   config.consolidation.mu if mode == "full" else 0.0)


def hidden(learner: Learner, Z: np.ndarray) -> np.ndarray:
    """The fusion layer: tanh(Z W + b)."""
    return np.tanh(Z @ learner.W + learner.b)


def softmax(logits: np.ndarray) -> np.ndarray:
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


# ---- Phase III: selective weight consolidation (consolidation) -----------

def head_step(learner: Learner, H: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """One head step on mean cross-entropy plus (mu/2) sum F (W - anchor)^2
    over the anchored columns (`swc_loss_and_grad`; the quadratic penalty of
    EWC, Kirkpatrick et al., 2017), its gradient projected
    by the head projector when there is one; returns dCE/dH."""
    n = H.shape[0]
    g = softmax(H @ learner.head)
    g[np.arange(n), labels] -= 1.0
    g = g / n
    grad_hidden = g @ learner.head.T
    grad = H.T @ g
    c = learner.anchor.shape[1]
    if learner.mu > 0 and c > 0:
        grad[:, :c] += learner.mu * learner.fisher_sum[:, :c] * (learner.head[:, :c]
                                                                 - learner.anchor)
    if learner.head_P is not None:
        grad = learner.head_P @ grad
    learner.head -= learner.config.consolidation.head_lr * grad
    return grad_hidden


def step_plan(learner: Learner, n: int) -> list[np.ndarray]:
    """`_step_plan`: per epoch a fresh permutation of the n rows, cut into
    batches, the whole plan cut at the per-session step budget."""
    cfg = learner.config.consolidation
    rng = np.random.default_rng(derive_seed(learner.config.seed, 0xB5, learner.sessions))
    bs = min(cfg.batch_size, n)
    plan = []
    for _ in range(cfg.epochs_per_session):
        perm = rng.permutation(n)
        for start in range(0, n, bs):
            if len(plan) == cfg.max_steps_per_session:
                return plan
            plan.append(perm[start : start + bs])
    return plan


def supervised_steps(learner: Learner, feats: np.ndarray, labels: np.ndarray) -> int:
    """A session's steps (`Model._supervised_loop`): each takes a head step
    on its rows' hidden activations h, then a fusion step along P's range,
    W -= eta P x^T delta and b -= eta delta^T 1, with delta = dCE/dh (1 - h^2).
    Returns the number of steps."""
    plan = step_plan(learner, feats.shape[0])
    eta = learner.config.fusion.eta
    for idx in plan:
        x = feats[idx]
        h = hidden(learner, x)
        delta = head_step(learner, h, labels[idx]) * (1.0 - h * h)
        learner.W -= eta * (learner.P @ (x.T @ delta))
        learner.b -= eta * delta.sum(axis=0)
    return len(plan)


def fisher_terms(learner: Learner, H: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """The empirical Fisher's per-sample terms summed (`fisher_diag`): for
    weight (i, j), ((softmax - onehot)[j] H[i])^2."""
    total = np.zeros_like(learner.head)
    for h, label in zip(H, labels):
        g = softmax(h[None, :] @ learner.head)[0]
        g[label] -= 1.0
        total += np.outer(h * h, g * g)
    return total


def finish_class(learner: Learner) -> None:
    """`end_of_class`: add the class's Fisher, the mean over all of its
    samples, to the running sum, and anchor the head where it stands."""
    if learner.fisher is not None:
        learner.fisher_sum = learner.fisher_sum + learner.fisher / learner.fisher_samples
        learner.anchor = learner.head.copy()
        learner.fisher, learner.fisher_samples = None, 0


def train_session(learner: Learner, batch) -> None:
    """One (class, view) session (`Model.train_session`)."""
    cfg = learner.config
    feats = features(cfg, batch.inputs)
    if batch.class_id not in learner.classes:
        # a new class: close the last one, open a zero column (`expand_head`)
        # and imprint it with the mean hidden activation m, m IMPRINT_SCALE/|m|^2
        # (`DecisionHead.imprint`; weight imprinting, Qi, Brown & Lowe, 2018)
        finish_class(learner)
        learner.classes.append(batch.class_id)
        learner.head = np.hstack([learner.head, np.zeros((cfg.fusion.width, 1))])
        learner.fisher_sum = np.hstack([learner.fisher_sum, np.zeros((cfg.fusion.width, 1))])
        m = hidden(learner, feats).mean(axis=0)
        if m @ m > 0:
            learner.head[:, -1] = m * (IMPRINT_SCALE / (m @ m))
    labels = np.full(feats.shape[0], len(learner.classes) - 1)
    supervised_steps(learner, feats, labels)
    # protect what was just learned, after the steps
    if cfg.fusion.projector_enabled:
        absorb(learner.P, feats, cfg.fusion.alpha)
    H = hidden(learner, feats)
    if learner.head_P is not None:
        # rows scaled by 1/sqrt(n): each session adds O(1) energy
        absorb(learner.head_P, H / np.sqrt(H.shape[0]), cfg.fusion.head_projector_alpha)
    if learner.mu > 0:
        terms = fisher_terms(learner, H, labels)
        learner.fisher = terms if learner.fisher is None else learner.fisher + terms
        learner.fisher_samples += H.shape[0]
    learner.sessions += 1


def predict(learner: Learner, feats: np.ndarray) -> np.ndarray:
    """The class id of the largest logit of H W; a tie goes to the lowest
    class id (evaluation docstring)."""
    logits = hidden(learner, feats) @ learner.head
    classes = np.array(learner.classes)
    best = logits.max(axis=1, keepdims=True)
    return np.array([classes[row == top].min() for row, top in zip(logits, best)])


def run(config, data, protocol) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """The stream (`trainer.run`): the sessions in order, and after the last
    view of each class R[k, j], the accuracy on the j-th class to arrive
    after k + 1 classes, pooled over its test batches. Returns R (NaN above
    the diagonal) and the final state, the last class closed."""
    learner = fresh(config)
    R = np.full((protocol.num_classes, protocol.num_classes), np.nan)
    test = [(b, features(config, b.inputs)) for b in data.test]
    for _, group in itertools.groupby(stream_sessions(protocol, data), lambda b: b.class_id):
        for batch in group:
            train_session(learner, batch)
        for j, c in enumerate(learner.classes):
            mine = [(b, f) for b, f in test if b.class_id == c]
            hits = sum(int(np.sum(predict(learner, f) == b.labels)) for b, f in mine)
            R[len(learner.classes) - 1, j] = hits / sum(b.num_samples for b, _ in mine)
    finish_class(learner)
    return R, learner.state()
