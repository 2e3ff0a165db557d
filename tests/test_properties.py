"""Property tests, over drawn shapes and values, for the identities that the
stream's incremental state rests on."""

import numpy as np
import pytest

from mvcil.consolidation import DecisionHead, expand_head, fisher_diag
from mvcil.orthogonal_fusion import Projector

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies
arrays = pytest.importorskip("hypothesis.extra.numpy").arrays

# tenths in [-3, 3]: no subnormal products, so relative bounds hold exactly
TENTHS = st.integers(-30, 30).map(lambda k: k / 10)


def splits(data, n: int) -> list[int]:
    """Cut points that split n rows into nonempty consecutive parts."""
    return sorted(data.draw(st.sets(st.integers(1, n - 1)), label="cuts")) if n > 1 else []


@hypothesis.settings(max_examples=25, deadline=None)
@hypothesis.given(st.data())
def test_absorb_in_any_order_and_chunking_gives_the_regularized_inverse(data):
    d = data.draw(st.integers(1, 6), label="d")
    m = data.draw(st.integers(1, 12), label="m")
    z = data.draw(arrays(np.float64, (m, d), elements=TENTHS), label="Z")
    alpha = data.draw(st.sampled_from([0.1, 1.0, 10.0]), label="alpha")
    order = data.draw(st.permutations(range(m)), label="order")
    proj = Projector(d, alpha)
    for part in np.split(z[order], splits(data, m)):
        proj.absorb(part)
    want = alpha * np.linalg.inv(alpha * np.eye(d) + z.T @ z)
    np.testing.assert_allclose(proj.P, want, rtol=0, atol=1e-9)


@hypothesis.settings(max_examples=25, deadline=None)
@hypothesis.given(st.data())
def test_pool_over_any_split_is_the_sample_weighted_mean(data):
    h = data.draw(st.integers(1, 5), label="h")
    c = data.draw(st.integers(1, 4), label="c")
    n = data.draw(st.integers(1, 12), label="n")
    head = DecisionHead(h, mu=1.0)
    for _ in range(c):
        expand_head(head)
    head.weights = data.draw(arrays(np.float64, (h, c), elements=TENTHS), label="W")
    H = data.draw(arrays(np.float64, (n, h), elements=TENTHS), label="H")
    labels = data.draw(arrays(np.int64, n, elements=st.integers(0, c - 1)), label="labels")
    cuts = splits(data, n)
    sessions = [fisher_diag(head, Hs, ys)
                for Hs, ys in zip(np.split(H, cuts), np.split(labels, cuts))]
    for est in sessions:
        head.pool(est)
    assert head.pending.sample_count == n
    want = sum(e.diag * e.sample_count for e in sessions) / n
    np.testing.assert_allclose(head.pending.diag, want, rtol=1e-12, atol=0)
    # a fixed head's per-session means pool to the whole class's estimate
    np.testing.assert_allclose(head.pending.diag, fisher_diag(head, H, labels).diag,
                               rtol=1e-12, atol=0)
