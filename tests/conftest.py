import os

import numpy as np
import pytest

DATA_DIR = os.environ.get("MVCIL_DATA_DIR", "/root/data")


def has_idx(name: str) -> bool:
    return os.path.exists(os.path.join(DATA_DIR, name, "train-images-idx3-ubyte"))


needs_mnist = pytest.mark.skipif(
    not has_idx("mnist"), reason="MNIST IDX files not found (set MVCIL_DATA_DIR)"
)
needs_fashion = pytest.mark.skipif(
    not has_idx("fashion"), reason="Fashion-MNIST IDX files not found (set MVCIL_DATA_DIR)"
)


def objective(Z, X, theta, lam):
    """The FISTA objective ||Z theta - X||_F^2 + lam * ||theta||_1."""
    r = Z @ theta - X
    return float(np.sum(r * r)) + lam * float(np.sum(np.abs(theta)))


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def mnist_dir():
    if not has_idx("mnist"):
        pytest.skip("MNIST IDX files not found")
    return os.path.join(DATA_DIR, "mnist")


@pytest.fixture
def fashion_dir():
    if not has_idx("fashion"):
        pytest.skip("Fashion-MNIST IDX files not found")
    return os.path.join(DATA_DIR, "fashion")
