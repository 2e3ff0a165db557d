import os

import numpy as np
import pytest

from mvcil_support import DATA_DIR, has_idx


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
