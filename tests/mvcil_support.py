"""Helpers shared by the library tests: the IDX data location and the FISTA
objective. Test modules import them from here; `conftest` is not a unique
module name once the benchmark's tests are collected in the same session."""

import os

import numpy as np

DATA_DIR = os.environ.get("MVCIL_DATA_DIR", "/root/data")


def has_idx(name: str) -> bool:
    return os.path.exists(os.path.join(DATA_DIR, name, "train-images-idx3-ubyte"))


def objective(Z, X, theta, lam):
    """The FISTA objective ||Z theta - X||_F^2 + lam * ||theta||_1."""
    r = Z @ theta - X
    return float(np.sum(r * r)) + lam * float(np.sum(np.abs(theta)))
