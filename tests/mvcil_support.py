"""Helpers shared by the library tests: the IDX data location, the FISTA
objective and its reference prox. Test modules import them from here; `conftest` is not a unique
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


def soft_threshold(x, tau):
    """The reference prox sign(x) * max(|x| - tau, 0); tau may broadcast."""
    return np.sign(x) * np.maximum(np.abs(x) - tau, 0.0)
