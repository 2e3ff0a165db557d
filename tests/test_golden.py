"""Every result a refactor claims to keep, pinned: small benchmark streams
must reproduce the fingerprints in `golden.json` (see `make_golden.py`).

R and the predicted labels must match exactly. The state checksums may move
by 1e-9 relative: a second BLAS thread moves them by about 1e-12, a 1e-6
change to the imprint scale by about 1e-6."""

import importlib
import json
import sys

import numpy as np
import pytest

from make_golden import BENCH, CASES, GOLDEN, fingerprint

with open(GOLDEN) as f:
    WANT = json.load(f)


@pytest.mark.parametrize("case", list(CASES))
def test_stream_matches_golden_fingerprint(case, monkeypatch):
    monkeypatch.syspath_prepend(BENCH)
    try:
        got = fingerprint(importlib.import_module("generators"), case)
    finally:
        sys.modules.pop("generators", None)
    want = WANT[case]
    np.testing.assert_array_equal(np.array(got["R"], dtype=float),
                                  np.array(want["R"], dtype=float))
    assert got["labels"] == want["labels"]
    assert sorted(got["state"]) == sorted(want["state"])
    for key, value in want["state"].items():
        np.testing.assert_allclose(got["state"][key], value, rtol=1e-9, atol=0, err_msg=key)
