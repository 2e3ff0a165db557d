"""`run()` against the executable spec (`spec.py`) on the golden cases
(`make_golden.CASES`) at a small encoder and fusion width, where a case
takes well under a second. Each mode, the projector-off case and both
fusion window shapes still run: the 64-row tables sessions take one window
over the plan, the pmnist and 650-row sessions a window per step.

R must match exactly. Each state array may differ from the spec's by 1e-9
of its norm: the library's fast paths sum in another order, which moves
state by less than 1e-13; a 1e-6 change to the imprint scale moves it by more
than 1e-9."""

import importlib
import sys

import numpy as np
import pytest

import spec
from make_golden import BENCH, CASES
from mvcil.trainer import RunConfig, run

SMALL = {"encoder.n": 6, "encoder.L": 10, "fusion.width": 40}


@pytest.mark.parametrize("case", list(CASES))
def test_run_follows_the_spec(case, monkeypatch):
    monkeypatch.syspath_prepend(BENCH)
    try:
        generators = importlib.import_module("generators")
    finally:
        sys.modules.pop("generators", None)
    name, seed, arguments, config = CASES[case]
    if name == "pmnist":
        arguments = {**arguments, "dim": 64}
    data, protocol = getattr(generators, name)(seed, **arguments)
    config = RunConfig.from_dict({"seed": seed, **config}, SMALL)
    res = run(config, data, protocol)
    R, want = spec.run(config, data, protocol)
    np.testing.assert_array_equal(res.matrix.R, R)
    got = {key: getattr(owner, attr) for key, owner, attr in res.model._state()}
    assert sorted(got) == sorted(want)
    for key, array in want.items():
        assert got[key].shape == array.shape, key
        assert np.linalg.norm(got[key] - array) <= 1e-9 * np.linalg.norm(array), key
