"""Fingerprints of small benchmark streams, and the script that writes them
to `tests/golden.json` for `test_golden.py` to compare against.

    PYTHONPATH=src python tests/make_golden.py

Each case runs `run` under its config on a seeded stream from
`perfbench/generators.py` and records the accuracy matrix R, every test
batch's final predicted labels and one weighted checksum per `Model._state()`
array. Regenerate the file only in a change that means to move results, and
say in CHANGES.md what moved and why.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
from unittest import mock

import numpy as np

from mvcil.trainer import Model, RunConfig, run

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.join(os.path.dirname(HERE), "perfbench")
GOLDEN = os.path.join(HERE, "golden.json")
TABLES = {"classes": 8}
PMNIST = {"classes": 4, "dim": 196}
# case -> (generator, seed, its arguments, run config beyond the seed):
# streams small enough for tier-1
CASES = {
    **{f"tables-{s}": ("tables", s, TABLES, {}) for s in (0, 1, 2)},
    **{f"pmnist-{s}": ("pmnist", s, PMNIST, {}) for s in (0, 1, 2)},
    "tables-net2-0": ("tables", 0, TABLES, {"mode": "net2_orth_both"}),
    # no protection at all: no penalty, no head projector, no fusion projector
    "tables-unprotected-0": ("tables", 0, TABLES,
                             {"mode": "net1_orth_only", "fusion": {"projector_enabled": False}}),
    # 650-row sessions: the fusion steps take per-step windows
    "tables-per-step-0": ("tables", 0, {"classes": 2, "train_per_class": 650}, {}),
}


def checksum(array: np.ndarray) -> float:
    """The entries summed in flat order under weights 1 + (i mod 7)/7, so
    that moving a value between entries changes the sum too."""
    flat = np.asarray(array, dtype=np.float64).ravel()
    return float(flat @ (1.0 + np.arange(flat.size) % 7 / 7))


def fingerprint(generators, case: str) -> dict:
    """R (None above the diagonal), the labels `run` last predicted for each
    test batch, in `data.test` order, and checksums by checkpoint name."""
    name, seed, arguments, config = CASES[case]
    data, protocol = getattr(generators, name)(seed, **arguments)
    last: dict = {}
    predict = Model.predict_labels

    def recording(model, batch):
        last[batch] = predict(model, batch)
        return last[batch]

    with mock.patch.object(Model, "predict_labels", recording):
        res = run(RunConfig.from_dict({"seed": seed, **config}), data, protocol)
    return {
        "R": [[None if np.isnan(x) else x for x in row] for row in res.matrix.R.tolist()],
        "labels": [" ".join(map(str, last[b].tolist())) for b in data.test],
        "state": {key: checksum(getattr(owner, attr)) for key, owner, attr in res.model._state()},
    }


def main() -> None:
    sys.path.insert(0, BENCH)
    generators = importlib.import_module("generators")
    golden = {case: fingerprint(generators, case) for case in CASES}
    with open(GOLDEN, "w") as f:
        json.dump(golden, f, indent=1, sort_keys=True)
        f.write("\n")


if __name__ == "__main__":
    main()
