"""Random-mutation fuzzing (after Miller, Fredriksen & So, CACM 1990) of the
binary files a run reads: a dataset cache and a checkpoint, each with one
JSON header entry changed, deleted or repeated, or 1-3 bytes overwritten
after the header, must run (exit 0) or end in a named refusal (exit 2, 3 or
4), never in an exception that escapes `cli.main`."""

import contextlib
import io
import json
import math
import struct
import warnings

import numpy as np
import pytest

from mvcil import cli, dataset
from mvcil.dataset import SplitDataset, ViewBatch, make_protocol, save_split

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

# a run of a few milliseconds, so that hundreds of mutants take about a second
TINY = [arg for kv in ("encoder.n=2", "encoder.L=3", "fusion.width=4", "encoder.max_iter=2",
                       "consolidation.epochs_per_session=1") for arg in ("--set", kv)]
# what each exit code's message starts with
PREFIXES = {cli.EXIT_CONFIG: "error: ", cli.EXIT_IO: "i/o error: ",
            cli.EXIT_NUMERIC: "numerical failure: "}
# values of every JSON kind, and integers past a square matrix's memory, an
# index, a float and int64
VALUES = [None, True, 0, -1, 1.5, math.nan, math.inf, 10**6, 2**63, 10**20, "x", [], {}, [0],
          {"0": [0]}]
# magic (4 bytes), version (u16), header length (u32), then the header
HEADER_AT = 10
# (file mutated, command run on it)
RUNS = [("cache", "train"), ("cache", "eval"), ("checkpoint", "eval")]


def entry_paths(doc, prefix=()):
    """(path, value) of every entry of a JSON document, a path listing keys
    and indices from the top."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for key, value in items:
        yield prefix + (key,), value
        if isinstance(value, (dict, list)):
            yield from entry_paths(value, prefix + (key,))


def header_of(blob: bytes) -> tuple[dict, int]:
    """The JSON header of a container's bytes, and the offset just past it."""
    (hdr_len,) = struct.unpack_from("<I", blob, 6)
    return json.loads(blob[HEADER_AT:HEADER_AT + hdr_len]), HEADER_AT + hdr_len


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """A 2-class x 2-view cache of 4 rows of 5 features a batch and the
    checkpoint of a run on it, in a directory, with each file's bytes and
    every (path, how, value) edit of its header entries, and the CLI's parser."""
    root = tmp_path_factory.mktemp("fuzz")
    rng = np.random.default_rng(0)
    train, test = ([ViewBatch(c, v, rng.standard_normal((4, 5)), np.full(4, c))
                    for c in range(2) for v in range(2)] for _ in range(2))
    cache, run_dir = root / "cache.mvcl", root / "run"
    save_split(str(cache), SplitDataset(train, test, 2, 2, 5), make_protocol("fuzz", 2, 2, 0))
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["train", "--cache", str(cache), "--out", str(run_dir), *TINY]) == 0
    (root / "checkpoint.mvcl").write_bytes((run_dir / "checkpoint.mvcl").read_bytes())
    files = {}
    for name in ("cache", "checkpoint"):
        blob = (root / f"{name}.mvcl").read_bytes()
        files[name] = blob, [
            (path, how, value) for path, old in entry_paths(header_of(blob)[0])
            for how, value in [("delete", None), ("repeat", None)]
            + [("change", v) for v in VALUES + ([old - 1, old + 1] if type(old) is int else [])]]
    return root, files, cli.build_parser()


def edit_header(blob: bytes, path, how, value) -> bytes:
    """`blob` with the header entry at `path` deleted, repeated or changed."""
    header, end = header_of(blob)
    parent = header
    for key in path[:-1]:
        parent = parent[key]
    key = path[-1]
    if how == "delete":
        del parent[key]
    elif how == "repeat" and isinstance(parent, list):
        parent.insert(key, parent[key])
    elif how == "repeat":  # a key cannot repeat in an object: its value does
        parent[key] = [parent[key]] * 2
    else:
        parent[key] = value
    new = json.dumps(header, sort_keys=True).encode("utf-8")
    return blob[:6] + struct.pack("<I", len(new)) + new + blob[end:]


@hypothesis.settings(max_examples=500, derandomize=True, deadline=None, database=None,
                     suppress_health_check=[hypothesis.HealthCheck.too_slow])
@hypothesis.given(run=st.sampled_from(RUNS), in_header=st.booleans(),
                  pick=st.integers(min_value=0), new=st.binary(min_size=1, max_size=3))
def test_a_mutated_cache_or_checkpoint_runs_or_exits_with_a_named_code(
        corpus, run, in_header, pick, new):
    # `pick` chooses the header edit, or the offset that `new` overwrites
    root, files, parser = corpus
    target, command = run
    blob, edits = files[target]
    if in_header:
        mutant = edit_header(blob, *edits[pick % len(edits)])
    else:
        end = header_of(blob)[1]
        at = end + pick % (len(blob) - end)
        mutant = blob[:at] + new[:len(blob) - at] + blob[at + len(new):]
    paths = {name: str(root / f"{name}.mvcl") for name in files}
    paths[target] = str(root / "mutant.mvcl")
    with open(paths[target], "wb") as f:
        f.write(mutant)
    argv = (["train", *TINY] if command == "train"
            else ["eval", "--checkpoint", paths["checkpoint"]]) + ["--cache", paths["cache"]]
    loaded = []

    def load_split(path):
        result = real_load_split(path)
        loaded.append(result[0])
        return result

    real_load_split = dataset.load_split
    err = io.StringIO()
    with (pytest.MonkeyPatch.context() as mp, warnings.catch_warnings(record=True) as caught,
          contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err)):
        mp.setattr(dataset, "load_split", load_split)
        mp.setattr(cli, "build_parser", lambda: parser)  # built once: most of a call's time
        warnings.simplefilter("always")
        rc = cli.main(argv)
    assert rc in (0, *PREFIXES), rc
    if rc:
        assert err.getvalue().startswith(PREFIXES[rc]), err.getvalue()
    else:
        for batch in (b for split in loaded for b in split.train + split.test):
            assert batch.inputs.dtype.kind in "iuf" and batch.labels.dtype.kind in "iu"
    # a float the mutation made huge overflows on its way to a numerical failure
    assert rc == cli.EXIT_NUMERIC or not caught, [str(w.message) for w in caught]
