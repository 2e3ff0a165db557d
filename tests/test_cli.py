import gzip
import hashlib
import json
import os
import re
import struct
import subprocess
import sys

import numpy as np
import pytest

from mvcil import __version__
from mvcil.cli import (
    EXIT_CONFIG,
    EXIT_OK,
    build_config,
    build_parser,
    main,
    parse_overrides,
)
from mvcil.container import MAGIC, VERSION, read_container, write_container
from mvcil.dataset import (
    IDX_IMAGES_MAGIC,
    IDX_LABELS_MAGIC,
    SplitDataset,
    StreamProtocol,
    load_split,
    save_split,
)
from mvcil.trainer import ConfigError, Model

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
METRIC_RE = re.compile(r"^avg_acc=[01]\.\d{6} bwt=(-?\d+\.\d{6}|null)$")

TINY = [
    "encoder.n=2", "encoder.L=3", "encoder.max_iter=3", "fusion.width=8",
    "consolidation.epochs_per_session=2", "consolidation.head_lr=0.003",
]


def sets(*extra):
    out = []
    for kv in TINY + list(extra):
        out += ["--set", kv]
    return out


def save_unrunnable(path, data, protocol):
    """Write a cache that fails `protocol.check`, which `save_split` refuses,
    so that the refusal on reading it back can be tested."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(StreamProtocol, "check", lambda self, data: None)
        save_split(path, data, protocol)


@pytest.fixture(autouse=True)
def cache_env(tmp_path, monkeypatch):
    monkeypatch.setenv("MVCIL_CACHE_DIR", str(tmp_path / "cache"))
    (tmp_path / "cache").mkdir()
    return tmp_path


def make_idx_dir(tmp_path, num_classes=3, n_train=8, n_test=4, side=6, seed=0):
    rng = np.random.default_rng(seed)
    d = tmp_path / "idx"
    d.mkdir(exist_ok=True)
    names = {
        "train": ("train-images-idx3-ubyte", "train-labels-idx1-ubyte", n_train),
        "test": ("t10k-images-idx3-ubyte", "t10k-labels-idx1-ubyte", n_test),
    }
    for img_name, lbl_name, per_class in names.values():
        n = num_classes * per_class
        images = rng.integers(0, 256, size=(n, side, side), dtype=np.uint8)
        labels = np.repeat(np.arange(num_classes), per_class).astype(np.uint8)
        with open(d / img_name, "wb") as f:
            f.write(struct.pack(">IIII", IDX_IMAGES_MAGIC, n, side, side))
            f.write(images.tobytes())
        with open(d / lbl_name, "wb") as f:
            f.write(struct.pack(">II", IDX_LABELS_MAGIC, n))
            f.write(labels.tobytes())
    return str(d)


def prepare_cache(tmp_path, protocol="pmnist-3x2", extra=()):
    src = make_idx_dir(tmp_path)
    out = str(tmp_path / "cache" / f"{protocol}.mvcl")
    rc = main(["prepare", "--protocol", protocol, "--source-dir", src,
               "--seed", "0", "--out", out, *extra])
    assert rc == 0  # the exit codes are compared as the numbers the CLI documents
    return out


def test_prepare_writes_cache_and_checksum(tmp_path, capsys):
    out = prepare_cache(tmp_path)
    line = capsys.readouterr().out.strip()
    assert line.startswith(f"cache={out} sha256=")
    digest = line.rsplit("=", 1)[1]
    with open(out, "rb") as f:
        assert digest == hashlib.sha256(f.read()).hexdigest()
    with open(out + ".sha256") as f:
        assert f.read().split()[0] == digest
    data, protocol, _ = load_split(out)
    assert data.num_classes == 3
    assert data.views_per_class == 2
    assert protocol.name == "pmnist-3x2"


def test_train_prints_stable_metric_line(tmp_path, capsys):
    cache = prepare_cache(tmp_path)
    run_dir = str(tmp_path / "run1")
    rc = main(["train", "--cache", cache, "--out", run_dir, *sets()])
    assert rc == EXIT_OK
    line = capsys.readouterr().out.strip().splitlines()[-1]
    assert METRIC_RE.match(line), line
    for name in ("manifest.json", "checkpoint.mvcl", "report.csv"):
        assert os.path.exists(os.path.join(run_dir, name))


def test_eval_reproduces_train_metrics(tmp_path, capsys):
    cache = prepare_cache(tmp_path)
    run_dir = str(tmp_path / "run1")
    main(["train", "--cache", cache, "--out", run_dir, *sets()])
    train_line = capsys.readouterr().out.strip().splitlines()[-1]
    rc = main(["eval", "--run", run_dir, "--cache", cache])
    assert rc == EXIT_OK
    eval_line = capsys.readouterr().out.strip().splitlines()[-1]
    assert eval_line == train_line
    rc = main(["eval", "--checkpoint", os.path.join(run_dir, "checkpoint.mvcl"),
               "--cache", cache])
    assert rc == EXIT_OK
    # without --run there is no report to derive retention gaps from
    assert capsys.readouterr().out.strip().endswith("bwt=null")


def test_train_mode_alias_and_seed_override(tmp_path, capsys):
    cache = prepare_cache(tmp_path)
    run_dir = str(tmp_path / "run_net1")
    rc = main(["train", "--cache", cache, "--out", run_dir, "--mode", "net1",
               "--seed", "3", *sets()])
    assert rc == EXIT_OK
    capsys.readouterr()
    with open(os.path.join(run_dir, "manifest.json")) as f:
        manifest = json.load(f)
    assert manifest["config"]["mode"] == "net1_orth_only"
    assert manifest["config"]["seed"] == 3


def test_prepare_synthesized_protocol(tmp_path, capsys):
    cache = prepare_cache(tmp_path, protocol="smnist-3x2",
                          extra=sets("encoder.max_iter=2"))
    capsys.readouterr()
    data, protocol, _ = load_split(cache)
    assert protocol.name == "smnist-3x2"
    assert data.input_dim == (6, 6)  # n * L from the encoder overrides


def test_prepare_caps_samples_per_class(tmp_path, capsys):
    cache = prepare_cache(tmp_path, extra=["--max-train-per-class", "2",
                                           "--max-test-per-class", "1"])
    capsys.readouterr()
    data, _, _ = load_split(cache)
    assert {b.num_samples for b in data.train} == {2}
    assert {b.num_samples for b in data.test} == {1}


def test_prepare_feature_tables(tmp_path, capsys):
    v0 = tmp_path / "v0.csv"
    v0.write_text("\n".join(f"{i},{i + 1}" for i in range(12)) + "\n")
    y = tmp_path / "y.txt"
    y.write_text("\n".join(str(i % 3) for i in range(12)) + "\n")
    out = str(tmp_path / "cache" / "feat.mvcl")
    rc = main(["prepare", "--protocol", "toyfeat", "--features", str(v0),
               "--labels-file", str(y), "--train-fraction", "0.5",
               "--seed", "0", "--out", out])
    assert rc == EXIT_OK
    capsys.readouterr()
    data, protocol, _ = load_split(out)
    assert protocol.name == "toyfeat"
    assert data.num_classes == 3
    assert data.views_per_class == 1


def three_class_two_view_tables(tmp_path):
    """A 3-class, 2-view feature table of 20 rows per class, and its labels."""
    rng = np.random.default_rng(0)
    views = []
    for v, width in enumerate((2, 3)):
        views.append(tmp_path / f"v{v}.csv")
        np.savetxt(views[-1], rng.standard_normal((60, width)), delimiter=",")
    labels = tmp_path / "y.txt"
    labels.write_text("\n".join(str(i % 3) for i in range(60)) + "\n")
    return [str(v) for v in views], str(labels)


@pytest.mark.parametrize("flag", ["--max-train-per-class", "--max-test-per-class",
                                  "--source-dir"])
def test_prepare_features_refuses_a_flag_it_never_reads(tmp_path, capsys, flag):
    views, labels = three_class_two_view_tables(tmp_path)
    value = make_idx_dir(tmp_path) if flag == "--source-dir" else "3"
    out = tmp_path / "cache" / "feat.mvcl"
    assert main(["prepare", "--protocol", "feat", "--features", *views,
                 "--labels-file", labels, flag, value, "--out", str(out)]) == EXIT_CONFIG
    assert capsys.readouterr().err == f"error: {flag} cannot be used with --features\n"
    assert not out.exists()


def test_prepare_refuses_labels_file_without_features(tmp_path, capsys):
    _, labels = three_class_two_view_tables(tmp_path)
    out = tmp_path / "cache" / "idx.mvcl"
    assert main(["prepare", "--protocol", "pmnist-3x2", "--source-dir", make_idx_dir(tmp_path),
                 "--labels-file", labels, "--out", str(out)]) == EXIT_CONFIG
    assert capsys.readouterr().err == "error: --labels-file cannot be used without --features\n"
    assert not out.exists()


def test_prepare_names_every_flag_it_would_ignore_in_one_message(tmp_path, capsys):
    views, labels = three_class_two_view_tables(tmp_path)
    config = tmp_path / "cfg.json"
    config.write_text("{}")
    idx = ["--source-dir", make_idx_dir(tmp_path)]
    features = ["--features", *views, "--labels-file", labels]
    for argv, message in (
            # only --features tables are split by --train-fraction
            (["--protocol", "pmnist-3x2", *idx, "--train-fraction", "0.3"],
             "--train-fraction cannot be used without --features"),
            # only synthesized views read the encoder section
            (["--protocol", "pmnist-3x2", *idx, "--set", "encoder.n=99"],
             "--set cannot be used with a p protocol"),
            (["--protocol", "pmnist-3x2", *idx, "--config", str(config)],
             "--config cannot be used with a p protocol"),
            (["--protocol", "feat", *features, "--config", str(config), "--set", "encoder.n=99"],
             "--config, --set cannot be used with --features"),
            (["--protocol", "pmnist-3x2", *idx, "--labels-file", labels, "--train-fraction",
              "0.3", "--config", str(config), "--set", "encoder.n=99"],
             "--labels-file, --train-fraction cannot be used without --features; "
             "--config, --set cannot be used with a p protocol"),
            (["--protocol", "feat", *features, "--source-dir", "x", "--set", "encoder.n=99"],
             "--source-dir, --set cannot be used with --features")):
        out = tmp_path / "cache" / "refused.mvcl"
        assert main(["prepare", *argv, "--out", str(out)]) == EXIT_CONFIG, argv
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()


def test_prepare_features_split_defaults_to_a_train_fraction_of_0_8(tmp_path, capsys):
    views, labels = three_class_two_view_tables(tmp_path)
    digests = []
    for name, extra in (("default", []), ("explicit", ["--train-fraction", "0.8"])):
        out = tmp_path / "cache" / f"{name}.mvcl"
        assert main(["prepare", "--protocol", "feat", "--features", *views,
                     "--labels-file", labels, "--out", str(out), *extra]) == EXIT_OK
        digests.append(hashlib.sha256(out.read_bytes()).hexdigest())
    capsys.readouterr()
    assert digests[0] == digests[1]
    data, _, _ = load_split(str(tmp_path / "cache" / "default.mvcl"))
    assert {b.num_samples for b in data.train} == {16}


def prepare_source(tmp_path, source):
    """The flags, each with its values, of a `prepare` from IDX files (`p`
    or `s`) or from tables."""
    if source == "features":
        views, labels = three_class_two_view_tables(tmp_path)
        return {"--protocol": ["feat"], "--features": views, "--labels-file": [labels]}
    idx = {"--protocol": [f"{source}mnist-3x2"], "--source-dir": [make_idx_dir(tmp_path)]}
    return {**idx, "--set": ["encoder.max_iter=2"]} if source == "s" else idx


def prepare_flag_value(tmp_path, source, flag):
    """Values, unlike the default and unlike `prepare_source`'s, for each
    `prepare` flag; a flag missing here fails the liveness test below."""
    other = tmp_path / "other"
    other.mkdir(exist_ok=True)
    if flag == "--features":
        return three_class_two_view_tables(other)[0][::-1]
    if flag == "--labels-file":
        labels = other / "y.txt"
        labels.write_text("\n".join(str(i % 3) for i in range(1, 61)) + "\n")
        return [str(labels)]
    if flag == "--config":
        config = other / "cfg.json"
        config.write_text('{"encoder": {"L": 4}}')
        return [str(config)]
    return {"--protocol": ["feat2" if source == "features" else f"{source}mnist-2x2"],
            "--source-dir": [make_idx_dir(other, seed=1)],
            "--train-fraction": ["0.5"], "--seed": ["1"], "--max-train-per-class": ["2"],
            "--max-test-per-class": ["2"], "--zscore": [], "--heldout": ["0:1"],
            "--set": ["encoder.n=3"], "--out": ["elsewhere.mvcl"]}[flag]


PREPARE_FLAGS = [a.option_strings[-1] for a in build_parser()._subparsers._group_actions[0]
                 .choices["prepare"]._actions if a.option_strings and a.dest != "help"]


@pytest.mark.parametrize("flag", PREPARE_FLAGS)
@pytest.mark.parametrize("source", ["p", "s", "features"])
def test_every_prepare_flag_changes_the_cache_or_is_refused(tmp_path, capsys, source, flag):
    # each flag a source is given either moves the cache (its bytes or its
    # path) or exits 2 naming the flag; none is silently ignored
    def prepare(flags):
        rc = main(["prepare", *(arg for f, values in flags.items() for arg in (f, *values))])
        return rc, *capsys.readouterr()

    base = prepare_source(tmp_path, source)
    rc, before, _ = prepare(base)
    assert rc == EXIT_OK
    rc, out, err = prepare({**base, flag: prepare_flag_value(tmp_path, source, flag)})
    if rc == EXIT_CONFIG:
        assert flag in err and "cannot be used" in err
    else:
        assert rc == EXIT_OK and out != before


def test_prepare_zscore_and_heldout(tmp_path, capsys):
    cache = prepare_cache(tmp_path, extra=["--zscore", "--heldout", "0:1"])
    capsys.readouterr()
    data, protocol, _ = load_split(cache)
    assert protocol.heldout_views == {0: frozenset({1})}
    stacked = np.concatenate(
        [b.inputs for b in data.train if b.view_id == 0], axis=0)
    assert np.allclose(stacked.mean(axis=0), 0.0, atol=1e-9)
    # a held-out pair is never streamed, so a cache may lack its training batch
    lean = str(tmp_path / "lean.mvcl")
    save_split(lean, SplitDataset([b for b in data.train if (b.class_id, b.view_id) != (0, 1)],
                                  data.test, data.num_classes, data.views_per_class,
                                  data.input_dim), protocol)
    assert len(load_split(lean)[0].train) == 3 * 2 - 1
    run_dir = str(tmp_path / "run_held")
    rc = main(["train", "--cache", cache, "--out", run_dir, *sets()])
    assert rc == EXIT_OK
    capsys.readouterr()
    with open(os.path.join(run_dir, "manifest.json")) as f:
        manifest = json.load(f)
    assert manifest["num_sessions"] == 3 * 2 - 1
    assert "familiar_view_eval" in manifest


def test_prepare_bare_out_name_goes_to_cache_dir(tmp_path, capsys):
    src = make_idx_dir(tmp_path)
    rc = main(["prepare", "--protocol", "pmnist-3x2", "--source-dir", src,
               "--seed", "0", "--out", "bare.mvcl"])
    assert rc == EXIT_OK
    capsys.readouterr()
    assert os.path.exists(tmp_path / "cache" / "bare.mvcl")
    # train resolves bare cache names against MVCIL_CACHE_DIR too
    rc = main(["train", "--cache", "bare.mvcl", *sets()])
    assert rc == EXIT_OK
    assert METRIC_RE.match(capsys.readouterr().out.strip().splitlines()[-1])


def test_working_directory_never_shadows_a_bare_cache_name(tmp_path, capsys, monkeypatch):
    rc = main(["prepare", "--protocol", "pmnist-3x2", "--source-dir", make_idx_dir(tmp_path),
               "--seed", "0", "--out", "x.mvcl"])
    assert rc == EXIT_OK
    # a 2-class cache of the same name in the working directory
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    rc = main(["prepare", "--protocol", "pmnist-2x2", "--source-dir",
               make_idx_dir(work, num_classes=2), "--seed", "0",
               "--out", os.path.join(".", "x.mvcl")])
    assert rc == EXIT_OK
    assert os.path.exists(work / "x.mvcl")
    capsys.readouterr()
    run_dir = str(tmp_path / "run")
    assert main(["train", "--cache", "x.mvcl", "--out", run_dir, *sets()]) == EXIT_OK
    with open(os.path.join(run_dir, "manifest.json")) as f:
        assert json.load(f)["protocol"]["num_classes"] == 3
    capsys.readouterr()
    printed = []
    for cache in ("x.mvcl", str(tmp_path / "cache" / "x.mvcl")):
        assert main(["eval", "--run", run_dir, "--cache", cache]) == EXIT_OK
        printed.append(capsys.readouterr().out)
    assert printed[0] == printed[1]


def test_missing_bare_cache_name_exits_3_naming_its_path(tmp_path, capsys):
    assert main(["train", "--cache", "absent.mvcl"]) == 3
    assert repr(str(tmp_path / "cache" / "absent.mvcl")) in capsys.readouterr().err


def test_config_errors_exit_2(tmp_path, capsys):
    src = make_idx_dir(tmp_path)
    retired = tmp_path / "retired.json"
    retired.write_text(json.dumps({"eval_cadence": "view"}))
    cases = [
        ["prepare", "--protocol", "p-3x2", "--source-dir", src],
        ["prepare", "--protocol", "xmnist-3x2", "--source-dir", src],
        ["prepare", "--protocol", "pmnist-0x2", "--source-dir", src],
        ["prepare", "--protocol", "pmnist-3x0", "--source-dir", src],
        ["prepare", "--protocol", "pmnist-3x2"],
        ["prepare", "--protocol", "pmnist-3x2", "--source-dir", src,
         "--set", "nope=1"],
        ["prepare", "--protocol", "pmnist-3x2", "--source-dir", src,
         "--set", "encoder.n=abc"],
        ["prepare", "--protocol", "pmnist-3x2", "--source-dir", src,
         "--set", "encoder.n"],
        # a p protocol refuses --set unread; an s protocol reads and checks it
        *(["prepare", "--protocol", "smnist-3x2", "--source-dir", src, "--set", kv]
          for kv in ("nope=1", "encoder.n=abc", "encoder.n")),
        ["prepare", "--protocol", "t", "--features", "f.csv"],
        ["prepare", "--protocol", "pmnist-3x2", "--source-dir", src,
         "--heldout", "0-1"],
        ["prepare", "--protocol", "pmnist-3x2", "--source-dir", src,
         "--max-train-per-class", "-1"],
        ["train", "--cache", "none.mvcl", "--config", str(retired)],
        ["train", "--cache", "none.mvcl", "--set", "consolidation.head_lr=0"],
        # NaN passes every bound check and would silently switch the penalty off
        ["train", "--cache", "none.mvcl", "--set", "consolidation.mu=nan"],
        # a retired key is unknown to --set; checked with the config,
        # before the cache is looked for
        ["train", "--cache", "none.mvcl", "--set", "fusion.activation=relu"],
    ]
    for argv in cases:
        assert main(argv) == 2, argv
        assert "error:" in capsys.readouterr().err
    # a config file that holds a JSON list, one that is not JSON, one that
    # writes a dotted key at its top level, and held-out entries that are not class:view
    as_list = tmp_path / "list.json"
    as_list.write_text(json.dumps([{"seed": 1}]))
    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{")
    not_text = tmp_path / "not_text.json"
    not_text.write_bytes(b"\xff")
    dotted = tmp_path / "dotted.json"
    dotted.write_text(json.dumps({"bogus": 1, "fusion.alpha": 0.5}))
    bogus2 = tmp_path / "bogus2.json"
    bogus2.write_text(json.dumps({"fusion": {"bogus2": 1}}))
    for argv, message in (
            (["train", "--cache", "none.mvcl", "--config", str(as_list)],
             f"{str(as_list)!r} must contain a JSON object"),
            (["train", "--cache", "none.mvcl", "--config", str(bad_json)],
             f"{str(bad_json)!r} is not valid JSON"),
            (["train", "--cache", "none.mvcl", "--config", str(not_text)],
             f"{str(not_text)!r} is not valid JSON"),
            # a dotted key at the top level is unknown, named with the other unknown keys
            (["train", "--cache", "none.mvcl", "--config", str(dotted)],
             "error: unknown config keys ['bogus', 'fusion.alpha']\n"),
            # unknown keys of the file and of --set, in one message
            (["train", "--cache", "none.mvcl", "--config", str(bogus2), "--set", "fusion.bogus=1"],
             "error: unknown config keys ['fusion.bogus', 'fusion.bogus2']\n"),
            # one refusal for every malformed entry, a missing colon included
            *((["prepare", "--protocol", "pmnist-3x2", "--source-dir", src, "--heldout", spec],
               f"error: held-out entry {item!r} is not class:view\n")
              for spec, item in (("a:1", "a:1"), ("1:2:3", "1:2:3"), ("0-1", "0-1"),
                                 ("0:1,2", "2"), ("0:", "0:")))):
        assert main(argv) == EXIT_CONFIG, argv
        assert message in capsys.readouterr().err
    # an override into a config section that is not an object
    not_object = tmp_path / "not_object.json"
    not_object.write_text(json.dumps({"fusion": 3}))
    assert main(["train", "--cache", "none.mvcl", "--config", str(not_object),
                 "--set", "fusion.width=10"]) == EXIT_CONFIG
    assert "config section 'fusion' must be an object" in capsys.readouterr().err
    # the formerly retired activation key is unknown, even at "tanh"
    for value in ("sigmoid", "tanh"):
        activation = tmp_path / f"{value}.json"
        activation.write_text(json.dumps({"fusion": {"activation": value}}))
        assert main(["train", "--cache", "none.mvcl", "--config", str(activation)]) == EXIT_CONFIG
        assert "unknown config keys ['fusion.activation']" in capsys.readouterr().err
    # a mistyped value is refused, naming its key, before any work starts
    for i, (raw, key) in enumerate([({"fusion": {"width": 2.5}}, "fusion.width"),
                                    ({"consolidation": {"batch_size": True}},
                                     "consolidation.batch_size"),
                                    ({"seed": 1.5}, "seed")]):
        mistyped = tmp_path / f"mistyped{i}.json"
        mistyped.write_text(json.dumps(raw))
        assert main(["train", "--cache", "none.mvcl", "--config", str(mistyped)]) == EXIT_CONFIG
        assert f"error: {key} must be int" in capsys.readouterr().err
    # a header claiming 2**31 images of 2**16 x 2**16 pixels
    huge = struct.pack(">IIII", IDX_IMAGES_MAGIC, 2**31, 2**16, 2**16)
    with open(os.path.join(src, "train-images-idx3-ubyte"), "wb") as f:
        f.write(huge)
    assert main(["prepare", "--protocol", "pmnist-3x2", "--source-dir", src]) == EXIT_CONFIG
    assert "says 2147483648 items" in capsys.readouterr().err


def test_cache_without_protocol_exits_2(tmp_path, capsys):
    # every cache embeds the protocol that streams it: one without is refused when read
    cache = prepare_cache(tmp_path)
    run_dir = str(tmp_path / "run1")
    main(["train", "--cache", cache, "--out", run_dir, *sets()])
    capsys.readouterr()
    header, arrays = read_container(cache)
    path = str(tmp_path / "noproto.mvcl")
    write_container(path, {k: v for k, v in header.items() if k != "protocol"}, arrays)
    for argv in (["train", "--cache", path], ["eval", "--run", run_dir, "--cache", path]):
        assert main(argv) == EXIT_CONFIG, argv
        assert f"{path!r} lacks entry 'protocol.name'" in capsys.readouterr().err


def test_malformed_checkpoint_or_cache_exits_2(tmp_path, capsys):
    cache = prepare_cache(tmp_path)
    run_dir = str(tmp_path / "run1")
    main(["train", "--cache", cache, "--out", run_dir, *sets()])
    capsys.readouterr()
    header, arrays = read_container(os.path.join(run_dir, "checkpoint.mvcl"))
    no_anchor = str(tmp_path / "no_anchor.mvcl")
    write_container(no_anchor, header, {k: v for k, v in arrays.items() if k != "head/anchor"})
    no_slots = str(tmp_path / "no_slots.mvcl")
    write_container(no_slots, {k: v for k, v in header.items() if k != "slot_to_class"}, arrays)
    bad = [(no_anchor, "head/anchor"), (no_slots, "slot_to_class")]
    # a header entry of the wrong kind
    bad.append((str(tmp_path / "int_slots.mvcl"), "slot_to_class"))
    write_container(bad[-1][0], {**header, "slot_to_class": 5}, arrays)
    for path, entry in bad:
        assert main(["eval", "--checkpoint", path, "--cache", cache]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert path in err and entry in err
    header, arrays = read_container(cache)
    no_inputs = str(tmp_path / "no_inputs.mvcl")
    write_container(no_inputs, header, {k: v for k, v in arrays.items() if k != "test/0/inputs"})
    bad = [(no_inputs, "test/0/inputs")]
    held = [("protocol.heldout_views", {"protocol": {**header["protocol"], "heldout_views": v}})
            for v in ({"0": 5}, {"0": ["a"]}, [1, 2])]
    # well-kinded protocol values that make no StreamProtocol
    held += [("'protocol'", {"protocol": {**header["protocol"], key: v}})
             for key, v in (("heldout_views", {"x": [1]}), ("class_order", [0, 0, 1]))]
    for i, (entry, change) in enumerate([
            ("batches.train", {"batches": {**header["batches"], "train": 5}}),
            ("batches.train", {"batches": {**header["batches"],
                                           "train": [[0], *header["batches"]["train"][1:]]}}),
            ("batches.test", {"batches": {**header["batches"],
                                          "test": [[0, 0, 0], *header["batches"]["test"][1:]]}}),
            ("num_classes", {"num_classes": "3"}),
            ("protocol.class_order", {"protocol": {**header["protocol"], "class_order": 7}}),
            *held]):
        bad.append((str(tmp_path / f"header{i}.mvcl"), entry))
        write_container(bad[-1][0], {**header, **change}, arrays)
    # a batch that fails ViewBatch or SplitDataset validation: the error names the entry
    bad.append((str(tmp_path / "class5.mvcl"), "entry 'batches': batch class_id 5 out of range"))
    write_container(bad[-1][0], {**header, "batches": {
        **header["batches"], "train": [[5, 0], *header["batches"]["train"][1:]]}}, arrays)
    bad.append((str(tmp_path / "short_labels.mvcl"), "entry 'train/0': labels shape"))
    write_container(bad[-1][0], header,
                    {**arrays, "train/0/labels": arrays["train/0/labels"][:-1]})
    # the protocol streams class 0, view 1, but the cache has no training batch for it
    data, protocol, _ = load_split(cache)
    bad.append((str(tmp_path / "gappy.mvcl"), "(0, 1)"))
    save_unrunnable(bad[-1][0],
                    SplitDataset([b for b in data.train if (b.class_id, b.view_id) != (0, 1)],
                                 data.test, data.num_classes, data.views_per_class,
                                 data.input_dim), protocol)
    # the protocol scores class 2, but the cache has no test batch for it
    bad.append((str(tmp_path / "untested.mvcl"), "no test samples for classes [2]"))
    save_unrunnable(bad[-1][0], SplitDataset(data.train, [b for b in data.test if b.class_id != 2],
                                             data.num_classes, data.views_per_class,
                                             data.input_dim), protocol)
    for path, entry in bad:
        assert main(["train", "--cache", path, *sets()]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert path in err and entry in err
    blob = (tmp_path / "run1" / "checkpoint.mvcl").read_bytes()
    bad_dtype = tmp_path / "bad_dtype.mvcl"
    bad_dtype.write_bytes(blob.replace(b"<f8", b"zzz", 1))
    list_header = tmp_path / "list_header.mvcl"
    list_header.write_bytes(MAGIC + struct.pack("<HI", VERSION, 2) + b"[]"
                            + struct.pack("<I", 0))
    for path, field in ((bad_dtype, "dtype"), (list_header, "header")):
        assert main(["eval", "--checkpoint", str(path), "--cache", cache]) == EXIT_CONFIG
        assert field in capsys.readouterr().err


def two_class_cache(tmp_path):
    """A 2-class x 2-view cache of 4 rows per batch, read back as written."""
    cache = prepare_cache(tmp_path, protocol="pmnist-2x2", extra=["--max-train-per-class", "4"])
    return read_container(cache)


@pytest.mark.parametrize("key, dtype, message", [
    # string labels once compared unequal to every prediction: avg_acc 0, exit 0
    ("test/0/labels", "<U3", "labels must be integers, got dtype '<U3'"),
    # complex inputs were cast to their real part with a warning
    ("train/0/inputs", np.complex128, "inputs must be real numbers, got dtype '<c16'"),
    # byte-string inputs escaped as a TypeError
    ("train/0/inputs", "|S8", "inputs must be real numbers, got dtype '|S8'"),
], ids=["string-labels", "complex-inputs", "bytes-inputs"])
def test_cache_array_of_a_foreign_dtype_exits_2(tmp_path, capsys, key, dtype, message):
    header, arrays = two_class_cache(tmp_path)
    path = str(tmp_path / "foreign.mvcl")
    write_container(path, header, {**arrays, key: arrays[key].astype(dtype)})
    capsys.readouterr()
    assert main(["train", "--cache", path, *sets()]) == EXIT_CONFIG
    entry = key.rsplit("/", 1)[0]
    assert capsys.readouterr().err == f"error: {path!r}, entry {entry!r}: {message}\n"


def test_cache_training_batch_labelled_as_another_class_exits_2(tmp_path, capsys):
    header, arrays = two_class_cache(tmp_path)
    assert header["batches"]["train"][0] == [0, 0]
    path = str(tmp_path / "relabelled.mvcl")
    write_container(path, header, {**arrays, "train/0/labels": arrays["train/0/labels"] + 1})
    capsys.readouterr()
    assert main(["train", "--cache", path, *sets()]) == EXIT_CONFIG
    assert capsys.readouterr().err == (
        f"error: {path!r}, entry 'protocol': the training batch of the (class, view) "
        "pair (0, 0) holds labels other than 0\n")


def test_cache_with_a_class_count_too_large_for_a_range_exits_2(tmp_path, capsys):
    header, arrays = two_class_cache(tmp_path)
    path = str(tmp_path / "huge.mvcl")
    write_container(path, {**header, "protocol": {**header["protocol"], "num_classes": 10**20}},
                    arrays)
    capsys.readouterr()
    assert main(["train", "--cache", path, *sets()]) == EXIT_CONFIG
    assert (f"{path!r}, entry 'protocol': class_order must be a permutation"
            in capsys.readouterr().err)


def test_cache_with_an_int_input_dim_and_a_huge_view_count_exits_2(tmp_path, capsys):
    # an int input_dim once expanded to one width per view, and raised
    # OverflowError for a view count beyond an index
    header, arrays = two_class_cache(tmp_path)
    path = str(tmp_path / "huge.mvcl")
    write_container(path, {**header, "views_per_class": 10**20, "input_dim": 3}, arrays)
    capsys.readouterr()
    assert main(["train", "--cache", path, *sets()]) == EXIT_CONFIG
    assert capsys.readouterr().err == f"error: {path!r}: entry 'input_dim' is malformed: 3\n"


@pytest.mark.parametrize("section, key, value, message", [
    # FISTA runs every iteration asked for, so a count past the bound is refused
    ("encoder", "max_iter", 10_001, "entry 'config': encoder.max_iter must be <= 10000, got 10001"),
    # the head projector is width x width: 7.28 TiB
    ("fusion", "width", 10**6, "error: Unable to allocate 7.28 TiB"),
])
def test_eval_of_a_checkpoint_past_its_bounds_exits_2(tmp_path, capsys, section, key, value,
                                                      message):
    cache = prepare_cache(tmp_path)
    run_dir = str(tmp_path / "run1")
    main(["train", "--cache", cache, "--out", run_dir, *sets()])
    header, arrays = read_container(os.path.join(run_dir, "checkpoint.mvcl"))
    config = {**header["config"], section: {**header["config"][section], key: value}}
    path = str(tmp_path / "big.mvcl")
    write_container(path, {**header, "config": config}, arrays)
    capsys.readouterr()
    assert main(["eval", "--checkpoint", path, "--cache", cache]) == EXIT_CONFIG
    assert message in capsys.readouterr().err


def test_a_one_unit_fusion_layer_trains(tmp_path, capsys):
    cache = prepare_cache(tmp_path)
    capsys.readouterr()
    assert main(["train", "--cache", cache, *sets("fusion.width=1")]) == EXIT_OK
    assert METRIC_RE.match(capsys.readouterr().out.strip().splitlines()[-1])


def test_eval_with_malformed_report_exits_2(tmp_path, capsys):
    cache = prepare_cache(tmp_path)
    run_dir = str(tmp_path / "run1")
    main(["train", "--cache", cache, "--out", run_dir, *sets()])
    report = os.path.join(run_dir, "report.csv")
    with open(report, "a") as f:
        f.write("2,1\r\n")
    capsys.readouterr()
    assert main(["eval", "--run", run_dir, "--cache", cache]) == EXIT_CONFIG
    assert report in capsys.readouterr().err


def test_eval_of_a_class_the_cache_cannot_test_exits_2(tmp_path, capsys):
    cache = prepare_cache(tmp_path)
    run_dir = str(tmp_path / "run1")
    main(["train", "--cache", cache, "--out", run_dir, *sets()])
    capsys.readouterr()
    data, protocol, _ = load_split(cache)
    gappy = str(tmp_path / "gappy.mvcl")
    save_unrunnable(gappy, SplitDataset(data.train, [b for b in data.test if b.class_id != 1],
                                        data.num_classes, data.views_per_class, data.input_dim),
                    protocol)
    # a complete two-class cache passes its own protocol's check; eval itself
    # refuses to score the run's third class on it
    two = prepare_cache(tmp_path, protocol="pmnist-2x2")
    capsys.readouterr()
    for path, refused, by_protocol in ((gappy, "[1]", True), (two, "[2]", False)):
        assert main(["eval", "--run", run_dir, "--cache", path]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert f"no test samples for classes {refused}" in captured.err
        assert ("entry 'protocol'" in captured.err) == by_protocol
        assert captured.out == ""


def test_eval_without_run_or_checkpoint_exits_2(tmp_path, capsys):
    cache = prepare_cache(tmp_path)
    capsys.readouterr()
    assert main(["eval", "--cache", cache]) == EXIT_CONFIG
    assert "--run or --checkpoint" in capsys.readouterr().err


def test_eval_of_a_checkpoint_that_has_seen_no_class_exits_2(tmp_path, capsys):
    # a model saved before its first session scores no class: no nan metric line
    cache = prepare_cache(tmp_path)
    path = str(tmp_path / "fresh.mvcl")
    Model(build_config(None, TINY)).save_checkpoint(path)
    capsys.readouterr()
    assert main(["eval", "--checkpoint", path, "--cache", cache]) == 2
    assert capsys.readouterr() == (
        "", f"error: {path!r} has seen no class, so there is nothing to evaluate\n")


def test_io_errors_exit_3(tmp_path, capsys):
    assert main(["train", "--cache", str(tmp_path / "missing.mvcl")]) == 3
    assert "i/o error" in capsys.readouterr().err
    assert main(["prepare", "--protocol", "pmnist-3x2",
                 "--source-dir", str(tmp_path / "nowhere")]) == 3
    missing = os.path.join(str(tmp_path / "nowhere"), "train-images-idx3-ubyte")
    assert capsys.readouterr().err == (
        f"i/o error: [Errno 2] No such file or directory: {missing!r}\n")
    assert main(["report", str(tmp_path / "norun")]) == 3


def test_numerical_failure_exits_4(tmp_path, capsys):
    cache = prepare_cache(tmp_path)
    capsys.readouterr()
    # penalty stiffness far past the head_lr * mu * fisher < 1 stability
    # bound: the anchored-column drift diverges and the quadratic penalty
    # overflows once a consolidated class is being protected
    with np.errstate(over="ignore", invalid="ignore"):
        rc = main(["train", "--cache", cache, *sets("consolidation.mu=1e300")])
    assert rc == 4
    assert "numerical failure" in capsys.readouterr().err


def test_report_aggregates_runs(tmp_path, capsys):
    runs = []
    for i, (mode, avg, bwt) in enumerate(
        [("full", 0.4, -0.2), ("full", 0.6, -0.1), ("net1_orth_only", 0.2, None)]
    ):
        run_dir = tmp_path / f"run{i}"
        run_dir.mkdir()
        manifest = {
            "protocol": {"name": "pmnist-3x2"},
            "config": {"mode": mode, "seed": i},
            "metrics": {"avg_acc": avg, "bwt": bwt},
        }
        with open(run_dir / "manifest.json", "w") as f:
            json.dump(manifest, f)
        runs.append(str(run_dir))
    csv_path = str(tmp_path / "agg.csv")
    rc = main(["report", *runs, "--csv", csv_path])
    assert rc == EXIT_OK
    out = capsys.readouterr().out
    assert "protocol: pmnist-3x2" in out
    with open(csv_path) as f:
        lines = f.read().splitlines()
    assert lines[0] == "mode,runs,avg_acc_mean,avg_acc_std,bwt_mean,bwt_std"
    assert "full,2,0.500000,0.100000,-0.150000,0.050000" in lines
    assert "net1_orth_only,1,0.200000,0.000000,," in lines


def test_report_reads_only_what_it_prints(tmp_path, capsys):
    def write(name, manifest):
        run_dir = tmp_path / name
        run_dir.mkdir()
        (run_dir / "manifest.json").write_text(json.dumps(manifest))
        return str(run_dir)

    seedless = write("seedless", {"protocol": {"name": "pmnist-3x2"},
                                  "config": {"mode": "full"},
                                  "metrics": {"avg_acc": 0.5, "bwt": None}})
    assert main(["report", seedless]) == EXIT_OK
    assert "full" in capsys.readouterr().out
    no_metrics = write("no_metrics", {"protocol": {"name": "pmnist-3x2"},
                                      "config": {"mode": "full", "seed": 0}})
    as_list = write("as_list", [1, 2])
    bad_json = str(tmp_path / "bad_json")
    os.mkdir(bad_json)
    with open(os.path.join(bad_json, "manifest.json"), "w") as f:
        f.write("{")
    cases = [(no_metrics, "metrics.avg_acc"), (as_list, "protocol.name"),
             (bad_json, "is not valid JSON")]
    for i, (metrics, key) in enumerate([({"avg_acc": "x", "bwt": None}, "metrics.avg_acc"),
                                        ({"avg_acc": True, "bwt": None}, "metrics.avg_acc"),
                                        ({"avg_acc": 0.5, "bwt": "y"}, "metrics.bwt")]):
        cases.append((write(f"bad{i}", {"protocol": {"name": "pmnist-3x2"},
                                        "config": {"mode": "full"}, "metrics": metrics}),
                      key))
    for run_dir, key in cases:
        # refused before the table header is printed
        assert main(["report", run_dir]) == EXIT_CONFIG
        out, err = capsys.readouterr()
        assert out == ""
        assert os.path.join(run_dir, "manifest.json") in err and key in err


def test_report_refuses_mixed_protocols(tmp_path, capsys):
    runs = []
    for i, name in enumerate(["pmnist-3x2", "smnist-3x2"]):
        run_dir = tmp_path / f"mix{i}"
        run_dir.mkdir()
        manifest = {
            "protocol": {"name": name},
            "config": {"mode": "full", "seed": i},
            "metrics": {"avg_acc": 0.5, "bwt": -0.1},
        }
        with open(run_dir / "manifest.json", "w") as f:
            json.dump(manifest, f)
        runs.append(str(run_dir))
    assert main(["report", *runs]) == EXIT_CONFIG
    assert "refusing to aggregate" in capsys.readouterr().err


def test_parse_overrides_types():
    out = parse_overrides(["seed=3", "fusion.alpha=0.5", "mode=full",
                           "fusion.projector_enabled=false",
                           "consolidation.max_steps_per_session=5"])
    assert out == {"seed": 3, "fusion.alpha": 0.5, "mode": "full",
                   "fusion.projector_enabled": False,
                   "consolidation.max_steps_per_session": 5}
    assert parse_overrides(["fusion.projector_enabled=True"]) == {
        "fusion.projector_enabled": True}
    with pytest.raises(ConfigError, match="not key=value"):
        parse_overrides(["seed"])
    with pytest.raises(ConfigError, match="cannot parse"):
        parse_overrides(["fusion.projector_enabled=maybe"])
    # an unknown key stays unparsed; the config reader refuses it with the rest
    assert parse_overrides(["bogus=1"]) == {"bogus": "1"}
    with pytest.raises(ConfigError, match=r"unknown config keys "
                                          r"\['bogus', 'consolidation.train_head_bias'\]$"):
        build_config(None, ["bogus=1", "consolidation.train_head_bias=false"])  # retired


def test_build_config_checks_mode_with_the_config():
    assert build_config(None, [], mode="net1").mode == "net1_orth_only"
    with pytest.raises(ConfigError, match="mode must be one of"):
        build_config(None, [], mode="bogus")


def test_config_file_plus_overrides(tmp_path, capsys):
    cache = prepare_cache(tmp_path)
    capsys.readouterr()
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "mode": "net2_orth_both",
        "encoder": {"n": 2, "L": 3, "max_iter": 3},
        "fusion": {"width": 8},
        "consolidation": {"epochs_per_session": 2},
    }))
    run_dir = str(tmp_path / "run_cfg")
    rc = main(["train", "--cache", cache, "--config", str(cfg_path),
               "--out", run_dir, "--set", "fusion.width=10"])
    assert rc == EXIT_OK
    capsys.readouterr()
    with open(os.path.join(run_dir, "manifest.json")) as f:
        manifest = json.load(f)
    assert manifest["config"]["mode"] == "net2_orth_both"
    assert manifest["config"]["fusion"]["width"] == 10  # --set wins


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("mvcil ")


def run_module(*argv, cwd):
    """`python -m mvcil *argv` in a fresh interpreter that finds mvcil on PYTHONPATH."""
    env = {**os.environ, "PYTHONPATH": SRC}
    return subprocess.run([sys.executable, "-m", "mvcil", *argv], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)


def test_module_entry_point_prints_the_version(tmp_path):
    done = run_module("--version", cwd=tmp_path)
    assert (done.returncode, done.stdout, done.stderr) == (0, f"mvcil {__version__}\n", "")


def test_module_entry_point_exits_with_the_cli_code(tmp_path):
    done = run_module("train", "--cache", str(tmp_path / "missing.mvcl"), cwd=tmp_path)
    assert done.returncode == 3
    assert done.stderr.startswith("i/o error: ") and "missing.mvcl" in done.stderr
