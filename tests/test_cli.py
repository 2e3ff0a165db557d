import gzip
import hashlib
import json
import os
import re
import struct

import numpy as np
import pytest

from mvcil.cli import (
    EXIT_CONFIG,
    EXIT_IO,
    EXIT_NUMERIC,
    EXIT_OK,
    build_config,
    main,
    parse_overrides,
)
from mvcil.container import MAGIC, VERSION, read_container, write_container
from mvcil.dataset import (
    IDX_IMAGES_MAGIC,
    IDX_LABELS_MAGIC,
    ViewBatch,
    SplitDataset,
    load_split,
    save_split,
)
from mvcil.trainer import ConfigError

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
    assert rc == EXIT_OK
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


def test_prepare_zscore_and_heldout(tmp_path, capsys):
    cache = prepare_cache(tmp_path, extra=["--zscore", "--heldout", "0:1"])
    capsys.readouterr()
    data, protocol, _ = load_split(cache)
    assert protocol.heldout_views == {0: frozenset({1})}
    stacked = np.concatenate(
        [b.inputs for b in data.train if b.view_id == 0], axis=0)
    assert np.allclose(stacked.mean(axis=0), 0.0, atol=1e-9)
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
        assert main(argv) == EXIT_CONFIG, argv
        assert "error:" in capsys.readouterr().err
    # an override into a config section that is not an object
    not_object = tmp_path / "not_object.json"
    not_object.write_text(json.dumps({"fusion": 3}))
    assert main(["train", "--cache", "none.mvcl", "--config", str(not_object),
                 "--set", "fusion.width=10"]) == EXIT_CONFIG
    assert "config section 'fusion' must be an object" in capsys.readouterr().err
    # a config file may hold a retired activation key only at "tanh"
    sigmoid = tmp_path / "sigmoid.json"
    sigmoid.write_text(json.dumps({"fusion": {"activation": "sigmoid"}}))
    assert main(["train", "--cache", "none.mvcl", "--config", str(sigmoid)]) == EXIT_CONFIG
    assert "fusion.activation" in capsys.readouterr().err
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
    batch = ViewBatch(0, 0, np.ones((2, 3)), np.zeros(2, np.int64))
    data = SplitDataset([batch], [batch], 1, 1, 3)
    path = str(tmp_path / "noproto.mvcl")
    save_split(path, data)
    assert main(["train", "--cache", path]) == EXIT_CONFIG
    assert "does not embed a protocol" in capsys.readouterr().err


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
    for path, entry in ((no_anchor, "head/anchor"), (no_slots, "slot_to_class")):
        assert main(["eval", "--checkpoint", path, "--cache", cache]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert path in err and entry in err
    header, arrays = read_container(cache)
    no_inputs = str(tmp_path / "no_inputs.mvcl")
    write_container(no_inputs, header, {k: v for k, v in arrays.items() if k != "test/0/inputs"})
    assert main(["train", "--cache", no_inputs, *sets()]) == EXIT_CONFIG
    assert "test/0/inputs" in capsys.readouterr().err
    blob = (tmp_path / "run1" / "checkpoint.mvcl").read_bytes()
    bad_dtype = tmp_path / "bad_dtype.mvcl"
    bad_dtype.write_bytes(blob.replace(b"<f8", b"zzz", 1))
    list_header = tmp_path / "list_header.mvcl"
    list_header.write_bytes(MAGIC + struct.pack("<HI", VERSION, 2) + b"[]"
                            + struct.pack("<I", 0))
    for path, field in ((bad_dtype, "dtype"), (list_header, "header")):
        assert main(["eval", "--checkpoint", str(path), "--cache", cache]) == EXIT_CONFIG
        assert field in capsys.readouterr().err


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
    save_split(gappy, SplitDataset(data.train, [b for b in data.test if b.class_id != 1],
                                   data.num_classes, data.views_per_class, data.input_dim),
               protocol)
    assert main(["eval", "--run", run_dir, "--cache", gappy]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert "no test samples for classes [1]" in captured.err
    assert captured.out == ""


def test_eval_without_run_or_checkpoint_exits_2(tmp_path, capsys):
    cache = prepare_cache(tmp_path)
    capsys.readouterr()
    assert main(["eval", "--cache", cache]) == EXIT_CONFIG
    assert "--run or --checkpoint" in capsys.readouterr().err


def test_io_errors_exit_3(tmp_path, capsys):
    assert main(["train", "--cache", str(tmp_path / "missing.mvcl")]) == EXIT_IO
    assert "i/o error" in capsys.readouterr().err
    assert main(["prepare", "--protocol", "pmnist-3x2",
                 "--source-dir", str(tmp_path / "nowhere")]) == EXIT_IO
    capsys.readouterr()
    assert main(["report", str(tmp_path / "norun")]) == EXIT_IO


def test_numerical_failure_exits_4(tmp_path, capsys):
    cache = prepare_cache(tmp_path)
    capsys.readouterr()
    # penalty stiffness far past the head_lr * mu * fisher < 1 stability
    # bound: the anchored-column drift diverges and the quadratic penalty
    # overflows once a consolidated class is being protected
    with np.errstate(over="ignore", invalid="ignore"):
        rc = main(["train", "--cache", cache, *sets("consolidation.mu=1e300")])
    assert rc == EXIT_NUMERIC
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
    cases = [(no_metrics, "metrics.avg_acc"), (as_list, "protocol.name")]
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
    with pytest.raises(ConfigError, match="unknown config key"):
        parse_overrides(["bogus=1"])
    with pytest.raises(ConfigError, match="unknown config key"):
        parse_overrides(["consolidation.train_head_bias=false"])  # retired
    with pytest.raises(ConfigError, match="cannot parse"):
        parse_overrides(["fusion.projector_enabled=maybe"])


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
