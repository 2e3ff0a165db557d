import json
import os

import numpy as np
import pytest

from mvcil import container, trainer
from mvcil.dataset import SplitDataset, StreamProtocol, ViewBatch, stream_sessions
from mvcil.evaluation import parse_report
from mvcil.orthogonal_fusion import Projector
from mvcil.sparse_features import ExtractionConfig
from mvcil.trainer import (
    ConfigError,
    ConsolidationConfig,
    FusionConfig,
    Model,
    RunConfig,
    config_field_types,
    run,
)


def tiny_data(num_classes=3, views=2, dim=12, n_train=10, n_test=6, seed=0,
              heldout=None):
    rng = np.random.default_rng(seed)
    train, test = [], []
    for c in range(num_classes):
        center = rng.standard_normal(dim)
        for v in range(views):
            shift = rng.standard_normal(dim) * 0.2
            for pool, n in ((train, n_train), (test, n_test)):
                pool.append(ViewBatch(
                    c, v, center + shift + 0.3 * rng.standard_normal((n, dim)),
                    np.full(n, c, np.int64),
                ))
    data = SplitDataset(train, test, num_classes, views, dim)
    protocol = StreamProtocol("toy", num_classes, views,
                              tuple(range(num_classes)), 0, heldout)
    return data, protocol


def tiny_config(**overrides):
    kwargs = dict(
        seed=0,
        mode="full",
        encoder=ExtractionConfig(n=2, L=3, max_iter=3),
        fusion=FusionConfig(width=8),
        consolidation=ConsolidationConfig(epochs_per_session=2, head_lr=3e-3),
    )
    kwargs.update(overrides)
    return RunConfig(**kwargs)


def model_arrays(model):
    out = [model.head.weights, model.head.bias, model.head.anchor,
           model.head.fisher_sum]
    out += [model.fusion.weights, model.fusion.bias, model.fusion.projector.P]
    if model.head_projector is not None:
        out.append(model.head_projector.P)
    return out


def test_run_is_deterministic_per_seed():
    data, protocol = tiny_data()
    a = run(tiny_config(), data, protocol)
    b = run(tiny_config(), data, protocol)
    c = run(tiny_config(seed=1), data, protocol)
    for x, y in zip(model_arrays(a.model), model_arrays(b.model)):
        assert np.array_equal(x, y)
    assert a.avg_acc == b.avg_acc
    assert not np.array_equal(a.model.head.weights, c.model.head.weights)


def test_modes_wire_penalty_and_projectors():
    full = Model(tiny_config(mode="full"))
    net1 = Model(tiny_config(mode="net1_orth_only"))
    net2 = Model(tiny_config(mode="net2_orth_both"))
    assert full.head.mu == 1000.0 and full.head_projector is not None
    assert net1.head.mu == 0.0 and net1.head_projector is None
    assert net2.head.mu == 0.0 and net2.head_projector is not None


def test_out_of_order_stream_rejected():
    data, _ = tiny_data()
    model = Model(tiny_config())
    model.train_session(data.train_batch(0, 0))
    model.train_session(data.train_batch(1, 0))
    with pytest.raises(ValueError, match="out-of-order"):
        model.train_session(data.train_batch(0, 1))


def test_slot_labels_follow_arrival_order():
    data, _ = tiny_data(num_classes=3, views=1)
    model = Model(tiny_config())
    for cid in (2, 0, 1):
        model.train_session(data.train_batch(cid, 0))
    assert model.slot_to_class == [2, 0, 1]
    preds = model.predict_labels([b for b in data.test if b.class_id == 0][0])
    assert set(preds.tolist()) <= {0, 1, 2}  # predictions are class ids, not slots


def test_state_size_independent_of_sessions_per_class():
    few, _ = tiny_data(num_classes=2, views=2)
    many, _ = tiny_data(num_classes=2, views=6)
    sizes = []
    for data in (few, many):
        model = Model(tiny_config())
        for c in range(data.num_classes):
            for v in range(data.views_per_class):
                model.train_session(data.train_batch(c, v))
        model.finish_stream()
        sizes.append(model.state_size_bytes())
    assert sizes[0] == sizes[1]


def test_state_size_counts_live_arrays_and_encoders():
    data, protocol = tiny_data()
    model = run(tiny_config(), data, protocol).model
    want = sum(a.nbytes for a in model_arrays(model))
    for enc in model.encoders.values():
        want += sum(w.nbytes for w in enc.weights) + sum(b.nbytes for b in enc.biases)
    assert model.state_size_bytes() == want


def test_checkpoint_round_trip(tmp_path):
    data, protocol = tiny_data()
    res = run(tiny_config(), data, protocol)
    path = str(tmp_path / "ckpt.mvcl")
    res.model.save_checkpoint(path)
    loaded = Model.load_checkpoint(path)
    for x, y in zip(model_arrays(res.model), model_arrays(loaded)):
        assert np.array_equal(x, y)
    assert loaded.slot_to_class == res.model.slot_to_class
    assert loaded.head.classes_consolidated == res.model.head.classes_consolidated
    for batch in data.test:
        assert np.array_equal(res.model.predict_labels(batch),
                              loaded.predict_labels(batch))


def test_resume_at_every_class_boundary_matches_uninterrupted(tmp_path):
    data, protocol = tiny_data(num_classes=4, views=2)
    sessions = list(stream_sessions(protocol, data))
    whole = Model(tiny_config())
    for batch in sessions:
        whole.train_session(batch)
    whole.finish_stream()
    boundaries = [i for i in range(1, len(sessions))
                  if sessions[i].class_id != sessions[i - 1].class_id]
    assert len(boundaries) == 3
    for cut in boundaries:
        first = Model(tiny_config())
        for batch in sessions[:cut]:
            first.train_session(batch)
        path = str(tmp_path / f"cut{cut}.mvcl")
        first.save_checkpoint(path)
        resumed = Model.load_checkpoint(path)
        for batch in sessions[cut:]:
            resumed.train_session(batch)
        resumed.finish_stream()
        for x, y in zip(model_arrays(whole), model_arrays(resumed)):
            assert np.array_equal(x, y), f"resumed at session {cut}"


def test_legacy_checkpoint_keys_are_ignored(tmp_path):
    # checkpoints from earlier versions also stored mu as an array, four
    # derived or unread header keys, and three retired config switches at
    # their defaults; they still load the same model
    data, protocol = tiny_data()
    res = run(tiny_config(), data, protocol)
    path = str(tmp_path / "legacy.mvcl")
    res.model.save_checkpoint(path)
    header, arrays = container.read_container(path)
    header.update(current_class=2, classes_consolidated=3,
                  fusion_0_samples_absorbed=60, head_projector_samples=60)
    header["config"]["eval_cadence"] = "class"
    header["config"]["fusion"]["projector_reset_per_class"] = False
    header["config"]["consolidation"]["train_head_bias"] = False
    arrays["head/mu"] = np.array([res.model.head.mu])
    container.write_container(path, header, arrays)
    loaded = Model.load_checkpoint(path)
    for x, y in zip(model_arrays(res.model), model_arrays(loaded)):
        assert np.array_equal(x, y)
    assert loaded.head.mu == res.model.head.mu
    assert loaded.config == res.model.config
    for batch in data.test:
        assert np.array_equal(res.model.predict_labels(batch),
                              loaded.predict_labels(batch))


def test_pending_fisher_pools_every_view_of_the_class(tmp_path, monkeypatch):
    data, _ = tiny_data(num_classes=2, views=3)
    original = trainer.fisher_diag
    estimates = []

    def recording(*args):
        estimates.append(original(*args))
        return estimates[-1]

    monkeypatch.setattr(trainer, "fisher_diag", recording)
    model = Model(tiny_config())
    model.train_session(data.train_batch(0, 0))
    # the second class: a lone first class has a vanishing Fisher
    for v in range(3):
        model.train_session(data.train_batch(1, v))
    path = str(tmp_path / "mid.mvcl")
    model.save_checkpoint(path)
    header, arrays = container.read_container(path)
    assert header["pending_fisher_samples"] == 3 * 10
    # equal view sizes: the sample-weighted mean is the plain mean
    want = np.mean([e.diag for e in estimates[-3:]], axis=0)
    assert np.any(want > 0)
    np.testing.assert_allclose(arrays["head/pending_fisher"], want, rtol=1e-12)


def test_finished_checkpoint_has_no_pending_fisher(tmp_path):
    data, protocol = tiny_data()
    out = str(tmp_path / "run")
    run(tiny_config(), data, protocol, out_dir=out)
    header, arrays = container.read_container(os.path.join(out, "checkpoint.mvcl"))
    assert "head/pending_fisher" not in arrays
    assert "pending_fisher_samples" not in header


def test_fusion_layer_trains_and_absorbs_every_row(monkeypatch):
    data, protocol = tiny_data()
    init = Model(tiny_config())
    rows: dict[int, int] = {}
    absorb = Projector.absorb

    def counting(self, z, *args):
        rows[id(self)] = rows.get(id(self), 0) + np.atleast_2d(z).shape[0]
        absorb(self, z, *args)

    monkeypatch.setattr(Projector, "absorb", counting)
    res = run(tiny_config(), data, protocol)
    assert res.model.fusion.weights.shape == (6, 8)
    assert not np.allclose(res.model.fusion.weights, init.fusion.weights)
    assert rows[id(res.model.fusion.projector)] == 3 * 2 * 10


def test_checkpoint_kind_guard(tmp_path):
    path = str(tmp_path / "not_ckpt.mvcl")
    container.write_container(path, {"kind": "split_dataset"}, {})
    with pytest.raises(container.ContainerError, match="not a checkpoint"):
        Model.load_checkpoint(path)


def test_config_round_trip_and_rejects_unknown():
    cfg = tiny_config(mode="net2_orth_both")
    back = RunConfig.from_dict(cfg.to_dict())
    assert back == cfg
    raw = cfg.to_dict()
    raw["fusion"]["bogus"] = 1
    with pytest.raises(ConfigError, match="unknown config keys in fusion"):
        RunConfig.from_dict(raw)
    with pytest.raises(ConfigError, match="unknown config key"):
        RunConfig.from_dict({"nope": 1})
    with pytest.raises(ConfigError, match="must be an object"):
        RunConfig.from_dict({"fusion": 3})
    with pytest.raises(ConfigError, match="schema_version"):
        RunConfig.from_dict({"schema_version": 99})
    # the decoder always fits the linear codes; the old knob is gone
    with pytest.raises(ConfigError, match="unknown config keys in encoder"):
        RunConfig.from_dict({"encoder": {"code_activation": "linear"}})


@pytest.mark.parametrize("section, key, other", [
    (None, "eval_cadence", "view"),
    ("fusion", "projector_reset_per_class", True),
    ("fusion", "depth", 2),
    ("consolidation", "train_head_bias", True),
])
def test_retired_keys_load_only_at_their_fixed_value(section, key, other):
    raw = tiny_config().to_dict()
    target = raw if section is None else raw[section]
    assert key not in target
    target[key] = other
    with pytest.raises(ConfigError, match=key):
        RunConfig.from_dict(raw)


def test_config_validation():
    with pytest.raises(ConfigError, match="mode"):
        RunConfig(mode="net3")
    with pytest.raises(ConfigError, match="alpha"):
        FusionConfig(alpha=0.0)
    with pytest.raises(ConfigError, match="head_lr"):
        ConsolidationConfig(head_lr=-1.0)
    # zero no longer stands for a second mode
    with pytest.raises(ConfigError, match="head_lr"):
        ConsolidationConfig(head_lr=0.0)
    with pytest.raises(ConfigError, match="max_steps_per_session"):
        ConsolidationConfig(max_steps_per_session=0)
    with pytest.raises(ConfigError, match="imprint_scale"):
        ConsolidationConfig(imprint_scale=0.0)
    # NaN fails every comparison, so it would pass the bound checks alone
    with pytest.raises(ConfigError, match="consolidation.mu"):
        RunConfig(consolidation=ConsolidationConfig(mu=float("nan")))
    with pytest.raises(ConfigError, match="fusion.alpha"):
        RunConfig.from_dict({"fusion": {"alpha": float("inf")}})


def test_config_field_types_cover_all_knobs():
    types = config_field_types()
    assert types["seed"] is int
    assert types["fusion.alpha"] is float
    assert types["fusion.projector_enabled"] is bool
    assert types["consolidation.max_steps_per_session"] is int
    assert types["encoder.activation"] is str
    # every dotted key parses back to a dataclass field
    assert all("." in k or k in ("seed", "mode") for k in types)
    # a new knob must change this count on purpose
    assert len(types) == 19


def test_run_writes_report_checkpoint_manifest(tmp_path):
    data, protocol = tiny_data()
    out = str(tmp_path / "out")
    res = run(tiny_config(), data, protocol, out_dir=out)
    matrix = parse_report(os.path.join(out, "report.csv"))
    assert np.array_equal(matrix.R, res.matrix.R, equal_nan=True)
    loaded = Model.load_checkpoint(os.path.join(out, "checkpoint.mvcl"))
    assert np.array_equal(loaded.head.weights, res.model.head.weights)
    with open(os.path.join(out, "manifest.json")) as f:
        manifest = json.load(f)
    assert manifest["metrics"]["avg_acc"] == res.avg_acc
    assert manifest["metrics"]["bwt"] == res.bwt
    assert manifest["num_sessions"] == protocol.num_sessions
    assert manifest["state_size_bytes"] == res.model.state_size_bytes()
    assert RunConfig.from_dict(manifest["config"]) == tiny_config()
    assert StreamProtocol.from_dict(manifest["protocol"]) == protocol


def test_heldout_views_never_trained_and_reported():
    held = {1: frozenset({1})}
    data, protocol = tiny_data(heldout=held)
    res = run(tiny_config(), data, protocol)
    assert res.manifest["num_sessions"] == 3 * 2 - 1
    fam = res.manifest["familiar_view_eval"]
    assert set(fam) == {"heldout_per_class", "heldout_accuracy",
                       "shared_accuracy", "gap"}
    assert list(fam["heldout_per_class"]) == ["1"]
    assert fam["gap"] == pytest.approx(
        fam["heldout_accuracy"] - fam["shared_accuracy"])


def test_imprint_seeds_new_head_column_from_hidden_mean():
    data, protocol = tiny_data(num_classes=1, views=1)
    batch = data.train[0]

    model = Model(tiny_config())
    model.train_session(batch)
    # a lone first class gets no gradient (single-class softmax saturates),
    # so the column must still equal the imprint exactly
    h = model.fusion.forward(model.extract(batch))
    m = h.mean(axis=0)
    want = m * (model.config.consolidation.imprint_scale / float(m @ m))
    np.testing.assert_allclose(model.head.weights[:, 0], want, rtol=1e-12)
