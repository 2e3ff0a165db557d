import copy
import gc
import json
import os
import re
import weakref

import numpy as np
import pytest

from mvcil import container, evaluation, trainer
from mvcil.consolidation import swc_loss_and_grad
from mvcil.dataset import SplitDataset, StreamProtocol, ViewBatch, derive_seed, stream_sessions
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
    out = [model.head.weights, model.head.anchor, model.head.fisher_sum]
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
        want += enc.weights.nbytes + enc.bias.nbytes
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
    # checkpoints from earlier versions also stored mu as an array, the
    # head's always-zero bias, four derived or unread header keys, and six
    # retired config keys at their defaults; they still load the same model
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
    header["config"]["encoder"]["activation"] = "tanh"
    header["config"]["fusion"]["activation"] = "tanh"
    header["config"]["consolidation"]["imprint_scale"] = 2.0
    assert RunConfig.from_dict(header["config"]) == res.model.config
    arrays["head/mu"] = np.array([res.model.head.mu])
    arrays["head/bias"] = np.zeros(len(res.model.slot_to_class))
    container.write_container(path, header, arrays)
    loaded = Model.load_checkpoint(path)
    for x, y in zip(model_arrays(res.model), model_arrays(loaded)):
        assert np.array_equal(x, y)
    assert loaded.head.mu == res.model.head.mu
    assert loaded.config == res.model.config
    assert not hasattr(loaded.head, "bias")
    for batch in data.test:
        assert np.array_equal(res.model.predict_labels(batch),
                              loaded.predict_labels(batch))


@pytest.fixture(scope="module")
def tiny_checkpoint(tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("tiny_checkpoint")
    data, protocol = tiny_data()
    run(tiny_config(), data, protocol, out_dir=str(out_dir))
    return container.read_container(str(out_dir / "checkpoint.mvcl"))


# (id, corruption of (header, head weights) -> (header changes, array
# changes), the array the error must name)
CORRUPT_CHECKPOINTS = [
    ("slot-without-head-column",
     lambda header, w: ({"slot_to_class": header["slot_to_class"] + [9]}, {}), "head/weights"),
    ("narrow-head", lambda header, w: ({}, {"head/weights": w[:, :-1]}), "head/weights"),
    ("short-fisher", lambda header, w: ({}, {"head/fisher_sum": w[:-1]}), "head/fisher_sum"),
    ("anchor-wider-than-head",
     lambda header, w: ({}, {"head/anchor": np.hstack([w, w[:, :1]])}), "head/anchor"),
    ("short-anchor", lambda header, w: ({}, {"head/anchor": w[:-1, :1]}), "head/anchor"),
    ("fusion-bias", lambda header, w: ({}, {"fusion/0/bias": np.zeros(9)}), "fusion/0/bias"),
    ("fusion-projector",
     lambda header, w: ({}, {"fusion/0/projector": np.eye(5)}), "fusion/0/projector"),
    ("head-projector", lambda header, w: ({}, {"head_projector": np.eye(9)}), "head_projector"),
    ("narrow-pending-fisher",
     lambda header, w: ({"pending_fisher_samples": 10}, {"head/pending_fisher": w[:, :-1]}),
     "head/pending_fisher"),
]


@pytest.mark.parametrize("corrupt, name", [pytest.param(c, n, id=i)
                                           for i, c, n in CORRUPT_CHECKPOINTS])
def test_checkpoint_shapes_must_match_config_and_slots(tiny_checkpoint, tmp_path,
                                                       corrupt, name):
    header, arrays = tiny_checkpoint
    header_changes, array_changes = corrupt(header, arrays["head/weights"])
    path = str(tmp_path / "corrupt.mvcl")
    container.write_container(path, {**header, **header_changes}, {**arrays, **array_changes})
    with pytest.raises(container.ContainerError, match=re.escape(f"{name} has shape")):
        Model.load_checkpoint(path)


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


def per_step_projection_loop(model, feats, slot_labels, project):
    """The supervised loop with the projection applied to the gradient at
    every step, W -= eta * P @ (x.T @ da), or plain descent W -= eta * x.T @ da
    when project is False; same RNG stream and step budget as the trainer."""
    cfg = model.config
    n = feats.shape[0]
    bs = min(cfg.consolidation.batch_size, n)
    rng = np.random.default_rng(derive_seed(cfg.seed, 0xB5, model.session_index))
    P = model.fusion.projector.P
    steps = 0
    for _ in range(cfg.consolidation.epochs_per_session):
        perm = rng.permutation(n)
        for start in range(0, n, bs):
            if steps >= cfg.consolidation.max_steps_per_session:
                return steps
            steps += 1
            idx = perm[start : start + bs]
            x = feats[idx]
            h, dact = model.fusion.forward_with_grad(x)
            grads = swc_loss_and_grad(model.head, h, slot_labels[idx])
            step_w = grads.grad_w
            if model.head_projector is not None:
                step_w = model.head_projector.P @ step_w
            model.head.weights = model.head.weights - cfg.consolidation.head_lr * step_w
            da = grads.grad_hidden * dact
            grad_w = x.T @ da
            if project:
                grad_w = P @ grad_w
            model.fusion.weights = model.fusion.weights - cfg.fusion.eta * grad_w
            model.fusion.bias = model.fusion.bias - cfg.fusion.eta * da.sum(axis=0)
    return steps


def two_sessions_then_third(fusion, max_steps_per_session=7):
    """A model after sessions (0, 0) and (1, 0), plus the features and slot
    labels of session (1, 1). Each session has 10 samples, batch 4 and 3
    epochs: 9 steps unless the budget binds first."""
    data, _ = tiny_data(num_classes=2, views=2)
    model = Model(tiny_config(
        fusion=fusion,
        consolidation=ConsolidationConfig(epochs_per_session=3, batch_size=4,
                                          max_steps_per_session=max_steps_per_session,
                                          head_lr=3e-3),
    ))
    model.train_session(data.train_batch(0, 0))
    model.train_session(data.train_batch(1, 0))
    batch = data.train_batch(1, 1)
    return model, model.extract(batch), np.full(batch.num_samples, 1, np.int64)


# the budget binds at 7 steps; at 20 the epochs run out first, after 9
@pytest.mark.parametrize("max_steps, steps", [(7, 7), (20, 9)])
def test_session_projection_matches_per_step_projection(max_steps, steps):
    model, feats, labels = two_sessions_then_third(FusionConfig(width=8), max_steps)
    assert not np.allclose(model.fusion.projector.P, np.eye(6))
    ref = copy.deepcopy(model)
    W0 = model.fusion.weights.copy()
    model._supervised_loop(feats, labels)
    assert per_step_projection_loop(ref, feats, labels, project=True) == steps
    assert not np.allclose(model.fusion.weights, W0)
    for got, want in ((model.fusion.weights, ref.fusion.weights),
                      (model.fusion.bias, ref.fusion.bias),
                      (model.head.weights, ref.head.weights)):
        np.testing.assert_allclose(got, want, rtol=1e-12)


def test_disabled_projector_steps_by_plain_descent():
    model, feats, labels = two_sessions_then_third(
        FusionConfig(width=8, projector_enabled=False))
    ref = copy.deepcopy(model)
    model._supervised_loop(feats, labels)
    per_step_projection_loop(ref, feats, labels, project=False)
    assert np.array_equal(model.fusion.projector.P, np.eye(6))
    assert np.array_equal(model.fusion.weights, ref.fusion.weights)
    assert np.array_equal(model.fusion.bias, ref.fusion.bias)
    assert np.array_equal(model.head.weights, ref.head.weights)


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
    ("encoder", "activation", "sigmoid"),
    ("fusion", "activation", "sigmoid"),
    ("consolidation", "imprint_scale", 3.0),
])
def test_retired_keys_load_only_at_their_fixed_value(section, key, other):
    raw = tiny_config().to_dict()
    target = raw if section is None else raw[section]
    assert key not in target
    target[key] = other
    with pytest.raises(ConfigError, match=key):
        RunConfig.from_dict(raw)


def test_no_retired_key_names_a_live_field():
    # retired keys are dropped before the unknown-key check, so a retired
    # key that named a live field would silently discard that setting
    assert not set(trainer.RETIRED) & set(config_field_types())


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
    with pytest.raises(ConfigError, match="fusion.head_projector_alpha"):
        FusionConfig(head_projector_alpha=0.0)
    # NaN fails every comparison, so it would pass the bound checks alone
    with pytest.raises(ConfigError, match="consolidation.mu"):
        RunConfig(consolidation=ConsolidationConfig(mu=float("nan")))
    with pytest.raises(ConfigError, match="fusion.alpha"):
        RunConfig.from_dict({"fusion": {"alpha": float("inf")}})
    with pytest.raises(ConfigError, match="fusion.activation"):
        RunConfig.from_dict({"fusion": {"activation": "relu"}})


def test_config_field_types_cover_all_knobs():
    types = config_field_types()
    assert types["seed"] is int
    assert types["fusion.alpha"] is float
    assert types["fusion.projector_enabled"] is bool
    assert types["consolidation.max_steps_per_session"] is int
    assert "encoder.activation" not in types
    # every dotted key parses back to a dataclass field
    assert all("." in k or k in ("seed", "mode") for k in types)
    # a new knob must change this count on purpose
    assert len(types) == 16


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
    assert manifest["num_sessions"] == len(list(stream_sessions(protocol, data)))
    assert manifest["state_size_bytes"] == res.model.state_size_bytes()
    assert RunConfig.from_dict(manifest["config"]) == tiny_config()
    assert StreamProtocol.from_dict(manifest["protocol"]) == protocol


def test_run_missing_a_training_batch_fails_before_writing(tmp_path):
    data, protocol = tiny_data()
    gappy = SplitDataset(data.train[:-1], data.test, data.num_classes,
                         data.views_per_class, data.input_dim)
    out = tmp_path / "out"
    with pytest.raises(KeyError, match="class 2, view 1"):
        run(tiny_config(), gappy, protocol, out_dir=str(out))
    assert not out.exists()


def test_failed_manifest_write_keeps_the_previous_one(tmp_path, monkeypatch):
    data, protocol = tiny_data()
    out = tmp_path / "out"
    run(tiny_config(), data, protocol, out_dir=str(out))
    before = (out / "manifest.json").read_bytes()

    def fail(*args, **kwargs):
        raise OSError("disk full")

    monkeypatch.setattr(trainer.json, "dump", fail)
    with pytest.raises(OSError, match="disk full"):
        run(tiny_config(seed=1), data, protocol, out_dir=str(out))
    assert (out / "manifest.json").read_bytes() == before
    assert not list(out.glob("*.tmp"))


def test_eval_cache_keeps_no_batch_alive():
    data, protocol = tiny_data()
    model = Model(tiny_config())
    for batch in stream_sessions(protocol, data):
        model.train_session(batch)
    refs = []
    for i in range(50):
        src = data.test[i % len(data.test)]
        batch = ViewBatch(src.class_id, src.view_id, src.inputs.copy(), src.labels.copy())
        model.predict_labels(batch)
        refs.append(weakref.ref(batch))
    del batch
    gc.collect()
    assert all(ref() is None for ref in refs)
    # outside run() a batch the caller still holds is extracted afresh
    held = data.test[0]
    first = model.features_for_eval(held)
    again = model.features_for_eval(held)
    assert again is not first
    assert np.array_equal(again, first)
    assert model._eval_memo is None


def test_batch_changed_in_place_predicts_as_its_fresh_copy():
    data, protocol = tiny_data()
    model = run(tiny_config(), data, protocol).model
    src, other = data.test[0], data.test[-1]
    batch = ViewBatch(src.class_id, src.view_id, src.inputs.copy(), src.labels.copy())
    before = model.predict_labels(batch)
    batch.inputs[...] = other.inputs
    fresh = ViewBatch(other.class_id, other.view_id, other.inputs.copy(),
                      other.labels.copy())
    want = model.predict_labels(fresh)
    # the two inputs must score differently, or the check shows nothing
    assert not np.array_equal(want, before)
    assert np.array_equal(model.predict_labels(batch), want)


def test_loaded_model_holds_no_features_after_predicting(tmp_path):
    data, protocol = tiny_data()
    run(tiny_config(), data, protocol, out_dir=str(tmp_path))
    model = Model.load_checkpoint(str(tmp_path / "checkpoint.mvcl"))
    for batch in data.test:
        model.predict_labels(batch)
    assert model._eval_memo is None


def test_run_extracts_once_per_session_and_test_batch(monkeypatch):
    held = {1: frozenset({1})}
    data, protocol = tiny_data(heldout=held)
    extracted = []
    real = Model.extract

    def counting(self, batch):
        extracted.append(batch)
        return real(self, batch)

    monkeypatch.setattr(Model, "extract", counting)
    res = run(tiny_config(), data, protocol)
    sessions = list(stream_sessions(protocol, data))
    # every class boundary evaluates all of data.test, and the held-out
    # views are scored once more after the stream, all from the memo
    assert len(extracted) == len(sessions) + len(data.test)
    assert {id(b) for b in extracted} == {id(b) for b in sessions + data.test}
    assert "familiar_view_eval" in res.manifest


def test_finished_run_keeps_no_test_features():
    data, protocol = tiny_data()
    res = run(tiny_config(), data, protocol)
    assert res.model._eval_memo is None
    # the model still predicts as it did for the final row
    final = evaluation.evaluate_classes(res.model, data.test, res.model.slot_to_class)
    assert final == list(res.matrix.R[-1])


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
    want = m * (trainer.IMPRINT_SCALE / float(m @ m))
    np.testing.assert_allclose(model.head.weights[:, 0], want, rtol=1e-12)
