import gc
import inspect
import json
import os
import re
import time
import weakref

import numpy as np
import pytest

import spec
from mvcil import container, evaluation, trainer
from mvcil.cli import EXIT_CONFIG, main
from mvcil.consolidation import IMPRINT_SCALE, DecisionHead
from mvcil.dataset import (
    SplitDataset,
    StreamProtocol,
    ViewBatch,
    load_feature_views,
    save_split,
    stream_sessions,
)
from mvcil.evaluation import parse_report
from mvcil.orthogonal_fusion import FusionLayer, Projector
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
    data, protocol = tiny_data()
    pool = protocol.check(data)
    model = Model(tiny_config())
    model.train_session(pool[0, 0])
    model.train_session(pool[1, 0])
    model.train_session(pool[2, 0])
    # the message names the newest class, the only one a session may continue
    with pytest.raises(ValueError, match="^out-of-order session: class 0 reappeared after "
                                         "class 2$"):
        model.train_session(pool[0, 1])


def test_slot_labels_follow_arrival_order():
    data, protocol = tiny_data(num_classes=3, views=1)
    pool = protocol.check(data)
    model = Model(tiny_config())
    for cid in (2, 0, 1):
        model.train_session(pool[cid, 0])
    assert model.slot_to_class == [2, 0, 1]
    preds = model.predict_labels([b for b in data.test if b.class_id == 0][0])
    assert set(preds.tolist()) <= {0, 1, 2}  # predictions are class ids, not slots


def test_state_size_independent_of_sessions_per_class():
    sizes = []
    for views in (2, 6):
        data, protocol = tiny_data(num_classes=2, views=views)
        model = Model(tiny_config())
        for batch in stream_sessions(protocol, data):
            model.train_session(batch)
        model.finish_stream()
        sizes.append(model.state_size_bytes())
    assert sizes[0] == sizes[1]


def test_a_checkpoint_saved_before_the_first_session_resumes(tmp_path):
    # `mvcil eval` refuses it, but it loads, and a stream resumed from it is the whole stream
    path = str(tmp_path / "fresh.mvcl")
    Model(tiny_config()).save_checkpoint(path)
    resumed = Model.load_checkpoint(path)
    assert (resumed.slot_to_class, resumed.session_index) == ([], 0)
    data, protocol = tiny_data()
    whole = run(tiny_config(), data, protocol).model
    for batch in stream_sessions(protocol, data):
        resumed.train_session(batch)
    resumed.finish_stream()
    for x, y in zip(model_arrays(whole), model_arrays(resumed)):
        assert np.array_equal(x, y)


def test_mu_0_pools_nothing_and_trains_as_net2_orth_both():
    # net2_orth_both is full without the consolidation penalty: at mu = 0
    # the two are one learner, and no Fisher is pooled or anchored
    data, protocol = tiny_data()
    cons = ConsolidationConfig(mu=0.0, epochs_per_session=2, head_lr=3e-3)
    full = run(tiny_config(consolidation=cons), data, protocol)
    net2 = run(tiny_config(mode="net2_orth_both", consolidation=cons), data, protocol)
    for x, y in zip(model_arrays(full.model), model_arrays(net2.model)):
        assert np.array_equal(x, y)
    assert np.array_equal(full.matrix.R, net2.matrix.R, equal_nan=True)
    assert full.model.head.anchor.shape == (8, 0)
    assert not full.model.head.fisher_sum.any()


def test_any_positive_mu_pools_a_fisher_estimate():
    data, protocol = tiny_data(num_classes=1, views=1)
    model = Model(tiny_config(consolidation=ConsolidationConfig(mu=0.5)))
    model.train_session(protocol.check(data)[0, 0])
    assert model.head.pending.sample_count == 10


def test_component_defaults_restate_the_run_config_defaults():
    def defaults(f):
        return {name: p.default for name, p in inspect.signature(f).parameters.items()}

    cfg = RunConfig()
    assert defaults(DecisionHead)["mu"] == cfg.consolidation.mu
    assert defaults(Projector)["alpha"] == cfg.fusion.alpha == cfg.fusion.head_projector_alpha
    fusion = defaults(FusionLayer)
    assert (fusion["eta"], fusion["alpha"], fusion["seed"]) == (cfg.fusion.eta, cfg.fusion.alpha,
                                                                cfg.seed)
    assert defaults(load_feature_views)["seed"] == cfg.seed


def test_loaded_model_builds_its_encoder_on_first_use(tmp_path):
    data, protocol = tiny_data()
    trained = run(tiny_config(), data, protocol).model
    path = str(tmp_path / "ckpt.mvcl")
    trained.save_checkpoint(path)
    assert "encoder_dims" not in container.read_container(path)[0]
    loaded = Model.load_checkpoint(path)
    # the seed fixes each encoder, so none is built until a batch needs it
    assert loaded.encoders == {}
    assert loaded.state_size_bytes() == sum(a.nbytes for a in model_arrays(loaded))
    loaded.predict_labels(data.test[0])
    assert list(loaded.encoders) == list(trained.encoders) == [12]
    for attr in ("weights", "bias"):
        assert np.array_equal(getattr(loaded.encoders[12], attr),
                              getattr(trained.encoders[12], attr))
    assert loaded.state_size_bytes() == trained.state_size_bytes()


@pytest.mark.parametrize("side, tested_view", [("streamed", 1), ("held-out", 0)])
def test_heldout_protocol_needs_test_samples_of_both_sides(tmp_path, monkeypatch,
                                                           side, tested_view):
    # view 1 of both classes is held out; the test pool keeps only one view,
    # so one side of the held-out comparison has no samples
    data, protocol = tiny_data(num_classes=2, views=2,
                               heldout={0: frozenset({1}), 1: frozenset({1})})
    data.test = [b for b in data.test if b.view_id == tested_view]
    message = f"a held-out protocol needs test samples of {side} views"
    path = tmp_path / "gappy.mvcl"
    with pytest.raises(ValueError, match=message):
        save_split(str(path), data, protocol)
    assert not path.exists()
    # refused before the stream starts, not after it is trained
    monkeypatch.setattr(Model, "train_session",
                        lambda self, batch: pytest.fail("trained a session"))
    with pytest.raises(ValueError, match=message):
        run(tiny_config(), data, protocol)


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
    assert loaded.head.anchor.shape == res.model.head.anchor.shape
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


def test_checkpoint_ignores_extra_header_keys_and_arrays(tmp_path, capsys):
    # checkpoints from earlier versions also stored mu as an array, the
    # head's always-zero bias and five derived or unread header keys, among
    # them the encoder widths the seed fixes; a checkpoint holding them loads
    # the same model
    data, protocol = tiny_data()
    res = run(tiny_config(), data, protocol)
    path = str(tmp_path / "legacy.mvcl")
    res.model.save_checkpoint(path)
    header, arrays = container.read_container(path)
    header.update(current_class=2, classes_consolidated=3,
                  fusion_0_samples_absorbed=60, head_projector_samples=60, encoder_dims=[12])
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
    # a config key that earlier versions wrote is refused, naming the
    # checkpoint and its config entry
    header["config"]["eval_cadence"] = "class"
    container.write_container(path, header, arrays)
    with pytest.raises(container.ContainerError, match=r"'config': unknown config keys"):
        Model.load_checkpoint(path)
    cache = str(tmp_path / "toy.mvcl")
    save_split(cache, data, protocol)
    assert main(["eval", "--checkpoint", path, "--cache", cache]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert path in err and "'config'" in err and "eval_cadence" in err


@pytest.fixture(scope="module")
def tiny_checkpoint(tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("tiny_checkpoint")
    data, protocol = tiny_data()
    run(tiny_config(), data, protocol, out_dir=str(out_dir))
    return container.read_container(str(out_dir / "checkpoint.mvcl"))


# (id, corruption of (header, head weights) -> (header changes, array
# changes), the start of the error: the array or header entry it names and
# what is wrong)
CORRUPT_CHECKPOINTS = [
    ("slot-without-head-column",
     lambda header, w: ({"slot_to_class": header["slot_to_class"] + [9]}, {}),
     "head/weights has shape"),
    ("narrow-head", lambda header, w: ({}, {"head/weights": w[:, :-1]}), "head/weights has shape"),
    ("short-fisher", lambda header, w: ({}, {"head/fisher_sum": w[:-1]}),
     "head/fisher_sum has shape"),
    ("anchor-wider-than-head",
     lambda header, w: ({}, {"head/anchor": np.hstack([w, w[:, :1]])}), "head/anchor has shape"),
    ("short-anchor", lambda header, w: ({}, {"head/anchor": w[:-1, :1]}), "head/anchor has shape"),
    ("fusion-bias", lambda header, w: ({}, {"fusion/0/bias": np.zeros(9)}),
     "fusion/0/bias has shape"),
    ("fusion-projector",
     lambda header, w: ({}, {"fusion/0/projector": np.eye(5)}), "fusion/0/projector has shape"),
    ("head-projector", lambda header, w: ({}, {"head_projector": np.eye(9)}),
     "head_projector has shape"),
    ("narrow-pending-fisher",
     lambda header, w: ({"pending_fisher_samples": 10}, {"head/pending_fisher": w[:, :-1]}),
     "head/pending_fisher has shape"),
    # the right shape, but the weights truncated to integers
    ("int-head-weights", lambda header, w: ({}, {"head/weights": w.astype(np.int64)}),
     "head/weights has dtype int64"),
    # the right shape and dtype, but entries that are not finite
    ("nan-head-weights", lambda header, w: ({}, {"head/weights": np.full_like(w, np.nan)}),
     "head/weights has non-finite entries"),
    ("inf-fusion-projector",
     lambda header, w: ({}, {"fusion/0/projector": np.full((6, 6), np.inf)}),
     "fusion/0/projector has non-finite entries"),
    ("nan-pending-fisher",
     lambda header, w: ({"pending_fisher_samples": 10},
                        {"head/pending_fisher": np.full_like(w, np.nan)}),
     "head/pending_fisher has non-finite entries"),
    # header entries of the wrong kind, and slot ids that repeat
    ("list-config", lambda header, w: ({"config": []}, {}), "entry 'config' is malformed"),
    ("int-slots", lambda header, w: ({"slot_to_class": 5}, {}),
     "entry 'slot_to_class' is malformed"),
    ("repeated-slots", lambda header, w: ({"slot_to_class": [0] * w.shape[1]}, {}),
     "slot_to_class repeats or is < 0"),
    # a slot id that predict_labels cannot hold as an int64
    ("oversized-slot",
     lambda header, w: ({"slot_to_class": [*range(w.shape[1] - 1), 2**63]}, {}),
     "slot_to_class repeats or is < 0 or >= 2**63"),
    # well-kinded header values out of range
    ("negative-session-index", lambda header, w: ({"session_index": -1}, {}),
     "session_index is < 0"),
    ("no-pending-fisher-samples",
     lambda header, w: ({"pending_fisher_samples": 0}, {"head/pending_fisher": np.zeros_like(w)}),
     "head/pending_fisher: Fisher estimate needs at least one sample"),
    ("negative-pending-fisher",
     lambda header, w: ({"pending_fisher_samples": 10}, {"head/pending_fisher": -np.ones_like(w)}),
     "head/pending_fisher: Fisher diagonal must be nonnegative"),
]


@pytest.mark.parametrize("corrupt, message", [pytest.param(c, m, id=i)
                                              for i, c, m in CORRUPT_CHECKPOINTS])
def test_checkpoint_shapes_must_match_config_and_slots(tiny_checkpoint, tmp_path,
                                                       corrupt, message):
    header, arrays = tiny_checkpoint
    header_changes, array_changes = corrupt(header, arrays["head/weights"])
    path = str(tmp_path / "corrupt.mvcl")
    container.write_container(path, {**header, **header_changes}, {**arrays, **array_changes})
    with pytest.raises(container.ContainerError, match=re.escape(message)):
        Model.load_checkpoint(path)


def test_a_checkpoint_slot_id_past_the_class_count_loads(tiny_checkpoint, tmp_path):
    # any id an int64 holds is a class id
    header, arrays = tiny_checkpoint
    slots = [*header["slot_to_class"][:-1], 200]
    path = str(tmp_path / "slot200.mvcl")
    container.write_container(path, {**header, "slot_to_class": slots}, arrays)
    assert Model.load_checkpoint(path).slot_to_class == slots


def test_pending_fisher_pools_every_view_of_the_class(tmp_path, monkeypatch):
    data, protocol = tiny_data(num_classes=2, views=3)
    pool = protocol.check(data)
    original = trainer.fisher_diag
    estimates = []

    def recording(*args):
        estimates.append(original(*args))
        return estimates[-1]

    monkeypatch.setattr(trainer, "fisher_diag", recording)
    model = Model(tiny_config())
    model.train_session(pool[0, 0])
    # the second class: a lone first class has a vanishing Fisher
    for v in range(3):
        model.train_session(pool[1, v])
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


def test_library_writes_native_little_endian_arrays(tmp_path):
    # the container stores arrays as given, so caches and checkpoints stay
    # byte-identical only while the library hands it <f8 and <i8 arrays
    data, protocol = tiny_data()
    save_split(str(tmp_path / "cache.mvcl"), data, protocol)
    run(tiny_config(), data, protocol, out_dir=str(tmp_path / "run"))
    model = Model(tiny_config())
    pool = protocol.check(data)
    model.train_session(pool[0, 0])
    model.train_session(pool[1, 0])
    model.save_checkpoint(str(tmp_path / "mid.mvcl"))
    for name in ("cache.mvcl", "run/checkpoint.mvcl", "mid.mvcl"):
        _, arrays = container.read_container(str(tmp_path / name))
        assert {a.dtype.str for a in arrays.values()} <= {"<f8", "<i8"}, name
    assert "head/pending_fisher" in arrays


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


def per_step_projection_loop(model, feats, slot_labels):
    """The session's steps as the spec takes them (`spec.supervised_steps`),
    each fusion gradient projected by P, from a copy of `model`'s state;
    returns the spec's learner after them and its step count."""
    head_p = None if model.head_projector is None else model.head_projector.P.copy()
    ref = spec.Learner(model.config, model.fusion.weights.copy(), model.fusion.bias.copy(),
                       model.fusion.projector.P.copy(), model.head.weights.copy(),
                       model.head.anchor.copy(), model.head.fisher_sum.copy(), head_p,
                       model.head.mu, sessions=model.session_index)
    return ref, spec.supervised_steps(ref, feats, slot_labels)


# the two encoders give a width-8 layer d = 6 and d = 40 inputs: on 10-row
# sessions the trainer steps the first per step and the second in sample
# space, where that costs fewer multiply-adds
PER_STEP = ExtractionConfig(n=2, L=3, max_iter=3)
SAMPLE_SPACE = ExtractionConfig(n=10, L=4, max_iter=3)


def two_sessions_then_third(fusion, max_steps_per_session=7, encoder=PER_STEP):
    """A model after sessions (0, 0) and (1, 0), plus the features and slot
    labels of session (1, 1). Each session has 10 samples, batch 4 and 3
    epochs: 9 steps unless the budget binds first."""
    data, protocol = tiny_data(num_classes=2, views=2)
    pool = protocol.check(data)
    model = Model(tiny_config(
        encoder=encoder,
        fusion=fusion,
        consolidation=ConsolidationConfig(epochs_per_session=3, batch_size=4,
                                          max_steps_per_session=max_steps_per_session,
                                          head_lr=3e-3),
    ))
    model.train_session(pool[0, 0])
    model.train_session(pool[1, 0])
    batch = pool[1, 1]
    return model, model.extract(batch), np.full(batch.num_samples, 1, np.int64)


def counting_steps(monkeypatch):
    """Counts FusionLayer.orthogonal_step calls from here on."""
    calls = []
    step = FusionLayer.orthogonal_step

    def counting(self, *args):
        calls.append(1)
        step(self, *args)

    monkeypatch.setattr(FusionLayer, "orthogonal_step", counting)
    return calls


# the budget binds at 7 steps; at 20 the epochs run out first, after 9.
# forced: `_sample_space_pays` gives the opposite answer, so each encoder
# runs both window shapes (one window per step, or one over the whole plan)
@pytest.mark.parametrize("encoder, max_steps, steps, forced", [
    pytest.param(encoder, max_steps, steps, forced, id=name + "-forced" * forced)
    for encoder, max_steps, steps, name in [(PER_STEP, 7, 7, "7-7"), (PER_STEP, 20, 9, "20-9"),
                                            (SAMPLE_SPACE, 7, 7, "sample-space-7-7"),
                                            (SAMPLE_SPACE, 20, 9, "sample-space-20-9")]
    for forced in (False, True)
])
def test_session_projection_matches_per_step_projection(monkeypatch, encoder, max_steps,
                                                        steps, forced):
    model, feats, labels = two_sessions_then_third(FusionConfig(width=8), max_steps, encoder)
    d = encoder.n * encoder.L
    assert not np.allclose(model.fusion.projector.P, np.eye(d))
    ref, ref_steps = per_step_projection_loop(model, feats, labels)
    W0 = model.fusion.weights.copy()
    whole_plan = (encoder is SAMPLE_SPACE) != forced
    if forced:
        pays = trainer._sample_space_pays
        monkeypatch.setattr(trainer, "_sample_space_pays", lambda *args: not pays(*args))
    calls = counting_steps(monkeypatch)
    model._supervised_loop(feats, labels)
    assert ref_steps == steps
    assert len(calls) == (1 if whole_plan else steps)
    assert not np.allclose(model.fusion.weights, W0)
    for got, want in ((model.fusion.weights, ref.W), (model.fusion.bias, ref.b),
                      (model.head.weights, ref.head)):
        np.testing.assert_allclose(got, want, rtol=1e-12)


@pytest.mark.parametrize("encoder", [pytest.param(PER_STEP, id="per-step"),
                                     pytest.param(SAMPLE_SPACE, id="sample-space")])
def test_disabled_projector_steps_by_plain_descent(monkeypatch, encoder):
    model, feats, labels = two_sessions_then_third(
        FusionConfig(width=8, projector_enabled=False), encoder=encoder)
    # P stays the identity, so the spec's projected steps are plain descent
    d = encoder.n * encoder.L
    assert np.array_equal(model.fusion.projector.P, np.eye(d))
    ref, steps = per_step_projection_loop(model, feats, labels)
    calls = counting_steps(monkeypatch)
    model._supervised_loop(feats, labels)
    pairs = ((model.fusion.weights, ref.W), (model.fusion.bias, ref.b),
             (model.head.weights, ref.head))
    if encoder is PER_STEP:
        assert len(calls) == steps
        for got, want in pairs:
            assert np.array_equal(got, want)
    else:
        # sample space sums the same steps in another order
        assert len(calls) == 1
        for got, want in pairs:
            np.testing.assert_allclose(got, want, rtol=1e-12)


# the benchmark's layer (d = 600, width 200) under the default step plan
@pytest.mark.parametrize("n, sample_space", [(64, True), (128, True), (600, True),
                                             (640, True), (641, False), (1500, False),
                                             (4000, False)])
def test_sample_space_only_where_it_pays(n, sample_space):
    plan = trainer._step_plan(np.random.default_rng(0), n, ConsolidationConfig())
    visits = sum(map(len, plan))
    assert trainer._sample_space_pays(n, visits, 600, 200) is sample_space


def test_sample_space_leaves_the_layer_unwritten_on_a_bad_step(monkeypatch):
    model, _, _ = two_sessions_then_third(FusionConfig(width=8), 20, SAMPLE_SPACE)
    W0, b0 = model.fusion.weights.copy(), model.fusion.bias.copy()
    calls = counting_steps(monkeypatch)
    real = trainer.swc_loss_and_grad
    seen = []

    def bad_at_third_step(*args):
        grads = real(*args)
        seen.append(1)
        if len(seen) == 3:
            grads.grad_hidden[0, 0] = np.nan
        return grads

    monkeypatch.setattr(trainer, "swc_loss_and_grad", bad_at_third_step)
    data, protocol = tiny_data(num_classes=2, views=2)
    with pytest.raises(FloatingPointError, match="non-finite"):
        model.train_session(protocol.check(data)[1, 1])
    assert len(seen) > 3 and calls == []
    assert np.array_equal(model.fusion.weights, W0)
    assert np.array_equal(model.fusion.bias, b0)


def test_checkpoint_kind_guard(tmp_path):
    path = str(tmp_path / "not_ckpt.mvcl")
    container.write_container(path, {"kind": "split_dataset"}, {})
    with pytest.raises(container.ContainerError, match="not a checkpoint"):
        Model.load_checkpoint(path)


def test_config_round_trip_and_rejects_unknown():
    cfg = tiny_config(mode="net2_orth_both")
    back = RunConfig.from_dict(cfg.to_dict())
    assert back == cfg
    # dotted overrides go on top of the nested form, or of the defaults
    assert RunConfig.from_dict(cfg.to_dict(), {"fusion.alpha": 0.5, "seed": 4}) == tiny_config(
        mode="net2_orth_both", fusion=FusionConfig(width=8, alpha=0.5), seed=4)
    assert RunConfig.from_dict({}, {"encoder.n": 3}) == RunConfig(encoder=ExtractionConfig(n=3))
    with pytest.raises(ConfigError, match=r"unknown config keys \['fusion.bogus', 'nope'\]"):
        RunConfig.from_dict({"nope": 1}, {"fusion.bogus": 2})
    raw = cfg.to_dict()
    raw["fusion"]["bogus"] = 1
    with pytest.raises(ConfigError, match=r"unknown config keys \['fusion.bogus'\]"):
        RunConfig.from_dict(raw)
    with pytest.raises(ConfigError, match="unknown config key"):
        RunConfig.from_dict({"nope": 1})
    # a dotted key belongs to overrides, not to the nested form
    with pytest.raises(ConfigError, match=re.escape("unknown config keys ['fusion.alpha']")):
        RunConfig.from_dict({"fusion.alpha": 0.5})
    with pytest.raises(ConfigError,
                       match=re.escape("unknown config keys ['fusion.alpha', 'nope']")):
        RunConfig.from_dict({"fusion.alpha": 0.5}, {"nope": 1})
    with pytest.raises(ConfigError, match="must be an object"):
        RunConfig.from_dict({"fusion": 3})
    with pytest.raises(ConfigError, match="must be an object"):
        RunConfig.from_dict({"fusion": 3}, {"fusion.width": 10})
    with pytest.raises(ConfigError, match="config must be an object"):
        RunConfig.from_dict([])
    with pytest.raises(ConfigError, match="schema_version"):
        RunConfig.from_dict({"schema_version": 99})
    # the decoder always fits the linear codes; the old knob is gone
    with pytest.raises(ConfigError, match=r"unknown config keys \['encoder.code_activation'\]"):
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
def test_retired_keys_are_now_unknown(section, key, other):
    # keys that earlier versions wrote; each once loaded at the one value the
    # code kept, and is now unknown at that value too
    fixed = {"eval_cadence": "class", "projector_reset_per_class": False, "depth": 1,
             "train_head_bias": False, "activation": "tanh", "imprint_scale": 2.0}[key]
    dotted = key if section is None else f"{section}.{key}"
    assert dotted not in config_field_types()
    for value in (fixed, other):
        raw = tiny_config().to_dict()
        target = raw if section is None else raw[section]
        target[key] = value
        with pytest.raises(ConfigError, match=rf"unknown config keys \[{dotted!r}\]"):
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


def test_run_records_counts_times_and_its_schema(tmp_path):
    data, protocol = tiny_data()
    # class 1 loses a test view, so each class has its own test count
    data = SplitDataset(data.train, [b for b in data.test if (b.class_id, b.view_id) != (1, 1)],
                        data.num_classes, data.views_per_class, data.input_dim)
    out = str(tmp_path / "out")
    start = time.perf_counter()
    run(tiny_config(), data, protocol, out_dir=out)
    wall = time.perf_counter() - start
    with open(os.path.join(out, "manifest.json")) as f:
        manifest = json.load(f)
    assert manifest["schema_version"] == 1
    seconds = manifest["session_seconds"]
    assert len(seconds) == manifest["num_sessions"] == 6
    assert min(seconds) >= 0 and sum(seconds) <= wall
    matrix = parse_report(os.path.join(out, "report.csv"))
    tested = {0: 12, 1: 6, 2: 12}
    for after, slot in zip(*np.nonzero(matrix.mask)):
        assert matrix.n_samples[after, slot] == tested[manifest["slot_to_class"][slot]]


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


@pytest.mark.parametrize("split, keep, match", [
    ("train", lambda b: (b.class_id, b.view_id) != (2, 1), r"\(2, 1\)"),
    ("test", lambda b: b.class_id != 2, r"no test samples for classes \[2\]"),
], ids=["train", "test"])
def test_run_missing_a_training_batch_fails_before_writing(tmp_path, monkeypatch,
                                                           split, keep, match):
    data, protocol = tiny_data()
    pools = {"train": data.train, "test": data.test}
    pools[split] = [b for b in pools[split] if keep(b)]
    gappy = SplitDataset(pools["train"], pools["test"], data.num_classes,
                         data.views_per_class, data.input_dim)

    def no_model(config):
        raise AssertionError("run() built a model before refusing the dataset")

    monkeypatch.setattr(trainer, "Model", no_model)
    out = tmp_path / "out"
    with pytest.raises(ValueError, match=match):
        run(tiny_config(), gappy, protocol, out_dir=str(out))
    assert not out.exists()


def test_run_refuses_a_repeated_training_pair_before_its_first_session(tmp_path,
                                                                      monkeypatch):
    data, protocol = tiny_data()
    first = data.train[0]
    again = ViewBatch(0, 0, first.inputs[:5], first.labels[:5])
    twice = SplitDataset(data.train + [again], data.test, data.num_classes,
                         data.views_per_class, data.input_dim)
    sessions = []
    monkeypatch.setattr(Model, "train_session", lambda self, batch: sessions.append(batch))
    out = tmp_path / "out"
    with pytest.raises(ValueError, match=r"two training batches claim the \(class, view\) "
                                         r"pair \(0, 0\)"):
        run(tiny_config(), twice, protocol, out_dir=str(out))
    assert sessions == [] and not out.exists()


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
    want = m * (IMPRINT_SCALE / float(m @ m))
    np.testing.assert_allclose(model.head.weights[:, 0], want, rtol=1e-12)
