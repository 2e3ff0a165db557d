import dataclasses
import importlib
import inspect
import os
import re
import sys

import pytest

import mvcil
from mvcil.consolidation import HeadGradients
from mvcil.dataset import save_split

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")

REMOVED = ("SparseCoder", "encode", "fusion_forward", "orthogonal_step",
           "projector_direct", "emit_embeddings", "lipschitz_constant",
           "head_forward", "apply_activation", "activation_derivative", "ACTIVATIONS",
           "soft_threshold")


def test_every_exported_name_resolves():
    for name in mvcil.__all__:
        assert getattr(mvcil, name) is not None, name


def test_exports_sorted_and_unique():
    assert list(mvcil.__all__) == sorted(set(mvcil.__all__))


@pytest.mark.parametrize("name", REMOVED)
def test_removed_names_are_gone(name):
    assert name not in mvcil.__all__
    assert not hasattr(mvcil, name)
    for module in ("sparse_features", "orthogonal_fusion", "evaluation", "consolidation"):
        assert not hasattr(importlib.import_module(f"mvcil.{module}"), name)


def test_removed_members_and_parameters_are_gone():
    assert not hasattr(mvcil.RandomEncoder, "encode")
    assert not hasattr(mvcil.RandomEncoder, "create")
    assert "seed" not in {f.name for f in dataclasses.fields(mvcil.RandomEncoder)}
    assert not hasattr(mvcil.StreamProtocol, "num_sessions")
    assert not hasattr(mvcil.ExtractionConfig, "make_coder")
    assert "code_activation" not in {f.name for f in dataclasses.fields(mvcil.ExtractionConfig)}
    assert list(inspect.signature(mvcil.fista_fit).parameters) == ["Z", "X", "lam", "K"]
    assert "extra_header" not in inspect.signature(save_split).parameters
    assert not hasattr(mvcil.Projector, "reset")
    assert "feature_dim" not in inspect.signature(mvcil.Model).parameters
    for klass, name in ((mvcil.RunConfig, "eval_cadence"),
                        (mvcil.FusionConfig, "projector_reset_per_class"),
                        (mvcil.FusionConfig, "depth"),
                        (mvcil.ConsolidationConfig, "train_head_bias"),
                        (mvcil.ConsolidationConfig, "imprint_scale")):
        assert name not in {f.name for f in dataclasses.fields(klass)}, name
    # re-encoding and fusion always use tanh
    for klass in (mvcil.ExtractionConfig, mvcil.FusionConfig, mvcil.RandomEncoder):
        assert "activation" not in {f.name for f in dataclasses.fields(klass)}, klass.__name__
    assert "activation" not in inspect.signature(mvcil.FusionLayer).parameters
    assert not hasattr(mvcil.FusionLayer(2, 2), "activation")
    assert [f.name for f in dataclasses.fields(mvcil.ViewFeature)] == ["features", "sparsity"]
    assert not hasattr(mvcil.Model, "hidden")
    assert not hasattr(mvcil.FusionLayer, "d_in")
    assert not hasattr(mvcil.FusionLayer, "d_out")
    step = inspect.signature(mvcil.FusionLayer.orthogonal_step).parameters
    assert "project" not in step
    # the trainer always steps the fusion bias, so its gradient is required
    assert step["grad_b"].default is inspect.Parameter.empty
    assert "chunk_size" not in inspect.signature(mvcil.Projector.absorb).parameters
    # the head is weights only: no bias to store, add or differentiate
    assert not hasattr(mvcil.DecisionHead(3), "bias")
    assert "grad_b" not in HeadGradients._fields


def test_derived_and_unread_state_is_gone():
    for owner, attr in ((mvcil.SplitDataset, "test_batches_for_class"),
                        (mvcil.AccuracyMatrix, "row"),
                        (mvcil.RandomEncoder, "output_dim")):
        assert not hasattr(owner, attr), f"{owner.__name__}.{attr}"
    model = mvcil.Model(mvcil.RunConfig())
    assert not hasattr(model, "class_slots")
    assert not hasattr(model, "current_class")
    assert not hasattr(model.fusion.projector, "samples_absorbed")
    assert not hasattr(model.head_projector, "samples_absorbed")
    with pytest.raises(TypeError):
        mvcil.evaluate_classes(model, [], 2)  # the class-count form is gone


def test_container_is_the_only_file_writer():
    # every output goes through container.atomic_open; a second hand-rolled
    # temp-file-and-rename writer would drift from it
    src = os.path.dirname(mvcil.__file__)
    writers = []
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name)) as f:
                if re.search(r"\btempfile\b|\bos\.replace\b", f.read()):
                    writers.append(name)
    assert writers == ["container.py"]


def test_classes_consolidated_is_read_only():
    head = mvcil.DecisionHead(3)
    assert head.classes_consolidated == 0
    with pytest.raises(AttributeError):
        head.classes_consolidated = 1


def test_traced_benchmark_callables_resolve(monkeypatch):
    # the traced benchmark run wraps these attributes by name; a refactor
    # that renames or drops one breaks `perfbench/run.py --trace 1`
    monkeypatch.syspath_prepend(BENCH)
    layers = importlib.import_module("layers")
    try:
        assert layers.TRACED
        for owner, attr, _name, _measure in layers.TRACED:
            assert callable(getattr(owner, attr, None)), f"{owner.__name__}.{attr}"
    finally:
        for module in ("layers", "spans"):
            sys.modules.pop(module, None)
