"""The benchmark tracer still finds and charges the call sites it rebinds.

``perfbench/tracer.py`` wraps mlfas functions by attribute at the modules
that call them.  A renamed function, a moved call site or a smoother that
stops calling ``backward`` through ``mlfas.training`` would leave its spans
missing or its work units at zero; this test catches that without running
the benchmark.  The tracer file is loaded as it is, never edited.
"""

import types
from pathlib import Path

import pytest

from mlfas.harness import ExperimentConfig, run_experiment
from mlfas.poisson import generate_dataset

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer_module():
    # compiled from source so that nothing (not even a bytecode cache) is
    # written next to the benchmark
    module = types.ModuleType("perfbench_tracer")
    module.__file__ = str(TRACER_PATH)
    exec(compile(TRACER_PATH.read_text(), str(TRACER_PATH), "exec"), module.__dict__)
    return module


def bindings(tracer):
    """(owner module, name, bound object, original) for every traced site."""
    return [(owner, fn.__name__, getattr(owner, fn.__name__), fn)
            for _, fn, owners, _, _ in tracer._sites() for owner in owners]


def test_tracer_resolves_every_site_and_charges_work():
    mod = load_tracer_module()
    tracer = mod.Tracer()
    for owner, name, bound, original in bindings(tracer):
        assert bound is original, f"{owner.__name__}.{name} is not the traced function"

    charged = {}
    tracer.install()
    try:
        datasets = {"dense": generate_dataset(30, 6, seed=11),
                    "conv": generate_dataset(30, 6, seed=12)}
        for label, arch in (("dense", "dense:12"), ("conv", "conv:3k3s1p1,dense:8")):
            tracer.run = label
            cfg = ExperimentConfig(arch=arch, depth=2, learning_rate=0.01, batch_size=6,
                                   steps_per_smooth=2, tau_batches=2, rematch_period=3,
                                   max_work_units=20.0, eval_every=10.0, seeds=(0,))
            [res] = tracer.wrap("harness.run_experiment", run_experiment)(cfg, datasets[label])
            assert not res.failed
            charged[label] = tracer.hierarchy.work
    finally:
        tracer.uninstall()
    for owner, name, bound, original in bindings(tracer):
        assert bound is original, f"{owner.__name__}.{name} was not restored"

    for label in ("dense", "conv"):
        spans = [s for s in tracer.spans if s[mod.RUN] == label]

        def named(name):
            return [s for s in spans if s[mod.NAME] == name]

        grads = named("nets.backward")
        assert {s[mod.LEVEL] for s in grads} == {0, 1}
        assert all(s[mod.WU] > 0.0 for s in grads)
        assert sum(s[mod.WU] for s in grads) == pytest.approx(charged[label], rel=1e-9)
        smooths = named("training.sgd_smooth")
        assert {s[mod.LEVEL] for s in smooths} == {0, 1}
        assert all(s[mod.END] > s[mod.START] for s in smooths)
        assert named("transfer.restrict_params")
        assert named("transfer.coarse_grid_correction")
        assert named("training.compute_tau")
    conv_spans = {s[mod.NAME] for s in tracer.spans if s[mod.RUN] == "conv"}
    assert {"conv.forward", "conv.backward"} <= conv_spans
