"""The benchmark's hooks still fit the program.

``perfbench/tracer.py`` and ``perfbench/workloads.py`` patch voxseg
functions by module attribute and call them through wrappers, so a
rename, a removal or a changed call form in ``src/`` breaks the
benchmark. This tier-1 test enters and leaves both ``Tracer().install()``
and ``Probe().install()`` around a one-step tiny training run, an
evaluation and a checkpoint load, so such a change fails here too, not
only in ``python3 -m pytest perfbench/tests``.
"""

import os
import sys

from voxseg import checkpoint, train

from conftest import tiny_config

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "perfbench"))
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


def test_tracer_and_probe_wrap_every_hook_and_restore_it(tiny_dataset, tmp_path):
    data_dir, ids = tiny_dataset
    hooks = [(owner, attr) for owner, attr, _ in tracing.TARGETS]
    originals = [getattr(owner, attr) for owner, attr in hooks]
    tracer, probe = tracing.Tracer(), workloads.Probe()
    with tracer.install(), probe.install():
        assert all(getattr(owner, attr) is not fn
                   for (owner, attr), fn in zip(hooks, originals))
        res = train.train(tiny_config(**{"train.epochs": 1, "train.max_steps": 1}),
                          data_dir, str(tmp_path / "run"))
        train.evaluate_cases(res.spec, res.store, data_dir, ids[:1])
        checkpoint.load_checkpoint(res.last_checkpoint)
    assert [getattr(owner, attr) for owner, attr in hooks] == originals
    assert sorted(name for _, _, name in tracing.TARGETS if not tracer.calls[name]) == []
    assert tracer.graph_nodes > 0 and len(probe.step_seconds) == 1
    assert probe.last_prob is not None
