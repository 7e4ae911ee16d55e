"""Every function the benchmark probe (perfbench/probe.py) wraps must exist
where the probe looks it up; a missing one would silently empty a layer of
the benchmark instead of failing."""

import importlib
import importlib.util
from pathlib import Path

import pytest

PROBE = Path(__file__).resolve().parents[1] / "perfbench" / "probe.py"


def load_probe():
    spec = importlib.util.spec_from_file_location("perfbench_probe", PROBE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


probe = load_probe()
TARGETS = [(owner, attr) for _, owner, attr in probe.PHASE_TARGETS + probe.TRACE_TARGETS]


@pytest.mark.parametrize("owner,attr", TARGETS, ids=[f"{o}.{a}" for o, a in TARGETS])
def test_probe_target_resolves(owner, attr):
    module_name, _, cls_name = owner.partition(":")
    target = importlib.import_module(module_name)
    if cls_name:
        target = getattr(target, cls_name)
    assert callable(getattr(target, attr))
