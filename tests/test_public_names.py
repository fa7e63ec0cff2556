"""Names that code outside the package reaches it by must keep resolving.

perfbench/tracer.py wraps its TARGETS by module and attribute path, and
`--trace 1` fails if a deletion leaves one dangling; the package's
__all__ is the public surface.
"""

import importlib
import importlib.util
from pathlib import Path

import hardyhenon4

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_exported_name_resolves():
    names = hardyhenon4.__all__
    assert len(set(names)) == len(names)
    assert [name for name in names if not hasattr(hardyhenon4, name)] == []


def test_every_traced_target_resolves():
    tracer = _load_tracer()
    assert tracer.TARGETS
    for mod_name, attr, span in tracer.TARGETS:
        obj = importlib.import_module(f"{tracer.PACKAGE}.{mod_name}")
        for part in attr.split("."):
            assert hasattr(obj, part), f"{span}: {mod_name}.{attr} does not resolve"
            obj = getattr(obj, part)
        assert callable(obj), span
