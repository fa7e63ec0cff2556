"""Names that code outside the package reaches it by must keep resolving.

perfbench/tracer.py wraps its TARGETS by module and attribute path, and
`--trace 1` fails if a deletion leaves one dangling; the package's
__all__ is the public surface.  The coefficient set is the one problem
argument of the numeric functions, so none takes its parts beside it, and
only params (which builds it) and the CLI take a ProblemParams.
"""

import ast
import importlib
import importlib.util
import inspect
import pkgutil
from pathlib import Path

import hardyhenon4
from hardyhenon4 import cli, dynamics

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


def _functions(module):
    """Functions defined in module, and the methods of its classes."""
    for obj in vars(module).values():
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield obj
        elif inspect.isclass(obj):
            methods = (getattr(m, "__func__", m) for m in vars(obj).values())
            yield from (m for m in methods if inspect.isfunction(m))


def test_no_function_takes_the_coefficient_set_beside_its_parts():
    mixed, seen = [], 0
    for info in pkgutil.iter_modules(hardyhenon4.__path__):
        module = importlib.import_module(f"{hardyhenon4.__name__}.{info.name}")
        for fn in _functions(module):
            names = set(inspect.signature(fn).parameters)
            if "coeffs" in names:
                seen += 1
                if names & {"p", "n", "alpha", "params"}:
                    mixed.append(f"{module.__name__}.{fn.__qualname__}")
    assert seen > 10
    assert mixed == []


def test_only_params_takes_the_problem_params():
    takers = {}
    for name in ("params", "transform", "dynamics", "energy", "green", "experiments"):
        module = importlib.import_module(f"{hardyhenon4.__name__}.{name}")
        takers[name] = sorted(
            fn.__qualname__
            for fn in _functions(module)
            if any(
                "ProblemParams" in str(arg.annotation)
                for arg in inspect.signature(fn).parameters.values()
            )
        )
    assert takers.pop("params") == [
        "_regime_tag", "coefficients", "critical_exponents", "in_dichotomy_window",
    ]
    assert takers == {"transform": [], "dynamics": [], "energy": [], "green": [], "experiments": []}


def test_cli_borrows_only_public_names_and_no_dynamics_but_its_errors():
    # The CLI drives the runners; the draw, integrate and classify steps
    # belong to experiments, so cli binds no private name of another
    # module and, from dynamics, only the exceptions it maps to exit 2.
    borrowed = [
        (node.module, alias.name)
        for node in ast.walk(ast.parse(Path(cli.__file__).read_text()))
        if isinstance(node, ast.ImportFrom) and node.level > 0
        for alias in node.names
    ]
    assert borrowed
    assert [name for _, name in borrowed if name.startswith("_")] == []
    from_dynamics = [getattr(dynamics, name) for module, name in borrowed if module == "dynamics"]
    assert all(inspect.isclass(obj) and issubclass(obj, Exception) for obj in from_dynamics)
    assert not [obj for obj in vars(cli).values() if inspect.ismodule(obj)
                and obj.__name__.startswith(hardyhenon4.__name__ + ".")]
