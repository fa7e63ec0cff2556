"""The loader of the compiled kernels: cache, silent fallback, package contents."""

import ast
import re
import shutil
import subprocess
from pathlib import Path

import numpy as np
import pytest

from hardyhenon4 import _dp5, params
from hardyhenon4.cli import main

PACKAGE = Path(_dp5.__file__).parent
CLASSIFY = ["classify", "--n", "6", "--alpha", "0", "--p", "4",
            "--samples", "4", "--seed", "7", "--t-end", "-20"]


@pytest.fixture
def fresh_load(monkeypatch):
    """load() with its cached result dropped before and after the test."""
    _dp5.load.cache_clear()
    yield _dp5.load
    _dp5.load.cache_clear()


def _needs_compiler():
    if shutil.which(_dp5._compiler()[0]) is None:
        pytest.skip("no C compiler")


def test_missing_compiler_and_unwritable_cache_fall_back_silently(
    tmp_path, monkeypatch, capsys, fresh_load
):
    assert main(CLASSIFY) == 0
    want = capsys.readouterr()
    # A regular file where the cache directory's parent should be: no
    # directory can be made there, not even by root.
    (tmp_path / "file").write_text("")
    monkeypatch.setattr(_dp5, "_cache_dirs", lambda: [tmp_path / "file" / "cache"])
    monkeypatch.setattr(_dp5, "_compiler", lambda: [str(tmp_path / "no-such-cc")])
    _dp5.load.cache_clear()
    assert main(CLASSIFY) == 0
    got = capsys.readouterr()
    assert fresh_load() is None
    assert got.out == want.out
    assert got.err == ""


def test_missing_compiler_falls_back_silently(tmp_path, monkeypatch, fresh_load):
    monkeypatch.setattr(_dp5, "_cache_dirs", lambda: [tmp_path / "cache"])
    monkeypatch.setattr(_dp5, "_compiler", lambda: [str(tmp_path / "no-such-cc")])
    assert fresh_load() is None
    assert list((tmp_path / "cache").iterdir()) == []


def test_compile_error_falls_back_silently(tmp_path, monkeypatch, fresh_load):
    # A compiler that runs and fails: the build's temporary file goes, and
    # no library is left in the cache.
    if shutil.which("false") is None:
        pytest.skip("no false command")
    monkeypatch.setattr(_dp5, "_cache_dirs", lambda: [tmp_path / "cache"])
    monkeypatch.setattr(_dp5, "_compiler", lambda: ["false"])
    assert fresh_load() is None
    assert list((tmp_path / "cache").iterdir()) == []


def test_unwritable_cache_directory_falls_to_the_next(tmp_path, monkeypatch, fresh_load):
    _needs_compiler()
    (tmp_path / "file").write_text("")
    dirs = [tmp_path / "file" / "cache", tmp_path / "tmp"]
    monkeypatch.setattr(_dp5, "_cache_dirs", lambda: dirs)
    assert fresh_load() is not None
    [lib] = (tmp_path / "tmp").iterdir()
    assert lib.name.startswith("_dp5-") and lib.suffix == ".so"
    # A second process finds the library and compiles nothing.
    monkeypatch.setattr(subprocess, "run", lambda *args, **kwargs: pytest.fail("compiled again"))
    _dp5.load.cache_clear()
    assert fresh_load() is not None


def test_package_holds_only_sources_after_a_compile(tmp_path, monkeypatch, fresh_load):
    _needs_compiler()
    monkeypatch.setattr(_dp5, "_cache_dirs", lambda: [tmp_path / "cache"])
    assert fresh_load() is not None
    others = [p.name for p in PACKAGE.iterdir()
              if p.name != "__pycache__" and p.suffix != ".py" and p.name != "_dp5.c"]
    assert others == []


def test_kernel_source_compiles_without_a_warning():
    # The loader falls back without a word on any compile failure, so a
    # warning that some compiler turns into an error would only cost speed.
    _needs_compiler()
    run = subprocess.run(
        [*_dp5._compiler(), "-fsyntax-only", "-std=c99", "-Wall", "-Wextra", "-Wpedantic",
         "-Werror", str(_dp5.SOURCE)],
        capture_output=True, text=True, timeout=_dp5.COMPILE_TIMEOUT_S,
    )
    assert run.returncode == 0, run.stderr


def test_kernel_library_builds_without_a_warning(tmp_path):
    # The loader's own build, with every warning of -Wall -Wextra an error:
    # an unused static function or variable fails it, which -fsyntax-only
    # does not check for.
    _needs_compiler()
    run = subprocess.run(
        [*_dp5._compiler(), *_dp5.FLAGS, "-Wall", "-Wextra", "-Werror",
         "-o", str(tmp_path / "_dp5.so"), str(_dp5.SOURCE), *_dp5.LIBS],
        capture_output=True, text=True, timeout=_dp5.COMPILE_TIMEOUT_S,
    )
    assert run.returncode == 0, run.stderr


def _c_enums(source: str) -> list[dict[str, int]]:
    """The constants of each enum in C source, valued as C values them."""
    enums = []
    for body in re.findall(r"\benum\s*\{([^}]*)\}", source):
        constants, value = {}, -1
        for item in body.split(","):
            name, _, given = item.partition("=")
            value = int(given) if given.strip() else value + 1
            constants[name.strip()] = value
        enums.append(constants)
    return enums


def test_kernel_enums_match_the_loader_constants():
    # The statuses of hh_steps, the width of a dense segment row, the
    # lengths of hh_steps' st, prm and cnt, the rings and the libm error
    # allowance of hh_scan and the multiplier rows of hh_rows and hh_parse
    # are written in both files; the loader reads them by value, and
    # _scan_py's loop runs on them.
    enums = _c_enums(_dp5.SOURCE.read_text())
    assert [list(e) for e in enums] == [
        ["END", "BLOW_UP", "NON_POSITIVE", "FULL", "UNDERFLOW", "OVERFLOW"],
        ["SEGMENT_COLUMNS"],
        ["ST_LEN", "PRM_LEN", "CNT_LEN"],
        ["SCAN_FIRST_RING", "SCAN_WINDOW", "SCAN_LIBM_ULPS"],
        ["POW5_INV_ROWS", "POW5_ROWS"],
        ["POW5_Q_MIN", "POW5_Q_ROWS"],
    ]
    for constants in enums:
        assert constants == {name: getattr(_dp5, name) for name in constants}


def test_grid_kernel_defines_match_the_loader_constants():
    # hh_grid's statuses, regime codes and row widths are #defines in
    # _dp5.c, written in _dp5.py too; its criticality tolerance is params'.
    defines = dict(re.findall(r"^#define (\w+) (\S+)$", _dp5.SOURCE.read_text(), re.MULTILINE))
    assert float(defines.pop("CRITICALITY_TOL")) == params.CRITICALITY_TOL
    assert list(defines) == [
        "ROW_OK", "ROW_INVALID", "ROW_OVERFLOW", "ROW_EQUILIBRIUM_OVERFLOW", "ROW_SCALAR",
        "REGIME_OUT_OF_RANGE", "REGIME_SUBCRITICAL", "REGIME_CRITICAL", "REGIME_SUPERCRITICAL",
        "GRID_CODES", "GRID_VALUES",
    ]
    assert {name: int(value) for name, value in defines.items()} == {
        name: getattr(_dp5, name) for name in defines}


def test_the_loader_is_a_leaf_that_pairs_each_kernel_with_its_twin():
    # _dp5.py owns what _dp5.c owns: it imports nothing from the package,
    # and each exported kernel is bound by load() and has a Kernels field
    # whose Python twin is defined in _dp5.py.
    tree = ast.parse(Path(_dp5.__file__).read_text())
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.append("." * node.level + (node.module or ""))
        elif isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
    assert [name for name in imported
            if name.startswith(".") or name.split(".")[0] == "hardyhenon4"] == []
    exported = re.findall(r"^(?!static\b)[a-z][\w ]*?\b(hh_\w+)\(", _dp5.SOURCE.read_text(),
                          re.MULTILINE)
    load = next(node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == "load")
    bound = {node.attr for node in ast.walk(load)
             if isinstance(node, ast.Attribute) and node.attr.startswith("hh_")}
    twins = _dp5._twins()._asdict()
    assert sorted(exported) == sorted(bound) == sorted(f"hh_{name}" for name in twins)
    for name, twin in twins.items():
        assert twin.__module__ == _dp5.__name__, name


def test_the_loader_reruns_no_twin_but_the_libm_maps():
    # One failure rule: a wrapper refuses bad arguments by the check its
    # twin makes, and raises OverflowError itself where its kernel reports
    # an overflowing power.  Only the libm maps re-run their twin, on the
    # element where the kernel stopped, since math's error depends on that
    # element; so inside load() a twin's name is only an argument of
    # elementwise(...).  hh_energy and hh_audit return that report as a flag.
    tree = ast.parse(Path(_dp5.__file__).read_text())
    load = next(node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == "load")
    twins = {name for name in vars(_dp5) if name.endswith("_py")}
    mapped = {id(arg) for node in ast.walk(load)
              if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "elementwise"
              for arg in node.args}
    named = [node for node in ast.walk(load) if isinstance(node, ast.Name) and node.id in twins]
    assert [node.id for node in named if id(node) not in mapped] == []
    assert sorted(node.id for node in named) == ["_exp_py", "_log_py"]
    source = _dp5.SOURCE.read_text()
    for name in ("hh_energy", "hh_audit"):
        assert re.search(rf"^int {name}\(", source, re.MULTILINE), name


def test_both_kernel_paths_refuse_alike(kernel_paths):
    # The same exception and text from either path: an overflowing
    # w0^(p+1) in an energy stack, in the audit rows and in the audit
    # stencil; zero segment rows; a stencil that runs past the rows or has
    # an odd row count; buffers of the wrong shape, length or mode; and a
    # row reader's body that is not bytes, or an offset past its end.
    rows, stencil = np.ones((336, 4)), np.ones((662, 4))
    huge_rows, huge_stencil = rows.copy(), stencil.copy()
    huge_rows[7, 0] = huge_stencil[-1, 0] = 1e100
    stack = np.ones((4, 3))
    stack[0, 1] = 1e100
    segments = np.ones((2, _dp5.SEGMENT_COLUMNS))
    read_only = np.zeros(_dp5.PRM_LEN)
    read_only.flags.writeable = False
    coeffs = (1.0, 1.0, 1.0, 1.0, 4.0, 1.0, False)  # a0..a3, p, the measure, supercritical
    overflow = (OverflowError, "math range error")
    unreadable = (ValueError, "the row reader needs a bytes object and an offset inside it")
    cases = {
        "energy overflow": (lambda k: k.energy(stack, 1.0, 1.0, 1.0, 4.0, 1.0), overflow),
        "audit row overflow": (lambda k: k.audit(huge_rows, False, stencil, 5, *coeffs),
                               overflow),
        "audit stencil overflow": (lambda k: k.audit(rows, True, huge_stencil, 0, *coeffs),
                                   overflow),
        "no segment rows": (lambda k: k.dense(segments[:0], np.zeros(3)),
                            (ValueError, "trajectory carries no dense segments")),
        "stencil past the rows": (lambda k: k.audit(rows, False, stencil, 10, *coeffs),
                                  (ValueError, "331 stencil samples from sample 10 of 336")),
        "odd stencil": (lambda k: k.audit(rows, False, stencil[:5], 0, *coeffs),
                        (ValueError, "2.5 stencil samples from sample 0 of 336")),
        "energy stack of 3": (lambda k: k.energy(stack[:3], 1.0, 1.0, 1.0, 4.0, 1.0),
                              (ValueError, "kernel buffer of shape (3, 3), need (3, 4)")),
        "2-D dense times": (lambda k: k.dense(segments, np.zeros((2, 2))),
                            (ValueError, "kernel buffer of shape (2, 2), need (2,)")),
        "2-D column": (lambda k: k.rows(np.ones((2, 2))),
                       (ValueError, "kernel buffer of shape (2, 2), need (2,)")),
        "no columns": (lambda k: k.rows(),
                       (ValueError, "the row writer needs columns of one length, not []")),
        "unequal columns": (lambda k: k.rows(np.ones(2), np.ones(3)),
                            (ValueError, "the row writer needs columns of one length, not [2, 3]")),
        "short step state": (lambda k: k.steps(np.zeros(3), np.zeros(_dp5.PRM_LEN)),
                             (ValueError, "kernel buffer of shape (3,) and dtype float64, need a "
                                          "writable C-contiguous (11,) float64")),
        "one batch start as a row": (lambda k: k.orbits(np.zeros(_dp5.ST_LEN),
                                                        np.zeros(_dp5.PRM_LEN)),
                                     (ValueError, "kernel buffer of shape (11,) and dtype "
                                                  "float64, need a writable C-contiguous (11, 11) "
                                                  "float64")),
        "read-only step parameters": (lambda k: k.steps(np.zeros(_dp5.ST_LEN), read_only),
                                      (ValueError, "kernel buffer of shape (11,) and dtype "
                                                   "float64, need a writable C-contiguous (11,) "
                                                   "float64")),
        "row reader on text": (lambda k: k.parse("1.0,2.0\n", 0), unreadable),
        "row reader past the body": (lambda k: k.parse(b"1.0,2.0\n", 99), unreadable),
        "grid of pairs": (lambda k: k.grid([(6, 0.0)], None),
                          (ValueError, "not enough values to unpack (expected 3, got 2)")),
    }
    for path in kernel_paths():
        for name, (call, (kind, text)) in cases.items():
            with pytest.raises(Exception) as err:
                call(_dp5.kernels())
            assert (type(err.value), str(err.value)) == (kind, text), (path, name)
