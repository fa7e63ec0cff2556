"""Command line front end.

Exit statuses: 0 success, 1 usage error, 2 numerical failure (integration
breakdown, divergent quadrature, invalid field data).  Data goes to
stdout or --out; every diagnostic goes to stderr.  Output defaults to
aligned columns on a terminal and CSV when redirected; config files are
flat `key = value` text with `#` comments, and explicit flags win over
file values.  Each command takes only the options it reads, as a flag or
as a config key; any other is a usage error.
"""

from __future__ import annotations

import argparse
import math
import re
import sys
from dataclasses import dataclass, field
from functools import cache, partial
from pathlib import Path
from typing import Callable

import numpy as np

from .params import ProblemParams, in_dichotomy_window
from .dynamics import IntegrationUnderflow, NonPositiveState
from .green import IntegrabilityError, RadialField, bilaplacian_solve_radial
from .experiments import (
    ATLAS,
    CLASSIFICATION,
    ENERGY_AUDIT,
    GREEN_STUDY,
    TRAJECTORY,
    ExperimentConfig,
    ResultTable,
    run_experiment,
)

_COMMAND_HELP = {
    "coeffs": "coefficients, exponents and regime for one (n, alpha, p)",
    "simulate": "one seeded backward trajectory with its energy",
    "classify": "seeded classification sweep near the equilibrium",
    "energy-audit": "monotonicity and rate-law audit over seeded draws",
    "green-check": "Green-operator diagnostics or field validation",
    "atlas": "coefficient atlas over a parameter grid",
}
COMMANDS = tuple(_COMMAND_HELP)


class UsageError(ValueError):
    """Bad flags, bad config keys or parameters outside a command's domain."""


class NumericalFailure(RuntimeError):
    """Invalid numerical data discovered while executing a command."""


@dataclass
class CliInvocation:
    command: str
    flags: dict = field(default_factory=dict)
    config_path: str | None = None


@dataclass(frozen=True)
class _Option:
    """One option, given as --flag or as a config-file key, and the commands that read it."""

    name: str
    type: Callable  # bool marks a switch: a bare flag, or true/false in a config file
    commands: tuple[str, ...]
    help: str
    choices: tuple[str, ...] | None = None
    excludes: tuple[str, ...] = ()  # options the command does not read beside this one

    @property
    def flag(self) -> str:
        return "--" + self.name.replace("_", "-")

    def parse(self, text: str):
        if self.type is bool:
            value = _BOOLEANS.get(text.lower())
            if value is None:
                raise ValueError(f"{text!r} is not one of {', '.join(_BOOLEANS)}")
            return value
        value = self.type(text)
        if self.choices is not None and value not in self.choices:
            raise ValueError(f"{text!r} is not one of {', '.join(self.choices)}")
        return value


_BOOLEANS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}

_INTEGRATING = ("simulate", "classify", "energy-audit", "green-check")
_SWEEPS = ("classify", "energy-audit", "green-check")
_BACKWARD = ("simulate", "classify", "energy-audit")

# The output options go on every command, so one config file can set
# them for all runs.
_OPTIONS = {
    opt.name: opt
    for opt in (
        _Option("n", int, COMMANDS, "space dimension"),
        _Option("alpha", float, COMMANDS, "weight exponent"),
        _Option("p", float, COMMANDS, "nonlinearity exponent"),
        _Option("tol", float, _INTEGRATING, "integrator tolerance"),
        _Option("seed", int, _INTEGRATING, "draw seed (64-bit)"),
        _Option("samples", int, _SWEEPS, "number of seeded draws"),
        _Option("margin", float, ("simulate", "classify"), "classification margin"),
        _Option("t_end", float, _BACKWARD, "backward time horizon"),
        _Option("grid_nodes", int, ("green-check",), "radial grid nodes"),
        _Option("out", str, COMMANDS, "write data here instead of stdout"),
        _Option("format", str, COMMANDS, "force output format", choices=("csv", "aligned")),
        _Option("quiet", bool, COMMANDS, "silence diagnostics"),
        _Option("jobs", int, ("classify",), "accepted for compatibility; runs stay single-process"),
        _Option("field", str, ("green-check",), "stored radial field to validate and solve",
                excludes=("alpha", "p", "tol", "seed", "samples", "grid_nodes")),
        _Option("grid", str, ("atlas",), "semicolon-separated n alpha p triples",
                excludes=("n", "alpha", "p")),
    )
}


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        # argparse's own pattern takes -12 and -1.5 but reads -1e-1 or -inf
        # as a flag; this one takes them as values, like "--alpha=-1e-1".
        self._negative_number_matcher = re.compile(r"^-(\.?\d|inf|nan)", re.IGNORECASE)

    # argparse exits with status 2 by default; the interface reserves 2
    # for numerical failures, so usage problems are remapped to 1.
    def error(self, message: str) -> None:
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


# Built once per process: parsing keeps nothing in the parsers, since each
# parse_known_args call fills a new namespace and every default is None.
@cache
def _build_parser() -> tuple[_Parser, dict[str, _Parser]]:
    parser = _Parser(prog="hardyhenon4", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", metavar="command")
    sub.required = True
    for command in COMMANDS:
        # No abbreviations: green-check's --grid would silently mean --grid-nodes.
        cmd = sub.add_parser(command, help=_COMMAND_HELP[command], allow_abbrev=False)
        cmd.add_argument("--config", help="flat key = value config file")
        for opt in _OPTIONS.values():
            if command not in opt.commands:
                continue
            if opt.type is bool:
                cmd.add_argument(opt.flag, action="store_true", default=None, help=opt.help)
            else:
                cmd.add_argument(opt.flag, type=opt.type, choices=opt.choices, help=opt.help)
    return parser, sub.choices


def parse_invocation(argv: list[str]) -> CliInvocation:
    """Parse argv into a command plus only the explicitly given flags.

    A flag the command does not take is reported with the command's usage.
    """
    parser, commands = _build_parser()
    ns, unknown = parser.parse_known_args(argv)
    if unknown:
        commands[ns.command].error(f"unrecognized arguments: {' '.join(unknown)}")
    flags = {k: v for k, v in vars(ns).items() if k not in ("command", "config") and v is not None}
    return CliInvocation(command=ns.command, flags=flags, config_path=ns.config)


def _read_config(path: str, command: str) -> dict:
    opts: dict = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        key = key.replace("-", "_")
        if key not in _OPTIONS:
            raise UsageError(f"{path}:{lineno}: unknown config key {key!r}")
        if command not in _OPTIONS[key].commands:
            raise UsageError(f"{path}:{lineno}: config key {key!r} is not read by {command}")
        try:
            opts[key] = _OPTIONS[key].parse(value)
        except ValueError as err:
            raise UsageError(f"{path}:{lineno}: bad value for {key!r}: {err}") from err
    return opts


def _merged_options(inv: CliInvocation) -> dict:
    opts = _read_config(inv.config_path, inv.command) if inv.config_path else {}
    opts.update(inv.flags)
    return opts


def _parse_grid(text: str) -> list[tuple[float, float, float]]:
    triples = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = chunk.replace(",", " ").split()
        if len(parts) != 3:
            raise UsageError(f"grid entry {chunk!r} is not an 'n alpha p' triple")
        triples.append((float(parts[0]), float(parts[1]), float(parts[2])))
    if not triples:
        raise UsageError("grid is empty")
    return triples


def _require_triple(opts: dict) -> tuple[int, float, float]:
    missing = [k for k in ("n", "alpha", "p") if k not in opts]
    if missing:
        raise UsageError("missing required parameter(s): " + ", ".join(f"--{m}" for m in missing))
    return opts["n"], opts["alpha"], opts["p"]


def _require_params(opts: dict) -> ProblemParams:
    n, alpha, p = _require_triple(opts)
    return ProblemParams(n=n, alpha=alpha, p=p)


def _emit(text: str, opts: dict) -> None:
    out = opts.get("out")
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _render(table: ResultTable, opts: dict) -> str:
    fmt = opts.get("format")
    if fmt is None:
        tty = sys.stdout.isatty() and not opts.get("out")
        fmt = "aligned" if tty else "csv"
    return table.to_aligned() if fmt == "aligned" else table.to_csv()


def _log(msg: str, opts: dict) -> None:
    if not opts.get("quiet"):
        print(msg, file=sys.stderr)


def _check_options(opts: dict) -> None:
    jobs = opts.get("jobs")
    if jobs is not None and jobs < 1:
        raise UsageError(f"--jobs must be at least 1, got {jobs}")
    for name in opts:
        given = [_OPTIONS[other].flag for other in _OPTIONS[name].excludes if other in opts]
        if given:
            raise UsageError(f"{_OPTIONS[name].flag} does not read {', '.join(given)}")


# Options that set the ExperimentConfig field of the same name; t_end
# sets horizon.
_CONFIG_FIELDS = ("tol", "seed", "samples", "margin", "grid_nodes")


def _config(kind: str, params: ProblemParams, opts: dict, **defaults) -> ExperimentConfig:
    """The given options over the command's `defaults` over ExperimentConfig's."""
    fields = {**defaults, **{name: opts[name] for name in _CONFIG_FIELDS if name in opts}}
    t_end = opts.get("t_end")
    if t_end is not None:
        if not -math.inf < t_end < 0.0:
            raise UsageError(f"--t-end must be finite and negative (backward time), got {t_end}")
        fields["horizon"] = t_end
    return ExperimentConfig(kind=kind, param_grid=(params,), **fields)


# Each handler returns the table to render, or finished text.


def _cmd_coeffs(opts: dict) -> ResultTable:
    return run_experiment(ExperimentConfig(kind=ATLAS, param_grid=(_require_params(opts),)))


def _cmd_atlas(opts: dict) -> ResultTable:
    grid = _parse_grid(opts["grid"]) if "grid" in opts else [_require_triple(opts)]
    return run_experiment(ExperimentConfig(kind=ATLAS, param_grid=tuple(grid)))


def _cmd_simulate(opts: dict) -> ResultTable:
    params = _require_params(opts)
    ok, reason = in_dichotomy_window(params)
    if not ok:
        raise UsageError(reason)
    table = run_experiment(_config(TRAJECTORY, params, opts, samples=1, horizon=-15.0))
    _log(table.diagnostic, opts)
    return table


def _cmd_sweep(kind: str, opts: dict) -> ResultTable:
    return run_experiment(_config(kind, _require_params(opts), opts))


def _cmd_green_check(opts: dict) -> ResultTable | str:
    if "field" not in opts:
        params = _require_params(opts)
        return run_experiment(_config(GREEN_STUDY, params, opts, tol=1e-12, samples=4, box=1e-5))
    try:
        field_obj = RadialField.load(opts["field"])
    except ValueError as err:
        raise NumericalFailure(f"invalid field data: {err}") from err
    bad = np.flatnonzero(field_obj.values < 0.0)
    if len(bad):
        j = int(bad[0])
        raise NumericalFailure(
            f"field value at node {j} (r = {field_obj.grid.nodes[j]:.6g}) is negative: "
            f"{float(field_obj.values[j])!r}"
        )
    n = opts.get("n", field_obj.n)
    if n is None:
        raise UsageError("field file carries no dimension; pass --n")
    n = int(n)
    solved = bilaplacian_solve_radial(field_obj, n)
    solved.n, solved.alpha, solved.p = n, field_obj.alpha, field_obj.p
    _log(f"solved on {field_obj.grid.count} nodes (n = {n})", opts)
    return solved.dumps()


_HANDLERS = {
    "coeffs": _cmd_coeffs,
    "simulate": _cmd_simulate,
    "classify": partial(_cmd_sweep, CLASSIFICATION),
    "energy-audit": partial(_cmd_sweep, ENERGY_AUDIT),
    "green-check": _cmd_green_check,
    "atlas": _cmd_atlas,
}


def execute(inv: CliInvocation) -> int:
    """Run a parsed invocation; maps failures onto the exit-status contract."""
    opts: dict = {}
    try:
        opts = _merged_options(inv)
        _check_options(opts)
        result = _HANDLERS[inv.command](opts)
        _emit(result if isinstance(result, str) else _render(result, opts), opts)
        return 0
    except (
        NumericalFailure, IntegrabilityError, IntegrationUnderflow, NonPositiveState,
        ArithmeticError,
    ) as err:
        print(f"hardyhenon4 {inv.command}: numerical failure: {err}", file=sys.stderr)
        return 2
    except (UsageError, ValueError) as err:
        print(f"hardyhenon4 {inv.command}: error: {err}", file=sys.stderr)
        return 1
    except OSError as err:
        print(f"hardyhenon4 {inv.command}: error: {err}", file=sys.stderr)
        return 1


def main(argv: list[str] | None = None) -> int:
    inv = parse_invocation(sys.argv[1:] if argv is None else list(argv))
    return execute(inv)


if __name__ == "__main__":
    raise SystemExit(main())
