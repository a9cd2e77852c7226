"""Command-line front end: `alpv <subcommand>`.

Exit status: 0 on success, 1 on a domain error (dimension mismatch, missing
isomorphism, horizon too short, ...), 2 on usage or file errors.  Outputs
are deterministic: identical inputs and flags give byte-identical files.
"""

from __future__ import annotations

import argparse
import functools
import sys

import numpy as np

from . import fileio
from .errors import ALPVError
from .hankel import build_hankel
from .ioeq import check_equation
from .linalg import ToleranceConfig
from .markov import markov_table
from .model import simulate
from .realize import analyze, find_isomorphism, kalman_ho, minimize


def _load(loader, path, kind):
    try:
        return loader(path)
    except ValueError as exc:
        raise ValueError(f"{kind} file {path}: {exc}") from exc


def _tol(args) -> ToleranceConfig:
    return ToleranceConfig(rel_eps=args.tol)


def _emit(args, text: str) -> None:
    """Print `text` and, with `-o`, also write it to that file."""
    sys.stdout.write(text)
    if args.output:
        fileio.write_text(args.output, text)


def _save_outputs(args, system, w) -> None:
    fileio.save_outputs(args.output, simulate(system, np.zeros(system.n), w).outputs)


def cmd_sim(args) -> None:
    system = _load(fileio.load_system, args.system, "system")
    _save_outputs(args, system, _load(fileio.load_signal, args.signal, "signal"))


def cmd_markov(args) -> None:
    system = _load(fileio.load_system, args.system, "system")
    fileio.save_table(args.output, markov_table(system, args.horizon))


def cmd_hankel(args) -> None:
    if args.from_system:
        source = _load(fileio.load_system, args.from_system, "system")
    else:
        source = _load(fileio.load_table, args.from_table, "markov table")
    fileio.save_hankel(args.output, build_hankel(source, args.L, args.M))


def cmd_realize(args) -> None:
    if args.from_hankel:
        H = _load(fileio.load_hankel, args.from_hankel, "hankel")
    else:
        if args.L is None:
            raise ValueError("--from-system requires --L")
        system = _load(fileio.load_system, args.from_system, "system")
        H = build_hankel(system, args.L, args.L + 1)
    fileio.save_system(args.output, kalman_ho(H, _tol(args)))


def cmd_minimize(args) -> None:
    system = _load(fileio.load_system, args.system, "system")
    fileio.save_system(args.output, minimize(system, _tol(args)))


def cmd_analyze(args) -> None:
    system = _load(fileio.load_system, args.system, "system")
    report = analyze(system, _tol(args))
    _emit(args, fileio.dumps_json(fileio.report_to_dict(report)) + "\n")


def cmd_iso(args) -> None:
    sys1 = _load(fileio.load_system, args.system1, "system")
    sys2 = _load(fileio.load_system, args.system2, "system")
    T = find_isomorphism(sys1, sys2, _tol(args), residual_tol=args.residual_tol)
    _emit(args, fileio.matrix_csv(T))


def cmd_ioeq_check(args) -> None:
    equation = _load(fileio.load_equation, args.equation, "equation")
    system = _load(fileio.load_system, args.system, "system")
    report = check_equation(equation, system, trials=args.trials, seed=args.seed, tol=args.tol)
    payload = fileio.check_report_to_dict(report, args.trials, args.seed, args.tol)
    _emit(args, fileio.dumps_json(payload) + "\n")


def cmd_switched_sim(args) -> None:
    system = _load(fileio.load_system, args.system, "system")
    sw = _load(lambda path: fileio.load_switched(path, system.D), args.switched, "switched input")
    _save_outputs(args, system, sw)


def _tol_option(help_text="relative singular-value tolerance for rank decisions"):
    return "--tol", dict(type=float, default=1e-10, help=help_text)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The `alpv` parser, built once per process; `run` dispatches to ``cmd_<name>``."""
    parser = argparse.ArgumentParser(
        prog="alpv",
        description="Realization tools for affine linear parameter-varying systems.",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    def command(name, help_text, formats, *arguments, output, required=True):
        """A subcommand whose epilog is the `fileio.FORMATS` line of each of `formats`.

        Each argument is a positional name, a list of `PATH` options exactly
        one of which must be given, or a ``(flag, add_argument keywords)`` pair.
        `-o` comes last, with help text `output`, and is optional only when
        `required` is false.
        """
        p = sub.add_parser(
            name,
            help=help_text,
            epilog="\n".join(fileio.FORMATS[f] for f in formats),
            formatter_class=argparse.RawDescriptionHelpFormatter,
        )
        for arg in arguments:
            if isinstance(arg, str):
                p.add_argument(arg)
            elif isinstance(arg, list):
                group = p.add_mutually_exclusive_group(required=True)
                for flag in arg:
                    group.add_argument(flag, metavar="PATH")
            else:
                p.add_argument(arg[0], **arg[1])
        p.add_argument("-o", "--output", required=required, help=output)

    command("sim", "simulate a system on a signal file",
            ("system", "signal", "outputs"), "system", "signal", output="outputs CSV path")
    command("markov", "kernel coefficient table of a system",
            ("system", "table"), "system",
            ("--horizon", dict(type=int, required=True, help="max word length (>= 1)")),
            output="table JSON path")
    command("hankel", "assemble a finite Hankel sub-matrix",
            ("system", "table", "hankel"), ["--from-system", "--from-table"],
            ("--L", dict(type=int, required=True, help="block-row word-length bound")),
            ("--M", dict(type=int, required=True, help="block-column word-length bound")),
            output="hankel CSV path (sidecar is added)")
    command("realize", "Kalman-Ho realization from a Hankel sub-matrix",
            ("hankel", "system"), ["--from-hankel", "--from-system"],
            ("--L", dict(type=int, help="row bound when building from a system (M = L+1)")),
            _tol_option(), output="system JSON path")
    command("minimize", "reachability + observability reduction to a minimal system",
            ("system",), "system", _tol_option(), output="system JSON path")
    command("analyze", "reachability/observability ranks and minimality flags",
            ("system",), "system", _tol_option(),
            output="also write the report JSON here", required=False)
    command("iso", "state isomorphism between two minimal systems",
            ("system", "iso"), "system1", "system2", _tol_option(),
            ("--residual-tol", dict(
                type=float, default=1e-7,
                help="max allowed relative defect of the isomorphism relations")),
            output="also write the CSV here", required=False)
    command("ioeq-check", "randomized check of an affine polynomial input-output equation",
            ("equation", "system"), "equation", "system",
            ("--trials", dict(type=int, default=100)), ("--seed", dict(type=int, default=42)),
            _tol_option("residual tolerance relative to 1 + max |y|"),
            output="also write the report JSON here", required=False)
    command("switched-sim", "simulate a system on a switched (one mode per step) input",
            ("system", "switched", "outputs"), "system", "switched", output="outputs CSV path")
    return parser


def run(argv) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        globals()["cmd_" + args.cmd.replace("-", "_")](args)
    except ALPVError as exc:
        print(f"error: {args.cmd}: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError) as exc:
        print(f"error: {args.cmd}: {exc}", file=sys.stderr)
        return 2
    return 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
