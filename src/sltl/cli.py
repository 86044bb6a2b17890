"""Command-line front end.

Subcommands: ``solve``, ``translate``, ``gen``, ``check``, ``classify``.
Verdict exit codes: 0 sat, 1 unsat, 2 unknown, 3 out of fragment (strict
mode).  Error exit codes follow the BSD convention: 64 usage, 65 bad data,
66 missing input (also a closed standard input), 69 resource limit, 70
internal error, 73 output file cannot be created, 74 standard output
cannot be written (closed, a closed pipe or a full disk).  A closed
standard error loses the error line, not the exit code.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import sys

from .automaton import DEFAULT_STATE_LIMIT, dump_state_graph
from .search import DEFAULT_NODE_LIMIT, SearchBounds, SearchLimitError
from .semantics import WitnessFormatError, model_from_json, model_to_json
from .solver import SolveOptions, Verdict, check_witness, solve, verdict_to_json
from .syntax import (
    Formula,
    Fragment,
    ParseError,
    classify,
    closure,
    parse,
    simplify,
    to_text,
)
from .translate import (
    counter_formula,
    product_to_sltl,
    psl_to_s5,
    recurring_counter_formula,
    sltl_to_product,
    until_to_strict,
)

EX_OK, EX_UNSAT, EX_UNKNOWN, EX_FRAGMENT = 0, 1, 2, 3
EX_USAGE, EX_DATAERR, EX_NOINPUT, EX_RESOURCE, EX_INTERNAL = 64, 65, 66, 69, 70
EX_CANTCREAT, EX_IOERR = 73, 74


class _CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _read_formula(args) -> Formula:
    # a file and standard input are read as UTF-8 whatever the locale's
    # error handler: undecodable bytes become lone surrogates, as in the
    # arguments, which the parser reports as bytes at their position
    if args.file is not None:
        try:
            with open(args.file, encoding="utf-8", errors="surrogateescape") as fh:
                text = fh.read()
        except OSError as exc:
            raise _CliError(EX_NOINPUT, f"cannot read {args.file}: {exc}") from exc
    elif args.formula == "-":
        if sys.stdin is None:  # closed when the process started
            raise _CliError(EX_NOINPUT, "cannot read standard input: it is closed")
        try:
            if hasattr(sys.stdin, "buffer"):
                text = sys.stdin.buffer.read().decode("utf-8", "surrogateescape")
            else:  # a text stream put in place of standard input
                text = sys.stdin.read()
        except OSError as exc:
            raise _CliError(EX_NOINPUT, f"cannot read standard input: {exc}") from exc
    elif args.formula is not None:
        text = args.formula
    else:
        raise _CliError(EX_USAGE, "no formula given (positional argument, '-' or --file)")
    try:
        return parse(text)
    except ParseError as exc:
        raise _CliError(EX_USAGE, f"parse error: {exc}") from exc


def _parse_bounds(text: str, f: Formula) -> SearchBounds:
    try:
        t, p, q = (int(x) for x in text.split(","))
    except ValueError as exc:
        raise _CliError(EX_USAGE, "--bounds expects three integers: traces,prefix,period") from exc
    try:
        return SearchBounds.for_formula(f, t, p, q)
    except ValueError as exc:
        raise _CliError(EX_USAGE, str(exc)) from exc


def _env_limit(name: str, default: int) -> int:
    raw = os.environ.get(name)
    if raw is None:
        return default
    try:
        limit = int(raw)
    except ValueError:
        raise _CliError(EX_USAGE, f"{name} must be an integer, got {raw!r}")
    if limit < 1:
        raise _CliError(EX_USAGE, f"{name} must be at least 1, got {limit}")
    return limit


def _cmd_solve(args) -> int:
    f = _read_formula(args)
    opts = SolveOptions(
        fragment_strict=args.fragment_strict,
        node_limit=_env_limit("SLTL_NODE_LIMIT", DEFAULT_NODE_LIMIT),
        state_limit=_env_limit("SLTL_STATE_LIMIT", DEFAULT_STATE_LIMIT),
    )
    if args.bounds:
        opts.bounds = _parse_bounds(args.bounds, f)
    try:
        verdict = solve(f, opts)
        if args.dump_states:
            _dump_states(args.dump_states, f, verdict, opts)
    except SearchLimitError as exc:
        raise _CliError(EX_RESOURCE, f"search limit reached: {exc}") from exc
    if args.witness_out and verdict.model is not None:
        try:
            with open(args.witness_out, "w", encoding="utf-8") as fh:
                json.dump(model_to_json(verdict.model, verdict.designated), fh, indent=2)
                fh.write("\n")
        except OSError as exc:
            raise _CliError(EX_CANTCREAT, f"cannot write {args.witness_out}: {exc}") from exc
    # an undecided input is shown with its product-logic translation
    translation = None
    if verdict.status in ("unknown", "out_of_fragment"):
        translation = to_text(sltl_to_product(f))
    if args.json:
        blob = verdict_to_json(verdict)
        if translation is not None:
            blob["translation"] = translation
        print(json.dumps(blob, indent=2))
    else:
        _print_verdict(verdict, translation)
    return {
        "sat": EX_OK,
        "unsat": EX_UNSAT,
        "unknown": EX_UNKNOWN,
        "out_of_fragment": EX_FRAGMENT,
    }[verdict.status]


def _dump_states(path: str, f: Formula, verdict: Verdict, opts: SolveOptions) -> None:
    """Dump the automaton's state graph of the simplified input, for every
    fragment but FullSLTL: the whole graph reachable from the initial
    states, not only the part the emptiness search explores."""
    if verdict.fragment is Fragment.FULL_SLTL:
        _say("state dump applies to PSL, PureLTL and LtlPsl inputs only")
        return
    phi = simplify(f)
    try:
        with open(path, "w", encoding="utf-8") as fh:
            dump_state_graph(closure(phi), fh, opts.state_limit, opts.node_limit)
    except OSError as exc:
        raise _CliError(EX_CANTCREAT, f"cannot write {path}: {exc}") from exc


def _print_verdict(v: Verdict, translation: str | None) -> None:
    line = f"{v.status} [{v.fragment.value}"
    if v.engine:
        line += f", engine={v.engine}"
    line += "]"
    print(line)
    if v.model is not None:
        print(f"witness: {len(v.model.traces)} trace(s), "
              f"prefix {v.model.prefix_len}, period {v.model.period_len}, "
              f"designated {v.designated}")
    if v.status == "unknown" and v.bounds is not None:
        b = v.bounds
        print(f"bounded search exhausted: traces<={b.max_traces}, "
              f"prefix<={b.max_prefix}, period<={b.max_period}")
    if translation is not None:
        print(f"product-logic translation: {translation}")


def _cmd_translate(args) -> int:
    f = _read_formula(args)
    try:
        if args.to == "ptls5":
            out = sltl_to_product(f)
        elif args.to == "sltl":
            out = product_to_sltl(f)
        elif args.to == "s5":
            out = psl_to_s5(f)
        else:
            out = until_to_strict(f)
    except ValueError as exc:
        raise _CliError(EX_DATAERR, f"translation rejected: {exc}") from exc
    print(to_text(out))
    return EX_OK


def _cmd_gen(args) -> int:
    if args.n < 1:
        raise _CliError(EX_USAGE, "the counter needs at least one bit")
    f = counter_formula(args.n) if args.kind == "counter" else recurring_counter_formula(args.n)
    print(to_text(f))
    return EX_OK


_SCHEMA_HINT = (
    "expected the documented witness schema "
    "{prefix_len, period_len, traces, lambda, designated}"
)


def _cmd_check(args) -> int:
    f = _read_formula(args)
    try:
        with open(args.witness, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise _CliError(EX_NOINPUT, f"cannot read {args.witness}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise _CliError(EX_DATAERR, f"witness is not valid JSON ({exc}); {_SCHEMA_HINT}") from exc
    except UnicodeDecodeError as exc:
        raise _CliError(EX_DATAERR, f"witness is not UTF-8 text ({exc}); {_SCHEMA_HINT}") from exc
    except RecursionError as exc:
        # the JSON decoder recurses once per nested array or object
        raise _CliError(
            EX_DATAERR, f"witness JSON is nested too deeply ({exc}); {_SCHEMA_HINT}"
        ) from exc
    try:
        model, designated = model_from_json(data)
        ok = check_witness(f, model, designated)
    except (WitnessFormatError, ValueError) as exc:
        raise _CliError(EX_DATAERR, f"bad witness: {exc}; {_SCHEMA_HINT}") from exc
    print("witness accepted" if ok else "witness rejected")
    return EX_OK if ok else EX_UNSAT


def _cmd_classify(args) -> int:
    f = _read_formula(args)
    print(classify(f).value)
    return EX_OK


def _add_formula_args(sub) -> None:
    sub.add_argument("formula", nargs="?", help="formula text, or '-' for stdin")
    sub.add_argument("--file", help="read the formula from a file")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sltl",
        description="Satisfiability and translations for standpoint linear temporal logic",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p_solve = subs.add_parser("solve", help="decide satisfiability")
    _add_formula_args(p_solve)
    p_solve.add_argument("--fragment-strict", action="store_true",
                         help="refuse inputs outside the automaton-eligible fragments")
    p_solve.add_argument("--bounds", metavar="T,P,Q",
                         help="bounded-search limits: traces,prefix,period")
    p_solve.add_argument("--json", action="store_true", help="machine-readable verdict")
    p_solve.add_argument("--witness-out", metavar="PATH", help="write the witness JSON here")
    p_solve.add_argument("--dump-states", metavar="PATH",
                         help="dump the automaton's reachable state graph (not a stable format)")
    p_solve.set_defaults(func=_cmd_solve)

    p_tr = subs.add_parser("translate", help="formula-to-formula constructions")
    p_tr.add_argument("--to", required=True, choices=["ptls5", "sltl", "s5", "strict-until"])
    _add_formula_args(p_tr)
    p_tr.set_defaults(func=_cmd_translate)

    p_gen = subs.add_parser("gen", help="counter formula generators")
    p_gen.add_argument("kind", choices=["counter", "phi-c"])
    p_gen.add_argument("n", type=int)
    p_gen.set_defaults(func=_cmd_gen)

    p_check = subs.add_parser("check", help="validate a witness against a formula")
    _add_formula_args(p_check)
    p_check.add_argument("witness", help="witness JSON file")
    p_check.set_defaults(func=_cmd_check)

    p_cls = subs.add_parser("classify", help="print the fragment of a formula")
    _add_formula_args(p_cls)
    p_cls.set_defaults(func=_cmd_classify)
    return parser


def _say(message: str) -> None:
    """Print one line to standard error.  A closed or unwritable standard
    error loses the line but never changes the exit code: ``sys.stderr`` is
    None when it was closed at start (``print`` would then write to standard
    output), and after a failed write it is dropped, so that the
    interpreter's flush at exit cannot fail too and exit 120."""
    if sys.stderr is not None:
        try:
            print(message, file=sys.stderr, flush=True)
        except OSError:
            sys.stderr = None


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EX_USAGE if exc.code not in (0, None) else 0
    # a command's output is written in one place, which reports a failed
    # write however much the command printed
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            code = args.func(args)
    except _CliError as exc:
        _say(f"error: {exc}")
        return exc.code
    except MemoryError:
        # a search's tables outgrew the memory the process may use
        _say("error: out of memory")
        return EX_RESOURCE
    except Exception as exc:  # noqa: BLE001 - last-resort reporting
        _say(f"internal error: {exc}")
        return EX_INTERNAL
    if sys.stdout is None:  # closed when the process started
        _say("error: cannot write to standard output: it is closed")
        return EX_IOERR
    try:
        print(out.getvalue(), end="", flush=True)
    except OSError as exc:
        _say(f"error: cannot write to standard output: {exc}")
        # the interpreter flushes stdout again on exit; that write goes nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EX_IOERR
    return code


if __name__ == "__main__":
    sys.exit(main())
