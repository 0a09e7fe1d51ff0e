"""Command-line driver for the certify / screen / encode pipeline.

Report bodies are deterministic: identical inputs print identical bytes.
Exit codes separate three outcomes: 0 for a positive result (CERTIFIED,
RULED_OUT, FEASIBLE, or plain success), 2 for a definite negative or an
open verdict (FAILED, HYPOTHESIS_FAILED, INCONCLUSIVE, INFEASIBLE), and
1 for input errors.  ``--stamp`` writes run metadata to stderr so the
stdout report stays byte-stable.
"""

from __future__ import annotations

import argparse
import sys
from datetime import datetime, timezone

from . import __version__
from .embedding import parse_graph
from .errors import StablulcError
from .factory import (BUILTIN_CODES, encode_pair, enumerate_lengths,
                      format_seed, length_plan, parse_css_code, parse_seed)
from .gf2 import parse_matrix
from .matroid import (css_counterexample_screen, excluded_minor_catalog,
                      has_minor, parse_matroid)
from .oracle import ORACLE_MAX_QUBITS, dlc_feasible, parse_quadratic_form
from .pauli import parse_stabilizer
from .surface import (build_code, build_state, grid_minimality_certificate,
                      lulc_certificate)


class _Parser(argparse.ArgumentParser):
    """Bad arguments are input errors: exit 1, not argparse's default 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _read(path: str) -> str:
    with open(path, encoding="ascii") as fh:
        return fh.read()


def _cmd_analyze_state(args) -> int:
    cert = parse_stabilizer(_read(args.file)).msc_certificate()
    print(cert.line())
    return 0 if cert.certified else 2


def _cmd_surface_certify(args) -> int:
    graph = parse_graph(_read(args.file))
    state = build_state(build_code(graph), args.l)
    cert = lulc_certificate(state)
    print(cert.line())
    return 0 if cert.certified else 2


def _cmd_grid_certify(args) -> int:
    cert = grid_minimality_certificate(args.rows, args.cols)
    print(cert.line())
    return 0 if cert.certified else 2


def _cmd_matroid_screen(args) -> int:
    result = css_counterexample_screen(parse_matrix(_read(args.g)),
                                       parse_matrix(_read(args.h)))
    print(result.line())
    return 0 if result.ruled_out else 2


def _cmd_matroid_minor(args) -> int:
    m = parse_matroid(_read(args.m))
    named = excluded_minor_catalog().named()
    if args.target in named:
        target = named[args.target]
    else:
        target = parse_matroid(_read(args.target))
    found, witness = has_minor(m, target)
    if found:
        deleted, contracted = witness
        print(f"MINOR target={args.target}"
              f" delete={','.join(deleted) or '-'}"
              f" contract={','.join(contracted) or '-'}")
    else:
        print(f"NO_MINOR target={args.target}")
    return 0


def _cmd_factory_lengths(args) -> int:
    if args.n is not None:
        plan = length_plan(args.n, allow_rep=not args.no_rep)
        if plan is None:
            print(f"UNREACHABLE n={args.n}")
            return 2
        print(f"PLAN n={plan.n} {plan.describe()}"
              f" distance={plan.distance_class}")
        return 0
    for plan in enumerate_lengths(args.max):
        print(f"n={plan.n} {plan.describe()} {plan.distance_class}")
    return 0


def _cmd_factory_encode(args) -> int:
    seed = parse_seed(_read(args.seed))
    if args.code in BUILTIN_CODES:
        code = BUILTIN_CODES[args.code]()
    else:
        code = parse_css_code(_read(args.code))
    encoded = encode_pair(seed, args.qubit - 1, code)
    text = format_seed(encoded)
    if args.out:
        with open(args.out, "w", encoding="ascii") as fh:
            fh.write(text)
        print(f"ENCODED n={encoded.n} code={code.name}"
              f" qubit={args.qubit} out={args.out}")
    else:
        sys.stdout.write(text)
    if args.verify:
        if encoded.n > ORACLE_MAX_QUBITS:
            print(f"UNVERIFIABLE n={encoded.n} exceeds"
                  f" {ORACLE_MAX_QUBITS}-qubit oracle limit",
                  file=sys.stderr)
            return 2
        if not encoded.verify_dlu():
            print("VERIFY_FAILED encoded pair is not related by the"
                  " constructed local unitary", file=sys.stderr)
            return 2
        print(f"VERIFIED n={encoded.n}", file=sys.stderr)
    return 0


def _cmd_dlc_check(args) -> int:
    assignment = dlc_feasible(parse_quadratic_form(_read(args.file)))
    if assignment is None:
        print("INFEASIBLE")
        return 2
    print("FEASIBLE assignment=" + ",".join(str(a) for a in assignment))
    return 0


def build_parser() -> _Parser:
    parser = _Parser(
        prog="stablulc",
        description="Certificates and counterexample tooling for"
                    " local-unitary vs local-Clifford equivalence of"
                    " stabilizer states.")
    parser.add_argument("--stamp", action="store_true",
                        help="write version/time metadata to stderr")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    p = sub.add_parser("analyze-state",
                       help="minimal-support certificate for a stabilizer"
                            " group file (one generator per line)")
    p.add_argument("file")
    p.set_defaults(func=_cmd_analyze_state)

    p = sub.add_parser("surface-certify",
                       help="LU=LC certificate for the code of an embedded"
                            " graph file")
    p.add_argument("file")
    p.add_argument("--l", type=int, default=0,
                   help="logical sector: first L pairs use the X side"
                        " (default 0)")
    p.set_defaults(func=_cmd_surface_certify)

    p = sub.add_parser("grid-certify",
                       help="LU=LC certificate for the grid cluster state")
    p.add_argument("--rows", type=int, required=True)
    p.add_argument("--cols", type=int, required=True)
    p.set_defaults(func=_cmd_grid_certify)

    p = sub.add_parser("matroid-screen",
                       help="rule out a CSS state as a counterexample via"
                            " graphicness of its matroid")
    p.add_argument("--g", required=True, help="generator matrix file")
    p.add_argument("--h", required=True, help="parity-check matrix file")
    p.set_defaults(func=_cmd_matroid_screen)

    p = sub.add_parser("matroid-minor",
                       help="exact minor search in a binary matroid")
    p.add_argument("--m", required=True, help="matroid file")
    p.add_argument("--target", required=True,
                   help="F7, F7*, MK5, MK5*, MK33, MK33*, or a matroid file")
    p.set_defaults(func=_cmd_matroid_minor)

    p = sub.add_parser("factory-lengths",
                       help="encoding plans for counterexample lengths"
                            " 27 + 14i + 30j + t")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--n", type=int, help="plan one target length")
    group.add_argument("--max", type=int,
                       help="list plans for every reachable length <= MAX")
    p.add_argument("--no-rep", action="store_true",
                   help="forbid the distance-dropping [[2,1,1]] step")
    p.set_defaults(func=_cmd_factory_lengths)

    p = sub.add_parser("factory-encode",
                       help="encode one qubit of a seed pair into a CSS code")
    p.add_argument("--seed", required=True, help="seed file")
    p.add_argument("--qubit", type=int, required=True,
                   help="qubit to encode (1-based, as in q: lines)")
    p.add_argument("--code", required=True,
                   help="rm15, rm31, rep2, or a CSS code file")
    p.add_argument("--out", help="write the encoded seed here instead of"
                                 " stdout")
    p.add_argument("--verify", action="store_true",
                   help="check the encoded pair against the dense oracle")
    p.set_defaults(func=_cmd_factory_encode)

    p = sub.add_parser("dlc-check",
                       help="decide diagonal-local-Clifford feasibility of"
                            " a quadratic-form pair")
    p.add_argument("file")
    p.set_defaults(func=_cmd_dlc_check)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.stamp:
        now = datetime.now(timezone.utc).isoformat(timespec="seconds")
        print(f"# stablulc {__version__} | {now} | {args.command}",
              file=sys.stderr)
    try:
        return args.func(args)
    except (StablulcError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
