"""Command-line surface.

Exit codes: 0 success, 1 usage error, 2 input error (parse, tightness,
domain), 3 resource cap exceeded, including running out of recursion depth
or memory. Results go to stdout, diagnostics to stderr. ``WFOMC_MAX_ATOMS``
overrides the brute-force atom cap.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

from .errors import CapExceededError, NonTightProgramError, ParseError, WfomcError
from .frontends import (
    count_json,
    parse_mln,
    parse_problog,
    parse_query,
    parse_theory,
    probability_json,
    serialize_theory,
    weight_str,
)
from .encoders import WfomcEncoding, encode_mln, encode_problog, query_probability
from .counting import DEFAULT_ENGINE, ENGINES, wfomc
from .logic import FLOAT, Constant, Domain, WeightFn, WeightedTheory
from .propcheck import run_suite
from .transform import (
    skolemize,
    skolemize_prenex_shortcut,
    to_cnf_distribute,
    to_cnf_tseitin,
    unit_propagate,
)

USAGE_ERROR = 1
INPUT_ERROR = 2
CAP_ERROR = 3


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_ERROR)


def _sizes(text: str) -> tuple[int, ...]:
    """Comma-separated domain sizes, each one the generator supports
    (``propcheck.GenConfig``); empty entries are skipped."""
    try:
        sizes = tuple(int(s) for s in text.split(",") if s.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}") from None
    if not set(sizes) <= {1, 2, 3}:
        raise argparse.ArgumentTypeError(f"expected sizes within {{1,2,3}}, got {text!r}")
    return sizes


def _int_at_least(least: int, what: str):
    """Argument type: an integer no smaller than ``least``."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = least - 1
        if value < least:
            raise argparse.ArgumentTypeError(f"expected {what}, got {text!r}")
        return value
    return parse


def _count_arguments(cmd: argparse.ArgumentParser) -> None:
    """The arguments ``count`` and ``prob`` share: the input, its domain,
    the engine and ``--json``."""
    cmd.add_argument("input", type=Path)
    dom = cmd.add_mutually_exclusive_group()
    dom.add_argument("--domain-size", type=int, metavar="N",
                     help="use constants C1..CN plus any named in the input")
    dom.add_argument("--domain", type=str, metavar="A,B,...")
    cmd.add_argument("--engine", choices=tuple(ENGINES), default=DEFAULT_ENGINE)
    cmd.add_argument("--json", action="store_true")


def _build_parser() -> argparse.ArgumentParser:
    p = _ArgumentParser(prog="wfomc", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    sk = sub.add_parser("skolemize", help="eliminate quantifiers, emit the clausal theory")
    sk.set_defaults(run=_cmd_skolemize)
    sk.add_argument("input", type=Path)
    sk.add_argument("--shortcut", action="store_true",
                    help="require the prefix-universal shortcut (errors when not applicable)")
    sk.add_argument("--no-propagate", action="store_true",
                    help="skip unit propagation of the result")
    sk.add_argument("--json", action="store_true")

    cnf = sub.add_parser("cnf", help="convert to first-order CNF")
    cnf.set_defaults(run=_cmd_cnf)
    cnf.add_argument("input", type=Path)
    cnf.add_argument("--tseitin", action="store_true",
                     help="structure-preserving conversion instead of distribution")
    cnf.add_argument("--json", action="store_true")

    cnt = sub.add_parser("count", help="weighted first-order model count")
    cnt.set_defaults(run=_cmd_count)
    _count_arguments(cnt)

    prob = sub.add_parser("prob", help="query probability via the count ratio")
    prob.set_defaults(run=_cmd_prob)
    _count_arguments(prob)
    prob.add_argument("--query", required=True, metavar="FORMULA")
    prob.add_argument("--mode", choices=("exact", "float"), default=None)

    chk = sub.add_parser("check", help="randomized soundness/modularity certification")
    chk.set_defaults(run=_cmd_check)
    chk.add_argument("--seeds", type=_int_at_least(1, "a positive integer"), default=100)
    chk.add_argument("--sizes", type=_sizes, default="1,2", metavar="N,N,...")
    chk.add_argument("--max-atoms", type=_int_at_least(0, "a non-negative integer"), default=None)

    return p


def _load_encoding(path: Path, mode: str | None = None) -> tuple[WfomcEncoding, Domain | None]:
    """A .fol, .mln or .plp file as a counting problem, in ``mode``, and its
    declared domain (a .fol file's, else None). A .fol theory is its own
    model; an .mln or .plp file's encoder records the model's predicates."""
    text = path.read_text(encoding="utf-8")
    suffix = path.suffix.lower()
    declared = None
    if suffix == ".fol":
        theory, declared = parse_theory(text)
        enc = WfomcEncoding(theory)
    elif suffix == ".mln":
        enc = encode_mln(parse_mln(text))
    elif suffix == ".plp":
        enc = encode_problog(parse_problog(text))
    else:
        raise WfomcError(f"unknown input format {suffix!r} (expected .fol, .mln or .plp)")
    if mode == "exact" and suffix == ".mln":
        raise WfomcError("MLN weights are e^w; only float mode is available")
    if mode == "float":
        pairs = {sig: (float(wt), float(wf)) for sig, (wt, wf) in enc.theory.weights.pairs.items()}
        enc = replace(enc, theory=enc.theory.replace(weights=WeightFn(pairs, FLOAT)))
    return enc, declared


def _resolve_domain(args, theory: WeightedTheory, declared: Domain | None) -> Domain:
    extra = theory.constants()
    if args.domain_size is not None:
        return Domain.of_size(args.domain_size, extra=extra)
    if args.domain:
        names = [s.strip() for s in args.domain.split(",") if s.strip()]
        if not names:
            raise WfomcError("empty --domain")
        return Domain(tuple(Constant(n) for n in names))
    if declared is not None:
        return declared
    raise WfomcError("no domain: pass --domain-size or --domain (or declare one in the file)")


def _cmd_skolemize(args) -> int:
    theory = _load_encoding(args.input)[0].theory
    if args.shortcut:
        out = skolemize_prenex_shortcut(theory)
    else:
        out = skolemize(theory)
    out = to_cnf_distribute(out)
    if not args.no_propagate:
        out = unit_propagate(out)
    _emit_theory(out, args.json)
    return 0


def _cmd_cnf(args) -> int:
    theory = _load_encoding(args.input)[0].theory
    out = skolemize(theory)
    out = to_cnf_tseitin(out) if args.tseitin else to_cnf_distribute(out)
    _emit_theory(out, args.json)
    return 0


def _emit_theory(t: WeightedTheory, as_json: bool):
    text = serialize_theory(t)
    if as_json:
        print(json.dumps({"theory": text}))
    else:
        print(text, end="")


def _cmd_count(args) -> int:
    if args.input.suffix.lower() != ".fol":
        raise WfomcError("count expects a .fol theory")
    theory, declared = parse_theory(args.input.read_text(encoding="utf-8"))
    d = _resolve_domain(args, theory, declared)
    value = wfomc(theory, d, engine=args.engine)
    if args.json:
        print(json.dumps(count_json(value)))
    else:
        print(weight_str(value))
    return 0


def _cmd_prob(args) -> int:
    enc, declared = _load_encoding(args.input, args.mode)
    query = parse_query(args.query)
    d = _resolve_domain(args, enc.theory, declared)
    value = query_probability(enc, d, query, engine=args.engine)
    if args.json:
        print(json.dumps(probability_json(value)))
    else:
        print(weight_str(value))
    return 0


def _cmd_check(args) -> int:
    result = run_suite(seeds=args.seeds, sizes=args.sizes, max_atoms=args.max_atoms)
    for line in result.lines:
        print(line)
    return 0 if result.ok else 1


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.run(args)
    except CapExceededError as e:
        print(f"error: {e}", file=sys.stderr)
        return CAP_ERROR
    except (RecursionError, MemoryError) as e:
        # Last resort: no input may end in a traceback or the usage-error code.
        print(f"error: {type(e).__name__}: the input is nested too deeply or the "
              "domain is too large", file=sys.stderr)
        return CAP_ERROR
    except (ParseError, NonTightProgramError, WfomcError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return INPUT_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
