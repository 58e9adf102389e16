"""Command-line front end.

Subcommands:

    pi          evaluate a sequence in a given base
    check       uniqueness verdict for one sequence (JSON)
    scan-curve  CSV sweep of the threshold curves P, R, p, r
    automaton   build the avoidance automaton (DOT / classify / count)
    selftest    run the built-in consistency suites

Each subcommand imports the layers it runs when it runs, so ``pi``
loads only :mod:`univoque.sequences`.

Exit codes: 0 success, 1 selftest failure or stdout closed early, 2 bad
input, 3 a request outside the supported parameter domain.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass

from .sequences import (
    Alphabet,
    EPSeq,
    NotationError,
    parse_seq,
    pi_complement,
    pi_eval,
    pi_word,
)


class UnsupportedDomainError(Exception):
    """Request outside the parameter range the package covers."""


def _finite_float(text: str) -> float:
    """argparse type: a float that is neither infinite nor NaN."""
    try:
        x = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not math.isfinite(x):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return x


def _perturbation(text: str) -> float:
    """argparse type for --perturb-p: a finite offset of size at most 1;
    the sign suite raises P(m) plus the offset to the fourth power."""
    x = _finite_float(text)
    if not abs(x) <= 1.0:
        raise argparse.ArgumentTypeError(f"must lie in [-1, 1], got {text!r}")
    return x


def _alphabet_from_args(args) -> Alphabet:
    if args.digits is not None:
        if args.m is not None:
            raise ValueError("give either --m or --digits, not both")
        parts = [p for p in args.digits.split(",") if p.strip()]
        if not parts:
            raise ValueError("--digits needs a comma-separated list")
        return Alphabet.from_digits(float(p) for p in parts)
    if args.m is None:
        raise ValueError("specify --m (alphabet {0,1,m}) or --digits")
    return Alphabet.ternary(args.m)


# --- pi ---------------------------------------------------------------------

def cmd_pi(args) -> int:
    alphabet = _alphabet_from_args(args)
    seq = parse_seq(args.notation, alphabet)
    if args.complement:
        if not isinstance(seq, EPSeq):
            raise ValueError("--complement needs an infinite sequence (use ^w)")
        if args.m is None:
            raise ValueError("--complement needs --m")
        value = pi_complement(seq, args.m, args.q)
    elif isinstance(seq, EPSeq):
        value = pi_eval(seq, args.q)
    else:
        value = pi_word(seq, args.q)
    if not math.isfinite(value):
        raise ValueError(f"the value overflows a float: {value}")
    print(f"{value:.17g}")
    return 0


# --- check ------------------------------------------------------------------

def cmd_check(args) -> int:
    from .uniqueness import check_univoque_general, check_v_membership
    if args.general:
        alphabet = _alphabet_from_args(args)
    else:
        if args.digits is not None:
            raise ValueError("--ternary takes --m, not --digits")
        if args.m is None:
            raise ValueError("--ternary needs --m")
        alphabet = Alphabet.ternary(args.m)
    seq = parse_seq(args.notation, alphabet)
    if not isinstance(seq, EPSeq):
        raise ValueError("check needs an infinite sequence (use ^w)")
    if args.general:
        verdict = check_univoque_general(seq, args.q)
    else:
        verdict = check_v_membership(seq, args.m, args.q)
    payload = {"verdict": verdict.kind.value, "witness": None, "slack": None}
    if verdict.witness is not None:
        w = verdict.witness
        payload["witness"] = {
            "position": w.position,
            "condition": w.condition,
            "slack": w.slack,
            "boundary": w.boundary,
        }
        payload["slack"] = w.slack
    print(json.dumps(payload, allow_nan=False))
    return 0


# --- scan-curve ---------------------------------------------------------------

@dataclass(frozen=True)
class CurveRow:
    m: float
    P: float
    R: float
    p: float | None
    r: float | None
    branch: str | None

    def to_csv(self) -> str:
        return (f"{self.m:.17g},{self.P:.17g},{self.R:.17g},"
                f"{'NA' if self.p is None else format(self.p, '.17g')},"
                f"{'NA' if self.r is None else format(self.r, '.17g')},"
                f"{'NA' if self.branch is None else self.branch}")


CSV_HEADER = "m,P,R,p,r,branch"

# Largest grid scan-curve computes; each row costs up to one root solve.
MAX_CURVE_ROWS = 1_000_000


def curve_rows(m_lo: float, m_hi: float, step: float) -> list[CurveRow]:
    """Rows for m = m_lo, m_lo + step, ... up to m_hi (inclusive within
    a small tolerance).  The grid is index-based so rows are identical
    across runs regardless of accumulation order.  A grid of more than
    MAX_CURVE_ROWS rows raises ValueError."""
    from .critical import P, R, _r_on, branch_for, p_of_m
    if not all(map(math.isfinite, (m_lo, m_hi, step))):
        raise ValueError("m_lo, m_hi and step must be finite")
    if m_lo < 2.0:
        raise UnsupportedDomainError(
            f"m_lo={m_lo}: the curves are only defined for m >= 2")
    if not m_hi > m_lo:
        raise ValueError("m_hi must exceed m_lo")
    if not step > 0:
        raise ValueError("step must be positive")
    rows = []
    for k in range(_grid_size(m_lo, m_hi + 1e-12, step)):
        m = m_lo + k * step
        b, top = branch_for(m), R(m)
        r = None if b is None else _r_on(b, m, top)
        rows.append(CurveRow(m, P(m), top, p_of_m(m), r, b and b.label))
    return rows


def _grid_size(m_lo: float, top: float, step: float) -> int:
    """Number of k >= 0 with m_lo + k * step <= top, counted by the rule
    the row loop uses, without computing any row."""
    k = 0
    while m_lo + k * step <= top:
        k += 1
        if k > MAX_CURVE_ROWS:
            raise ValueError(f"the grid has more than {MAX_CURVE_ROWS} rows; "
                             "use a larger step or a shorter range")
    return k


def cmd_scan_curve(args) -> int:
    rows = curve_rows(args.m_lo, args.m_hi, args.step)
    lines = [CSV_HEADER] + [r.to_csv() for r in rows]
    text = "\n".join(lines) + "\n"
    if args.out == "-":
        sys.stdout.write(text)
    else:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise ValueError(f"cannot write {args.out}: {exc.strerror}") from None
    return 0


# --- automaton ----------------------------------------------------------------

def _parse_blocks(spec: str) -> list[str]:
    return [p.strip() for p in spec.split(",")]


def cmd_automaton(args) -> int:
    from .automata import (build_safety_automaton, classify_growth, count_words,
                           export_dot, growth_rate)
    if args.scan is None and args.blocks is None:
        raise ValueError("give --blocks or --scan")
    blocks = []
    if args.scan is not None:
        m, q, lmax = args.scan
        if not lmax.is_integer():
            raise ValueError(f"LMAX must be an integer, got {lmax}")
        from .uniqueness import scan_forbidden
        blocks = [w.text() for w in scan_forbidden(m, q, int(lmax))]
    if args.blocks is not None:
        blocks += _parse_blocks(args.blocks)
    aut = build_safety_automaton(blocks)
    # every part is computed before any is written, so an error
    # (such as a component above MAX_PERRON_STATES) leaves stdout empty
    parts = []
    if args.dot:
        parts.append(export_dot(aut))
    if args.classify:
        g = classify_growth(aut)
        payload = {
            "states": aut.n_states,
            "kind": g.kind.value,
            "path_count": g.path_count,
            "growth_rate": growth_rate(aut),
            "evidence": list(g.evidence),
        }
        parts.append(json.dumps(payload, allow_nan=False) + "\n")
    if args.count is not None:
        parts.append(f"{count_words(aut, args.count)}\n")
    if not parts:
        raise ValueError("nothing to do: give --dot, --classify, or --count")
    sys.stdout.write("".join(parts))
    return 0


# --- selftest -----------------------------------------------------------------

def cmd_selftest(args) -> int:
    from .selftest import run_selftest
    results = run_selftest(perturb_p=args.perturb_p)
    if args.json:
        print(json.dumps([{"name": n, "passed": ok, "detail": d}
                          for n, ok, d in results]))
    else:
        for name, ok, detail in results:
            print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    return 0 if all(ok for _, ok, _ in results) else 1


# --- wiring -------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="univoque",
        description="Unique digit expansions over {0, 1, m} and their "
                    "critical bases.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_pi = sub.add_parser("pi", help="evaluate a sequence in base q")
    p_pi.add_argument("notation", help="sequence, e.g. 'm1^w' or '(m1)^w'")
    p_pi.add_argument("--q", type=_finite_float, required=True,
                      help="base, q > 1")
    p_pi.add_argument("--m", type=float, help="top digit of {0,1,m}")
    p_pi.add_argument("--digits", help="comma-separated digits, e.g. 0,1,3")
    p_pi.add_argument("--complement", action="store_true",
                      help="evaluate the digitwise reflection m - c_i")
    p_pi.set_defaults(func=cmd_pi)

    p_check = sub.add_parser("check", help="uniqueness verdict (JSON)")
    p_check.add_argument("notation")
    p_check.add_argument("--q", type=_finite_float, required=True)
    mode = p_check.add_mutually_exclusive_group(required=True)
    mode.add_argument("--ternary", action="store_true",
                      help="zero-free membership test over {0,1,m}")
    mode.add_argument("--general", action="store_true",
                      help="general uniqueness test for any alphabet")
    p_check.add_argument("--m", type=float)
    p_check.add_argument("--digits")
    p_check.set_defaults(func=cmd_check)

    p_scan = sub.add_parser("scan-curve",
                            help="CSV sweep of P, R, p, r over an m-grid")
    p_scan.add_argument("--m-lo", type=float, required=True)
    p_scan.add_argument("--m-hi", type=float, required=True)
    p_scan.add_argument("--step", type=float, required=True)
    p_scan.add_argument("--out", default="-", help="output path, '-' = stdout")
    p_scan.set_defaults(func=cmd_scan_curve)

    p_aut = sub.add_parser("automaton",
                           help="avoidance automaton for forbidden blocks")
    p_aut.add_argument("--blocks",
                       help="comma-separated blocks over 1/m, e.g. 11,mm; "
                            "with --scan, added to the scanned blocks")
    p_aut.add_argument("--scan", nargs=3, type=_finite_float,
                       metavar=("M", "Q", "LMAX"),
                       help="derive the blocks by scanning lengths <= LMAX")
    p_aut.add_argument("--dot", action="store_true", help="print DOT source")
    p_aut.add_argument("--classify", action="store_true",
                       help="print growth classification (JSON)")
    p_aut.add_argument("--count", type=int,
                       help="print the number of length-N factor words")
    p_aut.set_defaults(func=cmd_automaton)

    p_self = sub.add_parser("selftest", help="run consistency suites")
    p_self.add_argument("--json", action="store_true")
    p_self.add_argument("--perturb-p", type=_perturbation, default=0.0,
                        help="offset added to P(m); nonzero must fail")
    p_self.set_defaults(func=cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe shows up here at the latest
        return code
    except BrokenPipeError:  # the reader left; silence the flush at exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except UnsupportedDomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (NotationError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
