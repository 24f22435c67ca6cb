"""Batch command-line front end.

Every decision procedure, census, and probability computation is exposed as a
subcommand that prints one JSON document (or a text summary with
--format text).  Exit codes: 0 computed (whatever the verdict), 2 usage error,
3 enumeration cap exceeded, infeasible input (including a result with an integer
too long to print in decimal) or a failed write to stdout, 4 oracle disagreement
under --verify or a failed exactness invariant (never happens in a correct
build).  Only a computed document reaches stdout; every error is one "error:"
line on stderr.

--cap, else $IDEALGATE_CAP, bounds the ring order that --verify closes for
ideal zn and order (default 10^6), and the ring order that census, prob
and verify census by brute force (default 10^4).  ideal zd reads no cap, but
every subcommand, ideal zd too, exits 2 on a cap that is not a positive integer.
A census within the cap also exits 3 before it starts when the census's own
count of the ring's subgroups is over its fixed subgroup bound, which the cap
does not change.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from fractions import Fraction
from itertools import product
from typing import Callable, Sequence

from .census import (
    DEFAULT_CENSUS_CAP,
    _is_ideal_bits,
    census_ideal_count,
    count_ideals_pp,
    count_subgroups_closed,
    count_subgroups_sum,
    enumerate_subgroups_bruteforce,
)
from .exactarith import InvariantError, require_prime
from .finite import (
    DEFAULT_MATERIALIZE_CAP,
    _closure_bits,
    _strides,
    EnumerationCapExceeded,
    FiniteSubgroup,
    ProductRing,
    general_is_ideal,
)
from .lattice import IntMatrix, canonical_basis, is_ideal_zd, member
from .probability import prob_nm, prob_vector_space

CAP_ENV_VAR = "IDEALGATE_CAP"

# A handler returns its document and a zero-argument oracle that reruns the answer
# by brute force and says whether it agrees; run() does the rest, once for all.
_Answer = tuple[dict, Callable[[], bool]]


def _parse_vectors(text: str) -> list[tuple[int, ...]]:
    """Parse "a1,a2;b1,b2" into integer vectors; empty text means no generators."""
    text = text.strip()
    if not text:
        return []
    vectors = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            raise ValueError(f"empty generator in {text!r}")
        vectors.append(tuple(_parse_int(part, "generator", chunk) for part in chunk.split(",")))
    if len({len(v) for v in vectors}) > 1:
        raise ValueError("generators must all have the same length")
    return vectors


def _parse_csv_ints(text: str, what: str) -> list[int]:
    return [_parse_int(part, what, text) for part in text.split(",")]


def _parse_int(part: str, what: str, context: str) -> int:
    try:
        return int(part)
    except ValueError:
        digits = part.strip().lstrip("+-")
        if digits.isdecimal():
            # a well-formed integer that int() still refused: Python's
            # int/str digit limit, which guards against quadratic conversion
            raise ValueError(
                f"{what} entry has {len(digits)} digits, over Python's limit of "
                f"{sys.get_int_max_str_digits()} digits for int/str conversion"
            ) from None
        raise ValueError(f"unparseable {what} {context!r}") from None


def _cap(args: argparse.Namespace, default: int | None) -> int | None:
    """--cap, else IDEALGATE_CAP, else the default.  The value is checked for
    every subcommand, but a default of None (ideal zd) reads no cap."""
    env = os.environ.get(CAP_ENV_VAR)
    if args.cap is None and env is None:
        return default
    try:
        cap = int(env) if args.cap is None else args.cap
    except ValueError:
        raise ValueError(f"{CAP_ENV_VAR} must be an integer, got {env!r}") from None
    if cap < 1:
        raise ValueError("cap must be positive")
    return None if default is None else cap


class _DigitLimitExceeded(Exception):
    """A document would hold an integer over Python's int/str digit limit."""

    def __str__(self) -> str:
        return (
            "the result has an integer over Python's limit of "
            f"{sys.get_int_max_str_digits()} digits for int/str conversion"
        )


def _require_printable_power(p: int, e: int) -> None:
    """Raise _DigitLimitExceeded, before anything is counted, when p**e (p >= 2)
    has more decimal digits than int/str conversion allows.

    Far from the limit this is read off bit lengths without building p**e:
    2**(e * (p.bit_length() - 1)) <= p**e < 2**(e * p.bit_length()), and
    2**(3*L) < 10**L < 2**(4*L).  Between the two, p**e has at most 8*L bits,
    and the digits are compared exactly.
    """
    limit = sys.get_int_max_str_digits()
    if not limit or e * p.bit_length() <= 3 * limit:
        return
    if e * (p.bit_length() - 1) > 4 * limit or p**e >= 10**limit:
        raise _DigitLimitExceeded


def _fraction_doc(value: Fraction) -> dict:
    return {"num": value.numerator, "den": value.denominator}


def _witness_doc(witness) -> dict:
    u = witness.unimodular
    return {
        "diagonal": list(witness.diagonal),
        "unimodular": [list(u.row(i)) for i in range(u.rows)],
        "support": list(witness.support),
    }


def _doc(command: str, ring: dict | None, gens, verdict, **fields) -> dict:
    """The fields up to the verdict, then the subcommand's own; run() appends the rest."""
    return dict(command=command, ring=ring, generators=[list(g) for g in gens], verdict=verdict, **fields)


def _subgroup(args: argparse.Namespace) -> FiniteSubgroup:
    """The subgroup of Z_n1 x ... x Z_nk given by --moduli and --gens."""
    ring = ProductRing(tuple(_parse_csv_ints(args.moduli, "moduli")))
    gens = _parse_vectors(args.gens)
    if any(len(g) != ring.arity for g in gens):
        raise ValueError("generator length must match the number of moduli")
    return FiniteSubgroup(ring, tuple(gens))


def _census_counts(moduli: Sequence[int], cap: int) -> tuple[int, int]:
    """(subgroups, ideals) of Z_n1 x ... x Z_nk, the oracle of every printed count."""
    census = enumerate_subgroups_bruteforce(ProductRing(tuple(moduli)), max_order=cap)
    return len(census), census_ideal_count(census)


def _zd_closure_oracle(matrix: IntMatrix) -> bool:
    # Independent of the gcd/determinant route: an additive subgroup is an
    # ideal iff every coordinate projection of every generator stays inside.
    basis = canonical_basis(matrix)
    return all(
        member(tuple(x if t == i else 0 for t, x in enumerate(col)), basis)
        for col in matrix.columns()
        for i in range(matrix.rows)
    )


def _handle_ideal_zd(args: argparse.Namespace, cap: None) -> _Answer:
    gens = _parse_vectors(args.gens)
    dim = args.dim
    if dim is None:
        if not gens:
            raise ValueError("--dim is required when no generators are given")
        dim = len(gens[0])
    if dim < 1:
        raise ValueError("--dim must be >= 1")
    if gens and len(gens[0]) != dim:
        raise ValueError(f"generator length {len(gens[0])} != --dim {dim}")
    matrix = IntMatrix.from_columns(gens, rows=dim)
    decision = is_ideal_zd(matrix)
    doc = _doc("ideal zd", {"kind": "zd", "dim": dim}, gens, "ideal" if decision.ideal else "not_ideal")
    if args.witness and decision.ideal:
        # the zero subgroup is an ideal with an empty (0 x 0) witness
        doc["witness"] = (
            _witness_doc(decision.witness)
            if decision.witness is not None
            else {"diagonal": [], "unimodular": [], "support": []}
        )
    return doc, lambda: _zd_closure_oracle(matrix) == decision.ideal


def _handle_ideal_zn(args: argparse.Namespace, cap: int) -> _Answer:
    subgroup = _subgroup(args)
    ring, gens = subgroup.ring, subgroup.generators
    ideal = general_is_ideal(subgroup)
    doc = _doc("ideal zn", {"kind": "zn", "moduli": list(ring.moduli)}, gens, "ideal" if ideal else "not_ideal")
    return doc, lambda: _is_ideal_bits(_closure_bits(ring, gens, cap), gens, _strides(ring.moduli)) == ideal


def _handle_order(args: argparse.Namespace, cap: int) -> _Answer:
    subgroup = _subgroup(args)
    value = subgroup.order()
    doc = _doc("order", {"kind": "zn", "moduli": list(subgroup.ring.moduli)}, subgroup.generators, value)
    return doc, lambda: _closure_bits(subgroup.ring, subgroup.generators, cap).bit_count() == value


def _handle_census(args: argparse.Namespace, cap: int) -> _Answer:
    require_prime(args.p)
    if args.r < 0 or args.s < 0:
        raise ValueError("--r and --s must be nonnegative")
    _require_printable_power(args.p, max(args.r, args.s))  # the larger modulus
    subgroups = count_subgroups_closed(args.p, args.r, args.s)
    if subgroups != count_subgroups_sum(args.p, args.r, args.s):
        raise InvariantError("closed-form and summed subgroup counts differ")
    ideals = count_ideals_pp(args.r, args.s)
    moduli = [args.p**args.r, args.p**args.s]
    counts = {"subgroups": subgroups, "ideals": ideals}
    doc = _doc("census", {"kind": "zn", "moduli": moduli}, [], None, counts=counts)
    return doc, lambda: _census_counts(moduli, cap) == (subgroups, ideals)


def _handle_prob(args: argparse.Namespace, cap: int) -> _Answer:
    if args.n is not None or args.m is not None:
        if args.n is None or args.m is None or args.p is not None or args.dim is not None:
            raise ValueError("use --n with --m, or --p with --dim")
        report = prob_nm(args.n, args.m)
        moduli = [args.n, args.m]
    else:
        if args.p is None or args.dim is None:
            raise ValueError("use --n with --m, or --p with --dim")
        require_prime(args.p)
        if args.dim < 1:
            raise ValueError("need at least one factor")
        # the subspace count is at least its Gaussian binomial at dim // 2,
        # which is at least p**((dim // 2) * (dim - dim // 2))
        _require_printable_power(args.p, args.dim * args.dim // 4)
        report = prob_vector_space(args.p, args.dim)
        moduli = [args.p] * args.dim
    counts = {"subgroups": report.subgroup_count, "ideals": report.ideal_count}
    probability = _fraction_doc(report.probability)
    doc = _doc("prob", {"kind": "zn", "moduli": moduli}, [], None, counts=counts, probability=probability)
    counted = (report.subgroup_count, report.ideal_count)
    return doc, lambda: _census_counts(moduli, cap) == counted


def _handle_verify(args: argparse.Namespace, cap: int) -> _Answer:
    primes = _parse_csv_ints(args.primes, "primes")
    for p in primes:
        require_prime(p)
    if args.max_order < 1 or args.max_nm < 1:
        raise ValueError("--max-order and --max-nm must be positive")
    rows = []
    exponents = range(args.max_order.bit_length())
    for p, r, s in product(primes, exponents, exponents):
        if r > s or p ** (r + s) > args.max_order:
            continue
        formula = count_subgroups_closed(p, r, s)
        subgroups, ideals = _census_counts((p**r, p**s), cap)
        row_ok = subgroups == formula == count_subgroups_sum(p, r, s) and ideals == count_ideals_pp(r, s)
        rows.append(
            {
                "check": "prime_power_census",
                "p": p,
                "r": r,
                "s": s,
                "subgroups_formula": formula,
                "subgroups_census": subgroups,
                "ideals_formula": count_ideals_pp(r, s),
                "ideals_census": ideals,
                "ok": row_ok,
            }
        )
    for n, m in product(range(1, args.max_nm + 1), repeat=2):
        report = prob_nm(n, m)
        subgroups, ideals = _census_counts((n, m), cap)
        ratio = Fraction(ideals, subgroups)
        rows.append(
            {
                "check": "probability",
                "n": n,
                "m": m,
                "probability": _fraction_doc(report.probability),
                "census_probability": _fraction_doc(ratio),
                "ok": (subgroups, ideals) == (report.subgroup_count, report.ideal_count),
            }
        )
    ok = all(row["ok"] for row in rows)
    # the sweep is its own oracle: it has already compared every row
    return _doc("verify", None, [], "ok" if ok else "mismatch", rows=rows), lambda: ok


def _render_text(doc: dict) -> str:
    lines = [f"command: {doc['command']}"]
    ring = doc.get("ring")
    if ring:
        if ring["kind"] == "zd":
            lines.append(f"ring: Z^{ring['dim']}")
        else:
            lines.append("ring: Z_" + " x Z_".join(str(n) for n in ring["moduli"]))
    if doc.get("generators"):
        lines.append(
            "generators: " + "; ".join(",".join(str(x) for x in g) for g in doc["generators"])
        )
    if doc.get("verdict") is not None:
        lines.append(f"verdict: {doc['verdict']}")
    witness = doc.get("witness")
    if witness:
        lines.append(f"witness diagonal: {witness['diagonal']}")
        lines.append(f"witness unimodular rows: {witness['unimodular']}")
        lines.append(f"witness support: {witness['support']}")
    counts = doc.get("counts")
    if counts:
        lines.append(f"subgroups: {counts['subgroups']}  ideals: {counts['ideals']}")
    prob = doc.get("probability")
    if prob:
        lines.append(f"probability: {prob['num']}/{prob['den']}")
    for row in doc.get("rows", []):
        flat = "  ".join(f"{k}={v}" for k, v in row.items())
        lines.append(flat)
    lines.append(f"oracle_checked: {doc['oracle_checked']}")
    lines.append(f"elapsed_ms: {doc['elapsed_ms']}")
    return "\n".join(lines)


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "text"), default="json")
    # one --cap, shared because run() builds the parser per call; its help
    # states the defaults that the subcommands set as cap_default below
    common.add_argument(
        "--cap",
        type=int,
        default=None,
        help=f"max ring order to enumerate: what --verify closes in ideal zn and order "
        f"(default {DEFAULT_MATERIALIZE_CAP}), a census in census, prob and verify (default "
        f"{DEFAULT_CENSUS_CAP}); ideal zd reads none; ${CAP_ENV_VAR} is the fallback",
    )
    common.add_argument(
        "--verify", action="store_true", help="also run the brute-force oracle (exit 4 on disagreement)"
    )

    parser = argparse.ArgumentParser(
        prog="idealgate",
        description="Exact ideal tests, subgroup censuses, and ideal probabilities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    ideal = sub.add_parser("ideal", help="decide whether a subgroup is an ideal")
    ideal_sub = ideal.add_subparsers(dest="ambient", required=True)

    zd = ideal_sub.add_parser("zd", parents=[common], help="subgroup of Z^d from generator columns")
    zd.add_argument("--gens", required=True, help='generators, e.g. "2,0;3,1"')
    zd.add_argument("--dim", type=int, default=None, help="ambient dimension (default: generator length)")
    zd.add_argument("--witness", action="store_true", help="include the diagonalization witness")
    zd.set_defaults(handler=_handle_ideal_zd, cap_default=None)

    zn = ideal_sub.add_parser("zn", parents=[common], help="subgroup of Z_n1 x ... x Z_nk")
    zn.add_argument("--moduli", required=True, help='factor moduli, e.g. "4,2"')
    zn.add_argument("--gens", required=True, help='generators, e.g. "2,0;3,1"')
    zn.set_defaults(handler=_handle_ideal_zn, cap_default=DEFAULT_MATERIALIZE_CAP)

    order = sub.add_parser("order", parents=[common], help="subgroup order without enumeration")
    order.add_argument("--moduli", required=True)
    order.add_argument("--gens", required=True)
    order.set_defaults(handler=_handle_order, cap_default=DEFAULT_MATERIALIZE_CAP)

    census = sub.add_parser("census", parents=[common], help="subgroup/ideal counts of Z_{p^r} x Z_{p^s}")
    census.add_argument("--p", type=int, required=True)
    census.add_argument("--r", type=int, required=True)
    census.add_argument("--s", type=int, required=True)
    census.set_defaults(handler=_handle_census, cap_default=DEFAULT_CENSUS_CAP)

    prob = sub.add_parser("prob", parents=[common], help="probability that a random subgroup is an ideal")
    prob.add_argument("--n", type=int, default=None)
    prob.add_argument("--m", type=int, default=None)
    prob.add_argument("--p", type=int, default=None, help="prime, for the vector-space form")
    prob.add_argument("--dim", type=int, default=None, help="number of Z_p factors")
    prob.set_defaults(handler=_handle_prob, cap_default=DEFAULT_CENSUS_CAP)

    verify = sub.add_parser("verify", parents=[common], help="sweep formulas against brute-force censuses")
    verify.add_argument("--primes", default="2,3")
    verify.add_argument("--max-order", type=int, default=256, help="census rings up to this order")
    verify.add_argument("--max-nm", type=int, default=6, help="probability checks for n, m up to this bound")
    verify.set_defaults(handler=_handle_verify, cap_default=DEFAULT_CENSUS_CAP)

    return parser


def run(argv: Sequence[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    start = time.perf_counter()
    try:
        doc, oracle = args.handler(args, _cap(args, args.cap_default))
        # the verify sweep is an oracle run, with or without --verify
        doc["oracle_checked"] = args.verify or args.command == "verify"
        code = 4 if doc["oracle_checked"] and not oracle() else 0
    except (EnumerationCapExceeded, _DigitLimitExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except InvariantError as exc:
        print(f"error: internal invariant failed: {exc}", file=sys.stderr)
        return 4
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    doc["elapsed_ms"] = round((time.perf_counter() - start) * 1000, 3)
    try:
        rendered = _render_text(doc) if args.format == "text" else json.dumps(doc)
    except ValueError:
        # the only ValueError rendering can raise: Python's int/str digit limit
        print(f"error: {_DigitLimitExceeded()}", file=sys.stderr)
        return 3
    try:
        print(rendered, flush=True)
    except OSError as exc:  # a full device, or a pipe whose reader has gone
        print(f"error: cannot write the result to stdout: {exc.strerror or exc}", file=sys.stderr)
        return 3
    return code


def main() -> None:
    code = run()
    if code == 3 and sys.stdout is not None:
        # a failed write leaves the document buffered: the interpreter's exit
        # flush goes to os.devnull, so that it cannot fail again (exit 120)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.exit(code)
