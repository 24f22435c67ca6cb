"""Batch command-line front end.

Every decision procedure, census, and probability computation is exposed as a
subcommand that prints one JSON document (or a text summary with
--format text).  Exit codes: 0 computed (whatever the verdict), 2 usage error,
3 enumeration cap exceeded or infeasible input (including a result with an
integer too long to print in decimal), 4 oracle disagreement under --verify or
a failed exactness invariant (never happens in a correct build).  Only a
computed document reaches stdout; every error is one "error:" line on stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from fractions import Fraction
from typing import Sequence

from .census import (
    DEFAULT_CENSUS_CAP,
    census_ideal_count,
    count_ideals_pp,
    count_subgroups_closed,
    count_subgroups_sum,
    enumerate_subgroups_bruteforce,
    is_ideal_bruteforce,
)
from .exactarith import InvariantError, require_prime
from .finite import (
    DEFAULT_MATERIALIZE_CAP,
    EnumerationCapExceeded,
    FiniteSubgroup,
    ProductRing,
    general_is_ideal,
)
from .lattice import IntMatrix, canonical_basis, is_ideal_zd, member
from .probability import prob_nm, prob_vector_space

CAP_ENV_VAR = "IDEALGATE_CAP"


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


def _caps(args: argparse.Namespace) -> tuple[int, int]:
    """(materialization cap, census cap); --cap overrides both, IDEALGATE_CAP is the fallback."""
    cap = getattr(args, "cap", None)
    if cap is None:
        env = os.environ.get(CAP_ENV_VAR)
        if env is not None:
            try:
                cap = int(env)
            except ValueError:
                raise ValueError(f"{CAP_ENV_VAR} must be an integer, got {env!r}") from None
    if cap is not None and cap < 1:
        raise ValueError("cap must be positive")
    if cap is None:
        return DEFAULT_MATERIALIZE_CAP, DEFAULT_CENSUS_CAP
    return cap, cap


def _fraction_doc(value: Fraction) -> dict:
    return {"num": value.numerator, "den": value.denominator}


def _witness_doc(witness) -> dict:
    u = witness.unimodular
    return {
        "diagonal": list(witness.diagonal),
        "unimodular": [list(u.row(i)) for i in range(u.rows)],
        "support": list(witness.support),
    }


def _zd_closure_oracle(matrix: IntMatrix) -> bool:
    # Independent of the gcd/determinant route: an additive subgroup is an
    # ideal iff every coordinate projection of every generator stays inside.
    basis = canonical_basis(matrix)
    return all(
        member(tuple(x if t == i else 0 for t, x in enumerate(col)), basis)
        for col in matrix.columns()
        for i in range(matrix.rows)
    )


def _handle_ideal_zd(args: argparse.Namespace) -> tuple[dict, int]:
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
    verdict = "ideal" if decision.ideal else "not_ideal"
    doc = {
        "command": "ideal zd",
        "ring": {"kind": "zd", "dim": dim},
        "generators": [list(g) for g in gens],
        "verdict": verdict,
    }
    if args.witness and decision.ideal:
        # the zero subgroup is an ideal with an empty (0 x 0) witness
        doc["witness"] = (
            _witness_doc(decision.witness)
            if decision.witness is not None
            else {"diagonal": [], "unimodular": [], "support": []}
        )
    code = 0
    doc["oracle_checked"] = bool(args.verify)
    if args.verify and _zd_closure_oracle(matrix) != decision.ideal:
        code = 4
    return doc, code


def _handle_ideal_zn(args: argparse.Namespace) -> tuple[dict, int]:
    materialize_cap, _ = _caps(args)
    moduli = _parse_csv_ints(args.moduli, "moduli")
    ring = ProductRing(tuple(moduli))
    gens = _parse_vectors(args.gens)
    if any(len(g) != ring.arity for g in gens):
        raise ValueError("generator length must match the number of moduli")
    subgroup = FiniteSubgroup(ring, tuple(gens))
    verdict_bool = general_is_ideal(subgroup)
    doc = {
        "command": "ideal zn",
        "ring": {"kind": "zn", "moduli": list(ring.moduli)},
        "generators": [list(g) for g in subgroup.generators],
        "verdict": "ideal" if verdict_bool else "not_ideal",
    }
    code = 0
    doc["oracle_checked"] = bool(args.verify)
    if args.verify:
        oracle = is_ideal_bruteforce(subgroup.materialize(cap=materialize_cap))
        if oracle != verdict_bool:
            code = 4
    return doc, code


def _handle_order(args: argparse.Namespace) -> tuple[dict, int]:
    materialize_cap, _ = _caps(args)
    moduli = _parse_csv_ints(args.moduli, "moduli")
    ring = ProductRing(tuple(moduli))
    gens = _parse_vectors(args.gens)
    if any(len(g) != ring.arity for g in gens):
        raise ValueError("generator length must match the number of moduli")
    subgroup = FiniteSubgroup(ring, tuple(gens))
    value = subgroup.order()
    doc = {
        "command": "order",
        "ring": {"kind": "zn", "moduli": list(ring.moduli)},
        "generators": [list(g) for g in subgroup.generators],
        "verdict": value,
    }
    code = 0
    doc["oracle_checked"] = bool(args.verify)
    if args.verify:
        if len(subgroup.materialize(cap=materialize_cap).elements) != value:
            code = 4
    return doc, code


def _handle_census(args: argparse.Namespace) -> tuple[dict, int]:
    _, census_cap = _caps(args)
    require_prime(args.p)
    if args.r < 0 or args.s < 0:
        raise ValueError("--r and --s must be nonnegative")
    subgroups = count_subgroups_closed(args.p, args.r, args.s)
    if subgroups != count_subgroups_sum(args.p, args.r, args.s):
        raise InvariantError("closed-form and summed subgroup counts differ")
    ideals = count_ideals_pp(args.r, args.s)
    moduli = [args.p**args.r, args.p**args.s]
    doc = {
        "command": "census",
        "ring": {"kind": "zn", "moduli": moduli},
        "generators": [],
        "verdict": None,
        "counts": {"subgroups": subgroups, "ideals": ideals},
    }
    code = 0
    doc["oracle_checked"] = bool(args.verify)
    if args.verify:
        census = enumerate_subgroups_bruteforce(ProductRing(tuple(moduli)), max_order=census_cap)
        if len(census) != subgroups or census_ideal_count(census) != ideals:
            code = 4
    return doc, code


def _handle_prob(args: argparse.Namespace) -> tuple[dict, int]:
    _, census_cap = _caps(args)
    if args.n is not None or args.m is not None:
        if args.n is None or args.m is None or args.p is not None or args.dim is not None:
            raise ValueError("use --n with --m, or --p with --dim")
        report = prob_nm(args.n, args.m)
        moduli = [args.n, args.m]
    else:
        if args.p is None or args.dim is None:
            raise ValueError("use --n with --m, or --p with --dim")
        report = prob_vector_space(args.p, args.dim)
        moduli = [args.p] * args.dim
    doc = {
        "command": "prob",
        "ring": {"kind": "zn", "moduli": moduli},
        "generators": [],
        "verdict": None,
        "counts": {"subgroups": report.subgroup_count, "ideals": report.ideal_count},
        "probability": _fraction_doc(report.probability),
    }
    code = 0
    doc["oracle_checked"] = bool(args.verify)
    if args.verify:
        census = enumerate_subgroups_bruteforce(ProductRing(tuple(moduli)), max_order=census_cap)
        if (
            len(census) != report.subgroup_count
            or census_ideal_count(census) != report.ideal_count
        ):
            code = 4
    return doc, code


def _handle_verify(args: argparse.Namespace) -> tuple[dict, int]:
    _, census_cap = _caps(args)
    primes = _parse_csv_ints(args.primes, "primes")
    for p in primes:
        require_prime(p)
    if args.max_order < 1 or args.max_nm < 1:
        raise ValueError("--max-order and --max-nm must be positive")
    rows = []
    ok = True
    for p in primes:
        for r in range(0, args.max_order.bit_length()):
            for s in range(r, args.max_order.bit_length()):
                if p ** (r + s) > args.max_order:
                    continue
                ring = ProductRing((p**r, p**s))
                census = enumerate_subgroups_bruteforce(ring, max_order=census_cap)
                formula = count_subgroups_closed(p, r, s)
                row_ok = (
                    len(census) == formula == count_subgroups_sum(p, r, s)
                    and census_ideal_count(census) == count_ideals_pp(r, s)
                )
                rows.append(
                    {
                        "check": "prime_power_census",
                        "p": p,
                        "r": r,
                        "s": s,
                        "subgroups_formula": formula,
                        "subgroups_census": len(census),
                        "ideals_formula": count_ideals_pp(r, s),
                        "ideals_census": census_ideal_count(census),
                        "ok": row_ok,
                    }
                )
                ok = ok and row_ok
    for n in range(1, args.max_nm + 1):
        for m in range(1, args.max_nm + 1):
            report = prob_nm(n, m)
            census = enumerate_subgroups_bruteforce(ProductRing((n, m)), max_order=census_cap)
            ratio = Fraction(census_ideal_count(census), len(census))
            row_ok = ratio == report.probability
            rows.append(
                {
                    "check": "probability",
                    "n": n,
                    "m": m,
                    "probability": _fraction_doc(report.probability),
                    "census_probability": _fraction_doc(ratio),
                    "ok": row_ok,
                }
            )
            ok = ok and row_ok
    doc = {
        "command": "verify",
        "ring": None,
        "generators": [],
        "verdict": "ok" if ok else "mismatch",
        "rows": rows,
        "oracle_checked": True,
    }
    return doc, 0 if ok else 4


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
    common.add_argument(
        "--cap",
        type=int,
        default=None,
        help=f"enumeration cap (max ring order to materialize); ${CAP_ENV_VAR} is the fallback",
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
    zd.set_defaults(handler=_handle_ideal_zd)

    zn = ideal_sub.add_parser("zn", parents=[common], help="subgroup of Z_n1 x ... x Z_nk")
    zn.add_argument("--moduli", required=True, help='factor moduli, e.g. "4,2"')
    zn.add_argument("--gens", required=True, help='generators, e.g. "2,0;3,1"')
    zn.set_defaults(handler=_handle_ideal_zn)

    order = sub.add_parser("order", parents=[common], help="subgroup order without enumeration")
    order.add_argument("--moduli", required=True)
    order.add_argument("--gens", required=True)
    order.set_defaults(handler=_handle_order)

    census = sub.add_parser("census", parents=[common], help="subgroup/ideal counts of Z_{p^r} x Z_{p^s}")
    census.add_argument("--p", type=int, required=True)
    census.add_argument("--r", type=int, required=True)
    census.add_argument("--s", type=int, required=True)
    census.set_defaults(handler=_handle_census)

    prob = sub.add_parser("prob", parents=[common], help="probability that a random subgroup is an ideal")
    prob.add_argument("--n", type=int, default=None)
    prob.add_argument("--m", type=int, default=None)
    prob.add_argument("--p", type=int, default=None, help="prime, for the vector-space form")
    prob.add_argument("--dim", type=int, default=None, help="number of Z_p factors")
    prob.set_defaults(handler=_handle_prob)

    verify = sub.add_parser("verify", parents=[common], help="sweep formulas against brute-force censuses")
    verify.add_argument("--primes", default="2,3")
    verify.add_argument("--max-order", type=int, default=256, help="census rings up to this order")
    verify.add_argument("--max-nm", type=int, default=6, help="probability checks for n, m up to this bound")
    verify.set_defaults(handler=_handle_verify)

    return parser


def run(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    start = time.perf_counter()
    try:
        doc, code = args.handler(args)
    except EnumerationCapExceeded as exc:
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
        print(
            "error: the result has an integer over Python's limit of "
            f"{sys.get_int_max_str_digits()} digits for int/str conversion",
            file=sys.stderr,
        )
        return 3
    print(rendered)
    return code


def main() -> None:
    sys.exit(run())
