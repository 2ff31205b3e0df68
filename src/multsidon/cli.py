"""Command-line interface.

Every command prints a single deterministic report to stdout in one of
three formats: json (one object, the bytes of json.dumps with indent=2 and
sorted keys), csv (header plus rows) or plain text.  Rationals are
serialised as exact "numerator/denominator" strings and all decimals are
truncated, never rounded, with the digit count stated.  json.dumps renders
every json report (pair-construct's members go into one bytearray, in place
of an empty list), and _write sends each report to stdout's binary layer,
in one call unless it is raw (python -u); a stream with no binary layer,
such as io.StringIO, gets text.

Work is bounded up front: --digits must lie in [0, MAX_DECIMAL_DIGITS],
pair-construct refuses n above MAX_PAIR_N, since it holds the whole set in
memory, and empirical refuses n above MAX_EMPIRICAL_N, or above
MAX_VERIFIED_N with --verify, which asks for the O(n) cross-check.  The
triple commands refuse a cutoff above density.MAX_CUTOFF (500), and an
--eps whose decimal exponent exceeds MAX_EPS_EXPONENT in magnitude, before
the Fraction is built, and a cutoff whose rationals are too long to print.
A certified triple-density run takes one precision, --eps or --d, not both.
check-set refuses a file over MAX_SET_BYTES bytes or MAX_SET_MEMBERS lines, and
|A||B||set| over MAX_CHECK_WORK, each number counted once per 64 bits, rounded up.

Exit codes: 0 on success, 2 on invalid parameters, malformed input or a
refused work size, 3 when an internal cross-check fails (which would
indicate a bug) or a converge-mode estimate does not stabilise within the
cutoff limit.

Importing this module loads argparse, json and multsidon.rational only.
Each command imports its own layer when it runs: the pair commands
pair_sidon, the triple commands density (with components), empirical
components and oracle, check-set oracle; csv is imported for --format csv,
and fractions only where a rational is built (_parse_eps, pair_density and
the triple layers), never for pair-construct.
approximate_density, convergence_estimate, empirical_density and
general_multiplicative_witness are module-level names that import their
home module on the first call, and every command reads them, with
format_rational and truncated_decimal, when it runs, so each can be
replaced on this module.
"""

from __future__ import annotations

import argparse
import io
import json
import sys
from itertools import compress

from . import ConvergenceError, VerificationError
from .rational import format_rational, truncated_decimal


def _deferred(module: str, name: str):
    """A stand-in for multsidon.module.name that imports the module when called."""

    def call(*args, **kwargs):
        from importlib import import_module

        return getattr(import_module(f"multsidon.{module}"), name)(*args, **kwargs)

    return call


approximate_density = _deferred("density", "approximate_density")
convergence_estimate = _deferred("density", "convergence_estimate")
empirical_density = _deferred("oracle", "empirical_density")
general_multiplicative_witness = _deferred("oracle", "general_multiplicative_witness")

TABLE_TRIPLES = (
    (2, 3, 5),
    (2, 3, 7),
    (2, 5, 7),
    (2, 5, 9),
    (2, 7, 9),
    (3, 4, 5),
    (3, 4, 7),
    (3, 5, 7),
    (3, 5, 8),
    (3, 7, 8),
)

DEFAULT_DECIMAL_DIGITS = 6
# Below CPython's default 4300-digit limit on int-to-str conversion.
MAX_DECIMAL_DIGITS = 4000
# pair-construct --verify peaks near 133 MB of memory (0.40-0.51 s) at n = 10**7.
MAX_PAIR_N = 10**7
# empirical makes one admissible_count per rising value: 0.15 s at n = 10**12.
MAX_EMPIRICAL_N = 10**12
# Walking every component is O(n), after one incremental matcher per height:
# 0.09-0.12 s of CPU (medians) and 16 MB at n = 10**5.
MAX_VERIFIED_N = 10**5
# Fraction("1e-N") builds 10**N exactly, which takes about 10 s at N = 10**7.
# 1e-100000 is refused in about 0.2 s, for a cutoff of 332229.
MAX_EPS_EXPONENT = 100_000
# check-set reads at most MAX_SET_BYTES of its file and refuses a longer file
# before it parses a line, as int() takes about 0.1 ms per 4000-digit line.
# Reading 10**6 lines of one digit takes about 0.4 s.
MAX_SET_BYTES = 4 * 10**6
MAX_SET_MEMBERS = 10**6
# The witness search makes |A| * |B| * |set| steps, each a product, a remainder
# and, when b divides a*x, a quotient and a set lookup.  A step costs more on
# longer numbers and in larger sets, so each number counts once per WORD_BITS
# bits, rounded up: 500 members of 4000 digits count 104,000 times.  The slowest
# input found under both limits, 200,000 members of 19 digits with A = 2..11
# and B = {1}, takes 0.9-1.5 s and peaks near 43 MB.
WORD_BITS = 64
MAX_CHECK_WORK = 2 * 10**6


def _parse_eps(text: str) -> Fraction:
    _, marker, exponent = text.lower().partition("e")
    if marker:
        try:
            too_large = abs(int(exponent)) > MAX_EPS_EXPONENT
        except ValueError:  # not an exponent: Fraction rejects it below
            too_large = False
        if too_large:
            raise argparse.ArgumentTypeError(
                f"decimal exponent of {text!r} exceeds {MAX_EPS_EXPONENT} in magnitude"
            )
    from fractions import Fraction

    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}") from exc
    return value


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer: {text!r}")
    return value


def _digits(text: str) -> int:
    value = int(text)
    if not 0 <= value <= MAX_DECIMAL_DIGITS:
        raise argparse.ArgumentTypeError(
            f"must be an integer in [0, {MAX_DECIMAL_DIGITS}]: {text!r}"
        )
    return value


def _int_list(text: str) -> tuple[int, ...]:
    try:
        values = tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not a comma-separated integer list: {text!r}") from exc
    if not values or any(v < 1 for v in values):
        raise argparse.ArgumentTypeError(f"need positive integers: {text!r}")
    return values


def _decimal_fields(value: Fraction, digits: int) -> dict:
    return {
        "decimal": truncated_decimal(value, digits),
        "decimal_digits": digits,
        "decimal_rounding": "truncated toward zero",
    }


def _member_text(mask: bytes, sep: bytes, head: bytes, tail: bytes) -> bytearray:
    """head, the x with mask[x] == 1 in ascending decimal joined by sep, then tail.

    The mask is read in blocks of 100.  Every x = 100q + r in block q >= 1
    is str(q) followed by r padded to two digits, so a block's text is
    str(q) joined over (b"", *the padded r + sep it selects).  The extremal
    masks repeat at this scale (at most 151 distinct blocks for any pair at
    n = MAX_PAIR_N), so each distinct block's tuple is built once per call,
    and no int is made per member.  Block 0 joins the plain str(r) + sep.
    The text grows in one bytearray, the report's only copy, and its last
    sep is cut once at the end.
    """
    decimal = [b"%d%s" % (r, sep) for r in range(100)]
    padded = [b"%02d%s" % (r, sep) for r in range(100)]
    patterns = {}
    text = bytearray(head)
    text += b"".join(compress(decimal, mask[:100]))
    for q in range(1, (len(mask) + 99) // 100):
        block = mask[100 * q : 100 * q + 100]
        suffixes = patterns.get(block)
        if suffixes is None:
            suffixes = patterns[block] = (b"", *compress(padded, block))
        text += (b"%d" % q).join(suffixes)
    if len(text) > len(head):
        del text[len(text) - len(sep) :]
    text += tail
    return text


def _write(data: bytes) -> None:
    """Send one report to stdout's binary layer, or as text if it has none.

    A raw layer (python -u) may take part of a write and return the count.
    """
    binary = getattr(sys.stdout, "buffer", None)
    if binary is None:
        sys.stdout.write(data.decode())
        return
    sys.stdout.flush()
    rest = memoryview(data)
    while rest:
        rest = rest[binary.write(rest):]


def _emit(report: dict, rows: list[dict] | None, fmt: str, plain: str) -> None:
    """Write one report: a json object, csv rows, or the plain rendering."""
    if fmt == "json":
        payload = report if rows is None else {**report, "rows": rows}
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    elif fmt == "csv":
        import csv

        out = io.StringIO()
        data = rows if rows is not None else [report]
        writer = csv.DictWriter(out, fieldnames=list(data[0].keys()))
        writer.writeheader()
        writer.writerows(data)
        text = out.getvalue()
    else:
        text = plain + "\n"
    _write(text.encode())


def _cmd_pair_density(args: argparse.Namespace) -> int:
    from . import pair_sidon

    params = pair_sidon.reduce_pair(args.a, args.b)
    density = pair_sidon.pair_density(params)
    report = {
        "command": "pair-density",
        "a": params.a,
        "b": params.b,
        "g": params.g,
        "density": format_rational(density),
        **_decimal_fields(density, args.digits),
    }
    plain = (
        f"maximum density for a={params.a}, b={params.b} (gcd {params.g}): "
        f"{report['density']} = {report['decimal']} (truncated to {args.digits} digits)"
    )
    _emit(report, None, args.format, plain)
    return 0


def _cmd_pair_construct(args: argparse.Namespace) -> int:
    if args.n > MAX_PAIR_N:
        raise ValueError(f"--n {args.n} exceeds the limit of {MAX_PAIR_N} for pair-construct")
    from . import pair_sidon

    params = pair_sidon.reduce_pair(args.a, args.b)
    if args.verify:
        alpha = pair_sidon.path_alpha(params, args.n)
    extremal = pair_sidon.construct_extremal_set(params, args.n)
    cardinality = extremal.cardinality
    if args.verify:
        if cardinality != alpha:
            raise VerificationError(f"cardinality {cardinality} != path optimum {alpha}")
        if not pair_sidon.is_pair_multiplicative(extremal, params):
            raise VerificationError("constructed set violates the defining condition")
    if args.format == "csv":
        # csv.DictWriter's bytes for the one column "member"; 1 is always a member
        _write(_member_text(extremal.mask, b"\r\n", b"member\r\n", b"\r\n"))
        return 0
    report = {
        "command": "pair-construct",
        "a": params.a,
        "b": params.b,
        "n": args.n,
        "cardinality": cardinality,
        "members": [],
    }
    if args.verify:
        report["verified"] = True
    if args.format == "json":
        # json.dumps' indent=2 list in place of the empty one; 1 is always a member
        head, _, tail = json.dumps(report, indent=2, sort_keys=True).partition("[]")
        _write(_member_text(extremal.mask, b",\n    ", f"{head}[\n    ".encode(),
                            f"\n  ]{tail}\n".encode()))
        return 0
    plain = (
        f"extremal set for a={params.a}, b={params.b}, n={args.n}: "
        f"cardinality {cardinality}"
        + (" (verified)" if args.verify else "")
    )
    _emit(report, None, args.format, plain)
    return 0


def _cmd_triple_density(args: argparse.Namespace) -> int:
    from .components import TripleParams

    params = TripleParams(args.a, args.b, args.c)
    if args.mode == "converge":
        if args.eps is not None or args.d is not None:
            raise ValueError("converge mode takes neither --eps nor --d")
        estimate = convergence_estimate(params, args.digits)
        report = {
            "command": "triple-density",
            "mode": "converge",
            "a": params.a,
            "b": params.b,
            "c": params.c,
            "digits": args.digits,
            "d": estimate.cutoff,
            "value": format_rational(estimate.lower),
            "decimal": truncated_decimal(estimate.lower, args.digits),
            "decimal_rounding": "truncated toward zero",
        }
        plain = (
            f"converged estimate for ({params.a},{params.b},{params.c}): "
            f"{report['decimal']} ({args.digits} digits, cutoff {estimate.cutoff})"
        )
        _emit(report, None, args.format, plain)
        return 0
    interval = approximate_density(params, eps=args.eps, cutoff=args.d)
    report = {
        "command": "triple-density",
        "mode": "certified",
        "a": params.a,
        "b": params.b,
        "c": params.c,
        "eps": format_rational(interval.epsilon),
        "d": interval.cutoff,
        "delta_complete": format_rational(interval.delta_complete),
        "delta_small": format_rational(interval.delta_small),
        "tail_bound": format_rational(interval.tail_bound),
        "lower": format_rational(interval.lower),
        "upper": format_rational(interval.upper),
        "lower_decimal": truncated_decimal(interval.lower, args.digits),
        "upper_decimal": truncated_decimal(interval.upper, args.digits),
        "decimal_digits": args.digits,
        "decimal_rounding": "truncated toward zero",
    }
    plain = (
        f"certified interval for ({params.a},{params.b},{params.c}) at cutoff {interval.cutoff}:\n"
        f"  lower {report['lower']} = {report['lower_decimal']}\n"
        f"  upper {report['upper']} = {report['upper_decimal']}\n"
        f"  width <= {truncated_decimal(interval.tail_bound, args.digits)}"
        f" ({args.digits} digits, truncated)"
    )
    _emit(report, None, args.format, plain)
    return 0


def _cmd_triple_table(args: argparse.Namespace) -> int:
    from .components import TripleParams

    rows = []
    for a, b, c in TABLE_TRIPLES:
        params = TripleParams(a, b, c)
        estimate = convergence_estimate(params, args.digits)
        interval = approximate_density(params, eps=args.eps)
        rows.append(
            {
                "a": a,
                "b": b,
                "c": c,
                "estimate": truncated_decimal(estimate.lower, args.digits),
                "estimate_d": estimate.cutoff,
                "lower": format_rational(interval.lower),
                "upper": format_rational(interval.upper),
                "lower_decimal": truncated_decimal(interval.lower, args.digits + 2),
                "upper_decimal": truncated_decimal(interval.upper, args.digits + 2),
                "certified_d": interval.cutoff,
            }
        )
    report = {
        "command": "triple-table",
        "digits": args.digits,
        "eps": format_rational(args.eps),
        "decimal_rounding": "truncated toward zero",
    }
    plain_lines = [f"{'a':>2} {'b':>2} {'c':>2} {'estimate':>10} {'interval':>25}"]
    plain_lines.extend(
        f"{r['a']:>2} {r['b']:>2} {r['c']:>2} {r['estimate']:>10} "
        f"[{r['lower_decimal']}, {r['upper_decimal']}]"
        for r in rows
    )
    _emit(report, rows, args.format, "\n".join(plain_lines))
    return 0


def _cmd_empirical(args: argparse.Namespace) -> int:
    if args.n > MAX_EMPIRICAL_N:
        raise ValueError(f"--n {args.n} exceeds the limit of {MAX_EMPIRICAL_N} for empirical")
    if args.verify and args.n > MAX_VERIFIED_N:
        raise ValueError(
            f"--n {args.n} exceeds the limit of {MAX_VERIFIED_N} for empirical --verify"
        )
    from .components import TripleParams

    params = TripleParams(args.a, args.b, args.c)
    ratio = empirical_density(params, args.n, verify=args.verify)
    alpha = ratio.numerator * args.n // ratio.denominator
    report = {
        "command": "empirical",
        "a": params.a,
        "b": params.b,
        "c": params.c,
        "n": args.n,
        "alpha": alpha,
        "ratio": format_rational(ratio),
        **_decimal_fields(ratio, args.digits),
        "verified": args.verify,
    }
    plain = (
        f"alpha(G_{args.n}) / {args.n} = {report['ratio']} = "
        f"{report['decimal']} (truncated to {args.digits} digits)"
        + (" [components cross-checked]" if args.verify else "")
    )
    _emit(report, None, args.format, plain)
    return 0


def _read_set_file(path: str) -> set[int]:
    with open(path, "rb") as handle:
        data = handle.read(MAX_SET_BYTES + 1)
    if len(data) > MAX_SET_BYTES:
        raise ValueError(f"{path} is larger than {MAX_SET_BYTES} bytes")
    members = set()
    # latin-1 decodes every byte, so a non-ascii line is reported with its number
    with io.TextIOWrapper(io.BytesIO(data), encoding="latin-1") as handle:
        for lineno, line in enumerate(handle, start=1):
            if lineno > MAX_SET_MEMBERS:
                raise ValueError(f"{path} has more than {MAX_SET_MEMBERS} lines, one per member")
            if not line.isascii():
                raise ValueError(f"{path}:{lineno}: not ascii: {line.encode('latin-1').strip()!r}")
            text = line.strip()
            if not text:
                continue
            try:
                value = int(text)
            except ValueError:
                raise ValueError(f"{path}:{lineno}: not an integer: {text!r}") from None
            if value < 1:
                raise ValueError(f"{path}:{lineno}: value must be positive: {value}")
            members.add(value)
    return members


def _words(values: set[int]) -> int:
    """How many values there are, each counted once per WORD_BITS bits, rounded up."""
    return sum(-(-v.bit_length() // WORD_BITS) for v in values)


def _cmd_check_set(args: argparse.Namespace) -> int:
    members = _read_set_file(args.set_file)
    work = _words(set(args.A)) * _words(set(args.B)) * _words(members)
    if work > MAX_CHECK_WORK:
        raise ValueError(f"|A| * |B| * |set| = {work} exceeds the limit of {MAX_CHECK_WORK}, "
                         f"each number counted once per {WORD_BITS} bits, rounded up")
    witness = general_multiplicative_witness(members, args.A, args.B)
    holds = witness is None
    report = {
        "command": "check-set",
        "A": list(args.A),
        "B": list(args.B),
        "size": len(members),
        "multiplicative": holds,
        "witness": None
        if holds
        else {"a": witness[0], "b": witness[1], "x": witness[2], "y": witness[3]},
    }
    if holds:
        text, plain = "", f"set of {len(members)} elements is multiplicative for the given A, B"
    else:
        a, b, x, y = witness
        text = f"{a}*{x} = {b}*{y}"  # not a*x, which may pass int-to-str's 4300-digit limit
        plain = f"violation: {text}"
    row = {
        "A": ",".join(map(str, args.A)),
        "B": ",".join(map(str, args.B)),
        "size": len(members),
        "multiplicative": holds,
        "witness": text,
    }
    _emit(report, [row] if args.format == "csv" else None, args.format, plain)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="multsidon",
        description="Extremal multiplicative-Sidon-type set densities, exactly.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_command(name: str, text: str) -> argparse.ArgumentParser:
        return sub.add_parser(name, help=text, description=text)

    def add_common(p: argparse.ArgumentParser, digits: bool = True) -> None:
        p.add_argument(
            "--format", choices=("json", "csv", "plain"), default="json",
            help="output format (default json)",
        )
        if digits:  # only the commands that print a decimal
            p.add_argument("--digits", type=_digits, default=DEFAULT_DECIMAL_DIGITS,
                           help="fractional digits in decimal renderings")

    p = add_command("pair-density", "maximum density b/(b+gcd(a,b))")
    p.add_argument("--a", type=_positive_int, required=True)
    p.add_argument("--b", type=_positive_int, required=True)
    add_common(p)
    p.set_defaults(func=_cmd_pair_density)

    p = add_command("pair-construct", "maximum-cardinality set in [n]")
    p.add_argument("--a", type=_positive_int, required=True)
    p.add_argument("--b", type=_positive_int, required=True)
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--verify", action="store_true",
                   help="cross-check cardinality and the defining condition")
    add_common(p, digits=False)
    p.set_defaults(func=_cmd_pair_construct)

    p = add_command("triple-density", "certified or converged density")
    p.add_argument("--a", type=_positive_int, required=True)
    p.add_argument("--b", type=_positive_int, required=True)
    p.add_argument("--c", type=_positive_int, required=True)
    precision = p.add_mutually_exclusive_group()
    precision.add_argument("--eps", type=_parse_eps, help="target interval width (certified mode)")
    precision.add_argument("--d", type=int, help="force the height cutoff")
    p.add_argument("--mode", choices=("certified", "converge"), default="certified")
    add_common(p)
    p.set_defaults(func=_cmd_triple_density)

    p = add_command("triple-table", "density table for ten small triples")
    p.add_argument("--eps", type=_parse_eps, default="1/20000",
                   help="certified interval width per row (default 1/20000)")
    add_common(p)
    p.set_defaults(func=_cmd_triple_table, digits=4)

    p = add_command("empirical", "exact alpha(G_n)/n, one count per rising value <= n")
    p.add_argument("--a", type=_positive_int, required=True)
    p.add_argument("--b", type=_positive_int, required=True)
    p.add_argument("--c", type=_positive_int, required=True)
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--verify", action="store_true",
                   help="re-solve every component by matching, O(n)")
    add_common(p)
    p.set_defaults(func=_cmd_empirical)

    p = add_command("check-set", "test a file of integers for the condition")
    p.add_argument("--A", type=_int_list, required=True, help="comma-separated")
    p.add_argument("--B", type=_int_list, required=True, help="comma-separated")
    p.add_argument("--set-file", required=True, dest="set_file")
    add_common(p, digits=False)
    p.set_defaults(func=_cmd_check_set)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except VerificationError as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return 3
    except ConvergenceError as exc:
        print(f"no estimate: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
