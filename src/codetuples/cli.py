"""Command-line front end.

Plain-text output, one fact per line in ``key = value`` form so runs
diff cleanly.  Exit codes: 0 on success, 1 on a domain error (unreadable
or inconsistent input, impossible request, failed goldens or round
trips), 2 on a usage error.
"""

from __future__ import annotations

import argparse
import functools
import sys

from .analysis import dead_tables, delay_decodability, reachable_tables
from .bits import parse as parse_bits, show as show_bits
from .classes import classify, show_set
from .codec import decode, encode, roundtrip_check
from .core import (parse_code_tuple, parse_dist, serialize_code_tuple)
from .errors import CodeTupleError
from .goldens import run_goldens
from .markov import (approx_decimal, average_length, stationary_distribution,
                     table_length)
from .prefix_sets import check_k
from .search import FILTERS, SearchSpace, enumerate_min, huffman_length
from .transforms import (PRECEDING, chain_to_class, ddot, dot, forced_bit,
                         rotate, steer_bit)


def _read(path):
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _load_tuple(path):
    return parse_code_tuple(_read(path))


def _load_dist(path, alphabet=None):
    return parse_dist(_read(path), alphabet)


def _approx(value):
    return "%s ≈ %s" % (value, approx_decimal(value))


def _show_table_list(tables):
    return " ".join(str(i) for i in sorted(tables)) if tables else "-"


def _cmd_check(args, out):
    code = _load_tuple(args.tuple)
    out("tables = %d" % code.num_tables)
    out("symbols = %d" % code.sigma)
    out("k = %d" % args.k)
    dead = dead_tables(code)
    out("extendable = %s" % ("yes" if not dead else "no"))
    out("dead = %s" % _show_table_list(dead))
    report = reachable_tables(code)
    out("regular = %s" % ("yes" if report.core else "no"))
    out("core = %s" % _show_table_list(report.core))
    dec = delay_decodability(code, args.k)
    out("decodable = %s" % ("yes" if dec.ok else "no"))
    for violation in dec.violations:
        out("violation = %s" % violation.describe(code))
    return 0


def _cmd_classify(args, out):
    code = _load_tuple(args.tuple)
    report = classify(code)
    for line in report.lines():
        out(line)
    out("finest = %s" % (report.finest() or "-"))
    return 0


def _cmd_psets(args, out):
    code = _load_tuple(args.tuple)
    for i, words in enumerate(code.sets.words(args.k)):
        out("P%d[%d]=%s" % (args.k, i, show_set(words)))
    return 0


def _cmd_encode(args, out):
    code = _load_tuple(args.tuple)
    seq = code.alphabet.seq(args.symbols)
    bits, end = encode(code, args.start, seq)
    out("bits = %s" % show_bits(bits))
    out("end_table = %d" % end)
    return 0


def _read_bits(args):
    if args.bits is not None:
        text = args.bits
    else:
        text = _read(args.bits_file)
    return parse_bits("".join(text.split()) or "-")


def _cmd_decode(args, parser, out):
    code = _load_tuple(args.tuple)
    if args.roundtrip:
        if args.seed is None:
            parser.error("--roundtrip requires --seed")
        report = roundtrip_check(code, k=args.k, trials=args.trials,
                                 max_len=args.max_len, seed=args.seed)
        out("trials = %d" % report.trials)
        out("failures = %d" % report.failure_count)
        out("max_delay = %d" % report.max_delay)
        out("conflicts = %d" % report.conflicts)
        for failure in report.failures:
            out("failure = trial %d start %d %s: %s" % (
                failure.trial, failure.start,
                code.alphabet.render(failure.seq), failure.reason))
        return 0 if report.ok else 1
    if args.bits is None and args.bits_file is None:
        parser.error("decode needs --bits or --bits-file")
    bits = _read_bits(args)
    result = decode(code, args.start, bits, k=args.k)
    out("decoded = %s" % (code.alphabet.render(result.symbols) or "-"))
    out("end_table = %d" % result.end_table)
    out("TAIL")
    out("bits = %s" % show_bits(result.info.tail))
    out("resolved = %s" % ("yes" if result.info.resolved else "no"))
    for completion in result.info.completions:
        out("completion = %s" % code.alphabet.render(completion))
    out("capped = %s" % ("yes" if result.info.capped else "no"))
    return 0


def _trace_bits(step):
    if not step.table_bits:
        return "-"
    if step.op == "dot":
        return " ".join(str(b) for b in step.table_bits)
    return " ".join(show_bits(b) for b in step.table_bits)


def _cmd_transform(args, parser, out):
    code = _load_tuple(args.tuple)
    dist = _load_dist(args.dist, code.alphabet) if args.dist else None
    if args.op == "chain":
        if args.target is None:
            parser.error("--op chain requires --target")
        trace = chain_to_class(code, args.target, dist)
        out("# target = %s" % args.target)
        out("# steps = %d" % len(trace.steps))
        for n, step in enumerate(trace.steps, start=1):
            out("")
            out("# step %d op = %s" % (n, step.op))
            out("# bits = %s" % _trace_bits(step))
            if step.avg_len is not None:
                out("# L = %s" % _approx(step.avg_len))
            out(serialize_code_tuple(step.result).rstrip("\n"))
        if not trace.steps:
            out(serialize_code_tuple(code).rstrip("\n"))
        return 0
    if args.op == "rotate":
        bits = " ".join(show_bits(forced_bit(code, i))
                        for i in code.table_indices())
        result = rotate(code)
    elif args.op == "dot":
        bits = " ".join(str(steer_bit(code, i))
                        for i in code.table_indices())
        result = dot(code)
    else:
        bits = "-"
        result = ddot(code)
    # an irregular result has no L: fail before any output
    avg = average_length(result, dist) if dist is not None else None
    out("# op = %s" % args.op)
    out("# bits = %s" % bits)
    if avg is not None:
        out("# L = %s" % _approx(avg))
    out(serialize_code_tuple(result).rstrip("\n"))
    return 0


def _cmd_stationary(args, out):
    code = _load_tuple(args.tuple)
    dist = _load_dist(args.dist, code.alphabet)
    pi = stationary_distribution(code, dist)
    for i, value in enumerate(pi):
        out("pi[%d] = %s" % (i, _approx(value)))
    for i in code.table_indices():
        out("len[%d] = %s" % (i, _approx(table_length(code, dist, i))))
    return 0


def _cmd_avglen(args, out):
    code = _load_tuple(args.tuple)
    dist = _load_dist(args.dist, code.alphabet)
    out("L = %s" % _approx(average_length(code, dist)))
    return 0


def _cmd_search(args, out):
    space = SearchSpace(sigma=args.sigma, tables=args.tables,
                        max_len=args.max_len, filter=args.filter)
    dist = _load_dist(args.dist)
    result = enumerate_min(space, dist)
    out(serialize_code_tuple(result.best).rstrip("\n"))
    out("examined = %d" % result.examined)
    out("L = %s" % _approx(result.avg_len))
    return 0


def _cmd_huffman(args, out):
    dist = _load_dist(args.dist)
    lengths, avg = huffman_length(dist)
    out("lengths = %s" % " ".join(str(n) for n in lengths))
    out("L = %s" % _approx(avg))
    return 0


def _cmd_goldens(args, out):
    results = run_goldens()
    for check in results:
        out(check.line())
    return 0 if all(check.ok for check in results) else 1


@functools.cache  # one parser per process; parse_args keeps no state
def build_parser():
    parser = argparse.ArgumentParser(
        prog="codetuples",
        description="Analyze, rewrite, and search binary code-tuples.")
    sub = parser.add_subparsers(dest="verb", required=True, metavar="verb")

    def add(name, help_text, needs_tuple=True, needs_k=False):
        p = sub.add_parser(name, help=help_text)
        if needs_tuple:
            p.add_argument("--tuple", required=True, metavar="FILE",
                           help="code-tuple file")
        if needs_k:
            p.add_argument("--k", type=int, default=2,
                           help="decoding delay bound (default 2)")
        return p

    add("check", "basic properties: extendable, regular, decodable",
        needs_k=True)
    add("classify", "class memberships with PASS/FAIL per class")
    add("psets", "k-bit continuation sets per table", needs_k=True)

    p = add("encode", "encode a source sequence")
    p.add_argument("--start", type=int, default=0, help="start table")
    p.add_argument("--symbols", required=True,
                   help="source sequence, e.g. 'badb' or 'b a d b'")

    p = add("decode", "decode a bit string (or check random round trips)",
            needs_k=True)
    p.add_argument("--start", type=int, default=0, help="start table")
    p.add_argument("--bits", help="bit string, e.g. 1000001111110")
    p.add_argument("--bits-file", metavar="FILE",
                   help="file of ASCII 0/1 lines")
    p.add_argument("--roundtrip", action="store_true",
                   help="encode/decode random sequences instead")
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--max-len", type=int, default=12,
                   help="longest random sequence")
    p.add_argument("--seed", type=int, help="required with --roundtrip")

    p = add("transform", "apply one rewrite or a chain into a class")
    p.add_argument("--op", required=True,
                   choices=("rotate", "dot", "ddot", "chain"))
    p.add_argument("--target", choices=tuple(PRECEDING),
                   help="destination class for --op chain")
    p.add_argument("--dist", metavar="FILE",
                   help="distribution file; adds L per step")

    p = add("stationary", "stationary table distribution and table lengths")
    p.add_argument("--dist", required=True, metavar="FILE")

    p = add("avglen", "average codeword length")
    p.add_argument("--dist", required=True, metavar="FILE")

    p = add("search", "exhaustive minimum over a bounded space",
            needs_tuple=False)
    p.add_argument("--sigma", type=int, required=True,
                   help="alphabet size")
    p.add_argument("--tables", type=int, required=True, choices=(1, 2))
    p.add_argument("--max-len", type=int, required=True,
                   help="longest codeword allowed")
    p.add_argument("--filter", required=True, choices=FILTERS)
    p.add_argument("--dist", required=True, metavar="FILE")

    p = add("huffman", "single-table baseline lengths", needs_tuple=False)
    p.add_argument("--dist", required=True, metavar="FILE")

    add("goldens", "replay the built-in reference expectations",
        needs_tuple=False)

    return parser


_HANDLERS = {
    "check": _cmd_check,
    "classify": _cmd_classify,
    "psets": _cmd_psets,
    "encode": _cmd_encode,
    "stationary": _cmd_stationary,
    "avglen": _cmd_avglen,
    "search": _cmd_search,
    "huffman": _cmd_huffman,
    "goldens": _cmd_goldens,
}


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)

    def out(line):
        print(line)

    try:
        check_k(getattr(args, "k", 0))  # before any output
        if args.verb == "decode":
            return _cmd_decode(args, parser, out)
        if args.verb == "transform":
            return _cmd_transform(args, parser, out)
        return _HANDLERS[args.verb](args, out)
    except (CodeTupleError, ValueError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
