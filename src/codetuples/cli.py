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
from .prefix_sets import K, check_k
from .search import FILTERS, TABLES, SearchSpace, enumerate_min, huffman_length
from .transforms import PRECEDING, REWRITES, chain_to_class, rewrite_step


def _read(path):  # the parsers' splitlines and split read \r\n as text mode
    with open(path, "rb", buffering=0) as handle:
        return handle.read().decode("utf-8-sig")


def _load_tuple(path):
    return parse_code_tuple(_read(path))


def _load_dist(path, alphabet=None):
    return parse_dist(_read(path), alphabet)


def _approx(value):
    return "%s ≈ %s" % (value, approx_decimal(value))


def _show_table_list(tables):
    return " ".join(str(i) for i in sorted(tables)) if tables else "-"


def _cmd_check(args, parser):
    code = _load_tuple(args.tuple)
    print("tables = %d" % code.num_tables)
    print("symbols = %d" % code.sigma)
    print("k = %d" % args.k)
    dead = dead_tables(code)
    print("extendable = %s" % ("yes" if not dead else "no"))
    print("dead = %s" % _show_table_list(dead))
    report = reachable_tables(code)
    print("regular = %s" % ("yes" if report.core else "no"))
    print("core = %s" % _show_table_list(report.core))
    dec = delay_decodability(code, args.k)
    print("decodable = %s" % ("yes" if dec.ok else "no"))
    for violation in dec.violations:
        print("violation = %s" % violation.describe(code))


def _cmd_classify(args, parser):
    report = classify(_load_tuple(args.tuple))
    for line in report.lines():
        print(line)
    print("finest = %s" % (report.finest() or "-"))


def _cmd_psets(args, parser):
    code = _load_tuple(args.tuple)
    for i, words in enumerate(code.sets.words(args.k)):
        print("P%d[%d]=%s" % (args.k, i, show_set(words)))


def _cmd_encode(args, parser):
    code = _load_tuple(args.tuple)
    bits, end = encode(code, args.start, code.alphabet.seq(args.symbols))
    print("bits = %s" % show_bits(bits))
    print("end_table = %d" % end)


def _cmd_decode(args, parser):
    code = _load_tuple(args.tuple)
    if args.roundtrip:
        if args.seed is None:
            parser.error("--roundtrip requires --seed")
        report = roundtrip_check(code, k=args.k, trials=args.trials,
                                 max_len=args.max_len, seed=args.seed)
        print("trials = %d" % report.trials)
        print("failures = %d" % report.failure_count)
        print("max_delay = %d" % report.max_delay)
        print("conflicts = %d" % report.conflicts)
        for failure in report.failures:
            print("failure = trial %d start %d %s: %s" % (
                failure.trial, failure.start,
                code.alphabet.render(failure.seq), failure.reason))
        return 0 if report.ok else 1
    if args.bits is not None:
        text = args.bits
    elif args.bits_file is not None:
        text = _read(args.bits_file)
    else:
        parser.error("decode needs --bits or --bits-file")
    result = decode(code, args.start, parse_bits("".join(text.split()) or "-"),
                    k=args.k)
    print("decoded = %s" % (code.alphabet.render(result.symbols) or "-"))
    print("end_table = %d" % result.end_table)
    print("TAIL")
    print("bits = %s" % show_bits(result.info.tail))
    print("resolved = %s" % ("yes" if result.info.resolved else "no"))
    for completion in result.info.completions:
        print("completion = %s" % code.alphabet.render(completion))
    print("capped = %s" % ("yes" if result.info.capped else "no"))


def _trace_bits(step):  # dot reads int steer bits, rotate Bits
    show = str if step.op == "dot" else show_bits
    return " ".join(map(show, step.table_bits)) or "-"


def _print_step(title, step):
    print("# %s = %s" % (title, step.op))
    print("# bits = %s" % _trace_bits(step))
    if step.avg_len is not None:
        print("# L = %s" % _approx(step.avg_len))
    print(serialize_code_tuple(step.result), end="")


def _cmd_transform(args, parser):
    code = _load_tuple(args.tuple)
    dist = _load_dist(args.dist, code.alphabet) if args.dist else None
    if args.op == "chain":
        if args.target is None:
            parser.error("--op chain requires --target")
        trace = chain_to_class(code, args.target, dist)
        print("# target = %s" % args.target)
        print("# steps = %d" % len(trace.steps))
        for n, step in enumerate(trace.steps, start=1):
            print()
            _print_step("step %d op" % n, step)
        if not trace.steps:
            print(serialize_code_tuple(code), end="")
        return
    # an irregular result has no L: fail before any output
    _print_step("op", rewrite_step(code, args.op, dist))


def _cmd_stationary(args, parser):
    code = _load_tuple(args.tuple)
    dist = _load_dist(args.dist, code.alphabet)
    for i, value in enumerate(stationary_distribution(code, dist)):
        print("pi[%d] = %s" % (i, _approx(value)))
    for i in code.table_indices():
        print("len[%d] = %s" % (i, _approx(table_length(code, dist, i))))


def _cmd_avglen(args, parser):
    code = _load_tuple(args.tuple)
    dist = _load_dist(args.dist, code.alphabet)
    print("L = %s" % _approx(average_length(code, dist)))


def _cmd_search(args, parser):
    space = SearchSpace(sigma=args.sigma, tables=args.tables,
                        max_len=args.max_len, filter=args.filter)
    result = enumerate_min(space, _load_dist(args.dist))
    print(serialize_code_tuple(result.best), end="")
    print("examined = %d" % result.examined)
    print("L = %s" % _approx(result.avg_len))


def _cmd_huffman(args, parser):
    lengths, avg = huffman_length(_load_dist(args.dist))
    print("lengths = %s" % " ".join(str(n) for n in lengths))
    print("L = %s" % _approx(avg))


def _cmd_goldens(args, parser):
    results = run_goldens()
    for check in results:
        print(check.line())
    return 0 if all(check.ok for check in results) else 1


@functools.cache  # one parser per process; parse_args keeps no state
def build_parser():
    parser = argparse.ArgumentParser(
        prog="codetuples",
        description="Analyze, rewrite, and search binary code-tuples.")
    sub = parser.add_subparsers(dest="verb", required=True, metavar="verb")

    def add(name, run, help_text, needs_tuple=True, needs_k=False):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(run=run)
        if needs_tuple:
            p.add_argument("--tuple", required=True, metavar="FILE",
                           help="code-tuple file")
        if needs_k:
            p.add_argument("--k", type=int, default=K,
                           help="decoding delay bound (default %d)" % K)
        return p

    add("check", _cmd_check,
        "basic properties: extendable, regular, decodable", needs_k=True)
    add("classify", _cmd_classify,
        "class memberships with PASS/FAIL per class")
    add("psets", _cmd_psets, "k-bit continuation sets per table",
        needs_k=True)

    p = add("encode", _cmd_encode, "encode a source sequence")
    p.add_argument("--start", type=int, default=0, help="start table")
    p.add_argument("--symbols", required=True,
                   help="source sequence, e.g. 'badb' or 'b a d b'")

    p = add("decode", _cmd_decode,
            "decode a bit string (or check random round trips)", needs_k=True)
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

    p = add("transform", _cmd_transform,
            "apply one rewrite or a chain into a class")
    p.add_argument("--op", required=True,
                   choices=REWRITES + ("chain",))
    p.add_argument("--target", choices=tuple(PRECEDING),
                   help="destination class for --op chain")
    p.add_argument("--dist", metavar="FILE",
                   help="distribution file; adds L per step")

    p = add("stationary", _cmd_stationary,
            "stationary table distribution and table lengths")
    p.add_argument("--dist", required=True, metavar="FILE")

    p = add("avglen", _cmd_avglen, "average codeword length")
    p.add_argument("--dist", required=True, metavar="FILE")

    p = add("search", _cmd_search, "exhaustive minimum over a bounded space",
            needs_tuple=False)
    p.add_argument("--sigma", type=int, required=True,
                   help="alphabet size")
    p.add_argument("--tables", type=int, required=True, choices=TABLES)
    p.add_argument("--max-len", type=int, required=True,
                   help="longest codeword allowed")
    p.add_argument("--filter", required=True, choices=FILTERS)
    p.add_argument("--dist", required=True, metavar="FILE")

    p = add("huffman", _cmd_huffman, "single-table baseline lengths",
            needs_tuple=False)
    p.add_argument("--dist", required=True, metavar="FILE")

    add("goldens", _cmd_goldens, "replay the built-in reference expectations",
        needs_tuple=False)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        check_k(getattr(args, "k", 0))  # before any output
        return args.run(args, parser) or 0
    except (CodeTupleError, ValueError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
