"""The codec's emission automaton against the old greedy decoder.

``support.oracle_decode`` is the decoder as it stood on ``Bits`` slices,
and ``support.oracle_identification_delays`` a delay scan on ``Bits`` that
carries each candidate's automaton states one bit at a time, each with its
own state search; ``support.oracle_identify`` is the codec's symbol
identification as it stood before it read each candidate's reach, one
bounded search per candidate per bit.  Every field of the result must
agree: symbols, end table, tail, completions, capped and conflicts, or
both must refuse the bits.
``support.oracle_roundtrip_check`` runs the round trip on them, one fresh
decoder per trial, against the codec, whose step tables live on the tuple's
automaton (``steps(k)``), shared by the trials and by every later decode.
``scan_step`` is a greedy step as a scan of every row, against which the
steps probed from ``fits`` are checked.  ``support.oracle_completions`` is
the tail listing on a repeated sweep of finishing lengths, against which
the codec's walk by slack budgets is checked; its work is counted in reads
of the emission graph, which must grow linearly with the tail.  The
identification's work is counted in the states its walks return, which
must grow linearly with the stream.
"""

import copy
import itertools
import random

import pytest

from codetuples import (CodeTuple, PrefixSetTable, classify, decode,
                        delay_decodability, identification_delays,
                        make_tuple, roundtrip_check)
from codetuples.bits import Bits
from codetuples import codec
from codetuples.codec import _decode, _delays
from codetuples.errors import CodeTupleError, NoConsistentCompletion
from codetuples.prefix_sets import encode_from
from codetuples.reference import TUPLES

from support import (NAME_POOL, oracle_completions, oracle_decode,
                     oracle_identification_delays, oracle_identify,
                     oracle_roundtrip_check, random_code_tuple, random_seq)

STREAM_KEYS = ("r3", "r4", "r5", "r6", "r7", "r8", "r9", "r10")


def has_empty_cycle(code):
    """Whether empty codewords alone lead from some table back to itself,
    the only way the old greedy scan fails to terminate."""
    succ = {i: {code.target(i, s) for s in code.alphabet
                if not code.code(i, s)} for i in code.table_indices()}
    for i in code.table_indices():
        seen, stack = set(), list(succ[i])
        while stack:
            j = stack.pop()
            if j == i:
                return True
            if j not in seen:
                seen.add(j)
                stack.extend(succ[j])
    return False


def outcome(fn, *args):
    try:
        return fn(*args)
    except NoConsistentCompletion:
        return "no completion"


def assert_same_decode(code, start, bits, k=2):
    assert outcome(decode, code, start, bits, k) == \
        outcome(oracle_decode, code, start, bits, k), (code, start, bits, k)


def test_empty_cycle_detector():
    loop = TUPLES["r1"]  # table 2 maps every symbol to itself with '-'
    assert has_empty_cycle(loop)
    assert not any(has_empty_cycle(TUPLES[key]) for key in STREAM_KEYS)


def test_random_f0_tuples_decode_like_the_oracle():
    rng = random.Random(4401)
    checked = 0
    while checked < 120:
        code = random_code_tuple(rng, max_tables=3, max_sigma=4, max_len=3)
        if not classify(code)["f0"]:
            continue
        checked += 1
        for _ in range(6):
            start = rng.randrange(code.num_tables)
            bits, _ = encode_from(code, start, random_seq(rng, code, 10))
            for cut in range(len(bits) + 1):
                assert_same_decode(code, start, bits[:cut])


def test_random_bits_on_loop_free_tuples_decode_like_the_oracle():
    # arbitrary tuples reach conflicts, capped lists and refusals
    rng = random.Random(4402)
    checked = 0
    while checked < 300:
        code = random_code_tuple(rng, max_tables=3, max_sigma=4, max_len=3)
        if has_empty_cycle(code):
            continue
        checked += 1
        for _ in range(4):
            start = rng.randrange(code.num_tables)
            text = "".join(rng.choice("01")
                           for _ in range(rng.randint(0, 12)))
            assert_same_decode(code, start, Bits(text))


AMBIGUOUS = (
    make_tuple(("a", "b", "c", "d"), [[("0", 0), ("0", 1), ("00", 0), ("1", 1)],
                                      [("0", 0), ("-", 0), ("01", 1), ("1", 0)]]),
    make_tuple(("a", "b", "c"), [[("0", 0), ("0", 0), ("1", 0)]]),
    make_tuple(("a", "b", "c", "d"), [[("-", 1), ("0", 0), ("01", 1), ("1", 1)],
                                      [("0", 0), ("10", 0), ("1", 1), ("0", 1)]]),
)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_roundtrip_memos_serve_views_that_end_a_trial_and_recur(k):
    # short trials on tuples that are not delay-k decodable: the bits one
    # step reads often end a trial's stream, and the same bits recur in
    # the middle of another, where more bits may still identify the symbol
    rng = random.Random(4405 + k)
    tried = 0
    while tried < 12:
        code = random_code_tuple(rng, max_tables=3, max_sigma=3, max_len=2)
        if has_empty_cycle(code) or \
                delay_decodability(code, k):
            continue
        tried += 1
        assert_same_roundtrip(code, k, rng.randrange(999), trials=400,
                              max_len=6)


@pytest.mark.parametrize("code", AMBIGUOUS)
def test_every_short_string_on_ambiguous_tuples(code):
    # a long lookahead leaves long tails: conflicts, capped lists, settling
    for k in (1, 3, 5):
        for n in range(8):
            for text in itertools.product("01", repeat=n):
                for start in code.table_indices():
                    assert_same_decode(code, start, Bits("".join(text)), k)


def reference_stream(key):
    """A seeded stream of at least 4,096 bits on a reference tuple, and the
    generator, which goes on to draw its cut."""
    code = TUPLES[key]
    rng = random.Random("stream:" + key)
    start = rng.randrange(code.num_tables)
    seq = []
    bits = Bits()
    while len(bits) < 4096:
        seq.extend(random_seq(rng, code, 256))
        bits, _ = encode_from(code, start, seq)
    return code, start, bits, rng


@pytest.mark.parametrize("key", STREAM_KEYS)
def test_long_reference_streams_decode_like_the_oracle(key):
    code, start, bits, rng = reference_stream(key)
    assert_same_decode(code, start, bits)
    assert_same_decode(code, start, bits[:len(bits) - rng.randint(1, 16)])


EMPTY_LOOP = make_tuple(("a", "b", "c"), [[("-", 0), ("0", 0), ("1", 0)]])


def test_shared_step_dicts_decode_like_fresh_tuples_and_the_oracle():
    # one process decodes the same tuples at k = 2, 1 and 2 again, and
    # round-trips them; the automaton's own step tables, kept from call to
    # call, and dicts shared by every stream of a tuple, as roundtrip_check
    # shares them across its trials, must change no result
    rng = random.Random(4406)
    cases = []
    for code in [TUPLES[key] for key in STREAM_KEYS] + [EMPTY_LOOP]:
        start, seq, bits = rng.randrange(code.num_tables), [], Bits()
        while len(bits) < 1024:
            seq.extend(random_seq(rng, code, 256))
            bits, _ = encode_from(code, start, seq)
        cases.append((code, start, bits))
        cases.append((code, start, bits[:len(bits) - rng.randint(1, 16)]))
    oracle, fits = {}, {}
    for k in (2, 1, 2):
        shared = {}
        for n, (code, start, bits) in enumerate(cases):
            fits.setdefault((code, k), copy.deepcopy(code.sets.fits(k)))
            fresh = CodeTuple(code.alphabet, code.tables)
            assert fresh.sets is not code.sets
            want = outcome(decode, fresh, start, bits, k)
            if not has_empty_cycle(code):  # which the oracle cannot run
                if (n, k) not in oracle:
                    oracle[n, k] = outcome(oracle_decode, code, start, bits, k)
                assert want == oracle[n, k], (code, start, bits, k)
            assert outcome(decode, code, start, bits, k) == want
            steps = shared.setdefault(code, [{} for _ in code.tables])
            assert outcome(_decode, code.sets, k, start, str(bits), steps,
                           {}) == want
            for memo, own, longest in zip(steps, code.sets.steps(k),
                                          code.sets.longest):
                assert len(memo) <= 2 ** (longest + k + 1)
                assert len(own) <= 2 ** (longest + k + 1)
        for code in dict.fromkeys(code for code, _, _ in cases):
            seed = rng.randrange(999)
            fresh = CodeTuple(code.alphabet, code.tables)
            want = roundtrip_check(fresh, k, 30, 10, seed)
            assert roundtrip_check(code, k, 30, 10, seed) == want
            if not has_empty_cycle(code):
                assert want == oracle_roundtrip_check(code, k, 30, 10, seed)
    # every step the automaton keeps is a scan's of every row; the step
    # keys are the tuple's, at most sigma * 2**k per table, and decoding
    # never grows them
    for (code, k), want in fits.items():
        for table, memo in enumerate(code.sets.steps(k)):
            for view, step in memo.items():
                assert step == scan_step(code, k, table, view)
        assert code.sets.fits(k) == want
        assert all(len(keys) <= code.sigma * 2 ** k for keys, _ in want)


def test_a_second_decode_of_the_same_bits_adds_no_view():
    rng = random.Random(4412)
    for key in STREAM_KEYS:
        code = CodeTuple(TUPLES[key].alphabet, TUPLES[key].tables)
        start = rng.randrange(code.num_tables)
        bits, _ = encode_from(code, start, random_seq(rng, code, 300))
        for k in (1, 2):
            first = outcome(decode, code, start, bits, k)
            views = [dict(memo) for memo in code.sets.steps(k)]
            assert any(views), key
            assert outcome(decode, code, start, bits, k) == first
            assert [dict(memo) for memo in code.sets.steps(k)] == views


def test_the_step_cap_bounds_every_table(monkeypatch):
    # with a cap of 4 views the r5 streams leave every table at 4 or
    # fewer, and a missed view not kept is probed again alike
    code, start, bits, _ = reference_stream("r5")
    texts = (bits, bits[:len(bits) - 7], bits[:1024])
    fresh = CodeTuple(code.alphabet, code.tables)
    want = [outcome(decode, fresh, start, text, k)
            for k in (1, 2, 3) for text in texts]
    monkeypatch.setattr(codec, "STEP_CAP", 4)
    capped = CodeTuple(code.alphabet, code.tables)
    assert [outcome(decode, capped, start, text, k)
            for k in (1, 2, 3) for text in texts] == want
    sizes = [len(memo) for k in (1, 2, 3) for memo in capped.sets.steps(k)]
    assert max(sizes) == 4, sizes  # reached, never passed


@pytest.mark.parametrize("k", [2.0, True, "2", 9, -1])
def test_steps_refuse_a_k_as_fits_does(k):
    sets = CodeTuple(TUPLES["r3"].alphabet, TUPLES["r3"].tables).sets
    for stored in (1, 2):  # a lookup before the check would find 2.0, True
        sets.fits(stored)
        sets.steps(stored)
    with pytest.raises(CodeTupleError) as want:
        sets.fits(k)
    with pytest.raises(type(want.value)) as got:
        sets.steps(k)
    assert str(got.value) == str(want.value)


def test_a_shared_tails_dict_searches_each_tail_once(monkeypatch):
    # a tail that no emission starts with is stored like a found completion,
    # so decodes sharing one dict, as a round trip's trials do, give the
    # same answer from it without searching again
    code, k = TUPLES["r3"], 1  # r3 is not decodable with delay 1
    texts = ("10011101101110", "11111111", "01")  # misstep, refused, a tail

    def answer(fn, *args):
        try:
            return fn(*args)
        except NoConsistentCompletion as exc:
            return str(exc)
    want = [answer(decode, code, 0, Bits(text), k) for text in texts]
    searched, search = [], codec._completions
    monkeypatch.setattr(codec, "_completions", lambda auto, tail, table: (
        searched.append((table, tail)) or search(auto, tail, table)))
    steps, tails = [{} for _ in code.tables], {}
    for _ in range(3):
        assert [answer(_decode, code.sets, k, 0, text, steps, tails)
                for text in texts] == want
    assert searched == [(0, "1101101110"), (0, "11111111"), (0, "01")]
    assert tails[0, "11111111"] is None


def test_completions_match_the_repeated_sweep():
    # empty codewords are drawn twice as often as each other length, so
    # states at one offset link up and close cycles; every answer, None
    # and capped included, must be the old listing's
    rng = random.Random(4409)
    answers, cyclic = {}, 0
    for _ in range(500):  # 5,000 cases
        sigma, m = rng.randint(1, 4), rng.randint(1, 3)
        code = make_tuple(NAME_POOL[:sigma], [
            [("".join(rng.choice("01") for _ in range(
                rng.choice((0, 0, 1, 2, 3)))) or "-", rng.randrange(m))
             for _ in range(sigma)] for _ in range(m)])
        cyclic += has_empty_cycle(code)
        for _ in range(10):
            tail = "".join(rng.choice("01")
                           for _ in range(rng.randint(1, 14)))
            table = rng.randrange(m)
            want = oracle_completions(code.sets, tail, table)
            assert codec._completions(code.sets, tail, table) == want, \
                (code, tail, table)
            kind = "none" if want is None else "capped" if want[1] else \
                "empty" if not want[0] else "listed"
            answers[kind] = answers.get(kind, 0) + 1
    assert cyclic > 250 and min(answers.values()) > 150, (cyclic, answers)
    # a long tail on an empty-codeword loop: every 2,048-bit string is
    # finished by its bits with empty codewords inserted, past the cap
    rng = random.Random(2048)
    tail = "".join(rng.choice("01") for _ in range(2048))
    want = oracle_completions(EMPTY_LOOP.sets, tail, 0)
    assert want[1] and len(want[0][0]) == len(tail)
    assert codec._completions(EMPTY_LOOP.sets, tail, 0) == want


# empty codewords a, a cycle between the tables: a tail from table 0 is
# finished by 0, 2, 4, ... a's and then one b
ENDLESS = make_tuple(("a", "b"), [[("-", 1), ("0", 0)], [("-", 0), ("1", 1)]])
# a, b cycle through the tables, from which only b's codeword 00 starts
# with 0, and it emits too much
UNFINISHED = make_tuple(("a", "b"), [[("00", 0), ("-", 1)],
                                     [("-", 0), ("1", 1)]])


def test_a_cycle_through_the_start_lists_the_cap_and_stops():
    want = tuple((0,) * 2 * n + (1,) for n in range(codec.COMPLETION_CAP))
    assert codec._completions(ENDLESS.sets, "0", 0) == (want, True)
    info = decode(ENDLESS, 0, Bits("0")).info
    assert (info.tail, info.completions, info.capped) == (Bits("0"), want,
                                                         True)


class CountingGraph(dict):
    """An emission graph that counts its edge-list reads: each item
    lookup, each ``get`` and each entry of an ``items()`` pass."""

    reads = 0

    def __getitem__(self, state):
        CountingGraph.reads += 1
        return super().__getitem__(state)

    def get(self, state, default=None):
        CountingGraph.reads += 1
        return super().get(state, default)

    def items(self):
        for item in super().items():
            CountingGraph.reads += 1
            yield item


# a stream four times as long may cost at most this many times the reads
# or states; work quadratic in its length gives about 16
GROWTH = 6


@pytest.mark.parametrize("code", [EMPTY_LOOP, ENDLESS],
                         ids=["empty loop", "two-table cycle"])
def test_tail_listing_work_grows_linearly(monkeypatch, code):
    # decoding stops at once on an empty-codeword loop, so the whole
    # stream is the tail whose completions are listed
    search = PrefixSetTable._search

    def counting_search(auto, *args):
        graph, reaches = search(auto, *args)
        return CountingGraph(graph), reaches
    monkeypatch.setattr(PrefixSetTable, "_search", counting_search)
    reads = []
    for n in (512, 2048):
        rng = random.Random(n)
        bits = "".join(rng.choice("01") for _ in range(n))
        CountingGraph.reads = 0
        info = decode(CodeTuple(code.alphabet, code.tables), 0, bits).info
        assert len(info.tail) >= n - 1 and info.capped
        reads.append(CountingGraph.reads)
    assert reads[1] <= GROWTH * reads[0], reads


def test_a_cycle_the_start_never_finishes_through_lists_nothing():
    assert codec._completions(UNFINISHED.sets, "0", 0) == ((), False)
    result = decode(UNFINISHED, 0, Bits("0"))
    assert (result.symbols, result.info.tail, result.info.completions,
            result.info.capped) == ((), Bits("0"), (), False)


def scan_step(code, k, table, view):
    """The greedy step by a scan of every row: the lowest symbol whose
    codeword the view goes on with by k bits its target can emit next, and
    whether a second row does too."""
    words = code.sets.words(k)
    fit = [(s, len(w), t) for s, (w, t) in enumerate(
               (str(code.code(table, s)), code.target(table, s))
               for s in code.alphabet)
           if view.startswith(w) and view[len(w):len(w) + k] in words[t]
           and len(view) >= len(w) + k]
    return fit[0] + (len(fit) > 1,) if fit else ()


class NoTails(dict):
    """A tails memo that answers every tail with no completion, for tests
    of the greedy steps alone."""

    def get(self, key, default=None):
        return (), False


def test_fitted_steps_match_a_scan_of_every_row():
    # every view of up to longest + k bits is the first view of a decode
    # from its table; every step any decode memoized must be the scan's
    rng = random.Random(4408)
    codes = list(AMBIGUOUS) + [
        random_code_tuple(rng, max_tables=3, max_sigma=4, max_len=2)
        for _ in range(200)]
    seen = set()  # the cases a probe by prefix could get wrong
    for code in codes:
        if not all(itertools.chain(*(t.codes for t in code.tables))):
            seen.add("empty codeword")
        for k in range(5):
            steps, tails = [{} for _ in code.tables], NoTails()
            for table, (keys, lengths) in enumerate(code.sets.fits(k)):
                if any(fit[3] for fit in keys.values()):
                    seen.add("two rows give one key")
                if any(a != b and b.startswith(a) for a in keys for b in keys):
                    seen.add("one key a prefix of another")
                if any(len(key) > min(lengths) for key in keys):
                    seen.add("a view shorter than a key")
                width = code.sets.longest[table] + k
                for n in range(width + 1):
                    for bits in itertools.product("01", repeat=n):
                        view = "".join(bits)
                        _decode(code.sets, k, table, view, steps, tails)
                        assert view in steps[table]
            for table, memo in enumerate(steps):
                for view, step in memo.items():
                    assert step == scan_step(code, k, table, view), \
                        (code, k, table, view)
    assert len(seen) == 4, seen


def test_one_identification_memo_serves_many_texts():
    # as roundtrip_check shares one memo across its trials: here across
    # texts and view widths, keyed also by identifying prefixes
    rng = random.Random(4409)
    for _ in range(60):
        code = random_code_tuple(rng, max_tables=3, max_sigma=4, max_len=3)
        memo = {}
        for k in (0, 1, 2, 3) * 8:
            start = rng.randrange(code.num_tables)
            seq = random_seq(rng, code, 8)
            text = code.sets._emit(start, seq)[0]
            assert _delays(code.sets, start, seq, text, k, memo) == \
                identification_delays(code, start, seq) == \
                oracle_identification_delays(code, start, seq), (code, seq)
        assert None not in memo.values()


def test_identification_delays_match_the_oracle():
    rng = random.Random(4403)
    for _ in range(300):
        code = random_code_tuple(rng, max_tables=3, max_sigma=4, max_len=3)
        start = rng.randrange(code.num_tables)
        seq = random_seq(rng, code, 8)
        assert identification_delays(code, start, seq) == \
            oracle_identification_delays(code, start, seq), (code, seq)


def test_identify_matches_the_per_bit_oracle_on_every_short_text():
    rng = random.Random(4410)
    texts = ["".join(bits) for n in range(11)
             for bits in itertools.product("01", repeat=n)]
    seen = set()
    for _ in range(12):
        # 1-4 symbols and 0-3-bit codewords: empty codewords, and cycles of
        # them, are common
        code = random_code_tuple(rng, max_tables=3, max_sigma=4, max_len=3,
                                 min_sigma=1)
        seen.update(["one symbol"] * (code.sigma == 1)
                    + ["empty-codeword cycle"] * has_empty_cycle(code))
        for table in code.table_indices():
            for text in texts:
                want = oracle_identify(code.sets, table, text)
                assert codec._identify(code.sets, table, text) == want, \
                    (code, table, text)
                seen.add("none" if want is None else "found at %d" % min(
                    want[0], 4))
    assert len(seen) == 8, seen


def test_identify_one_symbol_empty_text_and_tied_reaches():
    one = make_tuple(("a",), [[("01", 0)]])
    for text in ("", "1", "0110"):  # one symbol is identified by no bit
        assert codec._identify(one.sets, 0, text) == \
            oracle_identify(one.sets, 0, text) == (0, 0)
    for code in (EMPTY_LOOP, ENDLESS, AMBIGUOUS[0]):  # no bit read, no one
        assert codec._identify(code.sets, 0, "") is None
        assert oracle_identify(code.sets, 0, "") is None
    # a and b share the codeword 0, so they tie on every text it starts;
    # c (1) is identified by its first bit, which rules them both out
    tied = AMBIGUOUS[1]
    for text in ("0", "01", "0110"):
        assert codec._identify(tied.sets, 0, text) is None
    assert codec._identify(tied.sets, 0, "10") == (1, 2)
    # a's empty codeword reaches every text, as b and c do with theirs
    for text in ("0", "1", "0110"):
        assert codec._identify(EMPTY_LOOP.sets, 0, text) is None
        assert oracle_identify(EMPTY_LOOP.sets, 0, text) is None


# one table, where 110 and 11 can both go on 1 for many bits: a third of
# the symbols need more than 2 bits past their codeword, a few over 10
DELAY_3 = make_tuple(("a", "b", "c"), [[("110", 0), ("01", 0), ("11", 0)]])


@pytest.mark.parametrize("code", [EMPTY_LOOP, ENDLESS, DELAY_3],
                         ids=["empty loop", "two-table cycle", "delay-3 tuple"])
def test_identification_work_grows_linearly(monkeypatch, code):
    # on the loops the first symbol is never identified, so its views grow
    # to the whole stream; on DELAY_3 many symbols need wider views
    search, states = PrefixSetTable._search, []

    def counting_search(auto, *args):
        graph, reaches = search(auto, *args)
        states[-1] += len(graph)
        return graph, reaches
    monkeypatch.setattr(PrefixSetTable, "_search", counting_search)
    for n in (500, 2000):
        rng = random.Random(n)
        seq = [rng.randrange(code.sigma) for _ in range(n)]
        states.append(0)
        delays = identification_delays(CodeTuple(code.alphabet, code.tables),
                                       0, seq)
        assert max(delays) > 2 if code is DELAY_3 else not delays
    assert states[1] <= GROWTH * states[0], states


# table 0's codewords are both empty, so at k = 0 a step there reads no bit
# and its view identifies nothing: only views that grow reach a 1-bit one
ZERO_WIDTH = make_tuple(("a", "b"), [[("-", 1), ("-", 1)],
                                     [("0", 0), ("1", 0)]])


def test_zero_width_views_grow_and_finish():
    rng = random.Random(4411)
    seq = tuple(rng.randrange(2) for _ in range(1000))
    for start in (0, 1):
        assert identification_delays(ZERO_WIDTH, start, seq) == \
            oracle_identification_delays(ZERO_WIDTH, start, seq)
    report = assert_same_roundtrip(ZERO_WIDTH, 0, seed=4411, trials=300,
                                   max_len=6)
    assert report.failure_count < report.trials


def assert_same_roundtrip(code, k, seed, trials=60, max_len=10):
    got = roundtrip_check(code, k, trials, max_len, seed)
    assert got == oracle_roundtrip_check(code, k, trials, max_len, seed), \
        (code, k, seed)
    return got


def test_roundtrip_reports_on_random_tuples_match_the_oracle():
    # f0 tuples pass; the others fail, conflict and get refused, which must
    # be counted, capped and worded alike
    rng = random.Random(4404)
    wanted = {True: 20, False: 40}
    reports = []
    while any(wanted.values()):
        code = random_code_tuple(rng, max_tables=3, max_sigma=4, max_len=3)
        f0 = classify(code)["f0"]
        if has_empty_cycle(code) or not wanted[f0]:
            continue
        wanted[f0] -= 1
        for k in (1, 2, 3):
            reports.append(assert_same_roundtrip(code, k, rng.randrange(999)))
    reasons = {f.reason.split()[0] for r in reports for f in r.failures}
    # a symbol left out with k bits after it needs a loop of empty
    # codewords, which the oracle cannot run
    assert reasons == {"no", "decoded", "identification"}
    assert any(r.failure_count > len(r.failures) for r in reports)
    assert any(r.conflicts for r in reports)


@pytest.mark.parametrize("code", AMBIGUOUS)
@pytest.mark.parametrize("k", [1, 2, 3])
def test_roundtrip_reports_on_ambiguous_tuples_match_the_oracle(code, k):
    assert_same_roundtrip(code, k, seed=k, trials=200)


@pytest.mark.parametrize("key", ("r2",) + STREAM_KEYS)
def test_roundtrip_reports_on_reference_tuples_match_the_oracle(key):
    for k in (1, 2, 3):
        assert_same_roundtrip(TUPLES[key], k, seed=k, trials=100, max_len=16)
