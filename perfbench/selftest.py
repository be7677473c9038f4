"""Tests of the benchmark's checks: each one passes the program's real
output and rejects a deliberately wrong copy of it.

    python3 perfbench/selftest.py

The file name keeps it out of the package's own pytest collection.
"""

from __future__ import annotations

import copy
import os
import shutil
import sys
import unittest
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import oracle  # noqa: E402
import workloads  # noqa: E402
from oracle import CheckFailed  # noqa: E402


class DecodeChecks(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.stream = workloads.Stream()
        item = cls.stream.build(7, None)[0][:2]  # r3 and r4
        cls.outputs = cls.stream.op(item, None)

    def tampered(self, which, **changes):
        """The outputs with one decode result of the first tuple replaced."""
        outputs = [list(o) for o in self.outputs]
        result = outputs[0][which]
        info = result.info
        if "tail" in changes or "completions" in changes:
            info = type(info)(changes.pop("tail", info.tail),
                              changes.pop("completions", info.completions),
                              info.capped, info.conflicts)
        outputs[0][which] = type(result)(
            changes.get("symbols", result.symbols), result.start,
            changes.get("end_table", result.end_table), info)
        return outputs

    def test_real_output_passes(self):
        self.stream.check(self.outputs)

    def test_missing_symbol(self):
        whole = self.outputs[0][2]
        with self.assertRaises(CheckFailed):
            self.stream.check(self.tampered(2, symbols=whole.symbols[:-1]))

    def test_wrong_symbol(self):
        symbols = list(self.outputs[0][2].symbols)
        symbols[10] = (symbols[10] + 1) % 4
        with self.assertRaises(CheckFailed):
            self.stream.check(self.tampered(2, symbols=tuple(symbols)))

    def test_wrong_end_table(self):
        whole = self.outputs[0][2]
        with self.assertRaises(CheckFailed):
            self.stream.check(self.tampered(
                2, end_table=(whole.end_table + 1) % 3))

    def test_completion_not_emitting_tail(self):
        cut = self.outputs[0][4]
        bad = cut.info.completions + ((0, 0, 0),)
        with self.assertRaises(CheckFailed):
            self.stream.check(self.tampered(4, completions=bad))

    def test_wrong_encode(self):
        outputs = [list(o) for o in self.outputs]
        bits = outputs[0][1]
        outputs[0][1] = bits[:-1]
        with self.assertRaises(CheckFailed):
            self.stream.check(outputs)


class SearchChecks(unittest.TestCase):
    probs = (Fraction(77, 181), Fraction(4, 181), Fraction(100, 181))
    # an aifv code: table 0 is a prefix code, table 1 never used
    words = [["0", "10", "11"], ["01", "10", "11"]]
    targets = [[0, 0, 0], [0, 0, 0]]

    def args(self, **changes):
        args = dict(filter_name="aifv", sigma=3, max_len=3,
                    probs=self.probs, words=self.words,
                    targets=self.targets,
                    avg_len=Fraction(77 + 2 * 104, 181),
                    examined=oracle.space_size(3, 2, 3), in_class=True)
        args.update(changes)
        return args

    def test_right_result_passes(self):
        oracle.check_search(**self.args())

    def test_length_off_by_a_hundredth(self):
        with self.assertRaises(CheckFailed):
            oracle.check_search(**self.args(
                avg_len=Fraction(77 + 2 * 104, 181) + Fraction(1, 100)))

    def test_examined_off(self):
        with self.assertRaises(CheckFailed):
            oracle.check_search(**self.args(
                examined=oracle.space_size(3, 2, 3) - 1))

    def test_winner_outside_class(self):
        with self.assertRaises(CheckFailed):
            oracle.check_search(**self.args(in_class=False))

    def test_order(self):
        huff = Fraction(100 + 2 * 81, 181)  # lengths 2, 2, 1
        oracle.check_search_order(huff, huff, self.probs, 3, huff, huff)
        with self.assertRaises(CheckFailed):  # f0 above aifv
            oracle.check_search_order(huff + 1, huff, self.probs, 3, huff,
                                      huff)
        with self.assertRaises(CheckFailed):  # aifv above Huffman
            oracle.check_search_order(huff, huff + 1, self.probs, 3,
                                      huff + 1, huff)
        with self.assertRaises(CheckFailed):  # wrong Huffman cost
            oracle.check_search_order(huff, huff, self.probs, 3, huff,
                                      huff - Fraction(1, 100))

    def test_real_search_passes(self):
        search = workloads.Search()
        dist = workloads.SourceDist(workloads.Alphabet(("a", "b")),
                                    (Fraction(1, 3), Fraction(2, 3)))
        space = workloads.search.SearchSpace(2, 2, 2, "aifv")
        result = workloads.search.enumerate_min(space, dist)
        words, targets = workloads.plain(result.best)
        oracle.check_search("aifv", 2, 2, dist.probs, words, targets,
                            result.avg_len, result.examined, True)
        search.final_check(3)


class AnalyzeChecks(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.workdir = os.path.join(ROOT, ".perfbench_out",
                                   "selftest-%d" % os.getpid())
        os.makedirs(cls.workdir, exist_ok=True)
        cls.analyze = workloads.Analyze()
        batch = cls.analyze.build(5, cls.workdir)[0]
        cls.outputs = cls.analyze.op(batch, None)

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.workdir, ignore_errors=True)

    def find(self, kind=None, tag=None):
        for n, (e, got) in enumerate(self.outputs):
            if e and (kind is None or e["kind"] == kind) and \
                    (tag is None or e["tag"].endswith(tag)):
                return n
        raise LookupError((kind, tag))

    def rejects(self, n, verb, edit):
        outputs = copy.deepcopy(self.outputs)
        status, lines = outputs[n][1][verb]
        outputs[n][1][verb] = edit(status, list(lines))
        with self.assertRaises(CheckFailed):
            self.analyze.check(outputs)

    def test_real_output_passes(self):
        self.analyze.check(self.outputs)

    def test_psets_missing_string(self):
        def drop(status, lines):
            head, body = lines[0].split("=", 1)
            kept = body.strip("{}").split(",")[1:]
            lines[0] = "%s={%s}" % (head, ",".join(kept))
            return status, lines
        self.rejects(self.find(kind="f0"), "psets", drop)

    def test_flags_off_the_table(self):
        def flip(status, lines):
            return status, [line.replace("f1 PASS", "f1 FAIL (x)")
                            for line in lines]
        self.rejects(self.find(tag="_r5"), "classify", flip)

    def test_flags_break_the_chain(self):
        def flip(status, lines):
            return status, [line.replace("f0 PASS", "f0 FAIL (x)")
                            for line in lines]
        self.rejects(self.find(tag="_r10"), "classify", flip)

    def test_stationary_status_on_irregular(self):
        self.rejects(self.find(kind="irregular"), "stationary",
                     lambda status, lines: (0, lines))

    def test_stationary_not_fixed(self):
        def skew(status, lines):
            value = Fraction(lines[0].split(" = ")[1].split(" ")[0])
            return status, ["pi[0] = %s ≈ 0" % (value + Fraction(1, 100))] \
                + lines[1:]
        self.rejects(self.find(tag="_r3"), "stationary", skew)

    def test_avglen_off(self):
        def bump(status, lines):
            value = Fraction(lines[0].split(" = ")[1].split(" ")[0])
            return status, ["L = %s ≈ 0" % (value + Fraction(1, 100))]
        self.rejects(self.find(kind="f0"), "avglen", bump)

    def test_transform_step_changes_length(self):
        def longer(status, lines):
            out = []
            for line in lines:
                if line.startswith("# L = "):
                    value = Fraction(line[6:].split(" ")[0])
                    line = "# L = %s ≈ 0" % (value + 1)
                out.append(line)
            return status, out
        self.rejects(self.find(tag="_r3"), "transform", longer)

    def test_transform_not_ending_in_f1(self):
        def stop(status, lines):
            text = "\n".join(lines)
            first, *_ = text.split("\n\n")
            return status, first.replace("# steps = 2", "# steps = 0") \
                .splitlines() + self._input_lines("_r3")
        self.rejects(self.find(tag="_r3"), "transform", stop)

    def _input_lines(self, tag):
        e = self.outputs[self.find(tag=tag)][0]
        with open(e["ct"], encoding="utf-8") as handle:
            return handle.read().splitlines()

    def test_roundtrip_failure(self):
        self.rejects(self.find(kind="f0"), "decode", lambda status, lines: (
            1, [line.replace("failures = 0", "failures = 1")
                for line in lines]))

    def test_check_wrong_core(self):
        self.rejects(self.find(kind="irregular"), "check",
                     lambda status, lines: (status, [
                         "core = 0" if line.startswith("core") else line
                         for line in lines]))

    def test_goldens_fail_line(self):
        self.rejects(len(self.outputs) - 1, "goldens",
                     lambda status, lines: (1, ["FAIL class-flags (x)"]
                                            + lines[1:]))


if __name__ == "__main__":
    unittest.main()
