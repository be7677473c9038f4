import os
import subprocess
import sys

import pytest

import codetuples
from codetuples.cli import main
from codetuples.core import serialize_code_tuple, serialize_dist
from codetuples.reference import TUPLES, main_dist


@pytest.fixture
def files(tmp_path):
    def write(name, text):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        return str(path)

    paths = {key: write(key + ".ct", serialize_code_tuple(TUPLES[key]))
             for key in ("r1", "r2", "r3", "r5", "r7", "r10")}
    paths["dist"] = write("main.dist", serialize_dist(main_dist()))
    paths["skew"] = write("skew.dist", "a 9/10\nb 1/10\n")
    return paths


def run(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out.splitlines(), captured.err


def test_psets_output(files, capsys):
    rc, lines, _ = run(capsys, ["psets", "--tuple", files["r3"], "--k", "2"])
    assert rc == 0
    assert lines == ["P2[0]={01,10}", "P2[1]={00,01,10}", "P2[2]={11}"]


def test_check_output(files, capsys):
    rc, lines, _ = run(capsys, ["check", "--tuple", files["r1"]])
    assert rc == 0
    assert "extendable = no" in lines
    assert "dead = 2" in lines
    assert "regular = yes" in lines
    assert "core = 2" in lines
    assert "decodable = yes" in lines


def test_check_reports_violations(files, capsys):
    rc, lines, _ = run(capsys, ["check", "--tuple", files["r2"]])
    assert rc == 0
    assert "decodable = no" in lines
    assert any(line.startswith("violation = ") for line in lines)


def test_classify_output(files, capsys):
    rc, lines, _ = run(capsys, ["classify", "--tuple", files["r10"]])
    assert rc == 0
    assert lines[0] == "extendable PASS"
    assert lines[-1] == "finest = aifv"
    rc2, lines2, _ = run(capsys, ["classify", "--tuple", files["r2"]])
    assert rc2 == 0
    assert lines2[-1] == "finest = -"


def test_encode_output(files, capsys):
    rc, lines, _ = run(capsys, ["encode", "--tuple", files["r3"],
                                "--start", "0", "--symbols", "badb"])
    assert rc == 0
    assert lines == ["bits = 1000001111110", "end_table = 0"]


def test_decode_output(files, capsys):
    rc, lines, _ = run(capsys, ["decode", "--tuple", files["r3"],
                                "--bits", "1000001111110"])
    assert rc == 0
    assert lines[0] == "decoded = b a d b"
    assert lines[1] == "end_table = 0"
    assert "TAIL" in lines
    assert "resolved = yes" in lines


def test_decode_names_its_own_misstep(files, capsys):
    # encode made these bits from table 0; r3 is not 1-bit delay decodable
    rc, lines, err = run(capsys, ["decode", "--tuple", files["r3"], "--k",
                                  "1", "--bits", "10011101101110"])
    assert (rc, lines) == (1, [])
    assert err == (
        "error: the decoder misstepped: at bit 4 it reached table 0, from "
        "which no emission starts with 1101101110; the tuple is not "
        "decodable with delay 1 there\n")


def test_decode_dangling_tail(files, capsys):
    rc, lines, _ = run(capsys, ["decode", "--tuple", files["r3"],
                                "--bits", "1000111"])
    assert rc == 0
    assert lines[0] == "decoded = b"
    assert "bits = 00111" in lines
    assert "resolved = no" in lines
    assert "completion = c" in lines
    assert "completion = d" in lines
    assert "capped = no" in lines


def test_decode_bits_file(files, tmp_path, capsys):
    path = tmp_path / "stream.bits"
    path.write_text("10000\n01111110\n", encoding="utf-8")
    rc, lines, _ = run(capsys, ["decode", "--tuple", files["r3"],
                                "--bits-file", str(path)])
    assert rc == 0
    assert lines[0] == "decoded = b a d b"


def test_decode_needs_bits_or_roundtrip(files, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["decode", "--tuple", files["r3"]])
    assert exit_info.value.code == 2


def test_roundtrip_requires_seed(files, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["decode", "--tuple", files["r3"], "--roundtrip"])
    assert exit_info.value.code == 2


def test_roundtrip_success(files, capsys):
    rc, lines, _ = run(capsys, ["decode", "--tuple", files["r3"],
                                "--roundtrip", "--seed", "7",
                                "--trials", "100"])
    assert rc == 0
    assert "trials = 100" in lines
    assert "failures = 0" in lines


def test_roundtrip_failures_exit_nonzero(files, capsys):
    rc, lines, _ = run(capsys, ["decode", "--tuple", files["r2"],
                                "--roundtrip", "--seed", "3",
                                "--trials", "100"])
    assert rc == 1
    assert any(line.startswith("failure = trial") for line in lines)


def test_transform_rotate(files, capsys):
    rc, lines, _ = run(capsys, ["transform", "--tuple", files["r3"],
                                "--op", "rotate"])
    assert rc == 0
    assert lines[0] == "# op = rotate"
    assert lines[1] == "# bits = - - 1"
    body = "\n".join(lines[2:]) + "\n"
    assert body == serialize_code_tuple(TUPLES["r4"])


def test_transform_without_l_prints_nothing(files, capsys):
    # rotate of r2 has no unique stationary distribution, so no L
    rc, lines, err = run(capsys, ["transform", "--tuple", files["r2"],
                                  "--op", "rotate", "--dist", files["dist"]])
    assert (rc, lines) == (1, [])
    assert err == "error: stationary distribution is not unique\n"


def test_transform_chain(files, capsys):
    rc, lines, _ = run(capsys, ["transform", "--tuple", files["r5"],
                                "--op", "chain", "--target", "f2",
                                "--dist", files["dist"]])
    assert rc == 0
    assert lines[0] == "# target = f2"
    assert lines[1] == "# steps = 2"
    assert "# step 1 op = dot" in lines
    assert "# step 2 op = rotate" in lines
    assert sum(1 for line in lines if line.startswith("# L = ")) == 2


def test_transform_chain_requires_target(files, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["transform", "--tuple", files["r5"], "--op", "chain"])
    assert exit_info.value.code == 2


def test_transform_outside_class_fails(files, capsys):
    rc, lines, err = run(capsys, ["transform", "--tuple", files["r3"],
                                  "--op", "dot"])
    assert rc == 1
    assert err.startswith("error: ")


def test_stationary_output(files, capsys):
    rc, lines, _ = run(capsys, ["stationary", "--tuple", files["r3"],
                                "--dist", files["dist"]])
    assert rc == 0
    assert lines[0] == "pi[0] = 1/4 ≈ 0.2500"
    assert lines[1] == "pi[1] = 5/28 ≈ 0.1786"
    assert lines[2] == "pi[2] = 4/7 ≈ 0.5714"
    assert lines[3] == "len[0] = 13/5 ≈ 2.6000"


def test_avglen_output(files, capsys):
    rc, lines, _ = run(capsys, ["avglen", "--tuple", files["r3"],
                                "--dist", files["dist"]])
    assert rc == 0
    assert lines == ["L = 1039/280 ≈ 3.7107"]


def test_search_output(files, capsys):
    rc, lines, _ = run(capsys, ["search", "--sigma", "2", "--tables", "2",
                                "--max-len", "2", "--filter", "aifv",
                                "--dist", files["skew"]])
    assert rc == 0
    assert lines[0] == "alphabet a b"
    assert "examined = 38416" in lines
    assert lines[-1] == "L = 119/190 ≈ 0.6263"


def _verb_actions(verb):
    """The argparse actions of one verb's subparser, by destination."""
    import argparse

    from codetuples.cli import build_parser

    verbs, = [action for action in build_parser()._actions
              if isinstance(action, argparse._SubParsersAction)]
    return {action.dest: action for action in verbs.choices[verb]._actions}


def test_search_filter_choices_are_the_search_filters():
    from codetuples.search import FILTERS, TABLES

    assert tuple(_verb_actions("search")["filter"].choices) == FILTERS
    assert tuple(_verb_actions("search")["tables"].choices) == TABLES


def test_transform_choices_and_k_default_read_their_definitions():
    from codetuples.prefix_sets import K
    from codetuples.transforms import PRECEDING, REWRITES

    transform = _verb_actions("transform")
    assert transform["op"].choices == REWRITES + ("chain",)
    assert transform["target"].choices == tuple(PRECEDING)
    for verb in ("check", "psets", "decode"):
        assert _verb_actions(verb)["k"].default == K == 2


def test_huffman_output(files, capsys):
    rc, lines, _ = run(capsys, ["huffman", "--dist", files["dist"]])
    assert rc == 0
    assert lines == ["lengths = 3 3 2 1", "L = 19/10 ≈ 1.9000"]


def test_goldens_pass(capsys):
    rc, lines, _ = run(capsys, ["goldens"])
    assert rc == 0
    assert len(lines) == 10
    assert all(line.startswith("PASS ") for line in lines)


def test_goldens_fail_names_the_differing_item(monkeypatch, capsys):
    from codetuples import reference

    monkeypatch.setitem(reference.EXPECTED_CORE, "r3", frozenset({1}))
    rc, lines, _ = run(capsys, ["goldens"])
    assert rc == 1
    failed = [line for line in lines if not line.startswith("PASS ")]
    assert len(lines) == 10 and len(failed) == 1
    assert failed[0].startswith("FAIL reachable-cores (r3")
    assert "raised" not in failed[0]
    assert failed[0].split("expected")[1].strip(" ()[]{}") == "1"


def test_goldens_fail_names_the_exception_a_check_raised(monkeypatch,
                                                         capsys):
    from codetuples import reference

    monkeypatch.delitem(reference.HUFFMAN_GOLDEN, "avg_len")
    rc, lines, _ = run(capsys, ["goldens"])
    assert rc == 1
    assert lines[:9] == [line for line in lines if line.startswith("PASS ")]
    assert lines[9] == "FAIL huffman-lengths (raised KeyError: 'avg_len')"


def test_missing_file_is_a_domain_error(capsys):
    rc, lines, err = run(capsys, ["classify", "--tuple", "/nonexistent.ct"])
    assert rc == 1
    assert err.startswith("error: ")


def test_unknown_verb_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["frobnicate"])
    assert exit_info.value.code == 2


def test_psets_at_level_zero_shows_the_empty_string(files, capsys):
    rc, lines, _ = run(capsys, ["psets", "--tuple", files["r3"], "--k", "0"])
    assert rc == 0
    assert lines == ["P0[0]={-}", "P0[1]={-}", "P0[2]={-}"]


@pytest.mark.parametrize("k", [-1, 12, 22])
@pytest.mark.parametrize("extra", [["check"], ["psets"],
                                   ["decode", "--bits", "10"],
                                   ["decode", "--roundtrip", "--seed", "1"]])
def test_k_out_of_range_is_refused_before_any_output(files, capsys, extra, k):
    argv = extra[:1] + ["--tuple", files["r3"], "--k", str(k)] + extra[1:]
    rc, lines, err = run(capsys, argv)
    assert (rc, lines) == (1, [])
    assert err == "error: k=%d outside 0..8\n" % k


@pytest.mark.parametrize("extra, message", [
    (["--trials", "-1"], "trials=-1 below 0"),
    (["--max-len", "0"], "max_len=0 below 1"),
    (["--trials", "1000001", "--max-len", "1"],
     "trials=1000001 times max_len=1 is above 1000000"),
    (["--trials", "10" + "0" * 30], "trials=10%s times max_len=12 is above "
     "1000000" % ("0" * 30)),
])
def test_bad_roundtrip_sizes_are_refused_before_any_output(
        files, capsys, extra, message):
    argv = ["decode", "--tuple", files["r3"], "--roundtrip", "--seed", "1"]
    rc, lines, err = run(capsys, argv + extra)
    assert (rc, lines, err) == (1, [], "error: %s\n" % message)


def test_zero_roundtrip_trials_still_report(files, capsys):
    argv = ["decode", "--tuple", files["r3"], "--roundtrip", "--seed", "1",
            "--trials", "0"]
    rc, lines, _ = run(capsys, argv)
    assert (rc, lines[:2]) == (0, ["trials = 0", "failures = 0"])


def _in_process(capsys, argv):
    try:
        rc = main(argv)
    except SystemExit as exc:
        rc = exc.code
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_repeated_calls_in_one_process_match_fresh_processes(
        files, tmp_path, capsys, monkeypatch):
    # main() reuses one parser per process; every call must still behave
    # as in a fresh interpreter, with no value left over from the last one.
    monkeypatch.setenv("COLUMNS", "80")
    bits_file = tmp_path / "stream.bits"
    bits_file.write_text("1000\n001111110\n", encoding="utf-8")
    r3, r5 = files["r3"], files["r5"]
    calls = [
        ["check", "--tuple", r3],
        ["check", "--tuple", files["r2"], "--k", "1"],
        ["classify", "--tuple", files["r10"]],
        ["psets", "--tuple", r3, "--k", "3"],
        ["psets", "--tuple", r3],
        ["encode", "--tuple", r3, "--symbols", "badb"],
        ["encode", "--tuple", r3, "--start", "1", "--symbols", "a"],
        ["encode", "--tuple", r3, "--symbols", "bz"],
        ["decode", "--tuple", r3, "--roundtrip", "--seed", "3",
         "--trials", "50", "--k", "3"],
        ["decode", "--tuple", r3, "--bits", "1000111"],
        ["decode", "--tuple", r3, "--bits-file", str(bits_file)],
        ["transform", "--tuple", r5, "--op", "chain", "--target", "f2",
         "--dist", files["dist"]],
        ["transform", "--tuple", r3, "--op", "rotate"],
        ["transform", "--tuple", r5, "--op", "chain"],
        ["transform", "--tuple", r3, "--op", "dot"],
        ["stationary", "--tuple", r3, "--dist", files["dist"]],
        ["avglen", "--tuple", r3, "--dist", files["dist"]],
        ["search", "--sigma", "2", "--tables", "1", "--max-len", "2",
         "--filter", "f0", "--dist", files["skew"]],
        ["frobnicate"],
        ["huffman", "--dist", files["dist"]],
        ["decode", "--tuple", r3, "--roundtrip"],
        ["decode", "--tuple", r3, "--roundtrip", "--seed", "1",
         "--trials", "-1"],
        ["decode", "--tuple", r3, "--roundtrip", "--seed", "1",
         "--max-len", "0"],
        ["decode", "--tuple", r3, "--bits", "10000011"],
        ["decode", "--tuple", r3, "--k", "1", "--bits", "10011101101110"],
        ["decode", "--tuple", r3, "--bits", "11111111"],
        ["psets", "--tuple", r3, "--k", "12"],
        ["goldens"],
        ["--help"],
        ["decode", "--help"],
        ["classify"],
    ]
    for argv in calls:
        _in_both(capsys, argv)


def _in_both(capsys, argv):
    """(exit code, stdout, stderr) of ``main(argv)``, once it matches a
    fresh interpreter's."""
    src = os.path.dirname(os.path.dirname(codetuples.__file__))
    env = dict(os.environ, PYTHONPATH=src, COLUMNS="80")
    fresh = subprocess.run(
        [sys.executable, "-m", "codetuples.cli"] + argv, env=env,
        capture_output=True, text=True, timeout=120)
    got = _in_process(capsys, argv)
    assert got == (fresh.returncode, fresh.stdout, fresh.stderr), argv
    return got


def _twin(tmp_path, path, name, change):
    """A copy of the file at ``path`` with its bytes changed."""
    twin = tmp_path / name
    with open(path, "rb") as handle:
        twin.write_bytes(change(handle.read()))
    return str(twin)


def _verbs(tuple_file, dist_file, bits_file):
    """A verb that reads each kind of file: a tuple, a distribution (with
    the tuple) and a bits file (with the tuple)."""
    return [["classify", "--tuple", tuple_file],
            ["avglen", "--tuple", tuple_file, "--dist", dist_file],
            ["decode", "--tuple", tuple_file, "--bits-file", bits_file]]


@pytest.fixture
def inputs(files, tmp_path):
    """The r3 tuple, the main distribution and a two-line bits file."""
    bits_file = tmp_path / "stream.bits"
    bits_file.write_text("1000\n001111110\n", encoding="utf-8")
    return [files["r3"], files["dist"], str(bits_file)]


def test_crlf_files_print_as_their_lf_twins(inputs, tmp_path, capsys):
    crlf = [_twin(tmp_path, path, "crlf%d" % n,
                  lambda text: text.replace(b"\n", b"\r\n"))
            for n, path in enumerate(inputs)]
    want = [_in_process(capsys, argv) for argv in _verbs(*inputs)]
    assert [_in_both(capsys, argv) for argv in _verbs(*crlf)] == want
    assert all(rc == 0 for rc, _, _ in want)


@pytest.mark.parametrize("kind", [0, 1, 2], ids=["tuple", "dist", "bits"])
def test_files_with_a_byte_order_mark_load(inputs, tmp_path, capsys, kind):
    marked = list(inputs)
    marked[kind] = _twin(tmp_path, inputs[kind], "bom",
                         lambda text: "\ufeff".encode("utf-8") + text)
    want = _in_process(capsys, _verbs(*inputs)[kind])
    assert want[0] == 0 and not want[2]
    assert _in_both(capsys, _verbs(*marked)[kind]) == want


def test_a_file_that_is_not_utf8_names_the_byte(files, tmp_path, capsys):
    path = tmp_path / "bad.ct"
    path.write_bytes(b"alphabet a \xff b\ntables 1\n")
    assert _in_both(capsys, ["classify", "--tuple", str(path)]) == (
        1, "", "error: 'utf-8' codec can't decode byte 0xff in position 11: "
        "invalid start byte\n")
