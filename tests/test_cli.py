import hashlib
import io
import itertools
import json
import os
import shlex
import string
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from typing import NamedTuple

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import btlab
from btlab import cli, graph_oracle
from btlab.cli import main
from btlab.graph_oracle import Cycle

GOLDEN = Path(__file__).parent / "golden"


def run(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse refuses the command line itself
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestInvariantsCommand:
    def test_json_document(self, capsys):
        code, out, _ = run(
            capsys,
            "invariants", "--c", "2", "--d", "2",
            "--perm", "(1 2 3 4)", "--max-level", "4", "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert list(doc) == [
            "h", "c", "d", "perm", "orbits", "gamma", "c_exponent",
            "isomorphism_number", "specializing_height",
        ]
        assert doc["gamma"] == [3, 4, 4, 4]
        assert doc["c_exponent"] == [4, 16, 32, 48]
        assert doc["isomorphism_number"] == 2
        assert doc["specializing_height"] == 4
        assert doc["orbits"][0]["rep"] == [1, 1]
        assert doc["orbits"][1]["segments"] == [{"start": 4, "length": 3, "level": 1}]

    def test_byte_identical_runs(self, capsys):
        args = ("invariants", "--c", "2", "--d", "3", "--perm", "4,5,1,2,3",
                "--format", "json")
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second

    def test_table_format(self, capsys):
        code, out, _ = run(
            capsys, "invariants", "--c", "2", "--d", "2", "--perm", "(1 2 3 4)",
            "--max-level", "2",
        )
        assert code == 0
        assert "gamma" in out and "isomorphism_number   2" in out

    def test_p_annotation(self, capsys):
        code, out, _ = run(
            capsys, "invariants", "--c", "2", "--d", "2", "--perm", "(1 2 3 4)",
            "--max-level", "2", "--p", "5", "--format", "json",
        )
        doc = json.loads(out)
        assert doc["p"] == 5
        assert doc["components"] == ["5^4", "5^16"]

    def test_degree_mismatch_is_input_error(self, capsys):
        code, out, err = run(
            capsys, "invariants", "--c", "2", "--d", "2", "--perm", "1,2,3",
        )
        assert code == 2
        assert out == ""
        assert err == "error: one-line form has 3 entries, expected 4\n"

    @pytest.mark.parametrize("perm,token", [("\u00b2,1", "\u00b2"), ("(\u00b2 1)", "\u00b2"),
                                            ("18\u00b9\u00b3", "18\u00b9\u00b3")])
    def test_non_decimal_digits_exit_two(self, capsys, perm, token):
        # superscripts pass str.isdigit() but not int()
        code, out, err = run(capsys, "invariants", "--c", "1", "--d", "1", f"--perm={perm}")
        assert (code, out) == (2, "")
        assert err == f"error: token {token!r} is not a positive integer\n"

    @pytest.mark.parametrize("p", ["1", "-7", str(2**64 + 13)])
    def test_p_must_be_a_prime_below_2_to_the_64(self, capsys, p):
        code, out, err = run(
            capsys, "invariants", "--c", "1", "--d", "1", "--perm", "2,1", "--p", p,
        )
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "is not prime" in err or "must be below 2^64" in err

    def test_bad_permutation_is_input_error(self, capsys):
        code, _, err = run(
            capsys, "invariants", "--c", "1", "--d", "1", "--perm", "2,2",
        )
        assert code == 2
        assert "2" in err

    def test_out_file_matches_stdout(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        code, out, _ = run(
            capsys, "invariants", "--c", "1", "--d", "1", "--perm", "(1 2)",
            "--format", "json", "--out", str(path),
        )
        assert code == 0
        assert path.read_text(encoding="utf-8") == out


@pytest.mark.parametrize("command", ["invariants", "oracle", "kraft-type"])
@pytest.mark.parametrize("fmt", ["json", "table"])
def test_cycle_form_fixes_unlisted_points(capsys, command, fmt):
    # at c + d = 4, (1 2) is (1 2)(3)(4)
    argv = [command, "--c", "2", "--d", "2", "--format", fmt]
    short = run(capsys, *argv, "--perm", "(1 2)")
    full = run(capsys, *argv, "--perm", "2,1,3,4")
    assert short == full
    assert short[0] == 0 and short[1]


class TestOracleCommand:
    def test_pass_verdict(self, capsys):
        code, out, _ = run(
            capsys, "oracle", "--c", "2", "--d", "2", "--perm", "(1 2 3 4)",
            "--level", "3", "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["verdict"] == "pass"
        assert doc["oracle"]["dimension"] == 4
        assert doc["oracle"]["exponent"] == 32
        assert len(doc["oracle"]["per_orbit"]) == 4

    @pytest.mark.parametrize(
        "golden,argv",
        [
            ("oracle_square_l3.json",
             ["--c", "2", "--d", "2", "--perm", "(1 2 3 4)", "--level", "3", "--format", "json"]),
            ("oracle_square_l3.txt",
             ["--c", "2", "--d", "2", "--perm", "(1 2 3 4)", "--level", "3"]),
            # h = 7 with free paths, zeroed paths and cycles in the rows
            ("oracle_h7_l4.json",
             ["--c", "4", "--d", "3", "--perm", "(1 4)(2 5 3)(6 7)", "--level", "4",
              "--format", "json"]),
            ("oracle_h7_l4.txt",
             ["--c", "4", "--d", "3", "--perm", "(1 4)(2 5 3)(6 7)", "--level", "4"]),
        ],
    )
    def test_golden_bytes(self, capsys, golden, argv):
        code, out, _ = run(capsys, "oracle", *argv)
        assert code == 0
        assert out == (GOLDEN / golden).read_text(encoding="utf-8")


    def test_fault_below_the_top_level_fails_the_verdict(self, capsys, monkeypatch):
        # the level-1 dimension is off by one, while the level-3 numbers
        # that the document prints stay right
        real = graph_oracle.classify_components

        def classify(g):
            res = real(g)
            return res._replace(dimensions=(res.dimensions[0] + 1,) + res.dimensions[1:])

        monkeypatch.setattr(graph_oracle, "classify_components", classify)
        code, out, _ = run(
            capsys, "oracle", "--c", "2", "--d", "2", "--perm", "(1 2 3 4)",
            "--level", "3", "--format", "json",
        )
        assert code == 1
        doc = json.loads(out)
        assert doc["verdict"] == "fail"
        assert (doc["oracle"]["dimension"], doc["oracle"]["exponent"]) == (4, 32)

    def test_cycle_weight_fault_fails_the_verdict(self, capsys, heavier_cycles):
        code, out, _ = run(
            capsys, "oracle", "--c", "2", "--d", "2", "--perm", "(1 2 3 4)",
            "--level", "2", "--format", "json",
        )
        assert code == 1
        assert json.loads(out)["verdict"] == "fail"


class TestVerifyCommand:
    def test_sweep_passes(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--samples", "50", "--max-h", "6",
            "--max-level", "3", "--seed", "7", "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["verdict"] == "pass"
        assert doc["failures"] == []

    def test_sweep_within_the_vertex_budget_passes(self, capsys):
        # 2 * 80^2 * 60 = 768,000 vertices, within the oracle's budget
        code, out, _ = run(
            capsys, "verify", "--samples", "2", "--max-h", "80",
            "--max-level", "60", "--format", "json",
        )
        assert code == 0
        assert json.loads(out)["verdict"] == "pass"

    def test_reproducible(self, capsys):
        args = ("verify", "--samples", "30", "--max-h", "5", "--seed", "3")
        _, a, _ = run(capsys, *args)
        _, b, _ = run(capsys, *args)
        assert a == b


class TestBt1Commands:
    def test_enumerate_lines_and_count(self, capsys):
        code, out, _ = run(capsys, "enumerate-bt1", "--c", "2", "--d", "2")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 7
        assert lines[-1] == "6"
        assert set(lines[:-1]) == {
            "FFVV", "FV+FV", "FFV+V", "FVV+F", "FV+F+V", "F+F+V+V"
        }

    def test_enumerate_json(self, capsys):
        code, out, _ = run(
            capsys, "enumerate-bt1", "--c", "1", "--d", "1", "--format", "json"
        )
        doc = json.loads(out)
        assert doc["count"] == 2
        assert set(doc["classes"]) == {"FV", "F+V"}

    def test_kraft_type(self, capsys):
        code, out, _ = run(
            capsys, "kraft-type", "--c", "2", "--d", "2", "--perm", "(1 2 3 4)",
        )
        assert code == 0
        assert out.strip() == "FFVV"


class TestWittCommands:
    def test_witt_polys_table_lines(self, capsys):
        code, out, _ = run(capsys, "witt-polys", "--p", "2", "--len", "2")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "S_0 = x_0 + y_0"
        assert lines[1] == "S_1 = x_1 + y_1 - x_0*y_0"
        assert "P_1 = 2*x_1*y_1 + x_0^2*y_1 + x_1*y_0^2" in lines

    def test_witt_polys_13_3_digest(self, capsys):
        # sha256 of the 219,440-byte document, pinned before the laws were
        # built by isolated-term binomial powers
        code, out, _ = run(capsys, "witt-polys", "--p", "13", "--len", "3", "--format", "json")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "e2e83f016cf544cc8090fb8f95ec4bc43c82d0fbe8f6389915ab30c66bea4a4a"
        )

    def test_witt_polys_repeats_its_bytes_in_one_process(self, capsys):
        # the second run renders the cached laws from their kept text
        outs = [run(capsys, "witt-polys", "--p", "13", "--len", "3", "--format", "json")
                for _ in range(2)]
        assert outs[0] == outs[1]
        assert outs[0][0] == 0
        assert hashlib.sha256(outs[1][1].encode()).hexdigest() == (
            "e2e83f016cf544cc8090fb8f95ec4bc43c82d0fbe8f6389915ab30c66bea4a4a"
        )

    def test_witt_polys_19_3_within_the_law_guard(self, capsys):
        # 25,482 candidate monomials times 19^2 = 9,199,002, within 10^7
        code, out, err = run(capsys, "witt-polys", "--p", "19", "--len", "3", "--format", "json")
        assert (code, err) == (0, "")
        doc = json.loads(out)
        assert [len(doc[kind]) for kind in ("sum", "product", "negation")] == [3, 3, 3]

    def test_witt_polys_rejects_composite(self, capsys):
        code, _, err = run(capsys, "witt-polys", "--p", "6", "--len", "2")
        assert code == 2
        assert "prime" in err

    def test_witt_eval(self, capsys):
        code, out, _ = run(
            capsys, "witt-eval", "--p", "2", "--len", "3",
            "--lhs", "1,0,0", "--rhs", "1,0,0", "--format", "json",
        )
        doc = json.loads(out)
        assert doc["sum"] == [0, 1, 0]
        assert doc["product"] == [1, 0, 0]
        assert doc["neg_lhs"] == [1, 1, 1]

    def test_witt_eval_beyond_the_law_guard(self, capsys):
        # p^(n-1) = 10007 is over the law guard, but Z/p^2 has 27 bits;
        # sum_1 = 1 + 1 + (2 - 2^p)/p mod p, product_1 = 1 + 1 + p mod p
        code, out, err = run(
            capsys, "witt-eval", "--p", "10007", "--len", "2",
            "--lhs", "1,1", "--rhs", "1,1", "--format", "json",
        )
        assert (code, err) == (0, "")
        doc = json.loads(out)
        assert doc["sum"] == [2, 924]
        assert doc["product"] == [1, 2]
        assert doc["neg_lhs"] == [10006, 10006]

    def test_witt_eval_length_error(self, capsys):
        code, _, err = run(
            capsys, "witt-eval", "--p", "2", "--len", "3",
            "--lhs", "1,0", "--rhs", "1,0,0",
        )
        assert code == 2
        assert "--lhs" in err

    def test_witt_check_passes(self, capsys):
        code, out, _ = run(
            capsys, "witt-check", "--p", "3", "--len", "2",
            "--samples", "25", "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["verdict"] == "pass"
        assert doc["ring_table"] == "pass"


H7 = ["--c", "4", "--d", "3", "--perm", "(1 4)(2 5 3)(6 7)"]


GOLDEN_ARGVS = (
    [
        (f"{name}.{ext}", argv + (["--format", "json"] if ext == "json" else []))
        for name, argv in [
            ("invariants_h7_p5", ["invariants", *H7, "--max-level", "4", "--p", "5"]),
            ("verify_s20", ["verify", "--samples", "20", "--max-h", "5",
                            "--max-level", "3", "--seed", "7"]),
            ("enumerate_c2_d3", ["enumerate-bt1", "--c", "2", "--d", "3"]),
            ("kraft_h7", ["kraft-type", *H7]),
            ("witt_eval_p3_n3", ["witt-eval", "--p", "3", "--len", "3",
                                 "--lhs", "1,2,0", "--rhs", "2,2,1"]),
            ("witt_check_p2_n3", ["witt-check", "--p", "2", "--len", "3", "--samples", "20"]),
        ]
        for ext in ("json", "txt")
    ]
    + [
        ("witt_polys_p3_n2.json", ["witt-polys", "--p", "3", "--len", "2", "--format", "json"]),
        ("witt_p2_n3.txt", ["witt-polys", "--p", "2", "--len", "3"]),
    ]
)


@pytest.mark.parametrize("golden,argv", GOLDEN_ARGVS)
def test_golden_bytes(capsys, golden, argv):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out == (GOLDEN / golden).read_text(encoding="utf-8")


@pytest.mark.parametrize("golden,fmt", [
    ("verify_planted_cycle_weight.json", ["--format", "json"]),
    ("verify_planted_cycle_weight.txt", []),
])
def test_failure_golden_bytes(capsys, heavier_cycles, golden, fmt):
    code, out, _ = run(
        capsys, "verify", "--samples", "6", "--max-h", "4", "--max-level", "2",
        "--seed", "1", *fmt,
    )
    assert code == 1
    assert out == (GOLDEN / golden).read_text(encoding="utf-8")


class Pair(NamedTuple):
    left: object
    right: object


# ints of any sign and size; ASCII, non-ASCII and control-character text
JSON_INTS = st.integers() | st.integers(min_value=2**64) | st.integers(max_value=-(2**64))
JSON_TEXT = st.text() | st.text(alphabet=st.characters(max_codepoint=0x7F)) | st.text(
    alphabet=st.characters(max_codepoint=0x1F) | st.sampled_from('"\\/é\u2028\U0001f600'))
# lists of equal-length int tuples (an orbit's points), sometimes ragged
INT_ROWS = st.integers(0, 3).flatmap(
    lambda n: st.lists(st.tuples(*[JSON_INTS] * n) | st.tuples(JSON_INTS), min_size=1))
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | JSON_INTS | JSON_TEXT | INT_ROWS | st.lists(JSON_INTS),
    lambda kids: (
        st.lists(kids) | st.lists(kids).map(tuple) | st.builds(Pair, kids, kids)
        | st.dictionaries(JSON_TEXT, kids)
    ),
    max_leaves=30,
)


@settings(max_examples=200, deadline=None)
@given(JSON_VALUES)
@example({})
@example([[], (), {}, [[]], {"a": {}}, [{}]])
@example([1, True, 0, False])
@example([True, False])
@example([(1, 2), (3,), (4, 5)])
@example([(1, 2), (True, 3)])
@example([(1, 2), ()])
@example([(2**70, -1), (-(2**70), 0)])
@example({"cycles": (Cycle(2, 2), Cycle(3, 3)), "rows": [Cycle(1, 1)]})
@example(["a", "\x00\x1f", "\u00e9\U0001f600", '"\\'])
def test_json_writer_matches_json_dumps(value):
    assert cli._json(value) == json.dumps(value, indent=2)


@pytest.mark.parametrize("value", [{1, 2}, 1.5, [0.0], {1: "a"}, {"a": {(1, 2): 3}}])
def test_json_writer_refuses_other_types_and_keys(value):
    with pytest.raises(TypeError):
        cli._json(value)


def test_json_writer_makes_no_call_per_leaf(monkeypatch):
    """A list of ints, of strs, of int pairs or of ``Cycle`` records is
    written in the call that reaches it, not one call per entry."""
    calls = []
    real = cli._write
    monkeypatch.setattr(cli, "_write", lambda o, *rest: calls.append(o) or real(o, *rest))
    doc = {"points": [(i, -i) for i in range(500)], "a": list(range(500)),
           "classes": ["FV"] * 500, "cycles": [Cycle(i, 2 * i) for i in range(500)]}
    assert cli._json(doc) == json.dumps(doc, indent=2)
    assert len(calls) == 5


S5 = [",".join(map(str, p)) for p in itertools.permutations(range(1, 6))]


def command_argvs():
    """One argv per command document: every subcommand, the square and
    the h = 7 oracle (whose rows hold Cycle tuples), and invariants on
    all of S_5 at level 3, with and without --p."""
    yield from (argv for _, argv in GOLDEN_ARGVS)
    yield ["oracle", "--c", "2", "--d", "2", "--perm", "(1 2 3 4)", "--level", "3"]
    yield ["oracle", *H7, "--level", "4"]
    for i, perm in enumerate(S5):
        d = i % 4 + 1
        for extra in ([], ["--p", "5"]):
            yield ["invariants", "--c", str(5 - d), "--d", str(d), "--perm", perm,
                   "--max-level", "3", *extra]


def command_doc(argv):
    args = cli.build_parser().parse_args(argv)
    return getattr(cli, "cmd_" + args.command.replace("-", "_"))(args)


def test_every_command_document_renders_as_json_dumps():
    commands, cycles = set(), 0
    for argv in command_argvs():
        doc = command_doc(argv)
        assert cli._json(doc) == json.dumps(doc, indent=2), argv
        commands.add(argv[0])
        cycles += sum(len(r["cycles"]) for r in doc.get("oracle", {}).get("per_orbit", ()))
    assert commands == {name.replace("_", "-")[4:] for name in dir(cli)
                        if name.startswith("cmd_")}
    assert cycles > 0


def test_failing_verify_document_renders_as_json_dumps(heavier_cycles):
    doc = command_doc(["verify", "--samples", "6", "--max-h", "4", "--max-level", "2",
                       "--seed", "1"])
    assert doc["verdict"] == "fail"
    assert cli._json(doc) == json.dumps(doc, indent=2)


def test_parser_is_built_once_and_finds_rebound_commands(capsys, monkeypatch):
    cli.build_parser.cache_clear()
    assert run(capsys, "kraft-type", *H7)[0] == 0
    calls = []
    real = cli.cmd_kraft_type
    monkeypatch.setattr(cli, "cmd_kraft_type", lambda args: calls.append(args) or real(args))
    code, out, _ = run(capsys, "kraft-type", *H7)
    assert (code, out) == (0, (GOLDEN / "kraft_h7.txt").read_text(encoding="utf-8"))
    assert len(calls) == 1
    assert cli.build_parser.cache_info().misses == 1


class TestArgumentErrors:
    def test_unknown_command_exits_two(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["frobnicate"])
        assert err.value.code == 2

    def test_missing_required_flag_exits_two(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["invariants", "--c", "2"])
        assert err.value.code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["invariants", "--c", "1", "--d", "1", "--perm", "(1 2)", "--max-level", "0"],
            ["oracle", "--c", "1", "--d", "1", "--perm", "(1 2)", "--level", "0"],
            ["verify", "--max-h", "1"],
            ["witt-polys", "--p", "2", "--len", "0"],
            # primes are accepted only below 2^64
            ["witt-eval", "--p", str(10**400 + 1), "--len", "1", "--lhs", "1", "--rhs", "1"],
            ["witt-eval", "--p", str(2**64 + 13), "--len", "1", "--lhs", "1", "--rhs", "1"],
            ["invariants", "--c", "1", "--d", "1", "--perm", "(1 2)", "--max-level", "3000000"],
            ["oracle", "--c", "1", "--d", "1", "--perm", "(1 2)", "--level", "10001"],
            # 50^2 * 401 oracle vertices, just over the cap
            ["oracle", "--c", "25", "--d", "25", "--perm", "(1 2)", "--level", "401"],
            # (p^n)^2 ring-table pairs: 9.6e9 and 1e10
            ["witt-check", "--p", "313", "--len", "2"],
            ["witt-check", "--p", "99991", "--len", "1"],
            # a Z/p^n modulus of 14 * 37 = 518 bits, over 512
            ["witt-eval", "--p", "10007", "--len", "37", "--lhs", ",".join(["1"] * 37),
             "--rhs", ",".join(["1"] * 37)],
            # (2,7) with 1.4e6 candidate monomials
            ["witt-polys", "--p", "2", "--len", "7"],
            # binomial(28,14) classes, and h beyond the height cap
            ["enumerate-bt1", "--c", "14", "--d", "14"],
            ["enumerate-bt1", "--c", "0", "--d", "1000000000"],
            # verify: 1,152,000 graph vertices, and more cases than the cap
            ["verify", "--samples", "3", "--max-h", "80", "--max-level", "60"],
            ["verify", "--samples", "10001", "--max-h", "2", "--max-level", "1"],
            # witt-check identity samples
            ["witt-check", "--p", "2", "--len", "2", "--samples", "100000000"],
            # cycle notation at c+d = 10^5, which would create 10^10 pairs
            ["invariants", "--c", "100000", "--d", "0", "--perm", "(1 2)"],
            # orbits * (max level + 50) over the report-size cap: 9,802 orbits
            # at level 10^4, 249,002 at level 1 and 992,020 at level 4
            ["invariants", "--c", "50", "--d", "50", "--perm", "(1 2)",
             "--max-level", "10000", "--format", "json"],
            ["invariants", "--c", "250", "--d", "250", "--perm", "(1 2)", "--max-level", "1"],
            ["invariants", "--c", "500", "--d", "500", "--perm", "(1 2 3 4 5)",
             "--max-level", "4"],
            # a Z/p^n modulus of 3 * 257 = 514 bits, and the laws of
            # p^(n-1) = 10007, which witt-eval no longer builds
            ["witt-eval", "--p", "3", "--len", "257", "--lhs", ",".join(["1"] * 257),
             "--rhs", ",".join(["2"] * 257)],
            ["witt-polys", "--p", "10007", "--len", "2"],
        ],
    )
    def test_bad_numeric_flags_exit_two(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "must be" in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv,refusal",
        [
            (["verify", "--samples", "0"], "verify samples must be >= 1, got 0"),
            (["verify", "--max-h", "1"], "verify max_h must be >= 2, got 1"),
            (["verify", "--max-level", "0"], "verify max_level must be >= 1, got 0"),
            (["witt-check", "--p", "2", "--len", "0"], "--len must be >= 1, got 0"),
            (["witt-eval", "--p", "2", "--len", "0", "--lhs", "1", "--rhs", "1"],
             "--len must be >= 1, got 0"),
            (["invariants", "--c", "1", "--d", "1", "--perm", "(1 2)", "--p", "4"],
             "4 is not prime"),
            # a superscript is a digit to str.isdigit() but not to int()
            (["invariants", "--c", "1", "--d", "1", "--perm", "²,1"],
             "token '²' is not a positive integer"),
            (["oracle", "--c", "1", "--d", "1", "--perm", "(1 2)", "--level", "0"],
             "--level must be >= 1, got 0"),
            # argparse's own usage errors
            (["invariants", "--c", "x", "--d", "1", "--perm", "2,1"],
             "argument --c: invalid int value: 'x'"),
            (["invariants", "--c", "2"], "the following arguments are required: --d, --perm"),
            (["witt-polys", "--p", "2", "--len", "0"], "--len must be >= 1, got 0"),
            (["invariants", "--c", "1", "--d", "1", "--perm", "(1 2)", "--max-level", "0"],
             "--max-level must be >= 1, got 0"),
            (["witt-eval", "--p", "10007", "--len", "37", "--lhs", ",".join(["1"] * 37),
              "--rhs", ",".join(["1"] * 37)],
             "n * bit_length(p) must be at most 512 for arithmetic in Z/p^n, "
             "p=10007, n=37 has 518"),
            # within the vertex budget, but above the report's level cap
            (["verify", "--samples", "1", "--max-h", "2", "--max-level", "10001"],
             "verify max_level must be <= 10000, got 10001"),
            # above the report's level cap, named by the flag that set it
            (["oracle", "--c", "1", "--d", "1", "--perm", "(1 2)", "--level", "10001"],
             "--level must be <= 10000, got 10001"),
            (["invariants", "--c", "1", "--d", "1", "--perm", "(1 2)", "--max-level", "10001"],
             "--max-level must be <= 10000, got 10001"),
            (["verify", "--samples", "10001", "--max-h", "2", "--max-level", "1"],
             "verify samples must be <= 10000, got 10001"),
            (["witt-check", "--p", "2", "--len", "1", "--samples", "-1"],
             "--samples must be >= 0, got -1"),
            (["witt-check", "--p", "2", "--len", "1", "--samples", "10001"],
             "--samples must be <= 10000, got 10001"),
        ],
    )
    def test_refusal_is_one_error_line(self, capsys, argv, refusal):
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (2, "", f"error: {refusal}\n")

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--samples", "1", "--max-h", "2", "--max-level", "1"],
            ["witt-check", "--p", "2", "--len", "1", "--samples", "0"],
            ["witt-check", "--p", "2", "--len", "1", "--samples", "10000"],
            ["oracle", "--c", "1", "--d", "1", "--perm", "(1 2)", "--level", "10000"],
            ["invariants", "--c", "1", "--d", "1", "--perm", "(1 2)", "--max-level", "10000"],
        ],
    )
    def test_bound_edges_are_admitted(self, capsys, argv):
        assert run(capsys, *argv)[0] == 0

    @pytest.mark.parametrize("target", ["missing/report.json", "."])
    def test_unwritable_out_exits_two(self, capsys, tmp_path, target):
        path = tmp_path / target
        code, out, err = run(
            capsys, "oracle", "--c", "1", "--d", "1", "--perm", "2,1", "--level", "3",
            "--out", str(path),
        )
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: cannot write {path}: ")
        assert err.count("\n") == 1


# ASCII digits, the separators, superscripts (digits to str.isdigit() but
# not to int()), Arabic-Indic digits (decimal, read by int()) and letters
PERM_ALPHABET = string.digits + "(), \t" + "²¹³" + "٠١٢٣٩" + "xFVé"


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(["invariants", "kraft-type", "oracle"]),
    st.integers(0, 4),
    st.integers(0, 4),
    st.text(alphabet=PERM_ALPHABET, max_size=24),
)
@example("invariants", 1, 1, "²,1")
@example("invariants", 2, 2, "18¹³")
@example("oracle", 1, 1, "(١ ٢)")
def test_any_perm_text_is_accepted_or_refused_in_one_line(command, c, d, text):
    # --perm=TEXT, so that argparse never reads the text as a flag
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main([command, "--c", str(c), "--d", str(d), f"--perm={text}"])
    assert code in (0, 2)
    if code == 2:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error: ")
        assert err.getvalue().count("\n") == 1 and err.getvalue().endswith("\n")


def python(*args, **kwargs):
    """A fresh interpreter that imports the btlab these tests import."""
    env = {**os.environ, "PYTHONPATH": str(Path(btlab.__file__).parent.parent)}
    return subprocess.Popen([sys.executable, *args], env=env, **kwargs)


def python_m_btlab(*argv):
    proc = python("-m", "btlab", *argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    out, err = proc.communicate(timeout=60)
    return proc.returncode, out.decode("utf-8"), err.decode("utf-8")


def test_readme_examples_exit_zero(capsys):
    """Every ``btlab`` line of the README's ``## CLI`` block, as written."""
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    examples = [shlex.split(line) for line in block.splitlines() if line.startswith("btlab ")]
    assert len(examples) == 8
    for argv in examples:
        assert run(capsys, *argv[1:])[0] == 0, argv


def test_python_m_btlab_prints_a_document_and_refuses_bad_input():
    assert python_m_btlab("kraft-type", *H7) == (
        0, (GOLDEN / "kraft_h7.txt").read_text(encoding="utf-8"), "")
    assert python_m_btlab("witt-polys", "--p", "2", "--len", "0") == (
        2, "", "error: --len must be >= 1, got 0\n")


def test_a_reader_that_stops_early_gets_no_traceback():
    """The (8,8) class list is about 220 KB, more than a pipe holds, so
    writing it fails once the reader has closed its end after one line."""
    proc = python("-m", "btlab", "enumerate-bt1", "--c", "8", "--d", "8",
                  stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.readline() == b"FFFFFFFFVVVVVVVV\n"
    proc.stdout.close()
    assert proc.wait(timeout=60) == 0
    assert proc.stderr.read() == b""
    proc.stderr.close()


def test_import_loads_neither_dataclasses_nor_inspect():
    proc = python("-c", "import sys, btlab.cli; print(sorted({'dataclasses', 'inspect'}"
                  " & set(sys.modules)))", stdout=subprocess.PIPE)
    out, _ = proc.communicate(timeout=60)
    assert (proc.returncode, out) == (0, b"[]\n")
