"""Command line interface: output formats, exit codes, determinism."""

import hashlib
import inspect
import io
import json
import os
import shlex
import subprocess
import sys
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from rookalg import algebra, cli, verify
from rookalg.capacity import rook_limit
from rookalg.cli import main, parse_word
from rookalg.combinatorics import Permutation, rook_enumerate
from rookalg.nupoly import NuPoly
from rookalg.tables import StructureTable, structure_table


def run_cli(*args):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(args))
    return code, out.getvalue(), err.getvalue()


# ------------------------------------------------------------------- parsing


def test_parse_word():
    assert parse_word(2, "1") == [("perm", Permutation((1, 2)))]
    assert parse_word(2, "T1 T2") == [("hole", 1), ("hole", 2)]
    tokens = parse_word(2, "A(12) T1")
    assert tokens[0] == ("perm", Permutation((2, 1)))
    assert tokens[1] == ("hole", 1)


def test_parse_word_rejects_garbage():
    with pytest.raises(ValueError):
        parse_word(2, "T3")
    with pytest.raises(ValueError):
        parse_word(2, "B(12)")
    with pytest.raises(ValueError):
        parse_word(2, "A(13)")


# -------------------------------------------------------------------- output


def test_dims_output():
    code, out, err = run_cli("dims", "--alpha", "2")
    assert code == 0
    assert err == ""
    assert out == (
        "alpha: 2\n"
        "dimension (closed form): 7\n"
        "dimension (enumeration): 7\n"
        "dimension (admissible basis): 7\n"
        "dimension (sum of squared block dimensions): 7\n"
        "double cosets (n=2): 7\n"
        "status: pass\n"
    )


def test_dims_enumerates_the_rooks_and_the_basis_once(monkeypatch):
    # the printed counts are read off the dimension suite's report
    calls = Counter()

    def counting(name, fn):
        def counted(*args):
            calls[name] += 1
            return fn(*args)

        return counted

    for module in (cli, verify):
        for name in ("rook_enumerate", "basis_enumerate"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
    code, out, _ = run_cli("dims", "--alpha", "2")
    assert code == 0
    assert out.startswith("alpha: 2\n")
    assert calls == {"rook_enumerate": 1, "basis_enumerate": 1}


def test_dims_prints_the_counts_of_a_dimension_mismatch(monkeypatch):
    monkeypatch.setattr(verify, "rook_enumerate", lambda alpha: rook_enumerate(alpha)[:-1])
    code, out, err = run_cli("dims", "--alpha", "2")
    assert code == 1
    assert out.splitlines()[1:4] == [
        "dimension (closed form): 7",
        "dimension (enumeration): 6",
        "dimension (admissible basis): 7",
    ]
    assert out.endswith("status: fail\n")
    assert err == "FAIL dimensions\n"


def test_basis_output():
    code, out, _ = run_cli("basis", "--alpha", "2")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "0\t1"
    assert lines[3] == "3\tA(12) T1"
    assert len(lines) == 7


def test_basis_json():
    code, out, _ = run_cli("basis", "--alpha", "2", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["alpha"] == 2
    assert len(obj["basis"]) == 7
    assert obj["basis"][0] == {"g": [1, 2], "I": []}
    assert obj["basis"][6] == {"g": [1, 2], "I": [1, 2]}


@pytest.mark.parametrize(
    "word,expected",
    [
        ("T2 T1", "-A(12) T1 + A(12) T2 + T1 T2\n"),
        ("T1 T1", "nu + (nu - 1) T1\n"),
        ("1", "1\n"),
    ],
)
def test_normalize_output(word, expected):
    code, out, _ = run_cli("normalize", "--alpha", "2", "--word", word)
    assert code == 0
    assert out == expected


def test_normalize_at_a_point():
    code, out, _ = run_cli("normalize", "--alpha", "2", "--word", "T1 T1", "--nu", "3")
    assert code == 0
    assert out == "3 + 2 T1\n"


def test_gram_output():
    code, out, _ = run_cli("gram", "--alpha", "1")
    assert code == 0
    assert out == "[1, 0]\n[0, nu]\nsmallest positive definite integer in [0, 4]: 1\n"


def test_gram_at_a_point_failure_exit():
    code, out, err = run_cli("gram", "--alpha", "1", "--nu", "0")
    assert code == 1


def test_gram_at_a_positive_point():
    code, out, _ = run_cli("gram", "--alpha", "1", "--nu", "2")
    assert code == 0
    assert out == "1/1 0/1\n0/1 2/1\npositive_definite: true\n"


def test_gram_at_alpha_0_is_positive_definite_below_alpha_minus_1():
    # the one key has corank 0 and (x)_0 = 1, so "x > alpha - 1" would be wrong here
    assert run_cli("gram", "--alpha", "0", "--nu=-1") == (0, "1/1\npositive_definite: true\n", "")


@pytest.mark.parametrize("nu", [[], ["--nu", "2"]], ids=["polynomial", "at-a-point"])
def test_gram_reports_an_asymmetric_matrix_as_a_consistency_failure(monkeypatch, nu):
    # a build fault, so exit 1 with the first asymmetric pair, not a usage error
    G = [list(row) for row in cli.gram_matrix(2)]
    G[0][1] = G[2][3] = NuPoly.one()
    monkeypatch.setattr(cli, "gram_matrix", lambda alpha: tuple(map(tuple, G)))
    assert run_cli("gram", "--alpha", "2", *nu) == (
        1,
        "",
        'FAIL consistency: the Gram matrix is not symmetric\n{"p": 1, "q": 0}\n',
    )


def test_limit_output():
    code, out, _ = run_cli("limit", "--alpha", "1")
    assert code == 0
    assert out.splitlines() == [
        "[0] [0] -> 1/1 [0]",
        "[0] [1] -> 1/1 [1]",
        "[1] [0] -> 1/1 [1]",
        "[1] [1] -> 1/1 [1]",
    ]


# --------------------------------------------------------------------- table


def test_table_json_roundtrip():
    code, out, _ = run_cli("table", "--alpha", "2", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert StructureTable.from_json_obj(obj) == structure_table(2)


def test_table_output_is_byte_stable():
    a = run_cli("table", "--alpha", "2", "--format", "json")
    b = run_cli("table", "--alpha", "2", "--format", "json")
    assert a == b


def test_table_csv_at_a_point():
    code, out, _ = run_cli("table", "--alpha", "1", "--format", "csv", "--nu", "3")
    assert code == 0
    assert out.splitlines() == [
        "p,q,r,poly",
        "0,0,0,1/1",
        "0,1,1,1/1",
        "1,0,1,1/1",
        "1,1,0,3/1",
        "1,1,1,2/1",
    ]


def test_a_negative_fraction_is_passed_with_an_equals_sign():
    # T1 T1 = nu + (nu - 1) T1 at nu = -1/2
    code, out, _ = run_cli("table", "--alpha", "1", "--nu=-1/2", "--format", "csv")
    assert code == 0
    assert out.splitlines()[-2:] == ["1,1,0,-1/2", "1,1,1,-3/2"]
    # with a space, argparse reads -1/2 as an option; a negative integer still parses
    err = io.StringIO()
    with redirect_stderr(err), pytest.raises(SystemExit) as exc:
        main(["normalize", "--alpha", "1", "--word", "T1 T1", "--nu", "-1/2"])
    assert exc.value.code == 2
    assert "argument --nu: expected one argument" in err.getvalue()
    assert run_cli("normalize", "--alpha", "1", "--word", "T1 T1", "--nu", "-1") == (0, "-1 + (-2) T1\n", "")


def test_table_out_file(tmp_path):
    target = tmp_path / "table.json"
    code, out, _ = run_cli(
        "table", "--alpha", "1", "--format", "json", "--out", str(target)
    )
    assert code == 0
    obj = json.loads(target.read_text())
    assert obj["alpha"] == 1


# -------------------------------------------------------------------- verify


@pytest.mark.parametrize(
    "args",
    [
        ("verify", "dims", "--alpha", "2"),
        ("verify", "relations", "--alpha", "2", "--n", "2"),
        ("verify", "crosscheck", "--alpha", "2", "--n", "2"),
        ("verify", "limit", "--alpha", "2"),
        ("verify", "semisimple", "--alpha", "2"),
    ],
)
def test_verify_subcommands_pass(args):
    code, out, err = run_cli(*args)
    assert code == 0
    obj = json.loads(out)
    assert obj["status"] == "pass"
    assert "elapsed_s" not in obj["metrics"]


def test_verify_relations_defaults_n_to_alpha():
    code, out, _ = run_cli("verify", "relations", "--alpha", "2")
    assert code == 0
    assert json.loads(out)["params"] == {"alpha": 2, "n": 2}


def test_verify_relations_at_alpha_0_checks_its_default_point_n_0():
    # alpha = 0 has no hole generator, so n = 0 is a point to check, not one to refuse
    code, out, _ = run_cli("verify", "relations", "--alpha", "0")
    assert code == 0
    obj = json.loads(out)
    assert (obj["params"], obj["status"]) == ({"alpha": 0, "n": 0}, "pass")
    assert obj["metrics"]["checks"] == 2
    assert obj["metrics"]["biinvariance_checked"] == 1


def test_verify_relations_refuses_n_0_where_hole_generators_exist():
    code, out, err = run_cli("verify", "relations", "--alpha", "1", "--n", "0")
    assert (code, out) == (2, "")
    assert "need n >= 1" in err


def test_verify_crosscheck_multi_point():
    code, out, _ = run_cli("verify", "crosscheck", "--alpha", "1")
    assert code == 0
    obj = json.loads(out)
    assert obj["params"]["ns"] == [1, 2]
    assert obj["metrics"]["independent_points"] == [1, 2]
    assert obj["metrics"]["degree_pinned"] is True


@pytest.mark.parametrize("alpha, pinned", [(2, True), (3, False)])
def test_verify_crosscheck_counts_only_independent_points(alpha, pinned):
    # the default points n = alpha .. 8 - alpha all have independent images; at
    # alpha = 3 they are one short of the four that degree 3 needs
    code, out, _ = run_cli("verify", "crosscheck", "--alpha", str(alpha))
    assert code == 0
    obj = json.loads(out)
    assert obj["status"] == "pass"
    assert obj["params"]["ns"] == obj["metrics"]["independent_points"] == [alpha, alpha + 1, alpha + 2]
    assert obj["metrics"]["degree_pinned"] is pinned
    assert bool(obj["warnings"]) is not pinned


def test_verify_gram():
    code, out, _ = run_cli("verify", "gram", "--alpha", "2")
    assert code == 0
    obj = json.loads(out)
    assert obj["suite"] == "gram"
    assert obj["status"] == "pass"
    assert obj["params"]["ns"] == [2, 3]
    assert "elapsed_s" not in obj["metrics"]


# sha256 of stdout, recorded before the Gram matrix was read off the structure
# table and before the determinant and the Sylvester test shared one elimination;
# the verify dims, relations, crosscheck and limit entries were recorded before
# every suite's report was built by one collector; the limit entries were
# recorded before the scaled limit was computed once per distinct row; the
# normalize entries, whose words fire the square, swap and erase rules, were
# recorded before the rewriting sites were listed by one function; the verify
# crosscheck --alpha 2 entry was recorded when the default points became
# n = alpha .. 8 - alpha and the report began to list its independent points
GOLDEN_STDOUT_SHA256 = {
    "gram --alpha 3": "afa961de8091123f3ae33d5609366add49f16773721bd3336b0c7eedc6b74be6",
    "gram --alpha 3 --nu 5/2": "11c190e9df27f3cbca9fb4aa3ba803f3ae257560e0d532f7cbc2e51aeccb4e3c",
    "verify gram --alpha 3": "07b9f7b96d6b5aedb083c2bbc580be13138e8ade319e3240908a03fdfd47c47b",
    "verify semisimple --alpha 3": "13d7094f5e97355673fc2aaf9abf374108c485e683ee1d3eb0ff2fa4c4977aab",
    "verify dims --alpha 3": "a16f653447723186a87bf10990e92206baa63e01411b6b51c4b2189cbdf1cf0d",
    "verify relations --alpha 2 --n 3": "00acdfcc4db5ad9e0e762008bbc7bec5ec53177be8f7f65d2788819f344749ce",
    "verify crosscheck --alpha 2 --n 3": "38ec296f165d482f155a3e7d4be701973521dbe4c27167d5ef87ef65386cb08a",
    "verify crosscheck --alpha 2": "54bc3d714e949bb9fce08124925e3f998ced93fee935b3538a90334f44e73bc8",
    "verify limit --alpha 3": "6f153f3c2274ddf2bf0d9c3be1e983de48f2b5ece83ba11be876c8efd68caadc",
    "limit --alpha 3": "c5d5837c3c5315098f042a613c1c01847290bf206e191a64aeb518b127c0171d",
    "limit --alpha 3 --format json": "3a3979740c69149eddaed699418f038c91634f67b18545064ba170bff7cbe7a5",
    "table --alpha 3 --format json": "c16c0bdab61e3a3206422e9f80ffa23c4d29882bf467ac8e02dc1cb5eea69740",
    "table --alpha 3 --nu 5/2 --format json": "c1e9eba91f31ba4b86208124cf1f9e4e28b7e3a879fdc633271986db6bd01a18",
    "table --alpha 3 --format csv": "e1714074e7a221e9fda19c79a4f1076dd7e5992b17d2cddee183bda134c9af34",
    "table --alpha 3 --nu 5/2 --format csv": "65764a1448c066c8bf75f9ad93421b791dc820772251b0d54fe28d605192db59",
    # at an integer point every exported value is an evaluated structure constant, an int
    "table --alpha 3 --nu 4 --format csv": "03b0ba9a7d6ea98b41368a311a9f147a9cdecdf3207fc2af985916579da76686",
    "table --alpha 3 --nu 4 --format json": "fe17d2156261c14bdd1bcfae3e25f0c8da918d5ff310e6b606718d97a3f1eb73",
    'normalize --alpha 3 --word "T3 T2 T1 T1"': "d54a319577b5e3176bd5e5ece309fbee3804267e7d27c930c9d32f369db756c7",
    'normalize --alpha 4 --word "A(14) T4 T3 T2 T1 T1"': "8bfd32f140d262680df5f9a09600b0ca96657b94e930d1e70be12f35be13f5c4",
    'normalize --alpha 2 --word "T1 T1" --nu 3': "b24561295a5530218479e6eb573b08a5982055e223a437e63af8bae2799b2cbc",
}


@pytest.mark.parametrize("command", sorted(GOLDEN_STDOUT_SHA256))
def test_stdout_matches_its_golden_hash(command):
    code, out, err = run_cli(*shlex.split(command))
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == GOLDEN_STDOUT_SHA256[command]


def test_normalize_runs_past_the_rook_limit(monkeypatch):
    # the rewriting never enumerates the basis, so no capacity is needed above
    # the rook limit of 6
    monkeypatch.delenv("ROOKALG_CAPACITY", raising=False)
    assert rook_limit() < 7
    assert run_cli("normalize", "--alpha", "7", "--word", "A(17) T7 T1 T2") == (
        0,
        "-A(127) T1 + A(17) T1 - A(27) T2 + A(27) T7 - A(27) T1 T2 - A(127) T1 T2"
        " + A(27) T1 T7 + T2 T7 + T1 T2 T7\n",
        "",
    )


def test_verify_output_is_byte_stable():
    a = run_cli("verify", "dims", "--alpha", "2")
    b = run_cli("verify", "dims", "--alpha", "2")
    assert a == b


# ---------------------------------------------------------------- exit codes


def test_bad_word_exits_2():
    code, _, err = run_cli("normalize", "--alpha", "2", "--word", "T9")
    assert code == 2
    assert err != ""


def test_capacity_exits_3():
    code, _, err = run_cli("dims", "--alpha", "7")
    assert code == 3
    assert err != ""


def test_word_too_deep_for_the_rewriting_recursion_exits_3():
    # a lowered limit keeps the word short; T1 repeated 1,000 times reaches
    # the refusal at the default limit, also in under a second
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 150)
    try:
        code, out, err = run_cli("normalize", "--alpha", "2", "--word", " ".join(["T1"] * 400))
    finally:
        sys.setrecursionlimit(old)
    assert code == 3
    assert out == ""
    assert err.startswith("capacity exceeded: the 400-letter word needs a rewriting recursion deeper")
    assert run_cli("normalize", "--alpha", "2", "--word", "T1 T1") == (0, "nu + (nu - 1) T1\n", "")


def test_capacity_override():
    code, out, _ = run_cli("basis", "--alpha", "5", "--capacity", "5")
    assert code == 0
    assert len(out.splitlines()) == 1546


def test_missing_argument_exits_2():
    with pytest.raises(SystemExit) as exc:
        run_cli("dims")
    assert exc.value.code == 2


def test_jobs_option_is_gone():
    with pytest.raises(SystemExit) as exc:
        run_cli("table", "--alpha", "2", "--jobs", "2")
    assert exc.value.code == 2


def test_negative_counterexample_cap_exits_2():
    code, out, err = run_cli("verify", "crosscheck", "--alpha", "1", "--max-counterexamples", "-1")
    assert (code, out) == (2, "")
    assert "max_counterexamples" in err


@pytest.mark.parametrize(
    "command, message",
    [
        *((f"{c} --alpha -1", "alpha must be non-negative, got -1")
          for c in ("verify limit", "verify semisimple", "table", "basis", "limit", "gram")),
        *((f"{c} --alpha -1{rest}", "alpha must be non-negative, got -1")
          for c, rest in (("dims", ""), ("verify dims", ""), ("verify relations", ""), ("verify gram", ""),
                          ("normalize", " --word 1"), ("verify crosscheck", " --n 2"))),
        ("table --alpha 2 --capacity -1", "capacity must be non-negative, got -1"),
        ("normalize --alpha 2 --word T1 --capacity -1", "capacity must be non-negative, got -1"),
        ("ROOKALG_CAPACITY=abc dims --alpha 2", "ROOKALG_CAPACITY must be an integer, got 'abc'"),
        *((f"{c} --nu 1/0", "zero denominator in '1/0'")
          for c in ("table --alpha 2", "gram --alpha 2", "normalize --alpha 2 --word T1")),
        ("table --alpha 2 --nu 1e3", "Invalid literal for Fraction: '1e3'"),
        # --nu is read before the capacity check and before any build
        *((f"{c} --alpha 5 --nu abc", "Invalid literal for Fraction: 'abc'") for c in ("table", "gram")),
        ("gram --alpha 4 --nu 1/0", "zero denominator in '1/0'"),
    ],
)
def test_bad_values_exit_2(command, message, monkeypatch):
    words = command.split()
    if "=" in words[0]:  # a leading NAME=value sets the environment
        monkeypatch.setenv(*words.pop(0).split("=", 1))

    def build(alpha):
        raise AssertionError(f"built at alpha={alpha}")

    # a bad value is refused before anything is built
    monkeypatch.setattr(cli, "gram_matrix", build)
    monkeypatch.setattr(cli, "structure_table", build)
    code, out, err = run_cli(*words)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_consistency_failure_prints_its_payload(monkeypatch):
    # every rule emits the state it was given, so the measure does not decrease;
    # a fresh default normalizer has no memoized normal form to return instead
    monkeypatch.setattr(algebra, "_emit", lambda rule, t, images, js: ((1, images, js),))
    monkeypatch.setattr(algebra, "_DEFAULT_NORMALIZER", algebra.Normalizer())
    assert run_cli("normalize", "--alpha", "2", "--word", "T2 T1") == (
        1,
        "",
        "FAIL consistency: termination measure failed to decrease\n"
        '{"child": [2, 1, 4], "g": [1, 2], "js": [2, 1], "parent": [2, 1, 4], "rule": "swap"}\n',
    )


def test_unwritable_out_exits_2(tmp_path):
    for path in (tmp_path / "missing-dir" / "table.json", tmp_path):
        code, out, err = run_cli("table", "--alpha", "1", "--out", str(path))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: cannot write --out {path}: ")


@pytest.mark.parametrize("suite, n", [("limit", "7"), ("semisimple", "99")])
def test_n_is_refused_by_suites_that_do_not_read_it(suite, n):
    with pytest.raises(SystemExit) as exc:
        run_cli("verify", suite, "--alpha", "2", "--n", n)
    assert exc.value.code == 2


def test_unknown_command_exits_2():
    with pytest.raises(SystemExit) as exc:
        run_cli("frobnicate", "--alpha", "2")
    assert exc.value.code == 2


def test_a_reader_that_closes_the_pipe_early_ends_the_run_quietly():
    # the alpha=3 table is 536 KB of JSON, more than the pipe holds, so the
    # writer is still writing when the reader closes its end after one line
    src = str(Path(cli.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.Popen(
        [sys.executable, "-m", "rookalg", "table", "--alpha", "3"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    assert proc.stdout.readline() == b"{\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    # 141 = 128 + SIGPIPE, the status a shell reports for a writer the signal killed
    assert proc.wait(timeout=120) == 141
    assert err == b""


def test_emit_writes_the_bytes_of_one_plain_write(tmp_path):
    # about 2.5 Mi characters, with multi-byte characters throughout
    pattern = "a\u00e9\u20ac\U0001f600\n"
    text = pattern * (int(2.5 * 2**20) // len(pattern))
    plain = tmp_path / "plain.txt"
    with open(plain, "w", encoding="utf-8") as fh:
        fh.write(text)
    emitted = tmp_path / "emitted.txt"
    cli._emit(text, str(emitted))
    assert emitted.read_bytes() == plain.read_bytes() == text.encode("utf-8")
    # the same text as pieces, each cut between multi-byte characters
    cuts = [0, 3, 2**20 + 7, 2**21 + 1, len(text)]
    for cut in cuts[1:-1]:
        assert not text[cut - 1 : cut + 1].isascii()
    in_pieces = tmp_path / "in_pieces.txt"
    cli._emit((text[a:b] for a, b in zip(cuts, cuts[1:])), str(in_pieces))
    assert in_pieces.read_bytes() == plain.read_bytes()


def test_emit_joins_the_pieces_into_writes_of_about_64_kib():
    # the alpha=4 JSON is 43,683 pieces, one per pair; each write but the last holds at least 64 Ki chars
    class CountingWrites(io.StringIO):
        writes = 0

        def write(self, s):
            self.writes += 1
            return super().write(s)

    out = CountingWrites()
    with redirect_stdout(out):
        assert main(["table", "--alpha", "4", "--format", "json"]) == 0
    text = out.getvalue()
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "259fe9eddc3e52588fd9c026d89ba65ae66ea1c1cae2cfef6f0d0c29a0f79ba1"
    )
    assert 1 < out.writes <= -(-len(text) // 2**16) + 1
