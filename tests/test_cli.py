"""End-to-end tests for the JSON command-line interface.

Every subcommand is exercised once, its output parsed and validated against
the shipped JSON schema, and determinism plus the exit-code contract are
checked.
"""

import functools
import io
import json
import sys
import time
from contextlib import redirect_stdout, redirect_stderr
from fractions import Fraction
from importlib import resources

import pytest
from jsonschema import Draft202012Validator
from referencing import Registry, Resource

from exactgroups import cli, cli_affine, cli_bruhat, cli_lin, cli_sl2, cocycle, lattice
from tests.conftest import forbidden, seeded
from exactgroups.matrix import Matrix


def _load_schemas():
    schemas = {}
    for entry in resources.files("exactgroups.schemas").iterdir():
        if entry.name.endswith(".json"):
            schemas[entry.name.split(".")[0]] = json.loads(entry.read_text())
    return schemas


SCHEMAS = _load_schemas()
REGISTRY = Registry().with_resources(
    [(s["$id"], Resource.from_contents(s)) for s in SCHEMAS.values()])


def validate_output(doc):
    group = doc["command"].split(".")[0]
    validator = Draft202012Validator(SCHEMAS[group], registry=REGISTRY)
    errors = list(validator.iter_errors(doc))
    assert not errors, errors


def run_cli(tmp_path, argv, doc=None):
    if doc is not None:
        path = tmp_path / "in.json"
        path.write_text(json.dumps(doc))
        argv = argv + ["--in", str(path)]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.run(argv)
    return code, out.getvalue(), err.getvalue()


def run_ok(tmp_path, argv, doc=None):
    code, out, err = run_cli(tmp_path, argv, doc)
    assert code == 0, err
    parsed = json.loads(out)
    validate_output(parsed)
    return parsed


def mat(entries):
    return {"rows": len(entries), "cols": len(entries[0]),
            "entries": [[str(x) for x in row] for row in entries]}


M_HYPERBOLIC = mat([[1, 1], [1, 2]])
M_GAMMA12 = mat([[1, 0], [2, 1]])


# -- one invocation per subcommand -----------------------------------------

def test_sl2_classify(tmp_path):
    doc = run_ok(tmp_path, ["sl2", "classify"], M_HYPERBOLIC)
    assert doc["class"] == "hyperbolic" and doc["trace"] == "3"
    assert doc["order"] is None and doc["sign"] is None


def test_sl2_decompose(tmp_path):
    doc = run_ok(tmp_path, ["sl2", "decompose"], M_HYPERBOLIC)
    assert all(t["gen"] in ("S", "T") for t in doc["word"])
    doc2 = run_ok(tmp_path, ["sl2", "decompose", "--alphabet", "st"], M_HYPERBOLIC)
    assert all(t["gen"] in ("s", "t") for t in doc2["word"])
    assert doc2["central"] == 0


def test_sl2_decompose_st_word_cap(tmp_path):
    # T^e is 2|e| letters over {s, t}; e = 10^9 once asked for tens of GB.
    doc = run_ok(tmp_path, ["sl2", "decompose", "--alphabet", "st"], mat([[1, 3], [0, 1]]))
    assert doc["word"] == [{"exp": 1, "gen": "s"}, {"exp": 1, "gen": "t"}] * 3
    for e in (10 ** 9, -10 ** 9, cli_sl2.ST_WORD_CAP // 2 + 1):
        start = time.process_time()
        code, out, err = run_cli(tmp_path, ["sl2", "decompose", "--alphabet", "st"],
                                 mat([[1, e], [0, 1]]))
        assert time.process_time() - start < 1
        assert (code, out) == (3, "")
        assert err == (f"error: st word too long: {2 * abs(e)} letters, "
                       f"more than {cli_sl2.ST_WORD_CAP}\n")
    # The {S, T} word stays one token.
    doc = run_ok(tmp_path, ["sl2", "decompose"], mat([[1, 10 ** 9], [0, 1]]))
    assert doc["word"] == [{"exp": 10 ** 9, "gen": "T"}]


def test_sl2_congruence(tmp_path):
    doc = run_ok(tmp_path, ["sl2", "congruence", "--family", "gamma1",
                            "--level", "2"], M_GAMMA12)
    assert doc["member"] is True
    doc = run_ok(tmp_path, ["sl2", "congruence", "--family", "gamma",
                            "--level", "4"], M_GAMMA12)
    assert doc["member"] is False


def test_cocycle_solve_coboundary(tmp_path):
    doc = run_ok(tmp_path, ["cocycle", "solve-coboundary"], {"c_t": ["1", "0"]})
    assert doc["c_s"] == ["-1", "1"]
    assert doc["xi"] == ["0", "1"] and doc["integral"] is True


def test_cocycle_eval(tmp_path):
    spec = {"generators": [M_HYPERBOLIC], "values": [["3", "4"]]}
    doc = run_ok(tmp_path, ["cocycle", "eval"],
                 {"spec": spec, "word": [{"gen": 0, "exp": 2}]})
    # c(g^2) = g c(g) + c(g) = (1 1;1 2)(3,4) + (3,4) = (10, 15)
    assert doc["value"] == ["10", "15"]


def test_cocycle_gamma1(tmp_path):
    doc = run_ok(tmp_path, ["cocycle", "gamma1", "--level", "2"], M_GAMMA12)
    assert doc["value"] == ["0", "-1"]


def test_cocycle_obstruction(tmp_path):
    doc = run_ok(tmp_path, ["cocycle", "obstruction", "--level", "2"], M_GAMMA12)
    assert doc["integral"] is True
    doc = run_ok(tmp_path, ["cocycle", "obstruction", "--level", "2"],
                 mat([[0, -1], [1, 0]]))
    assert doc["integral"] is False


def test_cocycle_obstruction_level_below_one(tmp_path):
    # Level 0 once escaped run() as a ZeroDivisionError; -2 was accepted.
    for level in ("0", "-2"):
        code, out, err = run_cli(tmp_path, ["cocycle", "obstruction", "--level", level],
                                 M_GAMMA12)
        assert code == 3 and out == ""
        assert err == "error: level must be >= 1\n"


def test_cocycle_eval_huge_exponent(tmp_path):
    spec = {"generators": [mat([[1, 1], [0, 1]])], "values": [["1", "0"]]}
    doc = run_ok(tmp_path, ["cocycle", "eval"],
                 {"spec": spec, "word": [{"gen": 0, "exp": "100000000"}]})
    # c(T^k) = (k, 0) for c(T) = (1, 0).
    assert doc["value"] == ["100000000", "0"]


def test_cocycle_eval_value_of_wrong_length(tmp_path):
    # A value that is not a 2-vector is refused with the spec, whatever the
    # word: a token with exponent 0, which never reads it, included.
    for value in (["1", "0", "2"], ["1"], []):
        spec = {"generators": [mat([[1, 1], [0, 1]])], "values": [value]}
        for exp in (3, -2, 0):
            code, out, err = run_cli(tmp_path, ["cocycle", "eval"],
                                     {"spec": spec, "word": [{"gen": 0, "exp": exp}]})
            assert (code, out, err) == (3, "", "error: vector length mismatch\n")


def test_graph_spec_value_of_wrong_length_exits_3(tmp_path):
    # `affine classify` on a graph spec whose value is not a 2-vector once
    # answered exit 0: no check of its report evaluates the cocycle there.
    for value in (["1", "0", "2"], ["1"], []):
        spec = {"generators": [mat([[1, 1], [0, 1]])], "values": [value]}
        code, out, err = run_cli(tmp_path, ["affine", "classify"], {"kind": "graph", "spec": spec})
        assert (code, out, err) == (3, "", "error: vector length mismatch\n")


def test_answer_past_int_str_digit_limit_exits_3(tmp_path):
    # c(g^20000) for g = [[2, 1], [1, 1]] has entries of about 8400 digits,
    # past the interpreter's int/str limit.  This once exited 2 as
    # "malformed input" through the ValueError of str(int).
    spec = {"generators": [mat([[2, 1], [1, 1]])], "values": [["1", "0"]]}
    code, out, err = run_cli(tmp_path, ["cocycle", "eval"],
                             {"spec": spec, "word": [{"gen": 0, "exp": 20000}]})
    assert (code, out) == (3, "")
    assert err.startswith("error: answer too large: ") and err.count("\n") == 1
    # Just under the limit the answer is still written.
    doc = run_ok(tmp_path, ["cocycle", "eval"],
                 {"spec": spec, "word": [{"gen": 0, "exp": 5000}]})
    assert len(doc["value"][0]) > 2000
    # An index of two 4000-digit pivots has 8000 digits.
    big = "9" * 4000
    for argv, doc in ((["lin", "hnf"], {"rows": [[big, "0"], ["0", big]]}),
                      (["affine", "lattice"], {"generators": [mat([[1, 0], [0, 1]])],
                                               "seeds": [[big, "0"], ["0", big]]})):
        code, out, err = run_cli(tmp_path, argv, doc)
        assert (code, out) == (3, ""), (argv, err)
        assert err.startswith("error: answer too large: ") and err.count("\n") == 1


def test_cocycle_central(tmp_path):
    doc = run_ok(tmp_path, ["cocycle", "central"],
                 {"m": 1, "n": 0, "matrix": M_HYPERBOLIC})
    assert doc["case"] == 2
    assert doc["value"] is None and doc["accepted"] is False
    doc = run_ok(tmp_path, ["cocycle", "central"],
                 {"m": 2, "n": 0, "matrix": M_HYPERBOLIC})
    assert doc["case"] == 1 and doc["value"] == ["0", "-1"]


def test_cocycle_finf_extend(tmp_path):
    window = [[k, 4 * k, 8 * k * k] for k in range(-4, 5)]
    doc = run_ok(tmp_path, ["cocycle", "finf-extend"],
                 {"n": 1, "window": window})
    assert doc["u"] == ["0", "-2"]
    bad = [[k, 0 if k == 0 else 1, 0 if k == 0 else 1] for k in range(-4, 5)]
    doc = run_ok(tmp_path, ["cocycle", "finf-extend"], {"n": 1, "window": bad})
    assert doc["u"] is None


def test_cocycle_finf_extend_refuses_a_repeated_index(tmp_path):
    # The last entry of a repeated index was kept, so the order of the two
    # decided the answer: "u" null one way round and ["0", "0"] the other.
    # 0 and "0" are the same index.
    first, second, one = [0, "0", "0"], [0, "1", "0"], [1, "0", "0"]
    for window, index in (([first, second, one], 0), ([second, first, one], 0),
                          ([first, ["0", "0", "0"], one], 0),
                          ([one, first, ["1", "2", "3"]], 1)):
        code, out, err = run_cli(tmp_path, ["cocycle", "finf-extend"],
                                 {"n": 1, "window": window})
        assert (code, out, err) == (2, "", f"error: window index {index} is repeated\n"), window


def test_affine_icc(tmp_path):
    doc = run_ok(tmp_path, ["affine", "icc"], M_HYPERBOLIC)
    assert doc["icc"] is True and doc["trace"] == "3"


def test_affine_icc_det_minus_one(tmp_path):
    # [[1, 1], [1, 0]] has det -1 and infinite order; it once exited 3 with
    # "no order found within cap 12".
    doc = run_ok(tmp_path, ["affine", "icc"], mat([[1, 1], [1, 0]]))
    assert doc["icc"] is True and doc["trace"] == "1"
    code, out, err = run_cli(tmp_path, ["affine", "icc"], mat([[0, 1], [1, 0]]))
    assert (code, out, err) == (3, "", "error: g has finite order 2\n")


def test_affine_ball(tmp_path):
    doc = run_ok(tmp_path, ["affine", "ball", "--radius", "3"],
                 {"element": {"translation": ["1", "0"],
                              "matrix": mat([[1, 0], [0, 1]])},
                  "generators": [{"translation": ["0", "0"],
                                  "matrix": M_HYPERBOLIC}]})
    assert int(doc["count"]) > 1


BALL_TWO_HYPERBOLIC = {
    "element": {"translation": ["1", "0"], "matrix": mat([[1, 0], [0, 1]])},
    "generators": [{"translation": ["0", "0"], "matrix": mat([[2, 1], [1, 1]])},
                   {"translation": ["0", "0"], "matrix": mat([[1, 2], [2, 5]])}]}


def test_affine_ball_radius_cap(tmp_path):
    # At most cli_affine.BALL_WORD_CAP reduced words: 1 + 2k((2k-1)^r - 1)/(2k-2)
    # over k generators, 1 + 2r for k = 1.  Two generators reach radius 10
    # (118097 words); radius 14 once ran for minutes.
    assert cli_affine._reduced_words(2, 4) == 161
    assert cli_affine._reduced_words(2, 10) == 118097 <= cli_affine.BALL_WORD_CAP
    assert cli_affine._reduced_words(3, 3) == 1 + 6 * (5 ** 3 - 1) // 4
    assert cli_affine._reduced_words(1, 7) == 15 and cli_affine._reduced_words(0, 10 ** 100) == 1
    assert cli_affine._reduced_words(2, 10 ** 100) > cli_affine.BALL_WORD_CAP
    doc = run_ok(tmp_path, ["affine", "ball", "--radius", "4"], BALL_TWO_HYPERBOLIC)
    assert doc["count"] == "161"
    one = dict(BALL_TWO_HYPERBOLIC, generators=BALL_TWO_HYPERBOLIC["generators"][:1])
    for argv, doc in ((["--radius", "11"], BALL_TWO_HYPERBOLIC),
                      (["--radius", "1" + "0" * 4000], BALL_TWO_HYPERBOLIC),
                      (["--radius", "60000"], one)):
        code, out, err = run_cli(tmp_path, ["affine", "ball"] + argv, doc)
        assert (code, out) == (3, "")
        assert err.startswith("error: radius too large: ") and err.count("\n") == 1
    code, _, err = run_cli(tmp_path, ["affine", "ball", "--radius", "-4"], BALL_TWO_HYPERBOLIC)
    assert (code, err) == (3, "error: radius must be >= 0\n")


def test_affine_lattice(tmp_path):
    doc = run_ok(tmp_path, ["affine", "lattice"],
                 {"generators": [mat([[0, -1], [1, 0]]), mat([[1, 1], [0, 1]])],
                  "seeds": [["2", "0"]]})
    assert doc["basis"] == [["2", "0"], ["0", "2"]]
    assert doc["index"] == "4" and doc["dim"] == 2


def test_affine_lattice_non_unimodular_on_span(tmp_path):
    # diag(2, 1) on the seed e1: the closure under g and g^-1 is Z[1/2] e1,
    # and this request once never returned.  A child process with a timeout
    # keeps a regression from hanging the suite.
    import subprocess
    import sys
    diag = mat([[2, 0], [0, 1]])
    for doc in ({"generators": [diag], "seeds": [["1", "0"]]},
                # det 2 on the plane spanned by e1, e2
                {"generators": [mat([[2, 0, 0], [0, 1, 0], [0, 0, 1]])],
                 "seeds": [["1", "1", "0"]]}):
        proc = subprocess.run(
            [sys.executable, "-m", "exactgroups.cli", "affine", "lattice", "--in", "-"],
            input=json.dumps(doc), capture_output=True, text=True, env=_child_env(),
            timeout=20)
        assert proc.returncode == 3 and proc.stdout == ""
        assert proc.stderr.startswith("error: no invariant lattice")
        assert proc.stderr.count("\n") == 1
    # det +-1 on the span: the closure is a lattice, as before.
    for g, seed in (([[2, 0], [0, 1]], ["0", "1"]), ([[3, 0], [0, -1]], ["0", "2"])):
        doc = run_ok(tmp_path, ["affine", "lattice"], {"generators": [mat(g)], "seeds": [seed]})
        assert (doc["basis"], doc["index"]) == ([seed], None)


def test_affine_aut_check(tmp_path):
    doc = run_ok(tmp_path, ["affine", "aut-check", "--seed", "7",
                            "--count", "25"],
                 {"L": mat([[1, 1], [0, 1]]), "xi": ["1", "-2"]})
    assert doc["homomorphism"] is True and doc["samples"] == 25


def test_affine_aut_check_sample_cap(tmp_path):
    # --count 10^9 once asked for about 40 hours of sampling.  A child process
    # with a timeout keeps a regression from hanging the suite.
    import subprocess
    import sys
    doc = json.dumps({"L": mat([[1, 1], [0, 1]]), "xi": ["1", "-2"]})
    for count in (cli_affine.AUT_SAMPLE_CAP + 1, 10 ** 9):
        proc = subprocess.run(
            [sys.executable, "-m", "exactgroups.cli", "affine", "aut-check", "--seed", "1",
             "--count", str(count), "--in", "-"],
            input=doc, capture_output=True, text=True, env=_child_env(), timeout=20)
        assert (proc.returncode, proc.stdout) == (3, "")
        assert proc.stderr == f"error: count too large: more than {cli_affine.AUT_SAMPLE_CAP} samples\n"


def _unipotent(n):
    return mat([[int(j in (i, i + 1)) for j in range(n)] for i in range(n)])


def test_affine_aut_check_priced_by_size(tmp_path):
    # A sample costs about n^3, so --count 5000 on a 40x40 L once asked for
    # minutes of work.  The cap is on count * n^2: 12 samples at n = 40.
    import subprocess
    import sys
    doc = json.dumps({"L": _unipotent(40), "xi": ["0"] * 40})
    proc = subprocess.run(
        [sys.executable, "-m", "exactgroups.cli", "affine", "aut-check", "--seed", "1",
         "--count", "5000", "--in", "-"],
        input=doc, capture_output=True, text=True, env=_child_env(), timeout=20)
    assert (proc.returncode, proc.stdout) == (3, "")
    assert proc.stderr == "error: count too large: more than 12 samples\n"


def test_affine_aut_check_refuses_huge_L_before_any_work(tmp_path, monkeypatch):
    # Past 141x141 not even one sample is allowed, and the refusal comes
    # before the automorphism's determinant and inverse.
    from exactgroups import affine

    def refuse(L, xi):
        raise AssertionError("affine_automorphism called")
    monkeypatch.setattr(affine, "affine_automorphism", refuse)
    for n, count, bound in ((10, 201, 200), (142, 0, 0)):
        code, out, err = run_cli(tmp_path, ["affine", "aut-check", "--seed", "1",
                                            "--count", str(count)],
                                 {"L": _unipotent(n), "xi": ["0"] * n})
        assert (code, out) == (3, "")
        assert err == f"error: count too large: more than {bound} samples\n"


def test_random_affine_matches_matrix_products():
    # _random_affine multiplies the int rows of S, S^-1, T and T^-1; the
    # elements, and the draws they take, are those of Matrix products.
    from exactgroups.affine import AffineElement
    from exactgroups.matrix import _letters
    from exactgroups.prng import SplitMix64
    from exactgroups.sl2 import S, T

    def by_products(rng, n):
        a = tuple(rng.int_in(-5, 5) for _ in range(n))
        g = Matrix.identity(n)
        if n == 2:
            for _ in range(6):
                r = rng.below(4)
                base = S if r // 2 == 0 else T
                g = g * (base.inverse() if r % 2 else base)
        return AffineElement(a, g)

    letters = _letters((S, T))
    for n in (2, 3):
        for seed in range(50):
            fast, slow = SplitMix64(seed), SplitMix64(seed)
            for _ in range(4):
                got, want = cli_affine._random_affine(fast, n, letters), by_products(slow, n)
                assert got == want and got.linear.integral, (n, seed)
                assert all(type(x) is int for x in got.translation)
            assert fast.state == slow.state


def test_affine_aut_check_refuses_non_integer_L(tmp_path):
    # diag(2, 1/2) has det 1 and once passed as an automorphism of Z^2 x| SL2(Z).
    for L in ([[2, 0], [0, "1/2"]], [[2, 0], [0, 1]], [[1, 1, 0], [0, 1, 0]]):
        code, out, err = run_cli(tmp_path, ["affine", "aut-check", "--seed", "1"],
                                 {"L": mat(L), "xi": ["1", "0"]})
        assert (code, out) == (3, ""), L
        assert err == "error: expected a square integer matrix with det +-1\n"


def test_affine_aut_check_refuses_rational_xi(tmp_path):
    # phi would send (0, [[1, 0], [1, 1]]) to the translation (-1/2, -1/2).
    code, out, err = run_cli(tmp_path, ["affine", "aut-check", "--seed", "1"],
                             {"L": mat([[1, 1], [0, 1]]), "xi": ["1/2", "0"]})
    assert (code, out) == (3, "")
    assert err == "error: xi must be an integer vector\n"


def test_affine_classify(tmp_path):
    doc = run_ok(tmp_path, ["affine", "classify"],
                 {"kind": "cyclic_linear", "matrix": M_HYPERBOLIC})
    assert doc["case"] == "case1"
    names = {c["name"]: c["verdict"] for c in doc["checks"]}
    assert names["icc"] == "pass"
    doc = run_ok(tmp_path, ["affine", "classify"],
                 {"kind": "full_lattice",
                  "lattice": {"dim": 2, "rows": [["2", "0"], ["0", "2"]]},
                  "generators": [mat([[0, -1], [1, 0]])]})
    assert doc["case"] == "case1"
    gens = [mat([[1, 1], [0, 1]]), mat([[1, 0], [2, 1]])]
    doc = run_ok(tmp_path, ["affine", "classify"],
                 {"kind": "graph",
                  "spec": {"generators": gens,
                           "values": [["0", "0"], ["0", "-1"]]}})
    assert doc["case"] == "case2"


def test_bruhat_decompose(tmp_path):
    g = mat([[2, 3, 1], [1, 2, 1], [1, 1, 1]])  # det 1
    doc = run_ok(tmp_path, ["bruhat", "decompose"], g)
    assert doc["sigma"] == "(13)"
    assert doc["det_a"] == "1" and doc["det_b"] == "1"
    # det -1 input: determinants are recorded, not normalized
    doc = run_ok(tmp_path, ["bruhat", "decompose"],
                 mat([[1, 2, 3], [4, 5, 7], [2, 2, 3]]))
    assert {doc["det_a"], doc["det_b"]} == {"1", "-1"}


def test_bruhat_decompose_writes_determinants_from_the_pair(tmp_path, monkeypatch):
    # det A and det B are written as det num over lam^3 of each factor: the
    # call once made a Fraction for det B = 1/2 only to write it as text.
    with monkeypatch.context() as patch:
        patch.setattr(Fraction, "__new__", forbidden("Fraction.__new__"))
        code, out, err = run_cli(tmp_path, ["bruhat", "decompose"],
                                 mat([["1/2", 0, 0], [0, 1, 0], [0, 0, 1]]))
    assert (code, err) == (0, ""), err
    doc = json.loads(out)
    validate_output(doc)
    assert (doc["sigma"], doc["det_a"], doc["det_b"]) == ("id", "1", "1/2")


def test_bruhat_cell(tmp_path):
    doc = run_ok(tmp_path, ["bruhat", "cell"],
                 mat([[0, 0, 1], [1, 0, 0], [0, 1, 0]]))
    assert doc["sigma"] == "(123)"


def test_bruhat_fact_check(tmp_path):
    doc = run_ok(tmp_path, ["bruhat", "fact-check", "--fact", "1",
                            "--count", "20"])
    assert doc["holds"] is True and doc["cases"] == 20
    doc = run_ok(tmp_path, ["bruhat", "fact-check", "--fact", "3",
                            "--grid", "1"])
    assert doc["holds"] is True and doc["cases"] == 216
    doc = run_ok(tmp_path, ["bruhat", "fact-check", "--fact", "4",
                            "--grid", "1"])
    assert doc["holds"] is True and doc["cases"] == 216


def test_bruhat_fact_check_case_cap(tmp_path):
    # --grid b checks |diag|^3 |off|^3 matrices, about b^12: --grid 2 is the
    # largest grid under cli_bruhat.FACT_CASE_CAP, --grid 3 would be 9,261,000.
    doc = run_ok(tmp_path, ["bruhat", "fact-check", "--fact", "4", "--grid", "2"])
    assert doc["holds"] is True and doc["cases"] == 74088 <= cli_bruhat.FACT_CASE_CAP
    doc = run_ok(tmp_path, ["bruhat", "fact-check", "--fact", "2", "--count", "0"])
    assert doc["holds"] is True and doc["cases"] == 0
    for fact, flag, value in ((3, "grid", 3), (4, "grid", 10 ** 18), (3, "grid", 10 ** 4000),
                              (1, "count", cli_bruhat.FACT_CASE_CAP + 1), (2, "count", 10 ** 18)):
        start = time.process_time()
        code, out, err = run_cli(tmp_path, ["bruhat", "fact-check", "--fact", str(fact),
                                            f"--{flag}", str(value)])
        assert time.process_time() - start < 1
        assert (code, out) == (3, "")
        assert err == f"error: {flag} too large: more than {cli_bruhat.FACT_CASE_CAP} cases\n"


@pytest.mark.parametrize("argv, doc", [
    (["bruhat", "fact-check", "--fact", "1", "--count", "-5"], None),
    (["bruhat", "fact-check", "--fact", "3", "--grid", "-2"], None),
    (["affine", "aut-check", "--seed", "1", "--count", "-5"],
     {"L": mat([[1, 1], [0, 1]]), "xi": ["1", "-2"]}),
], ids=["fact-check-count", "fact-check-grid", "aut-check-count"])
def test_negative_counts_refused(tmp_path, argv, doc):
    # Each once answered a vacuous check with exit 0 ("cases": -5).
    code, out, err = run_cli(tmp_path, argv, doc)
    assert (code, out) == (3, "")
    assert err == f"error: {argv[-2][2:]} must be >= 0\n"


def test_lin_hnf(tmp_path):
    doc = run_ok(tmp_path, ["lin", "hnf"],
                 {"rows": [["2", "0"], ["1", "1"]]})
    assert doc["basis"] == [["1", "1"], ["0", "2"]]
    assert doc["index"] == "2" and doc["rank"] == 2


def test_lin_snf(tmp_path):
    doc = run_ok(tmp_path, ["lin", "snf"], mat([[4, -2], [8, -4]]))
    assert doc["D"]["entries"] == [["2", "0"], ["0", "0"]]


def test_lin_solve(tmp_path):
    doc = run_ok(tmp_path, ["lin", "solve"],
                 {"matrix": mat([[4, -2], [8, -4]]), "b": ["2", "4"]})
    assert doc["solution"] is not None
    doc = run_ok(tmp_path, ["lin", "solve"],
                 {"matrix": mat([[4, -2], [8, -4]]), "b": ["1", "2"]})
    assert doc["solution"] is None


SNF_REGRESSION = [[5, -2, -5, -4, -5, -2], [-3, 8, 5, -2, 7, -5], [-7, -9, -6, 3, 7, 4],
                  [-7, 3, -7, -4, -4, 2], [-6, 3, 3, -8, -9, -3], [-3, -7, 3, -4, 4, -8]]


def test_lin_snf_and_solve_regression_6x6(tmp_path):
    # The former elimination ran for more than a second on this input.
    from exactgroups.matrix import Matrix
    doc = run_ok(tmp_path, ["lin", "snf"], mat(SNF_REGRESSION))
    U, D, V = (Matrix([[int(x) for x in row] for row in doc[k]["entries"]])
               for k in ("U", "D", "V"))
    assert [D[i, i] for i in range(6)] == [1, 1, 1, 1, 1, 261246]
    assert U * Matrix(SNF_REGRESSION) * V == D
    assert abs(U.det()) == 1 and abs(V.det()) == 1
    b = Matrix(SNF_REGRESSION).apply((1, -2, 3, 0, 2, -1))
    doc = run_ok(tmp_path, ["lin", "solve"],
                 {"matrix": mat(SNF_REGRESSION), "b": [str(v) for v in b]})
    assert doc["solution"] == ["1", "-2", "3", "0", "2", "-1"]
    doc = run_ok(tmp_path, ["lin", "solve"],
                 {"matrix": mat(SNF_REGRESSION), "b": [str(b[0] + 1)] + [str(v) for v in b[1:]]})
    assert doc["solution"] is None


def test_lin_solve_n32_document(tmp_path):
    # A few-KB document on which the Hermite transform takes 4.3 s: the
    # full-rank 32 x 32 system of test_solve_integer_square_n32_n40_within_a_second,
    # seed 7.
    rng = seeded(3527)
    rows = [[rng.int_in(-9, 9) for _ in range(32)] for _ in range(32)]
    b = Matrix(rows).apply(tuple(rng.int_in(-9, 9) for _ in range(32)))
    doc = run_ok(tmp_path, ["lin", "solve"], {"matrix": mat(rows), "b": [str(v) for v in b]})
    assert doc["solution"] == [str(v) for v in lattice.solve_integer(Matrix(rows), b)]


def test_negative_lattice_dimension_refused(tmp_path):
    # {"rows": [], "dim": -1} once answered "dim": -1 with exit 0.
    full = {"kind": "full_lattice", "lattice": {"dim": -1, "rows": []},
            "generators": [mat([[0, -1], [1, 0]])]}
    for argv, doc in ((["lin", "hnf"], {"rows": [], "dim": -1}),
                      (["lin", "hnf"], {"rows": [], "dim": "-3"}),
                      (["affine", "classify"], full)):
        code, out, err = run_cli(tmp_path, argv, doc)
        assert code == 3 and out == "", (argv, doc, code)
        assert err.startswith("error: ") and err.count("\n") == 1
    doc = run_ok(tmp_path, ["lin", "hnf"], {"rows": [], "dim": 0})
    assert doc["basis"] == [] and doc["dim"] == 0


def test_affine_classify_with_minus_identity_strict(tmp_path):
    # bool(...) once read "false" as true and accepted "no" and 0.
    base = {"kind": "cyclic_linear", "matrix": M_HYPERBOLIC}
    for flag in ("false", "true", "no", 0, 1, None, [], {}):
        code, out, err = run_cli(tmp_path, ["affine", "classify"],
                                 {**base, "with_minus_identity": flag})
        assert code == 2 and out == "", (flag, code)
        assert err.startswith("error: ") and err.count("\n") == 1
    absent = run_ok(tmp_path, ["affine", "classify"], base)
    for flag in (True, False):
        doc = run_ok(tmp_path, ["affine", "classify"], {**base, "with_minus_identity": flag})
        assert doc == absent


# -- contract: determinism and exit codes ----------------------------------

def test_byte_identical_determinism(tmp_path):
    for argv, doc in (
            (["sl2", "decompose"], M_HYPERBOLIC),
            (["affine", "aut-check", "--seed", "3", "--count", "10"],
             {"L": mat([[1, 1], [0, 1]]), "xi": ["0", "1"]}),
            (["bruhat", "decompose"], mat([[1, 2, 3], [4, 5, 7], [2, 2, 3]]))):
        _, out1, _ = run_cli(tmp_path, list(argv), doc)
        _, out2, _ = run_cli(tmp_path, list(argv), doc)
        assert out1 == out2 and out1.endswith("\n")


def test_exit_code_2_malformed(tmp_path):
    code, _, err = run_cli(tmp_path, ["sl2", "classify"])
    assert code == 2 and "error" in err          # --in missing
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, _ = run_cli(tmp_path, ["sl2", "classify", "--in", str(bad)])
    assert code == 2
    code, _, _ = run_cli(tmp_path, ["sl2", "classify"],
                         {"rows": 2, "cols": 2, "entries": [["1"], ["0", "1"]]})
    assert code == 2
    code, _, _ = run_cli(tmp_path, ["cocycle", "central"], {"m": 1})
    assert code == 2
    code, _, _ = run_cli(tmp_path, ["no-such-group"])
    assert code == 2


def test_exit_code_3_precondition(tmp_path):
    code, _, err = run_cli(tmp_path, ["sl2", "classify"], mat([[2, 0], [0, 1]]))
    assert code == 3 and "error" in err
    code, _, _ = run_cli(tmp_path, ["bruhat", "decompose"],
                         mat([[1, 2, 3], [2, 4, 6], [0, 0, 1]]))
    assert code == 3
    code, _, _ = run_cli(tmp_path, ["cocycle", "gamma1", "--level", "2"],
                         mat([[0, -1], [1, 0]]))
    assert code == 3
    code, _, _ = run_cli(tmp_path, ["cocycle", "finf-extend"],
                         {"n": 0, "window": [[0, 0, 0]]})
    assert code == 3


def test_strings_and_objects_are_not_read_as_arrays(tmp_path):
    # A JSON string iterates as its characters and an object as its keys:
    # {"entries": ["12", "34"]} once read as [[1, 2], [3, 4]], and the window
    # triple "000" as (0, "0", "0").
    for argv, doc in (
            (["lin", "snf"], {"entries": ["12", "34"]}),
            (["lin", "snf"], {"entries": {"1": 0, "2": 5}}),
            (["lin", "snf"], {"entries": "1234"}),
            (["lin", "snf"], {"entries": [["1", "2"], {"3": 0, "4": 0}]}),
            (["sl2", "classify"], {"entries": [["1", "1"], "01"]}),
            (["cocycle", "finf-extend"], {"n": 1, "window": ["000", [1, "0", "0"]]}),
            (["cocycle", "finf-extend"], {"n": 1, "window": [{"0": 1, "1": 2, "2": 3}]}),
            (["cocycle", "finf-extend"], {"n": 1, "window": {"000": 0}}),
            (["cocycle", "finf-extend"], {"n": 1, "window": "000"})):
        code, out, err = run_cli(tmp_path, argv, doc)
        assert (code, out) == (2, ""), (argv, doc, out)
        assert err.startswith("error: ") and err.count("\n") == 1, (argv, doc, err)
    # An entries value that is not an array is refused in the reader's words.
    assert run_cli(tmp_path, ["lin", "snf"], {"entries": 5})[2] == (
        "error: bad matrix entries: expected a JSON array, got a JSON number\n")


def test_affine_classify_non_object_document(tmp_path):
    # `[]` once escaped run() as an AttributeError from doc.get.
    for doc in ([], "cyclic_linear", 3, None):
        code, out, err = run_cli(tmp_path, ["affine", "classify"], doc)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1


BAD_DOCUMENTS = ("[]", "null", "{}", '"x"', "3", '{"entries": 5}', "[[1]]", "{not json")


def _required_flags(flags):
    """A valid value for each required flag of a COMMANDS entry."""
    argv = []
    for flag, spec in flags.items():
        if spec.get("required"):
            argv += [flag, str(spec["choices"][0]) if "choices" in spec else "2"]
    return argv


def test_every_command_refuses_malformed_documents(tmp_path):
    path = tmp_path / "bad.json"
    for (group, command), (reads_doc, flags) in cli.COMMANDS.items():
        if not reads_doc:
            continue
        argv = [group, command] + _required_flags(flags)
        for text in BAD_DOCUMENTS:
            path.write_text(text)
            code, out, err = run_cli(tmp_path, argv + ["--in", str(path)])
            assert code in (2, 3) and out == "", (argv, text, code)
            assert err.startswith("error: ") and err.count("\n") == 1, (argv, text, err)
            if text in ("[]", "null", '"x"', "3", "[[1]]"):
                # run() refuses a document that is not an object with a line
                # of its own, the same under every Python version.
                assert (code, err) == (2, "error: input document must be a JSON object\n"), (
                    argv, text, err)
        code, out, err = run_cli(tmp_path, argv)
        assert (code, out, err) == (2, "", "error: this subcommand requires --in\n")


def test_parser_built_once_never_at_import():
    # A plain valid argv is parsed from COMMANDS alone; the argparse parser is
    # built, once, for the first argv that needs help or a usage error.
    import subprocess
    import sys
    script = ("import io, sys\n"
              "before = set(sys.modules)\n"
              "from exactgroups import cli\n"
              "assert cli._parser.cache_info().currsize == 0\n"
              "assert 'argparse' not in set(sys.modules) - before\n"
              "sys.stdout = sys.stderr = io.StringIO()\n"
              "for _ in range(3):\n"
              "    assert cli.run(['bruhat', 'fact-check', '--fact', '1', '--count', '1']) == 0\n"
              "assert cli._parser.cache_info().currsize == 0\n"
              "assert cli.run(['sl2', 'congruence', '-h']) == 0\n"
              "assert cli.run(['bruhat', 'fact-check', '--fa', '1', '--count', '1']) == 2\n"
              "assert cli._parser.cache_info().misses == 1\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          stdin=subprocess.DEVNULL, env=_child_env(), timeout=20)
    assert proc.returncode == 0, proc.stderr


def test_prefix_abbreviations_refused(tmp_path):
    # argparse once took a unique prefix of a flag as the flag itself, so
    # --fa answered as --fact and --lev as --level, with exit 0.
    for argv, doc in ((["bruhat", "fact-check", "--fa", "1", "--count", "1"], None),
                      (["sl2", "congruence", "--family", "gamma", "--lev", "3"], M_GAMMA12)):
        code, out, err = run_cli(tmp_path, argv, doc)
        assert (code, out) == (2, ""), argv
        usage, error = err.splitlines()
        assert usage.startswith(f"usage: exactgroups {argv[0]} {argv[1]} "), err
        assert error.startswith(f"exactgroups {argv[0]} {argv[1]}: error: "), err
        full = [{"--fa": "--fact", "--lev": "--level"}.get(a, a) for a in argv]
        assert run_cli(tmp_path, full, doc)[0] == 0, full


def test_repeated_flag_refused(tmp_path, monkeypatch):
    # argparse once kept a repeated flag's last value: the first argv read
    # stdin and answered, never opening /nonexistent.
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(M_HYPERBOLIC)))
    cases = [
        (["sl2", "classify", "--in=/nonexistent", "--in", "-"], "--in"),
        (["sl2", "congruence", "--family", "gamma", "--level", "2", "--level", "4"], "--level"),
        (["sl2", "congruence", "--level=2", "--family", "gamma", "--family=gamma0"], "--family"),
        (["bruhat", "fact-check", "--fact", "1", "--count", "1", "--fact", "1"], "--fact"),
        (["affine", "ball", "--radius", "2", "--radius=2", "--in", "-"], "--radius"),
    ]
    for argv, flag in cases:
        code, out, err = run_cli(tmp_path, argv)
        assert (code, out) == (2, ""), argv
        usage, error = err.splitlines()
        assert usage.startswith(f"usage: exactgroups {argv[0]} {argv[1]} "), err
        assert error == f"exactgroups {argv[0]} {argv[1]}: error: argument {flag}: given twice", err
    # Each flag once still answers.
    argv = ["sl2", "congruence", "--family", "gamma", "--level", "2"]
    assert run_cli(tmp_path, argv, M_GAMMA12)[0] == 0


def test_cli_import_loads_no_dataclasses():
    # The value classes are slotted matrix.Record subclasses, so a cold call
    # does not import dataclasses and the inspect/ast chain behind it.  Some
    # interpreters load these at start-up (site hooks); only what the import
    # adds counts.
    import subprocess
    import sys
    script = ("import sys\n"
              "before = set(sys.modules)\n"
              "import exactgroups.cli\n"
              "print(sorted({'dataclasses', 'inspect', 'ast'} & (set(sys.modules) - before)))\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=_child_env())
    assert (proc.returncode, proc.stdout) == (0, "[]\n"), proc.stderr


def test_valid_call_loads_no_argparse():
    # A valid call is parsed from COMMANDS, so argparse is never imported;
    # run() imports only the command's group module, which imports its
    # group's library module, and the handler imports only the further
    # library modules its own command calls, so a cold call compiles no
    # other.  An int-only document makes no Fraction, so neither fractions
    # nor the decimal module it loads is imported, and no group module
    # imports exactgroups.cli, which would compile it a second time.  Each
    # call runs as `python -m exactgroups.cli` does, with cli as __main__; as
    # above, only what the call adds counts.
    import subprocess
    import sys
    T = mat([[1, 1], [0, 1]])
    spec = {"generators": [T], "values": [["1", "0"]]}
    cases = [  # (argv, int-only document, exactgroups modules the call adds)
        (["sl2", "classify"], M_HYPERBOLIC, {"cli_sl2", "sl2"}),
        (["sl2", "decompose", "--alphabet", "st"], M_HYPERBOLIC, {"cli_sl2", "sl2"}),
        (["sl2", "congruence", "--family", "gamma1", "--level", "2"], M_GAMMA12,
         {"cli_sl2", "sl2"}),
        (["cocycle", "solve-coboundary"], {"c_t": ["1", "0"]}, {"cli_cocycle", "cocycle", "sl2"}),
        (["cocycle", "eval"], {"spec": spec, "word": [{"gen": 0, "exp": 3}]},
         {"cli_cocycle", "cocycle", "sl2"}),
        (["cocycle", "gamma1", "--level", "2"], M_GAMMA12, {"cli_cocycle", "cocycle", "sl2"}),
        (["cocycle", "obstruction", "--level", "2"], M_GAMMA12,
         {"cli_cocycle", "cocycle", "sl2"}),
        (["cocycle", "central"], {"m": 2, "n": 0, "matrix": M_HYPERBOLIC},
         {"cli_cocycle", "cocycle", "sl2"}),
        (["cocycle", "finf-extend"],
         {"n": 1, "window": [[k, 4 * k, 8 * k * k] for k in range(-2, 3)]},
         {"cli_cocycle", "cocycle", "sl2", "lattice"}),
        (["affine", "icc"], M_HYPERBOLIC, {"cli_affine", "affine", "sl2"}),
        (["affine", "ball", "--radius", "2"],
         {"element": {"translation": ["1", "0"], "matrix": T},
          "generators": [{"translation": ["0", "1"], "matrix": M_HYPERBOLIC}]},
         {"cli_affine", "affine"}),
        (["affine", "lattice"], {"generators": [mat([[0, -1], [1, 0]]), T], "seeds": [["2", "0"]]},
         {"cli_affine", "affine", "lattice"}),
        (["affine", "aut-check", "--seed", "1", "--count", "3"], {"L": T, "xi": ["1", "0"]},
         {"cli_affine", "affine", "sl2", "prng"}),
        # Each descriptor kind loads only what its own checks call.
        (["affine", "classify"], {"kind": "cyclic_linear", "matrix": M_HYPERBOLIC},
         {"cli_affine", "affine", "sl2"}),
        (["affine", "classify"], {"kind": "full_lattice", "generators": [M_HYPERBOLIC],
                                  "lattice": {"rows": [["2", "0"], ["0", "2"]], "dim": 2}},
         {"cli_affine", "affine", "sl2", "lattice"}),
        (["affine", "classify"], {"kind": "graph", "spec": spec},
         {"cli_affine", "affine", "sl2", "cocycle"}),
        (["bruhat", "decompose"], mat([[2, 1, 0], [1, 1, 0], [0, 3, 1]]),
         {"cli_bruhat", "bruhat"}),
        (["bruhat", "cell"], mat([[0, 1, 0], [1, 0, 0], [0, 0, 1]]), {"cli_bruhat", "bruhat"}),
        (["bruhat", "fact-check", "--fact", "1", "--count", "3"], None,
         {"cli_bruhat", "bruhat", "prng"}),
        (["lin", "hnf"], {"rows": [["2", "0"], ["1", "1"]], "dim": 2}, {"cli_lin", "lattice"}),
        (["lin", "snf"], mat([[2, 4], [6, 8]]), {"cli_lin", "lattice"}),
        (["lin", "solve"], {"matrix": mat([[2, 0], [0, 3]]), "b": ["4", "9"]},
         {"cli_lin", "lattice"}),
    ]
    assert {tuple(argv[:2]) for argv, _, _ in cases} == cli.COMMANDS.keys()
    script = ("import json, runpy, sys\n"
              "sys.argv = ['exactgroups'] + sys.argv[1:]\n"
              "before = set(sys.modules)\n"
              "try:\n"
              "    runpy.run_module('exactgroups.cli', run_name='__main__')\n"
              "except SystemExit as exc:\n"
              "    added = set(sys.modules) - before\n"
              "    print(json.dumps([exc.code, sorted(added & {'argparse', 'fractions', 'decimal'}),\n"
              "                      sorted(m for m in added if m.startswith('exactgroups'))]))\n")
    for argv, doc, modules in cases:
        stdin = [] if doc is None else ["--in", "-"]
        proc = subprocess.run([sys.executable, "-c", script, *argv, *stdin],
                              capture_output=True, text=True, input=json.dumps(doc),
                              env=_child_env(), timeout=20)
        assert proc.returncode == 0, proc.stderr
        code, stdlib, loaded = json.loads(proc.stdout.splitlines()[-1])
        assert "exactgroups.cli" not in loaded, argv
        expected = sorted(["exactgroups"] + [f"exactgroups.{m}" for m in
                                             {"matrix", "serialize"} | modules])
        assert [code, stdlib, loaded] == [0, [], expected], (argv, doc)
    # The package itself loads only matrix; its lattice names load lattice
    # on first use, by name or by *.
    script = ("import sys\n"
              "before = set(sys.modules)\n"
              "import exactgroups\n"
              "print(sorted(m for m in set(sys.modules) - before if m.startswith('exactgroups')))\n"
              "from exactgroups import hnf, LatticeBasis\n"
              "from exactgroups import *\n"
              "print(hnf([(2, 0), (0, 3)]) == LatticeBasis(2, ((2, 0), (0, 3))), snf.__name__)\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=_child_env(), timeout=20)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "['exactgroups', 'exactgroups.matrix']\nTrue snf\n"


def test_help_independent_of_terminal_width():
    # Help is formatted at a fixed width: COLUMNS once rewrapped it.
    import subprocess
    import sys
    outputs = []
    for columns in ("40", "200"):
        proc = subprocess.run(
            [sys.executable, "-m", "exactgroups.cli", "sl2", "congruence", "-h"],
            capture_output=True, text=True, stdin=subprocess.DEVNULL,
            env=dict(_child_env(), COLUMNS=columns), timeout=20)
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]
    assert "usage: exactgroups sl2 congruence [-h] [--in INFILE]" in outputs[0]


def test_non_integer_json_scalars_refused(tmp_path):
    # 1.7 was truncated to 1 (the identity classified) and true read as 1.
    for argv, doc in (
            (["sl2", "classify"], {"rows": 2, "cols": 2,
                                   "entries": [[1.7, 0], [0, 1]]}),
            (["sl2", "classify"], {"rows": 2, "cols": 2,
                                   "entries": [[True, 0], [0, 1]]}),
            (["lin", "hnf"], {"rows": [[1.5, 2], [3, 4.25]]}),
            (["lin", "hnf"], {"rows": [[True, 0], [0, 1]]}),
            (["lin", "hnf"], {"rows": [[None, 0], [0, 1]]})):
        code, out, err = run_cli(tmp_path, argv, doc)
        assert code == 2 and out == "", (argv, doc)
        assert err.startswith("error: ")
    # JSON integers stay accepted, as in finf-extend windows.
    doc = run_ok(tmp_path, ["sl2", "classify"],
                 {"rows": 2, "cols": 2, "entries": [[1, 1], [1, 2]]})
    assert doc["class"] == "hyperbolic"
    doc = run_ok(tmp_path, ["lin", "hnf"], {"rows": [[2, 0], ["1", 1]]})
    assert doc["basis"] == [["1", "1"], ["0", "2"]]


def test_integer_fields_strict(tmp_path):
    # Once "m": 2.9 answered as m = 2, "1_0" and " 1" read as 10 and 1,
    # "dim": "x" exited 3, and 1e400 escaped run() as an OverflowError.
    spec = {"generators": [M_HYPERBOLIC], "values": [["3", "4"]]}
    lattice = {"dim": 2, "rows": [["2", "0"], ["0", "2"]]}
    full = {"kind": "full_lattice", "generators": [mat([[0, -1], [1, 0]])]}
    window = [[k, 4 * k, 8 * k * k] for k in range(-2, 3)]
    for argv, doc in (
            (["cocycle", "central"], {"m": 2.9, "n": 0, "matrix": M_HYPERBOLIC}),
            (["cocycle", "central"], {"m": "2", "n": True, "matrix": M_HYPERBOLIC}),
            (["cocycle", "central"],
             '{"m": 1e400, "n": 0, "matrix": %s}' % json.dumps(M_HYPERBOLIC)),
            (["cocycle", "eval"],
             '{"spec": %s, "word": [{"gen": 0, "exp": 1e400}]}' % json.dumps(spec)),
            (["cocycle", "eval"], {"spec": spec, "word": [{"gen": 0, "exp": 2.0}]}),
            (["cocycle", "eval"], {"spec": spec, "word": [{"gen": "0 ", "exp": 2}]}),
            (["cocycle", "finf-extend"], {"n": 1.5, "window": window}),
            (["cocycle", "finf-extend"],
             {"n": 1, "window": [[float(k), x, y] for k, x, y in window]}),
            (["lin", "snf"], mat([["1_0", " 1"], ["1", "2"]])),
            (["lin", "snf"], mat([["+1", "0"], ["0", "1/ 2"]])),
            (["lin", "hnf"], {"rows": [["1", "2"]], "dim": "x"}),
            (["lin", "hnf"], {"rows": [["1", "2"]], "dim": 2.0}),
            (["affine", "classify"], {**full, "lattice": {**lattice, "dim": "x"}}),
            (["affine", "classify"], {**full, "lattice": {**lattice, "dim": 2.5}}),
            # The other serialize refusals: a zero denominator, a vector or
            # word that is no array, a malformed spec and a token without gen.
            (["cocycle", "solve-coboundary"], {"c_t": ["1/0", "0"]}),
            (["cocycle", "solve-coboundary"], {"c_t": "1"}),
            (["cocycle", "eval"], {"spec": spec, "word": {"gen": 0, "exp": 1}}),
            (["cocycle", "eval"], {"spec": [spec], "word": []}),
            (["cocycle", "eval"], {"spec": {"generators": [M_HYPERBOLIC]}, "word": []}),
            (["cocycle", "eval"], {"spec": spec, "word": [{"exp": 1}]})):
        if isinstance(doc, str):
            path = tmp_path / "raw.json"
            path.write_text(doc)
            code, out, err = run_cli(tmp_path, argv + ["--in", str(path)])
        else:
            code, out, err = run_cli(tmp_path, argv, doc)
        assert code == 2 and out == "", (argv, doc, code, err)
        assert err.startswith("error: ") and err.count("\n") == 1
    # Decimal strings and JSON integers stay accepted in every integer field.
    doc = run_ok(tmp_path, ["cocycle", "central"],
                 {"m": "2", "n": "-0", "matrix": M_HYPERBOLIC})
    assert doc["case"] == 1 and doc["value"] == ["0", "-1"]
    doc = run_ok(tmp_path, ["cocycle", "eval"],
                 {"spec": spec, "word": [{"gen": "0", "exp": "2"}]})
    assert doc["value"] == ["10", "15"]
    doc = run_ok(tmp_path, ["lin", "hnf"], {"rows": [["2", "0"], ["1", "1"]], "dim": "2"})
    assert doc["basis"] == [["1", "1"], ["0", "2"]]
    doc = run_ok(tmp_path, ["affine", "classify"], {**full, "lattice": {**lattice, "dim": "2"}})
    assert doc["case"] == "case1"


BALL_DOC = {"element": {"translation": ["1", "0"], "matrix": mat([[1, 0], [0, 1]])},
            "generators": [{"translation": ["0", "0"], "matrix": M_HYPERBOLIC}]}
AUT_DOC = {"L": mat([[1, 1], [0, 1]]), "xi": ["1", "-2"]}

# (argv before the flag, integer flag, input document)
INT_FLAGS = (
    (["sl2", "congruence", "--family", "gamma"], "--level", M_GAMMA12),
    (["cocycle", "gamma1"], "--level", M_GAMMA12),
    (["cocycle", "obstruction"], "--level", M_GAMMA12),
    (["affine", "ball"], "--radius", BALL_DOC),
    (["affine", "aut-check", "--count", "2"], "--seed", AUT_DOC),
    (["affine", "aut-check", "--seed", "1"], "--count", AUT_DOC),
    (["bruhat", "fact-check"], "--fact", None),
    (["bruhat", "fact-check", "--fact", "3"], "--grid", None),
    (["bruhat", "fact-check", "--fact", "1"], "--seed", None),
    (["bruhat", "fact-check", "--fact", "1"], "--count", None),
)


def test_integer_flags_strict(tmp_path):
    # int() once read "--level 1_0" as level 10 and accepted " 2 ", "+2" and
    # an Arabic-Indic digit, all with exit 0.
    for prefix, flag, doc in INT_FLAGS:
        for value in ("1_0", " 2 ", "+2", "\u0662", "2.0", "x"):
            for argv in (prefix + [flag, value], prefix + [f"{flag}={value}"]):
                code, out, err = run_cli(tmp_path, argv, doc)
                assert code == 2 and out == "", (argv, code)
                assert f"argument {flag}: invalid int value: {value!r}\n" in err
                assert "Traceback" not in err
    # Decimal strings stay accepted, negative ones included.
    code, out, err = run_cli(tmp_path, ["cocycle", "obstruction", "--level=-3"], M_GAMMA12)
    assert code == 3 and out == "" and err == "error: level must be >= 1\n"
    doc = run_ok(tmp_path, ["affine", "aut-check", "--seed", "-3", "--count", "02"], AUT_DOC)
    assert doc["samples"] == 2
    doc = run_ok(tmp_path, ["bruhat", "fact-check", "--fact=02", "--count=-0"])
    assert (doc["fact"], doc["holds"], doc["cases"]) == (2, True, 0)


def test_affine_classify_relator_bad_index(tmp_path):
    # Index 3 once escaped run() as an IndexError; -1 wrapped to the last
    # generator and was reported as a relator that is not the identity.
    spec = {"generators": [mat([[1, 1], [0, 1]]), mat([[1, 0], [2, 1]])],
            "values": [["0", "0"], ["0", "-1"]]}
    for gen in (3, -1):
        doc = {"kind": "graph",
               "spec": {**spec, "relators": [[{"gen": gen, "exp": 1}]]}}
        code, out, err = run_cli(tmp_path, ["affine", "classify"], doc)
        assert code == 3 and out == "", (gen, code)
        assert err == f"error: unknown generator index {gen}\n"


def _finf_graph(window):
    """Graph descriptor of the (k, value) pairs of `window` on the free-family
    generators b^k a b^-k = [[1-4k, 2], [-8k^2, 1+4k]]."""
    return {"kind": "graph",
            "spec": {"generators": [mat([[1 - 4 * k, 2], [-8 * k * k, 1 + 4 * k]])
                                    for k, _ in window],
                     "values": [[str(x), str(y)] for _, (x, y) in window]}}


def _finf_coboundary(k, xi):
    """xi - g_k xi for the free-family generator g_k."""
    x, y = xi
    return 4 * k * x - 2 * y, 8 * k * k * x - 4 * k * y


FINF_SHIFTS = {"shifts_checked": ["1", "-1", "2", "-2"]}
FINF_COB = [(k, _finf_coboundary(k, (2, -1))) for k in range(-3, 4) if k]
FINF_COB0, FINF_PERT0 = _finf_coboundary(0, (2, -1)), (3, 2)

# (descriptor, last check as (name, verdict, evidence)): the reports of the
# Gamma_1(N) and free-family branches, pinned exactly.
GRAPH_REPORTS = [
    # Gamma_1(3): xi = (1/3, 0) is forced and not integral.
    ({"kind": "graph", "spec": {"generators": [mat([[1, 1], [0, 1]]), mat([[1, 0], [3, 1]])],
                                "values": [["0", "0"], ["0", "-1"]]}},
     ("gamma1-obstruction", "pass", {"level": "3", "xi": ["1/3", "0"]})),
    # Values (1, 1) off k = 0: no shift of +-1, +-2 extends.
    (_finf_graph([(k, (0, 0) if k == 0 else (1, 1)) for k in range(-3, 4)]),
     ("finf-obstruction", "pass", FINF_SHIFTS)),
    # A coboundary extends along every shift.
    (_finf_graph([(0, FINF_COB0)] + FINF_COB), ("finf-obstruction", "fail", FINF_SHIFTS)),
    # Shifts +-1 are obstructed, but +-2 instantiate no relation in {0, 1},
    # which counts as an extension.
    (_finf_graph([(0, (0, 0)), (1, (1, 1))]), ("finf-obstruction", "fail", FINF_SHIFTS)),
    # Without k = 0 the family is not recognized.
    (_finf_graph([(k, (1, 1)) for k in (1, 2, 3)]), ("known-obstruction", "unknown", {})),
    # A repeated k takes its last value.
    (_finf_graph([(0, FINF_COB0)] + FINF_COB + [(0, FINF_PERT0)]),
     ("finf-obstruction", "pass", FINF_SHIFTS)),
    (_finf_graph([(0, FINF_PERT0)] + FINF_COB + [(0, FINF_COB0)]),
     ("finf-obstruction", "fail", FINF_SHIFTS)),
]


def test_affine_classify_graph_reports_pinned(tmp_path):
    for descriptor, (name, verdict, evidence) in GRAPH_REPORTS:
        doc = run_ok(tmp_path, ["affine", "classify"], descriptor)
        assert doc["case"] == "case2"
        assert doc["checks"] == [
            {"name": "relators", "verdict": "unknown", "evidence": {"count": "0"}},
            {"name": name, "verdict": verdict, "evidence": evidence}], descriptor
    # Gamma_1(2) on [[1, 0], [2, 1]] alone: xi is not pinned down.
    code, out, err = run_cli(tmp_path, ["affine", "classify"],
                             {"kind": "graph", "spec": {"generators": [mat([[1, 0], [2, 1]])],
                                                        "values": [["0", "-1"]]}})
    assert (code, out, err) == (3, "", "error: joint system has a nontrivial kernel\n")


def test_affine_classify_full_lattice_no_generators(tmp_path):
    # An empty generator list once escaped run() as an IndexError.
    doc = run_ok(tmp_path, ["affine", "classify"],
                 {"kind": "full_lattice", "lattice": {"rows": [["1", "0"]], "dim": 2},
                  "generators": []})
    assert doc["case"] == "case1"
    assert doc["checks"][-1] == {"name": "amenable-linear-part", "verdict": "pass",
                                 "evidence": {"order": "1"}}


def test_lin_snf_rational_matrix_refused(tmp_path):
    # SNF is defined over Z; a rational input once got 1/2 on the diagonal.
    code, out, err = run_cli(tmp_path, ["lin", "snf"],
                             mat([["1/2", 0], [0, 1]]))
    assert code == 3 and out == ""
    assert err.startswith("error: ")


def test_stdin_input(tmp_path, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(M_HYPERBOLIC)))
    code, out, _ = run_cli(tmp_path, ["sl2", "classify", "--in", "-"])
    assert code == 0 and json.loads(out)["class"] == "hyperbolic"


def _child_env():
    """Environment for a child that imports the same package as this process,
    also when it was found through pytest's `pythonpath` setting rather than
    PYTHONPATH."""
    import os
    from pathlib import Path
    import exactgroups
    package_root = str(Path(exactgroups.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    return env


def test_console_entry_point(tmp_path):
    import subprocess
    import sys
    path = tmp_path / "m.json"
    path.write_text(json.dumps(M_HYPERBOLIC))
    proc = subprocess.run(
        [sys.executable, "-m", "exactgroups.cli", "sl2", "classify",
         "--in", str(path)],
        capture_output=True, text=True, env=_child_env())
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["class"] == "hyperbolic"
    validate_output(doc)


def test_version_in_envelope(tmp_path):
    import exactgroups
    doc = run_ok(tmp_path, ["lin", "snf"], mat([[1]]))
    assert doc["version"] == exactgroups.__version__
    assert doc["command"] == "lin.snf"


def test_readme_examples(monkeypatch):
    # Every `$ echo '...' | exactgroups ...` example of README.md, with the
    # line after it as the expected stdout.
    import re
    import shlex
    from pathlib import Path
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    examples = re.findall(r"^\$ (.*)\n(.*)$", text.replace("\\\n", ""), re.M)
    assert len(examples) >= 4
    for command, expected in examples:
        found = re.fullmatch(r"echo '([^']*)'\s*\|\s*exactgroups (.*)", command)
        assert found, command
        monkeypatch.setattr("sys.stdin", io.StringIO(found.group(1) + "\n"))
        out = io.StringIO()
        with redirect_stdout(out):
            assert cli.run(shlex.split(found.group(2))) == 0, command
        assert out.getvalue() == expected + "\n"


def test_solve_and_kernels_never_call_snf(tmp_path, monkeypatch):
    # Integer solving and kernels come from a fraction-free pass or one
    # Hermite pass; Smith normal form serves `lin snf` only.
    def refuse(M):
        raise AssertionError("snf called")
    monkeypatch.setattr(lattice, "snf", refuse)
    M = Matrix([[4, -2], [8, -4]])
    assert M.apply(lattice.solve_integer(M, (2, 4))) == (2, 4)
    assert lattice.kernel_basis(M).rows == ((1, 2),)
    assert lattice.fixed_sublattice(Matrix([[1, 1], [0, 1]]), 1).rows == ((1, 0),)
    values = {-2: (-8, 32), -1: (-4, 8), 0: (0, 0), 1: (4, 8), 2: (8, 32)}
    assert cocycle.finf_extend(1, values, sorted(values)) == (0, -2)
    assert run_ok(tmp_path, ["affine", "icc"], M_HYPERBOLIC)["icc"] is True
    assert run_ok(tmp_path, ["affine", "icc"], mat([[1, 1], [0, 1]]))["icc"] is False


def test_internal_error_is_one_line_exit_3(tmp_path, monkeypatch):
    # The last-resort handler: an exception no other clause expects ends
    # the call with one diagnostic line, not a traceback.
    def broken(doc, opts):
        return 1 // 0
    monkeypatch.setitem(cli_lin.HANDLERS, "hnf", broken)
    # A fresh cache for this test, so the handler is resolved from HANDLERS.
    monkeypatch.setattr(cli, "_handler", functools.cache(cli._handler.__wrapped__))
    code, out, err = run_cli(tmp_path, ["lin", "hnf"], {"rows": [["1"]]})
    assert (code, out) == (3, "")
    assert err == "error: internal ZeroDivisionError: integer division or modulo by zero\n"


@pytest.mark.parametrize("exc", [KeyError("rows"), TypeError("x"), ValueError("y")])
def test_library_key_type_and_value_errors_are_internal(tmp_path, monkeypatch, exc):
    # A KeyError, TypeError or ValueError raised inside the library is a
    # defect of the program, not the user's malformed input.
    def broken(*args, **kwargs):
        raise exc
    monkeypatch.setattr(lattice, "hnf", broken)
    code, out, err = run_cli(tmp_path, ["lin", "hnf"], {"rows": [["1"]]})
    assert (code, out) == (3, "")
    assert err == f"error: internal {type(exc).__name__}: {exc}\n"


def test_missing_fields_and_wrong_shapes_are_refused_in_the_readers_words(tmp_path):
    for argv, doc, want in (
            (["cocycle", "solve-coboundary"], {}, "malformed input ('c_t')"),
            (["cocycle", "solve-coboundary"], {"c_t": ["1"]},
             "expected a JSON array of 2 items, got 1"),
            (["cocycle", "eval"], {"spec": {"values": []}, "word": []},
             "malformed input ('generators')"),
            (["cocycle", "eval"], {"spec": [], "word": []},
             "expected a JSON object, got a JSON array"),
            (["cocycle", "eval"], {"spec": {"generators": [], "values": []},
                                   "word": [{"gen": 0}]}, "malformed input ('exp')"),
            (["cocycle", "eval"], {"spec": {"generators": [], "values": []},
                                   "word": [[0, 1]]},
             "expected a JSON object, got a JSON array"),
            (["cocycle", "finf-extend"], {"n": 1, "window": [[0, "0"]]},
             "expected a JSON array of 3 items, got 2"),
            (["affine", "ball"], {"element": None, "generators": []},
             "expected a JSON object, got a JSON null"),
            (["affine", "lattice"], {"generators": 1.5, "seeds": []},
             "expected a JSON array, got a JSON number"),
            (["affine", "classify"], {"kind": "full_lattice", "lattice": True},
             "expected a JSON object, got a JSON boolean"),
            (["lin", "hnf"], {"rows": "12"}, "expected a JSON array, got a JSON string"),
            (["lin", "snf"], {"entries": [["1"], 2]},
             "bad matrix entries: expected a JSON array, got a JSON number")):
        assert run_cli(tmp_path, argv, doc) == (2, "", f"error: {want}\n"), (argv, doc)


def test_unreadable_documents_exit_2(tmp_path):
    # A JSON integer past the int/str digit limit is read by parse_int, a
    # file that is not UTF-8 and a document nested past the decoder's depth
    # are refused as unreadable: none is an internal error.
    limit = sys.get_int_max_str_digits()
    for text, want in (
            ('{"rows": [[' + "9" * (limit + 1) + "]]}",
             f"error: bad integer: more than {limit} decimal digits\n"),
            (b'{"rows": [["\xff"]]}', "error: cannot read input document: "),
            ('{"rows": ' + "[" * 100_000 + "]" * 100_000 + "}",
             "error: cannot read input document: ")):
        path = tmp_path / "in.json"
        if isinstance(text, bytes):
            path.write_bytes(text)
        else:
            path.write_text(text)
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.run(["lin", "hnf", "--in", str(path)])
        assert (code, out.getvalue()) == (2, ""), err.getvalue()
        assert err.getvalue().startswith(want) and err.getvalue().count("\n") == 1
