"""Tests for the command line interface: output, exit codes, JSON."""

import hashlib
import importlib.util
import json
import math
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import qshuffle
import qshuffle.cli as cli
from qshuffle import flagmodel
from qshuffle.cli import main
from qshuffle.report import CheckResult
from test_acceptance import FLAG_GRID


def test_verify_lemma3_text(capsys):
    assert main(["verify", "lemma3", "--n", "3"]) == 0
    out = capsys.readouterr().out
    assert "PASS lemma3 [n=3 q=2]" in out
    assert "PASS lemma3 [n=3 q=3]" in out
    assert "OVERALL: PASS (2 checks)" in out


def test_verify_hecke_identity_text(capsys):
    assert main(["verify", "hecke-identity", "--n", "4"]) == 0
    out = capsys.readouterr().out
    assert "PASS hecke-identity [n=4]" in out


def test_verify_group_identity_text(capsys):
    assert main(["verify", "group-identity", "--n", "5"]) == 0
    assert "PASS group-identity [n=5]" in capsys.readouterr().out


def test_identity_checks_refuse_n_below_one(capsys):
    commands = [["verify", check] for check in cli._VERIFY_CHECKS] + [["multiplicities"]]
    assert len(commands) == 7
    for command in commands:
        for n in ("0", "-2"):
            assert main([*command, "--n", n]) == 2, command
            captured = capsys.readouterr()
            assert f"need n >= 1, got {n}" in captured.err, command
            assert captured.out == "", command
    # factorization needs a pair of generators
    assert main(["verify", "factorization", "--n", "1"]) == 2
    assert "need n >= 2, got 1" in capsys.readouterr().err


def test_options_a_check_ignores_are_refused(capsys):
    refused = [
        (["verify", "hecke-identity", "--n", "3", "--q", "4"], "--q"),
        (["verify", "hecke-identity", "--n", "3", "--budget", "10"], "--budget"),
        # 0 == False must not pass for an option left out
        (["verify", "hecke-identity", "--n", "3", "--budget", "0"], "--budget"),
        (["verify", "group-identity", "--n", "3", "--budget", "0"], "--budget"),
        (["verify", "group-identity", "--n", "3", "--t", "1"], "--t"),
        (["verify", "group-identity", "--n", "3", "--q", "2"], "--q"),
        (["verify", "hecke-identity", "--n", "3", "--debug-orbit-checks"],
         "--debug-orbit-checks"),
        (["verify", "span", "--n", "3", "--t", "1"], "--t"),
        (["verify", "factorization", "--n", "3", "--t", "1:2"], "--t"),
        (["verify", "structure-constants", "--n", "3", "--t", "1"], "--t"),
    ]
    for argv, option in refused:
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert f"does not take {option}" in captured.err, argv
        assert captured.out == "", argv
    # the options a check reads, and the defaults, still run
    for argv in (
        ["verify", "lemma3", "--n", "2", "--q", "2", "--t", "1", "--budget", "50"],
        ["verify", "span", "--n", "2", "--q", "3", "--budget", "50", "--debug-orbit-checks"],
        ["verify", "hecke-identity", "--n", "3"],
        ["verify", "structure-constants", "--n", "2"],
    ):
        assert main(argv) == 0, argv
        assert "OVERALL: PASS" in capsys.readouterr().out
    assert main(["verify", "lemma3", "--n", "2", "--budget", "2"]) == 2
    assert "budget" in capsys.readouterr().err


def test_json_document_shape(capsys):
    assert main(["verify", "lemma3", "--n", "3", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["schema"] == 1
    assert doc["tool"]["name"] == "qshuffle"
    assert doc["command"] == "verify"
    assert doc["pass"] is True
    assert [c["params"]["q"] for c in doc["checks"]] == [2, 3]
    assert all(c["pass"] for c in doc["checks"])


def test_json_is_deterministic(capsys):
    argv = ["verify", "structure-constants", "--n", "3", "--q", "2", "--format", "json"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    second = capsys.readouterr().out
    assert first == second
    doc = json.loads(first)
    assert doc["checks"][0]["details"][0]["orientation"] == "reversed"


def test_budget_error_exit_code(capsys):
    assert main(["verify", "lemma3", "--n", "5", "--q", "3"]) == 2
    err = capsys.readouterr().err
    assert "budget" in err


def test_non_prime_q_exit_code(capsys):
    assert main(["verify", "lemma3", "--n", "3", "--q", "4"]) == 2
    assert "prime" in capsys.readouterr().err


def test_unknown_check_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "no-such-check"])
    assert exc.value.code == 2


def test_t_selection_single(capsys):
    argv = ["verify", "lemma3", "--n", "3", "--q", "2", "--t", "2", "--format", "json"]
    assert main(argv) == 0
    doc = json.loads(capsys.readouterr().out)
    rows = doc["checks"][0]["details"]
    assert [row["t"] for row in rows] == [2]


def test_t_selection_range(capsys):
    argv = ["verify", "lemma3", "--n", "3", "--q", "2", "--t", "1:3", "--format", "json"]
    assert main(argv) == 0
    doc = json.loads(capsys.readouterr().out)
    assert [row["t"] for row in doc["checks"][0]["details"]] == [1, 2, 3]


def test_t_selection_list(capsys):
    argv = ["verify", "lemma3", "--n", "3", "--q", "2", "--t", "1,2,4", "--format", "json"]
    assert main(argv) == 0
    doc = json.loads(capsys.readouterr().out)
    assert [row["t"] for row in doc["checks"][0]["details"]] == [1, 2, 4]


def test_bad_t_is_validation_error(capsys, monkeypatch):
    assert main(["verify", "lemma3", "--t", "x"]) == 2
    assert main(["verify", "lemma3", "--t", "5:1"]) == 2
    capsys.readouterr()

    def refuse(*args):
        raise AssertionError("an orbit function was built")

    # for t > n, f_t = 0, so rows past n + 2 compare zero with zero; the
    # refusal comes before any orbit function, and a range is refused
    # before its list is built
    monkeypatch.setattr(flagmodel, "f1", refuse)
    monkeypatch.setattr(flagmodel, "f_t", refuse)
    for t in ("6", "1:6", "1:10000000000", "0:3", "2,6"):
        assert main(["verify", "lemma3", "--n", "3", "--q", "2", "--t", t]) == 2, t
        err = capsys.readouterr().err
        assert "1:5" in err or "[1, 5]" in err, (t, err)
    with pytest.raises(ValueError, match=r"\[1, 5\], got 6"):
        flagmodel.verify_lemma3(3, 2, [1, 6])
    monkeypatch.undo()
    assert main(["verify", "lemma3", "--n", "3", "--q", "2", "--t", "1:5"]) == 0
    capsys.readouterr()


def test_multiplicities_command(capsys):
    assert main(["multiplicities", "--n", "3"]) == 0
    out = capsys.readouterr().out
    assert "PASS multiplicities [n=3 q0=[1, 2, 3]]" in out


def test_multiplicities_large_gate(capsys):
    assert main(["multiplicities", "--n", "9"]) == 2
    err = capsys.readouterr().err
    assert "allow_large" in err
    assert "--allow-large" in err
    assert "9! = 362880 basis elements" in err
    assert "seminormal block" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "span", "--n", "3", "--q", "2,2"],
        ["all", "--q", "2,3,2"],
        ["multiplicities", "--n", "3", "--q", "1,1"],
    ],
    ids=["verify", "all", "multiplicities"],
)
def test_repeated_q_is_refused(capsys, argv):
    # a repeated q would run the same check twice, not a second check
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert "repeated q value(s) [" in captured.err
    assert captured.out == ""


def test_import_leaves_out_dataclasses():
    # every command starts with this import; dataclasses would pull in
    # inspect, ast, dis and tokenize
    code = "import sys, qshuffle.cli\nprint('dataclasses' in sys.modules)"
    src = os.path.dirname(os.path.dirname(qshuffle.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"


def test_failing_check_exits_one(monkeypatch, capsys):
    fake = CheckResult("lemma3", {"n": 3, "q": 2}, [{"t": 1, "pass": False}])
    monkeypatch.setattr(cli, "verify_lemma3", lambda *a, **k: fake)
    assert main(["verify", "lemma3", "--n", "3", "--q", "2"]) == 1
    out = capsys.readouterr().out
    assert "FAIL lemma3" in out
    assert "OVERALL: FAIL" in out


def _f_n_doubled(monkeypatch):
    real = flagmodel.f_t
    monkeypatch.setattr(flagmodel, "f_t", lambda n, q, t: (2 if t == n else 1) * real(n, q, t))


def _tau_plus_one(monkeypatch):
    real = flagmodel.tau
    monkeypatch.setattr(flagmodel, "tau", lambda n: real(n) + 1)


@pytest.mark.parametrize(
    "check, verify, row_name, patch",
    [
        ("factorization", flagmodel.verify_factorization, "f_(n-1) == f_n", _f_n_doubled),
        ("structure-constants", flagmodel.compare_structure_constants,
         "f1 == specialize(tau, q)", _tau_plus_one),
    ],
)
def test_failing_orbit_row_names_its_witness(monkeypatch, capsys, check, verify, row_name, patch):
    # a broken f_n or tau fails exactly the one row that compares against
    # it, and that row names the first mismatched orbit
    patch(monkeypatch)
    witness = "orbit (1 2 3): 1 != 2"
    result = verify(3, 2)
    assert result.passed is False
    failing = [row for row in result.details if not row["pass"]]
    assert failing == [{"check": row_name, "pass": False, "witness": witness}]

    argv = ["verify", check, "--n", "3", "--q", "2"]
    assert main(argv) == 1
    out = capsys.readouterr().out
    assert f"FAIL {check} [n=3 q=2]" in out
    assert f"'witness': '{witness}'" in out
    assert main([*argv, "--format", "json"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["pass"] is False
    rows = [row for c in doc["checks"] for row in c["details"] if not row["pass"]]
    assert rows == [{"check": row_name, "pass": False, "witness": witness}]


def test_debug_orbit_checks_flag(capsys, monkeypatch):
    # every moved cell count, a _cell_slice call that read columns
    # moved by _moved_columns, is recorded as (n, q, y), and while
    # `perturb` is set its count is one off in the first nonzero slot
    move, count = flagmodel._moved_columns, flagmodel._cell_slice
    rebuilt, perturb, pending = [], [], []

    def moved_columns(cols, q):
        pending.append(True)
        return move(cols, q)

    def moved_count(n, q, y, columns):
        out = count(n, q, y, columns)
        moved = bool(pending)
        pending.clear()
        if moved:
            rebuilt.append((n, q, y))
            if perturb:
                counts = next(c for c in out if c)
                counts[next(iter(counts))] += 1
        return out

    def cells(*points):
        return [(n, q, y) for n, q in points for y in range(math.factorial(n))]

    monkeypatch.setattr(flagmodel, "_moved_columns", moved_columns)
    monkeypatch.setattr(flagmodel, "_cell_slice", moved_count)
    lemma3 = ["verify", "lemma3", "--n", "2", "--q", "2,3"]
    assert main([*lemma3, "--debug-orbit-checks"]) == 0
    assert rebuilt == cells((2, 2), (2, 3))
    rebuilt.clear()
    assert main(["all", "--q", "2", "--debug-orbit-checks"]) == 0
    assert rebuilt == cells((2, 2), (3, 2), (4, 2))
    capsys.readouterr()

    # a failed cross-check is one failing row after the checks of its
    # (n, q): the document is printed and the exit status is 1
    perturb.append(True)
    rebuilt.clear()
    assert main([*lemma3, "--debug-orbit-checks", "--format", "json"]) == 1
    # each point fails at its first cell
    assert rebuilt == [(2, 2, 0), (2, 3, 0)]
    doc = json.loads(capsys.readouterr().out)
    assert [c["name"] for c in doc["checks"]] == ["lemma3"] * 2 + ["orbit-representatives"] * 2
    failed = doc["checks"][2]
    assert failed["params"] == {"n": 2, "q": 2} and not failed["pass"]
    [row] = failed["details"]
    assert row["pass"] is False
    assert "at n = 2, q = 2 differs from the structure tensor" in row["witness"]
    rebuilt.clear()
    assert main(["all", "--q", "2", "--debug-orbit-checks", "--format", "json"]) == 1
    doc = json.loads(capsys.readouterr().out)
    failed = [c["params"] for c in doc["checks"] if c["name"] == "orbit-representatives"]
    assert failed == [{"n": n, "q": 2} for n in (2, 3, 4)]
    rebuilt.clear()
    for argv in (lemma3, ["all", "--q", "2"]):
        assert main(argv) == 0, argv
    assert rebuilt == []
    capsys.readouterr()


def test_all_grid(capsys):
    assert main(["all"]) == 0
    out = capsys.readouterr().out
    assert "OVERALL: PASS (33 checks)" in out


@pytest.mark.parametrize(
    "argv, digest",
    [
        (["all", "--format", "json"],
         "9ab8ed2ad9d1502e4f65392c25e1029ceabd93f863eab23bec1b7b9b3f5adfd3"),
        # a passing cross-check adds nothing to the output
        (["all", "--format", "json", "--debug-orbit-checks"],
         "9ab8ed2ad9d1502e4f65392c25e1029ceabd93f863eab23bec1b7b9b3f5adfd3"),
        (["verify", "structure-constants", "--n", "4", "--q", "3", "--format", "json"],
         "5a76852eb98ddf464f5d15c6d98857160c01d72222e9c7c8a8aaed589de89420"),
        # the flag checks at an odd q and at the largest n of FLAG_GRID
        (["verify", "lemma3", "--n", "3", "--q", "5", "--format", "json"],
         "fb5b19edb24231cb8257fea1348c77740a30efb10cc2e1084cc3b32d74ed1d9d"),
        (["verify", "factorization", "--n", "3", "--q", "5", "--format", "json"],
         "cc742cafa0dbef3d72f2172cb5462e2560da0002dab1fb83d3b0bb136b59a5d5"),
        (["verify", "span", "--n", "3", "--q", "5", "--format", "json"],
         "3b40faf1e3532a44015b23d0ffb75ce37f562f5850d6afcdd0bd5af519a0ed13"),
        (["verify", "structure-constants", "--n", "3", "--q", "5", "--format", "json"],
         "58ed4f0b13ba35647022465aa0dd12b30ef0557103f88dfdea53ad6e6bf899e0"),
        (["verify", "lemma3", "--n", "5", "--q", "2", "--format", "json"],
         "2968b5a55273a47b08bbdb0b38cb40599bd7a8c93afc7d6dd061221f4d5eacaa"),
        (["verify", "factorization", "--n", "5", "--q", "2", "--format", "json"],
         "50171c51ea989e4d03b2bbe66b534b5d60b0ec3fde40e904500bfae64f40633b"),
        (["verify", "span", "--n", "5", "--q", "2", "--format", "json"],
         "e7a76001076b1964d08c470494238f48ff91d4d407f707727e2ef944ed4cc83a"),
        (["verify", "structure-constants", "--n", "5", "--q", "2", "--format", "json"],
         "7491673dff8363f74bce6f28b3317914b20d2411f1731f322496267a627ce97c"),
        # the hecke-spectrum commands, which read no flags
        (["verify", "hecke-identity", "--n", "7", "--format", "json"],
         "4803ff10a66175b8957afb427458cb26f5442972d6b3efd6385badea407c2be4"),
        (["verify", "group-identity", "--n", "8", "--format", "json"],
         "9ae6afb7b6f5b996663280a2e9213cf2678a7cb9e041d02f45aecb55a8920675"),
        (["multiplicities", "--n", "5", "--format", "json"],
         "cb3f671a4ce75ffea8e966a0f88b19f61dd458ba07b0d431415fcee2b476a635"),
    ],
    ids=["all", "all-debug", "structure-constants-4-3",
         "lemma3-3-5", "factorization-3-5", "span-3-5", "structure-constants-3-5",
         "lemma3-5-2", "factorization-5-2", "span-5-2", "structure-constants-5-2",
         "hecke-identity-7", "group-identity-8", "multiplicities-5"],
)
def test_json_stdout_is_pinned(capsys, argv, digest):
    # the sha256 of the whole document; a change that alters these bytes
    # on purpose updates the digest and says so in CHANGES.md
    assert main(argv) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


# the sha256 of the joined stdout of the four flag checks at each point
# of FLAG_GRID, each as text and then as json, recorded before the fast
# side read its slices through the one pivot-set builder
FLAG_CHECK_DIGESTS = {
    (2, 2): "36c4922673171f7958557981cbcf4188862d5b17740be50772527446ebc08fe7",
    (2, 3): "d796fd67317fd0cbd6762a65e69bdfe0bf8b05d830aa4f153d67c1adba64624a",
    (3, 2): "34fd9ba046f6d9a6bf2873e6ea5a412c899ae759d0fbeee7419e47af7b0de0f1",
    (3, 3): "4e9fe7a201d6947d479facea60bd5ef0a123307a607ef6f12057930d03304873",
    (3, 5): "ece05f909240456e7499d9f35ee03f0b3a5b4db5fd4937029f563aea18e34160",
    (4, 2): "c9a69361f99a787697b8b8cfe11694095ad1d2447cc9ceb38060446254af1b90",
    (4, 3): "7552ccf8b133f8e15bedba0a6016c9024ab867edda0cf33836c8adc2d048a0a3",
    (5, 2): "8f182072a91f7036c1afaccfcf5f444e20b2557bae0265fa39871f08e2670ec7",
}


@pytest.mark.parametrize("n, q", FLAG_GRID)
def test_flag_check_bytes_are_pinned(capsys, n, q):
    # a change that alters these bytes on purpose updates the digest and
    # says so in CHANGES.md; a passing cross-check leaves the bytes of a
    # check unchanged, tried once per point on the check that builds the
    # full tensor anyway
    point = ["--n", str(n), "--q", str(q)]
    outs = []
    for check in ("lemma3", "factorization", "span", "structure-constants"):
        for fmt in ("text", "json"):
            assert main(["verify", check, *point, "--format", fmt]) == 0
            outs.append(capsys.readouterr().out)
    assert hashlib.sha256("".join(outs).encode()).hexdigest() == FLAG_CHECK_DIGESTS[n, q]
    argv = ["verify", "structure-constants", *point, "--format", "json", "--debug-orbit-checks"]
    assert main(argv) == 0
    assert capsys.readouterr().out == outs[-1]


def test_json_verdicts_are_the_conjunction_of_their_rows(capsys):
    assert main(["all", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    for check in doc["checks"]:
        assert check["details"], check["name"]
        assert all(isinstance(row["pass"], bool) for row in check["details"]), check
        assert check["pass"] == all(row["pass"] for row in check["details"]), check
    assert doc["pass"] == all(check["pass"] for check in doc["checks"])


def test_module_entry_point():
    import qshuffle.__main__  # noqa: F401  (import must not run main)


def test_every_exported_name_resolves():
    # a name left in an __all__ after its definition is removed would
    # break only `from qshuffle import *`
    modules = [qshuffle] + [
        importlib.import_module(f"qshuffle.{info.name}")
        for info in pkgutil.iter_modules(qshuffle.__path__)
    ]
    for m in modules:
        names = getattr(m, "__all__", [])
        assert len(set(names)) == len(names), m.__name__
        for name in names:
            assert hasattr(m, name), (m.__name__, name)
        exec(f"from {m.__name__} import *", {})


def test_benchmark_traced_names_have_one_home():
    # perfbench/child.py --trace 1 wraps each TRACED name in the one qshuffle
    # module that defines it and raises LookupError for none or several
    path = Path(__file__).resolve().parents[1] / "perfbench" / "child.py"
    spec = importlib.util.spec_from_file_location("perfbench_child", path)
    child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(child)
    modules = [qshuffle] + [
        importlib.import_module(f"qshuffle.{info.name}")
        for info in pkgutil.iter_modules(qshuffle.__path__)
    ]
    for name in child.TRACED:
        homes = [
            m.__name__ for m in modules
            if getattr(m.__dict__.get(name), "__module__", None) == m.__name__
        ]
        assert len(homes) == 1, (name, homes)
