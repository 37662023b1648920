import os
import subprocess
import sys
from pathlib import Path

import pytest

from hallharem.cli import main

GOLDEN = Path(__file__).parent / "golden"

K12_BG = "k 2\nA 0: 0 1\n"
PIGEON_BG = "A 0: 0\nA 1: 0\n"


@pytest.fixture
def k12_file(tmp_path):
    p = tmp_path / "k12.bg"
    p.write_text(K12_BG)
    return str(p)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- finite --------------------------------------------------------------------


def test_finite_k12(capsys, k12_file):
    code, out, _ = run(capsys, "finite", k12_file)
    assert code == 0
    assert out == "0 -> 0 1\n"


def test_finite_k_flag_overrides_header(capsys, k12_file):
    # with k forced to 1 the two required rights cannot both be covered
    code, out, _ = run(capsys, "finite", k12_file, "--k", "1")
    assert code == 1
    assert out == "INFEASIBLE\n"


def test_finite_infeasible(capsys, tmp_path):
    p = tmp_path / "p.bg"
    p.write_text(PIGEON_BG)
    code, out, _ = run(capsys, "finite", str(p), "--k", "1")
    assert code == 1
    assert out == "INFEASIBLE\n"


def test_finite_brute_check(capsys, k12_file):
    code, out, _ = run(capsys, "finite", k12_file, "--brute-check")
    assert code == 0
    assert out == "0 -> 0 1\n"


def test_finite_parse_error(capsys, tmp_path):
    p = tmp_path / "bad.bg"
    p.write_text("A 0: 1 1\n")
    code, _, err = run(capsys, "finite", str(p), "--k", "1")
    assert code == 2
    assert "line 1" in err


def test_finite_missing_k(capsys, tmp_path):
    p = tmp_path / "nok.bg"
    p.write_text("A 0: 0\n")
    code, _, err = run(capsys, "finite", str(p))
    assert code == 2


# -- lazy ----------------------------------------------------------------------


def test_lazy_finite_file(capsys, k12_file):
    code, out, _ = run(capsys, "lazy", "--file", k12_file, "--left", "0")
    assert code == 0
    assert out == "L 0 -> 0 1\n"
    code, out, _ = run(capsys, "lazy", "--file", k12_file, "--right", "1")
    assert code == 0
    assert out == "R 1 -> 0\n"


def test_lazy_f2_left_zero(capsys):
    code, out, _ = run(capsys, "lazy", "--graph", "f2", "--k", "2", "--left", "0")
    assert code == 0
    assert out == "L 0 -> 0 1\n"


def test_lazy_ball_budget(capsys):
    code, _, err = run(
        capsys, "lazy", "--graph", "f2", "--k", "2", "--left", "0", "--max-ball", "10"
    )
    assert code == 1
    assert "exceeds" in err


@pytest.mark.parametrize("size", ["0", "-5"])
def test_lazy_nonpositive_max_ball(capsys, size):
    # A usage error (exit 2), not a ball that outgrew its budget (exit 1).
    code, out, err = run(capsys, "lazy", "--graph", "f2", "--left", "0", "--max-ball", size)
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


@pytest.mark.parametrize("side", ["--left", "--right"])
def test_lazy_f2_negative_index(capsys, side):
    # Rejected before any step runs: a step would trip the budget (exit 1).
    code, out, err = run(capsys, "lazy", "--graph", "f2", side, "-1", "--max-ball", "10")
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


def test_lazy_witness_refuted(capsys, tmp_path):
    p = tmp_path / "starved.bg"
    p.write_text("A 0: 0\n")
    code, _, err = run(capsys, "lazy", "--file", p.as_posix(), "--k", "2", "--left", "0")
    assert code == 1
    assert "witness" in err


# -- decompose -------------------------------------------------------------------


def test_decompose_classic_window(capsys):
    code, out, _ = run(capsys, "decompose", "--classic", "--window", "0..100")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 101  # header + 100 rows
    assert lines[0].startswith("index\tword")
    code2, out2, _ = run(capsys, "decompose", "--classic", "--window", "0..100")
    assert out2 == out  # byte-identical across reruns


def test_decompose_empty_window(capsys):
    code, out, _ = run(capsys, "decompose", "--classic", "--window", "0..0")
    assert code == 0
    assert out.splitlines() == ["index\tword\tpsi1\tpsi1_word\tpsi2\tpsi2_word\ttheta1\ttheta2"]


def test_decompose_to_file(capsys, tmp_path):
    target = tmp_path / "dump.tsv"
    code, out, _ = run(
        capsys, "decompose", "--classic", "--window", "0..5", "--out", str(target)
    )
    assert code == 0 and out == ""
    assert len(target.read_text().splitlines()) == 6


def test_decompose_bad_window(capsys):
    code, _, err = run(capsys, "decompose", "--classic", "--window", "5")
    assert code == 2


def test_decompose_engine_window(capsys):
    code, out, _ = run(capsys, "decompose", "--window", "0..1")
    assert code == 0
    assert out.splitlines()[1] == "0\te\t0\te\t1\ta\te\ta"


# -- verify ----------------------------------------------------------------------


def test_verify_classic_pass(capsys):
    code, out, _ = run(
        capsys, "verify", "--what", "decomposition", "--classic", "--window", "300"
    )
    assert code == 0
    assert out.startswith("PASS")


def test_verify_classic_planted_defect(capsys):
    code, out, _ = run(
        capsys,
        "verify",
        "--what",
        "decomposition",
        "--classic",
        "--window",
        "60",
        "--classic-defect",
        "7",
    )
    assert code == 1
    assert out.startswith("FAIL")
    assert "@7" in out


def test_verify_engine_decomposition(capsys):
    code, out, _ = run(capsys, "verify", "--what", "decomposition", "--steps", "2")
    assert code == 0
    assert out == "PASS (2 indices)\n"


@pytest.mark.parametrize(
    "flags",
    [
        ("--classic", "--window", "0"),
        ("--classic", "--window", "-5"),
        ("--steps", "0"),
        ("--steps", "-1"),
    ],
)
def test_verify_decomposition_rejects_empty_check(capsys, flags):
    code, out, err = run(capsys, "verify", "--what", "decomposition", *flags)
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


def test_verify_matching_of_finite_output(capsys, tmp_path, k12_file):
    code, out, _ = run(capsys, "finite", k12_file)
    assert code == 0
    mfile = tmp_path / "m.txt"
    mfile.write_text(out)
    code, out, _ = run(
        capsys,
        "verify",
        "--what",
        "matching",
        "--file",
        k12_file,
        "--matching",
        str(mfile),
    )
    assert code == 0
    assert out == "PASS\n"


def test_verify_matching_rejects_tampered(capsys, tmp_path, k12_file):
    mfile = tmp_path / "m.txt"
    mfile.write_text("0 -> 0\n")
    code, out, _ = run(
        capsys,
        "verify",
        "--what",
        "matching",
        "--file",
        k12_file,
        "--matching",
        str(mfile),
    )
    assert code == 1
    assert out.startswith("FAIL")


def test_verify_matching_rejects_repeated_left(capsys, tmp_path):
    gfile = tmp_path / "g.bg"
    gfile.write_text("A 0: 0 1\nA 1: 2 3\n")
    mfile = tmp_path / "m.txt"
    mfile.write_text("0 -> 2 3\n0 -> 0 1\n1 -> 2 3\n")
    code, out, err = run(
        capsys,
        "verify",
        "--what",
        "matching",
        "--file",
        str(gfile),
        "--k",
        "2",
        "--matching",
        str(mfile),
    )
    assert code == 2
    assert out == ""
    assert "left index 0" in err


# -- wbt -------------------------------------------------------------------------


def test_wbt_witness(capsys):
    code, out, _ = run(capsys, "wbt", "--rank", "2", "--set", "a,b")
    assert code == 0
    assert out == "WITNESS a b\n"


def test_wbt_not_witness(capsys):
    code, out, _ = run(capsys, "wbt", "--rank", "2", "--set", "a,aa,A")
    assert code == 1
    assert out == "NOT-WITNESS\n"


def test_wbt_identity_only(capsys):
    code, out, _ = run(capsys, "wbt", "--rank", "2", "--set", "e")
    assert code == 1
    assert out == "NOT-WITNESS\n"


# -- folner ----------------------------------------------------------------------


def test_folner_z_finds_run(capsys):
    code, out, _ = run(
        capsys,
        "folner",
        "--rank", "1", "--set", "a", "--n", "3",
        "--ground-radius", "3", "--max-size", "5",
    )
    assert code == 0
    assert out == "e,a,A,aa\n"


def test_folner_f2_none(capsys):
    code, out, _ = run(
        capsys,
        "folner",
        "--rank", "2", "--set", "a,b", "--n", "2",
        "--ground-radius", "2", "--max-size", "5",
    )
    assert code == 1
    assert out == "NONE\n"


def test_folner_guard_exceeded(capsys):
    code, _, err = run(
        capsys,
        "folner",
        "--rank", "2", "--set", "a,b", "--n", "2",
        "--ground-radius", "3", "--max-size", "5",
    )
    assert code == 2


def test_unknown_flag_rejected(capsys):
    code, _, _ = run(capsys, "wbt", "--rank", "2", "--set", "a,b", "--bogus")
    assert code == 2


# -- golden output ---------------------------------------------------------------


@pytest.mark.parametrize(
    "name, argv, code",
    [
        ("lazy_f2_left_0", ["lazy", "--graph", "f2", "--left", "0"], 0),
        ("lazy_f2_right_2", ["lazy", "--graph", "f2", "--right", "2"], 0),
        (
            "lazy_f2_left_0_corollary",
            ["lazy", "--graph", "f2", "--left", "0", "--mode", "corollary"],
            0,
        ),
        ("verify_decomposition_steps_2", ["verify", "--what", "decomposition", "--steps", "2"], 0),
        ("decompose_classic_0_40", ["decompose", "--window", "0..40", "--classic"], 0),
        # past brute-force sizes: 400 lefts, 800 rights, k=2, degree 6
        ("finite_planted_400_k2", ["finite", str(GOLDEN / "planted_400_k2.bg")], 0),
        (
            "lazy_file_planted_400_k2_right_17",
            ["lazy", "--file", str(GOLDEN / "planted_400_k2.bg"), "--right", "17"],
            0,
        ),
    ],
)
def test_cli_golden_stdout(name, argv, code):
    """The exact stdout bytes and exit code, run as a separate process."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "hallharem.cli", *argv],
        capture_output=True,
        env=env,
        timeout=300,
    )
    assert proc.returncode == code
    assert proc.stdout == (GOLDEN / f"{name}.out").read_bytes()
