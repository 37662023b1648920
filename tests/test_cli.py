import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

from hallharem import flow_matching
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
    # the same file after a UTF-8 byte-order mark
    Path(k12_file).write_bytes(b"\xef\xbb\xbf" + K12_BG.encode("utf-8"))
    assert run(capsys, "finite", k12_file) == (0, "0 -> 0 1\n", "")


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


def test_finite_brute_check_infeasible(capsys, tmp_path):
    p = tmp_path / "p.bg"
    p.write_text(PIGEON_BG)
    assert run(capsys, "finite", str(p), "--k", "1", "--brute-check") == (1, "INFEASIBLE\n", "")


@pytest.mark.parametrize(
    "wrong", [None, flow_matching.HaremMatching(stars={0: (1, 0)})], ids=["none", "other"]
)
def test_finite_brute_check_mismatch(capsys, k12_file, monkeypatch, wrong):
    # Brute force finds 0 -> 0 1, so any other answer, None included, differs.
    monkeypatch.setattr(flow_matching, "solve_harem", lambda req: wrong)
    assert run(capsys, "finite", k12_file, "--brute-check") == (2, "", "BRUTE-CHECK MISMATCH\n")


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


@pytest.mark.parametrize("mode, k", [("tight", "3"), ("corollary", "9")])
def test_lazy_f2_rejects_k_the_witness_does_not_back(capsys, mode, k):
    # |R^n1 · B_r| - k|B_r| stays bounded for k = 3^n1, so the identity
    # witness fails on large balls.
    code, out, err = run(
        capsys, "lazy", "--graph", "f2", "--mode", mode, "--k", k, "--left", "0",
        "--max-ball", "200000",
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


def test_lazy_f2_k_one(capsys):
    code, out, _ = run(capsys, "lazy", "--graph", "f2", "--k", "1", "--left", "0")
    assert code == 0
    assert out == "L 0 -> 0\n"


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


@pytest.mark.parametrize("window", ["5..3", "1..0"])
def test_decompose_rejects_reversed_window(capsys, window):
    # A window ending before it starts would print a bare header and exit 0.
    code, out, err = run(capsys, "decompose", "--classic", "--window", window)
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


def test_decompose_engine_window(capsys):
    code, out, _ = run(capsys, "decompose", "--window", "0..1")
    assert code == 0
    assert out.splitlines()[1] == "0\te\t0\te\t1\ta\te\ta"
    # --mode defaults to tight
    assert run(capsys, "decompose", "--window", "0..1", "--mode", "tight") == (code, out, "")


@pytest.mark.parametrize(
    "argv",
    [
        ("decompose", "--window", "0..3", "--classic", "--mode", "corollary"),
        ("decompose", "--window", "0..3", "--classic", "--mode", "tight"),
        ("lazy", "--file", str(GOLDEN / "planted_400_k2.bg"), "--right", "17", "--mode", "corollary"),
        ("lazy", "--file", str(GOLDEN / "planted_400_k2.bg"), "--right", "17", "--mode", "tight"),
    ],
)
def test_mode_rejected_where_it_has_no_effect(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "--what", "decomposition", "--steps", "1", "--window", "7"),
        ("verify", "--what", "decomposition", "--classic", "--window", "20", "--steps", "9"),
        ("verify", "--what", "decomposition", "--classic", "--window", "20", "--max-ball", "3"),
        (
            "verify", "--what", "matching", "--file", str(GOLDEN / "planted_400_k2.bg"),
            "--matching", str(GOLDEN / "finite_planted_400_k2.out"), "--classic", "--steps", "3",
        ),
        ("verify", "--what", "decomposition", "--steps", "1", "--file", "nonexist.bg"),
        ("verify", "--what", "decomposition", "--steps", "1", "--k", "3", "--matching", "x"),
        ("decompose", "--window", "0..2", "--classic", "--max-ball", "1"),
    ],
)
def test_flag_rejected_where_it_has_no_effect(capsys, argv):
    # A run that ignored the flag would report on something else than asked.
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "--" in err


def test_verify_defaults(capsys):
    # Unset flags resolve to 2 engine steps and a classic window of 1000.
    assert run(capsys, "verify", "--what", "decomposition") == (0, "PASS (2 indices)\n", "")
    assert run(capsys, "verify", "--what", "decomposition", "--classic") == (
        0, "PASS (1000 indices)\n", ""
    )


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


@pytest.mark.parametrize(
    "flags",
    [
        ("--classic", "--window", "10", "--classic-defect", "-3"),
        ("--classic", "--window", "10", "--classic-defect", "50"),
        ("--classic", "--window", "10", "--classic-defect", "10"),
        ("--classic-defect", "7"),
    ],
)
def test_verify_rejects_unchecked_defect(capsys, flags):
    # A defect outside the window, or on the engine path, would never be
    # checked, so the run would PASS without testing it.
    code, out, err = run(capsys, "verify", "--what", "decomposition", *flags)
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


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


def test_verify_matching_reads_stdin_and_skips_comments(capsys, monkeypatch, k12_file):
    for bom in ("", "\ufeff"):
        monkeypatch.setattr(sys, "stdin", io.StringIO(bom + "# finite output\n\n0 -> 0 1\n"))
        code, out, err = run(
            capsys, "verify", "--what", "matching", "--file", k12_file, "--matching", "-"
        )
        assert (code, out, err) == (0, "PASS\n", "")


@pytest.mark.parametrize("end", ["\n", "\r\n"], ids=["lf", "crlf"])
@pytest.mark.parametrize(
    "char", ["\u2028", "\x85", "\x0c"], ids=["line-separator", "next-line", "form-feed"]
)
def test_verify_matching_comments_may_hold_other_line_breaks(capsys, tmp_path, char, end):
    bg, mfile = tmp_path / "g.bg", tmp_path / "m.txt"
    graph = f"# note{char}more\nk 2\nA 0: 0 1\n".replace("\n", end)
    bg.write_bytes(graph.encode("utf-8"))
    mfile.write_bytes(f"# finite{char}output\n0 -> 0 1\n".replace("\n", end).encode("utf-8"))
    argv = ("verify", "--what", "matching", "--file", str(bg), "--matching", str(mfile))
    assert run(capsys, *argv) == (0, "PASS\n", "")
    bg.write_bytes((graph + "B" + end).encode("utf-8"))
    assert run(capsys, *argv) == (2, "", "error: line 4: unrecognized line: 'B'\n")


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


def verify_matching_cli(capsys, tmp_path, bg, matching):
    gfile = tmp_path / "g.bg"
    gfile.write_text(bg)
    mfile = tmp_path / "m.txt"
    mfile.write_text(matching)
    return run(
        capsys, "verify", "--what", "matching", "--file", str(gfile), "--matching", str(mfile)
    )


def test_verify_matching_rejects_left_the_graph_lacks(capsys, tmp_path):
    # Every left is matched correctly; the extra empty line for 99 must fail.
    code, out, err = verify_matching_cli(
        capsys, tmp_path, "k 2\nA 0: 0 1\nA 1: 2 3\n", "0 -> 0 1\n1 -> 2 3\n99 ->\n"
    )
    assert (code, out, err) == (1, "FAIL\n  left-not-exactly-k(99,)\n", "")


def test_verify_matching_failure_report_pinned(capsys, tmp_path):
    # Left 0 takes k+1 partners, left 1 a non-edge (5) and a right that left
    # 0 also holds (2), left 3 is missing and left 9 is not in the graph.
    bg = "k 2\nA 0: 0 1 2\nA 1: 2 3 4\nA 2: 4 5\nA 3: 6 7\n"
    matching = "0 -> 0 1 2\n1 -> 2 5\n2 -> 4 5\n9 ->\n"
    code, out, err = verify_matching_cli(capsys, tmp_path, bg, matching)
    assert code == 1 and err == ""
    assert out.splitlines() == [
        "FAIL",
        "  left-not-exactly-k(0,)",
        "  non-edge(1, 5)",
        "  left-not-exactly-k(9,)",
        "  left-not-exactly-k(3,)",
        "  right-not-exactly-once(2,)",
        "  right-not-exactly-once(3,)",
        "  right-not-exactly-once(5,)",
        "  right-not-exactly-once(6,)",
        "  right-not-exactly-once(7,)",
        "  right-over-once(2,)",
        "  right-over-once(5,)",
    ]


# -- wbt -------------------------------------------------------------------------


def test_wbt_witness(capsys):
    code, out, _ = run(capsys, "wbt", "--rank", "2", "--set", "a,b")
    assert code == 0
    assert out == "WITNESS a b\n"
    # from rank 5 up, e is the fifth generator, not the identity
    assert run(capsys, "wbt", "--rank", "5", "--set", "e,a") == (0, "WITNESS a e\n", "")


def test_wbt_not_witness(capsys):
    code, out, _ = run(capsys, "wbt", "--rank", "2", "--set", "a,aa,A")
    assert code == 1
    assert out == "NOT-WITNESS\n"


def test_wbt_identity_only(capsys):
    code, out, _ = run(capsys, "wbt", "--rank", "2", "--set", "e")
    assert code == 1
    assert out == "NOT-WITNESS\n"


@pytest.mark.parametrize(
    "argv",
    [("wbt", "--rank", "2", "--set", ","),
     ("folner", "--rank", "2", "--set", ",", "--n", "2", "--ground-radius", "1",
      "--max-size", "2")],
)
def test_empty_word_set_rejected(capsys, argv):
    # An answer about no words at all would be vacuous.
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


# -- folner ----------------------------------------------------------------------


def test_folner_z_finds_run(capsys):
    for rank, word, found in (
        ("1", "a", "e,a,A,aa\n"),
        ("5", "e", "1,e,E,ee\n"),  # from rank 5 up, the identity prints as 1
    ):
        code, out, _ = run(
            capsys,
            "folner",
            "--rank", rank, "--set", word, "--n", "3",
            "--ground-radius", "3", "--max-size", "5",
        )
        assert code == 0
        assert out == found


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


def test_folner_guard_stops_a_huge_ground_early(capsys):
    # The ground past radius 3 is never built, so radius 10^6 fails as fast.
    code, out, err = run(
        capsys,
        "folner",
        "--rank", "2", "--set", "a,b", "--n", "2",
        "--ground-radius", "1000000", "--max-size", "5",
    )
    assert (code, out) == (2, "")
    assert err == "error: ground capped at 24, got 53\n"


@pytest.mark.parametrize(
    "flags", [("--n", "1", "--max-size", "0"), ("--n", "1", "--max-size", "-3"),
              ("--n", "0", "--max-size", "0")]
)
def test_folner_rejects_search_that_cannot_run(capsys, flags):
    # NONE would claim a search that never ran found nothing.
    code, out, err = run(
        capsys, "folner", "--rank", "2", "--set", "a,b", "--ground-radius", "1", *flags
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


VERIFY_MATCHING = ("verify", "--what", "matching", "--file", "{bg}", "--matching", "{m}")


@pytest.mark.parametrize(
    "argv, matching, err",
    [
        (("verify", "--what", "matching"), "",
         "error: matching verification needs --file and --matching\n"),
        (VERIFY_MATCHING, "0 0 1\n", "error: bad matching line: '0 0 1'\n"),
        (VERIFY_MATCHING, "0 -> x\n", "error: bad matching line: '0 -> x'\n"),
        (VERIFY_MATCHING, "# ok\nx -> 0 1\n", "error: bad matching line: 'x -> 0 1'\n"),
        (("folner", "--rank", "2", "--set", "a,b", "--n", "2", "--ground-radius", "-1",
          "--max-size", "2"), "",
         "error: radius must be >= 0\n"),
        (("decompose", "--window", "0..", "--classic"), "",
         "error: window must look like 0..100, got '0..'\n"),
        (("decompose", "--window", "..5", "--classic"), "",
         "error: window must look like 0..100, got '..5'\n"),
        (("decompose", "--window", "5", "--classic"), "",
         "error: window must look like 0..100, got '5'\n"),
        # int() takes each of these; an index is ASCII decimal digits only
        (VERIFY_MATCHING, "0 -> 0 +1\n", "error: bad matching line: '0 -> 0 +1'\n"),
        (("decompose", "--window", "\u0660..\u0663", "--classic"), "",
         "error: window must look like 0..100, got '\u0660..\u0663'\n"),
        (("decompose", "--window", "+0..3", "--classic"), "",
         "error: window must look like 0..100, got '+0..3'\n"),
    ],
    ids=["matching-without-files", "bad-matching-line", "bad-matching-right",
         "bad-matching-left", "negative-ground-radius", "window-without-end",
         "window-without-start", "window-without-dots", "plus-matching-right",
         "arabic-indic-window", "plus-window"],
)
def test_input_error_message(capsys, tmp_path, k12_file, argv, matching, err):
    mfile = tmp_path / "m.txt"
    mfile.write_text(matching)
    argv = [a.format(bg=k12_file, m=mfile) for a in argv]
    assert run(capsys, *argv) == (2, "", err)


def test_padded_indices_still_read(capsys, tmp_path, k12_file):
    # spaces around a token and leading zeros are still plain decimal
    window = run(capsys, "decompose", "--window", "0..2", "--classic")
    assert window[0] == 0
    assert run(capsys, "decompose", "--window", " 0 .. 2 ", "--classic") == window
    mfile = tmp_path / "m.txt"
    mfile.write_text("  0  ->  00   1  \n")
    argv = [a.format(bg=k12_file, m=mfile) for a in VERIFY_MATCHING]
    assert run(capsys, *argv) == (0, "PASS\n", "")


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
        # the longest finite-engine run: hundreds of closed balls at radius 803
        (
            "lazy_file_planted_400_k2_right_399",
            ["lazy", "--file", str(GOLDEN / "planted_400_k2.bg"), "--right", "399"],
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
