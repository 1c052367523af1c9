import os

import pytest

import piq
import piq.etaq as etaq
from piq.cli import main

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestSturm:
    def test_paper_counts(self, capsys):
        code, out, _ = run(capsys, "sturm", "--level", "40", "--weight", "10")
        assert code == 0 and out.strip() == "61"
        code, out, _ = run(capsys, "sturm", "--level", "12", "--weight", "6")
        assert out.strip() == "13"


class TestCusps:
    def test_level8(self, capsys):
        code, out, _ = run(capsys, "cusps", "--level", "8")
        assert code == 0
        assert out.split() == ["0", "1/2", "1/4", "oo"]


class TestExpand:
    def test_pi1_five_terms(self, capsys):
        code, out, _ = run(capsys, "expand", "pi(1)", "--terms", "5")
        assert code == 0
        assert out.splitlines() == ["1/4 1", "5/4 2", "9/4 1", "13/4 2", "17/4 2"]

    @pytest.mark.parametrize(
        "dsl,terms,lines",
        [
            ("subst(pi(1),500)", 3, ["125 1", "625 2", "1125 1"]),
            ("subst(pi(1),2000)", 2, ["500 1", "2500 2"]),
            ("pi(1)^2*subst(pi(3),7)", 5, ["23/4 1", "27/4 4", "31/4 6", "35/4 8", "39/4 13"]),
            ("3", 3, ["0 3", "1 0", "2 0"]),
            ("pi(6000)", 2, ["1500 1", "7500 2"]),
            ("subst(pi(1),6000)", 2, ["1500 1", "7500 2"]),
        ],
    )
    def test_stride_of_substituted_series(self, capsys, dsl, terms, lines):
        code, out, _ = run(capsys, "expand", dsl, "--terms", str(terms))
        assert code == 0
        assert out.splitlines() == lines

    def test_term_off_the_probed_stride_refines_the_step(self, capsys):
        # The probe sees lam(4,0) on multiples of 4; pi(402) starts at q^(201/2).
        code, out, _ = run(capsys, "expand", "lam(4,0)+pi(402)", "--terms", "30")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 30 and lines[:3] == ["4 1", "9/2 0", "5 0"] and lines[-1] == "37/2 0"
        code, out, _ = run(capsys, "expand", "lam(4,0)+pi(402)", "--terms", "200")
        assert code == 0
        assert "100 31" in out.splitlines() and "201/2 1" in out.splitlines()

    def test_sum_of_far_apart_monomials_asks_for_few_steps(self, capsys, monkeypatch):
        # Each pi(6000) reaches q^13500 in 8 steps of q^6000, not 13,504.
        steps = []
        real = etaq._expansion

        def recording(halves, terms):
            steps.append(terms)
            return real(halves, terms)

        monkeypatch.setattr(etaq, "_expansion", recording)
        code, out, _ = run(capsys, "expand", "pi(6000) + pi(6000)", "--terms", "2")
        assert code == 0
        assert out.splitlines() == ["1500 2", "7500 4"]
        assert steps and max(steps) <= 8

    @pytest.mark.parametrize(
        "dsl,lines",
        [
            ("(pi(1)+pi(2))^-2",
             ["-1/2 1", "-1/4 -2", "0 3", "1/4 -4", "1/2 1", "3/4 6", "1 -17", "5/4 32"]),
            # Corpus L12-2's quotient.
            ("(pi(2) - pi(6))/(pi(2) + 3*pi(6))",
             ["0 1", "1 -4", "2 12", "3 -28", "4 60", "5 -120", "6 228", "7 -416"]),
            # Leading coefficient 1/2: the ratios to it are integral.
            ("(1/2+pi(1))^-4",
             ["0 16", "1/4 -128", "1/2 640", "3/4 -2560", "1 8960", "5/4 -28928",
              "3/2 88576", "7/4 -261120"]),
            # Ratio 6/5 to the leading coefficient: the recurrence runs on Fractions.
            ("(1/3*pi(1) + 2/5*pi(2))^-3",
             ["-3/4 27", "-1/2 -486/5", "-1/4 5832/25", "0 -11664/25", "1/4 84726/125",
              "1/2 -1978992/3125", "3/4 -1178064/15625", "1 165302208/78125"]),
        ],
    )
    def test_negative_powers(self, capsys, dsl, lines):
        code, out, _ = run(capsys, "expand", dsl, "--terms", "8")
        assert code == 0
        assert out.splitlines() == lines

    @pytest.mark.parametrize(
        "dsl,error",
        [("(pi(1)-pi(1))^-1", "NotInvertible: "), ("sqrt(-pi(1))", "NonRootLeadingCoefficient: ")],
    )
    def test_math_error_exits_1_without_traceback(self, capsys, dsl, error):
        code, out, err = run(capsys, "expand", dsl)
        assert code == 1
        assert err.startswith(error)
        assert "Traceback" not in err

    def test_bad_dsl_exits_2(self, capsys):
        code, _, err = run(capsys, "expand", "pi(", "--terms", "3")
        assert code == 2 and "parse error" in err

    def test_huge_integer_literal_exits_2(self, capsys):
        # A literal past Python's int-conversion digit limit is a parse error
        # at the literal, not a ValueError traceback.
        code, out, err = run(capsys, "verify", "--dsl", "pi(1) = " + "1" * 5000)
        assert code == 2 and out == ""
        assert err.startswith("parse error: 1:9: integer literal of 5000 digits")
        assert "Traceback" not in err

    def test_matches_golden_file(self, capsys):
        # Each "> dsl" block holds the stdout lines ("  "), the stderr lines
        # ("! ") and the exit code of `piq expand --terms 12 -- dsl`.
        with open(os.path.join(DATA, "expand_terms12.txt"), encoding="utf-8") as fh:
            golden = fh.read()
        got = []
        for dsl in (line[2:] for line in golden.splitlines() if line.startswith("> ")):
            code, out, err = run(capsys, "expand", "--terms", "12", "--", dsl)
            got.append(f"> {dsl}\n")
            got.extend(f"  {line}\n" for line in out.splitlines())
            got.extend(f"! {line}\n" for line in err.splitlines())
            got.append(f"exit {code}\n")
        assert "".join(got) == golden


class TestVerify:
    def test_single_id_tsv(self, capsys):
        code, out, _ = run(
            capsys, "verify", piq.corpus_path(), "--id", "L12-3", "--report", "tsv"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("#") and lines[1].startswith("id\t")
        assert lines[2] == "L12-3\tPROVEN\t6\t12\t1\t13\t13"

    def test_tsv_byte_stable(self, capsys):
        args = ("verify", piq.corpus_path(), "--id", "L8-1", "--id", "L12-1", "--report", "tsv")
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2

    def test_inline_refuted_exit_1(self, capsys):
        code, out, _ = run(capsys, "verify", "--dsl", "pi(1)^4 = dl3() + 1")
        assert code == 1
        assert "REFUTED" in out

    def test_corrupted_corpus_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.piq"
        bad.write_text("piqdsl 1\n\nid: X\nsource: s\ndsl: pi(1 = 2\n\n")
        code, out, err = run(capsys, "verify", str(bad))
        assert code == 2 and out == ""
        # The position is that of the '=' in the file, not inside the DSL text.
        assert err == "parse error: 5:11: in record 'X': expected ')' but found '='\n"

    @pytest.mark.parametrize(
        "argv,message",
        [
            (("verify", piq.corpus_path(), "--mode", "check", "--terms", "0"),
             "argument --terms: must be >= 1, got 0"),
            (("sturm", "--level", "0", "--weight", "2"), "argument --level: must be >= 1, got 0"),
            (("sturm", "--level", "4", "--weight", "-2"), "argument --weight: must be >= 0, got -2"),
            (("cusps", "--level", "0"), "argument --level: must be >= 1, got 0"),
            (("haupt", "--level", "11", "--target", "pi(1)", "--haupt", "pi(2)"),
             "usage error: Gamma_0(11) does not have genus zero"),
            (("expand", "pi(1)", "--terms", "0"), "argument --terms: must be >= 1, got 0"),
            (("expand", "pi(1)", "--terms", "-3"), "argument --terms: must be >= 1, got -3"),
            (("verify", "--dsl", "1 = 1", "--max-coefficients", "-5"),
             "argument --max-coefficients: must be >= 1, got -5"),
            (("discover", "1,2,3", "--max-degree", "0"),
             "argument --max-degree: must be >= 1, got 0"),
            (("haupt", "--level", "12", "--target", "pi(3)^2/pi(1)^2", "--haupt", "pi(2)/pi(6)",
              "--max-degree", "-1"), "argument --max-degree: must be >= 0, got -1"),
        ],
        ids=["terms", "sturm-level", "sturm-weight", "cusps-level", "haupt-genus",
             "expand-terms-0", "expand-terms-neg", "max-coefficients", "discover-degree",
             "haupt-degree"],
    )
    def test_out_of_range_number_exit_2(self, capsys, argv, message):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse rejects the value itself
            code = exc.code
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err.splitlines()[-1].endswith(message)
        assert "Traceback" not in err

    def test_bad_subst_hint_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.piq"
        bad.write_text(
            "piqdsl 1\n\nid: L12-1\n"
            "dsl: pi(2)^2 + 2*pi(2)*pi(6) = pi(1)*pi(3) + 3*pi(6)^2\nhint.subst: -4\n"
        )
        code, out, err = run(capsys, "verify", str(bad))
        assert code == 2 and out == ""
        assert err == (
            "parse error: 5:1: unknown field 'hint.subst'; "
            "a record has only id, source, dsl\n"
        )

    @pytest.mark.parametrize(
        "extra,message",
        [
            ("hint.subst: 4", "5:1: unknown field 'hint.subst'"),
            ("hint.clear: pi(1)", "5:1: unknown field 'hint.clear'"),
            ("note: x", "5:1: unknown field 'note'"),
            ("dsl: pi(1) = 2", "5:1: repeated field 'dsl'"),
            ("hint.mode: check", "5:1: unknown field 'hint.mode'"),
        ],
    )
    def test_bad_record_field_exit_2(self, tmp_path, capsys, extra, message):
        bad = tmp_path / "bad.piq"
        bad.write_text(
            "piqdsl 1\n\nid: L12-1\n"
            f"dsl: pi(2)^2 + 2*pi(2)*pi(6) = pi(1)*pi(3) + 3*pi(6)^2\n{extra}\n"
        )
        code, out, err = run(capsys, "verify", str(bad))
        assert code == 2 and out == ""
        assert err.startswith(f"parse error: {message}") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "dsl,message",
        [
            ("pi(0) = 1", "1:4: pi index must be >= 1, got 0"),
            ("E2(0) = 1", "1:4: E2 scale must be >= 1, got 0"),
            ("lam(1,3) = 1", "1:1: lam(1,3) requires 0 <= b < a"),
        ],
    )
    def test_semantic_error_exit_2(self, capsys, dsl, message):
        code, out, err = run(capsys, "verify", "--dsl", dsl)
        assert (code, out, err) == (2, "", f"parse error: {message}\n")

    def test_semantic_error_in_corpus_at_file_position(self, tmp_path, capsys):
        bad = tmp_path / "bad.piq"
        bad.write_text("piqdsl 1\n\nid: X\nsource: s\ndsl: pi(0) = 1\n")
        code, out, err = run(capsys, "verify", str(bad))
        assert (code, out) == (2, "")
        assert err == "parse error: 5:9: in record 'X': pi index must be >= 1, got 0\n"

    def test_deleted_jobs_flag_exit_2(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["verify", piq.corpus_path(), "--jobs", "2"])
        out, err = capsys.readouterr()
        assert info.value.code == 2 and out == ""
        assert err.splitlines()[-1].endswith("unrecognized arguments: --jobs 2")
        assert "Traceback" not in err

    def test_unknown_id_exit_2(self, capsys):
        code, _, err = run(capsys, "verify", piq.corpus_path(), "--id", "NOPE")
        assert code == 2

    def test_check_mode_corpus_matches_golden_file(self, capsys):
        code, out, _ = run(
            capsys, "verify", piq.corpus_path(), "--mode", "check", "--terms", "30", "--report", "tsv"
        )
        assert code == 0
        with open(os.path.join(DATA, "corpus_check_terms30.tsv"), encoding="utf-8") as fh:
            assert out == fh.read()

    def test_check_mode(self, capsys):
        code, out, _ = run(
            capsys, "verify", piq.corpus_path(), "--id", "La2-1a", "--mode", "check", "--terms", "40"
        )
        assert code == 0 and "CHECKED" in out

    def test_mixed_character_identity_refuted_exit_1(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--dsl", "2*pi(8)^2 + pi(4)^2 = pi(2)*pi(4)^1/2*pi(8)^1/2",
            "--report", "tsv",
        )
        assert code == 1
        assert out.splitlines()[2] == "inline\tREFUTED\t2\t16\t1\t5\t3"

    def test_exit_codes_disjoint(self, capsys):
        ok, _, _ = run(capsys, "verify", "--dsl", "1 = 1")
        bad_math, _, _ = run(capsys, "verify", "--dsl", "pi(1)^4 = dl3() + 1")
        bad_usage, _, _ = run(capsys, "verify", "--dsl", "pi(1")
        assert (ok, bad_math, bad_usage) == (0, 1, 2)

    def test_verbose_certificate_dump(self, capsys):
        code, out, _ = run(capsys, "verify", piq.corpus_path(), "--id", "L8-1", "--verbose")
        assert code == 0
        assert "term" in out and "orders" in out

    def test_verbose_corpus_matches_golden_file(self, capsys):
        # Every certificate's terms, coefficients and cusp orders, pinned.
        code, out, _ = run(capsys, "verify", piq.corpus_path(), "--verbose")
        assert code == 0
        with open(os.path.join(DATA, "corpus_verbose.txt"), encoding="utf-8") as fh:
            assert out == fh.read()

    def test_second_verbose_sweep_in_one_process_matches_golden_file(self, capsys):
        # The second sweep reads the per-process expansion and cusp-order memos.
        with open(os.path.join(DATA, "corpus_verbose.txt"), encoding="utf-8") as fh:
            golden = fh.read()
        for _ in range(2):
            code, out, _ = run(capsys, "verify", piq.corpus_path(), "--verbose")
            assert (code, out) == (0, golden)

    def test_lambert_pairs_match_golden_file(self, capsys):
        # Each "> dsl" block holds the stdout lines ("  "), the stderr lines
        # ("! ") and the exit code of `piq verify --dsl dsl -v`.
        with open(os.path.join(DATA, "lambert_pairs_verbose.txt"), encoding="utf-8") as fh:
            golden = fh.read()
        got = []
        for dsl in (line[2:] for line in golden.splitlines() if line.startswith("> ")):
            code, out, err = run(capsys, "verify", "--dsl", dsl, "-v")
            got.append(f"> {dsl}\n")
            got.extend(f"  {line}\n" for line in out.splitlines())
            got.extend(f"! {line}\n" for line in err.splitlines())
            got.append(f"exit {code}\n")
        assert "".join(got) == golden

    def test_non_homogeneous_weights_print_as_rationals(self, capsys):
        code, out, _ = run(capsys, "verify", "--dsl", "sqrt(2*pi(1)) = pi(1)")
        assert code == 1
        # Terms of different weights are compared part by part; the terms'
        # mod-4 residues still have to agree.
        assert out == "inline: UNCERTIFIED -- mixed mod-4 residue classes [0, 1]\n"

    def test_negative_radicand_is_an_error_in_both_modes(self, capsys):
        for mode in ("proof", "check"):
            code, out, _ = run(capsys, "verify", "--dsl", "sqrt(-pi(1)) = pi(1)", "--mode", mode)
            assert code == 1
            assert out.startswith("inline: ERROR -- NonRootLeadingCoefficient: "), mode

    R1, R2 = "pi(1)^2+pi(2)^2", "pi(1)*pi(3)+pi(2)^2"
    A = "(sqrt(pi(1)^2 + pi(2)^2) + sqrt(pi(1)*pi(2)))"

    @pytest.mark.parametrize(
        "dsl",
        [
            # A product of radical sums is the same in every grouping.
            f"{A}^4 = {A}*{A}*{A}*{A}",
            f"(sqrt({R1})+sqrt({R2}))^2 = {R1}+{R2}+2*sqrt(({R1})*({R2}))",
        ],
        ids=["fourth_power", "binomial_square"],
    )
    def test_radical_products_proven(self, capsys, dsl):
        code, out, _ = run(capsys, "verify", "--dsl", dsl)
        assert (code, out.split(" (")[0]) == (0, "inline: PROVEN")

    @pytest.mark.parametrize(
        "argv, line",
        [
            (["--dsl", "pi(1) = pi(1)^2"],
             "inline: REFUTED (compared 1) -- coefficient mismatch at q^1/4: 1 vs 0"),
            (["--dsl", "pi(1) = pi(1) + 1", "--mode", "check"],
             "inline: REFUTED (compared 1) -- coefficient mismatch at q^0: 0 vs 1"),
        ],
    )
    def test_refuted_by_check_prints_no_certificate_fields(self, capsys, argv, line):
        code, out, _ = run(capsys, "verify", *argv)
        assert code == 1
        assert out == line + "\n"
        code, out, _ = run(capsys, "verify", *argv, "--report", "tsv")
        assert out.splitlines()[2] == "inline\tREFUTED\t-\t-\t-\t-\t1"


class TestDiscoverCmd:
    def test_level12_relation_line(self, capsys):
        code, out, _ = run(capsys, "discover", "1,2,3,6", "--max-degree", "2")
        assert code == 0
        from piq.ident import parse_identity
        from piq.verify import prove

        line = out.strip().splitlines()[0]
        assert prove(parse_identity(line)).verdict == "PROVEN"
        assert "pi(2)^2" in line


class TestHauptCmd:
    def test_level8(self, capsys):
        code, out, _ = run(
            capsys,
            "haupt",
            "--level", "8",
            "--target", "pi(1)^2/(pi(2)*pi(4))",
            "--haupt", "pi(2)^2/pi(4)^2",
        )
        assert code == 0
        assert "numerator: [4, 1]" in out
        assert "denominator: [1]" in out
        assert "PROVEN" in out


class TestEnvCap:
    def test_max_terms_ignored(self, capsys, monkeypatch):
        # --terms is the only window setting; the old environment cap is not read.
        monkeypatch.setenv("PIQ_MAX_TERMS", "0")
        code, out, err = run(capsys, "verify", "--dsl", "1 = 1", "--mode", "check")
        assert code == 0 and err == ""
        assert out == "inline: CHECKED (100 coefficients) -- first 100 coefficients agree\n"

    def test_max_terms_does_not_cap_proofs(self, capsys, monkeypatch):
        monkeypatch.setenv("PIQ_MAX_TERMS", "10")
        code, out, _ = run(
            capsys, "verify", piq.corpus_path(), "--id", "L18-4", "--report", "tsv"
        )
        assert code == 0
        assert out.splitlines()[2] == "L18-4\tPROVEN\t13\t72\t4\t157\t157"
