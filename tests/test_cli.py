import pytest

import piq
from piq.cli import main


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
        ],
    )
    def test_stride_of_substituted_series(self, capsys, dsl, terms, lines):
        code, out, _ = run(capsys, "expand", dsl, "--terms", str(terms))
        assert code == 0
        assert out.splitlines() == lines

    def test_bad_dsl_exits_2(self, capsys):
        code, _, err = run(capsys, "expand", "pi(", "--terms", "3")
        assert code == 2 and "parse error" in err


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
        bad.write_text("piqdsl 1\n\nid: X\ndsl: pi(1 = 2\n")
        code, _, err = run(capsys, "verify", str(bad))
        assert code == 2
        assert "parse error" in err and "1:6" in err

    def test_unknown_id_exit_2(self, capsys):
        code, _, err = run(capsys, "verify", piq.corpus_path(), "--id", "NOPE")
        assert code == 2

    def test_check_mode(self, capsys):
        code, out, _ = run(
            capsys, "verify", piq.corpus_path(), "--id", "La2-1a", "--mode", "check", "--terms", "40"
        )
        assert code == 0 and "CHECKED" in out

    def test_exit_codes_disjoint(self, capsys):
        ok, _, _ = run(capsys, "verify", "--dsl", "1 = 1")
        bad_math, _, _ = run(capsys, "verify", "--dsl", "pi(1)^4 = dl3() + 1")
        bad_usage, _, _ = run(capsys, "verify", "--dsl", "pi(1")
        assert (ok, bad_math, bad_usage) == (0, 1, 2)

    def test_verbose_certificate_dump(self, capsys):
        code, out, _ = run(capsys, "verify", piq.corpus_path(), "--id", "L8-1", "--verbose")
        assert code == 0
        assert "term" in out and "orders" in out

    def test_jobs_parallel_matches_serial(self, capsys):
        args = ["verify", piq.corpus_path(), "--id", "L8-1", "--id", "L12-1", "--id", "L12-2", "--report", "tsv"]
        _, serial, _ = run(capsys, *args)
        _, parallel, _ = run(capsys, *(args + ["--jobs", "2"]))
        assert serial == parallel


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
    def test_max_terms_cap(self, capsys, monkeypatch):
        monkeypatch.setenv("PIQ_MAX_TERMS", "3")
        code, out, _ = run(capsys, "expand", "pi(1)", "--terms", "10")
        assert code == 0
        assert len(out.splitlines()) == 3
