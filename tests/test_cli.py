"""Command line behaviour, driven in-process through main(argv)."""

import io
import shutil
import subprocess
import sys

import pytest

from rellaws import PropertyId, Relation, golden, property_vector
from rellaws.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestProps:
    def test_identity_relation(self, capsys, tmp_path):
        path = tmp_path / "id.txt"
        path.write_text("10\n01\n")
        code, out, _ = run(capsys, "props", str(path))
        assert code == 0
        lines = out.splitlines()
        vec = property_vector(Relation.from_text("10\n01"))
        assert lines[0] == "n 2"
        assert lines[1] == f"vector {vec:06x}"
        props = lines[2].removeprefix("properties: ").split()
        assert {"Refl", "CoRefl", "Sym", "Trans"} <= set(props)
        assert "Empty" not in props
        assert lines[3].startswith("also:")
        assert lines[4].startswith("kinds:") and "equivalence" in lines[4]

    def test_reads_stdin(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.StringIO("01\n00\n"))
        code, out, _ = run(capsys, "props", "-")
        assert code == 0
        assert out.splitlines()[0] == "n 2"

    def test_missing_file_is_a_usage_error(self, capsys, tmp_path):
        code, _, err = run(capsys, "props", str(tmp_path / "nope.txt"))
        assert code == 2
        assert "error:" in err

    def test_malformed_text_is_a_usage_error(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("10\n0\n")
        code, _, err = run(capsys, "props", str(path))
        assert code == 2
        assert "error:" in err


class TestCount:
    def test_unpruned(self, capsys):
        assert run(capsys, "count", "--n", "3") == (0, "512\n", "")

    def test_pruned(self, capsys):
        assert run(capsys, "count", "--n", "3", "--pruned") == (0, "140\n", "")

    def test_out_of_range_size(self, capsys):
        code, _, err = run(capsys, "count", "--n", "9")
        assert code == 2 and "error:" in err

    def test_small_sizes_match_golden(self, capsys):
        for n in range(1, 6):
            assert run(capsys, "count", "--n", str(n)) == (
                0, f"{golden.UNPRUNED_COUNTS[n]}\n", "")
            assert run(capsys, "count", "--n", str(n), "--pruned") == (
                0, f"{golden.PRUNED_COUNTS[n]}\n", "")

    def test_largest_size_returns_at_once(self, capsys):
        assert run(capsys, "count", "--n", "8") == (0, f"{1 << 64}\n", "")
        assert run(capsys, "count", "--n", "8", "--pruned") == (
            0, "5349866024016042\n", "")

    def test_non_integer_size_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["count", "--n", "three"])
        assert exc.value.code == 2
        capsys.readouterr()

    def test_missing_subcommand_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2
        capsys.readouterr()


class TestCensusCommand:
    def test_stdout_output(self, capsys):
        code, out, err = run(capsys, "census", "--n", "2", "--out", "-")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "relcensus v1 n=2 pruned=0 props=24"
        assert sum(int(line.split(",")[1]) for line in lines[1:]) == 16
        assert "census n=2 pruned=0:" in err

    def test_refuses_unpruned_n7(self, capsys, tmp_path):
        # the unpruned census visits the normal forms, so it has their limit
        code, out, err = run(capsys, "census", "--n", "7",
                             "--out", str(tmp_path / "c.txt"))
        assert code == 2 and out == ""
        assert "n <= 6" in err and "827,507,617,792 normal forms" in err
        assert not (tmp_path / "c.txt").exists()

    def test_refuses_pruned_n7(self, capsys, tmp_path):
        code, out, err = run(capsys, "census", "--n", "7", "--pruned",
                             "--out", str(tmp_path / "c.txt"))
        assert code == 2 and out == ""
        assert "n <= 6" in err and "827,507,617,792 normal forms" in err
        assert not (tmp_path / "c.txt").exists()


class TestPipeline:
    def test_census_mine_star(self, capsys, tmp_path):
        census_path = tmp_path / "census.txt"
        code, _, _ = run(capsys, "census", "--n", "3", "--pruned",
                         "--out", str(census_path))
        assert code == 0

        code, out, _ = run(capsys, "mine", "--census", str(census_path),
                           "--max-level", "2", "--csv")
        assert code == 0
        laws_path = tmp_path / "laws.csv"
        laws_path.write_text(out)
        lines = out.splitlines()
        assert lines[0] == "seq,level,mask_hex,value_hex,law_text"
        assert len(lines) > 1

        flagged_path = tmp_path / "flagged.csv"
        code, _, err = run(capsys, "star", "--laws", str(laws_path),
                           "--out", str(flagged_path))
        assert code == 0
        flagged = flagged_path.read_text().splitlines()
        assert flagged[0] == "seq,level,mask_hex,value_hex,law_text,redundant"
        assert len(flagged) == len(lines)
        assert all(line.rsplit(",", 1)[1] in ("0", "1") for line in flagged[1:])
        assert f"of {len(lines) - 1} laws redundant" in err

    def test_mine_law_lines_by_default(self, capsys, tmp_path):
        census_path = tmp_path / "census.txt"
        run(capsys, "census", "--n", "2", "--pruned", "--out", str(census_path))
        code, out, _ = run(capsys, "mine", "--census", str(census_path),
                           "--max-level", "1")
        assert code == 0
        for line in out.splitlines():
            seq, text = line.split(": ", 1)
            assert seq.isdigit() and len(seq) == 3 and text

    def test_star_missing_laws_keeps_output(self, capsys, tmp_path):
        out_path = tmp_path / "existing.csv"
        out_path.write_bytes(b"seq,level\n1,2\n")
        code, out, err = run(capsys, "star", "--laws", str(tmp_path / "missing.csv"),
                             "--out", str(out_path))
        assert code == 2 and "error:" in err and out == ""
        assert out_path.read_bytes() == b"seq,level\n1,2\n"

    def test_star_rejects_level_mismatch(self, capsys, tmp_path):
        # level 5 for a two-literal mask; star reads laws as mine --csv wrote them
        laws_path = tmp_path / "laws.csv"
        laws_path.write_text("seq,level,mask_hex,value_hex,law_text\n"
                             "001,5,000003,000001,Empty ~Univ\n")
        code, out, err = run(capsys, "star", "--laws", str(laws_path))
        assert code == 2 and out == ""
        assert "error: law 001: level 5 does not match mask" in err

    def test_star_rejects_a_property_named_twice(self, capsys, tmp_path):
        # mask and value agree with "Empty" alone; the text contradicts itself
        laws_path = tmp_path / "laws.csv"
        laws_path.write_text("seq,level,mask_hex,value_hex,law_text\n"
                             "001,1,000001,000001,~Empty Empty\n")
        code, out, err = run(capsys, "star", "--laws", str(laws_path))
        assert code == 2 and out == ""
        assert "error: property Empty named twice" in err

    def test_mine_rejects_missing_census(self, capsys, tmp_path):
        code, _, err = run(capsys, "mine", "--census", str(tmp_path / "no.txt"))
        assert code == 2 and "error:" in err

    def test_mine_rejects_count_below_one(self, capsys, tmp_path):
        census_path = tmp_path / "census.txt"
        census_path.write_text(
            "relcensus v1 n=2 pruned=0 props=24\n000001,0\n000002,-3\n")
        code, out, err = run(capsys, "mine", "--census", str(census_path))
        assert code == 2 and "not positive" in err and out == ""

    def test_mine_rejects_header_without_n(self, capsys, tmp_path):
        census_path = tmp_path / "census.txt"
        census_path.write_text("relcensus v1 m=2 pruned=0 props=24\n000001,1\n")
        code, out, err = run(capsys, "mine", "--census", str(census_path))
        assert code == 2 and "needs n=" in err and out == ""


class TestWitnessCommand:
    def test_prints_a_witness_that_parses_back(self, capsys):
        code, out, _ = run(capsys, "witness", "--n", "4",
                           "--require", "Dense", "--forbid", "Refl,Empty")
        assert code == 0
        r = Relation.from_text(out)
        assert r.n == 4

    def test_exhaustive_absence_prints_none(self, capsys):
        code, out, _ = run(capsys, "witness", "--n", "3",
                           "--require", "Refl,ASym")
        assert (code, out) == (0, "none\n")

    def test_heuristic_give_up_prints_unknown(self, capsys):
        code, out, _ = run(capsys, "witness", "--n", "7", "--mode", "heuristic",
                           "--require", "Refl,ASym", "--budget", "1000")
        assert (code, out) == (0, "unknown\n")

    def test_dot_output_appended(self, capsys):
        code, out, _ = run(capsys, "witness", "--n", "2", "--require", "Refl",
                           "--dot")
        assert code == 0
        assert "digraph relation {" in out
        assert out.endswith("}\n")

    def test_unknown_property_is_a_usage_error(self, capsys):
        code, _, err = run(capsys, "witness", "--n", "3",
                           "--require", "Bogus")
        assert code == 2 and "error:" in err

    def test_empty_query_is_a_usage_error(self, capsys):
        code, _, err = run(capsys, "witness", "--n", "3")
        assert code == 2 and "error:" in err


class TestMincardCommand:
    def test_smallest_size(self, capsys):
        code, out, _ = run(capsys, "mincard",
                           "--require", "AntiTrans,SemiConnex", "--max", "4")
        assert (code, out) == (0, "1\n")

    def test_none_when_uninhabited(self, capsys):
        code, out, _ = run(capsys, "mincard", "--require", "Refl,ASym",
                           "--max", "4")
        assert (code, out) == (0, "none\n")

    def test_contradiction_is_a_usage_error(self, capsys):
        code, _, err = run(capsys, "mincard", "--require", "Refl",
                           "--forbid", "Refl")
        assert code == 2 and "error:" in err


class TestVerifyCommand:
    DEFAULT_TABLES = [
        "relation counts n<=4: PASS",
        "property census unpruned-n5: PASS (24 properties)",
        "property census pruned-n5: PASS (24 properties)",
        "vector census occupancy: PASS",
        "mining level counts: PASS",
        "law texts levels 2-3: PASS",
    ]

    def test_default_checks_pruned_census_and_mine(self, capsys):
        code, out, _ = run(capsys, "verify")
        assert code == 0
        assert out.splitlines() == self.DEFAULT_TABLES + ["VERIFY: PASS"]
        assert "skipped" not in out

    def test_csv_mode_lists_items(self, capsys):
        code, out, _ = run(capsys, "verify", "--csv")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "table,item,expected,actual,status"
        assert "counts-unpruned,n=4,65536,65536,ok" in lines
        refl = golden.PROPERTY_CENSUS_PRUNED_N5[PropertyId.Refl]
        total = golden.TOTAL_LAWS
        assert f"pruned-n5,Refl,{refl},{refl},ok" in lines
        assert "occupancy,pruned-keys-match,True,True,ok" in lines
        assert f"mine-level-counts,total,{total},{total},ok" in lines
        assert "laws-level-3,sequence-equal,True,True,ok" in lines
        assert all(line.endswith(",ok") for line in lines[1:])

    def test_census_mismatch_fails(self, capsys, monkeypatch):
        refl = golden.PROPERTY_CENSUS_PRUNED_N5[PropertyId.Refl]
        monkeypatch.setitem(golden.PROPERTY_CENSUS_PRUNED_N5, PropertyId.Refl,
                            refl + 1)
        code, out, _ = run(capsys, "verify")
        assert code == 1
        lines = out.splitlines()
        assert f"  pruned-n5 / Refl: expected {refl + 1}, got {refl}" in lines
        assert "property census pruned-n5: FAIL (24 properties)" in lines
        assert "mining level counts: PASS" in lines
        assert lines[-1] == "VERIFY: FAIL"

    def test_law_text_mismatch_fails(self, capsys, monkeypatch):
        texts = golden.LAW_TEXTS_LEVEL2
        monkeypatch.setattr(golden, "LAW_TEXTS_LEVEL2", texts[1:] + ["Empty Dense"])
        code, out, _ = run(capsys, "verify")
        assert code == 1
        lines = out.splitlines()
        assert "  laws-level-2: missing 'Empty Dense'" in lines
        assert f"  laws-level-2: unexpected {texts[0]!r}" in lines
        assert "law texts levels 2-3: FAIL" in lines
        assert lines[-1] == "VERIFY: FAIL"


def test_installed_script_smoke():
    exe = shutil.which("rellaws")
    if exe is None:
        pytest.skip("rellaws script not on PATH")
    proc = subprocess.run([exe, "count", "--n", "2", "--pruned"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout == "10\n"
