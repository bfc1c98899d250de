"""CLI outputs on fixed configs match the committed goldens (see
make_golden.py for the cases and the comparison rule)."""

import shutil

import pytest

import make_golden
from make_golden import ALL_CASES, GOLDEN_DIR, REL_TOL, comment_lines, compare, run_case


@pytest.fixture(scope="module")
def out(tmp_path_factory):
    return tmp_path_factory.mktemp("golden")


@pytest.mark.parametrize("case", ALL_CASES)
def test_matches_golden(case, out):
    report = compare(GOLDEN_DIR / case, run_case(case, out))
    name, col, worst = report[0]
    print(f"\ngolden {case}: {len(report)} columns, worst deviation {worst:.3e} "
          f"({name}: {col})")
    bad = [f"{n}: {c}: {d:.3e}" for n, c, d in report if d > REL_TOL]
    assert not bad, "\n".join(bad)


def test_write_one_case_leaves_the_others(tmp_path, monkeypatch, capsys):
    """``--case NAME --write`` replaces that case's directory alone."""
    data = tmp_path / "data"
    shutil.copytree(GOLDEN_DIR, data)
    monkeypatch.setattr(make_golden, "GOLDEN_DIR", data)
    target = data / "simulate_periodic_nyquist"
    (target / "energy.csv").write_text("t\n0.0\n", encoding="utf-8")
    (target / "stale.txt").write_text("stale\n", encoding="utf-8")
    other = data / "sweep" / "sweep.csv"
    other.write_text(other.read_text(encoding="utf-8") + "# edited\n", encoding="utf-8")
    kept = {p: p.read_bytes() for p in data.rglob("*")
            if p.is_file() and target not in p.parents}

    args = ["--case", "simulate_periodic_nyquist"]
    assert make_golden.main_cli(args) == 1  # the damaged copy fails the diff
    assert make_golden.main_cli(args + ["--write"]) == 0
    printed = capsys.readouterr().out
    assert "sweep" not in printed and "simulate_periodic:" not in printed
    assert make_golden.main_cli(args + args) == 0
    assert capsys.readouterr().out.count("simulate_periodic_nyquist:") == 1

    assert not (target / "stale.txt").exists()
    assert compare(GOLDEN_DIR / "simulate_periodic_nyquist", target)[0][2] <= REL_TOL
    assert {p: p.read_bytes() for p in data.rglob("*")
            if p.is_file() and target not in p.parents} == kept


def test_write_leaves_unchanged_cases_alone(tmp_path, monkeypatch, capsys):
    """``--write`` on an unmodified copy changes no byte; a case whose only
    change is a comment line is still re-recorded."""
    data = tmp_path / "data"
    shutil.copytree(GOLDEN_DIR, data)
    monkeypatch.setattr(make_golden, "GOLDEN_DIR", data)
    before = {p: p.read_bytes() for p in data.rglob("*") if p.is_file()}

    assert make_golden.main_cli(["--write"]) == 0
    assert capsys.readouterr().out.count(": unchanged") == len(ALL_CASES)
    assert {p: p.read_bytes() for p in data.rglob("*") if p.is_file()} == before

    weak = data / "simulate_periodic" / "weak.csv"
    weak.write_text(weak.read_text(encoding="utf-8").replace("# ", "# edited ", 1),
                    encoding="utf-8")
    assert make_golden.main_cli(["--case", "simulate_periodic", "--write"]) == 0
    assert "wrote" in capsys.readouterr().out
    assert comment_lines(weak) == comment_lines(GOLDEN_DIR / "simulate_periodic" / "weak.csv")


def test_unknown_case_is_refused():
    with pytest.raises(SystemExit):
        make_golden.main_cli(["--case", "no_such_case"])
