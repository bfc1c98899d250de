"""The identity check (identity.py): a tree against itself is identical,
and a changed CSV cell is reported with its column's largest difference."""

import identity


def test_tree_against_itself_is_identical(capsys):
    code = identity.main(["--parent", str(identity.ROOT), "--case", "simulate_periodic_nyquist"])
    out = capsys.readouterr().out
    assert code == 0, out
    assert out.splitlines() == ["1 cases x threads (1, 2): 12 files, identical"]


def test_csv_report_names_the_changed_columns(tmp_path):
    old, new = tmp_path / "old", tmp_path / "new"
    for root, b in ((old, "0.25"), (new, "0.5")):
        (root / "case").mkdir(parents=True)
        (root / "case" / "energy.csv").write_text(f"# note\nt,a,b\n0,1,2\n1,1,{b}\n",
                                                  encoding="utf-8")
        (root / "case" / "same.csv").write_text("t\n0\n", encoding="utf-8")
    assert identity.csv_report(old, new) == [
        "case/energy.csv: b: max |diff| 2.500e-01 (1.250e-01 relative)"]
