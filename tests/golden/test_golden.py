"""CLI outputs on fixed configs match the committed goldens (see
make_golden.py for the cases and the comparison rule)."""

import pytest

from make_golden import ALL_CASES, GOLDEN_DIR, REL_TOL, compare, run_case


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
