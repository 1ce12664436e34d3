import pytest

from starclean import fixtures
from starclean.fixtures import FIXTURES, RingFixture, run_fixture

CHECK_NAMES = {
    "boolean-swap": ["clean", "not star-clean"],
    "z4-identity": [
        "ring strongly pi-star-regular",
        "element 2 not strongly star-regular",
        "element 2 meets all four conditions",
    ],
    "m2-z2-transpose": [
        "projections are the four diagonal ones",
        "unit-regular",
        "isr1",
        "psr1 fails",
        "canonical counterexample pair accepted",
        "star-clean",
    ],
    "m2-z3-transpose": [
        "projections are the six listed matrices",
        "not strongly star-clean",
        "psr1",
        "idempotent count is 14",
    ],
    "symmetric-matrix": [
        "matrix [[2, 1], [1, 2]] -> True",
        "matrix [[1, 1], [0, 0]] -> False",
        "matrix [[0, 1], [0, 0]] -> True",
    ],
}


def test_every_fixture_passes_with_its_checks_in_order():
    assert list(FIXTURES) == list(CHECK_NAMES)
    for name, names in CHECK_NAMES.items():
        ok, checks = run_fixture(name)
        assert [c.name for c in checks] == names, name
        assert ok and all(c.ok for c in checks), name


def test_a_wrong_expected_verdict_fails_its_row(monkeypatch):
    monkeypatch.setitem(FIXTURES, "wrong", RingFixture("Z4", "id", (
        ("clean", "clean", True),
        ("boolean", "boolean", True),
        ("idempotent count is 3", fixtures._idempotent_count, 3),
    )))
    monkeypatch.setitem(FIXTURES, "wrong-matrix", (([[1, 1], [0, 0]], True),))
    ok, checks = run_fixture("wrong")
    assert not ok
    assert [c.ok for c in checks] == [True, False, False]
    ok, checks = run_fixture("wrong-matrix")
    assert not ok and [c.ok for c in checks] == [False]


def test_unknown_fixture():
    with pytest.raises(KeyError):
        run_fixture("no-such-fixture")
