import pytest

from gapvir.algebra import GapVirasoro
from gapvir.errors import ConfigError
from gapvir.scalars import Scalar, scalar
from gapvir.series import (FMatrix, SeriesModule, delta_form_contravariant,
                           series_predicates, validate_f)
from reference import column_restriction_matches


def p2_module(a="1/3", b="1/2", rows=(("1", "1"),), allow_invalid=False):
    alg = GapVirasoro(2)
    return SeriesModule(alg, a, b, FMatrix.make(2, rows), allow_invalid=allow_invalid)


def test_validate_single_row_ok():
    assert validate_f(FMatrix.make(2, [["1", "1"]])) == []


def test_validate_closure_violation():
    violations = validate_f(FMatrix.make(2, [["1", "0"]]))
    assert violations == [{"kind": "column-closure", "i": 1, "j": 0}]


def test_validate_zero_matrix_vacuous():
    assert validate_f(FMatrix.make(2, [["0", "0"]])) == []
    assert FMatrix.make(2, [["0", "0"]]).col_set() == []


def test_validate_compatibility_violation():
    f = FMatrix.make(3, [["1", "1", "1"], ["1", "1", "2"]])
    assert any(v["kind"] == "compatibility" for v in validate_f(f))


def test_series_action_values():
    alg = GapVirasoro(2)
    m = p2_module()
    coeff, target = m.act_basis(alg.L(1), 0, 0)
    assert coeff == scalar("-5/6") and target == (1, 0)
    # wrapping superscript carries into the integer part: the fused index of
    # the image of (0, 1) under a mode-2 operator with i = 1 is 2 + 2/2 = 3
    coeff, target = m.act_basis(alg.I(2, 1), 0, 1)
    assert coeff == Scalar(1) and target == (3, 0)
    coeff, target = m.act_basis(alg.C(1), 5, 1)
    assert coeff.is_zero() and target is None


def test_series_action_rejects_missing_column():
    m = p2_module(rows=[["0", "0"]])
    for _ in range(2):  # a missing column is never remembered as an image
        with pytest.raises(ConfigError):
            m.act_basis(GapVirasoro(2).L(0), 0, 0)


def test_invalid_f_rejected_unless_forced():
    with pytest.raises(ConfigError):
        p2_module(rows=[["1", "0"]])
    m = p2_module(rows=[["1", "0"]], allow_invalid=True)
    assert m.violations


@pytest.mark.parametrize("a,b,rows", [
    ("1/3", "1/2", (("1", "1"),)),
    ("-2/5", "1/2+2*i", (("1", "-1"),)),
])
def test_axiom_check_valid_p2(a, b, rows):
    assert p2_module(a, b, rows).axiom_check(4)["pass"]


def test_axiom_check_valid_p3():
    alg = GapVirasoro(3)
    f = FMatrix.make(3, [["1", "1", "1"], ["1", "1", "1"]])
    m = SeriesModule(alg, "1/3", "1/2", f)
    assert m.axiom_check(3)["pass"]


def test_axiom_check_fails_on_corrupted_f():
    alg = GapVirasoro(3)
    f = FMatrix.make(3, [["1", "1", "1"], ["1", "1", "2"]])
    m = SeriesModule(alg, "1/3", "1/2", f, allow_invalid=True)
    rep = m.axiom_check(2)
    assert not rep["pass"] and rep["witness"] is not None


def test_column_restriction_is_rank_one_action():
    m = p2_module()
    for j in (0, 1):
        assert column_restriction_matches(m, j, 4)


def test_predicates_worked_examples():
    rep = series_predicates(p2_module(), ["1"])
    assert rep["unitary"] and not rep["reducible"]
    assert rep["deltaFormSelfTest"]

    single = p2_module(a="5", b="1", rows=[["1", "0"]], allow_invalid=True)
    rep2 = series_predicates(single, ["1"])
    assert rep2["reducible"]
    assert rep2["fValidation"]  # single-column matrices violate closure

    complex_b = p2_module(a="0", b="1/2+1*i")
    rep3 = series_predicates(complex_b, ["1"])
    assert rep3["unitary"] and rep3["aIsZero"]


def test_predicates_failure_flags():
    rep = series_predicates(p2_module(a="1*i"), ["1"])
    assert not rep["unitary"] and "a-not-real" in rep["failures"]
    rep = series_predicates(p2_module(b="1/3"), ["1"])
    assert "b-real-part-not-one-half" in rep["failures"]
    rep = series_predicates(p2_module(rows=(("1", "-1"),)), ["1"])
    assert "delta-form-symmetry" in rep["failures"]


def test_predicates_with_matching_beta():
    # the sign pattern (1, -1) is balanced by beta_1 = -1
    rep = series_predicates(p2_module(rows=(("1", "-1"),)), ["-1"])
    assert rep["unitary"] and rep["deltaFormSelfTest"]
    # a complex pattern balanced by beta_1 = -i
    rep = series_predicates(p2_module(rows=(("1", "1*i"),)), ["-1*i"])
    assert rep["unitary"] and rep["deltaFormSelfTest"]


def test_predicates_validate_beta():
    with pytest.raises(ConfigError):
        series_predicates(p2_module(), ["2"])


def test_delta_form_contravariance_direct():
    assert delta_form_contravariant(p2_module(), [Scalar(1)], 2)
    alg = GapVirasoro(3)
    f = FMatrix.make(3, [["1", "1", "1"], ["1", "1", "1"]])
    m = SeriesModule(alg, "2/7", "1/2", f)
    assert delta_form_contravariant(m, [Scalar(1), Scalar(1)], 2)
