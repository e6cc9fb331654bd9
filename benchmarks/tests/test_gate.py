import math

from gate import Check, judge
from hurwitztau.errors import NonConvergence
from ops import judge_cli
from worker import in_process


def test_within_tolerance_passes():
    out = judge([Check("clue", 4e-6, 1e-5), Check("pde", 0.0, 1e-4)])
    assert out.ok and not out.unflagged
    assert math.isclose(out.worst_ratio, 0.4)


def test_injected_out_of_tolerance_result_fails():
    op = in_process(lambda item: [Check("clue", 2.5e-5, 1e-5)])
    out, _ = op({}, None)
    assert not out.ok
    assert out.reasons == ["over_tol:clue"]
    assert math.isclose(out.worst_ratio, 2.5)
    assert not out.unflagged        # a returned discrepancy is reported


def test_untyped_exception_fails_unflagged():
    def boom(item):
        raise ZeroDivisionError("division by zero")

    out, _ = in_process(boom)({}, None)
    assert not out.ok
    assert out.reasons == ["untyped_error:ZeroDivisionError"]
    assert out.unflagged and out.worst_ratio == math.inf


def test_typed_error_fails_flagged():
    def typed(item):
        raise NonConvergence("cap hit")

    out, _ = in_process(typed)({}, None)
    assert out.reasons == ["typed_error:NonConvergence"]
    assert not out.unflagged


def test_nan_fails_unflagged():
    out = judge([Check("pde", math.nan, 1e-4)])
    assert out.reasons == ["nan:pde"] and out.unflagged


def test_cli_exit_code_against_report():
    item = {"command": ["cone", "shift-fit"]}
    over = {"outputs": {}, "discrepancies": {"leading_rel": 0.5}}
    flagged = judge_cli(item, 1, over, "FAIL cone-shift-fit")
    assert flagged.reasons == ["over_tol:cone_shift_fit.leading", "exit:1"]
    assert not flagged.unflagged
    silent = judge_cli(item, 0, over, "")
    assert not silent.ok and silent.unflagged
    crashed = judge_cli(item, 1, None, "Traceback (most recent call last):\n")
    assert crashed.reasons == ["untyped_error:Traceback", "exit:1"]
    assert crashed.unflagged
