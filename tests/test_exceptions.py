"""The failure contract: a check states what must hold, an error carries
its exit code and where it happened, and ``str`` renders it."""

import math
import pickle

import numpy as np
import pytest

import qdmsim as q
from qdmsim.circuits import CircuitOp
from qdmsim.exceptions import OutputError, annotate, check
from qdmsim.fock import _FockRun
from test_fock import tiny_circuit


@pytest.mark.parametrize("error, code", [
    (q.ScenarioParseError, 2), (OutputError, 2), (q.ValidationError, 3),
    (q.NumericalError, 4), (q.ConsistencyError, 4), (q.TruncationError, 4),
])
def test_each_error_type_owns_its_exit_code(error, code):
    assert error("failed").exit_code == code


@pytest.mark.parametrize("margin", [math.nan, math.inf])
def test_a_non_finite_margin_fails_its_check(margin):
    with pytest.raises(q.ValidationError, match=f"^margin {margin}$"):
        check(margin <= 1.0, margin, q.ValidationError, "margin {}")


def test_a_stacked_check_names_its_first_failing_slice():
    margins = np.array([0.5, math.nan, 2.0])
    with pytest.raises(q.ValidationError) as info:
        check(margins <= 1.0, margins, q.ValidationError, "margin {}")
    assert str(info.value) == "margin nan at batch index 1"
    assert info.value.batch_index == 1
    assert math.isnan(info.value.margins[0])


def test_location_survives_pickling():
    with pytest.raises(q.NumericalError) as info:
        check(np.array([True, False]), (), q.NumericalError, "failed")
    exc = annotate(annotate(info.value, "at op 3 (displace)"), "(sweep point phi=1)")
    again = pickle.loads(pickle.dumps(exc))
    assert type(again) is q.NumericalError
    assert str(again) == str(exc) == "failed at batch index 1 at op 3 (displace) (sweep point phi=1)"
    assert again.batch_index == 1
    assert again.places == exc.places


def test_an_error_no_check_raised_names_no_batch_index():
    exc = annotate(q.ValidationError("structural"), "at op 0 (displace)")
    assert not hasattr(exc, "batch_index")
    assert str(exc) == "structural at op 0 (displace)"


def test_nan_covariance_is_refused_before_its_eigenvalues():
    with pytest.raises(q.ValidationError, match="^cov is asymmetric by nan"):
        q.GaussianState(np.zeros(2), np.full((2, 2), math.nan))


def test_nan_lossless_map_is_refused():
    linear = np.eye(2)
    linear[0, 0] = math.nan
    with pytest.raises(q.ValidationError, match=r"not symplectic: .* = nan$"):
        q.GaussianMap(linear, np.zeros((2, 2)), np.zeros(2))


def test_nan_fock_state_is_refused():
    run = _FockRun(tiny_circuit([CircuitOp("displace", (0,), (0.5, 0.0))]), q.FockConfig(cutoff=8))
    run.psi = np.full_like(run.psi, math.nan)
    with pytest.raises(q.NumericalError, match="^state norm drifted to nan$"):
        run._check_state()
