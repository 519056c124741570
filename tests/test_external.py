"""Process-backed black boxes speaking the one-line-per-call protocol."""

import sys

import numpy as np
import pytest

from relsense.external import external_blackbox
from relsense.model import EvaluationError, builtin_model, sample_input


def test_echo_first_coordinate(echo_first_command):
    with external_blackbox(echo_first_command, dimension=2) as box:
        assert box.evaluate([2.5, 0.0]) == 2.5
        assert box.evaluate([-1.25, 9.0]) == -1.25
        assert box.call_count == 2


def test_round_trips_full_double_precision(echo_first_command):
    value = 0.1 + 0.2  # not exactly representable in shorter decimal forms
    with external_blackbox(echo_first_command, dimension=2) as box:
        assert box.evaluate([value, 0.0]) == value


def test_wrapper_matches_builtin(toy1_wrapper_command):
    builtin_box, model, _ = builtin_model("toy1")
    x = sample_input(model, 100, seed=21)
    with external_blackbox(toy1_wrapper_command, dimension=2) as box:
        got = box.evaluate_batch(x)
        assert box.call_count == 100
    np.testing.assert_array_equal(got, builtin_box.evaluate_batch(x))


def test_non_finite_response_rejected(nan_command):
    with external_blackbox(nan_command, dimension=1) as box:
        with pytest.raises(EvaluationError, match="non-finite output"):
            box.evaluate([1.0])


def test_dead_process_error_names_request(tmp_path):
    with external_blackbox([sys.executable, "-c", "pass"], dimension=2) as box:
        with pytest.raises(EvaluationError, match="request was"):
            box.evaluate([1.0, 2.0])


def test_non_numeric_response(tmp_path):
    script = tmp_path / "garbled.py"
    script.write_text("import sys\nfor line in sys.stdin:\n    print('spam', flush=True)\n")
    with external_blackbox([sys.executable, str(script)], dimension=1) as box:
        with pytest.raises(EvaluationError, match="non-numeric response"):
            box.evaluate([1.0])


def test_empty_command_rejected():
    with pytest.raises(ValueError, match="must not be empty"):
        external_blackbox([], dimension=1)


def test_command_string_is_rejected(echo_first_command):
    # a string is not split on spaces into an argv list
    with pytest.raises(TypeError, match="argv list"):
        external_blackbox(" ".join(echo_first_command), dimension=2)


def test_unstartable_command():
    with pytest.raises(EvaluationError, match="could not start"):
        external_blackbox(["/nonexistent/binary"], dimension=1)


def test_evaluate_after_close_fails(echo_first_command):
    box = external_blackbox(echo_first_command, dimension=2)
    assert box.evaluate([1.0, 0.0]) == 1.0
    box.close()
    with pytest.raises(EvaluationError):
        box.evaluate([2.0, 0.0])

