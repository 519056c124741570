"""Process-backed black boxes speaking the one-line-per-call protocol."""

import math
import os
import sys
import threading

import numpy as np
import pytest

from relsense.external import external_blackbox
from relsense.model import EvaluationError, builtin_model


def _script(tmp_path, source):
    path = tmp_path / "box.py"
    path.write_text(source)
    return [sys.executable, str(path)]


def _run_bounded(box, call, seconds=30.0):
    """Run ``call()`` in a daemon thread; kill the model and fail if it hangs."""
    outcome = {}

    def target():
        try:
            outcome["value"] = call()
        except Exception as exc:  # handed to the test thread below
            outcome["error"] = exc

    worker = threading.Thread(target=target, daemon=True)
    worker.start()
    worker.join(timeout=seconds)
    if worker.is_alive():
        box._proc.kill()
        pytest.fail(f"external exchange still running after {seconds} s")
    if "error" in outcome:
        raise outcome["error"]
    return outcome["value"]


def _request_text(row):
    return " ".join(repr(v) for v in row.tolist())


def test_echo_first_coordinate(echo_first_command):
    with external_blackbox(echo_first_command, dimension=2) as box:
        assert box.evaluate([2.5, 0.0]) == 2.5
        assert box.evaluate([-1.25, 9.0]) == -1.25
        assert box.call_count == 2


EXACT_VALUES = [5e-324, -0.0, 1.7976931348623157e308, 0.1 + 0.2,
                math.nextafter(1.0, 2.0), 1e-310]


def test_round_trips_full_double_precision(echo_first_command):
    # the model echoes the request's text, so each reply is the wire form read
    # back: the extremes, a signed zero, subnormals and values (0.1 + 0.2, the
    # double after 1) that no shorter decimal form identifies
    x = np.array([[v, 1.0] for v in EXACT_VALUES])
    with external_blackbox(echo_first_command, dimension=2) as box:
        got = _run_bounded(box, lambda: box.evaluate_batch(x))
    assert got.tobytes() == x[:, 0].tobytes()
    for reply, value in zip(got.tolist(), EXACT_VALUES):
        assert math.copysign(1.0, reply) == math.copysign(1.0, value)


def test_wrapper_matches_builtin(toy1_wrapper_command):
    # 5000 rows of requests (about 200 KB) outgrow one pipe buffer
    builtin_box, model, _ = builtin_model("toy1")
    x = model.sample(5000, np.random.default_rng(21))
    with external_blackbox(toy1_wrapper_command, dimension=2) as box:
        got = _run_bounded(box, lambda: box.evaluate_batch(x))
        assert box.call_count == 5000
        one = box.evaluate(x[0])
        assert box.call_count == 5001
    np.testing.assert_array_equal(got, builtin_box.evaluate_batch(x))
    assert one == got[0]


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


PADDED_REPLIES = """\
import sys
for line in sys.stdin:
    print(line.split()[0].rjust(200), flush=True)
"""

BATCHED_REPLIES = """\
import sys
held = []
for line in sys.stdin:
    held.append(line.split()[0])
    if len(held) == 1000:
        sys.stdout.write("".join(v + "\\n" for v in held))
        sys.stdout.flush()
        held = []
"""


def test_padded_replies_do_not_deadlock(tmp_path):
    # about 1 MB of replies to a 5000-row batch, far over one pipe buffer
    x = np.random.default_rng(3).normal(size=(5000, 2))
    with external_blackbox(_script(tmp_path, PADDED_REPLIES), dimension=2) as box:
        got = _run_bounded(box, lambda: box.evaluate_batch(x))
        assert box.call_count == 5000
    np.testing.assert_array_equal(got, x[:, 0])


def test_model_reading_ahead_does_not_deadlock(tmp_path):
    # the model answers only after reading 1000 requests
    x = np.random.default_rng(4).normal(size=(3000, 2))
    with external_blackbox(_script(tmp_path, BATCHED_REPLIES), dimension=2) as box:
        got = _run_bounded(box, lambda: box.evaluate_batch(x))
    np.testing.assert_array_equal(got, x[:, 0])


SPAM_AT_500 = """\
import sys
for i, line in enumerate(sys.stdin):
    print("spam" if i == 500 else line.split()[0], flush=True)
"""

EXIT_AFTER_10 = """\
import sys
for i, line in enumerate(sys.stdin):
    if i == 10:
        sys.exit(3)
    print(line.split()[0], flush=True)
"""

TWO_LINES_PER_REQUEST = """\
import sys
for line in sys.stdin:
    v = line.split()[0]
    sys.stdout.write(v + "\\n" + v + "\\n")
    sys.stdout.flush()
"""


def test_bad_reply_mid_batch_leaves_no_stale_reply(tmp_path):
    x = np.random.default_rng(5).normal(size=(1000, 2))
    with external_blackbox(_script(tmp_path, SPAM_AT_500), dimension=2) as box:
        with pytest.raises(EvaluationError, match="non-numeric response") as info:
            _run_bounded(box, lambda: box.evaluate_batch(x))
        assert _request_text(x[500]) in str(info.value)
        assert box.call_count == 0
        # the next call is answered with its own reply, not a leftover one
        assert _run_bounded(box, lambda: box.evaluate([7.5, 0.0])) == 7.5
        assert box.call_count == 1


def test_exit_mid_batch_names_first_unanswered_request(tmp_path):
    x = np.random.default_rng(6).normal(size=(1000, 2))
    with external_blackbox(_script(tmp_path, EXIT_AFTER_10), dimension=2) as box:
        with pytest.raises(EvaluationError, match="exit code 3") as info:
            _run_bounded(box, lambda: box.evaluate_batch(x))
        assert f"request was {_request_text(x[10])!r}" in str(info.value)
        assert box.call_count == 0
        with pytest.raises(EvaluationError, match="not accepting input"):
            box.evaluate([1.0, 2.0])


def test_unrequested_output_is_rejected(tmp_path):
    with external_blackbox(_script(tmp_path, TWO_LINES_PER_REQUEST), dimension=1) as box:
        with pytest.raises(EvaluationError, match="more than one line per request"):
            _run_bounded(box, lambda: box.evaluate([1.0]))


def test_flushed_replies_wake_the_caller_about_once_per_chunk(echo_first_command):
    # On one shared CPU a model that flushes every reply wakes the waiting
    # caller once per reply (hundreds of switches for this batch) unless the
    # caller waits under SCHED_BATCH, which lets the model drain a request
    # chunk before the caller runs again.
    resource = pytest.importorskip("resource")
    if not (hasattr(os, "SCHED_BATCH") and hasattr(os, "sched_setaffinity")
            and hasattr(resource, "RUSAGE_THREAD")):
        pytest.skip("needs SCHED_BATCH, sched_setaffinity and RUSAGE_THREAD")
    x = np.random.default_rng(8).normal(size=(5000, 2))
    policy = os.sched_getscheduler(0)
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    try:
        # started after pinning, so the model shares the caller's CPU
        with external_blackbox(echo_first_command, dimension=2) as box:
            before = resource.getrusage(resource.RUSAGE_THREAD).ru_nvcsw
            got = box.evaluate_batch(x)
            switches = resource.getrusage(resource.RUSAGE_THREAD).ru_nvcsw - before
            after = os.sched_getscheduler(0)
    finally:
        os.sched_setaffinity(0, cpus)
    assert switches < 64
    assert after == policy
    np.testing.assert_array_equal(got, x[:, 0])


# bound at import, so that a test can patch os.sched_setscheduler around it
_SET_POLICY = getattr(os, "sched_setscheduler", None)


@pytest.mark.parametrize("start, switches", [
    ("SCHED_OTHER", ["SCHED_BATCH", "SCHED_OTHER"]),  # waits as batch, then restored
    ("SCHED_BATCH", []),                              # left as it is
])
def test_exchange_leaves_the_thread_policy_as_it_found_it(
        echo_first_command, monkeypatch, start, switches):
    if not hasattr(os, "SCHED_BATCH"):
        pytest.skip("needs SCHED_BATCH")
    x = np.random.default_rng(9).normal(size=(300, 2))
    calls = []

    def spy(pid, policy, param):
        calls.append(policy)
        _SET_POLICY(pid, policy, param)

    def exchange_from_start_policy():
        # a worker thread of its own, so no other thread's policy changes
        _SET_POLICY(0, getattr(os, start), os.sched_param(0))
        monkeypatch.setattr(os, "sched_setscheduler", spy)
        return box.evaluate_batch(x), os.sched_getscheduler(0)

    with external_blackbox(echo_first_command, dimension=2) as box:
        got, after = _run_bounded(box, exchange_from_start_policy)
    assert after == getattr(os, start)
    assert calls == [getattr(os, name) for name in switches]
    np.testing.assert_array_equal(got, x[:, 0])


def test_exchange_runs_where_the_policy_cannot_be_set(echo_first_command, monkeypatch):
    def refuse(*args):
        raise PermissionError(1, "Operation not permitted")

    monkeypatch.setattr(os, "sched_setscheduler", refuse, raising=False)
    x = np.random.default_rng(10).normal(size=(3000, 2))
    with external_blackbox(echo_first_command, dimension=2) as box:
        got = _run_bounded(box, lambda: box.evaluate_batch(x))
        assert box.evaluate([2.5, 0.0]) == 2.5
    np.testing.assert_array_equal(got, x[:, 0])
