"""The speed sampler keeps its own time out of the job times and restores the timer."""

import signal
import time

import run


def _busy(seconds):
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def test_sampler_time_is_not_job_time_and_timer_is_restored():
    before = signal.getsignal(signal.SIGALRM)
    ref = run.Reference()
    with ref:
        start, t = ref.clock()
        _busy(1.0)
        end, t_end = ref.clock()
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(ref.samples) >= 3
    # the busy loop runs to a wall deadline, so its net time is the wall time less the samples
    assert abs((end - start) - (t_end - t) - sum(ref.samples)) < 0.05
    assert 0 < ref.to_reference(t_end - t, start, end) < 100


def test_to_reference_uses_the_samples_around_the_interval():
    ref = run.Reference()
    ref.ends = [1.0, 2.0, 3.0, 10.0, 11.0]
    ref.samples = [0.006, 0.006, 0.006, 0.012, 0.012]
    assert abs(ref.to_reference(1.0, 1.5, 2.5) - 1.0) < 1e-9
    assert abs(ref.to_reference(1.0, 10.2, 10.8) - 0.5) < 1e-9
