"""The speed probe's conversion of intervals to nominal-speed seconds."""

from speed import NOMINAL_NS, SpeedProbe


def probe_with(costs):
    """A probe whose ticks started every 50 ms with the given costs."""
    probe = SpeedProbe()
    probe.start = [50_000_000 * i for i in range(len(costs))]
    probe.cost = list(costs)
    return probe


def test_probe_time_is_removed_and_nominal_speed_is_identity():
    probe = probe_with([NOMINAL_NS] * 6)
    # 10 ms before the second tick to 10 ms after the fourth one ends
    t0, t1 = 40_000_000, 150_000_000 + NOMINAL_NS + 10_000_000
    expected = (t1 - t0 - 3 * NOMINAL_NS) / 1e9
    assert abs(probe.work_s(t0, t1) - expected) < 1e-12
    assert abs(probe.reference_s(t0, t1) - expected) < 1e-12


def test_a_slow_stretch_is_scaled_to_nominal_speed():
    probe = probe_with([2 * NOMINAL_NS] * 11)  # everything runs at half speed
    t0, t1 = 10_000_000, 40_000_000
    assert abs(probe.reference_s(t0, t1) - probe.work_s(t0, t1) / 2) < 1e-12


def test_the_context_manager_samples_and_restores_the_signal():
    import signal
    import time

    before = signal.getsignal(signal.SIGALRM)
    with SpeedProbe() as probe:
        t0 = time.perf_counter_ns()
        end = time.perf_counter() + 0.2
        while time.perf_counter() < end:
            pass
        t1 = time.perf_counter_ns()
    assert signal.getsignal(signal.SIGALRM) is before
    assert len(probe.cost) >= 4 and probe.start == sorted(probe.start)
    assert 0 < probe.work_s(t0, t1) < (t1 - t0) / 1e9
