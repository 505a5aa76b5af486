import signal
import time

import speed


def test_sampler_probes_while_active_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    with speed.Sampler(interval=0.01) as sampler:
        end = time.perf_counter() + 0.2
        while time.perf_counter() < end:
            pass
    assert len(sampler.probes) >= 5
    assert all(p > 0.0 for p in sampler.probes)
    assert sampler.total == sum(sampler.probes)
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    count = len(sampler.probes)
    time.sleep(0.05)
    assert len(sampler.probes) == count
