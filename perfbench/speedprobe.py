"""The host's speed during a pass, from a fixed reference computation.

The benchmark runs on a few vCPUs of a shared host whose speed changes in
steps lasting seconds to minutes: the same pass can take 1.8 times as long
in a slow stretch as in a fast one, and CPU time moves with wall time.  A
``SpeedProbe`` times a small, fixed computation on builtin types
(``reference``) when a timed block starts and ends and every ``PERIOD_S``
seconds of wall time in between, from a ``SIGALRM`` handler in the block's
own process.  The block's time at the reference speed is its wall time,
less the time spent in the probe, multiplied by the mean speed the probe
saw relative to ``NOMINAL_S``:

    ref_s = (wall_s - probe_s) * mean(NOMINAL_S / sample_s)

Uniform sampling in wall time makes the mean the time-average of the
host's speed over the block, so a pass that ran half its time at half
speed is credited for that.  ``reference`` uses nothing from ``tpcert``,
this module imports nothing that ``tpcert`` imports later (so set-up can be
timed under the probe without being shortened), and the reference runs
with the collector off, after an untimed call that brings its data back
into the caches, so the state the program leaves behind has little hold on
what the probe measures: in a pass the untimed call reads a few percent
slower than the timed one.
"""

from __future__ import annotations

import gc
import random
import signal
import time

PERIOD_S = 0.4
# Seconds ``reference`` takes on the fast steps of a 2-vCPU Intel Xeon
# (Sapphire Rapids) KVM guest with CPython 3.11; it only sets the scale.
NOMINAL_S = 0.0035

_rng = random.Random(20070)
_INTS = [_rng.getrandbits(300) for _ in range(3000)]
_MONOMIALS = [(_rng.randrange(1000), _rng.randrange(1000), _rng.randrange(50)) for _ in range(6000)]


def reference() -> int:
    """A few milliseconds of the operations ``Poly`` arithmetic is made of:
    big-integer products, interpreted integer loops, and sums into a dict
    keyed by exponent tuples."""
    acc = 0
    for a, b in zip(_INTS, _INTS[1:]):
        acc += a * b
    for i in range(20_000):
        acc += i * i
    terms: dict[tuple, int] = {}
    for m in _MONOMIALS:
        terms[m] = terms.get(m, 0) + 1
    return acc + len(terms)


class SpeedProbe:
    """Samples the host's speed while the ``with`` block runs."""

    def __init__(self):
        self.samples: list[float] = []
        self.probe_s = 0.0
        self._previous = None
        reference()  # warm, outside the timed block

    def _tick(self, signum, frame) -> None:
        collecting = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        reference()  # refills the caches the block has taken over
        t1 = time.perf_counter()
        reference()
        t2 = time.perf_counter()
        if collecting:
            gc.enable()
        self.samples.append(t2 - t1)
        self.probe_s += time.perf_counter() - t0

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self._tick(None, None)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._tick(None, None)

    def at_reference(self, wall_s: float) -> float:
        """``wall_s`` of the block, less the probe's own time, at the
        reference speed."""
        speed = sum(NOMINAL_S / s for s in self.samples) / len(self.samples)
        return (wall_s - self.probe_s) * speed
