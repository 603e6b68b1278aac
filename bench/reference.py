"""Host-speed reference: a fixed piece of pure-Python work that calls no
clustermut code.

On a shared host the speed the process gets drifts by tens of percent over
minutes, and every pass of a run drifts with it.  The runner times short
reference samples between the passes of a run and reports the pass times
over the reference time (``wall_rel``, ``cpu_rel``), which cancels most of
that drift.  The work mixes what the workloads spend their time on: a
sparse product of two dictionaries of exponent tuples with 100-bit
coefficients, then rendering and sorting its terms.  Nothing a change to
clustermut does can change it.
"""

from __future__ import annotations

import random
import time


def _operands():
    rng = random.Random(20070307)
    return [
        {tuple(rng.randrange(-4, 5) for _ in range(3)): rng.getrandbits(100) + 1 for _ in range(130)}
        for _ in range(2)
    ]


_A, _B = _operands()


def reference_work() -> int:
    product: dict[tuple[int, ...], int] = {}
    for ea, ca in _A.items():
        for eb, cb in _B.items():
            e = (ea[0] + eb[0], ea[1] + eb[1], ea[2] + eb[2])
            product[e] = product.get(e, 0) + ca * cb
    text = " + ".join(
        f"{c}*x^{e}" for e, c in sorted(product.items(), key=lambda t: (sum(t[0]), t[0]))
    )
    return len(text)


EXPECTED = reference_work()


def time_reference() -> tuple[float, float]:
    """One reference sample: (wall seconds, process CPU seconds)."""
    t0, c0 = time.perf_counter(), time.process_time()
    if reference_work() != EXPECTED:
        raise RuntimeError("reference work gave a different result")
    return time.perf_counter() - t0, time.process_time() - c0
