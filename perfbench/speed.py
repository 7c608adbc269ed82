"""Host-speed probe that end-to-end times are scaled by.

The benchmark host shares its 2 cores with other tenants.  Their load moves
this process's speed by up to 1.5x within minutes, most for large-array
numpy work: on one seed, `estimate-large-n` took 450 ms per median item in
one minute and 700 ms in the next.  Every end-to-end duration is therefore
multiplied by ``REFERENCE_S / probe time``, where the probe time is the
mean of the probes taken just before and after the segment that holds it
(one run_study call, or one pass of CLI items).  The result is reported at a
fixed reference host speed.  The probe does array and small-list work like
copkern does, but never calls copkern, so no change to copkern moves it.
Raw wall-clock values are kept in the run's report.
"""

import statistics
import time

import numpy as np

REFERENCE_S = 0.015       # probe time that defines the reference host speed
_X = np.random.default_rng(1).random(10_000)
_U = np.linspace(0.0, 0.25, 400)
_LOG3 = (-np.log((np.arange(512) + 0.5) / 512)) ** 3


# The probe's scratch arrays, about 11.5 MB in all.  They are made and
# touched once, when this module is imported before copkern's work starts,
# and are written in place: the probe allocates nothing, so it neither
# page-faults while timed nor grows the heap.  They add a constant to the
# process's resident memory, and copkern's own peak shows on top of it in
# full.  "stream" is larger than L2, so that the probe also feels the memory
# traffic of other tenants, as copkern's large-array work does.
_BUF = {"a": np.zeros((400, 400)), "b": np.zeros((400, 400)),
        "grid": np.zeros((128, 512)), "less": np.zeros((400, 400), bool),
        "sorted": np.zeros_like(_X), "stream": np.zeros(1_000_000)}
for _arr in _BUF.values():
    _arr.fill(1)


def _work(buf):
    a, b, grid = buf["a"], buf["b"], buf["grid"]
    # log and minimum over 640 000 points, in four 400 x 400 blocks
    for lo in np.arange(4) * 0.25:
        np.add.outer(_U + lo, _U, out=a)
        np.add(a, 1.0, out=b)
        np.log(b, out=b)
        np.minimum(b, b.T, out=a)
        a.mean()
    # a Gumbel kernel grid at m=512, as the measures build them, in row blocks
    for rows in np.split(_LOG3, 4):
        np.add.outer(rows, _LOG3, out=grid)
        np.power(grid, 1 / 3, out=grid)
        np.negative(grid, out=grid)
        np.exp(grid, out=grid)
        np.clip(grid, 0.0, 1.0, out=grid)
        np.maximum.accumulate(grid, axis=1, out=grid)
        grid.mean()
    # one pass over 8 MB, writing, and one reading
    np.negative(buf["stream"], out=buf["stream"])
    buf["stream"].sum()
    # a dominance block and a sort
    np.count_nonzero(np.less.outer(_X[:400], _X[:400], out=buf["less"]))
    buf["sorted"][:] = _X
    buf["sorted"].sort()
    v = []
    for i in range(5000):
        v.append(i * 0.5)
        if len(v) > 2 and v[-2] > v[-1]:
            v.pop()


def probe_s(repeats=7):
    """Median of `repeats` timings of the fixed probe work, in seconds."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        _work(_BUF)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def scale(probe_before, probe_after):
    """Factor turning a duration measured between two probes into reference time."""
    return REFERENCE_S / (0.5 * (probe_before + probe_after))
