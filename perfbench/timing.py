"""The closed loop shared by every workload, and the reference kernel that
puts its times on a fixed machine speed.

The speed of a small virtual machine drifts: a fixed single-threaded loop
can run 1.5-1.9x slower or faster from one minute to the next, and process
CPU time drifts with wall time, so the loss is not steal time that CPU time
would exclude. The
benchmark therefore times a fixed reference kernel, which calls no defectkit
code, right after every operation and every set-up sample, and scales its
times by ``REF_NOMINAL_S / median(reference times)``: the time the work
would have taken at the speed where the kernel takes ``REF_NOMINAL_S``.
A change to defectkit cannot move the kernel, only the work beside it.
Fresh-process work (cli-cold) uses a fresh ``python -c "import numpy"`` as
its reference instead, the same kind of work as starting the CLI.
"""
import statistics
import time

import numpy as np

# the kernel's median on a 2-vCPU Intel Xeon KVM guest; any constant works,
# it only fixes the speed the scaled times refer to
REF_NOMINAL_S = 0.010

_RNG = np.random.default_rng(12345)
_SIGNAL = _RNG.standard_normal(4096)
_MATS = _RNG.standard_normal((400, 3, 3))
_MATS = _MATS + _MATS.transpose(0, 2, 1)


def reference_kernel():
    """A fixed mix of the work the workloads do: an interpreted loop, FFT
    convolutions, batched 3x3 eigen-solves and small-array ufunc calls."""
    acc = 0.0
    for k in range(20000):
        acc += (k * 0.5) % 7
    spec = np.fft.rfft(_SIGNAL[::-1])
    for _ in range(20):
        np.fft.irfft(np.fft.rfft(_SIGNAL) * spec, _SIGNAL.size)
    np.linalg.eigvalsh(_MATS)
    for _ in range(300):
        acc += float(np.sum(np.exp(-_SIGNAL[:64]) * 2.0))
    return acc


def reference_time():
    """Wall seconds of one reference_kernel call."""
    t0 = time.perf_counter()
    reference_kernel()
    return time.perf_counter() - t0


def speed_scale(ref_times, nominal=REF_NOMINAL_S):
    """Factor taking wall seconds measured beside ``ref_times`` to seconds at
    the speed where the reference takes ``nominal`` seconds."""
    return nominal / statistics.median(ref_times)


def closed_loop(seconds, prepare, run_op, cleanup, paired, min_ops=0,
                reference=reference_time):
    """One client: operation i+1 starts when operation i has ended.

    ``prepare(i)`` makes operation i's inputs, ``run_op(i, inputs, traced)``
    runs it and returns its record (with its timed ``dt``), ``cleanup(i)``
    removes what it left. Runs until the timed seconds reach ``seconds`` and
    at least ``min_ops`` operations have run. With ``paired`` each operation
    runs twice on the same inputs, untraced and traced, alternating which
    goes first, so the two passes see identical work at nearly the same
    moment. Every record gets, as ``ref_dt``, the seconds of one
    ``reference()`` call made right after it.
    Returns (traced records, untraced records); unpaired runs return their
    records first and an empty list.
    """
    first, second, timed, i = [], [], 0.0, 0
    while timed < seconds or i < min_ops:
        inputs = prepare(i)
        passes = [(second, False), (first, True)] if paired else [(first, False)]
        for records, traced in passes[:: -1 if i % 2 else 1]:
            rec = run_op(i, inputs, traced)
            rec["ref_dt"] = reference()
            records.append(rec)
            timed += rec["dt"]
        cleanup(i)
        i += 1
    return first, second
