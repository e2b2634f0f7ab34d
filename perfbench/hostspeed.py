"""The host-speed references behind the end-to-end times.

On a shared virtual machine the speed of a core changes with what other
tenants run on the same host: the same op takes 11 ms for a few seconds and
21 ms for the next few, and a whole run can fall into a slow or a fast
period.  The timed loop therefore times a fixed piece of the benchmark's
own code, a reference, right before every op.  A reference does the kind
of work the workload's ops do and touches nothing of `mvfa`, so a change to
the program cannot change its time; only the host can.  There are two:

- `python`: a recursive evaluator over an expression tree plus an integer
  loop, the interpreter-bound work of solving, formula evaluation and the
  algebra (`solve-distinct`, `formula-replay`, `algebra-oneshot`);
- `numpy`: `np.interp` on arrays of a 33 x 33 grid's size, the work that
  dominates a KST fit (`kst-fit`), which reacts less to the host's speed
  than interpreter-bound code does.

`scales()` turns the reference times into one factor per op:
`NOMINAL_S` over the median of the reference times of the op and its
`WINDOW` neighbours on each side.  The end-to-end times are the op times
multiplied by these factors, that is, the times the ops would take on a host
where the reference takes `NOMINAL_S`; a set-up time is scaled in the same
way by the reference timed in its own process right after set-up.  The
unscaled figures are in the report line, with the reference's own median
and quartiles.
"""

from __future__ import annotations

import gc
import statistics
import time

import numpy as np

from oracle import plain_eval

NOMINAL_S = 0.5e-3   # reference time that defines the nominal host speed
WINDOW = 4           # reference samples on each side of an op in its median

_TREE = ("pow", ("add", ("mul", "x", "a"), ("div", "b", "x")), ("add", "x", ("mul", "a", "b")))
_POINTS = 60
_LOOP = 3000
_GRID = np.linspace(0.0, 1.0, 33 * 33)
_VALUES = np.sin(3.0 * _GRID)
_AT = np.linspace(0.001, 0.999, 33 * 33)
_INTERPS = 28


def _python_work() -> float:
    env = {"x": 1.0, "a": 0.7, "b": 1.3}
    total = 0.0
    for k in range(_POINTS):
        env["x"] = 1.0 + k * 1e-3
        total += plain_eval(_TREE, env)
    acc = 0
    for k in range(_LOOP):
        acc += k * k % 7
    return total + acc


def _numpy_work() -> float:
    total = 0.0
    for k in range(_INTERPS):
        total += float(np.interp(_AT + k * 1e-4, _GRID, _VALUES).sum())
    return total


_WORK = {"python": _python_work, "numpy": _numpy_work}


def reference(kind: str) -> float:
    """Seconds the fixed reference work of `kind` takes now.

    Garbage collection is held off while it runs, so that collecting what
    the ops left behind is charged to the next op, not to the reference.
    """
    work = _WORK[kind]
    gc.disable()
    try:
        start = time.perf_counter()
        work()
        return time.perf_counter() - start
    finally:
        gc.enable()


def scales(refs) -> list[float]:
    """Per op: NOMINAL_S over the median reference time around it."""
    n = len(refs)
    return [NOMINAL_S / statistics.median(refs[max(0, k - WINDOW): k + WINDOW + 1])
            for k in range(n)]
