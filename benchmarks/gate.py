"""Correctness gate: judges one operation from its checks and exit status.

Every op yields a list of ``Check`` (a discrepancy and the tolerance it must
stay below, taken from ``hurwitztau.cli.DEFAULT_TOLS`` or from the rule the
CLI applies).  An op fails when it raised, exited nonzero, produced a NaN,
or has a discrepancy at or over its tolerance.  Failed inputs are counted,
never resampled.

A failure is *flagged* when the program itself reported it: a typed
``HurwitzTauError``, a nonzero CLI exit, or a discrepancy the program
returned for its caller to judge.  It is *unflagged* when the program gave
no sign: an untyped exception, a NaN, or a CLI exit 0 whose report is over
tolerance.  Unflagged failures make the run incorrect.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field


@dataclass(frozen=True)
class Check:
    name: str
    value: float
    tol: float

    @property
    def ratio(self):
        return abs(self.value) / self.tol


@dataclass
class Outcome:
    ok: bool
    reasons: list = field(default_factory=list)
    worst_ratio: float = 0.0
    unflagged: bool = False


def judge(checks, error=None, typed=False, exit_code=None):
    """Outcome of one op.

    ``error`` is the exception class name when the op raised (``typed`` says
    whether it was a HurwitzTauError); ``exit_code`` is the CLI status for
    ops run as a process (None for in-process ops).
    """
    reasons = []
    unflagged = False
    worst = 0.0
    if error is not None:
        reasons.append(("typed_error:" if typed else "untyped_error:") + error)
        unflagged = not typed
        worst = math.inf
    for c in checks:
        if not math.isfinite(c.value):
            reasons.append("nan:" + c.name)
            unflagged = True
            worst = math.inf
        elif c.ratio >= 1.0:
            reasons.append("over_tol:" + c.name)
            worst = max(worst, c.ratio)
        else:
            worst = max(worst, c.ratio)
    if exit_code is not None:
        if exit_code != 0:
            reasons.append(f"exit:{exit_code}")
        elif reasons:
            unflagged = True          # the CLI passed what the gate rejects
    return Outcome(ok=not reasons, reasons=reasons, worst_ratio=worst,
                   unflagged=unflagged)
