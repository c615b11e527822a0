"""What every workload hands to the runner: a list of operations, each a
pipeline of bandpos calls plus the check of its answer."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, NamedTuple

# Wrong answers the library gives today, kept in the mix and counted as
# failed.  A failure of any other kind makes the run incorrect.
SEED_FAILURES = {
    "graph-probe-no-falsify": (
        "graph-family probe at a non-integer exponent below r*-2 finds no "
        "indefinite power (K5 at r=1.5 gives a minimum near +1.4)"
    ),
    "exact-minors-float": (
        "with BANDPOS_EXACT=1, leading_minors_exact holds floats above order 12"
    ),
}


class Failure(NamedTuple):
    kind: str  # a key of SEED_FAILURES, or "wrong" / "raised"
    message: str


@dataclass
class Op:
    """One operation of a workload.

    ``run(tracer)`` makes the bandpos calls through the tracer and returns a
    value that compares equal across repeats; ``check(value)`` returns None
    when the value is the known answer and a Failure otherwise.
    """

    label: str
    run: Callable[[Any], Any]
    check: Callable[[Any], Failure | None]
    samples: int = 0  # probe samples drawn, for preservers.samples_per_s


def wrong(message: str) -> Failure:
    return Failure("wrong", message)


def close(a: float, b: float, rel: float = 1e-9, abs_tol: float = 1e-12) -> bool:
    return abs(a - b) <= max(rel * max(abs(a), abs(b)), abs_tol)
