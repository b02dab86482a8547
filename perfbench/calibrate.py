"""A fixed reference chunk that tracks the host's speed through a run.

On a shared 2-vCPU host the speed of the same work swings by tens of
percent within minutes (a fixed pure-Python loop ran 104 to 217 times a
second within five minutes), and that drift, not the program, set the
spread of raw wall times between runs.  So the timing metrics divide
each scenario's seconds by the mean time of this chunk over the same
pass: the chunk runs between scenario windows, many times a second, and
so sees the same host as the scenarios around it.  The mean, like a
pass's total, takes in the host's slow spells as well as its fast ones.

The chunk does the kind of work that dominates the program: small slotted
message objects tallied into a dict, and dict, tuple, list and str
allocation.  Chunks that added an arithmetic loop, numpy ``bincount`` or
json + sha256 + sqlite writes tracked the workloads worse.  The chunk's
code and inputs are fixed and live here, not in ``src/``, so a change to
the program moves the program's time and never the reference.
"""

from __future__ import annotations

from time import perf_counter

#: Scenario time between two reference chunks.
INTERVAL_S = 0.05


class _Msg:
    __slots__ = ("sender", "value")

    def __init__(self, sender: int, value: int) -> None:
        self.sender = sender
        self.value = value


def _tally() -> list:
    support: dict[int, int] = {}
    for msg in [_Msg(i, i % 50) for i in range(4_000)]:
        support[msg.value] = support.get(msg.value, 0) + 1
    return sorted(support.items())


def _allocate() -> int:
    table = {(i, i % 97): [i, str(i)] for i in range(6_000)}
    return len(table)


def chunk() -> float:
    """Run one reference chunk and return its seconds."""

    start = perf_counter()
    _tally()
    _allocate()
    return perf_counter() - start


class ReferenceClock:
    """Times one reference chunk per ``INTERVAL_S`` of scenario time.

    A pass calls :meth:`begin`, then :meth:`after` once per scenario; the
    first scenario of every pass is followed by a chunk, so each pass has
    at least one sample.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._due = INTERVAL_S
        self._first = 0

    def begin(self) -> None:
        """Start a pass: the next scenario is followed by a chunk."""

        self._due = INTERVAL_S
        self._first = len(self.samples)

    def after(self, seconds: float) -> None:
        """Account ``seconds`` of scenario time; run a chunk when one is due."""

        self._due += seconds
        if self._due >= INTERVAL_S:
            self._due = 0.0
            self.samples.append(chunk())

    def pass_mean(self) -> float:
        """Mean chunk seconds since the last :meth:`begin`."""

        samples = self.samples[self._first:]
        return sum(samples) / len(samples)

    def mean(self) -> float:
        """Mean chunk seconds over the whole run."""

        return sum(self.samples) / len(self.samples)
