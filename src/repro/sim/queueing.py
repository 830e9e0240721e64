"""Queueing-theory plumbing: arrival draws, closed forms, harness.

A simulation kernel is only as trustworthy as its invariants, and for a
single-server queue the invariants are a century old: Little's law and
the Pollaczek-Khinchine mean-wait formulas for M/M/1 and M/D/1. This
module provides both sides of that comparison —

* **draws**: quantized exponential inter-arrival/service times from a
  seeded DRBG stream (ticks are integers; quantization error is
  negligible once mean >> 1 tick);
* **closed forms**: the analytic mean waits and occupancies the kernel
  must reproduce (``tests/sim/test_queueing_laws.py`` holds them to
  <=2 %);
* **harness**: :func:`simulate_queue`, an open single-queue simulation
  whose :class:`QueueObservation` exposes the exact integer areas the
  laws are stated over.

Every quantity is measured over the *drained* horizon — the run ends
when the last job departs — so boundary terms vanish and the sample-path
form of Little's law (``integral of N(t) == sum of sojourn times``)
holds bit-exactly, not just in expectation.
"""

import math
from bisect import bisect_right
from dataclasses import dataclass
from random import Random
from typing import Callable, Optional, Sequence

from ..core.stats import StreamingStats
from .kernel import REJECTED, Acquire, Kernel, Release, Resource, Wait

#: A draw function: given a DRBG stream, the next duration in ticks.
TickDraw = Callable[[Random], int]


# -- distribution draws ----------------------------------------------------

def exponential_ticks(rng: Random, mean_ticks: float) -> int:
    """One exponential duration with the given mean, in whole ticks.

    Inverse-CDF sampling: ``-mean * ln(1 - U)`` with ``U`` uniform in
    ``[0, 1)``, rounded to the nearest tick. Rounding keeps the mean
    unbiased to O(1/mean); use means well above one tick.
    """
    if mean_ticks <= 0:
        raise ValueError("the mean must be positive")
    return int(round(-mean_ticks * math.log(1.0 - rng.random())))


def kind_draw(rng: Random, names: Sequence[str],
              cum_weights: Sequence[float]) -> Callable[[], str]:
    """A zero-argument draw of one of ``names`` by cumulative weight.

    Each call returns exactly what ``rng.choices(names,
    cum_weights=cum_weights)[0]`` returns and consumes the same single
    ``rng.random()``; the weights are validated once here instead of
    on every draw, which is what an arrival source drawing one kind per
    arrival pays for.
    """
    if len(cum_weights) != len(names) or not names:
        raise ValueError("one cumulative weight per name is required")
    total = cum_weights[-1] + 0.0
    if not 0.0 < total < math.inf:
        raise ValueError("the total weight must be positive and finite")
    random = rng.random
    hi = len(names) - 1

    def draw() -> str:
        return names[bisect_right(cum_weights, random() * total, 0, hi)]
    return draw


def exponential_draw(mean_ticks: float) -> TickDraw:
    """A :data:`TickDraw` of exponential durations with ``mean_ticks``."""
    def draw(rng: Random) -> int:
        return exponential_ticks(rng, mean_ticks)
    return draw


def deterministic_draw(ticks: int) -> TickDraw:
    """A :data:`TickDraw` of one constant duration (D service)."""
    if ticks < 0:
        raise ValueError("durations must be non-negative")
    def draw(rng: Random) -> int:
        return ticks
    return draw


# -- closed forms ----------------------------------------------------------

def offered_load(arrival_rate: float, service_rate: float) -> float:
    """The offered load ``rho = lambda / mu`` of a single server."""
    if service_rate <= 0:
        raise ValueError("the service rate must be positive")
    return arrival_rate / service_rate


def mm1_mean_wait(arrival_rate: float, service_rate: float) -> float:
    """M/M/1 mean wait *in queue* ``Wq = rho / (mu - lambda)``."""
    rho = offered_load(arrival_rate, service_rate)
    if rho >= 1.0:
        raise ValueError("M/M/1 has no steady state at rho >= 1")
    return rho / (service_rate - arrival_rate)

def md1_mean_wait(arrival_rate: float, service_rate: float) -> float:
    """M/D/1 mean wait *in queue* ``Wq = rho / (2 mu (1 - rho))``.

    The Pollaczek-Khinchine formula with zero service variance — half
    the M/M/1 wait at every load, which is exactly the separation the
    validation suite checks the kernel reproduces.
    """
    rho = offered_load(arrival_rate, service_rate)
    if rho >= 1.0:
        raise ValueError("M/D/1 has no steady state at rho >= 1")
    return rho / (2.0 * service_rate * (1.0 - rho))


def mm1_mean_number(arrival_rate: float, service_rate: float) -> float:
    """M/M/1 mean number *in system* ``L = rho / (1 - rho)``."""
    rho = offered_load(arrival_rate, service_rate)
    if rho >= 1.0:
        raise ValueError("M/M/1 has no steady state at rho >= 1")
    return rho / (1.0 - rho)


# -- the measurement harness ----------------------------------------------

@dataclass
class QueueObservation:
    """Exact measurements of one drained single-queue run.

    Integer fields are exact; every law the validation suite asserts is
    stated over them. ``span_ticks`` is the drain time — the departure
    instant of the last job.
    """

    arrivals: int
    completed: int
    span_ticks: int
    wait: StreamingStats
    sojourn: StreamingStats
    service: StreamingStats
    queue_area: int
    busy_area: int
    #: Kernel events executed over the run (throughput denominator).
    events: int = 0

    @property
    def system_area(self) -> int:
        """Exact integral of number-in-system over the drained span."""
        return self.queue_area + self.busy_area

    def arrival_rate(self) -> float:
        """Realized arrivals per tick."""
        return self.arrivals / self.span_ticks if self.span_ticks else 0.0

    def utilization(self) -> float:
        """Realized fraction of time the server was busy."""
        return (self.busy_area / self.span_ticks
                if self.span_ticks else 0.0)

    def mean_number_in_system(self) -> float:
        """Time-average jobs in system, ``L`` of Little's law."""
        return (self.system_area / self.span_ticks
                if self.span_ticks else 0.0)

    def mean_queue_depth(self) -> float:
        """Time-average jobs waiting, ``Lq`` of Little's law."""
        return (self.queue_area / self.span_ticks
                if self.span_ticks else 0.0)


def simulate_queue(seed: str, jobs: int, interarrival: TickDraw,
                   service: TickDraw, capacity: int = 1,
                   queue_limit: Optional[int] = None
                   ) -> QueueObservation:
    """Run an open single-queue system to drain and measure it exactly.

    A source process draws ``jobs`` inter-arrival gaps from the
    ``arrivals`` DRBG stream and spawns one job process per arrival;
    each job draws its service demand from the ``service`` stream at
    arrival (so draws depend only on arrival order, never on
    scheduling), queues for the server pool, holds a server for its
    demand and departs.
    """
    if jobs < 1:
        raise ValueError("at least one job is required")
    kernel = Kernel(seed=seed)
    server = Resource(kernel, "server", capacity=capacity,
                      queue_limit=queue_limit)
    arrival_rng = kernel.stream("arrivals")
    service_rng = kernel.stream("service")
    observation = QueueObservation(
        arrivals=0, completed=0, span_ticks=0,
        wait=StreamingStats(), sojourn=StreamingStats(),
        service=StreamingStats(), queue_area=0, busy_area=0)

    def job(demand: int) -> "object":
        arrived = kernel.now
        grant = yield Acquire(server)
        if grant is REJECTED:
            return None
        observation.wait.add(kernel.now - arrived)
        try:
            yield Wait(demand)
        finally:
            # Released during unwind as well: a fault while in service
            # must not strand the server slot.
            yield Release(server)
        observation.completed += 1
        observation.sojourn.add(kernel.now - arrived)
        return None

    def source() -> "object":
        for index in range(jobs):
            yield Wait(interarrival(arrival_rng))
            demand = service(service_rng)
            observation.arrivals += 1
            observation.service.add(demand)
            kernel.spawn("job/%d" % index, job(demand))
        return None

    kernel.spawn("source", source())
    kernel.run()
    observation.span_ticks = kernel.now
    observation.events = kernel.events_executed
    observation.queue_area = server.queue_depth.area_until(kernel.now)
    observation.busy_area = server.busy_servers.area_until(kernel.now)
    return observation
