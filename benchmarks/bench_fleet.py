"""Fleet engine: serial-vs-sharded equivalence and the scaling curve.

Two properties are exercised:

* **Equivalence** — the same :class:`~repro.usecases.fleet.FleetConfig`
  aggregated with 1, 2 and 4 workers produces bit-identical
  accumulators (the sharding determinism contract).
* **Scaling** — population throughput (devices simulated per second)
  stays near-linear in population size, because per-device work is
  O(1) integer arithmetic over pre-priced templates.

Run directly (``python benchmarks/bench_fleet.py``) it prints the
scaling curve and checks equivalence at 10^4 devices; the 10^6-device
point only runs with ``--big``.
"""

import sys
import time

from repro.usecases.fleet import (FleetConfig, build_cost_templates,
                                  run_fleet)

BITS = 512
SEED = "bench-fleet"

#: Population sizes for the default scaling curve.
POPULATIONS = (1_000, 10_000, 100_000)

#: The paper-scale north-star population (slow: ~minutes of CPU).
MILLION = 1_000_000


def _config(devices: int) -> FleetConfig:
    return FleetConfig(devices=devices, seed=SEED, rsa_bits=BITS,
                       shard_size=25_000)


def main(argv) -> int:
    big = "--big" in argv
    populations = POPULATIONS + ((MILLION,) if big else ())
    templates = build_cost_templates(_config(POPULATIONS[0]))

    print("population   workers  wall [s]   devices/s")
    for devices in populations:
        config = _config(devices)
        start = time.time()
        result = run_fleet(config, workers=1, templates=templates)
        elapsed = time.time() - start
        print("%-12d %-8d %-10.2f %.0f"
              % (devices, 1, elapsed, devices / elapsed))
        assert result.accumulator.devices == devices

    config = _config(10_000)
    serial = run_fleet(config, workers=1, templates=templates)
    failures = []
    for workers in (2, 4):
        sharded = run_fleet(config, workers=workers,
                            templates=templates)
        if sharded.accumulator != serial.accumulator:
            failures.append("workers=%d diverged from serial" % workers)
    for failure in failures:
        print("FAIL: " + failure)
    print("serial/sharded equivalence %s"
          % ("FAILED" if failures else "PASSED"))
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
