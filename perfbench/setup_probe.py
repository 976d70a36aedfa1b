"""Print the monotonic clock at the first filter step of a workload's trial 0.

    python3 perfbench/setup_probe.py <workload> <seed>

run.py starts this in a fresh interpreter and subtracts its own clock
reading taken just before the spawn, so the difference covers the
interpreter start, the czest/scipy import, the scenario parse, the
observability index and the filter construction.  CLOCK_MONOTONIC is
system-wide on Linux, so the two readings are comparable.
"""

import sys
import time

import run


class _FirstStep(Exception):
    pass


def _stop(self, k, batch):
    raise _FirstStep(time.monotonic())


def main(argv):
    workload = run.WORKLOADS[argv[1]]
    seed = int(argv[2])
    run.pin_environment()
    czest = run.load_czest()
    simharness = czest.simharness
    cfg = simharness.ScenarioConfig(workload.doc(simharness, seed))
    for cls in (czest.filters.CentralizedFilter, czest.filters.OitFilter, czest.filters.DistributedFilter):
        cls.step = _stop
    try:
        simharness.run_trial(cfg, 0, workload.metrics)
    except _FirstStep as reached:
        print(repr(reached.args[0]))
        return 0
    print("no filter step reached", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
