"""Bounded-memory estimation versus full-history estimation.

The centralized filter keeps every past measurement, so its set
representation (a trajectory LP: the lifted generators and constraints
of its constrained zonotope) grows without bound. The finite-window
variant restarts from an unconstrained prior once the window is full and
re-applies only the last few measurement batches, so its representation
size freezes while its hulls stay close to the full-history ones. This
script makes both effects visible on the five-vehicle scenario.
Run as: python3 demos/window_vs_full.py
"""

import numpy as np

from czest import czono, filters, simharness, sysmodel


def main():
    doc = simharness.build_uav_scenario(horizon=16)
    cfg = simharness.ScenarioConfig.from_doc(doc, delta_bar=3)
    system = cfg.system
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 0]))
    sampler = simharness.NoiseSampler(rng)

    boxes = simharness._initial_ranges(cfg, rng)
    ids = system.agent_ids
    truth = np.concatenate(
        [rng.uniform(boxes[i].lo, boxes[i].hi) for i in ids]
    )
    x0 = czono.Box(np.concatenate([boxes[i].lo for i in ids]),
                   np.concatenate([boxes[i].hi for i in ids]))
    agents = system.agents
    w_boxes = [agents[i].Wset for i in ids]
    v_boxes = {i: agents[i].Vset for i in ids}
    r_boxes = {(i, j): agents[i].Rset_of[j]
               for i in ids for j in system.topology.in_neighbors(i)}
    full = filters.CentralizedFilter(system, x0)
    sl = system.state_slices()[1]
    windowed = filters.OitFilter(system, x0, cfg.delta_bar, mu0=cfg.mu0)

    print(f"window length {cfg.delta_bar}, "
          f"observability index {cfg.mu0}, horizon {cfg.K}\n")
    print(f"{'k':>3} | {'full ng':>8} {'full nc':>8} {'full d1':>9} | "
          f"{'win ng':>7} {'win nc':>7} {'win d1':>9}")

    for k in range(1, cfg.K + 1):
        w = np.concatenate([sampler.from_box(box) for box in w_boxes])
        truth = sysmodel.step_truth(system, k - 1, truth, w)
        v = {i: sampler.from_box(box) for i, box in v_boxes.items()}
        r = {key: sampler.from_box(box) for key, box in r_boxes.items()}
        batch = sysmodel.measure(system, k, truth, v, r)
        full.step(k, batch)
        windowed.step(k, batch)

        df = full.hull().widths()[sl].max()
        dw = windowed.hull().widths()[sl].max()
        marker = "" if k > cfg.delta_bar else "  (identical inside window)"
        (fng, fnc), (wng, wnc) = full.lifted_size, windowed.lifted_size
        print(f"{k:>3} | {fng:>8} {fnc:>8} {df:>9.4f} | "
              f"{wng:>7} {wnc:>7} {dw:>9.4f}{marker}")

    print("\nfull-history sizes keep growing; the window filter's sizes are")
    print("constant once k exceeds the window length, at the price of a")
    print("wider (never narrower) hull, since it forgets everything older")
    print("than the window.")


if __name__ == "__main__":
    main()
