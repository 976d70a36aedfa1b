"""Command line front end.

Subcommands:
  run            simulate a scenario and write metrics, logs and plots
  verify         run the built-in self-check suites
  scenario-init  write an editable copy of a built-in scenario file

Exit codes: 0 success, 1 usage or scenario-schema errors, 2 runtime
failures (containment violations, aborted trials, failed checks).
"""

import argparse
import json
import os
import sys

from . import filters, simharness, svgplot, sysmodel, verify

__all__ = ["main"]


def _load_scenario(arg):
    """A scenario document from a built-in name or a JSON file path."""
    if arg in simharness._BUILTINS:
        return simharness.builtin_scenario(arg)
    if not os.path.exists(arg):
        raise sysmodel.SchemaError(
            f"'{arg}' is neither a built-in scenario nor a readable file"
        )
    with open(arg) as fh:
        text = fh.read()
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise sysmodel.SchemaError(
            f"{arg}:{e.lineno}:{e.colno}: invalid JSON ({e.msg})"
        )


def _emit_svg(cfg, logs, plot_dir):
    """Plot the first trial with step records into ``plot_dir``, saying
    so when that is not trial 0; a run whose every trial aborted before
    its first step gets no plots and a note instead."""
    log = next((log for log in logs if log.steps), None)
    if log is None:
        print("plots: no trial has step records, none written")
        return []
    if log is not logs[0]:
        print(f"plots: trial {log.header['trial']}, the first with step records")
    os.makedirs(plot_dir, exist_ok=True)
    written = []
    for i in cfg.system.agent_ids:
        traj = os.path.join(plot_dir, f"trajectory_agent{i}.svg")
        svgplot.plot_trajectory(log, i, traj, coords=cfg.plot_coords)
        curve = os.path.join(plot_dir, f"diameter_agent{i}.svg")
        svgplot.plot_metric(log, i, curve)
        written += [traj, curve]
    return written


def cmd_run(args):
    doc = _load_scenario(args.scenario)
    algorithms = args.algorithms.split(",") if args.algorithms else None
    cfg = simharness.ScenarioConfig.from_doc(
        doc, seed=args.seed, delta_bar=args.delta_bar, algorithms=algorithms
    )
    if args.trials < 1:
        raise ValueError(f"--trials must be at least 1, got {args.trials}")
    if args.svg and args.metrics == "containment":
        raise sysmodel.SchemaError(
            "--svg needs hull metrics; drop it or use --metrics full"
        )
    out_dir = args.out
    os.makedirs(out_dir, exist_ok=True)

    mc = simharness.run_monte_carlo(cfg, args.trials, metrics=args.metrics)
    for log in mc.logs:
        log.write(os.path.join(out_dir, f"trial_{log.header['trial']:03d}.jsonl"))
    simharness.write_metrics_csv(os.path.join(out_dir, "metrics.csv"), mc.logs)
    if args.svg:
        _emit_svg(cfg, mc.logs, os.path.join(out_dir, "plots"))

    violations = sum(log.violations for log in mc.logs)
    print(
        f"{cfg.name}: {args.trials} trial(s), horizon {cfg.K}, "
        f"algorithms {','.join(cfg.algorithms)}"
    )
    print(f"wall time {mc.elapsed:.2f}s, output in {out_dir}")
    if mc.aborts:
        for log in mc.logs:
            if log.aborted:
                print(
                    f"trial {log.header['trial']}: aborted at step "
                    f"{log.aborted['k']} ({log.aborted['reason']})"
                )
    if violations:
        per_trial = {
            log.header["trial"]: log.violations for log in mc.logs if log.violations
        }
        print(f"containment violations: {violations} (by trial: {per_trial})")
    if violations or mc.aborts:
        return 2
    print("containment violations: 0")
    return 0


def cmd_verify(args):
    if args.inject_fault:
        filters._COUPLING_SIGN = -1.0
    try:
        names = None if args.filter in (None, "all") else [args.filter]
        results = verify.run_suites(names, seed=args.seed)
    finally:
        filters._COUPLING_SIGN = 1.0
    width = max(len(r.name) for r in results)
    failed = 0
    for r in results:
        state = "pass" if r.passed else "FAIL"
        line = f"{r.name:<{width}}  {state}  {r.cases} cases, {r.failures} failures"
        if r.detail:
            line += f"  ({r.detail})"
        print(line)
        failed += r.failures
    print("all checks passed" if not failed else "some checks FAILED")
    return 0 if not failed else 2


def cmd_scenario_init(args):
    doc = simharness.builtin_scenario(args.name)
    path = args.out or f"{args.name}.json"
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    print(f"wrote {path}")
    return 0


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="czest",
        description="set-membership state estimation for multi-agent systems",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="simulate a scenario and write artifacts")
    p_run.add_argument("scenario", help="built-in name (uav5, pair1d) or JSON file")
    p_run.add_argument("--trials", type=int, default=1, help="number of trials")
    p_run.add_argument("--seed", type=int, default=None, help="override scenario seed")
    p_run.add_argument(
        "--delta-bar", type=int, default=None, help="override the fixed-lag window"
    )
    p_run.add_argument(
        "--algorithms", default=None, help="comma-separated subset to run"
    )
    p_run.add_argument("--out", default="czest-out", help="output directory")
    p_run.add_argument(
        "--svg", action="store_true", help="emit trajectory and metric plots"
    )
    p_run.add_argument(
        "--metrics",
        choices=("full", "containment"),
        default="full",
        help="per-step metric detail level",
    )
    p_run.set_defaults(func=cmd_run)

    p_ver = sub.add_parser("verify", help="run the built-in self-check suites")
    p_ver.add_argument(
        "--filter",
        choices=(*verify._SUITES, "all"),
        default="all",
        help="run a single suite",
    )
    p_ver.add_argument("--seed", type=int, default=2026, help="suite RNG seed")
    p_ver.add_argument(
        "--inject-fault",
        action="store_true",
        help="flip the sign with which a peer's joint reads the agent (self-test of the checks)",
    )
    p_ver.set_defaults(func=cmd_verify)

    p_init = sub.add_parser(
        "scenario-init", help="write a built-in scenario file for editing"
    )
    p_init.add_argument("name", help="uav5 or pair1d")
    p_init.add_argument("--out", default=None, help="output path (default NAME.json)")
    p_init.set_defaults(func=cmd_scenario_init)
    return parser


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 1 if e.code not in (0, None) else 0
    try:
        return args.func(args)
    except sysmodel.SchemaError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except (KeyError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
