"""Command line behavior: artifacts, exit codes, scenario files."""

import json
import os

import pytest

from czest import simharness, sysmodel
from czest.cli import main


def write_scenario(tmp_path, name="pair1d", **extra):
    if name == "pair1d":
        doc = simharness.build_pair1d_scenario(horizon=3)
    else:
        doc = simharness.build_uav_scenario(horizon=3)
    doc.update(extra)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    return str(path)


class TestRun:
    def test_run_writes_artifacts(self, tmp_path, capsys):
        scn = write_scenario(tmp_path)
        out = str(tmp_path / "out")
        rc = main(["run", scn, "--trials", "2", "--out", out])
        assert rc == 0
        assert sorted(os.listdir(out)) == [
            "metrics.csv",
            "trial_000.jsonl",
            "trial_001.jsonl",
        ]
        text = capsys.readouterr().out
        assert "containment violations: 0" in text

    def test_run_builtin_name(self, tmp_path):
        out = str(tmp_path / "out")
        rc = main(
            [
                "run",
                "pair1d",
                "--out",
                out,
                "--metrics",
                "containment",
                "--algorithms",
                "centralized",
            ]
        )
        assert rc == 0
        assert os.path.exists(os.path.join(out, "metrics.csv"))

    def test_svg_emission(self, tmp_path):
        scn = write_scenario(tmp_path)
        out = str(tmp_path / "out")
        rc = main(["run", scn, "--out", out, "--svg"])
        assert rc == 0
        plots = sorted(os.listdir(os.path.join(out, "plots")))
        assert plots == [
            "diameter_agent1.svg",
            "diameter_agent2.svg",
            "trajectory_agent1.svg",
            "trajectory_agent2.svg",
        ]
        body = open(os.path.join(out, "plots", "trajectory_agent1.svg")).read()
        assert body.startswith("<svg ") and body.rstrip().endswith("</svg>")

    def test_svg_does_not_change_other_outputs(self, tmp_path):
        scn = write_scenario(tmp_path)
        out_a = str(tmp_path / "a")
        out_b = str(tmp_path / "b")
        assert main(["run", scn, "--out", out_a]) == 0
        assert main(["run", scn, "--out", out_b, "--svg"]) == 0
        for name in ("metrics.csv", "trial_000.jsonl"):
            a = open(os.path.join(out_a, name), "rb").read()
            b = open(os.path.join(out_b, name), "rb").read()
            assert a == b

    def test_seed_override_changes_output(self, tmp_path):
        scn = write_scenario(tmp_path)
        out_a = str(tmp_path / "a")
        out_b = str(tmp_path / "b")
        assert main(["run", scn, "--out", out_a, "--seed", "1"]) == 0
        assert main(["run", scn, "--out", out_b, "--seed", "2"]) == 0
        a = open(os.path.join(out_a, "trial_000.jsonl"), "rb").read()
        b = open(os.path.join(out_b, "trial_000.jsonl"), "rb").read()
        assert a != b

    def test_malformed_file_exit_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"agents": [,]}')
        rc = main(["run", str(bad)])
        assert rc == 1
        err = capsys.readouterr().err
        assert "bad.json:1:" in err

    def test_schema_error_exit_1(self, tmp_path, capsys):
        scn = write_scenario(tmp_path, horizon=-3)
        assert main(["run", scn]) == 1
        assert "horizon" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["pair1d", "uav5"])
    def test_unobservable_scenario_exit_1(self, tmp_path, capsys, name):
        # no measurement on pair1d, no time step on uav5: the rank test is
        # a property of the whole system, so the error names no key
        doc = simharness.builtin_scenario(name)
        for ad in doc["agents"]:
            if name == "pair1d":
                ad.update(C=[[0.0]], D=[[0.0]])
            else:
                ad["dynamics"]["T"] = 0
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert main(["run", str(path), "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: scenario: system not observable")
        assert not out.exists()

    def test_unknown_scenario_exit_1(self, capsys):
        assert main(["run", "atlantis"]) == 1
        assert "atlantis" in capsys.readouterr().err

    def test_contradictory_flags_exit_1(self, tmp_path, capsys):
        scn = write_scenario(tmp_path)
        rc = main(["run", scn, "--metrics", "containment", "--svg"])
        assert rc == 1
        assert "svg" in capsys.readouterr().err.lower()

    @pytest.mark.parametrize("extra", [["--trials", "0", "--svg"], ["--trials", "-2"]])
    def test_trials_below_one_exit_1(self, tmp_path, capsys, extra):
        out = str(tmp_path / "out")
        assert main(["run", "pair1d", "--out", out] + extra) == 1
        assert "--trials" in capsys.readouterr().err
        assert not os.path.exists(out)

    def test_duplicate_algorithm_exit_1(self, tmp_path, capsys):
        out = str(tmp_path / "out")
        assert main(["run", "pair1d", "--out", out, "--algorithms", "oit,oit"]) == 1
        assert "scenario.algorithms" in capsys.readouterr().err
        assert not os.path.exists(out)

    @pytest.mark.parametrize("extra", [["--delta-bar", "0"], ["--delta-bar", "-3", "--algorithms", "centralized"]])
    def test_delta_bar_below_requirement_exit_1(self, tmp_path, capsys, extra):
        out = str(tmp_path / "out")
        assert main(["run", "uav5", "--out", out] + extra) == 1
        assert "scenario.delta_bar" in capsys.readouterr().err
        assert not os.path.exists(out)

    @pytest.mark.parametrize(
        "extra, key",
        [
            ({"horizon": 2.5}, "horizon"),
            ({"seed": 1.7}, "seed"),
            ({"seed": True}, "seed"),
            ({"injected_noise_scale": -1.0}, "injected_noise_scale"),
            ({"injected_noise_scale": float("nan")}, "injected_noise_scale"),
        ],
        ids=["fractional-horizon", "fractional-seed", "bool-seed", "negative-scale", "nan-scale"],
    )
    def test_invalid_scenario_numbers_exit_1(self, tmp_path, capsys, extra, key):
        scn = write_scenario(tmp_path, **extra)
        out = str(tmp_path / "out")
        assert main(["run", scn, "--out", out]) == 1
        assert f"scenario.{key}" in capsys.readouterr().err
        assert not os.path.exists(out)

    def test_negative_seed_option_exit_1(self, tmp_path, capsys):
        # numpy's seeding would refuse it only after the output directory
        # exists, without naming the key
        out = str(tmp_path / "out")
        assert main(["run", "pair1d", "--seed", "-1", "--out", out]) == 1
        assert "scenario.seed" in capsys.readouterr().err
        assert not os.path.exists(out)

    def test_plot_coords_past_an_agent_state_exit_1(self, tmp_path, capsys):
        # uav5's agents have 4 states, so a second index 9 fails before
        # the run, not in the plot after it
        scn = write_scenario(tmp_path, name="uav5", plot_coords=[0, 9])
        out = str(tmp_path / "out")
        assert main(["run", scn, "--out", out, "--svg"]) == 1
        assert "scenario.plot_coords" in capsys.readouterr().err
        assert not os.path.exists(out)

    def test_plot_coords_second_index_skips_scalar_agents(self):
        # pair1d's scalar agents plot the first index only
        doc = simharness.build_pair1d_scenario(horizon=3)
        doc["plot_coords"] = [0, 2]
        assert simharness.ScenarioConfig(doc).plot_coords == (0, 2)

    def test_svg_after_first_trial_aborted_exit_2(self, tmp_path, capsys):
        # trial 0 aborts at step 1, so no trial has anything to plot: the
        # run still reports the abort and exits 2
        scn = write_scenario(tmp_path, injected_noise_scale=4.0, noise_grid=None)
        out = str(tmp_path / "out")
        assert main(["run", scn, "--out", out, "--svg"]) == 2
        text = capsys.readouterr().out
        assert "trial 0: aborted at step 1 (empty posterior)" in text
        assert "no trial has step records" in text
        assert sorted(os.listdir(out)) == ["metrics.csv", "trial_000.jsonl"]

    def test_svg_plots_first_trial_with_steps(self, tmp_path, capsys):
        # trial 0 aborts at step 1 and trial 1 has steps: it is plotted
        doc = simharness.build_pair1d_scenario(seed=2)
        doc.update(injected_noise_scale=1.5, noise_grid=None)
        scn = tmp_path / "scenario.json"
        scn.write_text(json.dumps(doc))
        out = str(tmp_path / "out")
        assert main(["run", str(scn), "--trials", "2", "--out", out, "--svg"]) == 2
        text = capsys.readouterr().out
        assert "trial 0: aborted at step 1" in text
        assert "plots: trial 1" in text
        assert len(os.listdir(os.path.join(out, "plots"))) == 4

    def test_undeclared_noise_exit_2(self, tmp_path, capsys):
        scn = write_scenario(
            tmp_path, injected_noise_scale=4.0, noise_grid=None
        )
        out = str(tmp_path / "out")
        rc = main(["run", scn, "--trials", "2", "--out", out])
        assert rc == 2
        text = capsys.readouterr().out
        assert "violation" in text or "aborted" in text


class TestVerify:
    def test_single_suite_pass(self, capsys):
        rc = main(["verify", "--filter", "oracle"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "oracle.grid" in out and "pass" in out

    def test_injected_fault_detected(self, capsys):
        rc = main(["verify", "--filter", "stacking", "--inject-fault"])
        assert rc == 2
        assert "FAIL" in capsys.readouterr().out

    def test_distributed_suite_pass(self, capsys):
        assert main(["verify", "--filter", "distributed"]) == 0
        out = capsys.readouterr().out
        assert "distributed.uav5" in out and "distributed.pair1d" in out

    def test_injected_fault_detected_by_distributed_replay(self, capsys):
        rc = main(["verify", "--filter", "distributed", "--inject-fault"])
        assert rc == 2
        assert "FAIL" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "suite, names", [("backends", ["backends.uav5", "backends.pair1d"]), ("oracle", ["oracle.grid"])]
    )
    def test_aborted_trial_fails_the_suite(self, monkeypatch, capsys, suite, names):
        # a solver failure at k = 2 cuts the replayed trial short: the
        # steps before it still agree, but the suite must not pass on them
        from czest import filters, lp

        step = filters.CentralizedFilter.step

        def failing(self, k, batch):
            if k == 2:
                raise lp.NumericalError("injected")
            step(self, k, batch)

        monkeypatch.setattr(filters.CentralizedFilter, "step", failing)
        assert main(["verify", "--filter", suite]) == 2
        lines = capsys.readouterr().out.splitlines()
        for name in names:
            (line,) = [ln for ln in lines if ln.startswith(name + " ")]
            assert "FAIL" in line and "trial aborted" in line and "numerical error" in line

    def test_fault_flag_does_not_leak(self):
        from czest import filters

        main(["verify", "--filter", "stacking", "--inject-fault"])
        assert filters._COUPLING_SIGN == 1.0


def _initial_range(lo, hi, extra=0):
    """Fixed initial mode with unit ranges, agent 1's replaced by [lo, hi]
    in each coordinate, with ``extra`` coordinates more than its state."""

    def mutate(doc):
        doc["initial"] = {"mode": "fixed"}
        for ad in doc["agents"]:
            n = len(ad["B"])  # the agent's state dimension
            ad["initial_range"] = {"lo": [-1.0] * n, "hi": [1.0] * n}
        n = len(doc["agents"][0]["B"]) + extra
        doc["agents"][0]["initial_range"] = {"lo": [lo] * n, "hi": [hi] * n}

    return mutate


def _agent_matrix(key, value):
    """Agent 1's matrix ``key`` with its first entry replaced by value."""

    def mutate(doc):
        M = [list(row) for row in doc["agents"][0][key]]
        M[0][0] = value
        doc["agents"][0][key] = M

    return mutate


def _dynamics(**dyn):
    """Agent 1's dynamics replaced; a constant ``A`` given as a scalar
    fills the agent's n x n matrix."""

    def mutate(doc):
        n = len(doc["agents"][0]["B"])
        A = {"A": [[dyn["A"]] * n] * n} if dyn["kind"] == "constant" else {}
        doc["agents"][0]["dynamics"] = dict(dyn, **A)

    return mutate


def _top(**keys):
    return lambda doc: doc.update(keys)


def _sampled(**keys):
    """Sampled initial mode with ``keys`` set."""
    return _top(initial=dict({"mode": "sampled"}, **keys))


def _first_agent(**keys):
    return lambda doc: doc["agents"][0].update(keys)


def _nested_box(*keys):
    """Agent 1's box at ``keys`` with each end wrapped in one more list."""

    def mutate(doc):
        box = doc["agents"][0]
        for key in keys:
            box = box[key]
        box.update(lo=[box["lo"]], hi=[box["hi"]])

    return mutate


def _nested_initial_range(doc):
    _initial_range(-1.0, 1.0)(doc)
    _nested_box("initial_range")(doc)


NAN, INF = float("nan"), float("inf")

# (mutation, key the error names); each is applied to both built-ins
SCHEMA_MUTATIONS = {
    "noise_grid-nan": (_top(noise_grid=NAN), "scenario.noise_grid"),
    "noise_grid-inf": (_top(noise_grid=INF), "scenario.noise_grid"),
    "noise_grid--inf": (_top(noise_grid=-INF), "scenario.noise_grid"),
    "noise_grid-string": (_top(noise_grid="x"), "scenario.noise_grid"),
    "algorithms-string": (_top(algorithms="oit"), "scenario.algorithms"),
    "initial-crossed": (_initial_range(1.0, -1.0), "agents[0].initial_range"),
    "initial-nan": (_initial_range(NAN, 1.0), "agents[0].initial_range"),
    "initial-inf": (_initial_range(-1.0, INF), "agents[0].initial_range"),
    "initial-dimension": (_initial_range(-1.0, 1.0, extra=1), "agents[0].initial_range"),
    "initial-nested": (_nested_initial_range, "agents[0].initial_range"),
    "process_noise-nested": (_nested_box("process_noise"), "agents[0].process_noise"),
    "measurement_noise-nested": (_nested_box("measurement_noise"), "agents[0].measurement_noise"),
    "relative_noise-nested": (_nested_box("relative_noise", "2"), "agents[0].relative_noise[2]"),
    "B-nan": (_agent_matrix("B", NAN), "agents[0].B"),
    "C-inf": (_agent_matrix("C", INF), "agents[0].C"),
    "D-nan": (_agent_matrix("D", NAN), "agents[0].D"),
    "A-inf": (_dynamics(kind="constant", A=INF), "agents[0].dynamics.A"),
    "omega-nan": (_dynamics(kind="coordinated-turn", omega=NAN, T=0.25), "agents[0].dynamics.omega"),
    "omega-zero": (_dynamics(kind="coordinated-turn", omega=0.0, T=0.25), "agents[0].dynamics.omega"),
    "T-inf": (_dynamics(kind="coordinated-turn", omega=1.0, T=INF), "agents[0].dynamics.T"),
    "center_low-string": (_sampled(center_low="x"), "scenario.initial.center_low"),
    "center_high-string": (_sampled(center_high="x"), "scenario.initial.center_high"),
    "half_width-string": (_sampled(half_width="x"), "scenario.initial.half_width"),
    "initial-list": (_top(initial=[]), "scenario.initial"),
    "relative_noise-list": (_first_agent(relative_noise=[]), "agents[0].relative_noise"),
    "id-string": (_first_agent(id="x"), "agents[0].id"),
    "seed-negative": (_top(seed=-1), "scenario.seed"),
    "plot_coords-string": (_top(plot_coords="xy"), "scenario.plot_coords"),
    "plot_coords-negative": (_top(plot_coords=[-1, 0]), "scenario.plot_coords"),
    "plot_coords-past-state": (_top(plot_coords=[9, 0]), "scenario.plot_coords"),
    "plot_coords-fraction": (_top(plot_coords=[0.5, 0]), "scenario.plot_coords"),
    "edges-number": (_top(edges=5), "scenario.edges"),
    "edge-one-entry": (_top(edges=[[1]]), "scenario.edges"),
    "edge-three-entries": (_top(edges=[[1, 2, 3], [2, 1]]), "scenario.edges"),
    "agent-number": (lambda doc: doc["agents"].__setitem__(0, 5), "agents[0]"),
    "dynamics-number": (_first_agent(dynamics=5), "agents[0].dynamics"),
    "B-nested": (lambda doc: doc["agents"][0].update(B=[doc["agents"][0]["B"]]), "agents[0].B"),
    "C-nested": (lambda doc: doc["agents"][0].update(C=[doc["agents"][0]["C"]]), "agents[0].C"),
    "C-flat": (lambda doc: doc["agents"][0].update(C=sum(doc["agents"][0]["C"], [])), "agents[0].C"),
    "D-nested": (lambda doc: doc["agents"][0].update(D=[doc["agents"][0]["D"]]), "agents[0].D"),
    "D-flat": (lambda doc: doc["agents"][0].update(D=sum(doc["agents"][0]["D"], [])), "agents[0].D"),
}


@pytest.mark.parametrize("scenario", ["uav5", "pair1d"])
@pytest.mark.parametrize("mutation", list(SCHEMA_MUTATIONS))
def test_schema_mutation_fails_before_the_run(tmp_path, capsys, scenario, mutation):
    # each mutation is a SchemaError naming its key at ScenarioConfig, and
    # czest run exits 1 before it creates its output directory
    mutate, key = SCHEMA_MUTATIONS[mutation]
    doc = simharness.builtin_scenario(scenario)
    doc["horizon"] = 3
    mutate(doc)
    with pytest.raises(sysmodel.SchemaError) as info:
        simharness.ScenarioConfig(doc)
    assert str(info.value).startswith(key + ":"), info.value
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert main(["run", str(path), "--out", str(out)]) == 1
    assert key in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("scenario", ["uav5", "pair1d"])
def test_valid_fixed_initial_ranges_run(tmp_path, scenario):
    # the unmutated fixed initial ranges of the table above are accepted
    doc = simharness.builtin_scenario(scenario)
    doc["horizon"] = 2
    _initial_range(-1.0, 1.0)(doc)
    cfg = simharness.ScenarioConfig(doc)
    log = simharness.run_trial(cfg, 0, metrics="containment")
    assert log.header["initial"]["1"] == [[-1.0] * len(doc["agents"][0]["B"]), [1.0] * len(doc["agents"][0]["B"])]
    assert log.aborted is None and len(log.steps) == 2


class TestScenarioInit:
    def test_round_trip_run(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        rc = main(["scenario-init", "pair1d"])
        assert rc == 0
        doc = json.loads((tmp_path / "pair1d.json").read_text())
        assert doc["name"] == "pair1d"
        assert "description" in doc
        doc["horizon"] = 2
        (tmp_path / "pair1d.json").write_text(json.dumps(doc))
        assert main(["run", "pair1d.json", "--out", "out"]) == 0

    def test_uav5_parameters_present(self, tmp_path):
        out = str(tmp_path / "u.json")
        assert main(["scenario-init", "uav5", "--out", out]) == 0
        doc = json.loads(open(out).read())
        dyn = doc["agents"][0]["dynamics"]
        assert dyn["kind"] == "coordinated-turn"
        assert dyn["omega"] == 1.0
        assert dyn["T"] == pytest.approx(3.141592653589793 / 12)
        assert doc["agents"][0]["process_noise"] == {"lo": [-1.0, -1.0], "hi": [1.0, 1.0]}

    def test_unknown_name_exit_1(self, capsys):
        assert main(["scenario-init", "warpdrive"]) == 1
        assert "warpdrive" in capsys.readouterr().err
