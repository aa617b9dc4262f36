import json
import xml.dom.minidom

import numpy as np
import pytest

from cloudpricing import optimizer, verify
from cloudpricing.cli import _sweep_target, main
from cloudpricing.optimizer import ObjectiveSpec, barrier_optimize
from cloudpricing.pricing import instance_to_json, load_instance, save_instance
from cloudpricing.synth import google_cluster_instance, planted_trace


@pytest.fixture
def instance_file(tmp_path):
    path = tmp_path / "instance.json"
    save_instance(google_cluster_instance(), path)
    return str(path)


@pytest.fixture
def trace_file(tmp_path):
    centers = np.array([[0.4, 2.7], [0.01, 0.02], [0.6, 0.5]])
    records = planted_trace(centers, jobs_per_cluster=40, noise=0.003, seed=6)
    path = tmp_path / "trace.csv"
    with open(path, "w") as fh:
        fh.write("time,job_id,task_id,cpu,mem\n")
        for r in records:
            fh.write(f"{r.time},{r.job_id},{r.task_id},{r.cpu!r},{r.mem!r}\n")
    return str(path)


class TestOptimize:
    def test_single_type_toy(self, tmp_path, capsys):
        from cloudpricing import Instance, ResourceModel, UserType, UtilityParams

        toy = Instance(
            resources=ResourceModel(names=("r",), capacities=(4.0,)),
            user_types=(UserType("a", 1, (1.0,), UtilityParams(0.5, 1.0)),),
            discount=1.0,
        )
        path = tmp_path / "toy.json"
        save_instance(toy, path)
        out = tmp_path / "result.json"
        code = main(
            [
                "optimize",
                "--instance",
                str(path),
                "--plan",
                "differentiated",
                "--tol",
                "1e-9",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        captured = capsys.readouterr().out
        assert "revenue: 2" in captured
        payload = json.loads(out.read_text())
        assert payload["prices"][0] == pytest.approx(0.5, rel=1e-6)
        assert payload["revenue"] == pytest.approx(2.0, rel=1e-6)

    def test_missing_file_exit_one(self, tmp_path, capsys):
        code = main(
            ["optimize", "--instance", str(tmp_path / "nope.json"), "--plan", "resource"]
        )
        assert code == 1

    def test_invalid_instance_exit_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        obj = instance_to_json(google_cluster_instance())
        obj["gamma"] = 0.1
        bad.write_text(json.dumps(obj))
        code = main(["optimize", "--instance", str(bad), "--plan", "resource"])
        assert code == 1

    @pytest.mark.parametrize(
        "option, value", [("--tol", "0"), ("--tol", "nan"), ("--tol", "inf"), ("--nu", "nan"),
                          ("--nu", "inf"), ("--beta", "inf")]
    )
    def test_malformed_solver_arguments_exit_one(self, instance_file, capsys, option, value):
        args = ["optimize", "--instance", instance_file, "--plan", "resource", option, value]
        assert main(args) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and option[2:] in err

    def test_bundled_weight_invariance(self, instance_file, tmp_path, capsys):
        prices = []
        for nu in ("0", "100"):
            out = tmp_path / f"b{nu}.json"
            code = main(
                [
                    "optimize",
                    "--instance",
                    instance_file,
                    "--plan",
                    "bundled",
                    "--nu",
                    nu,
                    "--tol",
                    "1e-9",
                    "--out",
                    str(out),
                ]
            )
            assert code == 0
            prices.append(json.loads(out.read_text())["prices"][0])
        assert prices[0] == pytest.approx(prices[1], rel=1e-6)


    @pytest.mark.parametrize("plan", ["resource", "differentiated"])
    def test_bundle_with_another_plan_exit_one(self, instance_file, tmp_path, capsys, plan):
        out = tmp_path / "result.json"
        args = ["optimize", "--instance", instance_file, "--plan", plan, "--bundle", "1,1"]
        assert main(args + ["--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: --bundle applies only to --plan bundled")
        assert not out.exists()

    @pytest.mark.parametrize("bundle", ["1,nan", "1,inf", "0,1"])
    def test_bad_bundle_exit_one_names_the_bundle(self, instance_file, capsys, bundle):
        args = ["optimize", "--instance", instance_file, "--plan", "bundled", "--bundle", bundle]
        assert main(args) == 1
        assert capsys.readouterr().err.startswith(
            "error: bundle entries must be finite and strictly positive"
        )


def _spoiled_instance(field: str) -> dict:
    """The reference market with one number that json reads but no market allows."""
    obj = instance_to_json(google_cluster_instance())
    if field == "c-infinite":
        obj["user_types"][0]["c"] = float("inf")
    elif field == "c-overflow":
        obj["user_types"][0]["c"] = 1e300
    elif field == "count":
        obj["user_types"][0]["count"] = 10**400
    elif field == "alpha":
        obj["user_types"][0]["alpha"] = 10**400
    elif field == "capacity":
        obj["resources"][0]["capacity"] = float("inf")
    else:
        obj["user_types"][0]["requirements"][1] = float("inf")
    return obj


@pytest.mark.parametrize(
    "field, message",
    [
        ("c-infinite", "user_types[0]: c must be finite"),
        ("c-overflow", "user_types[0]: demand coefficient inf (from c = 1e+300)"),
        ("count", "user_types[0]: count must be a positive integer in float range"),
        ("alpha", "user_types[0].alpha: expected a number in float range, got a 401-digit"),
        ("capacity", "resources[0].capacity: must be finite"),
        ("requirement", "user_types[0]: requirements must be finite"),
    ],
)
@pytest.mark.parametrize("command", ["optimize", "sweep", "schedule"])
def test_out_of_range_instance_numbers_exit_one(tmp_path, capsys, field, message, command):
    # json reads Infinity and integers of any size; each such market must
    # fail where it is built, naming the field, and never reach a solve
    obj = _spoiled_instance(field)
    path = tmp_path / "input.json"
    if command == "schedule":
        obj = {"horizon": 1, "intervals": [{"instance": obj, "deadlines": [1, 1, 1]}]}
        args = ["schedule", "--spec", str(path)]
    elif command == "sweep":
        args = ["sweep", "--instance", str(path), "--param", "gamma", "--start", "0.8"]
        args += ["--stop", "1.0", "--steps", "2"]
    else:
        args = ["optimize", "--instance", str(path), "--plan", "resource"]
    path.write_text(json.dumps(obj))
    assert main(args + ["--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err
    assert not (tmp_path / "out").exists()


class TestSweep:
    def test_row_count_and_determinism(self, instance_file, tmp_path, capsys):
        args = [
            "sweep",
            "--instance",
            instance_file,
            "--param",
            "capacity:mem",
            "--start",
            "2",
            "--stop",
            "6",
            "--steps",
            "2",
            "--nu",
            "0,1",
            "--beta",
            "2",
            "--plans",
            "bundled,resource",
        ]
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        assert main(args + ["--out", str(first)]) == 0
        assert main(args + ["--out", str(second)]) == 0
        rows = first.read_text().strip().splitlines()
        assert len(rows) - 1 == 2 * 2 * 2  # steps * nus * plans
        assert first.read_bytes() == second.read_bytes()

    def test_header_schema(self, instance_file, tmp_path):
        out = tmp_path / "sweep.csv"
        main(
            [
                "sweep",
                "--instance",
                instance_file,
                "--param",
                "gamma",
                "--start",
                "0.8",
                "--stop",
                "1.0",
                "--steps",
                "2",
                "--nu",
                "0",
                "--beta",
                "2",
                "--plans",
                "differentiated",
                "--out",
                str(out),
            ]
        )
        header = out.read_text().splitlines()[0]
        assert header == (
            "value,nu,gamma,plan,revenue,fairness,equitability,efficiency,"
            "utilities,leftover,prices,converged"
        )

    def test_gamma_sweep_nu_changes_revenue(self, instance_file, tmp_path):
        out = tmp_path / "gamma.csv"
        main(
            [
                "sweep",
                "--instance",
                instance_file,
                "--param",
                "gamma",
                "--start",
                "0.9",
                "--stop",
                "1.0",
                "--steps",
                "2",
                "--nu",
                "0,1",
                "--beta",
                "2",
                "--plans",
                "differentiated",
                "--out",
                str(out),
            ]
        )
        rows = [line.split(",") for line in out.read_text().strip().splitlines()[1:]]
        at_one = {row[1]: float(row[4]) for row in rows if row[0] == repr(1.0)}
        assert at_one[repr(0.0)] != pytest.approx(at_one[repr(1.0)], rel=1e-3)

    def test_svg_is_standalone(self, instance_file, tmp_path):
        svg = tmp_path / "chart.svg"
        main(
            [
                "sweep",
                "--instance",
                instance_file,
                "--param",
                "capacity:mem",
                "--start",
                "2",
                "--stop",
                "6",
                "--steps",
                "3",
                "--nu",
                "0",
                "--beta",
                "2",
                "--plans",
                "resource,differentiated",
                "--out",
                str(tmp_path / "s.csv"),
                "--svg",
                str(svg),
            ]
        )
        text = svg.read_text()
        xml.dom.minidom.parseString(text)  # well-formed
        assert "http://" not in text.replace("http://www.w3.org/2000/svg", "")
        assert "href" not in text

    def test_mix_sweep(self, instance_file, tmp_path):
        out = tmp_path / "mix.csv"
        code = main(
            [
                "sweep",
                "--instance",
                instance_file,
                "--param",
                "mix:type1",
                "--start",
                "0.1",
                "--stop",
                "0.8",
                "--steps",
                "3",
                "--nu",
                "0",
                "--beta",
                "2",
                "--plans",
                "differentiated",
                "--population",
                "10",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        rows = out.read_text().strip().splitlines()[1:]
        assert len(rows) == 3
        assert all(row.endswith("True") for row in rows)

    def test_bundled_capacity_columns_monotone(self, instance_file, tmp_path):
        out = tmp_path / "cap.csv"
        code = main(
            [
                "sweep",
                "--instance",
                instance_file,
                "--param",
                "capacity:mem",
                "--start",
                "0.3333",
                "--stop",
                "8",
                "--steps",
                "6",
                "--nu",
                "0",
                "--beta",
                "20",
                "--plans",
                "bundled",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        rows = [line.split(",") for line in out.read_text().strip().splitlines()[1:]]
        revenue = [float(row[4]) for row in rows]
        fairness = [float(row[5]) for row in rows]
        assert all(b >= a * (1 - 1e-9) for a, b in zip(revenue, revenue[1:]))
        assert all(b >= a - 1e-9 * abs(a) for a, b in zip(fairness, fairness[1:]))

    @pytest.mark.parametrize("population", ["0", "-5"])
    def test_population_below_one_exit_one(self, instance_file, tmp_path, capsys, population):
        # every type keeps at least one user, so a population below one
        # would flatten the sweep to one market on every row
        out = tmp_path / "mix.csv"
        args = ["sweep", "--instance", instance_file, "--param", "mix:type1", "--start", "0.1"]
        args += ["--stop", "0.5", "--steps", "3", f"--population={population}", "--out", str(out)]
        assert main(args) == 1
        assert capsys.readouterr().err.startswith("error: population must be at least 1")
        assert not out.exists()

    def test_mix_share_outside_unit_interval_recorded_not_fatal(self, instance_file, tmp_path):
        out = tmp_path / "mix.csv"
        args = ["sweep", "--instance", instance_file, "--param", "mix:type1", "--start", "-1"]
        args += ["--stop", "0.5", "--steps", "4", "--nu", "0", "--beta", "2"]
        args += ["--plans", "resource", "--out", str(out)]
        assert main(args) == 0
        rows = [line.split(",") for line in out.read_text().strip().splitlines()[1:]]
        assert [(float(row[0]), row[-1]) for row in rows] == [
            (-1.0, "False"), (-0.5, "False"), (0.0, "True"), (0.5, "True")
        ]
        with pytest.raises(ValueError, match="outside"):
            _sweep_target(google_cluster_instance(), "mix:type1", 10)(1.5)

    def test_bad_grid_points_recorded_not_fatal(self, instance_file, tmp_path):
        # gamma 0.4 undercuts type1's elasticity floor; the sweep must keep
        # going and mark those rows unconverged
        out = tmp_path / "gamma_edge.csv"
        code = main(
            [
                "sweep",
                "--instance",
                instance_file,
                "--param",
                "gamma",
                "--start",
                "0.4",
                "--stop",
                "1.0",
                "--steps",
                "4",
                "--nu",
                "0",
                "--beta",
                "2",
                "--plans",
                "differentiated",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        rows = [line.split(",") for line in out.read_text().strip().splitlines()[1:]]
        assert [row[-1] for row in rows] == ["False", "False", "True", "True"]

    def test_low_discount_fairness_overflow_not_fatal(self, instance_file, tmp_path):
        # at gamma 0.60 and beta 20 the power sum of the start point's
        # utilities exceeds the float range; the sweep must still write
        # every row
        out = tmp_path / "low_gamma.csv"
        code = main(
            [
                "sweep",
                "--instance",
                instance_file,
                "--param",
                "gamma",
                "--start",
                "0.60",
                "--stop",
                "0.64",
                "--steps",
                "3",
                "--beta",
                "20",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        rows = [line.split(",") for line in out.read_text().strip().splitlines()[1:]]
        assert len(rows) == 3 * 2 * 3  # steps * nus * plans
        assert {row[-1] for row in rows} <= {"True", "False"}
        assert all(len(row) == 12 for row in rows)

    def test_workers_flag_is_deprecated_noop(self, instance_file, tmp_path, capsys):
        args = [
            "sweep",
            "--instance",
            instance_file,
            "--param",
            "capacity:mem",
            "--start",
            "2",
            "--stop",
            "6",
            "--steps",
            "2",
            "--nu",
            "0,1",
            "--beta",
            "20",
        ]
        outputs = []
        for extra in (["--workers", "1"], ["--workers", "4"], []):
            out = tmp_path / f"sweep{len(outputs)}.csv"
            assert main(args + extra + ["--out", str(out)]) == 0
            warning = capsys.readouterr().err
            assert warning.count("deprecated") == (1 if extra else 0)
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1] == outputs[2]

    @pytest.mark.parametrize(
        "option, value",
        [
            ("--tol", "0"),
            ("--tol", "-1"),
            ("--tol", "nan"),
            ("--tol", "inf"),
            ("--beta", "1"),
            ("--beta", "-2"),
            ("--nu", "-1"),
            ("--nu", "nan"),
            ("--plans", "resource,bogus"),
            ("--nu", ""),
            ("--plans", ""),
        ],
    )
    def test_malformed_solver_arguments_exit_one(
        self, instance_file, tmp_path, capsys, option, value
    ):
        # a bad solver argument spoils every point, so it must stop the
        # sweep before any solve rather than fill a CSV with False rows
        out = tmp_path / "sweep.csv"
        args = ["sweep", "--instance", instance_file, "--param", "gamma", "--start", "0.8"]
        args += ["--stop", "1.0", "--steps", "2", option, value, "--out", str(out)]
        assert main(args) == 1
        assert capsys.readouterr().err.startswith("error:")
        assert not out.exists()

    @pytest.mark.parametrize(
        "start, stop",
        [("nan", "1.0"), ("0.8", "nan"), ("-inf", "1.0"), ("0.8", "inf"), ("nan", "nan")],
    )
    def test_non_finite_grid_ends_exit_one(self, instance_file, tmp_path, capsys, start, stop):
        # nan fails every comparison, so "stop <= start" alone let these
        # through to rows of converged=False and numpy warnings on stderr
        out = tmp_path / "sweep.csv"
        args = ["sweep", "--instance", instance_file, "--param", "gamma", f"--start={start}"]
        args += [f"--stop={stop}", "--steps", "2", "--out", str(out)]
        assert main(args) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "finite" in err
        assert "Warning" not in err
        assert not out.exists()

    def test_unallocatable_grid_exit_one(self, instance_file, tmp_path, capsys):
        # 10**15 grid points need petabytes, past any address space, so the
        # allocation fails at once and nothing is allocated
        out = tmp_path / "sweep.csv"
        args = ["sweep", "--instance", instance_file, "--param", "gamma", "--start", "0.8"]
        args += ["--stop", "1.0", "--steps", str(10**15), "--out", str(out)]
        assert main(args) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "memory" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "param, start, stop",
        [("capacity:mem", 0.5, 7.5), ("mix:type1", 0.1, 0.8), ("gamma", 0.6, 0.99)],
    )
    def test_warm_rows_match_cold_solves(self, instance_file, tmp_path, param, start, stop):
        # each row starts from the previous converged row of its plan; it
        # must land where a cold solve of the same market does, within --tol
        out = tmp_path / "sweep.csv"
        args = ["sweep", "--instance", instance_file, "--param", param, "--start", str(start)]
        args += ["--stop", str(stop), "--steps", "3", "--beta", "20", "--out", str(out)]
        assert main(args) == 0
        market_at = _sweep_target(google_cluster_instance(), param, 10)
        rows = [line.split(",") for line in out.read_text().strip().splitlines()[1:]]
        assert len(rows) == 3 * 2 * 3
        for row in rows:
            value, nu, plan_kind = float(row[0]), float(row[1]), row[3]
            try:
                cold = barrier_optimize(market_at(value), plan_kind, ObjectiveSpec(nu, 20.0))
            except ValueError:
                assert row[-1] == "False" and row[4] == ""
                continue
            assert row[-1] == str(cold.converged)
            if cold.converged:
                warm = nu * float(row[4]) + float(row[5])
                slack = 1e-6 * max(1.0, abs(cold.objective_value))
                assert warm >= cold.objective_value - slack
                assert warm <= cold.objective_value + slack

    def test_beta20_three_plan_sweep_is_reproducible(self, instance_file, tmp_path):
        # warm starts chain every row to the rows before it; reruns must agree
        args = ["sweep", "--instance", instance_file, "--param", "mix:type1", "--start", "0.1"]
        args += ["--stop", "0.8", "--steps", "3", "--beta", "20"]
        outputs = []
        for name in ("a.csv", "b.csv"):
            assert main(args + ["--out", str(tmp_path / name)]) == 0
            outputs.append((tmp_path / name).read_bytes())
        assert outputs[0] == outputs[1]

    def test_unknown_parameter_exit_one(self, instance_file):
        code = main(
            [
                "sweep",
                "--instance",
                instance_file,
                "--param",
                "capacity:gpu",
                "--start",
                "1",
                "--stop",
                "2",
                "--steps",
                "2",
            ]
        )
        assert code == 1

    @pytest.mark.parametrize(
        "param, message",
        [
            ("capacity:cpu", "capacity sweep: 2 resources are named 'cpu'"),
            ("mix:small", "mix sweep: 2 user types are labeled 'small'"),
        ],
    )
    def test_ambiguous_target_exit_one(self, tmp_path, capsys, param, message):
        # sweeping only the first of two equal names would leave the other
        # at its old value and still exit 0
        obj = instance_to_json(google_cluster_instance())
        obj["resources"][1]["name"] = "cpu"
        obj["user_types"][1]["label"] = "small"
        obj["user_types"][0]["label"] = "small"
        path = tmp_path / "instance.json"
        path.write_text(json.dumps(obj))
        args = ["sweep", "--instance", str(path), "--param", param, "--start", "0.2"]
        args += ["--stop", "0.4", "--steps", "2", "--out", str(tmp_path / "out.csv")]
        assert main(args) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "out.csv").exists()
        with pytest.raises(ValueError, match=message):
            _sweep_target(load_instance(path), param, 1000)


class TestIngest:
    def test_deterministic_instance(self, trace_file, tmp_path, capsys):
        args = [
            "ingest",
            "--trace",
            trace_file,
            "--k",
            "3",
            "--restarts",
            "10",
            "--seed",
            "42",
            "--k-std",
            "inf",
            "--capacities",
            "6,6",
            "--alphas",
            "0.4,0.7,0.5",
            "--cs",
            "1,1,1",
            "--counts",
            "1,8,1",
        ]
        first = tmp_path / "i1.json"
        second = tmp_path / "i2.json"
        assert main(args + ["--out", str(first)]) == 0
        assert main(args + ["--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()
        captured = capsys.readouterr().out
        assert "cluster_id,centroid_cpu,centroid_mem,count" in captured

        # requirement columns recover the planted centers
        written = json.loads(first.read_text())
        centers = np.array([[0.4, 2.7], [0.01, 0.02], [0.6, 0.5]])
        separation = min(
            np.linalg.norm(a - b) for i, a in enumerate(centers) for b in centers[i + 1 :]
        )
        for center in centers:
            nearest = min(
                np.linalg.norm(np.array(user["requirements"]) - center)
                for user in written["user_types"]
            )
            assert nearest <= 0.05 * separation

    def test_k_too_large_exit_one(self, tmp_path, capsys):
        path = tmp_path / "tiny.csv"
        path.write_text("time,job_id,task_id,cpu,mem\n0,j1,t1,1,1\n0,j2,t1,1,1\n")
        code = main(
            [
                "ingest",
                "--trace",
                str(path),
                "--k",
                "3",
                "--capacities",
                "1,1",
                "--alphas",
                "0.5,0.5,0.5",
                "--cs",
                "1,1,1",
                "--counts",
                "1,1,1",
                "--out",
                str(tmp_path / "x.json"),
            ]
        )
        assert code == 1


class TestVerify:
    def test_scope_filter(self, capsys):
        code = main(["verify", "--scope", "bounds", "--samples", "40"])
        assert code == 0
        out = capsys.readouterr().out
        assert "tradeoff-bounds-hold" in out
        assert "demand-closed-form-vs-bisection" not in out

    def test_break_demand_fails(self, monkeypatch, capsys):
        # a bisection root off by one part in a million must fail the root check
        bisect = verify.demand_by_bisection
        monkeypatch.setattr(
            verify, "demand_by_bisection", lambda *args: bisect(*args) * (1.0 + 1e-6)
        )
        code = main(["verify", "--scope", "demand", "--samples", "40"])
        assert code != 0
        out = capsys.readouterr().out
        assert "[FAIL] demand-closed-form-vs-bisection" in out

    def test_off_closed_form_bundled_price_fails(self, monkeypatch, capsys):
        # a closed-form bundled price one part in ten thousand high must fail
        # the check that compares it with the ladder and the grid
        level = optimizer._PriceProblem.level_for_load

        def off(problem, target, base=None, guess=1.0):
            scale = level(problem, target, base, guess)
            return scale * (1.0 + 1e-4) if target == 1.0 else scale

        monkeypatch.setattr(optimizer._PriceProblem, "level_for_load", off)
        assert main(["verify", "--scope", "oracle"]) != 0
        assert "[FAIL] bundled-price-weight-invariance" in capsys.readouterr().out

    def test_unknown_scope_exit_one(self, capsys):
        assert main(["verify", "--scope", "nonsense"]) == 1

    @pytest.mark.parametrize("samples", ["0", "-1"])
    def test_no_samples_exit_one(self, capsys, samples):
        # with no draws every sampled check passed vacuously
        assert main(["verify", "--scope", "demand", "--samples", samples]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and "samples" in captured.err
        assert "PASS" not in captured.out

    def test_one_sample_draws_in_every_check(self, monkeypatch, capsys):
        # the checks that take half the samples must still draw one
        drawn = {}

        def recording(name, check):
            def run(rng, samples):
                drawn[name] = samples
                return check(rng, samples)

            return run

        for name in ("_check_fairness_symmetry", "_check_log_domain"):
            monkeypatch.setattr(verify, name, recording(name, getattr(verify, name)))
        assert main(["verify", "--scope", "fairness", "--samples", "1"]) == 0
        assert drawn == {"_check_fairness_symmetry": 1, "_check_log_domain": 1}


class TestSchedule:
    @pytest.fixture
    def spec_path(self, tmp_path):
        """Two unit-capacity intervals whose first cohort must spill forward."""
        from cloudpricing import Instance, ResourceModel, UserType, UtilityParams

        market = Instance(
            resources=ResourceModel(names=("r",), capacities=(1.0,)),
            user_types=(UserType("a", 1, (1.0,), UtilityParams(0.5, 1.0)),),
            discount=1.0,
        )
        payload = {
            "horizon": 2,
            "intervals": [
                {"instance": instance_to_json(market), "deadlines": [2], "nu": 0.0},
                {"instance": instance_to_json(market), "deadlines": [2], "nu": 0.0},
            ],
        }
        path = tmp_path / "horizon.json"
        path.write_text(json.dumps(payload))
        return path

    def test_end_to_end(self, tmp_path, spec_path):
        out = tmp_path / "schedule.json"
        code = main(["schedule", "--spec", str(spec_path), "--beta", "2", "--out", str(out)])
        assert code == 0
        result = json.loads(out.read_text())
        assert result["price_scale"] > 1.0
        deferred = [
            entry for entry in result["schedule"] if entry["processed"] > entry["submitted"]
        ]
        assert deferred and deferred[0]["amount"] > 0.0

    def test_repair_round_budget_exhausted_exit_two(
        self, tmp_path, spec_path, capsys, monkeypatch
    ):
        import cloudpricing.deadline

        monkeypatch.setattr(cloudpricing.deadline, "REPAIR_ROUNDS", 1)
        out = tmp_path / "schedule.json"
        code = main(["schedule", "--spec", str(spec_path), "--beta", "2", "--out", str(out)])
        assert code == 2
        captured = capsys.readouterr()
        assert "did not close its gap" in captured.out
        assert "Traceback" not in captured.err
        # the unconverged repair still posts a schedulable, if higher, price scale
        assert json.loads(out.read_text())["price_scale"] > 1.0

    @pytest.mark.parametrize("tol", ["0", "nan", "inf"])
    def test_bad_tolerance_exit_one(self, tmp_path, spec_path, capsys, tol):
        out = tmp_path / "schedule.json"
        assert main(["schedule", "--spec", str(spec_path), "--tol", tol, "--out", str(out)]) == 1
        assert "error: tolerance must be finite and positive" in capsys.readouterr().err
        assert not out.exists()

    def test_nan_interval_nu_exit_one_names_the_interval(self, tmp_path, spec_path, capsys):
        payload = json.loads(spec_path.read_text())
        payload["intervals"][0]["nu"] = float("nan")
        spec_path.write_text(json.dumps(payload))
        assert main(["schedule", "--spec", str(spec_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: intervals[0].nu must be finite and nonnegative")

    def test_bad_spec_exit_one(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{\"horizon\": 0, \"intervals\": []}")
        assert main(["schedule", "--spec", str(path)]) == 1
