import json
import xml.dom.minidom

import numpy as np
import pytest

from cloudpricing.cli import main
from cloudpricing.pricing import instance_to_json, save_instance
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

    def test_break_demand_fails(self, capsys):
        code = main(["verify", "--scope", "demand", "--samples", "40", "--break-demand"])
        assert code != 0
        out = capsys.readouterr().out
        assert "[FAIL] demand-closed-form-vs-bisection" in out

    def test_unknown_scope_exit_one(self, capsys):
        assert main(["verify", "--scope", "nonsense"]) == 1


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

    def test_pivot_budget_exhausted_exit_two(self, spec_path, capsys, monkeypatch):
        import cloudpricing.simplex

        monkeypatch.setattr(cloudpricing.simplex, "PIVOTS_PER_LINE", 0)
        assert main(["schedule", "--spec", str(spec_path), "--beta", "2"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: phase-one simplex used its budget of 0 pivots")
        assert "Traceback" not in err

    def test_bad_spec_exit_one(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{\"horizon\": 0, \"intervals\": []}")
        assert main(["schedule", "--spec", str(path)]) == 1
