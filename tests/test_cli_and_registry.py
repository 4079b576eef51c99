"""Tests for the CLI and the experiment registry."""

import pytest

from repro.analysis.experiments import EXPERIMENTS, list_experiments, run_experiment
from repro.cli import build_parser, main


class TestRegistry:
    def test_every_paper_artifact_registered(self):
        expected = {
            "table1",
            "table2",
            "table3",
            "figure1",
            "figure2",
            "figure3",
            "figure4",
            "figure5",
            "figure6",
            "figure8",
            "figure9",
            "figure10",
            "figure11",
            "figure12",
            "exploit",
            "cluster_costs",
            "backpressure",
        }
        assert set(EXPERIMENTS) == expected

    def test_list_order_stable(self):
        assert list_experiments()[0] == "table1"

    def test_unknown_experiment(self):
        with pytest.raises(KeyError):
            run_experiment("figure99")

    def test_metadata_fields(self):
        for experiment in EXPERIMENTS.values():
            assert experiment.title
            assert experiment.modules.startswith("repro.")

    @pytest.mark.parametrize("experiment_id", ["table1", "figure1", "figure11", "table2", "exploit"])
    def test_cheap_experiments_run(self, experiment_id):
        rows = run_experiment(experiment_id)
        assert rows
        assert isinstance(rows[0], dict)


class TestCli:
    def test_parser_builds(self):
        parser = build_parser()
        args = parser.parse_args(["run", "table1", "--format", "markdown"])
        assert args.experiment == "table1"

    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        output = capsys.readouterr().out
        assert "figure10" in output

    def test_run_table1_text(self, capsys):
        assert main(["run", "table1"]) == 0
        output = capsys.readouterr().out
        assert "aws_lambda" in output

    def test_run_figure1_markdown(self, capsys):
        assert main(["run", "figure1", "--format", "markdown"]) == 0
        assert "| platform |" in capsys.readouterr().out

    def test_run_unknown_experiment_fails(self, capsys):
        assert main(["run", "figure99"]) == 2

    def test_no_command_prints_help(self, capsys):
        assert main([]) == 1
        assert "usage" in capsys.readouterr().out.lower()

    def test_trace_command_writes_csv(self, tmp_path, capsys):
        output = tmp_path / "trace.csv"
        assert main(["trace", "--requests", "200", "--functions", "10", "--output", str(output)]) == 0
        assert output.exists()
        assert "wrote 200 requests" in capsys.readouterr().out

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0

    def test_trace_generation_without_output_fails(self, capsys):
        assert main(["trace"]) == 2
        assert "--output" in capsys.readouterr().err

    def test_backpressure_writes_obs_artifacts(self, tmp_path, capsys):
        trace_out = tmp_path / "trace.json"
        telemetry_out = tmp_path / "telemetry.csv"
        profile_out = tmp_path / "profile.json"
        assert (
            main(
                [
                    "backpressure", "--queue-depths", "0", "--policies", "best_fit",
                    "--heterogeneity", "homogeneous", "--duration-s", "10",
                    "--feedback", "on", "--retry", "on",
                    "--trace-out", str(trace_out),
                    "--telemetry-out", str(telemetry_out),
                    "--profile-out", str(profile_out),
                ]
            )
            == 0
        )
        import json

        from repro.obs import validate_chrome_trace

        document = json.loads(trace_out.read_text())
        assert validate_chrome_trace(document["traceEvents"]) > 0
        assert telemetry_out.read_text().startswith("time_s")
        assert json.loads(profile_out.read_text())["events_total"] > 0
        assert f"profile_out={profile_out}" in capsys.readouterr().err

    def test_trace_simulate_cluster_jsonl(self, tmp_path, capsys):
        # A traced cluster simulation writes span JSONL when the trace path
        # ends in .jsonl.
        import json

        trace_out = tmp_path / "spans.jsonl"
        assert (
            main(
                [
                    "cluster", "--fleet-sizes", "4", "--policies", "best_fit",
                    "--duration-s", "10", "--trace-out", str(trace_out),
                ]
            )
            == 0
        )
        lines = [json.loads(line) for line in trace_out.read_text().splitlines()]
        assert lines and all("kind" in line for line in lines)

    def test_cluster_trace_out_records_first_point_only(self, tmp_path, capsys):
        import json

        grids = {
            "cluster": [
                "cluster", "--fleet-sizes", "4", "--policies", "first_fit,best_fit",
                "--keep-alive-s", "60", "--duration-s", "10",
            ],
            "backpressure": [
                "backpressure", "--queue-depths", "0,4", "--policies", "best_fit",
                "--heterogeneity", "homogeneous", "--duration-s", "10",
            ],
        }
        for command, args in grids.items():
            trace_out = tmp_path / f"{command}_trace.jsonl"
            telemetry_out = tmp_path / f"{command}_telemetry.csv"
            profile_out = tmp_path / f"{command}_profile.json"
            rows_out = tmp_path / f"{command}_rows.csv"
            plain_rows = tmp_path / f"{command}_plain.csv"
            assert main(args + ["--output", str(plain_rows)]) == 0
            assert (
                main(
                    args
                    + [
                        "--output", str(rows_out),
                        "--trace-out", str(trace_out),
                        "--telemetry-out", str(telemetry_out),
                        "--profile-out", str(profile_out),
                    ]
                )
                == 0
            )
            assert telemetry_out.exists() and profile_out.exists()
            spans = [json.loads(line) for line in trace_out.read_text().splitlines()]
            assert spans and all("kind" in span for span in spans)
            # The recording rides along without changing a byte of the rows.
            assert rows_out.read_bytes() == plain_rows.read_bytes(), command
            assert "first grid point" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (
                ["cluster", "--fleet-sizes", "2", "--policies", "best_fit,nope"],
                "invalid --policies value 'nope'; choose from: "
                "first_fit, best_fit, worst_fit, cost_fit",
            ),
            (
                ["backpressure", "--heterogeneity", "homogeneous,nope"],
                "invalid --heterogeneity value 'nope'; choose from: homogeneous, two_tier",
            ),
            (
                ["backpressure", "--retry", "off,maybe"],
                "invalid --retry value 'maybe'; choose from: off, on",
            ),
            (
                ["cluster", "--tenants", "0"],
                "invalid --tenants value '0'; choose from: off, an integer >= 1",
            ),
            (
                ["cluster", "--platform", "nope"],
                "invalid --platform value 'nope'; choose from: aws_lambda_like, "
                "gcp_run_like, azure_consumption_like, ibm_code_engine_like, "
                "cloudflare_workers_like",
            ),
            (
                ["backpressure", "--billing", "nope"],
                "invalid --billing value 'nope'; choose from: aws_lambda, gcp_run_request, "
                "gcp_run_instance, azure_consumption, azure_premium, azure_flex, "
                "ibm_code_engine, huawei_functiongraph, alibaba_fc, oracle_functions, "
                "vercel_functions, cloudflare_workers",
            ),
            (
                ["sweep", "--platforms", "gcp_run_like,nope"],
                "invalid --platforms value 'nope'; choose from: aws_lambda_like, "
                "gcp_run_like, azure_consumption_like, ibm_code_engine_like, "
                "cloudflare_workers_like",
            ),
            (
                ["sweep", "--workloads", "pyaes,nope"],
                "invalid --workloads value 'nope'; choose from: minimal, pyaes, "
                "pyaes_short, video_processing, io_bound",
            ),
        ],
        ids=[
            "policies", "heterogeneity", "retry", "tenants",
            "platform", "billing", "platforms", "workloads",
        ],
    )
    def test_bad_grid_value_exits_2_before_any_point(self, argv, message, tmp_path, capsys):
        # Each of these used to run the valid points first and then fail
        # inside a grid point, naming the internal param instead of the flag.
        journal = tmp_path / "grid.jsonl"
        assert main(argv + ["--checkpoint", str(journal)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == message + "\n"
        assert not journal.exists()
