"""Command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestCLI:
    def test_list(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "table1" in out and "fig12" in out

    def test_run_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "Summit" in out

    def test_run_with_seed(self, capsys):
        assert main(["table2", "--seed", "7"]) == 0
        assert "nvml" in capsys.readouterr().out

    def test_no_args_prints_help(self, capsys):
        assert main([]) == 2
        assert "usage" in capsys.readouterr().out.lower()

    def test_unknown_experiment_raises(self):
        with pytest.raises(Exception):
            main(["fig99"])

    def test_parser_program_name(self):
        assert build_parser().prog == "repro-experiments"

    def test_json_output(self, capsys):
        import json

        assert main(["table1", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["experiment_id"] == "table1"
        assert data["rows"][0][0] == "Summit"
        assert isinstance(data["headers"], list)


class TestSampleCLI:
    # 4 KiB cache on GEMM N=32: B no longer fits, so miss events are
    # dense and the estimate converges fast even at this tiny scale.
    ARGS = ["--kernel", "gemm", "--size", "32", "--cache-kib", "4",
            "--period", "8", "--json"]

    def test_sample_smoke(self, capsys):
        import json

        assert main(["sample"] + self.ARGS) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["kernel"] == "gemm-32"
        assert data["period"] == 8
        assert data["seed"] == 20230613
        assert data["exact"]["read_bytes"] > 0
        assert data["relative_error"]["total"] < 0.25
        assert data["overhead"]["samples"] > 0
        assert data["hot_lines"]

    def test_sample_listed(self, capsys):
        assert main(["--list"]) == 0
        assert "sample" in capsys.readouterr().out

    def test_sample_dispatches_after_leading_global_flags(self, capsys):
        # The sample subcommand must dispatch wherever it sits in
        # argv: `--seed 42 sample` must not feed the experiment parser.
        import json

        assert main(["--seed", "42", "sample"] + self.ARGS) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["kernel"] == "gemm-32"
        assert data["seed"] == 42

    def test_sample_max_error_gate(self, capsys):
        assert main(["sample"] + self.ARGS + ["--max-error", "1e-12"]) == 1
        capsys.readouterr()
        assert main(["sample"] + self.ARGS + ["--max-error", "0.9"]) == 0
