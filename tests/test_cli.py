import csv
import io
import json
import math

import pytest

from entdist.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDistribute:
    def test_two_party_table(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "distribute",
            "--theta-a", "0.6", "--phi-a", "0.3",
            "--theta-b", "1.1", "--phi-b", "2.0",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 6  # header + 4 rows + total
        assert lines[-1] == "total probability: 1"

    def test_three_party_table(self, capsys):
        code, out, _ = run_cli(
            capsys, "distribute", "--parties", "3", "--theta-a", "0.4", "--theta-3", "0.9"
        )
        assert code == 0
        assert len(out.strip().splitlines()) == 10  # header + 8 rows + total

    def test_identity_noise_single_row(self, capsys):
        code, out, _ = run_cli(capsys, "distribute", "--theta-a", "0", "--theta-b", "0")
        assert code == 0
        assert "a1+b1  1 " in out.replace("  1  ", "  1 ") or "1" in out.splitlines()[1]

    def test_json_schema(self, capsys):
        code, out, _ = run_cli(
            capsys, "distribute", "--theta-a", "0.6", "--theta-b", "1.0",
            "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["command"] == "distribute"
        assert len(payload["outcomes"]) == 4
        assert payload["success_probability"] == pytest.approx(1.0)
        probs = [o["probability"] for o in payload["outcomes"]]
        assert sum(probs) == pytest.approx(1.0, abs=1e-11)

    def test_csv_round_trip(self, capsys):
        code, out, _ = run_cli(
            capsys, "distribute", "--theta-a", "0.7", "--theta-b", "0.2",
            "--format", "csv",
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 4
        for row in rows:
            value = float(row["probability"])
            assert f"{value:.12g}" == row["probability"]

    def test_invalid_angle_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "distribute", "--theta-a", "9")
        assert code == 2
        assert "--theta-a" in err

    def test_invalid_phi_names_field(self, capsys):
        code, _, err = run_cli(capsys, "distribute", "--phi-b", "7.0")
        assert code == 2
        assert "--phi-b" in err

    def test_party_count_bounds(self, capsys):
        code, _, err = run_cli(capsys, "distribute", "--parties", "9")
        assert code == 2
        assert "--parties" in err


class TestProtocolCommands:
    def test_bbm92_zero_qber(self, capsys):
        code, out, _ = run_cli(
            capsys, "bbm92", "--pairs", "20000", "--seed", "7",
            "--theta-a", "0.8", "--theta-b", "0.3", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["qber"] == 0.0
        assert payload["protocol"] == "bbm92"
        assert payload["n_trials"] == 20000

    def test_baseline_quarter_rotation(self, capsys):
        code, out, _ = run_cli(
            capsys, "baseline", "--pairs", "50000",
            "--theta-a", "0.7853981634", "--theta-b", "0", "--seed", "7",
            "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        sigma = 3 * math.sqrt(0.25 / payload["n_sifted"])
        assert abs(payload["qber"] - 0.5) < sigma

    def test_qss_runs(self, capsys):
        code, out, _ = run_cli(
            capsys, "qss", "--triples", "5000", "--theta-a", "0.5",
            "--theta-b", "1.0", "--theta-3", "0.2", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["qber"] == 0.0
        assert payload["params"]["basis_pair"] == "xy"

    def test_deterministic_json_output(self, tmp_path):
        paths = []
        for i in (1, 2):
            out = tmp_path / f"run{i}.json"
            code = main(
                [
                    "bbm92", "--pairs", "5000", "--seed", "42",
                    "--theta-a", "0.4", "--theta-b", "0.9",
                    "--format", "json", "--output", str(out),
                ]
            )
            assert code == 0
            paths.append(out)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_table_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "bbm92", "--pairs", "1000", "--theta-a", "0.2", "--theta-b", "0.1"
        )
        assert code == 0
        assert "qber        0" in out
        assert "sifted_by_basis" in out

    def test_nonpositive_pairs_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "bbm92", "--pairs", "0")
        assert code == 2
        assert "--pairs" in err

    def test_zero_sifted_reports_null_qber_with_warning(self, capsys):
        # seed 2 leaves the single trial unsifted (mismatched bases)
        code, out, err = run_cli(
            capsys, "bbm92", "--pairs", "1", "--seed", "2", "--format", "json"
        )
        assert code == 0
        assert json.loads(out)["qber"] is None
        assert "warning" in err and "qber undefined" in err


class TestSweep:
    def test_grid_shape_and_header(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--theta-a-grid", "0:1.5:5", "--theta-b-grid", "0:1.5:5",
            "--pairs", "500",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "theta_a,phi_a,theta_b,phi_b,scheme_qber,baseline_qber,success_prob"
        assert len(lines) == 26  # header + 25 rows

    def test_success_prob_all_one_and_scheme_zero(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--theta-a-grid", "0:1.5:3", "--pairs", "400"
        )
        rows = list(csv.DictReader(io.StringIO(out)))
        for row in rows:
            assert float(row["success_prob"]) == 1.0
            assert float(row["scheme_qber"]) == 0.0
        assert float(rows[0]["baseline_qber"]) == 0.0  # theta endpoint 0

    def test_round_trip(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--theta-a-grid", "0:1.5:4", "--pairs", "400"
        )
        rows = list(csv.DictReader(io.StringIO(out)))
        for row in rows:
            for key, text in row.items():
                assert f"{float(text):.12g}" == text

    def test_malformed_grid_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "sweep", "--theta-a-grid", "0:1.5")
        assert code == 2
        assert "--theta-a-grid" in err

    def test_zero_steps_rejected(self, capsys):
        code, _, err = run_cli(capsys, "sweep", "--theta-a-grid", "0:1:0")
        assert code == 2
        assert "steps" in err

    def test_deterministic_csv(self, tmp_path):
        outputs = []
        for i in (1, 2):
            path = tmp_path / f"sweep{i}.csv"
            code = main(
                [
                    "sweep", "--theta-a-grid", "0:1:3", "--pairs", "300",
                    "--seed", "5", "--output", str(path),
                ]
            )
            assert code == 0
            outputs.append(path.read_bytes())
        assert outputs[0] == outputs[1]


class TestConfigFile:
    def test_config_supplies_values(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"theta_a": 0.6, "theta_b": 1.0, "pairs": 2000, "seed": 9}))
        code, out, _ = run_cli(
            capsys, "bbm92", "--config", str(cfg), "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["seed"] == 9
        assert payload["params"]["theta_a"] == 0.6

    def test_flags_override_config(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"seed": 9, "pairs": 2000}))
        code, out, _ = run_cli(
            capsys, "bbm92", "--config", str(cfg), "--seed", "77", "--format", "json"
        )
        assert code == 0
        assert json.loads(out)["seed"] == 77

    def test_missing_config_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "bbm92", "--config", "/nonexistent.json")
        assert code == 2
        assert "--config" in err

    def run_with_config(self, tmp_path, capsys, config, command="bbm92"):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(config))
        return run_cli(capsys, command, "--config", str(cfg))

    def test_string_for_integer_exit_2(self, tmp_path, capsys):
        code, out, err = self.run_with_config(tmp_path, capsys, {"pairs": "100"})
        assert code == 2 and out == ""
        assert "'pairs'" in err and "integer" in err

    def test_invalid_choice_exit_2(self, tmp_path, capsys):
        code, out, err = self.run_with_config(tmp_path, capsys, {"format": "xml"})
        assert code == 2 and out == ""
        assert "'format'" in err and "xml" in err

    def test_unknown_key_exit_2(self, tmp_path, capsys):
        code, out, err = self.run_with_config(tmp_path, capsys, {"pairs": 100, "pears": 5})
        assert code == 2 and out == ""
        assert "'pears'" in err

    def test_other_commands_key_exit_2(self, tmp_path, capsys):
        code, _, err = self.run_with_config(tmp_path, capsys, {"pairs": 100}, command="qss")
        assert code == 2
        assert "'pairs'" in err

    def test_float_seed_and_string_angle_exit_2(self, tmp_path, capsys):
        code, _, err = self.run_with_config(tmp_path, capsys, {"seed": 1.5})
        assert code == 2 and "'seed'" in err
        code, _, err = self.run_with_config(tmp_path, capsys, {"theta_a": "x"})
        assert code == 2 and "'theta_a'" in err

    def test_integer_angle_is_a_float(self, tmp_path, capsys):
        code, out, _ = run_cli(capsys, "bbm92", "--pairs", "100", "--theta-a", "1", "--format", "json")
        from_flag = json.loads(out)["params"]["theta_a"]
        code, out, _ = self.run_with_config(
            tmp_path, capsys, {"pairs": 100, "theta_a": 1, "format": "json"}
        )
        assert code == 0
        assert json.loads(out)["params"]["theta_a"] == from_flag
        assert '"theta_a": 1.0' in out
