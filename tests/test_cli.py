import csv
import hashlib
import importlib
import io
import json
import math
import os
import pkgutil
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import entdist
from entdist import cli, protocols, rng
from entdist.cli import main
from entdist.distribution import run_distribution
from entdist.protocols import qber_vs_theta_sweep


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
        assert out.splitlines()[1:] == [
            "a1+b1    1                 psi_plus   1",
            "a1+b2    0                 phi_plus   -",
            "a2+b1    0                 phi_plus   -",
            "a2+b2    0                 psi_plus   -",
            "total probability: 1",
        ]

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

    def test_angle_beyond_parties_exit_2(self, capsys):
        code, out, err = run_cli(capsys, "distribute", "--parties", "2", "--theta-3", "0.5")
        assert code == 2 and out == ""
        assert "--theta-3" in err

    @pytest.mark.parametrize("theta_a", ["1e-157", "1e-160", "3.2e-162"])
    def test_subnormal_pattern_probability(self, capsys, theta_a):
        """Here a live pattern's probability is subnormal; its conditional
        must still be normalized, so fidelity stays 1."""
        code, out, err = run_cli(
            capsys, "distribute", "--theta-a", theta_a, "--theta-b", "0.7", "--format", "json"
        )
        assert code == 0, err
        outcomes = json.loads(out)["outcomes"]
        assert abs(sum(o["probability"] for o in outcomes) - 1.0) <= 1e-9
        fidelities = [o["fidelity"] for o in outcomes if o["fidelity"] is not None]
        assert len(fidelities) >= 3
        assert all(abs(f - 1.0) <= 1e-9 for f in fidelities)
        code, out, err = run_cli(
            capsys, "bbm92", "--pairs", "1000", "--theta-a", theta_a, "--theta-b", "0.7"
        )
        assert code == 0, err

    def test_table_columns_stay_apart_for_long_probabilities(self, capsys):
        """A subnormal probability prints as 18 characters; the reference
        column still starts after a space, on every row."""
        code, out, err = run_cli(capsys, "distribute", "--theta-a", "3.2e-162", "--theta-b", "0.7")
        assert code == 0, err
        rows = [line.split() for line in out.splitlines()[:-1]]
        assert rows[0] == ["pattern", "probability", "reference", "fidelity"]
        assert [len(row) for row in rows] == [4] * 5
        assert "9.88131291682e-324" in [row[1] for row in rows]
        starts = {line.index(row[2]) for line, row in zip(out.splitlines(), rows)}
        assert len(starts) == 1

    def test_unwritable_output_exit_2(self, tmp_path, capsys):
        target = tmp_path / "missing" / "x.txt"
        code, out, err = run_cli(capsys, "distribute", "--output", str(target))
        assert code == 2 and out == ""
        assert err.startswith("error: --output: ")
        assert not target.exists()


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

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_64_bits_exit_2(self, capsys, seed):
        code, out, err = run_cli(capsys, "bbm92", "--pairs", "10", "--seed", str(seed))
        assert code == 2 and out == ""
        assert "--seed" in err

    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    def test_seed_at_64_bit_edges_accepted(self, capsys, seed):
        code, out, _ = run_cli(
            capsys, "bbm92", "--pairs", "10", "--seed", str(seed), "--format", "json"
        )
        assert code == 0
        assert json.loads(out)["seed"] == seed

    def test_zero_sifted_reports_null_qber_with_warning(self, capsys):
        # seed 2 leaves the single trial unsifted (mismatched bases)
        code, out, err = run_cli(
            capsys, "bbm92", "--pairs", "1", "--seed", "2", "--format", "json"
        )
        assert code == 0
        assert json.loads(out)["qber"] is None
        assert "warning" in err and "qber undefined" in err


    @pytest.mark.parametrize(
        "fmt, line",
        [
            ("table", "qber        undefined"),
            ("csv", "bbm92,1,0,0,0,0,1,0,0,nan,0,2"),
            ("json", '  "qber": null,'),
        ],
    )
    def test_zero_sifted_qber_is_undefined_in_every_format(self, capsys, fmt, line):
        code, out, err = run_cli(capsys, "bbm92", "--pairs", "1", "--seed", "2", "--format", fmt)
        assert code == 0
        assert line in out.splitlines()
        assert err == "warning: no sifted trials; qber undefined\n"


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

    @pytest.mark.parametrize("grid", ["a:1:3", "0:1:x"])
    def test_unparsable_grid_exit_2(self, capsys, grid):
        code, out, err = run_cli(capsys, "sweep", "--theta-a-grid", grid)
        assert code == 2 and out == ""
        assert err.startswith("error: --theta-a-grid: ") and err.count("\n") == 1

    def test_unsifted_rows_print_nan_scheme_qber(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--theta-a-grid", "0.2:1.2:3", "--pairs", "1", "--seed", "0"
        )
        assert code == 0
        assert out.splitlines()[1:] == [
            "0.2,0,0,0,nan,0,1",
            "0.7,0,0,0,nan,0,1",
            "1.2,0,0,0,nan,1,1",
        ]

    @pytest.mark.parametrize("flag, grid", [("--phi-b-grid", "0:7:2"), ("--theta-a-grid", "0:2:3")])
    def test_out_of_range_grid_angle_exit_2(self, capsys, flag, grid):
        code, out, err = run_cli(capsys, "sweep", flag, grid, "--pairs", "100")
        assert code == 2 and out == ""
        assert err.startswith(f"error: {flag}: ")

    @pytest.mark.parametrize("fmt", ["json", "table"])
    def test_format_other_than_csv_exit_2(self, capsys, fmt):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--pairs", "100", "--format", fmt])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--format" in captured.err

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

    def run_with_config_text(self, tmp_path, capsys, text):
        cfg = tmp_path / "run.json"
        cfg.write_text(text)
        return run_cli(capsys, "bbm92", "--config", str(cfg))

    @pytest.mark.parametrize(
        "text, cause",
        [
            (b'{"seed": 1}\xff', "can't decode byte 0xff"),
            (b"[" * 100_000 + b"]" * 100_000, "maximum recursion depth exceeded"),
            (b'{"seed": ' + b"1" * 5000 + b"}", "Exceeds the limit (4300 digits)"),
        ],
        ids=["not-utf-8", "nested-too-deep", "over-long-integer"],
    )
    def test_unreadable_file_exit_2(self, tmp_path, capsys, text, cause):
        cfg = tmp_path / "run.json"
        cfg.write_bytes(text)
        code, out, err = run_cli(capsys, "bbm92", "--config", str(cfg))
        assert (code, out, err.count("\n")) == (2, "", 1)
        assert err.startswith("error: --config: ") and cause in err

    def test_array_exit_2(self, tmp_path, capsys):
        result = self.run_with_config_text(tmp_path, capsys, '[{"pairs": 100}]')
        assert result == (2, "", "error: --config: expected a flat JSON object\n")

    def test_nested_object_is_a_value_not_options(self, tmp_path, capsys):
        # a key repeated inside a value names no option: only the value's type is wrong
        result = self.run_with_config_text(tmp_path, capsys, '{"pairs": {"x": 1, "x": 2}}')
        line = 'error: --config: key \'pairs\': expected an integer, got {"x": 2}\n'
        assert result == (2, "", line)

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

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_key_outside_64_bits_exit_2(self, tmp_path, capsys, seed):
        code, out, err = self.run_with_config(tmp_path, capsys, {"seed": seed, "pairs": 10})
        assert code == 2 and out == ""
        assert "'seed'" in err

    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    def test_seed_key_at_64_bit_edges_accepted(self, tmp_path, capsys, seed):
        code, out, _ = self.run_with_config(
            tmp_path, capsys, {"seed": seed, "pairs": 10, "format": "json"}
        )
        assert code == 0
        assert json.loads(out)["seed"] == seed

    def test_sweep_format_key_exit_2(self, tmp_path, capsys):
        code, out, err = self.run_with_config(tmp_path, capsys, {"format": "json"}, command="sweep")
        assert code == 2 and out == ""
        assert "'format'" in err and "json" in err

    def test_angle_key_beyond_parties_exit_2(self, tmp_path, capsys):
        code, out, err = self.run_with_config(
            tmp_path, capsys, {"parties": 3, "phi_4": 1.0}, command="distribute"
        )
        assert code == 2 and out == ""
        assert "'phi_4'" in err

    @pytest.mark.parametrize(
        "command, config, key",
        [
            ("distribute", {"parties": 9}, "parties"),
            ("bbm92", {"pairs": 0}, "pairs"),
            ("qss", {"triples": -3}, "triples"),
            ("sweep", {"pairs": 0}, "pairs"),
            ("bbm92", {"theta_a": 9.0}, "theta_a"),
            ("distribute", {"phi_b": 7.0}, "phi_b"),
            ("sweep", {"theta_a_grid": "0:2:3"}, "theta_a_grid"),
            ("sweep", {"theta_a_grid": "0:1"}, "theta_a_grid"),
            ("distribute", {"output": "/nonexistent/dir/x.txt"}, "output"),
        ],
    )
    def test_range_error_names_key(self, tmp_path, capsys, command, config, key):
        code, out, err = self.run_with_config(tmp_path, capsys, config, command=command)
        assert code == 2 and out == ""
        assert err.startswith(f"error: --config: key {key!r}: ")

    def test_integer_angle_is_a_float(self, tmp_path, capsys):
        code, out, _ = run_cli(capsys, "bbm92", "--pairs", "100", "--theta-a", "1", "--format", "json")
        from_flag = json.loads(out)["params"]["theta_a"]
        code, out, _ = self.run_with_config(
            tmp_path, capsys, {"pairs": 100, "theta_a": 1, "format": "json"}
        )
        assert code == 0
        assert json.loads(out)["params"]["theta_a"] == from_flag
        assert '"theta_a": 1.0' in out


def _lossy_distribution(*noise):
    """run_distribution with half of every pattern's probability lost."""
    return [
        o._replace(probability=o.probability / 2)
        for o in run_distribution(*noise)
    ]


def _blurred_distribution(*noise):
    """run_distribution delivering every live pattern at fidelity 0.9."""
    return [
        o._replace(fidelity=None if o.fidelity is None else 0.9)
        for o in run_distribution(*noise)
    ]


def _leaky(run):
    """A protocol run that reports one error among its sifted trials."""
    def leaky_run(*args, **kwargs):
        stats = run(*args, **kwargs)
        return stats._replace(n_errors=1, qber=1 / stats.n_sifted)
    return leaky_run


def _broken_sweep(field, value):
    def sweep(*args):
        return [row._replace(**{field: value}) for row in qber_vs_theta_sweep(*args)]
    return sweep


class TestInvariant:
    """A result the model rules out exits 1 with one line and no traceback."""

    @pytest.mark.parametrize(
        "name, fake, argv",
        [
            ("run_distribution", _lossy_distribution, ("distribute", "--theta-a", "0.6")),
            ("run_distribution", _blurred_distribution, ("distribute", "--parties", "3")),
            ("bbm92_run", _leaky(protocols.bbm92_run), ("bbm92", "--pairs", "2000")),
            ("qss_run", _leaky(protocols.qss_run), ("qss", "--triples", "2000")),
            ("qber_vs_theta_sweep", _broken_sweep("success_prob", 0.5), ("sweep", "--pairs", "100")),
            ("qber_vs_theta_sweep", _broken_sweep("scheme_qber", 0.01), ("sweep", "--pairs", "100")),
        ],
    )
    def test_violation_exit_1(self, monkeypatch, capsys, name, fake, argv):
        # cli binds run_distribution; it imports the protocol runs from protocols when they run
        monkeypatch.setattr(cli if name == "run_distribution" else protocols, name, fake)
        code, out, err = run_cli(capsys, *argv)
        assert code == 1 and out == ""
        assert err.startswith("error: internal invariant violated: ")
        assert err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parametrize(
        "name, fake, argv, message",
        [
            (
                "run_distribution",
                _blurred_distribution,
                ("distribute", "--parties", "3"),
                lambda outcomes: next(
                    f"{o.pattern_names} fidelity {o.fidelity!r} is not 1"
                    for o in outcomes
                    if o.fidelity is not None
                ),
            ),
            (
                "qber_vs_theta_sweep",
                _broken_sweep("success_prob", 0.5),
                ("sweep", "--pairs", "100"),
                lambda rows: f"{rows[0]!r}: success_prob is not 1",
            ),
            (
                "qber_vs_theta_sweep",
                _broken_sweep("scheme_qber", 0.01),
                ("sweep", "--pairs", "100"),
                lambda rows: f"{rows[0]!r}: scheme_qber is not 0",
            ),
        ],
    )
    def test_violation_line_names_the_first_failing_record(
        self, monkeypatch, capsys, name, fake, argv, message
    ):
        """The per-pattern and per-row checks format their message only when
        they fail; the line names the faked outcome's ports and fidelity, or
        the faked row."""
        returned = []

        def recording(*args):
            returned.append(fake(*args))
            return returned[-1]

        monkeypatch.setattr(cli if name == "run_distribution" else protocols, name, recording)
        code, out, err = run_cli(capsys, *argv)
        assert code == 1 and out == "" and len(returned) == 1
        assert err == f"error: internal invariant violated: {message(returned[0])}\n"

    def test_baseline_and_zy_have_no_zero_qber_invariant(self, monkeypatch, capsys):
        monkeypatch.setattr(protocols, "baseline_direct", _leaky(protocols.baseline_direct))
        monkeypatch.setattr(protocols, "qss_run", _leaky(protocols.qss_run))
        assert run_cli(capsys, "baseline", "--pairs", "2000")[0] == 0
        assert run_cli(capsys, "qss", "--triples", "2000", "--basis-pair", "zy")[0] == 0


_NOISE2 = ("--theta-a", "0.6", "--phi-a", "0.3", "--theta-b", "1.1", "--phi-b", "2.0")
_NOISE3 = _NOISE2 + ("--theta-3", "0.4", "--phi-3", "5.0")
_PINNED_ARGV = {
    "distribute2": ("distribute", *_NOISE2),
    "distribute3": ("distribute", "--parties", "3", *_NOISE3),
    "bbm92": ("bbm92", "--pairs", "3000", "--seed", "11", *_NOISE2),
    "baseline": ("baseline", "--pairs", "3000", "--seed", "11", *_NOISE2),
    "qss_xy": ("qss", "--triples", "3000", "--seed", "11", "--basis-pair", "xy", *_NOISE3),
    "qss_zy": ("qss", "--triples", "3000", "--seed", "11", "--basis-pair", "zy", *_NOISE3),
    "sweep": (
        "sweep", "--theta-a-grid", "0.2:1.3:2", "--theta-b-grid", "0.5:1:2",
        "--phi-a-grid", "1:1:1", "--pairs", "2000", "--seed", "11",
    ),
}
# sha256 of stdout per (case, --format); sweep takes only CSV.  Recorded
# from the CLI before the distribution entry points and the protocol trial
# samplers were merged, so any change to a seeded output shows here.
_PINNED_DIGESTS = {
        ("distribute2", "table"): "f6fb61c5065a0b1d37908855930f603878c0fe8ddd9d6c9917637cf5b194c82d",
        ("distribute2", "json"): "139489347ee68aee2ffe22687451c0c1cda64164151760bfdca9fa274cec3f27",
        ("distribute2", "csv"): "2ded547a1093f8eed12a7d16a0538eb554e0d4c70d4eed2768af097d8a10d14e",
        ("distribute3", "table"): "cccaa108bd085b4a7e662791e7f51a25ccf2895a54c5c2846561dd9a8ebd0cd4",
        ("distribute3", "json"): "a6964b0143a10e777a23939ea056775ecf8fc1b2962c481ff71e6d98f0a75c4e",
        ("distribute3", "csv"): "9578fe77ddb7ce6b5299c786edd17b8917a711d1b59e857d2856362f7edc4f27",
        ("bbm92", "table"): "09eb7bc14934554ada577c7a4264cda2a334ad2874c053592a5e23ecd9226259",
        ("bbm92", "json"): "a9ebf0353d8cec90bfa43f95b028cb5c3740817520378eeae76042e5c0cd748c",
        ("bbm92", "csv"): "19e75ef539b9d4f3fba6a830415e6affffdddbff1b27a8bbafd8107bdf01ccde",
        ("baseline", "table"): "72c82b897bbce50488e3910c88598c0d9f1293dd97c071825bf13318fe008dc8",
        ("baseline", "json"): "e06ae93a7ac3c25e2b5f7122e4c9651f8489f55495e75200abf76597374fea38",
        ("baseline", "csv"): "907fa74e07e8509db67c911962c3cf07911d3e0691b2a33c62c76b2fa1dc0019",
        ("qss_xy", "table"): "06add4eab195cbf418b2ec4551186473128a4659954ef81c9669e7a0bb1be328",
        ("qss_xy", "json"): "7f70896eb246dce7a85aa324bceae72ee6debe1ce60b48cfccb3e82f1d93bf7c",
        ("qss_xy", "csv"): "3befe05ae1af9c36fe1ab0d2a134dad1ddba43a7ee579f620befe97f694a9672",
        ("qss_zy", "table"): "36bac627ce4cb409a56d8257b82acaf4e3a15172911df778fb42ed497344726b",
        ("qss_zy", "json"): "fb3614debe71f82d11ffa39ee9907a725bb597c4050fe05b6b30d0a33cb7e9c3",
        ("qss_zy", "csv"): "a6b1ea952c8405e6ba2363270efb5c8db4e5c0cbc90dbd7627cdc2cb2f104fd8",
        ("sweep", None): "d3d7d8e9c062613108466bd14e5ac2fb23787df2c1864ccae976b12877a1e454",
}


# Each case runs once to stdout and once with --output, whose file must
# hold the same bytes.
_DIGEST_RUNS = [(c, f, to_file) for to_file in (False, True) for c, f in _PINNED_DIGESTS]


@pytest.mark.parametrize(
    "case, fmt, to_file",
    _DIGEST_RUNS,
    ids=[f"{c}-{f or 'csv'}{'-output' if to_file else ''}" for c, f, to_file in _DIGEST_RUNS],
)
def test_stdout_digest(capsys, tmp_path, case, fmt, to_file):
    argv = _PINNED_ARGV[case] + (("--format", fmt) if fmt else ())
    target = tmp_path / "out.txt"
    code, out, _ = run_cli(capsys, *argv, *(("--output", str(target)) if to_file else ()))
    assert code == 0
    if to_file:
        assert out == ""
        out = target.read_bytes().decode()
    assert hashlib.sha256(out.encode()).hexdigest() == _PINNED_DIGESTS[(case, fmt)]


# Every kind of CSV the CLI prints, each with a cell it must hold.
_CSV_CASES = {
    "distribute2-dead": (("distribute", "--theta-a", "0"), ""),
    "distribute8": (("distribute", "--parties", "8", *_NOISE3, "--theta-8", "1.2"), ""),
    "bbm92": (_PINNED_ARGV["bbm92"], "bbm92"),
    "bbm92-unsifted": (("bbm92", "--pairs", "1", "--seed", "2"), "nan"),
    "baseline": (_PINNED_ARGV["baseline"], "baseline"),
    "qss_xy": (_PINNED_ARGV["qss_xy"], "xy"),
    "qss_zy": (_PINNED_ARGV["qss_zy"], "zy"),
    "sweep-unsifted": (("sweep", "--theta-a-grid", "0.2:1.2:3", "--pairs", "1"), "nan"),
}


@pytest.mark.parametrize("case", _CSV_CASES)
def test_csv_cells_need_no_quoting(capsys, case):
    """_emit writes a CSV line as its cells joined by commas, which is CSV
    only while no cell needs quoting: csv reads every line back as its
    comma-split cells, csv.writer writes those cells as the same text, and
    every row is as wide as the header."""
    argv, cell = _CSV_CASES[case]
    code, out, _ = run_cli(capsys, *argv, "--format", "csv")
    assert code == 0
    rows = [line.split(",") for line in out.splitlines()]
    assert list(csv.reader(io.StringIO(out))) == rows
    written = io.StringIO()
    csv.writer(written, lineterminator="\n").writerows(rows)
    assert written.getvalue() == out
    assert {len(row) for row in rows} == {len(rows[0])}
    assert any(cell in row for row in rows[1:])


_START_UP = """\
import sys
sys.path.insert(0, sys.argv[1])
MONTE_CARLO = ("numpy", "entdist.rng", "entdist.protocols")

def report(step, code=0, watched=("dataclasses", "csv", *MONTE_CARLO)):
    print(step, code, [m for m in watched if m in sys.modules], file=sys.stderr)

import entdist
assert set(entdist.__all__) <= set(dir(entdist)), "dir() lists every exported name"
report("import")
import entdist.cli
report("import-cli")
entdist.cli.build_parser()
report("parser")
report("distribute", entdist.cli.main(["distribute", "--parties", "3", "--format", "json"]))
try:
    entdist.cli.main(["--help"])
except SystemExit as exc:
    report("help", exc.code)
report("bbm92", entdist.cli.main(["bbm92", "--pairs", "1000"]), ("dataclasses", "csv"))
"""


def test_distribute_and_help_load_no_monte_carlo_layer():
    """In a fresh interpreter, importing the package and the CLI, building the
    parser, a distribute run and --help load neither numpy nor rng/protocols;
    dir() still lists the names that load protocols.  None of those steps, nor
    a bbm92 run after them, loads dataclasses (numpy itself loads inspect, so
    only dataclasses is checked)."""
    src = Path(entdist.__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, "-c", _START_UP, str(src)],
        capture_output=True, text=True, check=True, timeout=120,
    )
    steps = ("import", "import-cli", "parser", "distribute", "help", "bbm92")
    assert proc.stderr.splitlines() == [f"{step} 0 []" for step in steps]


@pytest.mark.parametrize(
    "module", ["entdist.qstate", "entdist.elements", "entdist.distribution", "entdist.cli"]
)
def test_each_module_imports_first_in_a_fresh_interpreter(module):
    """qstate imports elements.ElementOp at its end, after elements has taken
    qstate's names; whichever module a program imports first, both load."""
    src = Path(entdist.__file__).resolve().parent.parent
    code = (
        f"import sys; sys.path.insert(0, sys.argv[1]); import {module}; "
        "from entdist import elements, qstate; assert qstate.ElementOp is elements.ElementOp"
    )
    subprocess.run([sys.executable, "-c", code, str(src)], check=True, timeout=120)


_IN_ORDER = """\
import _thread, contextlib, io, json, sys, threading
sys.path.insert(0, sys.argv[1])
started = []

def counted(start):
    def counting(*args):
        started.append(args[0])
        return start(*args)
    return counting

_thread.start_new_thread = counted(_thread.start_new_thread)
threading._start_new_thread = counted(threading._start_new_thread)
import entdist.cli
replies = []
for argv in json.loads(sys.argv[2]):
    out, err, before = io.StringIO(), io.StringIO(), len(started)
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = entdist.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    replies.append([code, out.getvalue(), err.getvalue(), len(started) - before])
print(json.dumps(replies))
"""


def _in_one_process(*argvs):
    """main over argvs in order in a fresh interpreter: each (code, stdout,
    stderr, threads started, by threading or by _thread)."""
    src = Path(entdist.__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, "-c", _IN_ORDER, str(src), json.dumps(argvs)],
        capture_output=True, text=True, check=True, timeout=120,
    )
    return [tuple(reply) for reply in json.loads(proc.stdout)]


def test_one_parser_serves_every_call_in_a_process():
    """A bad flag, --help and a pinned case in one process print what each
    prints in a fresh one."""
    pinned = [*_PINNED_ARGV["bbm92"], "--format", "json"]
    argvs = [["bbm92", "--no-such-flag"], ["--help"], pinned]
    together = _in_one_process(*argvs)
    assert together == [_in_one_process(argv)[0] for argv in argvs]
    (bad, _, bad_err, _), (helped, help_out, _, _), (code, out, _, _) = together
    assert bad == 2 and "unrecognized arguments: --no-such-flag" in bad_err
    assert helped == 0 and help_out.startswith("usage: entdist")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == _PINNED_DIGESTS[("bbm92", "json")]


def test_runs_of_one_block_start_no_thread():
    """distribute, --help, a 1e4-pair bbm92 and a sweep of 1e4 pairs per row
    (each under one rng block) start no thread; a 1e5-pair bbm92 starts
    helpers on a machine of more than one CPU."""
    replies = _in_one_process(
        ["distribute", "--parties", "3"],
        ["--help"],
        ["bbm92", "--pairs", "10000", *_NOISE2],
        ["sweep", "--theta-a-grid", "0:1:2", "--theta-b-grid", "0.5:1:2", "--pairs", "10000"],
        ["bbm92", "--pairs", "100000", *_NOISE2],
    )
    assert [(code, threads) for code, _, _, threads in replies[:4]] == [(0, 0)] * 4
    code, _, _, threads = replies[4]
    assert code == 0 and (threads > 0) == (rng._cpu_workers() > 1)


_BASELINE_KERNELS = """\
import contextlib, hashlib, io, json, sys
sys.path.insert(0, sys.argv[1])
from numpy._core import _multiarray_umath as umath
import entdist.cli
replies = []
for argv in json.loads(sys.argv[2]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = entdist.cli.main(argv)
    replies.append([code, hashlib.sha256(out.getvalue().encode()).hexdigest()])
enabled = [t for t in umath.__cpu_dispatch__ if umath.__cpu_features__.get(t)]
print(json.dumps([enabled, replies]))
"""


def test_pinned_digests_hold_on_numpy_baseline_kernels():
    """Every pinned case prints its pinned bytes in one fresh interpreter in
    which NPY_DISABLE_CPU_FEATURES turns off each numpy dispatch target above
    the baseline that this CPU enables (X86_V3 and up on an AVX-512 Xeon), so
    no float kernel that numpy picks by CPU moves a bit."""
    from numpy._core import _multiarray_umath as umath

    targets = [t for t in umath.__cpu_dispatch__ if umath.__cpu_features__.get(t)]
    cases = list(_PINNED_DIGESTS)
    argvs = [[*_PINNED_ARGV[case], *(("--format", fmt) if fmt else ())] for case, fmt in cases]
    src = Path(entdist.__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, "-c", _BASELINE_KERNELS, str(src), json.dumps(argvs)],
        capture_output=True, text=True, check=True, timeout=120,
        env=dict(os.environ, NPY_DISABLE_CPU_FEATURES=" ".join(targets)),
    )
    enabled, replies = json.loads(proc.stdout)
    assert enabled == []
    assert dict(zip(cases, map(tuple, replies))) == {
        case: (0, digest) for case, digest in _PINNED_DIGESTS.items()
    }


_ADDRESS_SPACE = 10**9  # bytes: numpy loads; 6e7 trials held whole (19 bytes each) would not fit


def _limit_address_space() -> None:  # runs in the child, before it starts Python
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (_ADDRESS_SPACE, _ADDRESS_SPACE))


def _run_limited(*argv):
    src = Path(entdist.__file__).resolve().parent.parent
    return subprocess.run(
        [sys.executable, "-m", "entdist.cli", *argv],
        capture_output=True, text=True, timeout=120, preexec_fn=_limit_address_space,
        env=dict(os.environ, PYTHONPATH=str(src)),
    )


_PAST_THE_LIMIT = [("bbm92", "--pairs"), ("baseline", "--pairs"), ("qss", "--triples")]


@pytest.mark.parametrize("command, flag", _PAST_THE_LIMIT)
def test_a_run_past_a_memory_limit_exits_0_with_its_count(command, flag):
    """Under an address-space limit that 6e7 trials held at once would pass,
    the run counts them in spans and exits 0 with n_trials = 6e7."""
    proc = _run_limited(command, flag, "60000000", "--format", "json")
    assert (proc.returncode, proc.stderr) == (0, "")
    assert json.loads(proc.stdout)["n_trials"] == 60_000_000


def test_a_sweep_past_a_memory_limit_exits_0():
    proc = _run_limited("sweep", "--pairs", "60000000")
    assert (proc.returncode, proc.stderr) == (0, "")
    header, row = proc.stdout.splitlines()
    assert header.startswith("theta_a,") and float(row.split(",")[-1]) == 1.0


def test_a_config_count_past_64_bits_is_named_by_its_key(tmp_path, capsys):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"pairs": 2**64 + 1}))
    line = f"error: --config: key 'pairs': must be <= 2**64, got {2**64 + 1}\n"
    assert run_cli(capsys, "bbm92", "--config", str(config), "--format", "json") == (2, "", line)


def test_distribute_runs_under_the_memory_limit():
    proc = _run_limited("distribute", "--parties", "8", "--format", "json")
    assert (proc.returncode, proc.stderr) == (0, "")
    assert len(json.loads(proc.stdout)["outcomes"]) == 256


def _readme_block(section: str) -> str:
    """The first fenced block under the README heading "## section"."""
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    body = text.split(f"\n## {section}\n", 1)[1]
    return body.split("```", 2)[1].split("\n", 1)[1]


def test_readme_library_example_runs(capsys):
    exec(compile(_readme_block("Library"), "README.md", "exec"), {})
    assert capsys.readouterr().out.count("\n") == 4  # one line per two-party pattern


def test_readme_command_lines_exit_0(capsys):
    lines = [line for line in _readme_block("Command line").splitlines()
             if line.startswith("entdist ")]
    assert len(lines) == 6
    for line in lines:
        assert main(shlex.split(line)[1:]) == 0, line
        assert capsys.readouterr().out


# the public API of NamedTuple records; every other _name in the README is private
_PUBLIC_UNDERSCORE_NAMES = {"_fields", "_replace", "_asdict", "_make"}


def test_readme_names_only_public_identifiers():
    """The README states the contract: it names no private identifier, and each
    entdist.<name> or <module>.<name> it names exists."""
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    spans = [span for _, span in re.findall(r"(`+)(.+?)\1", text, re.S)]
    private = {
        name for span in spans for name in re.findall(r"\b_\w+", span)
        if name not in _PUBLIC_UNDERSCORE_NAMES and not re.fullmatch(r"__\w+__", name)
    }
    assert not private
    modules = "|".join(m.name for m in pkgutil.iter_modules(entdist.__path__))
    dotted = {
        name for span in spans
        for name in re.findall(rf"\b(?:entdist\.\w+|(?:{modules})\.\w+)(?:\.\w+)*", span)
    }
    assert dotted
    for name in dotted:
        head, *attrs = name.split(".")
        obj = entdist if head == "entdist" else importlib.import_module(f"entdist.{head}")
        for attr in attrs:
            obj = getattr(obj, attr)
