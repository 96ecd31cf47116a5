"""The CLI's option handling: which error a run with several bad values
reports first, and that every option acts the same from a flag and from a
--config key.  The expected lines were recorded from the CLI before its
options were described by one table."""
import json

import pytest

from entdist import cli
from entdist.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_config(tmp_path, config) -> str:
    path = tmp_path / "run.json"
    path.write_text(json.dumps(config) if isinstance(config, dict) else config)
    return str(path)


# (argv, the one stderr line): the first bad value in check order is the one named.
_FIRST_ERROR = [
    (("distribute", "--theta-a", "9", "--theta-4", "0.1"),
     "--theta-4: party 4 is beyond --parties 2"),
    (("distribute", "--parties", "9", "--theta-a", "9", "--phi-3", "7"),
     "--parties: must be between 2 and 8, got 9"),
    (("distribute", "--parties", "3", "--phi-b", "7", "--theta-3", "9", "--theta-a", "-1"),
     "--theta-a: theta must be in [0, pi/2], got -1.0"),
    (("distribute", "--parties", "3", "--phi-a", "7", "--theta-a", "9"),
     "--theta-a: theta must be in [0, pi/2], got 9.0"),
    (("distribute", "--seed", "-1", "--parties", "9"),
     "--seed: must be in [0, 2**64), got -1"),
    (("distribute", "--theta-a", "9", "--output", "/nonexistent/x"),
     "--theta-a: theta must be in [0, pi/2], got 9.0"),
    (("bbm92", "--pairs", "0", "--theta-a", "9"),
     "--theta-a: theta must be in [0, pi/2], got 9.0"),
    (("bbm92", "--pairs", "-5", "--phi-b", "6.3", "--theta-b", "2"),
     "--theta-b: theta must be in [0, pi/2], got 2.0"),
    (("bbm92", "--seed", str(2**64), "--pairs", "0", "--theta-a", "9"),
     f"--seed: must be in [0, 2**64), got {2**64}"),
    (("qss", "--triples", "0", "--theta-3", "9", "--phi-b", "7"),
     "--phi-b: phi must be in [0, 2*pi), got 7.0"),
    (("qss", "--triples", "0", "--basis-pair", "zy", "--output", "/nonexistent/x"),
     "--triples: must be > 0, got 0"),
    (("baseline", "--pairs", "-1", "--phi-a", "7", "--seed", "-2"),
     "--seed: must be in [0, 2**64), got -2"),
    (("baseline", "--pairs", "0", "--phi-a", "7"),
     "--phi-a: phi must be in [0, 2*pi), got 7.0"),
    (("sweep", "--pairs", "0", "--phi-b-grid", "0:7:2", "--theta-a-grid", "0:2:3"),
     "--theta-a-grid: theta must be in [0, pi/2], got 2.0"),
    (("sweep", "--pairs", "0", "--phi-b-grid", "0:7:2", "--theta-b-grid", "0:1"),
     "--theta-b-grid: expected START:STOP:STEPS, got '0:1'"),
    (("sweep", "--pairs", "0", "--theta-b-grid", "0:1:0"),
     "--theta-b-grid: steps must be >= 1, got 0"),
    (("sweep", "--seed", "-1", "--pairs", "0", "--phi-a-grid", "x:1:2"),
     "--seed: must be in [0, 2**64), got -1"),
]


@pytest.mark.parametrize("argv, line", _FIRST_ERROR, ids=[" ".join(a) for a, _ in _FIRST_ERROR])
def test_first_error_named(capsys, argv, line):
    assert run_cli(capsys, *argv) == (2, "", f"error: {line}\n")


_FIRST_CONFIG_ERROR = [
    ("bbm92", {"seed": -1, "pairs": 0}, "key 'seed': must be in [0, 2**64), got -1"),
    ("bbm92", {"pairs": 0, "theta_a": 9}, "key 'theta_a': theta must be in [0, pi/2], got 9.0"),
    ("bbm92", {"pears": 1, "seed": 1.5}, "unknown key 'pears' for bbm92"),
    ("bbm92", {"seed": 1.5, "pears": 1}, "key 'seed': expected an integer, got 1.5"),
    ("qss", {"basis_pair": "xx", "triples": "3"},
     "key 'basis_pair': invalid choice 'xx' (choose from 'xy', 'zy')"),
    ("distribute", {"parties": 3, "theta_4": 0.5, "theta-a": 9},
     "key 'theta_4': party 4 is beyond --parties 3"),
    ("sweep", {"format": "json", "pairs": 0},
     "key 'format': invalid choice 'json' (choose from 'csv')"),
    ("sweep", {"pairs": 0, "theta_a_grid": "0:2:3"},
     "key 'theta_a_grid': theta must be in [0, pi/2], got 2.0"),
]


@pytest.mark.parametrize("command, config, line", _FIRST_CONFIG_ERROR)
def test_first_config_error_named(tmp_path, capsys, command, config, line):
    path = write_config(tmp_path, config)
    assert run_cli(capsys, command, "--config", path) == (2, "", f"error: --config: {line}\n")


def _flag(dest: str) -> str:
    return "--" + dest.replace("_", "-")


_OPTIONS = [
    pytest.param(command, opt, id=f"{command}-{opt.dest}")
    for command, (_, options) in cli.COMMANDS.items()
    for opt in options
]


def _base_argv(command: str, dest: str) -> list[str]:
    """The command with small trial counts, and room for every party's angles,
    leaving the option under test unset."""
    argv = [command]
    for opt in cli.COMMANDS[command][1]:
        if opt.dest != dest and opt.dest in ("pairs", "triples"):
            argv += [_flag(opt.dest), "24"]
        if opt.dest != dest and opt.dest == "parties":
            argv += ["--parties", str(cli.MAX_PARTIES)]
    return argv


def _valid(opt, tmp_path):
    """A value the option takes, other than its default where that can differ."""
    if opt.choices:
        return opt.choices[-1]
    if opt.kind is float:
        return 0.5
    if opt.dest == "output":
        return str(tmp_path / "out.txt")
    if opt.kind is str:  # a sweep grid
        return "0:1:2"
    return {"seed": 5, "parties": 3}.get(opt.dest, 40)


@pytest.mark.parametrize("command, opt", _OPTIONS)
def test_flag_and_config_key_give_the_same_run(tmp_path, capsys, command, opt):
    value = _valid(opt, tmp_path)
    argv = _base_argv(command, opt.dest)
    runs = []
    config = write_config(tmp_path, {opt.dest: value})
    for extra in ([_flag(opt.dest), str(value)], ["--config", config]):
        code, out, err = run_cli(capsys, *argv, *extra)
        assert code == 0, err
        if opt.dest == "output":
            assert out == ""
            out = (tmp_path / "out.txt").read_text()
        assert out
        runs.append(out)
    assert runs[0] == runs[1]


@pytest.mark.parametrize("command, opt", [p for p in _OPTIONS if p.values[1].kind in (int, float)])
def test_out_of_range_value_names_flag_or_key(tmp_path, capsys, command, opt):
    bad = -1 if opt.kind is int else 9.0
    argv = _base_argv(command, opt.dest)
    flag = _flag(opt.dest)
    code, out, by_flag = run_cli(capsys, *argv, flag, str(bad))
    assert (code, out) == (2, "")
    assert by_flag.startswith(f"error: {flag}: ") and by_flag.count("\n") == 1
    code, out, by_key = run_cli(capsys, *argv, "--config", write_config(tmp_path, {opt.dest: bad}))
    assert (code, out) == (2, "")
    assert by_key == by_flag.replace(f"error: {flag}:", f"error: --config: key {opt.dest!r}:", 1)


@pytest.mark.parametrize("count", [10**20, 2**60, 2**59])
@pytest.mark.parametrize(
    "command, dest", [("bbm92", "pairs"), ("qss", "triples"), ("sweep", "pairs")]
)
def test_count_too_large_to_hold_exit_2(tmp_path, capsys, command, dest, count):
    """Each count fails where its trial index is allocated, before any memory is touched."""
    flag = _flag(dest)
    line = f"cannot hold {count} trials in memory\n"
    assert run_cli(capsys, command, flag, str(count)) == (2, "", f"error: {flag}: {line}")
    path = write_config(tmp_path, {dest: count})
    by_key = f"error: --config: key {dest!r}: {line}"
    assert run_cli(capsys, command, "--config", path) == (2, "", by_key)


def test_grid_too_large_to_hold_exit_2(tmp_path, capsys):
    """A grid's STEPS, or the product of the four, that cannot be allocated
    exits 2 before a grid value or a sweep row is made, naming the grid the
    grid checks reach first, or all four."""
    steps = 10**20
    argv = ("sweep", "--pairs", "0", "--phi-b-grid", "0:1:0", "--theta-a-grid", f"0:1:{steps}")
    line = f"cannot hold {steps} grid values in memory\n"
    assert run_cli(capsys, *argv) == (2, "", f"error: --theta-a-grid: {line}")
    path = write_config(tmp_path, {"theta_a_grid": f"0:1:{steps}"})
    by_key = f"error: --config: key 'theta_a_grid': {line}"
    assert run_cli(capsys, "sweep", "--config", path) == (2, "", by_key)
    # 32769 values per grid are small, but 32769**4 > 2**60 rows are more than numpy can index
    grids = [arg for opt in cli._GRIDS for arg in (_flag(opt.dest), "0:1:32769")]
    flags = " * ".join(_flag(opt.dest) for opt in cli._GRIDS)
    line = f"error: {flags}: cannot hold {32769**4} sweep points in memory\n"
    assert run_cli(capsys, "sweep", *grids, "--pairs", "0") == (2, "", line)


def test_zero_pairs_message_unchanged(capsys):
    line = "error: --pairs: must be > 0, got 0\n"
    assert run_cli(capsys, "bbm92", "--pairs", "0") == (2, "", line)


@pytest.mark.parametrize(
    "text, line",
    [
        ('{"theta-a": 0.1, "theta_a": 0.2}', "key 'theta_a': option already set by key 'theta-a'"),
        ('{"pairs": 10, "pairs": 20}', "key 'pairs': option already set by key 'pairs'"),
    ],
    ids=["both-spellings", "same-key"],
)
def test_config_naming_an_option_twice_exit_2(tmp_path, capsys, text, line):
    path = write_config(tmp_path, text)
    assert run_cli(capsys, "bbm92", "--config", path) == (2, "", f"error: --config: {line}\n")


def test_empty_output_path_exit_2(tmp_path, capsys):
    code, out, err = run_cli(capsys, "bbm92", "--pairs", "24", "--output", "")
    assert (code, out) == (2, "")
    assert err.startswith("error: --output: ") and err.count("\n") == 1
    path = write_config(tmp_path, {"pairs": 24, "output": ""})
    code, out, err = run_cli(capsys, "bbm92", "--config", path)
    assert (code, out) == (2, "")
    assert err.startswith("error: --config: key 'output': ") and err.count("\n") == 1


def test_empty_config_path_exit_2(capsys):
    code, out, err = run_cli(capsys, "bbm92", "--pairs", "24", "--config", "")
    assert (code, out) == (2, "")
    assert err.startswith("error: --config: ") and err.count("\n") == 1
