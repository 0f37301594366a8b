import json
import math
import re

import pytest

from spinmech import cli
from spinmech.cli import main

E2BJ3 = 0.5 * math.log(3.0)


@pytest.fixture()
def nn_config(tmp_path):
    path = tmp_path / "nn.json"
    path.write_text(
        json.dumps(
            {
                "model": {"preset": "nn"},
                "parameters": {"beta": 1.0, "J": E2BJ3, "B": 0.0},
            }
        )
    )
    return path


def test_analyze_subcommand(nn_config, tmp_path, capsys):
    out = tmp_path / "metrics.json"
    code = main(["analyze", "-c", str(nn_config), "-o", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["results"]["C_mu"] == pytest.approx(1.0)
    assert doc["results"]["h_mu"] == pytest.approx(0.8112781244591328, abs=1e-10)
    assert doc["config"]["parameters"]["J"] == pytest.approx(E2BJ3)


def test_analyze_with_overrides_and_nats(nn_config, capsys):
    code = main(["analyze", "-c", str(nn_config), "--set", "parameters.J=0.0", "--nats"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["results"]["h_mu"] == pytest.approx(math.log(2.0), abs=1e-12)


def test_analyze_config_errors_exit_one(tmp_path, capsys):
    missing = tmp_path / "none.json"
    assert main(["analyze", "-c", str(missing)]) == 1
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["analyze", "-c", str(bad)]) == 1
    incomplete = tmp_path / "incomplete.json"
    incomplete.write_text(json.dumps({"model": {"preset": "nn"}, "parameters": {}}))
    assert main(["analyze", "-c", str(incomplete)]) == 1
    # malformed values are config errors, not tracebacks
    nn = tmp_path / "nn.json"
    nn.write_text(json.dumps({"model": {"preset": "nn"}, "parameters": {"beta": 1.0, "J": 1.0}}))
    custom = tmp_path / "custom.json"
    custom.write_text(
        json.dumps(
            {
                "model": {"preset": "custom", "range": 2},
                "parameters": {"beta": 1.0, "couplings": {"product": [0.5, 0.1]}},
            }
        )
    )
    capsys.readouterr()
    for path, override in [
        (nn, "parameters.B=abc"),
        (nn, "parameters.B=null"),
        (nn, "parameters.B=[1]"),
        (nn, "parameters.beta=null"),
        (nn, "parameters=[1]"),
        (custom, "model.range=x"),
        (custom, "model.range=2.5"),
        (custom, "model.alphabet=3"),
        (custom, "parameters.field=abc"),
        (custom, 'parameters.couplings.product=["a", 1]'),
        (custom, "parameters.couplings=[[1, 2], [3]]"),
        # JSON booleans are not numbers
        (nn, "parameters.B=true"),
        (nn, "parameters.J=false"),
        (nn, "parameters.beta=true"),
        (custom, "model.range=true"),
        (custom, "model.alphabet=[false, true]"),
        (custom, "parameters.field=false"),
        (custom, "parameters.couplings.product=[true, 0.5]"),
    ]:
        assert main(["analyze", "-c", str(path), "--set", override]) == 1, override
        assert capsys.readouterr().err.startswith("config error:"), override


def test_numerical_failure_exits_two(tmp_path):
    cfg = tmp_path / "pbrw.json"
    cfg.write_text(json.dumps({"model": {"preset": "pbrw"}, "parameters": {"p": 1.0, "r": 0.5}}))
    assert main(["analyze", "-c", str(cfg)]) == 2


def test_sweep_subcommand_deterministic(tmp_path):
    cfg = tmp_path / "sweep.json"
    cfg.write_text(
        json.dumps(
            {
                "model": {"preset": "nn"},
                "parameters": {},
                "sweep": {
                    "mode": "random",
                    "count": 12,
                    "parameters": {
                        "beta": {"low": 0.01, "high": 10.0, "scale": "log"},
                        "J": {"low": -1.5, "high": 1.5},
                        "B": {"low": -3.0, "high": 3.0},
                    },
                },
            }
        )
    )
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["sweep", "-c", str(cfg), "-o", str(out1), "--seed", "3", "--jobs", "1"]) == 0
    assert main(["sweep", "-c", str(cfg), "-o", str(out2), "--seed", "3", "--jobs", "2"]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    lines = out1.read_text().splitlines()
    assert len(lines) == 13
    assert all(line.endswith(",ok") for line in lines[1:])


def test_sweep_without_seed_fails(tmp_path):
    cfg = tmp_path / "sweep.json"
    cfg.write_text(
        json.dumps(
            {
                "model": {"preset": "nn"},
                "parameters": {},
                "sweep": {
                    "mode": "random",
                    "count": 3,
                    "parameters": {"beta": {"low": 0.1, "high": 1.0}},
                },
            }
        )
    )
    assert main(["sweep", "-c", str(cfg)]) == 1
    # a negative seed is a config error, not a traceback
    assert main(["sweep", "-c", str(cfg), "--seed", "-1"]) == 1


def test_machine_subcommand_block_and_spin(nn_config, tmp_path):
    out = tmp_path / "machine.dot"
    assert main(["machine", "-c", str(nn_config), "-o", str(out)]) == 0
    dot = out.read_text()
    assert dot.count("digraph") == 1
    assert dot.count("->") == 4  # two states, two emissions each
    assert '"C0"' in dot and '"C1"' in dot
    assert re.search(r'label="1 \| 0\.75', dot)


def test_machine_subcommand_reducible_ground_state(tmp_path):
    cfg = tmp_path / "nnn.json"
    cfg.write_text(
        json.dumps(
            {
                "model": {"preset": "nnn"},
                "parameters": {"beta": "inf", "J1": -1.0, "J2": -1.0, "B": 2.0},
            }
        )
    )
    out = tmp_path / "machine.dot"
    assert main(["machine", "-c", str(cfg), "-o", str(out)]) == 0
    dot = out.read_text()
    # period-three phase: a single class whose graph is a three-node cycle
    assert dot.count("digraph") == 1
    assert dot.count('shape=circle') == 3
    ferro = tmp_path / "ferro.json"
    ferro.write_text(
        json.dumps(
            {
                "model": {"preset": "nnn"},
                "parameters": {"beta": "inf", "J1": 1.0, "J2": 0.0, "B": 0.0},
            }
        )
    )
    assert main(["machine", "-c", str(ferro), "-o", str(out)]) == 0
    dot = out.read_text()
    # two coexisting phases: one digraph per recurrent class
    assert dot.count("digraph") == 2


def test_machine_single_state_self_loop(tmp_path):
    cfg = tmp_path / "pbrw.json"
    cfg.write_text(
        json.dumps({"model": {"preset": "pbrw"}, "parameters": {"p": 0.999, "r": 0.5}})
    )
    out = tmp_path / "machine.dot"
    assert main(["machine", "-c", str(cfg), "-o", str(out), "--spin"]) == 0
    dot = out.read_text()
    assert dot.count('shape=circle') == 2
    assert '"C0" -> "C0"' in dot and '"C1" -> "C1"' in dot


def test_machine_fair_coin_single_node(tmp_path):
    cfg = tmp_path / "coin.json"
    cfg.write_text(
        json.dumps({"model": {"preset": "pbrw"}, "parameters": {"p": 0.5, "r": 0.5}})
    )
    out = tmp_path / "machine.dot"
    assert main(["machine", "-c", str(cfg), "-o", str(out), "--spin"]) == 0
    dot = out.read_text()
    assert dot.count('shape=circle') == 1
    assert dot.count('"C0" -> "C0"') == 2
    assert re.search(r'label="0 \| 0\.5"', dot) and re.search(r'label="1 \| 0\.5"', dot)


def test_sample_subcommand_deterministic(nn_config, tmp_path):
    out1, out2 = tmp_path / "s1.txt", tmp_path / "s2.txt"
    args = ["sample", "-c", str(nn_config), "--blocks", "300", "--seed", "11"]
    assert main(args + ["-o", str(out1)]) == 0
    assert main(args + ["-o", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    lines = out1.read_text().splitlines()
    header = [line for line in lines if line.startswith("#")]
    body = "".join(line for line in lines if not line.startswith("#"))
    assert any("generator: pcg64" in line for line in header)
    assert any("seed: 11" in line for line in header)
    assert len(body) == 300
    assert set(body) <= {"0", "1"}


def test_sample_renders_alphabet_symbols(tmp_path):
    cfg = tmp_path / "spin1.json"
    cfg.write_text(
        json.dumps(
            {
                "model": {"preset": "custom", "range": 1, "alphabet": [-1, 0, 1]},
                "parameters": {"beta": 1.0, "field": 0.2, "couplings": {"product": [0.3]}},
            }
        )
    )
    out = tmp_path / "s.txt"
    assert main(["sample", "-c", str(cfg), "--blocks", "250", "--seed", "5", "-o", str(out)]) == 0
    lines = out.read_text().splitlines()
    body = [line for line in lines if not line.startswith("#")]
    assert [len(line) for line in body] == [100, 100, 50]
    assert set("".join(body)) == {"0", "1", "2"}


def test_sample_beyond_base_36_fails(tmp_path, capsys):
    cfg = tmp_path / "wide.json"
    cfg.write_text(
        json.dumps(
            {
                "model": {"preset": "custom", "range": 1, "alphabet": list(range(37))},
                "parameters": {"beta": 0.0, "field": 0.0, "couplings": {"product": [0.0]}},
            }
        )
    )
    assert main(["sample", "-c", str(cfg), "--blocks", "10", "--seed", "1"]) == 2
    assert "beyond base 36" in capsys.readouterr().err


def test_bad_sample_and_validate_values_exit_one(nn_config, capsys):
    for command in (
        ["sample", "-c", str(nn_config), "--blocks", "0", "--seed", "1"],
        ["sample", "-c", str(nn_config), "--blocks", "-3", "--seed", "1"],
        ["sample", "-c", str(nn_config), "--blocks", "10", "--seed", "-1"],
        ["validate", "--seed", "-1"],
        ["sweep", "-c", str(nn_config), "--jobs", "0"],
        ["sweep", "-c", str(nn_config), "--jobs", "-2"],
    ):
        assert main(command) == 1, command
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "error: argument --" in err, command


def test_negative_class_index_exits_one(nn_config, capsys):
    command = ["sample", "-c", str(nn_config), "--blocks", "10", "--seed", "1"]
    assert main(command + ["--class-index", "-1"]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "error: argument --class-index" in err
    assert main(command + ["--class-index", "0"]) == 0
    # an index past the last class is the chain's failure, not a usage error
    assert main(command + ["--class-index", "1"]) == 2


def test_unknown_units_exit_one(nn_config, tmp_path, capsys, monkeypatch):
    sweep = tmp_path / "sweep.json"
    sweep.write_text(
        json.dumps(
            {
                "model": {"preset": "nn"},
                "parameters": {"beta": 1.0, "B": 0.0},
                "sweep": {
                    "mode": "grid",
                    "parameters": {"J": {"low": 0.0, "high": 1.0, "count": 2}},
                },
            }
        )
    )
    commands = (["analyze", "-c", str(nn_config)], ["sweep", "-c", str(sweep), "--jobs", "1"])
    for command in commands:
        for units in ("bits", "nats"):
            assert main(command + ["--set", f"output.units={units}"]) == 0
            capsys.readouterr()

    # the units are checked before any point is evaluated
    def not_evaluated(*args, **kwargs):
        raise AssertionError("evaluated a point before checking the units")

    monkeypatch.setattr(cli, "run_sweep", not_evaluated)
    monkeypatch.setattr(cli, "analyze", not_evaluated)
    for command in commands:
        for units in ("Nats", "bit", "5"):
            assert main(command + ["--set", f"output.units={units}"]) == 1, (command, units)
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.count("\n") == 1 and "output.units" in captured.err
        assert main(command + ["--set", "output=nats"]) == 1
        assert capsys.readouterr().err.count("\n") == 1


def test_usage_errors_exit_one(nn_config):
    with pytest.raises(SystemExit) as exc:
        main(["sample", "-c", str(nn_config)])  # missing --blocks/--seed
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 1


def test_validate_subcommand_passes(capsys):
    code = main(["validate", "--seed", "20240"])
    out = capsys.readouterr().out
    assert code == 0, out
    assert "FAIL" not in out
    assert "consistency-residual" in out


def test_validate_corrupt_hook_fails(capsys):
    code = main(["validate", "--seed", "20240", "--corrupt"])
    out = capsys.readouterr().out
    assert code == 2
    assert re.search(r"consistency-residual: residual \d", out)
    assert "FAIL" in out
