import json
import math
import re

import pytest

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
