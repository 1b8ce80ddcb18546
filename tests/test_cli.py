"""CLI subcommands and experiment artifacts: exit codes, schemas, determinism."""

import csv
import json
import os
import warnings
from fractions import Fraction

import numpy as np
import pytest

from permstab import cli, experiment, families
from permstab.cli import main, parse_group_spec
from permstab.errors import ConfigError
from permstab.experiment import CSV_COLUMNS, ExperimentConfig, run_experiment
from permstab.groups import cyclic


def test_parse_group_spec():
    assert parse_group_spec("cyclic:12").order == 12
    assert parse_group_spec("sl2:3").order == 24
    assert parse_group_spec("cyclic:3*cyclic:4").order == 12
    with pytest.raises(ConfigError):
        parse_group_spec("dihedral:5")
    with pytest.raises(ConfigError):
        parse_group_spec("cyclic")


def test_one_parser_serves_every_call(capsys):
    # parsing leaves the cached parser as it was: each call prints what it prints alone,
    # and a default such as --tol does not keep the value an earlier call passed
    assert cli.build_parser() is cli.build_parser()
    runs = [
        ["kazhdan", "--group", "sl2:5", "--tol", "0.25"],
        ["defect", "--prime", "7"],
        ["kazhdan", "--group", "sl2:5"],
    ]
    alone = []
    for argv in runs:
        cli.build_parser.cache_clear()
        assert main(argv) == 0
        alone.append(capsys.readouterr().out)
    assert alone[0] != alone[2]
    for argv, want in zip(runs + runs, alone + alone):
        assert main(argv) == 0
        assert capsys.readouterr().out == want


def test_kazhdan_exact(tmp_path, capsys):
    out = tmp_path / "k.json"
    assert main(["kazhdan", "--group", "cyclic:12", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["method"] == "abelian-exact"
    assert data["lower"] == data["upper"] == pytest.approx(2 * np.sin(np.pi / 12))


def test_kazhdan_bracket_stdout(capsys):
    assert main(["kazhdan", "--group", "sl2:3"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["method"] == "laplacian-bracket"
    assert 0 < data["lower"] <= data["upper"]


def test_kazhdan_bracket_no_warnings(capsys):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["kazhdan", "--group", "sl2:13"]) == 0
    assert [str(w.message) for w in caught] == []
    assert json.loads(capsys.readouterr().out)["method"] == "laplacian-bracket"


def test_kazhdan_bad_group(capsys):
    assert main(["kazhdan", "--group", "nope:3"]) == 1
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("spec", ["cyclic:abc", "cyclic:0", "sl2:1", "cyclic:2*sl2:x"])
def test_kazhdan_malformed_group(spec, capsys):
    # a non-integer, or an order below the kind's minimum (cyclic >= 1, sl2 >= 2)
    assert main(["kazhdan", "--group", spec]) == 1
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("spec", ["cyclic:1", "cyclic:1*cyclic:1"])
def test_kazhdan_trivial_group(spec, capsys):
    # the trivial group has no nontrivial character to bound
    assert main(["kazhdan", "--group", spec]) == 1
    assert capsys.readouterr().err.startswith("config error:")


@pytest.mark.parametrize("gens", ["1,x", "9", "5", "-1"])
def test_kazhdan_malformed_gens(gens, capsys):
    # element indices of cyclic:5 must be integers in [0, 5)
    assert main(["kazhdan", "--group", "cyclic:5", f"--gens={gens}"]) == 1
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("group", ["sl2:5", "cyclic:12"])
@pytest.mark.parametrize("tol", ["-1", "nan", "inf"])
def test_kazhdan_malformed_tol(group, tol, capsys):
    # the bracket and the abelian-exact path refuse the same tolerances
    assert main(["kazhdan", "--group", group, f"--tol={tol}"]) == 1
    assert "config error" in capsys.readouterr().err


def test_defect_subcommand(tmp_path):
    out = tmp_path / "d.json"
    assert main(["defect", "--prime", "7", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["family"]["B_size"] == 48
    assert data["floor"] == "11/42"


def test_defect_window_empty(capsys):
    assert main(["defect", "--prime", "5"]) == 1
    assert "WindowEmptyError" in capsys.readouterr().err


@pytest.mark.parametrize("args", [
    ["--prime", "7", "--window", "x:y"],  # not fractions
    ["--prime", "7", "--window", "1/0:1"],
    ["--prime", "1"],  # below 2, as in a run's primes
    ["--prime", "7", "--window", "1/2:1"],  # beta above 1/2
    ["--prime", "7", "--window", "0:1"],  # alpha = 0
])
def test_defect_malformed_arguments(args, capsys):
    assert main(["defect", *args]) == 1
    assert "config error" in capsys.readouterr().err


def test_build_family_artifacts(tmp_path):
    out = str(tmp_path / "fam")
    assert main(["build-family", "--prime-list", "5,7", "--out", out]) == 0
    rows = (tmp_path / "fam" / "grid.csv").read_text().splitlines()
    assert rows[0] == ",".join(CSV_COLUMNS)
    assert "WindowEmptyError" in rows[1]  # p=5 recorded, run continued
    assert rows[2].split(",")[1] == "7" and "true" in rows[2]
    assert (tmp_path / "fam" / "instance_p7.json").exists()
    assert not (tmp_path / "fam" / "instance_p5.json").exists()
    summary = (tmp_path / "fam" / "summary.txt").read_text()
    assert "SKIPPED" in summary and "evidence, not a certificate" in summary


def test_build_family_bad_window(capsys):
    assert main(["build-family", "--prime-list", "7", "--window", "1/2:1/3",
                 "--out", "unused"]) == 1
    assert "config error" in capsys.readouterr().err
    assert main(["build-family", "--prime-list", "7,x", "--out", "unused"]) == 1
    assert "config error" in capsys.readouterr().err


def test_round_subcommand(tmp_path):
    G = cyclic(8)
    beta3 = G.right_perm(G.inv(3))
    image = list(range(10))
    image[:8] = [int(v) for v in beta3.image]
    inp = tmp_path / "round.json"
    inp.write_text(json.dumps(
        {"group": "cyclic:8", "gens": [1], "y_size": 10, "k_gens": [image]}
    ))
    out = tmp_path / "res.json"
    assert main(["round", "--input", str(inp), "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["epsilon"] == "0" and data["set_loss"] == 0


@pytest.mark.parametrize("gens", [[6], [-1], ["x"], [1.7], [True]])
def test_round_malformed_gens(gens, tmp_path, capsys):
    inp = tmp_path / "round.json"
    inp.write_text(json.dumps(
        {"group": "cyclic:5", "gens": gens, "y_size": 5, "k_gens": [[1, 2, 3, 4, 0]]}
    ))
    assert main(["round", "--input", str(inp)]) == 1
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("command, data", [
    ("round", {"y_size": 5, "k_gens": [[1, 2, 3, 4, 0]]}),  # no "group"
    ("round", {"group": "cyclic:5", "y_size": "x", "k_gens": [[1, 2, 3, 4, 0]]}),
    ("round", {"group": "cyclic:5", "y_size": 5, "k_gens": [[1, 1, 3, 4, 0]]}),
    ("oracle", {"generator_count": 2, "images": [[1, 0, 2], [0, 0, 1]]}),
    ("round", {"group": "cyclic:5", "y_size": 3, "k_gens": [[1, 2, 0]]}),
    ("round", {"group": "cyclic:5", "y_size": 6, "k_gens": [[1, 2, 3, 4, 0]]}),
    ("oracle", {"generator_count": 2, "images": [[0, 1], [1, 0]], "exhaustive_cap": 100}),
    ("round", {"group": "cyclic:5", "y_size": 5.9, "k_gens": [[1, 2, 3, 4, 0]]}),
    ("round", {"group": "cyclic:5", "y_size": 5, "k_gens": [[1.9, 2, 3, 4, 0]]}),
    ("round", {"group": "cyclic:5", "y_size": 5, "k_gens": [[1, 2.2, 3, 4, 0]]}),
    ("round", {"group": "cyclic:5", "y_size": 5, "k_gens": [[True, 2, 3, 4, 0]]}),
    ("oracle", {"generator_count": 2.5, "images": [[1, 0, 2], [0, 2, 1]]}),
    ("oracle", {"generator_count": 2, "images": [[1.5, 0, 2], [0, 2, 1]]}),
    ("oracle", {"generator_count": 2, "relators": [[1.5, 2, -1, -2]], "images": [[1, 0, 2], [0, 2, 1]]}),
    ("round", {"group": 5, "y_size": 5, "k_gens": [[1, 2, 3, 4, 0]]}),  # a group spec that is not a string
    ("round", {"group": "cyclic:5", "y_size": 5, "k_gens": []}),  # K with no generator
    ("oracle", {"generator_count": 1, "images": [[1, 0]], "name": "Z"}),  # a name nothing reads
])
def test_malformed_input_file(command, data, tmp_path, capsys):
    # a missing field, a non-integer, rows that are not bijections, sizes
    # that disagree, a key the oracle does not read, and floats or booleans
    # where integers belong, which int() or an int64 array would truncate
    inp = tmp_path / "input.json"
    inp.write_text(json.dumps(data))
    assert main([command, "--input", str(inp)]) == 1
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["round", "oracle"])
def test_unreadable_input_file(command, tmp_path, capsys):
    inp = tmp_path / "input.json"
    assert main([command, "--input", str(inp)]) == 1  # missing
    inp.write_text("{")  # not JSON
    assert main([command, "--input", str(inp)]) == 1
    assert capsys.readouterr().err.count("config error") == 2


def test_oracle_subcommand(tmp_path, capsys):
    inp = tmp_path / "oracle.json"
    inp.write_text(json.dumps({
        "generator_count": 2,
        "relators": [[1, 2, -1, -2]],
        "images": [[1, 0, 2, 3], [0, 2, 1, 3]],
    }))
    assert main(["oracle", "--input", str(inp)]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["exhaustive"] and data["search_space_size"] == 576
    assert data["max_distance"] != "0"  # the two swaps do not commute


def test_oracle_above_cap(tmp_path, capsys):
    # (7!)^2 image tuples: the oracle refuses rather than guessing
    inp = tmp_path / "oracle.json"
    inp.write_text(json.dumps({"generator_count": 2, "images": [list(range(7))] * 2}))
    assert main(["oracle", "--input", str(inp)]) == 1
    assert "error: CapacityError" in capsys.readouterr().err


def test_run_deterministic(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"primes": [5, 7], "seed": 3}))
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    assert main(["run", "--config", str(cfg_path), "--out", out1]) == 0
    assert main(["run", "--config", str(cfg_path), "--out", out2]) == 0
    for name in ("grid.csv", "summary.txt", "instance_p7.json"):
        with open(os.path.join(out1, name), "rb") as f1, open(
            os.path.join(out2, name), "rb"
        ) as f2:
            assert f1.read() == f2.read()


def test_run_bad_config(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    # "family" is no longer a config key, and neither is "order_cap"
    bad = [
        json.dumps({"primes": [7], "family": "unknown"}),
        json.dumps({"primes": [7], "order_cap": 1000}),
        "[]",  # not an object
        json.dumps({"primes": [7], "window": [0.1]}),  # one end of a window
        json.dumps({"primes": [7], "out_dir": 5}),
        "{",  # not JSON
    ]
    for text in bad:
        cfg_path.write_text(text)
        assert main(["run", "--config", str(cfg_path)]) == 1
        assert "config error" in capsys.readouterr().err
    assert main(["run", "--config", str(tmp_path / "missing.json")]) == 1
    assert "config error" in capsys.readouterr().err



@pytest.mark.parametrize("config", [
    {"primes": [7.9]},  # would run as p = 7
    {"primes": [7], "seed": 7.9},
    {"primes": [True]},  # a bool is not a prime
    {"primes": [7], "seed": False},
    {"primes": 7},  # not a list
])
def test_run_rejects_non_integers(config, tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({**config, "out_dir": str(tmp_path / "out")}))
    assert main(["run", "--config", str(cfg_path)]) == 1
    assert capsys.readouterr().err.startswith("config error:")
    assert not (tmp_path / "out").exists()


def test_run_out_dir_is_a_file(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("")
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"primes": [7], "out_dir": str(taken)}))
    assert main(["run", "--config", str(cfg_path)]) == 1
    assert capsys.readouterr().err.startswith("config error: cannot create output directory")


def test_out_into_missing_directory(tmp_path, capsys):
    out = tmp_path / "missing" / "k.json"
    assert main(["kazhdan", "--group", "cyclic:4", "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("config error: cannot write")


@pytest.mark.parametrize("args", [
    ["kazhdan", "--group", "sl2:5", "--gens", ""],  # not the canonical generators
    ["kazhdan", "--group", "sl2:5", "--out", ""],  # not standard output
    ["defect", "--prime", "7", "--out", ""],
])
def test_empty_values_are_config_errors(args, capsys):
    assert main(args) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("config error:") and captured.out == ""


def test_run_with_empty_out_is_a_config_error(tmp_path, capsys):
    # an empty --out names no directory; the config's out_dir is not written instead
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"primes": [7], "out_dir": str(tmp_path / "out")}))
    assert main(["run", "--config", str(cfg_path), "--out", ""]) == 1
    assert capsys.readouterr().err.startswith("config error: cannot create output directory")
    assert not (tmp_path / "out").exists()


def test_experiment_config_validation():
    with pytest.raises(ConfigError):
        ExperimentConfig(primes=[1])
    from fractions import Fraction

    with pytest.raises(ConfigError):
        ExperimentConfig(primes=[7], window=(Fraction(2, 3), Fraction(3, 4)))


def test_run_experiment_returns_out_dir(tmp_path):
    out = str(tmp_path / "exp")
    cfg = ExperimentConfig(primes=[7], out_dir=out)
    assert run_experiment(cfg) == out
    assert os.path.exists(os.path.join(out, "grid.csv"))


def test_grid_row_records_violated_certificate(tmp_path, monkeypatch):
    # p = 13 gets |C| = 6 of 13, so |B|/|X| = 6/13 leaves the window [1/7, 1/6]
    cardinality = families.window_cardinality
    monkeypatch.setattr(
        families,
        "window_cardinality",
        lambda order, a, b: 6 if order == 13 else cardinality(order, a, b),
    )
    out = tmp_path / "grid"
    run_experiment(ExperimentConfig(primes=[7, 13, 19], out_dir=str(out)))
    with open(out / "grid.csv", newline="") as f:
        rows = {row["p"]: row for row in csv.DictReader(f)}
    assert rows["13"]["error"].startswith("CertificateError: |B|/|X| lies above the window")
    assert rows["13"]["carrier_order"] == "" and not (out / "instance_p13.json").exists()
    for p in ("7", "19"):
        assert rows[p]["error"] == "" and all(rows[p][c] for c in CSV_COLUMNS if c != "error")
        assert (out / f"instance_p{p}.json").exists()


def test_one_field_entry_reaches_every_artifact(tmp_path, monkeypatch):
    # a field added to the declaration alone gains its CSV columns, JSON key and summary fragment
    probe = ("probe", Fraction, True, "probe={probe}", lambda p, inst: Fraction(p, 3))
    monkeypatch.setattr(experiment, "FIELDS", [*experiment.FIELDS, probe])
    out = tmp_path / "probe"
    run_experiment(ExperimentConfig(primes=[5, 7], out_dir=str(out)))
    with open(out / "grid.csv", newline="") as f:
        reader = csv.DictReader(f)
        rows = {row["p"]: row for row in reader}
    assert reader.fieldnames == [*CSV_COLUMNS[:-1], "probe_frac", "probe", "error"]
    assert (rows["7"]["probe_frac"], rows["7"]["probe"]) == ("7/3", "2.333333333333")
    assert rows["5"]["error"].startswith("WindowEmptyError")
    assert rows["5"]["probe_frac"] == rows["5"]["probe"] == ""
    assert json.loads((out / "instance_p7.json").read_text())["probe"] == "7/3"
    lines = (out / "summary.txt").read_text().splitlines()
    assert lines[3].startswith("p=7: |X|=336 ") and lines[3].endswith(" probe=7/3")
    assert lines[2].startswith("p=5: SKIPPED (WindowEmptyError")
