"""Command-line contract: artifacts, exit codes, validation messages."""

import json
from dataclasses import fields, replace
from functools import partial
from pathlib import Path

import pytest

from votesim import scenarios
from votesim.cli import main
from votesim.simnet import ConfigError, FaultModel


def write_scenario(tmp_path: Path, **overrides) -> Path:
    obj = {
        "schema": scenarios.SCHEMA,
        "protocol": "dpol",
        "n": 9,
        "d": 2,
        "k": 1,
        "seed": 11,
    }
    obj.update(overrides)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(obj))
    return path


def test_run_writes_three_artifacts(tmp_path, capsys):
    sc = write_scenario(tmp_path)
    out = tmp_path / "out"
    code = main(["run", "--scenario", str(sc), "--out", str(out)])
    assert code == 0
    assert (out / "trace.jsonl").exists()
    assert (out / "outcome.json").exists()
    assert (out / "report.csv").exists()
    report = (out / "report.csv").read_text().splitlines()
    assert report[1].startswith("dpol,9,11,1.0000")
    assert "structured-ring" in report[1]


def test_run_streams_the_rendered_trace(tmp_path):
    sc = write_scenario(tmp_path)
    out = tmp_path / "out"
    assert main(["run", "--scenario", str(sc), "--out", str(out)]) == 0
    _, trace = scenarios.run(scenarios.from_file(sc))
    assert (out / "trace.jsonl").read_bytes() == trace.to_jsonl().encode()


def test_run_rejects_non_square_dpol(tmp_path, capsys):
    sc = write_scenario(tmp_path, n=10)
    code = main(["run", "--scenario", str(sc), "--out", str(tmp_path / "o")])
    assert code == 1
    assert "perfect square" in capsys.readouterr().err


def test_run_total_loss_exits_incomplete(tmp_path):
    sc = write_scenario(tmp_path, faults={"drop_probability": 1.0})
    code = main(["run", "--scenario", str(sc), "--out", str(tmp_path / "o")])
    assert code == 2


def test_run_seed_override(tmp_path):
    sc = write_scenario(tmp_path)
    out = tmp_path / "o"
    assert main(["run", "--scenario", str(sc), "--seed", "99", "--out", str(out)]) == 0
    outcome = json.loads((out / "outcome.json").read_text())
    assert outcome["scenario"]["seed"] == 99


def _audited_dpol(seed):
    return replace(scenarios.canonical_scenario("dpol", seed), audit=True)


@pytest.mark.parametrize(
    "make", [*(partial(scenarios.canonical_scenario, p) for p in scenarios.PROTOCOLS),
             _audited_dpol],
    ids=[*scenarios.PROTOCOLS, "dpol-audit"])
def test_scenario_round_trip(tmp_path, make):
    sc = make(7)
    path = tmp_path / "scenario.json"
    path.write_text(sc.to_json())
    again = scenarios.from_file(path)
    assert again == sc


@pytest.mark.parametrize("protocol", scenarios.PROTOCOLS)
def test_omitted_faults_take_fault_model_defaults(protocol):
    sc = scenarios.canonical_scenario(protocol, 1)
    obj = sc.to_obj()
    del obj["faults"]
    assert scenarios.parse(obj) == sc


@pytest.mark.parametrize("protocol", scenarios.PROTOCOLS)
def test_runner_params_are_scenario_fields_echoed_in_trace(protocol):
    cls, _ = scenarios.RUNNERS[protocol]
    names = [f.name for f in fields(cls)]
    assert set(names) <= {f.name for f in fields(scenarios.Scenario)}
    sc = scenarios.canonical_scenario(protocol, 1)
    _, trace = scenarios.run(sc)
    assert {name: trace.params[name] for name in names} == {
        name: getattr(sc, name) for name in names}


def test_missing_scenario_file_is_config_error(tmp_path, capsys):
    code = main(["run", "--scenario", str(tmp_path / "nope.json")])
    assert code == 1


def test_run_refuses_chainvote_cutoff_height_zero(tmp_path, capsys):
    # No scenario field is named cutoff_height: a file that sets one is refused.
    sc = write_scenario(tmp_path, protocol="chainvote", n=8, degree=3, cutoff_height=0)
    code = main(["run", "--scenario", str(sc), "--out", str(tmp_path / "o")])
    assert code == 1
    assert "cutoff_height" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_bad_field_reports_path(tmp_path, capsys):
    sc = write_scenario(tmp_path, faults={"drop_probability": 3})
    code = main(["run", "--scenario", str(sc)])
    assert code == 1
    assert "faults.drop_probability" in capsys.readouterr().err


# One scenario per configuration rule, on top of write_scenario's dpol n=9,
# each breaking only that rule, with the field its error must name.
RULE_BREAKS = [
    pytest.param("d", {"d": 1}, id="d-1"),
    pytest.param("d", {"protocol": "mesh", "n": 4, "d": 1}, id="mesh-d-1"),
    pytest.param("choices", {"choices": [0, 1, 0]}, id="choices-short"),
    pytest.param("k", {"k": 0}, id="dpol-k-0"),
    pytest.param("k", {"d": 3}, id="dpol-k-indivisible"),
    pytest.param("n", {"n": 10}, id="dpol-n-not-square"),
    pytest.param("k", {"k": 4}, id="dpol-2k+1-over-cluster"),
    pytest.param("n", {"protocol": "spp", "n": 10, "cluster_size": 4, "t": 2},
                 id="spp-n-indivisible"),
    pytest.param("n", {"protocol": "spp", "n": 4, "cluster_size": 4, "t": 2},
                 id="spp-one-cluster"),
    pytest.param("cluster_size", {"protocol": "spp", "n": 8, "cluster_size": 1, "t": 1},
                 id="spp-cluster-size-1"),
    pytest.param("t", {"protocol": "spp", "n": 8, "cluster_size": 4, "t": 5},
                 id="spp-t-over-cluster"),
    pytest.param("t", {"protocol": "helios", "n": 4, "trustees": 3, "t": 4},
                 id="helios-t-over-trustees"),
    pytest.param("n", {"protocol": "mesh", "n": 1}, id="mesh-n-1"),
    *(pytest.param(field, {"protocol": "chainvote", "n": 8, "degree": 3, field: value},
                   id=f"chainvote-{field}")
      for field, value in (("degree", 8), ("difficulty", 0), ("block_capacity", 0),
                           ("issuer_bits", 256))),
]


@pytest.mark.parametrize("field, overrides", [
    pytest.param("faults.crashed", {"faults": {"crashed": ["a"]}}, id="crashed-str"),
    pytest.param("faults.lose_messages", {"faults": {"lose_messages": [1.7]}},
                 id="lose-float"),
    pytest.param("faults.byzantine", {"faults": {"byzantine": {"1": 5}}}, id="behaviour-int"),
    pytest.param("faults.byzantine",
                 {"faults": {"crashed": [1], "byzantine": {"1": "dpol:lying-sum"}}},
                 id="crashed-and-byzantine"),
    pytest.param("faults.crashed",
                 {"faults": {"byzantine": {"99": "no-such-behaviour"}, "crashed": [42]}},
                 id="crashed-stray-id"),
    pytest.param("faults.byzantine", {"faults": {"byzantine": {"9": "dpol:lying-sum"}}},
                 id="byzantine-stray-id"),
    pytest.param("faults.byzantine", {"faults": {"byzantine": {"1": "chain:double-spend"}}},
                 id="behaviour-of-another-protocol"),
    pytest.param("faults.byzantine",
                 {"protocol": "helios", "n": 4, "trustees": 3, "t": 2,
                  "faults": {"byzantine": {"1": "helios:tamper-bulletin"}}},
                 id="behaviour-on-the-wrong-helios-peer"),
    pytest.param("faults.max_delay", {"faults": {"max_delay": True}}, id="max-delay-bool"),
    pytest.param("faults.max_delya", {"faults": {"max_delya": 3}}, id="faults-key-misspelt"),
    pytest.param("dificulty", {"protocol": "chainvote", "n": 8, "degree": 3, "dificulty": 4},
                 id="key-misspelt"),
    *(pytest.param("faults.byzantine", {"faults": {"byzantine": {"1": name}}}, id=name)
      for name in ("crash-after-step", "crash-after-steps", "crash-after-stepX 3",
                   "crash-after-step -1", "crash-after-step 1 2", "crash-after-step  3",
                   "crash-after-step 3 ")),
    pytest.param("choice_weights", {"choice_weights": ["x", 1]}, id="weight-str"),
    pytest.param("choice_weights", {"choice_weights": [1]}, id="weights-fewer-than-d"),
    pytest.param("choice_weights", {"choice_weights": [-1, 2]}, id="weight-negative"),
    pytest.param("choice_weights", {"choice_weights": [0, 0]}, id="weights-sum-0"),
    # Numbers a float cannot hold: json writes them as 1000...0, Infinity and NaN.
    pytest.param("faults.drop_probability", {"faults": {"drop_probability": 10**400}},
                 id="drop-probability-overflows-float"),
    pytest.param("choice_weights", {"choice_weights": [10**400, 1]}, id="weight-overflows-float"),
    pytest.param("choice_weights", {"choice_weights": [float("inf"), 1]}, id="weight-infinite"),
    pytest.param("choice_weights", {"choice_weights": [float("nan"), 1]}, id="weight-nan"),
    pytest.param("n", {"n": 0}, id="n-0"),
    pytest.param("faults.max_delay", {"faults": {"max_delay": 0}}, id="max-delay-0"),
    pytest.param("protocol", {"protocol": "paper-ballot"}, id="protocol-unknown"),
    pytest.param("faults.byzantine", {"faults": {"byzantine": {"one": "dpol:lying-sum"}}},
                 id="byzantine-key-not-int"),
    pytest.param("k", {"k": True}, id="k-bool"),
    pytest.param("choices", {"choices": [True, 0, 0, 1, 0, 1, 0, 1, 0]}, id="choice-bool"),
    *RULE_BREAKS,
])
def test_malformed_field_is_config_error_naming_its_path(tmp_path, capsys, field, overrides):
    sc = write_scenario(tmp_path, **overrides)
    code = main(["run", "--scenario", str(sc), "--out", str(tmp_path / "o")])
    assert code == 1
    assert capsys.readouterr().err.startswith(f"error: {field}: ")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("text, message", [
    pytest.param(json.dumps({"schema": "votesim-scenario/0", "protocol": "dpol", "n": 9}),
                 "schema: expected", id="wrong-schema"),
    pytest.param("[]", "scenario: document must be a JSON object", id="json-array"),
    pytest.param('{"schema": ', "scenario: not valid JSON", id="invalid-json"),
    pytest.param(json.dumps({"schema": scenarios.SCHEMA, "protocol": "dpol"}),
                 "n: required field missing", id="n-missing"),
    pytest.param("[" * 100000, "scenario: not valid JSON", id="nested-too-deep"),
    pytest.param(b"\xff\xfe{", "scenario: cannot read", id="not-utf-8"),
    pytest.param(None, "scenario: cannot read", id="directory"),
])
def test_malformed_document_is_config_error(tmp_path, capsys, text, message):
    # text is the document: bytes are written as they are, None makes a directory.
    path = tmp_path / "scenario.json"
    if text is None:
        path.mkdir()
    elif isinstance(text, bytes):
        path.write_bytes(text)
    else:
        path.write_text(text)
    code = main(["run", "--scenario", str(path), "--out", str(tmp_path / "o")])
    assert code == 1
    assert capsys.readouterr().err.startswith(f"error: {message}")
    assert not (tmp_path / "o").exists()


def test_weighted_draw_never_picks_a_zero_weight_option():
    sc = scenarios.Scenario("dpol", n=64, d=3, seed=4, choice_weights=[1, 0, 3])
    choices = scenarios.resolve_choices(sc)
    assert set(choices) == {0, 2}
    assert scenarios.resolve_choices(replace(sc)) == choices


@pytest.mark.parametrize("field, overrides", RULE_BREAKS)
def test_runner_refuses_what_the_scenario_refuses(field, overrides):
    # The scenario only fills in defaults here: the params dataclass and the
    # runner must find the broken rule on their own.
    sc = scenarios.Scenario(**{"protocol": "dpol", "n": 9, "d": 2, "k": 1, "seed": 11,
                               **overrides})
    cls, runner = scenarios.RUNNERS[sc.protocol]
    with pytest.raises(ConfigError, match=f"^{field}: "):
        params = cls(**{f.name: getattr(sc, f.name) for f in fields(cls)})
        runner(params, scenarios.resolve_choices(sc), FaultModel(), sc.seed)


def test_table1_matches_and_writes_files(tmp_path, capsys):
    out = tmp_path / "t1"
    code = main(["table1", "--seed", "1", "--out", str(out)])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "all rows match" in stdout
    assert (out / "table1.txt").exists()
    table = (out / "table1.csv").read_text().splitlines()
    assert len(table) == 6  # header + 5 rows
    assert table[1].startswith("paper-based,none-flexible,distributed,all")


def test_table1_mismatch_exits_nonzero(tmp_path, monkeypatch, capsys):
    from votesim import cli
    from votesim.analysis import TaxonomyRow

    original = cli.table1_rows

    def broken_rows(seed):
        rows = original(seed)
        rows[2] = TaxonomyRow("spp", "unclassifiable", "unclassifiable",
                              "unclassifiable")
        return rows

    monkeypatch.setattr(cli, "table1_rows", broken_rows)
    code = main(["table1", "--seed", "1", "--out", str(tmp_path / "t1bad")])
    assert code != 0
    assert "MISMATCH" in capsys.readouterr().out


def test_sweep_requires_three_sizes(tmp_path, capsys):
    code = main(["sweep", "--protocol", "mesh", "--n", "8,16", "--out", str(tmp_path)])
    assert code == 1


@pytest.mark.parametrize("repeats", ["0", "-1"])
def test_sweep_refuses_repeats_below_one(tmp_path, capsys, repeats):
    out = tmp_path / "sw"
    code = main(["sweep", "--protocol", "mesh", "--n", "4,8,16", "--repeats", repeats,
                 "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err == "error: --repeats: must be >= 1\n"
    assert not out.exists()


@pytest.mark.parametrize("sizes, message", [
    ("8,16", "need at least 3 distinct values"),
    ("8,8,16,16", "need at least 3 distinct values"),
    ("8,x", "must be a comma-separated list of integers"),
])
def test_sweep_refuses_bad_sizes(tmp_path, capsys, sizes, message):
    out = tmp_path / "sw"
    code = main(["sweep", "--protocol", "mesh", "--n", sizes, "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err == f"error: --n: {message}\n"
    assert not out.exists()


def test_sweep_mesh_exponent(tmp_path, capsys):
    out = tmp_path / "sw"
    code = main(
        ["sweep", "--protocol", "mesh", "--n", "8,16,32", "--repeats", "1",
         "--seed", "1", "--out", str(out)]
    )
    assert code == 0
    text = (out / "sweep.csv").read_text()
    assert "exponent" in text
    printed = capsys.readouterr().out
    assert "exponent 2." in printed


def test_sweep_chainvote_mines_easier_blocks(tmp_path, capsys):
    # The chainvote sweep lowers the difficulty and fits every transaction
    # in one block, so small sizes run in well under a second.
    code = main(["sweep", "--protocol", "chainvote", "--n", "5,6,8", "--out", str(tmp_path)])
    assert code == 0
    lines = (tmp_path / "sweep.csv").read_text().splitlines()
    assert lines[0] == "protocol,n,seed,messages,bytes"
    assert [line.split(",")[:3] for line in lines[1:4]] == [
        ["chainvote", "5", "1"], ["chainvote", "6", "1"], ["chainvote", "8", "1"]]
    assert lines[4] == ""
    assert lines[5].startswith("exponent,")


def test_sweep_unknown_protocol(tmp_path, capsys):
    code = main(["sweep", "--protocol", "nope", "--n", "8,16,32", "--out", str(tmp_path)])
    assert code == 1
