import argparse
import contextlib
import csv
import inspect
import io
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import spillnet
import spillnet.cli
from audit_dataset import write_audit_dataset
from helpers import edge_pairs, reference_design, reference_stratified, unit_outcomes
from spillnet.cli import main
from spillnet.dgp import effect_gaps
from spillnet.errors import ParameterError, TooFewUnitsError
from spillnet.exposure import assign_bernoulli
from spillnet.graph import (
    DegreeSummary, from_edge_list, generate_erdos_renyi, generate_watts_strogatz,
)
from spillnet.montecarlo import STAGES, SimConfig, WattsStrogatzGraph, run_study
from spillnet.oracle import imputation_bias


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_simulate_all_designs_row_count(tmp_path):
    out = tmp_path / "table.csv"
    code = main([
        "simulate", "--design", "all", "--c", "0,-0.5", "--n", "60",
        "--reps", "3", "--p", "0.5", "--seed", "42", "--out", str(out),
    ])
    assert code == 0
    rows = _read_csv(out)
    assert len(rows) == 36  # 3 designs x 2 c x 3 specs x 2 coefficients
    assert {r["design"] for r in rows} == {"1", "2", "3"}
    assert {r["c"] for r in rows} == {"0", "-0.5"}
    assert {r["spec"] for r in rows} == {"t_reg", "dbar_reg", "dbar_star_reg"}


def test_simulate_zero_reps_is_usage_error(tmp_path, capsys):
    code = main([
        "simulate", "--design", "3", "--c", "0", "--n", "60", "--reps", "0",
        "--out", str(tmp_path / "x.csv"),
    ])
    assert code == 2
    assert "error" in capsys.readouterr().err


def _key_paths(mapping, prefix=""):
    """Every key of a nested dict as a dotted path, the nested keys included."""
    paths = set()
    for key, value in mapping.items():
        paths.add(prefix + key)
        if isinstance(value, dict):
            paths |= _key_paths(value, f"{prefix}{key}.")
    return paths


def test_simulate_manifest_lists_every_config_key(tmp_path):
    top = {"n", "reps", "p", "base_seed", "regenerate_graph_each_rep", "design", "graph"}
    ws = {"graph.kind", "graph.k", "graph.beta", "graph.delete_prob"}
    out = tmp_path / "builtin.csv"
    assert main(["simulate", "--design", "1", "--c", "0", "--n", "60", "--reps", "2",
                 "--out", str(out)]) == 0
    manifest = json.loads((tmp_path / "builtin.csv.manifest.json").read_text())
    assert len(manifest["config"]) == 1
    assert _key_paths(manifest["config"][0]) == top | ws | {"design.design_id", "design.c"}

    design = tmp_path / "design.csv"
    design.write_text("degree,theta00,mu_de,lambda_se\n"
                      + "".join(f"{g},1.0,1.0,-0.1\n" for g in range(30)))
    out = tmp_path / "custom.csv"
    assert main(["simulate", "--design-file", str(design), "--graph", "er", "--n", "60",
                 "--reps", "2", "--out", str(out)]) == 0
    manifest = json.loads((tmp_path / "custom.csv.manifest.json").read_text())
    tables = {f"design.{table}.{g}" for table in ("baseline", "direct_effect", "spillover_effect")
              for g in range(30)}
    assert _key_paths(manifest["config"][0]) == (
        top | {"graph.kind", "graph.mean_degree"} | tables
        | {"design.baseline", "design.direct_effect", "design.spillover_effect", "design.noise_sd"}
    )


def test_scatter_and_oracle_manifests_record_their_inputs_under_config_names(tmp_path):
    ws = {"graph", "graph.kind", "graph.k", "graph.beta", "graph.delete_prob"}
    out = tmp_path / "s.csv"
    assert main(["scatter", "--n", "40", "--seed", "5", "--out", str(out)]) == 0
    manifest = json.loads((tmp_path / "s.csv.manifest.json").read_text())
    assert _key_paths(manifest["config"]) == {"n", "p", "base_seed"} | ws

    design = {"p", "design", "design.design_id", "design.c"}
    out = tmp_path / "o.csv"
    assert main(["oracle", "--design", "2", "--c=-0.5", "--n", "40", "--out", str(out)]) == 0
    manifest = json.loads((tmp_path / "o.csv.manifest.json").read_text())
    assert _key_paths(manifest["config"]) == design | {"n", "base_seed"} | ws
    assert manifest["config"]["design"] == {"design_id": 2, "c": -0.5}

    hist = tmp_path / "hist.csv"
    hist.write_text("degree,count\n0,2\n1,3\n")
    assert main(["oracle", "--design", "2", "--histogram", str(hist), "--out", str(out)]) == 0
    manifest = json.loads((tmp_path / "o.csv.manifest.json").read_text())
    assert _key_paths(manifest["config"]) == design | {"histogram"}
    assert manifest["config"]["histogram"] == str(hist)


def test_scatter_manifest_config_given_back_as_config_reproduces_the_csv(tmp_path):
    first = tmp_path / "first.csv"
    assert main(["scatter", "--n", "120", "--p", "0.3", "--seed", "8", "--graph", "er",
                 "--er-mean-degree", "3", "--out", str(first)]) == 0
    manifest = json.loads((tmp_path / "first.csv.manifest.json").read_text())
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(manifest["config"]))
    again = tmp_path / "again.csv"
    assert main(["scatter", "--config", str(cfg), "--out", str(again)]) == 0
    assert again.read_bytes() == first.read_bytes()


def test_audit_manifest_config_given_back_as_config_reproduces_the_report(tmp_path, capsys):
    edges, data = _write_synthetic_dataset(tmp_path, design_id=1, c=0.0, n=300, seed=4)
    data.write_text(data.read_text().replace("id,treatment,outcome", "pid,z,y", 1))
    first = tmp_path / "first.txt"
    assert main(["audit", "--edges", str(edges), "--data", str(data), "--id-col", "pid",
                 "--treatment-col", "z", "--outcome-col", "y", "--out", str(first)]) == 0
    text = capsys.readouterr().out
    manifest = json.loads((tmp_path / "first.txt.manifest.json").read_text())
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(manifest["config"]))
    again = tmp_path / "again.txt"
    assert main(["audit", "--config", str(cfg), "--out", str(again)]) == 0
    assert capsys.readouterr().out == text.replace(str(first), str(again))
    assert again.read_bytes() == first.read_bytes()


# the runs whose manifest config is given back as --config, each reading the files of
# _replay_inputs; the sparse simulate run excludes reps, and the last has six settings
_REPLAYED = {
    "scatter": ["scatter", "--n", "120", "--p", "0.3", "--seed", "8", "--graph", "er",
                "--er-mean-degree", "3"],
    "oracle-graph": ["oracle", "--design", "2", "--c=-0.5", "--n", "400", "--seed", "3"],
    "oracle-histogram": ["oracle", "--design", "1", "--c=-0.5", "--p", "0.3",
                         "--histogram", "{hist}"],
    "oracle-design-file": ["oracle", "--design-file", "{design}", "--noise-sd", "0.5",
                           "--n", "80", "--seed", "2"],
    "audit": ["audit", "--edges", "{edges}", "--data", "{data}", "--id-col", "pid",
              "--treatment-col", "z", "--outcome-col", "y"],
    "simulate": ["simulate", "--design", "2", "--c", "-0.5", "--n", "60", "--reps", "3",
                 "--seed", "9"],
    "simulate-design-file": ["simulate", "--design-file", "{design}", "--noise-sd", "0.5",
                             "--n", "80", "--reps", "3", "--seed", "2"],
    "simulate-sparse": ["simulate", "--design", "3", "--c", "0", "--n", "12", "--reps", "50",
                        "--graph", "er", "--er-mean-degree", "0.5", "--seed", "5"],
    "simulate-six-settings": ["simulate", "--n", "100", "--reps", "5", "--seed", "3",
                              "--fixed-graph"],
}


def _replay_inputs(tmp_path):
    """The files the ``_REPLAYED`` runs read, by the names their arguments use."""
    edges, data = _write_synthetic_dataset(tmp_path, design_id=1, c=0.0, n=300, seed=4)
    data.write_text(data.read_text().replace("id,treatment,outcome", "pid,z,y", 1))
    hist = tmp_path / "hist.csv"
    hist.write_text("degree,count\n0,2\n1,3\n4,1\n")
    design = tmp_path / "design.csv"
    design.write_text("degree,theta00,mu_de,lambda_se\n"
                      + "".join(f"{g},1.0,1.0,{-0.5 / (1 + g)}\n" for g in range(30)))
    return {"edges": edges, "data": data, "hist": hist, "design": design}


def _run_out(argv, out):
    """Run ``argv --out out``; its exit code, stdout, manifest and warnings."""
    with warnings.catch_warnings(record=True) as warned:
        warnings.simplefilter("always")
        code, text, _ = _run([*argv, "--out", str(out)])
    manifest = json.loads(Path(f"{out}.manifest.json").read_text())
    return code, text, manifest, [str(w.message) for w in warned]


@pytest.mark.parametrize("run", sorted(_REPLAYED))
def test_every_manifest_config_given_back_as_config_reruns_its_run(tmp_path, run):
    files = _replay_inputs(tmp_path)
    argv = [arg.format(**files) for arg in _REPLAYED[run]]
    command = argv[0]
    first = tmp_path / "first.out"
    code, text, manifest, warned = _run_out(argv, first)
    assert code == 0
    assert manifest["command"] == command
    assert manifest["outputs"] == [str(first)]
    entries = manifest["config"] if command == "simulate" else [manifest["config"]]
    for k, entry in enumerate(entries):
        cfg, again = tmp_path / f"cfg{k}.json", tmp_path / f"again{k}.out"
        cfg.write_text(json.dumps(entry))
        code, replayed, replay, rewarned = _run_out([command, "--config", str(cfg)], again)
        assert code == 0
        assert replay["config"] == (manifest["config"][k:k + 1] if command == "simulate"
                                    else entry)
        assert rewarned == warned
        if len(entries) == 1:  # one run, rerun byte for byte
            assert replayed == text.replace(str(first), str(again))
            assert again.read_bytes() == first.read_bytes()
            assert replay.get("exclusion_counts") == manifest.get("exclusion_counts")
            continue
        # one setting of a study: the study solved every setting in one stacked solve, so
        # the last bits of its numbers can move
        assert replayed.splitlines()[0] == text.splitlines()[k]
        labels = (str(entry["design"]["design_id"]), f"{entry['design']['c']:g}")
        rows = [row for row in _read_csv(first) if (row["design"], row["c"]) == labels]
        assert len(rows) == 6
        for row, rerun in zip(rows, _read_csv(again), strict=True):
            for column in ("design", "c", "spec", "coef", "coverage", "n_excluded"):
                assert rerun[column] == row[column], (column, row)
            for column in ("mean_estimate", "true_coef", "bias", "ci_low", "ci_high", "mc_se"):
                assert abs(float(rerun[column]) - float(row[column])) <= 1e-12, (column, row)
    rows = _read_csv(first) if command == "simulate" else []
    if run == "simulate":
        config = manifest["config"][0]
        assert (config["n"], config["reps"], config["base_seed"]) == (60, 3, 9)
        assert config["design"] == {"design_id": 2, "c": -0.5}
    if run == "simulate-sparse":
        assert list(manifest["stage_seconds"]) == list(STAGES)
        assert all(seconds >= 0.0 for seconds in manifest["stage_seconds"].values())
        assert any("excluded" in message for message in warned)
        n_excluded = {row["n_excluded"] for row in rows}
        assert n_excluded == {str(sum(manifest["exclusion_counts"].values()))}
        assert sum(manifest["exclusion_counts"].values()) > 0
    if run == "simulate-design-file":
        assert len(rows) == 6
        assert {r["design"] for r in rows} == {"custom"}
        design = manifest["config"][0]["design"]
        assert design["noise_sd"] == 0.5
        assert design["spillover_effect"]["1"] == pytest.approx(-0.25)


@pytest.mark.parametrize("argv, design, code, named", [
    ([], {"design_id": 7, "c": 0}, 2, ["config key 'design': unknown design_id 7"]),
    ([], {"baseline": {"x": 1}, "direct_effect": {}, "spillover_effect": {}, "noise_sd": 1},
     3, ["config key 'design': invalid literal for int() with base 10: 'x'"]),
    ([], {"design_id": 1, "c": 0, "bogus": 1}, 3,
     ["config key 'design': ", "unexpected keyword argument 'bogus'"]),
    (["--c", "0"], {"design_id": 1, "c": 0}, 2, ["--c does not apply to a resolved design"]),
    (["--noise-sd", "2"], {"design_id": 1, "c": 0}, 2,
     ["--noise-sd does not apply to a resolved design"]),
    (["--design-file", "d.csv"], {"design_id": 1, "c": 0}, 2,
     ["--design-file does not apply to a resolved design"]),
])
@pytest.mark.parametrize("command", ["simulate", "oracle"])
def test_a_bad_or_overridden_resolved_design_is_an_error_naming_it(tmp_path, capsys, command, argv,
                                                                   design, code, named):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"design": design, "n": 40, "reps": 2}
                              if command == "simulate" else {"design": design, "n": 40}))
    out = tmp_path / "o.csv"
    assert main([command, *argv, "--config", str(cfg), "--out", str(out)]) == code
    err = capsys.readouterr().err
    for name in named:
        assert name in err
    assert "Traceback" not in err
    assert not out.exists()


def test_oracle_histogram_config_key_prints_what_the_flag_prints(tmp_path, capsys):
    hist = tmp_path / "hist.csv"
    hist.write_text("degree,count\n0,2\n1,3\n4,1\n")
    assert main(["oracle", "--design", "1", "--histogram", str(hist)]) == 0
    text = capsys.readouterr().out
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"histogram": str(hist)}))
    assert main(["oracle", "--design", "1", "--config", str(cfg)]) == 0
    assert capsys.readouterr().out == text


def test_simulate_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "n": 60, "reps": 2, "p": 0.5, "design": "3", "c": [0],
        "graph": {"kind": "er", "mean_degree": 3.0}, "base_seed": 4,
    }))
    out = tmp_path / "o.csv"
    assert main(["simulate", "--config", str(cfg), "--reps", "3", "--out", str(out)]) == 0
    manifest = json.loads((out.parent / "o.csv.manifest.json").read_text())
    stored = manifest["config"][0]
    assert stored["reps"] == 3  # flag wins
    assert stored["n"] == 60
    assert stored["graph"] == {"kind": "er", "mean_degree": 3.0}


@pytest.mark.parametrize("config, key", [
    ({"n": "abc"}, "'n'"),
    ({"graph": {"kind": "ws", "k": "x"}}, "'graph.k'"),
    ({"p": None}, "'p'"),
    ({"graph": "er"}, "'graph'"),
    ({"base_seed": float("inf")}, "'base_seed'"),
    ({"regenerate_graph_each_rep": 0}, "'regenerate_graph_each_rep'"),
    ({"reps": 2.9}, "'reps'"),
    ({"n": 50.7}, "'n'"),
    ({"c": True}, "'c'"),
    ({"reps": 2.9, "n": 50.7, "c": True}, "'n'"),
    ({"p": True}, "'p'"),
    ({"c": [0, False]}, "'c'"),
    ({"graph": {"kind": "ws", "k": 8.5}}, "'graph.k'"),
    ({"graph": {"kind": "er", "mean_degree": True}}, "'graph.mean_degree'"),
    ({"design_file": None}, "'design_file'"),
])
def test_simulate_config_bad_value_is_an_input_error(tmp_path, capsys, config, key):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    reps = [] if "reps" in config else ["--reps", "2"]  # a flag would override the config value
    assert main(["simulate", "--config", str(cfg), *reps, "--out",
                 str(tmp_path / "o.csv")]) == 3
    err = capsys.readouterr().err
    assert f"{cfg}: config key {key}" in err
    assert "Traceback" not in err


def test_config_file_is_utf8_with_an_optional_byte_order_mark(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    argv = ["simulate", "--config", str(cfg), "--out", str(tmp_path / "o.csv")]
    cfg.write_bytes(b'\xef\xbb\xbf{"n": 40, "reps": 2, "design": "3", "c": 0}')
    assert main(argv) == 0
    cfg.write_bytes(b'{"n": 40, "reps": 2, "design": "\xff"}')
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert f"{cfg}: invalid JSON config: 'utf-8' codec can't decode byte 0xff" in err


@pytest.mark.parametrize("argv, config, key", [
    (["audit"], {"edges": "e.csv", "data": "\ud800.csv"}, "data"),
    (["simulate", "--reps", "2", "--out", "o.csv"], {"design_file": "\ud800.csv"}, "design_file"),
    (["oracle", "--design", "1"], {"histogram": "\ud800.csv"}, "histogram"),
], ids=["audit", "simulate", "oracle"])
def test_a_config_file_name_the_file_system_cannot_encode_is_an_input_error(tmp_path, capsys,
                                                                            argv, config, key):
    # JSON can hold a lone surrogate that stands for no undecodable byte, and so for no
    # file name
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(config))
    assert main([*argv, "--config", str(cfg)]) == 3
    err = capsys.readouterr().err
    assert f"{cfg}: config key {key!r}: " in err
    assert "can't encode character '\\ud800'" in err
    assert "Traceback" not in err


def test_scatter_is_byte_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (a, b):
        assert main([
            "scatter", "--n", "150", "--p", "0.5", "--seed", "3", "--out", str(path),
        ]) == 0
    assert a.read_bytes() == b.read_bytes()
    printed = capsys.readouterr().out
    assert "r2(degree, dbar | degree>0)" in printed
    assert "r2(degree, dbar_star)" in printed
    header = a.read_text().splitlines()[0]
    assert header == "node,degree,dbar,dbar_star,isolated"


def test_scatter_reference_setting_prints_r2_band(tmp_path, capsys):
    assert main([
        "scatter", "--n", "1000", "--p", "0.5", "--seed", "7",
        "--out", str(tmp_path / "s.csv"),
    ]) == 0
    out = capsys.readouterr().out
    r2_star = float(out.split("r2(degree, dbar_star)      = ")[1].split()[0])
    assert 0.02 <= r2_star <= 0.10


def test_scatter_nearly_empty_graph_marks_r2_undefined(tmp_path, capsys):
    assert main([
        "scatter", "--n", "40", "--p", "0.5", "--seed", "1",
        "--graph", "er", "--er-mean-degree", "0.001",
        "--out", str(tmp_path / "s.csv"),
    ]) == 0
    assert "undefined" in capsys.readouterr().out


def test_oracle_from_histogram_hand_bias(tmp_path, capsys):
    hist = tmp_path / "hist.csv"
    hist.write_text("degree,count\n0,1\n1,1\n")
    assert main([
        "oracle", "--design", "2", "--c", "0", "--p", "0.5",
        "--histogram", str(hist),
    ]) == 0
    out = capsys.readouterr().out
    assert "bias 0.666667" in out


def test_oracle_histogram_cost_follows_its_rows_not_its_largest_degree(tmp_path, capsys):
    hist = tmp_path / "hist.csv"
    hist.write_text("degree,count\n0,3\n2,5\n1000000000000,1\n")
    assert main([
        "oracle", "--design", "1", "--c", "-0.5", "--p", "0.5",
        "--histogram", str(hist),
    ]) == 0
    out = capsys.readouterr().out
    assert "positive-degree share          0.666667" in out
    assert "mean inverse degree (>0)       0.416667" in out


def test_oracle_design3_bias_exactly_zero(tmp_path, capsys):
    hist = tmp_path / "hist.csv"
    hist.write_text("degree,count\n0,2\n1,3\n4,5\n")
    out_csv = tmp_path / "oracle.csv"
    assert main([
        "oracle", "--design", "3", "--c", "-0.5", "--p", "0.5",
        "--histogram", str(hist), "--out", str(out_csv),
    ]) == 0
    rows = _read_csv(out_csv)
    assert [r["quantity"] for r in rows] == [
        "t_direct", "t_spillover", "dbar_direct", "dbar_spillover",
        "dbar_star_direct", "dbar_star_bias", "dbar_star_weighted", "dbar_star_total",
        "treated_prob", "positive_share", "baseline_gap", "direct_gap",
        "mean_inverse_degree_positive", "mean_dbar_star", "var_dbar_star",
    ]
    values = {r["quantity"]: r["value"] for r in rows}
    assert float(values["dbar_star_bias"]) == 0.0
    assert (tmp_path / "oracle.csv.manifest.json").exists()


def test_oracle_from_calibrated_graph_reference_bias(tmp_path):
    out_csv = tmp_path / "oracle.csv"
    assert main([
        "oracle", "--design", "1", "--c", "0", "--p", "0.5",
        "--n", "4000", "--seed", "11", "--out", str(out_csv),
    ]) == 0
    values = {r["quantity"]: r["value"] for r in _read_csv(out_csv)}
    assert float(values["dbar_star_bias"]) == pytest.approx(0.704, abs=0.08)
    assert float(values["dbar_star_weighted"]) == 0.0


def test_oracle_histogram_beyond_int64_is_an_input_error(tmp_path, capsys):
    hist = tmp_path / "hist.csv"
    for rows, message in (
        ("0,1\n\n9223372036854775808,2\n", f"{hist}:4: column 'degree': integer out of range, "
                                           "must be below 2**63; bad lines [4]"),
        ("0,1\n1,9223372036854775808\n", f"{hist}:3: column 'count': integer out of range, "
                                         "must be below 2**63; bad lines [3]"),
        # every count fits, their sum does not
        ("0,9223372036854775807\n1,1\n", f"{hist}: counts must sum to less than 2**63"),
    ):
        hist.write_text("degree,count\n" + rows)
        assert main(["oracle", "--design", "1", "--histogram", str(hist)]) == 3
        assert capsys.readouterr().err == f"spillnet: input error: {message}\n"
    # a sum just below 2**63, which a float sum rounds up to it, is accepted
    hist.write_text("degree,count\n0,9223372036854775806\n1,1\n")
    assert main(["oracle", "--design", "1", "--histogram", str(hist)]) == 0


def test_oracle_requires_single_c(capsys):
    assert main(["oracle", "--design", "1", "--c", "0,-0.5"]) == 2


@pytest.mark.parametrize("command", ["simulate", "oracle"])
@pytest.mark.parametrize("flags, config, message", [
    (["--design", "1", "--noise-sd", "7"], {}, "--noise-sd does not apply to a built-in design"),
    (["--design", "1"], {"noise_sd": 7}, "config key 'noise_sd' does not apply to a built-in design"),
    (["--design-file", "{design}", "--c=-0.5"], {},
     "--c does not apply to a --design-file design"),
    (["--design-file", "{design}"], {"c": [-0.5, 0]},
     "config key 'c' does not apply to a --design-file design"),
])
def test_design_flags_of_the_other_design_kind_are_usage_errors(tmp_path, capsys, command, flags,
                                                                config, message):
    design = tmp_path / "design.csv"
    design.write_text("degree,theta00,mu_de,lambda_se\n"
                      + "".join(f"{g},1.0,1.0,-0.1\n" for g in range(40)))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "o.csv"
    argv = [command, *(flag.format(design=design) for flag in flags), "--n", "40",
            "--config", str(cfg), "--out", str(out)]
    if command == "simulate":
        argv += ["--reps", "2"]
    assert main(argv) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


# a simulate manifest, whose keys are not config keys
_MANIFEST = {"command": "simulate", "version": spillnet.__version__, "outputs": ["o.csv"],
             "config": [{"n": 40, "reps": 2, "design": {"design_id": 3, "c": 0.0}}]}


@pytest.mark.parametrize("argv, config, named", [
    (["simulate", "--reps", "2"],
     {"reps": 3, "n": 100, "graph": {"kind": "er", "mean_degre": 5}, "bogus": 1},
     ["config key 'graph.mean_degre' does not apply to simulate",
      "config key 'bogus' does not apply to simulate"]),
    (["simulate", "--n", "40", "--reps", "2"], _MANIFEST,
     ["config key 'command' does not apply to simulate"]),
    (["scatter", "--n", "40"], {"reps": 3}, ["config key 'reps' does not apply to scatter"]),
    (["simulate", "--graph", "ws", "--er-mean-degree", "4", "--n", "40", "--reps", "2"], {},
     ["--er-mean-degree does not apply to graph kind 'ws'"]),
    (["scatter", "--graph", "er", "--ws-k", "4", "--n", "40"], {},
     ["--ws-k does not apply to graph kind 'er'"]),
    (["oracle", "--design", "1", "--histogram", "{hist}", "--n", "50", "--seed", "3",
      "--graph", "er"], {},
     [f"{flag} does not apply to a --histogram degree distribution"
      for flag in ("--n", "--seed", "--graph")]),
    (["oracle", "--design", "1", "--histogram", "{hist}"], {"graph": {"mean_degree": 3}},
     ["config key 'graph.mean_degree' does not apply to a --histogram degree distribution"]),
    (["simulate", "--design", "2", "--design-file", "{design}", "--n", "40", "--reps", "2"], {},
     ["--design does not apply to a --design-file design"]),
    (["simulate", "--design", "1", "--c", "", "--n", "40", "--reps", "2"], {},
     ["--c: no spillover constant c given"]),
    (["simulate", "--design", "1", "--c", ",", "--n", "40", "--reps", "2"], {},
     ["--c: no spillover constant c given"]),
    (["simulate", "--design", "1", "--n", "40", "--reps", "2"], {"c": []},
     ["config key 'c': no spillover constant c given"]),
    (["oracle", "--design", "1", "--c", "", "--n", "40"], {},
     ["--c: no spillover constant c given"]),
    (["audit", "--edges", "e.csv", "--data", "u.csv"], {"reps": 3},
     ["config key 'reps' does not apply to audit"]),
    (["simulate", "--n", "40", "--reps", "2"], {"edges": "e.csv"},
     ["config key 'edges' does not apply to simulate"]),
    (["scatter", "--n", "40"], {"workers": 2}, ["config key 'workers' does not apply to scatter"]),
    (["oracle", "--design", "1", "--histogram", "{hist}"], {"workers": 2},
     ["config key 'workers' does not apply to oracle"]),
])
def test_flags_and_config_keys_the_command_does_not_read_are_usage_errors(tmp_path, capsys, argv,
                                                                         config, named):
    design = tmp_path / "design.csv"
    design.write_text("degree,theta00,mu_de,lambda_se\n"
                      + "".join(f"{g},1.0,1.0,-0.1\n" for g in range(40)))
    hist = tmp_path / "hist.csv"
    hist.write_text("degree,count\n0,2\n1,3\n")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "o.csv"
    assert main([*(arg.format(design=design, hist=hist) for arg in argv),
                 "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    for name in named:
        assert name in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["scatter", "--n", "50", "--seed", "-1", "--out", "{tmp}/s.csv"],
    ["oracle", "--design", "1", "--n", "50", "--seed", "-3"],
    ["oracle", "--design", "1", "--n", "50", "--graph", "er", "--seed", "-3"],
])
def test_negative_seed_is_a_usage_error(tmp_path, capsys, argv):
    assert main([arg.format(tmp=tmp_path) for arg in argv]) == 2
    err = capsys.readouterr().err
    assert "seed must be a nonnegative integer (got -" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_simulate_with_fewer_than_one_worker_is_a_usage_error(tmp_path, capsys, workers):
    out = tmp_path / "o.csv"
    assert main(["simulate", "--design", "1", "--n", "50", "--reps", "2",
                 "--workers", workers, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"workers must be at least 1 (got {workers})" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_simulate_workers_config_key_acts_as_its_flag(tmp_path, capsys, monkeypatch):
    argv = ["simulate", "--design", "1", "--c", "0", "--n", "1000", "--reps", "70"]
    flag, keyed = tmp_path / "flag.csv", tmp_path / "keyed.csv"
    assert main([*argv, "--workers", "2", "--out", str(flag)]) == 0
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"workers": 2}))
    assert main([*argv, "--config", str(cfg), "--out", str(keyed)]) == 0
    assert keyed.read_bytes() == flag.read_bytes()
    manifest = json.loads((tmp_path / "keyed.csv.manifest.json").read_text())
    assert all("workers" not in setting for setting in manifest["config"])

    cfg.write_text(json.dumps({"workers": 0}))
    capsys.readouterr()
    assert main([*argv, "--config", str(cfg), "--out", str(tmp_path / "zero.csv")]) == 2
    assert "spillnet: usage error: workers must be at least 1 (got 0)" in capsys.readouterr().err
    assert not (tmp_path / "zero.csv").exists()

    cfg.write_text(json.dumps({"workers": 2}))  # the key reaches the pool
    monkeypatch.setattr(spillnet.montecarlo, "_simulate_block", _end_the_worker)
    assert main([*argv, "--config", str(cfg), "--out", str(tmp_path / "ended.csv")]) == 6
    assert "simulate with n=1000, reps=70, workers=2: " in capsys.readouterr().err


def test_out_of_memory_exits_6_with_one_line_and_writes_nothing(tmp_path):
    resource = pytest.importorskip("resource")
    out = tmp_path / "o.csv"

    def cap_address_space():  # runs in the child only, so no other process is limited
        resource.setrlimit(resource.RLIMIT_AS, (1_500_000_000, 1_500_000_000))

    src = str(Path(spillnet.__file__).parents[1])
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-m", "spillnet.cli", "simulate", "--n", "300000000", "--reps", "1",
         "--design", "1", "--c", "0", "--out", str(out)],
        env=env, capture_output=True, text=True, preexec_fn=cap_address_space, timeout=120)
    assert proc.returncode == 6, proc.stderr
    assert proc.stderr.startswith(
        "spillnet: out of memory: simulate with n=300000000, reps=1, workers=1: ")
    assert proc.stderr.count("\n") == 1
    assert list(tmp_path.iterdir()) == []  # no results CSV and no manifest


def test_out_of_memory_in_a_table_read_names_the_input_files(tmp_path, capsys, monkeypatch):
    def no_memory(*args, **kwargs):
        raise MemoryError()

    monkeypatch.setattr(spillnet.cli, "read_table", no_memory)
    edges, data, histogram = tmp_path / "edges.csv", tmp_path / "units.csv", tmp_path / "h.csv"
    edges.write_text("src,dst\na,b\n")
    data.write_text("id,treatment,outcome\na,1,1.0\nb,0,2.0\n")
    histogram.write_text("degree,count\n1,2\n")
    assert main(["audit", "--edges", str(edges), "--data", str(data)]) == 6
    assert capsys.readouterr().err == (
        f"spillnet: out of memory: audit with --data {data} (37 bytes), --edges {edges} "
        "(12 bytes)\n")
    assert main(["oracle", "--design", "1", "--histogram", str(histogram)]) == 6
    assert capsys.readouterr().err == (
        f"spillnet: out of memory: oracle with --histogram {histogram} (17 bytes)\n")
    cfg = tmp_path / "c.json"  # the --config file itself
    cfg.write_text('{"n": 40}')
    monkeypatch.setattr(spillnet.cli.json, "load", no_memory)
    assert main(["scatter", "--config", str(cfg), "--out", str(tmp_path / "s.csv")]) == 6
    assert capsys.readouterr().err == (
        f"spillnet: out of memory: scatter with --config {cfg} (9 bytes)\n")


def _end_the_worker(*args):
    os._exit(1)  # as the kernel ends a process that runs out of memory


def test_a_pool_worker_that_ends_abruptly_exits_6(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(spillnet.montecarlo, "_simulate_block", _end_the_worker)
    out = tmp_path / "o.csv"
    # 2**16 units per block, so 2 blocks of 1,000-unit reps
    assert main(["simulate", "--design", "1", "--n", "1000", "--reps", "70", "--workers", "2",
                 "--out", str(out)]) == 6
    err = capsys.readouterr().err
    assert err.startswith("spillnet: out of memory: simulate with n=1000, reps=70, workers=2: "
                          "a worker process ended abruptly")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ["oracle", "--design", "1", "--c", "inf", "--n", "50"],
    ["oracle", "--design", "2", "--c", "nan", "--n", "50"],
    ["simulate", "--design", "1", "--c", "0,inf", "--n", "50", "--reps", "2",
     "--out", "{tmp}/o.csv"],
])
def test_non_finite_c_is_a_usage_error(tmp_path, capsys, argv):
    assert main([arg.format(tmp=tmp_path) for arg in argv]) == 2
    captured = capsys.readouterr()
    assert "spillover constant c must be finite" in captured.err
    assert "undefined" not in captured.out and "nan" not in captured.out


def _write_synthetic_dataset(tmp_path, design_id, c, n=2000, seed=50):
    net = generate_watts_strogatz(n, 8, 0.25, 0.75, seed=seed)
    d = assign_bernoulli(n, 0.5, seed=seed + 1)
    spec = reference_design(design_id, c, np.unique(net.degree))
    return _write_dataset(tmp_path, net, d, unit_outcomes(net, d, spec, seed=seed + 2))


def _write_dataset(tmp_path, net, d, y):
    """Audit inputs with unit ids 0, 1, ... in row order; outcomes round-trip exactly."""
    n = net.n
    edges = tmp_path / "edges.csv"
    with edges.open("w") as fh:
        fh.write("src,dst\n")
        fh.writelines(f"{a},{b}\n" for a, b in edge_pairs(net))
    data = tmp_path / "units.csv"
    with data.open("w") as fh:
        fh.write("id,treatment,outcome\n")
        for i in range(n):
            fh.write(f"{i},{d[i]},{y[i]}\n")
    return edges, data


def test_audit_flags_imputation_bias_on_synthetic_design1(tmp_path, capsys):
    edges, data = _write_synthetic_dataset(tmp_path, design_id=1, c=0.0)
    assert main(["audit", "--edges", str(edges), "--data", str(data)]) == 0
    out = capsys.readouterr().out
    assert "WARNING" in out
    star = float(out.split("dbar_star_reg  direct")[1].split("spillover")[1].split("[")[0])
    sub = float(out.split("dbar_reg       direct")[1].split("spillover")[1].split("[")[0])
    assert star == pytest.approx(0.70, abs=0.15)
    assert sub == pytest.approx(0.0, abs=0.15)
    assert "implied imputation bias" in out


def test_audit_without_isolated_nodes_is_quiet(tmp_path, capsys):
    n = 40
    edges = tmp_path / "edges.csv"
    with edges.open("w") as fh:
        fh.write("src,dst\n")
        for i in range(n):
            fh.write(f"{i},{(i + 1) % n}\n")
    data = tmp_path / "units.csv"
    rng = np.random.default_rng(3)
    with data.open("w") as fh:
        fh.write("id,treatment,outcome\n")
        for i in range(n):
            fh.write(f"{i},{rng.integers(0, 2)},{rng.normal():.6f}\n")
    assert main(["audit", "--edges", str(edges), "--data", str(data)]) == 0
    out = capsys.readouterr().out
    assert "no imputation warning raised" in out
    assert "isolated share             0.0000" in out


GAPS_HEADER = "plug-in stratified gaps (positive-degree strata vs isolated stratum)"


def _reference_gap_lines(edges, data):
    """The audit's stratified-gap lines from per-degree OLS on the unit rows of the files,
    whose unit ids are 0, 1, ... in row order; also the reference strata."""
    units = _read_csv(data)
    net = from_edge_list([(int(r["src"]), int(r["dst"])) for r in _read_csv(edges)],
                         n=len(units))
    d = np.array([int(r["treatment"]) for r in units])
    y = np.array([float(r["outcome"]) for r in units])
    fits, skipped = reference_stratified(net, d, y)
    fitted = DegreeSummary.from_histogram({g: int((net.degree == g).sum()) for g in fits})
    baseline, direct = np.array([beta[:2] for beta, _ in fits.values()]).T  # const, treated
    gaps = effect_gaps(fitted, baseline, direct)
    bias = imputation_bias(DegreeSummary.of(net.degree), gaps, float(d.mean()))

    def shown(value):
        return "undefined" if np.isnan(value) else f"{value:.4f}"

    lines = [GAPS_HEADER,
             f"  baseline gap               {shown(gaps.baseline.item())}",
             f"  direct-effect gap          {shown(gaps.direct.item())}",
             f"  implied imputation bias    {shown(bias.item())}"]
    if skipped:
        lines.append("  strata skipped: " + ", ".join(
            f"degree {g}: {reason}" for g, reason in sorted(skipped.items())))
    return lines, fits, skipped


def test_audit_stratified_gaps_equal_unit_row_strata(tmp_path, capsys):
    isolated = tmp_path / "isolated"
    connected = tmp_path / "connected"
    isolated.mkdir()
    connected.mkdir()
    net = generate_erdos_renyi(300, 8.0, seed=17)
    assert not (net.degree == 0).any(), "seed chosen to give no isolated unit"
    d = assign_bernoulli(300, 0.5, seed=18)
    datasets = [
        _write_synthetic_dataset(isolated, design_id=1, c=-0.5, n=400, seed=9),
        _write_dataset(connected, net, d, np.random.default_rng(19).normal(size=300) + d),
    ]
    for (edges, data), has_isolated in zip(datasets, (True, False)):
        want, fits, skipped = _reference_gap_lines(edges, data)
        # a fitted degree-0 stratum and a skipped one; or no degree-0 stratum at all
        assert (0 in fits) is has_isolated and fits
        assert any(reason.startswith("only ") for reason in skipped.values())
        assert main(["audit", "--edges", str(edges), "--data", str(data)]) == 0
        out = capsys.readouterr().out.split("\n")
        start = out.index(GAPS_HEADER)
        assert out[start:out.index("", start)] == want
        assert ("undefined" in want[1]) is not has_isolated


def test_audit_rejects_non_binary_treatment(tmp_path, capsys):
    edges = tmp_path / "edges.csv"
    edges.write_text("src,dst\na,b\n")
    data = tmp_path / "units.csv"
    for rows, message in (
        ("a,2,1.0\nb,0,2.0\n", f"{data}:2: column 'treatment': non-binary"),
        # non-finite outcomes are bad cells too, reported with their file lines
        ("a,1,nan\nb,0,inf\n", f"{data}:2: column 'outcome': non-finite number nan; "
                               "bad lines [2, 3]"),
        ("a,1,1.0\n\nb,0,-inf\n", f"{data}:4: column 'outcome': non-finite number -inf"),
    ):
        data.write_text("id,treatment,outcome\n" + rows)
        assert main(["audit", "--edges", str(edges), "--data", str(data)]) == 3
        assert message in capsys.readouterr().err
    # only the cells 0 and 1, once stripped, are binary: no number or word that means them
    for cell in ("01", "1.0", "true", "+1", "\uff11"):
        data.write_text(f"id,treatment,outcome\na,{cell},1.0\nb, 1 ,2.0\n\nc,{cell},3.0\n",
                        encoding="utf-8")
        assert main(["audit", "--edges", str(edges), "--data", str(data)]) == 3
        assert capsys.readouterr().err == (
            f"spillnet: input error: {data}:2: column 'treatment': non-binary value {cell!r}; "
            "bad lines [2, 5]\n")


def test_audit_rejects_unknown_edge_ids(tmp_path, capsys):
    edges = tmp_path / "edges.csv"
    data = tmp_path / "units.csv"
    data.write_text("id,treatment,outcome\na,1,1.0\nb,0,2.0\n")
    # blank lines count, so the bad row of the second file is on line 5
    for rows, message in (
        ("a,zz\n", f"{edges}:2: 'a'-'zz'"),
        ("a,b\n\n\nb,zz\n", f"{edges}:5: 'b'-'zz'"),
        ("a,b\n\nb,b\n", f"{edges}:4: 'b'-'b'"),  # a self-link
    ):
        edges.write_text("src,dst\n" + rows)
        assert main(["audit", "--edges", str(edges), "--data", str(data)]) == 3
        assert message in capsys.readouterr().err


def test_audit_rejects_a_blank_unit_id(tmp_path, capsys):
    edges = tmp_path / "edges.csv"
    edges.write_text("src,dst\na,b\n")
    data = tmp_path / "units.csv"
    for rows, message in (
        ("a,1,1.0\n ,1,3.0\nb,0,2.0\n", f"{data}:3: column 'id': blank id"),
        # a second blank id is not reported as a repeated one
        ("a,1,1.0\n\n ,1,3.0\nb,0,2.0\n\"\",0,4.0\n", f"{data}:4: column 'id': blank id"),
        # nor does a bad cell elsewhere hide it
        ("a,1,1.0\n ,2,3.0\nb,0,nan\n", f"{data}:3: column 'id': blank id"),
    ):
        data.write_text("id,treatment,outcome\n" + rows)
        assert main(["audit", "--edges", str(edges), "--data", str(data)]) == 3
        assert capsys.readouterr().err.strip().endswith(message)


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _run_audit(edges, data):
    return _run(["audit", "--edges", str(edges), "--data", str(data)])


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(20, 60), data=st.data())
def test_audit_report_ignores_row_order_and_repeated_or_reversed_edges(tmp_path, seed, n, data):
    rng = np.random.default_rng(seed)
    ids = [f"unit{k}" for k in range(n)]
    units = [f"{i},{rng.integers(2)},{rng.normal()!r}\n" for i in ids]
    pairs = {tuple(sorted(rng.choice(n, size=2, replace=False).tolist())) for _ in range(n)}
    edges = [(ids[a], ids[b]) for a, b in sorted(pairs)]
    edges_path, data_path = tmp_path / "edges.csv", tmp_path / "units.csv"

    def audit(unit_rows, edge_rows):
        data_path.write_text("id,treatment,outcome\n" + "".join(unit_rows))
        edges_path.write_text("src,dst\n" + "".join(f"{a},{b}\n" for a, b in edge_rows))
        return _run_audit(edges_path, data_path)

    reference = audit(units, edges)
    assert reference[0] == 0
    order = data.draw(st.permutations(range(n)), label="unit order")
    copies = data.draw(st.lists(st.integers(1, 3), min_size=len(edges), max_size=len(edges)),
                       label="copies of each edge row")
    flips = data.draw(st.lists(st.booleans(), min_size=sum(copies), max_size=sum(copies)),
                      label="reversed rows")
    rows = [edge for edge, k in zip(edges, copies) for _ in range(k)]
    rows = [(b, a) if flip else (a, b) for (a, b), flip in zip(rows, flips)]
    rows = [rows[k] for k in data.draw(st.permutations(range(len(rows))), label="edge order")]
    assert audit([units[k] for k in order], rows) == reference


@pytest.mark.parametrize("flags, config, missing", [
    (["--edges", "{edges}"], {}, ["--data"]),
    (["--data", "{data}"], {}, ["--edges"]),
    ([], {"data": "{data}"}, ["--edges"]),
    ([], {}, ["--edges", "--data"]),
])
def test_audit_without_its_edges_or_data_is_a_usage_error_naming_each(tmp_path, capsys, flags,
                                                                       config, missing):
    edges, data = _write_synthetic_dataset(tmp_path, design_id=1, c=0.0, n=100)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: value.format(data=data) for key, value in config.items()}))
    argv = ["audit", *(flag.format(edges=edges, data=data) for flag in flags),
            "--config", str(cfg)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err == f"spillnet: usage error: {'; '.join(f'{f} is required' for f in missing)}\n"


def test_audit_rejects_missing_columns(tmp_path):
    edges = tmp_path / "edges.csv"
    edges.write_text("src,dst\n")
    data = tmp_path / "units.csv"
    data.write_text("id,outcome\na,1.0\n")
    assert main(["audit", "--edges", str(edges), "--data", str(data)]) == 3


@pytest.mark.parametrize("roles, message", [
    (["--treatment-col", "outcome"], "--treatment-col and --outcome-col name the same column 'outcome'"),
    (["--outcome-col", "treatment"], "--treatment-col and --outcome-col name the same column 'treatment'"),
    (["--id-col", "treatment", "--outcome-col", "treatment"],
     "--id-col and --treatment-col and --outcome-col name the same column 'treatment'"),
])
def test_audit_rejects_one_column_in_two_roles(tmp_path, capsys, roles, message):
    edges, data = _write_synthetic_dataset(tmp_path, design_id=1, c=0.0, n=200)
    assert main(["audit", "--edges", str(edges), "--data", str(data), *roles]) == 2
    captured = capsys.readouterr()
    assert message in captured.err
    assert captured.out == ""


# one valid table for each command that reads one, in CRLF and LF line endings
_TABLES = {
    "audit": "id,treatment,outcome\r\n"
             + "".join(f"u{k},{k % 2},{k / 7!r}\r\n" for k in range(12)),
    "oracle": "degree,count\n0,2\n1,3\n2,1\n",
    "simulate": "degree,theta00,mu_de,lambda_se\n"
                + "".join(f"{g},1.0,1.0,{-0.5 / (1 + g)!r}\n" for g in range(40)),
}


def _read_table_argv(tmp_path, command, table):
    if command == "audit":
        edges = tmp_path / "edges.csv"
        edges.write_text("src,dst\n" + "".join(f"u{k},u{(k + 1) % 12}\n" for k in range(12)))
        return ["audit", "--edges", str(edges), "--data", str(table)]
    if command == "oracle":
        return ["oracle", "--design", "1", "--histogram", str(table)]
    return ["simulate", "--design-file", str(table), "--n", "40", "--reps", "2",
            "--out", str(tmp_path / "o.csv")]


@pytest.mark.parametrize("command", sorted(_TABLES))
def test_table_with_a_byte_order_mark_reads_as_without(tmp_path, command):
    table = tmp_path / "table.csv"
    argv = _read_table_argv(tmp_path, command, table)
    table.write_bytes(_TABLES[command].encode())
    plain = _run(argv)
    assert plain[0] == 0
    table.write_bytes(b"\xef\xbb\xbf" + _TABLES[command].encode())
    assert _run(argv) == plain


@pytest.mark.parametrize("command", sorted(_TABLES))
def test_undecodable_table_is_an_input_error_naming_its_line(tmp_path, command):
    table = tmp_path / "table.csv"
    argv = _read_table_argv(tmp_path, command, table)
    lines = _TABLES[command].encode().splitlines(keepends=True)
    lines[2] = lines[2][:1] + b"\xff" + lines[2][1:]
    table.write_bytes(b"".join(lines))
    code, _, err = _run(argv)
    assert code == 3
    assert f"{table}:3: not UTF-8 text (invalid start byte: b'\\xff')" in err


@pytest.mark.parametrize("command", sorted(_TABLES))
def test_oversized_cell_is_an_input_error_naming_its_line(tmp_path, command):
    table = tmp_path / "table.csv"
    argv = _read_table_argv(tmp_path, command, table)
    text = _TABLES[command]
    table.write_text(text + '"' + "x" * 140_000 + '"\n', newline="")
    code, _, err = _run(argv)
    assert code == 3
    line = text.count("\n") + 1
    assert f"{table}:{line}: malformed CSV: field larger than field limit" in err


def test_audit_reads_every_seeded_audit_dataset(tmp_path, capsys):
    # some seeds pad an edge row whose first cell is the quoted id with a comma
    for seed in range(21):
        edges, data = tmp_path / f"edges{seed}.csv", tmp_path / f"units{seed}.csv"
        write_audit_dataset(300, seed, edges, data)
        assert main(["audit", "--edges", str(edges), "--data", str(data)]) == 0, (
            seed, capsys.readouterr().err)
        assert "units: 300 " in capsys.readouterr().out


def test_audit_does_not_import_numpy_ma(tmp_path):
    # numpy's hash-based unique imports numpy.ma, ~15 ms of a short command
    edges, data = tmp_path / "edges.csv", tmp_path / "units.csv"
    write_audit_dataset(300, 2, edges, data)
    script = (
        "import sys\n"
        "from spillnet.cli import main\n"
        f"assert main(['audit', '--edges', {str(edges)!r}, '--data', {str(data)!r}]) == 0\n"
        "assert 'numpy.ma' not in sys.modules, 'numpy.ma was imported'\n"
    )
    src = str(Path(spillnet.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_benchmark_tracer_installs():
    # perfbench/spans.py rebinds spillnet names by hand (estimators.ols among them), so a
    # deleted or renamed one breaks its --trace mode
    assert inspect.isfunction(spillnet.estimators.ols)
    # spans.py names a span after the module that defines a function another module calls,
    # so its estimators.stratified_regression, exposure.* and graph.from_edge_list.self_s
    # metrics read 0 if such a call moves elsewhere or its function is renamed
    for module, name, owner in (
        (spillnet.cli, "stratified_regression", "spillnet.estimators"),
        (spillnet.cli, "fit_cells", "spillnet.estimators"),
        (spillnet.cli, "compute_exposure", "spillnet.exposure"),
        (spillnet.cli, "assign_bernoulli", "spillnet.exposure"),
        (spillnet.montecarlo, "compute_exposure", "spillnet.exposure"),
        (spillnet.montecarlo, "assign_bernoulli", "spillnet.exposure"),
        (spillnet.cli, "from_edge_list", "spillnet.graph"),
    ):
        function = getattr(module, name)
        assert inspect.isfunction(function) and function.__module__ == owner, (module, name)
        assert function.__name__ == name, (module, name)
    bench = Path(__file__).resolve().parents[1] / "perfbench"
    src = str(Path(spillnet.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", "import spans; spans.install(spans.Tracer())"],
                          cwd=bench, env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_audit_writes_report_file(tmp_path, capsys):
    edges, data = _write_synthetic_dataset(tmp_path, design_id=3, c=0.0, n=400, seed=9)
    data.write_text(data.read_text().replace("id,treatment,outcome", "pid,z,y", 1))
    report_path = tmp_path / "report.txt"
    assert main([
        "audit", "--edges", str(edges), "--data", str(data), "--id-col", "pid",
        "--treatment-col", "z", "--outcome-col", "y", "--out", str(report_path),
    ]) == 0
    assert "degree summary" in report_path.read_text()
    assert capsys.readouterr().out.endswith(f"wrote {report_path}\n")
    manifest = json.loads((tmp_path / "report.txt.manifest.json").read_text())
    assert manifest["command"] == "audit"
    assert manifest["version"] == spillnet.__version__
    assert manifest["outputs"] == [str(report_path)]
    assert manifest["config"] == {"edges": str(edges), "data": str(data), "id_col": "pid",
                                  "treatment_col": "z", "outcome_col": "y"}


def test_audit_out_writes_an_undecodable_input_path_as_given(tmp_path):
    # the report quotes its input paths; a byte of one that is not UTF-8 is written to the
    # report file as that byte, as stdout prints it, in UTF-8 mode on any machine
    folder = tmp_path / os.fsdecode(b"d\xe9")
    folder.mkdir()
    edges, data = folder / "edges.csv", folder / "units.csv"
    write_audit_dataset(300, 2, edges, data)
    src = str(Path(spillnet.__file__).parents[1])
    env = {**os.environ, "PYTHONUTF8": "1",
           "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    env.pop("PYTHONIOENCODING", None)
    proc = subprocess.run([sys.executable, "-m", "spillnet.cli", "audit", "--edges", str(edges),
                           "--data", str(data), "--out", "r.txt"],
                          cwd=tmp_path, env=env, capture_output=True)
    assert proc.returncode == 0, proc.stderr
    first = (tmp_path / "r.txt").read_bytes().split(b"\n")[0]
    assert first == proc.stdout.split(b"\n")[0]
    assert os.fsencode(folder) in first


def test_audit_manifest_records_stage_seconds_and_rows_read(tmp_path, capsys):
    edges, data = _write_synthetic_dataset(tmp_path, design_id=1, c=0.0, n=400, seed=9)
    with edges.open("a") as fh:
        fh.write("\n0,1\n")  # a blank line and a repeated edge
    argv = ["audit", "--edges", str(edges), "--data", str(data)]
    assert main(argv) == 0
    text = capsys.readouterr().out
    assert main([*argv, "--out", str(tmp_path / "report.txt")]) == 0
    assert capsys.readouterr().out == text + f"wrote {tmp_path / 'report.txt'}\n"
    manifest = json.loads((tmp_path / "report.txt.manifest.json").read_text())
    assert list(manifest["stage_seconds"]) == [
        "read_units", "read_edges", "map_ids", "network", "fit.t_reg", "fit.dbar_reg",
        "fit.dbar_star_reg", "strata",
    ]
    assert all(seconds >= 0 for seconds in manifest["stage_seconds"].values())
    assert sum(manifest["stage_seconds"].values()) <= manifest["duration_seconds"]
    edge_rows = len(edges.read_text().split("\n")) - 3  # the header, the blank and the last line
    assert manifest["rows_read"] == {"data": 400, "edges": edge_rows}


def test_audit_marks_only_degenerate_fits_unavailable(tmp_path, capsys, monkeypatch):
    edges, data = _write_synthetic_dataset(tmp_path, design_id=3, c=0.0, n=400, seed=9)
    fit = spillnet.cli.fit_cells

    def degenerate(name, cells):
        # fit_cells returns a degenerate fit's error, with NaN results
        beta, se, units, errors = fit(name, cells)
        if name == "dbar_reg":
            return beta * np.nan, se * np.nan, units, [TooFewUnitsError("few")]
        return beta, se, units, errors

    def failing(name, cells):
        if name == "dbar_reg":
            raise ParameterError("boom")
        return fit(name, cells)

    monkeypatch.setattr(spillnet.cli, "fit_cells", degenerate)
    assert main(["audit", "--edges", str(edges), "--data", str(data)]) == 0
    out = capsys.readouterr().out
    assert "dbar_reg       unavailable" in out
    assert "t_reg          direct" in out
    # any other ParameterError is a fault, not a small sample: usage exit 2
    monkeypatch.setattr(spillnet.cli, "fit_cells", failing)
    assert main(["audit", "--edges", str(edges), "--data", str(data)]) == 2
    captured = capsys.readouterr()
    assert "spillnet: usage error: boom" in captured.err
    assert "unavailable" not in captured.out


def test_singularity_exit_code(tmp_path, capsys):
    # every rep fails on these near-empty graphs, which surfaces as a
    # numerical-singularity exit
    out = tmp_path / "r.csv"
    code = main([
        "simulate", "--design", "3", "--c", "0", "--n", "10", "--reps", "3",
        "--graph", "er", "--er-mean-degree", "0.0000001", "--out", str(out),
    ])
    assert code == 4


def test_reduced_scale_design3_is_unbiased(tmp_path):
    out = tmp_path / "d3.csv"
    assert main([
        "simulate", "--design", "3", "--c", "0", "--n", "300", "--reps", "1500",
        "--seed", "6", "--out", str(out),
    ]) == 0
    rows = _read_csv(out)
    spillovers = [r for r in rows if r["coef"] == "spillover"]
    assert len(spillovers) == 3
    # enough reps that the 0.02 bound is at least four Monte Carlo SEs
    assert all(float(r["mc_se"]) <= 0.005 for r in spillovers)
    assert all(abs(float(r["bias"])) <= 0.02 for r in spillovers)


def test_io_failure_exit_code(tmp_path, capsys):
    code = main([
        "scatter", "--n", "40", "--seed", "1",
        "--out", str(tmp_path / "no-such-dir" / "s.csv"),
    ])
    assert code == 5
    assert "io error" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["simulate", "scatter", "oracle", "audit"])
def test_every_command_writes_its_output_and_manifest_through_one_path(tmp_path, capsys,
                                                                       command):
    edges, data = _write_synthetic_dataset(tmp_path, design_id=1, c=0.0, n=100, seed=3)
    argv = {
        "simulate": ["simulate", "--design", "1", "--c", "0", "--n", "60", "--reps", "2"],
        "scatter": ["scatter", "--n", "60", "--seed", "2"],
        "oracle": ["oracle", "--design", "1", "--n", "60"],
        "audit": ["audit", "--edges", str(edges), "--data", str(data)],
    }[command]
    out = tmp_path / "result.out"
    assert main([*argv, "--out", str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == f"wrote {out}"
    assert not any(line.startswith("wrote ") for line in lines[:-1])
    manifest = json.loads((tmp_path / "result.out.manifest.json").read_text())
    assert manifest["command"] == command
    assert manifest["outputs"] == [str(out)]

    before = set(tmp_path.iterdir())
    missing = tmp_path / "no-such-dir" / "result.out"
    assert main([*argv, "--out", str(missing)]) == 5
    assert "io error" in capsys.readouterr().err
    assert set(tmp_path.iterdir()) == before  # neither the output nor its manifest


def test_every_flag_of_every_command_is_a_config_key_flag():
    # a flag added outside the key table would be a second way to read an input
    allowed = {key.flag for key in spillnet.cli._KEYS.values()} | {"--out", "--config", "-h",
                                                                   "--help"}
    subparsers = next(action for action in spillnet.cli.build_parser()._actions
                      if isinstance(action, argparse._SubParsersAction))
    assert sorted(subparsers.choices) == ["audit", "oracle", "scatter", "simulate"]
    for command, sub in subparsers.choices.items():
        for action in sub._actions:
            assert set(action.option_strings) <= allowed, (command, action.option_strings)


def test_unknown_subcommand_exits_with_usage_error():
    with pytest.raises(SystemExit) as err:
        main(["frobnicate"])
    assert err.value.code == 2


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as err:
        main(["--version"])
    assert err.value.code == 0
    assert "spillnet" in capsys.readouterr().out


def test_package_and_project_versions_agree():
    # the project takes its version from the package, so the two cannot differ
    pyproject = (Path(__file__).resolve().parent.parent / "pyproject.toml").read_text()
    assert re.search(r'^dynamic = \["version"\]$', pyproject, re.MULTILINE)
    assert re.search(r'^version = \{attr = "spillnet.__version__"\}$', pyproject, re.MULTILINE)
    assert not re.search(r'^version = "', pyproject, re.MULTILINE)
    assert re.fullmatch(r"\d+\.\d+\.\d+", spillnet.__version__)


def test_package_exports_names_not_submodules():
    assert [name for name in spillnet.__all__ if inspect.ismodule(getattr(spillnet, name))] == []
    assert {"run_study", "ols", "read_table", "imputation_bias"} <= set(spillnet.__all__)


def test_public_names_are_exactly_the_pinned_list():
    # a name joins or leaves the public surface only with this list
    assert sorted(spillnet.__all__) == [
        "AggregateReport", "BuiltinDesign", "CellTable", "CoefficientSummary",
        "ConfigurationError", "DegreeSummary", "DesignSpec", "EffectGaps", "EmptySubsampleError",
        "ErdosRenyiGraph", "ExposureDiagnostics", "IngestionError", "Network",
        "OracleReport", "ParameterError", "SimConfig", "SingularModelError",
        "SpillnetError", "TooFewUnitsError",
        "WS_CALIBRATED", "WattsStrogatzGraph", "assign_bernoulli",
        "compute_exposure", "cov_dbar_star_degree_closed_form", "dbar_star_moments",
        "dbar_weights", "derive_seed", "design_stack", "empirical_exposure_diagnostics",
        "enumeration_population_ols", "fit_cells", "from_edge_list",
        "generate_erdos_renyi", "generate_watts_strogatz", "imputation_bias", "load_design_csv",
        "ols", "oracle_report", "read_table", "results_rows", "run_study",
        "stratified_regression", "t_weights",
    ]
