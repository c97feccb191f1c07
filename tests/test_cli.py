import csv
import inspect
import json

import numpy as np
import pytest

import spillnet
from spillnet.cli import config_from_dict, main
from spillnet.dgp import BuiltinDesign, expand
from spillnet.exposure import assign_bernoulli
from spillnet.graph import generate_watts_strogatz, write_edge_csv
from spillnet.montecarlo import WattsStrogatzGraph, run
from spillnet.dgp import simulate_outcomes


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


def test_simulate_manifest_round_trips_config(tmp_path):
    out = tmp_path / "t.csv"
    assert main([
        "simulate", "--design", "2", "--c", "-0.5", "--n", "60", "--reps", "3",
        "--seed", "9", "--out", str(out),
    ]) == 0
    manifest = json.loads((tmp_path / "t.csv.manifest.json").read_text())
    assert manifest["command"] == "simulate"
    assert manifest["outputs"] == [str(out)]
    config = config_from_dict(manifest["config"][0])
    assert config.n == 60 and config.reps == 3 and config.base_seed == 9
    assert config.design == BuiltinDesign(2, -0.5)
    # rerunning from the manifest reproduces the CSV numbers exactly
    report = run(config)
    row = next(
        r for r in _read_csv(out) if r["spec"] == "t_reg" and r["coef"] == "spillover"
    )
    assert float(row["mean_estimate"]) == report.cell("t_reg", "spillover").mean_estimate


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


def test_oracle_design3_bias_exactly_zero(tmp_path, capsys):
    hist = tmp_path / "hist.csv"
    hist.write_text("degree,count\n0,2\n1,3\n4,5\n")
    out_csv = tmp_path / "oracle.csv"
    assert main([
        "oracle", "--design", "3", "--c", "-0.5", "--p", "0.5",
        "--histogram", str(hist), "--out", str(out_csv),
    ]) == 0
    values = {r["quantity"]: r["value"] for r in _read_csv(out_csv)}
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


def test_oracle_requires_single_c(capsys):
    assert main(["oracle", "--design", "1", "--c", "0,-0.5"]) == 2


def _write_synthetic_dataset(tmp_path, design_id, c, n=2000, seed=50):
    net = generate_watts_strogatz(n, 8, 0.25, 0.75, seed=seed)
    tr = assign_bernoulli(n, 0.5, seed=seed + 1)
    spec = expand(BuiltinDesign(design_id, c), np.unique(net.degree))
    y = simulate_outcomes(net, tr, spec, seed=seed + 2)
    edges = tmp_path / "edges.csv"
    write_edge_csv(net, edges)
    data = tmp_path / "units.csv"
    with data.open("w") as fh:
        fh.write("id,treatment,outcome\n")
        for i in range(n):
            fh.write(f"{i},{tr.d[i]},{y[i]}\n")
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


def test_audit_rejects_missing_columns(tmp_path):
    edges = tmp_path / "edges.csv"
    edges.write_text("src,dst\n")
    data = tmp_path / "units.csv"
    data.write_text("id,outcome\na,1.0\n")
    assert main(["audit", "--edges", str(edges), "--data", str(data)]) == 3


def test_audit_writes_report_file(tmp_path):
    edges, data = _write_synthetic_dataset(tmp_path, design_id=3, c=0.0, n=400, seed=9)
    report_path = tmp_path / "report.txt"
    assert main([
        "audit", "--edges", str(edges), "--data", str(data),
        "--out", str(report_path),
    ]) == 0
    assert "degree summary" in report_path.read_text()


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
        "simulate", "--design", "3", "--c", "0", "--n", "300", "--reps", "150",
        "--seed", "6", "--out", str(out),
    ]) == 0
    rows = _read_csv(out)
    spillovers = [r for r in rows if r["coef"] == "spillover"]
    assert len(spillovers) == 3
    assert all(abs(float(r["bias"])) <= 0.02 for r in spillovers)


def test_simulate_with_design_file(tmp_path):
    design = tmp_path / "design.csv"
    with design.open("w") as fh:
        fh.write("degree,theta00,mu_de,lambda_se\n")
        for g in range(30):
            fh.write(f"{g},1.0,1.0,{-0.5 / (1 + g)}\n")
    out = tmp_path / "custom.csv"
    assert main([
        "simulate", "--design-file", str(design), "--noise-sd", "0.5",
        "--n", "80", "--reps", "3", "--seed", "2", "--out", str(out),
    ]) == 0
    rows = _read_csv(out)
    assert len(rows) == 6
    assert {r["design"] for r in rows} == {"custom"}
    manifest = json.loads((tmp_path / "custom.csv.manifest.json").read_text())
    config = config_from_dict(manifest["config"][0])
    assert config.design.noise_sd == 0.5
    assert config.design.spillover_effect[1] == pytest.approx(-0.25)


def test_io_failure_exit_code(tmp_path, capsys):
    code = main([
        "scatter", "--n", "40", "--seed", "1",
        "--out", str(tmp_path / "no-such-dir" / "s.csv"),
    ])
    assert code == 5
    assert "io error" in capsys.readouterr().err


def test_unknown_subcommand_exits_with_usage_error():
    with pytest.raises(SystemExit) as err:
        main(["frobnicate"])
    assert err.value.code == 2


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as err:
        main(["--version"])
    assert err.value.code == 0
    assert "spillnet" in capsys.readouterr().out


def test_package_exports_names_not_submodules():
    assert [name for name in spillnet.__all__ if inspect.ismodule(getattr(spillnet, name))] == []
    assert {"run", "ols", "read_table", "imputation_bias"} <= set(spillnet.__all__)
