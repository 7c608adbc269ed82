import csv
import json

import numpy as np
import pytest

from copkern.cli import main


def run(args):
    return main(args)


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_measure_pi(tmp_path):
    out = tmp_path / "pi.json"
    assert run(["measure", "--copula", "pi", "--out", str(out)]) == 0
    rep = read_json(out)
    assert rep["zeta1"] == 0.0
    assert abs(rep["r"]) <= 1e-3


def test_measure_paper_values(tmp_path):
    out = tmp_path / "g.json"
    assert run(["measure", "--copula", "gumbel:3", "--m", "512", "--out", str(out)]) == 0
    assert abs(read_json(out)["zeta1"] - 0.6910) <= 5e-3
    assert run(["measure", "--copula", "galambos:3", "--m", "512", "--out", str(out)]) == 0
    assert abs(read_json(out)["zeta1"] - 0.7513) <= 5e-3


def test_measure_unknown_family_exit_2(capsys):
    assert run(["measure", "--copula", "gaussian:0.5"]) == 2
    assert "unknown copula family" in capsys.readouterr().err


def test_measure_bad_parameter_exit_2():
    assert run(["measure", "--copula", "clayton:-1"]) == 2
    assert run(["measure", "--copula", "clayton:abc"]) == 2
    # a parameter count other than the family's is an error, not dropped
    for spec in ("pi:3", "m:1", "w:2", "pickands-pwl:1"):
        assert run(["measure", "--copula", spec]) == 2


def test_sample_roundtrip_and_estimate(tmp_path):
    csv_path = tmp_path / "s.csv"
    assert run(["sample", "--copula", "pi", "--n", "100", "--seed", "5",
                "--out", str(csv_path)]) == 0
    rows = read_csv(csv_path)
    assert len(rows) == 100
    # monotone sample: chatterjee equals 1 - 3/(n+1)
    mono = tmp_path / "mono.csv"
    with open(mono, "w") as fh:
        fh.write("x,y\n")
        for i in range(1, 101):
            fh.write(f"{i * 0.01},{i * 0.01}\n")
    out = tmp_path / "est.json"
    assert run(["estimate", str(mono), "--mode", "chatterjee", "--out", str(out)]) == 0
    assert read_json(out)["r"] == pytest.approx(1.0 - 3.0 / 101.0)


@pytest.mark.parametrize(
    "rows",
    ["1,1\n2,nan\n3,3\n", "1,1\n2,inf\n3,3\n", "1,4\n2,4\n3,4\n"],
    ids=["nan", "inf", "constant-y"],
)
def test_estimate_chatterjee_bad_input_exit_2(tmp_path, capsys, rows):
    s = tmp_path / "bad.csv"
    s.write_text("x,y\n" + rows)
    out = tmp_path / "e.json"
    assert run(["estimate", str(s), "--mode", "chatterjee", "--out", str(out)]) == 2
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


def test_estimate_plugin_modes(tmp_path):
    s = tmp_path / "s.csv"
    assert run(["sample", "--copula", "gumbel:3", "--n", "500", "--seed", "42",
                "--out", str(s)]) == 0
    out = tmp_path / "e.json"
    assert run(["estimate", str(s), "--mode", "plugin-arch", "--m", "128",
                "--out", str(out)]) == 0
    rep = read_json(out)
    assert 0.60 <= rep["zeta1"] <= 0.80
    assert "kendall_table" in rep

    s2 = tmp_path / "s2.csv"
    assert run(["sample", "--copula", "galambos:3", "--n", "500", "--seed", "42",
                "--out", str(s2)]) == 0
    assert run(["estimate", str(s2), "--mode", "plugin-ev", "--m", "128",
                "--out", str(out)]) == 0
    rep = read_json(out)
    assert 0.65 <= rep["zeta1"] <= 0.85
    assert "pickands_table" in rep


@pytest.mark.parametrize("mode", ["plugin-arch", "plugin-ev"])
@pytest.mark.parametrize(
    "rows", ["1,4\n2,4\n3,4\n4,4\n", "5,1\n5,2\n5,3\n5,4\n"],
    ids=["constant-y", "constant-x"],
)
def test_estimate_plugin_constant_column_exit_2(tmp_path, capsys, mode, rows):
    s = tmp_path / "const.csv"
    s.write_text("x,y\n" + rows)
    out = tmp_path / "e.json"
    assert run(["estimate", str(s), "--mode", mode, "--m", "16", "--out", str(out)]) == 2
    assert "constant" in capsys.readouterr().err
    assert not out.exists()


def test_sample_determinism_byte_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for p in (a, b):
        assert run(["sample", "--copula", "clayton:2", "--n", "200", "--seed", "9",
                    "--out", str(p)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_measure_determinism_byte_identical(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for p in (a, b):
        assert run(["measure", "--copula", "marshall-olkin:0.5:0.7", "--m", "128",
                    "--out", str(p)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_simulate_smoke_record_count(tmp_path):
    out = tmp_path / "study.csv"
    assert run(["simulate", "--copula", "gumbel:3", "--sizes", "50,100", "--R", "1",
                "--estimators", "chatterjee,plugin-arch", "--seed", "1", "--m", "64",
                "--out", str(out)]) == 0
    rows = read_csv(out)
    assert len(rows) == 4          # |sizes| * |estimators| * R
    summary = read_json(str(out) + ".summary.json")
    assert set(summary["cells"]) == {
        "chatterjee|n=50", "chatterjee|n=100",
        "plugin-arch|n=50", "plugin-arch|n=100",
    }


def test_simulate_summary_matches_records(tmp_path):
    out = tmp_path / "study.csv"
    assert run(["simulate", "--copula", "clayton:2", "--sizes", "50", "--R", "5",
                "--estimators", "chatterjee", "--seed", "3", "--m", "64",
                "--out", str(out)]) == 0
    rows = read_csv(out)
    vals = np.array([float(r["value"]) for r in rows])
    summary = read_json(str(out) + ".summary.json")
    cell = summary["cells"]["chatterjee|n=50"]
    assert cell["mean"] == pytest.approx(float(np.mean(vals)), abs=1e-12)
    assert cell["median"] == pytest.approx(float(np.median(vals)), abs=1e-12)
    rmse = float(np.sqrt(np.mean((vals - summary["true_r"]) ** 2)))
    assert cell["rmse"] == pytest.approx(rmse, abs=1e-12)


def test_simulate_determinism_modulo_wall_time(tmp_path):
    # wall_time is the only nondeterministic column by design
    outs = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        assert run(["simulate", "--copula", "gumbel:3", "--sizes", "50", "--R", "2",
                    "--estimators", "chatterjee", "--seed", "8", "--m", "64",
                    "--out", str(out)]) == 0
        rows = read_csv(out)
        outs.append([{k: v for k, v in r.items() if k != "wall_time"} for r in rows])
    assert outs[0] == outs[1]


def test_converge_constant_sequence_zero(tmp_path):
    out = tmp_path / "c.csv"
    assert run(["converge", "--copula", "clayton:3", "--ks", "1,2,4", "--m", "64",
                "--offset-scale", "0", "--out", str(out)]) == 0
    for row in read_csv(out):
        for col, val in row.items():
            if col not in ("k", "theta"):
                assert float(val) == 0.0


def test_converge_galambos_decreasing(tmp_path):
    out = tmp_path / "c.csv"
    assert run(["converge", "--copula", "galambos:3", "--ks", "1,4,16", "--m", "64",
                "--out", str(out)]) == 0
    rows = read_csv(out)
    for col in ("d_inf", "a_sup", "da_sup", "d1", "wcc_max"):
        vals = [float(r[col]) for r in rows]
        assert vals[0] > vals[-1]


@pytest.mark.parametrize("spec", ["pi", "clayton", "clayton:2:3"])
def test_converge_bad_spec_exit_2(spec, capsys):
    assert run(["converge", "--copula", spec, "--ks", "1", "--m", "16"]) == 2
    assert "exactly one parameter" in capsys.readouterr().err


@pytest.mark.parametrize("ks", ["0", "-1", "1,0,2"])
def test_converge_rejects_k_below_one(ks, tmp_path, capsys):
    out = tmp_path / "c.csv"
    assert run(["converge", "--copula", "clayton:3", f"--ks={ks}", "--m", "16",
                "--out", str(out)]) == 2
    assert "sequence indices k must be >= 1" in capsys.readouterr().err
    assert not out.exists()


def test_approximate_identity_row(tmp_path):
    out = tmp_path / "a.csv"
    assert run(["approximate", "--copula", "clayton:2", "--resolutions", "8,64",
                "--out", str(out)]) == 0
    rows = read_csv(out)
    assert float(rows[0]["wcc_max"]) > float(rows[1]["wcc_max"])


def test_knots_csv_flow(tmp_path):
    knots = tmp_path / "k.csv"
    knots.write_text("x,a\n0,1\n0.25,0.75\n0.7,0.7\n1,1\n")
    out = tmp_path / "m.json"
    assert run(["measure", "--copula", "pickands-pwl", "--knots", str(knots),
                "--m", "128", "--out", str(out)]) == 0
    assert 0.0 < read_json(out)["zeta1"] < 1.0


def test_knots_csv_bad_header(tmp_path):
    knots = tmp_path / "k.csv"
    knots.write_text("u,v\n0,1\n1,1\n")
    assert run(["measure", "--copula", "pickands-pwl", "--knots", str(knots)]) == 2
