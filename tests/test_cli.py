import csv
import json
import warnings

import numpy as np
import pytest

from copkern.archimedean import kendall_function
from copkern.cli import _PGRID, _TGRID, _emit_csv, _emit_json, _fmt, _read_sample_csv, main
from copkern.core import checkerboard_approx, checkerboard_copula
from copkern.fixtures import strip_copula
from copkern.metrics import QuadratureSpec, d1, d_inf, wcc_profile
from copkern.registry import (
    COPULA_OF_KIND,
    FAMILIES,
    build_component,
    make_copula,
    parse_spec,
    read_knots_csv,
)
from copkern.sampling import RngSpec, sample
from copkern.study import replication_seed


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


def test_measure_writes_sorted_json_to_stdout(capsys):
    assert run(["measure", "--copula", "pi", "--m", "16"]) == 0
    text = capsys.readouterr().out
    rep = json.loads(text)
    assert list(rep) == sorted(rep) and rep["m"] == 16 and rep["zeta1"] == 0.0
    assert text == json.dumps(rep, sort_keys=True, indent=2) + "\n"


def test_emit_json_refuses_nan(tmp_path):
    # the one JSON path: NaN is not JSON, and a half-written file would hide the error
    out = tmp_path / "r.json"
    with pytest.raises(ValueError):
        _emit_json({"r": float("nan")}, str(out))
    assert not out.exists()


def test_runtime_failure_exit_1(monkeypatch, capsys):
    import copkern.cli as cli

    def broken(args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "cmd_measure", broken)
    assert run(["measure", "--copula", "pi"]) == 1
    assert "failure: boom" in capsys.readouterr().err


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


@pytest.mark.parametrize(
    "argv,flag",
    [
        (["sample", "--copula", "gumbel:3", "--n", "10", "--seed", "-1"], "--seed"),
        (["sample", "--copula", "gumbel:3", "--n", "10", "--stream", "-1"], "--stream"),
        (["estimate", "SAMPLE", "--mode", "chatterjee", "--seed", "-1"], "--seed"),
        # plugin-arch never reads the seed, and still refuses a negative one
        (["estimate", "SAMPLE", "--mode", "plugin-arch", "--seed", "-1"], "--seed"),
    ],
    ids=["sample-seed", "sample-stream", "estimate-chatterjee-seed", "estimate-plugin-arch-seed"],
)
def test_negative_rng_seed_exit_2(tmp_path, capsys, argv, flag):
    s = tmp_path / "s.csv"
    s.write_text("x,y\n0.1,0.2\n0.5,0.4\n0.9,0.7\n0.3,0.8\n")
    out = tmp_path / "o.out"
    assert run([str(s) if a == "SAMPLE" else a for a in argv] + ["--out", str(out)]) == 2
    assert f"error: {flag} must be a non-negative integer, got -1" in capsys.readouterr().err
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


def test_estimate_plugin_ev_comonotone_is_exactly_m(tmp_path):
    # the CFG fit of a comonotone sample is A = max(t, 1 - t), whose exact
    # measures are 1; the m = 256 grid read r = 1.0117
    s = tmp_path / "m.csv"
    assert run(["sample", "--copula", "m", "--n", "1000", "--out", str(s)]) == 0
    out = tmp_path / "e.json"
    assert run(["estimate", str(s), "--mode", "plugin-ev", "--out", str(out)]) == 0
    rep = read_json(out)
    assert abs(rep["r"] - 1.0) <= 1e-12 and abs(rep["zeta1"] - 1.0) <= 1e-12


@pytest.mark.parametrize("mode,step", [
    ("plugin-arch", "dominance_counts"),
    ("plugin-ev", "make_piecewise_linear_pickands"),
])
def test_estimate_fits_the_plugin_model_once(tmp_path, monkeypatch, mode, step):
    # the table is the fit that zeta1 and r come from: estimate fitted it twice
    import copkern.estimation as est

    s = tmp_path / "s.csv"
    assert run(["sample", "--copula", "gumbel:3", "--n", "200", "--out", str(s)]) == 0
    calls = []
    fit_step = getattr(est, step)

    def counted(*args, **kwargs):
        calls.append(step)
        return fit_step(*args, **kwargs)

    monkeypatch.setattr(est, step, counted)
    assert run(["estimate", str(s), "--mode", mode, "--m", "16",
                "--out", str(tmp_path / "e.json")]) == 0
    assert calls == [step]


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


@pytest.mark.parametrize("n", [2, 4])
def test_estimate_plugin_arch_comonotone_is_a_copula(tmp_path, n):
    s = tmp_path / "comonotone.csv"
    s.write_text("x,y\n" + "".join(f"{i},{i}\n" for i in range(1, n + 1)))
    out = tmp_path / "e.json"
    m = 64
    assert run(["estimate", str(s), "--mode", "plugin-arch", "--m", str(m),
                "--out", str(out)]) == 0
    rep = read_json(out)
    assert 0.0 <= rep["zeta1"] <= 1.0
    assert -3.0 / m <= rep["r"] <= 1.0 + 3.0 / m


def test_sample_cells_are_the_drawn_floats(tmp_path):
    out = tmp_path / "s.csv"
    assert run(["sample", "--copula", "galambos:3", "--n", "50", "--seed", "4",
                "--stream", "2", "--out", str(out)]) == 0
    s = sample(make_copula("galambos:3"), 50, RngSpec(seed=4, stream=2))
    assert out.read_text().splitlines() == ["x,y", *(f"{_fmt(x)},{_fmt(y)}"
                                                      for x, y in zip(s.x, s.y))]


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


def test_simulate_integer_columns_are_written_exactly(tmp_path):
    # seeds are 64-bit integers, which %.17g would round
    out = tmp_path / "study.csv"
    assert run(["simulate", "--copula", "gumbel:3", "--sizes", "10,20", "--R", "2",
                "--estimators", "chatterjee", "--seed", "6", "--m", "16",
                "--out", str(out)]) == 0
    rows = read_csv(out)
    assert [(r["n"], r["replication"]) for r in rows] == [
        ("10", "0"), ("10", "1"), ("20", "0"), ("20", "1")]
    for r in rows:
        seed = replication_seed(6, "chatterjee", int(r["n"]), int(r["replication"]))
        assert r["seed"] == str(seed)
        assert r["value"] == _fmt(float(r["value"]))


def test_simulate_non_finite_true_r_exit_2(tmp_path, capsys):
    # galambos:100's kernel grid is NaN: its summary read "true_r": NaN with exit 0
    out = tmp_path / "sim.csv"
    with np.errstate(all="ignore"):
        assert run(["simulate", "--copula", "galambos:100", "--sizes", "10", "--R", "1",
                    "--estimators", "chatterjee", "--out", str(out)]) == 2
    assert ("the kernel of 'ev[galambos:100]' does not disintegrate it at m = 512: "
            "column defect nan" in capsys.readouterr().err)
    assert not out.exists()
    assert not (tmp_path / "sim.csv.summary.json").exists()


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


def test_converge_non_finite_column_exit_2(tmp_path, capsys):
    # clayton:200's D+phi overflows on the table grid, so dphi_sup is not finite
    out = tmp_path / "c.csv"
    with np.errstate(all="ignore"):
        assert run(["converge", "--copula", "clayton:200", "--ks", "1,2", "--m", "16",
                    "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "the converge rows of 'clayton:200' are not finite at m = 16" in err
    assert "dphi_sup" in err
    assert not out.exists()


def test_approximate_identity_row(tmp_path):
    out = tmp_path / "a.csv"
    assert run(["approximate", "--copula", "clayton:2", "--resolutions", "8,64",
                "--out", str(out)]) == 0
    rows = read_csv(out)
    assert float(rows[0]["wcc_max"]) > float(rows[1]["wcc_max"])


def test_approximate_strip_rows(tmp_path):
    # the strip fixture's checkerboards stay far from Pi in the conditional laws
    out = tmp_path / "s.csv"
    assert run(["approximate", "--copula", "strip:5", "--resolutions", "8,16",
                "--out", str(out)]) == 0
    rows = read_csv(out)
    assert [r["resolution"] for r in rows] == ["8", "16"]
    assert all(float(r["wcc_max"]) >= 0.25 for r in rows)


@pytest.mark.parametrize("spec", ["clayton:2", "strip:5"])
def test_approximate_columns_are_the_public_metrics(tmp_path, spec):
    out = tmp_path / "a.csv"
    assert run(["approximate", "--copula", spec, "--resolutions", "8,16",
                "--out", str(out)]) == 0
    if spec == "strip:5":
        target, reference = strip_copula(5), make_copula("pi")
    else:
        target = reference = make_copula(spec)
    rows = read_csv(out)
    assert [r["resolution"] for r in rows] == ["8", "16"]
    for row in rows:
        board = checkerboard_copula(checkerboard_approx(target, int(row["resolution"])))
        summary = wcc_profile(board, reference).summary
        for col in ("max", "mean", "q95"):
            assert row[f"wcc_{col}"] == _fmt(summary[col]), col


def test_knots_csv_flow(tmp_path):
    knots = tmp_path / "k.csv"
    knots.write_text("x,a\n0,1\n0.25,0.75\n0.7,0.7\n1,1\n")
    out = tmp_path / "m.json"
    assert run(["measure", "--copula", "pickands-pwl", "--knots", str(knots),
                "--m", "128", "--out", str(out)]) == 0
    assert 0.0 < read_json(out)["zeta1"] < 1.0


@pytest.mark.parametrize("cmd", [
    ["measure", "--copula", "clayton:2"],
    ["sample", "--n", "5", "--copula", "clayton:2"],
    ["converge", "--ks", "1", "--copula", "clayton:2"],
    ["approximate", "--resolutions", "8", "--copula", "strip:5"],
])
def test_knots_rejected_for_families_without_knots(tmp_path, capsys, cmd):
    knots = tmp_path / "k.csv"
    knots.write_text("x,a\n0,1\n0.5,0.75\n1,1\n")
    out = tmp_path / "o.txt"
    assert run([*cmd, "--knots", str(knots), "--out", str(out)]) == 2
    family = cmd[-1].split(":")[0]
    assert f"{family} takes no knots table" in capsys.readouterr().err
    assert not out.exists()


def test_knots_csv_bad_header(tmp_path):
    knots = tmp_path / "k.csv"
    knots.write_text("u,v\n0,1\n1,1\n")
    assert run(["measure", "--copula", "pickands-pwl", "--knots", str(knots)]) == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["measure", "--copula", "clayton:nan"],
        ["measure", "--copula", "gumbel:inf"],
        ["measure", "--copula", "galambos:nan"],
        ["converge", "--copula", "clayton:2", "--ks", "1,2", "--offset-scale", "nan"],
    ],
    ids=["clayton-nan", "gumbel-inf", "galambos-nan", "converge-offset-nan"],
)
def test_non_finite_parameter_exit_2(tmp_path, capsys, argv):
    out = tmp_path / "o.txt"
    assert run([*argv, "--m", "16", "--out", str(out)]) == 2
    assert "must be finite" in capsys.readouterr().err
    assert not out.exists()


_KNOTS = ["measure", "--copula", "pickands-pwl", "--knots"]


@pytest.mark.parametrize(
    "cmd,text,msg",
    [
        (["estimate", "--mode", "chatterjee"], "x,y\n0.1,0.2\n0.3\n", "line 3"),
        (_KNOTS, "x,a\n0,1\n0.5\n1,1\n", "line 3"),
        (_KNOTS, "x,a\n", "must cover"),
        (_KNOTS, "x,a\n0,1\n0.5,nan\n1,1\n", "must be finite"),
        (_KNOTS, "x,a\n0,1\nnan,0.8\n1,1\n", "must be finite"),
        # a blank line still counts as a physical line
        (["estimate", "--mode", "chatterjee"], "x,y\n0.1,0.2\n\n0.3\n", "line 4"),
        (_KNOTS, "x,a\n0,1\n\n0.5\n1,1\n", "line 4"),
        (["estimate", "--mode", "chatterjee"], "x,y\n0.1,0.2\n0.3,0.4,0.5\n", "line 3"),
        (_KNOTS, "x,a\n0,1\n0.5,0.75,0.1\n1,1\n", "line 3"),
        (["estimate", "--mode", "chatterjee"], "x,y\n", "need at least two observations"),
        (_KNOTS, "x,a\n\n\n", "must cover"),
        (["estimate", "--mode", "chatterjee"], "x,y\n0.1,nan\n0.3,0.4\n",
         "observations must be finite"),
        (["estimate", "--mode", "chatterjee"], "x,y\n0.1,0.2\n-inf,0.4\n",
         "observations must be finite"),
        (_KNOTS, "x,a\n0,1\n0.5,inf\n1,1\n", "must be finite"),
    ],
    ids=["sample-missing-field", "knots-missing-field", "knots-header-only", "knots-nan-a",
         "knots-nan-x", "sample-blank-line", "knots-blank-line", "sample-extra-field",
         "knots-extra-field", "sample-header-only", "knots-header-and-blank-lines",
         "sample-nan", "sample-inf", "knots-inf"],
)
def test_malformed_csv_exit_2(tmp_path, capsys, cmd, text, msg):
    f = tmp_path / "in.csv"
    f.write_text(text)
    assert run([*cmd, str(f), "--m", "16", "--out", str(tmp_path / "o.json")]) == 2
    assert msg in capsys.readouterr().err


def test_crlf_csv_reads_as_its_lf_twin(tmp_path):
    sample_text = "x,y\n0.1,0.2\n\n0.30000000000000004,5e-324\n0.9,1\n"
    knots_text = "x,a\n0,1\n0.25,0.75\n\n0.7,0.7\n1,1\n"
    for name, text in (("lf", sample_text), ("crlf", sample_text.replace("\n", "\r\n"))):
        (tmp_path / f"s-{name}.csv").write_bytes(text.encode())
    for name, text in (("lf", knots_text), ("crlf", knots_text.replace("\n", "\r\n"))):
        (tmp_path / f"k-{name}.csv").write_bytes(text.encode())
    lf, crlf = (_read_sample_csv(str(tmp_path / f"s-{name}.csv")) for name in ("lf", "crlf"))
    assert lf.x.tolist() == crlf.x.tolist() == [0.1, 0.30000000000000004, 0.9]
    assert lf.y.tolist() == crlf.y.tolist() == [0.2, 5e-324, 1.0]
    lf, crlf = (read_knots_csv(str(tmp_path / f"k-{name}.csv")) for name in ("lf", "crlf"))
    assert lf.shape == crlf.shape == (4, 2)
    assert lf.tobytes() == crlf.tobytes()
    assert lf.tolist() == [[0.0, 1.0], [0.25, 0.75], [0.7, 0.7], [1.0, 1.0]]


def _sample_columns(path):
    s = _read_sample_csv(path)
    return np.stack([s.x, s.y])


@pytest.mark.parametrize("cmd,read,text,bad", [
    (["estimate", "--mode", "chatterjee"], _sample_columns,
     "x,y\n0.1,0.2\n0.30000000000000004,5e-324\n", "x,y\n0.1,0.2\n\n0.3\n"),
    (_KNOTS, read_knots_csv, "x,a\n0,1\n0.25,0.75\n1,1\n", "x,a\n0,1\n\n0.5\n1,1\n"),
], ids=["sample", "knots"])
def test_bom_csv_reads_as_its_plain_twin(tmp_path, capsys, cmd, read, text, bad):
    # Excel's "CSV UTF-8" starts with a byte order mark, which failed the header check
    plain, bom = tmp_path / "plain.csv", tmp_path / "bom.csv"
    plain.write_bytes(text.encode())
    bom.write_bytes(b"\xef\xbb\xbf" + text.encode())
    assert read(str(bom)).tobytes() == read(str(plain)).tobytes()
    bom.write_bytes(b"\xef\xbb\xbf" + bad.encode())
    assert run([*cmd, str(bom), "--m", "16", "--out", str(tmp_path / "o.json")]) == 2
    assert "CSV line 4: expected 2 numbers" in capsys.readouterr().err


def _per_cell_csv(header, rows):
    return "".join(",".join(_fmt(c) if isinstance(c, float) else str(c) for c in row) + "\n"
                   for row in [header, *rows])


def test_emit_csv_matches_per_cell_formatting(tmp_path):
    edge = [0.0, 1.0, 5e-324, 1.0 - 2.0 ** -53]
    columns = [
        ["plugin-ev", "chatterjee", "plugin-arch", "gumbel:3"],       # labels
        [2**64 - 1, 2**53 + 1, 0, -(2**63)],                            # ints above 2^53
        [np.int64(7), np.int64(2**62 + 1), np.int64(-1), np.int64(0)],
        [np.float64(0.1), np.float64(-2.5e-300), np.float64(1e308), np.float64(np.nan)],
        [0.1, float("inf"), -0.0, 1e-5],
        edge,
        np.array(edge),                                                  # a float array
        np.array([3, 2**62, -4, 5]),                                     # an int array
        [1.5, 2, "c", np.float64(0.25)],                                 # a mixed column
    ]
    header = [f"c{j}" for j in range(len(columns))]
    out = tmp_path / "t.csv"
    _emit_csv(header, columns, str(out))
    assert out.read_bytes() == _per_cell_csv(header, zip(*columns)).encode()
    # a zero-row table is its header line only
    _emit_csv(header, [[] for _ in columns], str(out))
    assert out.read_bytes() == b"c0,c1,c2,c3,c4,c5,c6,c7,c8\n"
    _emit_csv(["x", "y"], (np.array([]), np.array([])), str(out))
    assert out.read_bytes() == b"x,y\n"


@pytest.mark.parametrize("spec", ["gumbel:3", "galambos:3"])
def test_sample_csv_round_trip_is_bit_exact(tmp_path, spec):
    out = tmp_path / "s.csv"
    assert run(["sample", "--copula", spec, "--n", "10000", "--seed", "11",
                "--out", str(out)]) == 0
    read = _read_sample_csv(str(out))
    drawn = sample(make_copula(spec), 10000, RngSpec(seed=11))
    assert read.x.tobytes() == drawn.x.tobytes()
    assert read.y.tobytes() == drawn.y.tobytes()


def test_simulate_empty_sizes_exit_2(tmp_path, capsys):
    out = tmp_path / "sim.csv"
    assert run(["simulate", "--copula", "gumbel:3", "--sizes", "", "--R", "1",
                "--out", str(out)]) == 2
    assert "sample size list must be non-empty" in capsys.readouterr().err
    assert not out.exists()


def test_simulate_small_m_exit_2(tmp_path, capsys):
    # rejected up front, also when no listed estimator reads m
    out = tmp_path / "sim.csv"
    assert run(["simulate", "--copula", "gumbel:3", "--sizes", "10", "--R", "1", "--m", "4",
                "--estimators", "chatterjee", "--out", str(out)]) == 2
    assert "quadrature resolution must be >= 8" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "flags,msg",
    [
        (["--sizes", "50,50"], "sample sizes must be distinct"),
        (["--sizes", "50", "--estimators", "chatterjee,chatterjee"],
         "estimators must be distinct"),
    ],
    ids=["sizes", "estimators"],
)
def test_simulate_duplicates_exit_2(tmp_path, capsys, flags, msg):
    out = tmp_path / "sim.csv"
    assert run(["simulate", "--copula", "gumbel:3", "--R", "1", *flags, "--out", str(out)]) == 2
    assert msg in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv,msg",
    [
        (["converge", "--copula", "clayton:3", "--ks", ",", "--m", "16"],
         "sequence index list must be non-empty"),
        (["approximate", "--copula", "clayton:2", "--resolutions", ","],
         "resolution list must be non-empty"),
        (["approximate", "--copula", "strip:5:9"], "strip:N"),
        (["approximate", "--copula", "strip:x"], "strip:N"),
        (["approximate", "--copula", "strip:2.5"], "strip:N"),
        (["converge", "--copula", "clayton:3", "--ks", "a", "--m", "16"],
         "sequence index list must be comma-separated integers, got 'a'"),
        (["approximate", "--copula", "clayton:2", "--resolutions", "1.5"],
         "resolution list must be comma-separated integers, got '1.5'"),
        (["simulate", "--copula", "gumbel:3", "--R", "1", "--sizes", "x"],
         "sample size list must be comma-separated integers, got 'x'"),
    ],
    ids=["converge-empty-ks", "approximate-empty-resolutions", "strip-extra-field",
         "strip-not-a-number", "strip-not-an-integer", "converge-ks-not-integers",
         "approximate-resolutions-not-integers", "simulate-sizes-not-integers"],
)
def test_converge_approximate_bad_lists_exit_2(tmp_path, capsys, argv, msg):
    out = tmp_path / "o.csv"
    assert run([*argv, "--out", str(out)]) == 2
    assert msg in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("jobs", ["0", "-2"])
def test_simulate_jobs_below_one_exit_2(tmp_path, capsys, jobs):
    out = tmp_path / "sim.csv"
    assert run(["simulate", "--copula", "gumbel:3", "--sizes", "50", "--R", "1",
                "--jobs", jobs, "--out", str(out)]) == 2
    assert f"worker count must be >= 1, got {jobs}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("spec", ["galambos:100", "galambos:300"])
def test_measure_non_finite_exit_2(tmp_path, capsys, spec):
    # the kernel overflows to NaN for these parameters, which the kernel check rejects
    out = tmp_path / "m.json"
    with np.errstate(all="ignore"):
        assert run(["measure", "--copula", spec, "--m", "512", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert (f"the kernel of 'ev[{spec}]' does not disintegrate it at m = 512: "
            "column defect nan" in err)
    assert not out.exists()


@pytest.mark.parametrize("spec,m", [("frank:1000", 64), ("frank:1000", 512),
                                    ("gumbel:200", 512), ("clayton:200", 512)])
def test_measure_kernel_check_exit_2(tmp_path, capsys, spec, m):
    # overflow damages these kernels; frank:1000 reported zeta1 = 1.096 at m = 64
    out = tmp_path / "m.json"
    with np.errstate(all="ignore"):
        assert run(["measure", "--copula", spec, "--m", str(m), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"does not disintegrate it at m = {m}: column defect" in err
    assert f"[{spec}]" in err
    assert not out.exists()


def test_simulate_kernel_check_exit_2(tmp_path, capsys):
    out = tmp_path / "sim.csv"
    with np.errstate(all="ignore"):
        assert run(["simulate", "--copula", "gumbel:200", "--sizes", "50", "--R", "1",
                    "--out", str(out)]) == 2
    assert "does not disintegrate it at m = 512" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("spec,msg", [
    # galambos:100's kernel grid is NaN: d1 read nan and wcc_max 1
    ("galambos:100", "the kernel of 'ev[galambos:100]' does not disintegrate it at "
                     "m = 512: column defect nan"),
    # gumbel:200 read phi_sup 4.5e127 from an overflow-damaged kernel
    ("gumbel:200", "the kernel of 'archimedean[gumbel:200]' does not disintegrate it at "
                   "m = 512: column defect"),
])
def test_converge_damaged_rows_exit_2(tmp_path, capsys, spec, msg):
    out = tmp_path / "c.csv"
    assert run(["converge", "--copula", spec, "--ks", "1,2", "--out", str(out)]) == 2
    assert msg in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("cmd", ["sample", "measure"])
def test_frank_normalizer_underflow_exit_2(tmp_path, capsys, cmd):
    # from theta ~ 1490 the Frank normalizer underflows to 0 and phi is inf/NaN
    out = tmp_path / "out"
    argv = [cmd, "--copula", "frank:1500", "--out", str(out)]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert run(argv + (["--n", "3"] if cmd == "sample" else [])) == 2
    assert "Frank parameter 1500 is beyond floating point" in capsys.readouterr().err
    assert not out.exists()


def test_clayton_normalizer_rounding_to_0_exit_2(tmp_path, capsys):
    # clayton:1e-16 exited 0 and wrote y = 1 in every row
    out = tmp_path / "s.csv"
    assert run(["sample", "--copula", "clayton:1e-16", "--n", "4", "--out", str(out)]) == 2
    assert "Clayton parameter 1e-16 is beyond floating point" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("spec", ["clayton:3", "galambos:3"])
def test_converge_columns_are_the_public_metrics(tmp_path, spec):
    out = tmp_path / "c.csv"
    assert run(["converge", "--copula", spec, "--ks", "1,2", "--m", "64",
                "--out", str(out)]) == 0
    name, (theta,) = parse_spec(spec)
    kind = FAMILIES[name].kind
    q = QuadratureSpec(m=64)

    def tables(part):
        if kind == "archimedean":
            return {"kendall_sup": kendall_function(part).eval(_TGRID),
                    "phi_sup": part.phi(_PGRID), "dphi_sup": part.dplus_phi(_TGRID)}
        return {"a_sup": part.a(_TGRID), "da_sup": part.dplus_a(_TGRID)}

    part_lim = build_component(name, [theta])
    limit = COPULA_OF_KIND[kind](part_lim)
    rows = read_csv(out)
    assert [r["k"] for r in rows] == ["1", "2"]
    for row in rows:
        part = build_component(name, [theta + 1.0 / int(row["k"])])
        ck = COPULA_OF_KIND[kind](part)
        expected = {
            "d_inf": d_inf(ck, limit, q),
            "d1": d1(ck, limit, q),
            "wcc_max": wcc_profile(ck, limit).summary["max"],
        }
        lim_tables = tables(part_lim)
        for col, table in tables(part).items():
            expected[col] = np.max(np.abs(table - lim_tables[col]))
        assert set(row) == {"k", "theta", *expected}
        for col, value in expected.items():
            assert row[col] == _fmt(value), col
