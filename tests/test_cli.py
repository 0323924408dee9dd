import json
import os
import platform
import sys
from fnmatch import fnmatch
from pathlib import Path

import numpy as np
import pytest
import scipy

from sqfn.cli import (_CHECKS, _build_operator, _require_check, _time_grid, config_hash,
                      main, parse_config)
from sqfn.errors import UsageError
from sqfn.squarefuncs import KINDS


def test_defaults_without_file():
    cfg = parse_config(None)
    assert cfg["operator.name"] == "laplacian"
    assert cfg["family.seed"] == "7"


def test_parse_config_file(tmp_path):
    path = tmp_path / "cfg"
    path.write_text(
        "# comment\n"
        "[operator]\n"
        "n = 128  # inline comment\n"
        "[family]\n"
        "seed = 3\n"
    )
    cfg = parse_config(str(path))
    assert cfg["operator.n"] == "128"
    assert cfg["family.seed"] == "3"


def test_parse_config_errors_carry_line_numbers(tmp_path):
    path = tmp_path / "bad"
    path.write_text("[operator]\nnot a pair\n")
    with pytest.raises(UsageError, match="bad:2"):
        parse_config(str(path))
    path.write_text("key = outside\n")
    with pytest.raises(UsageError, match="outside any"):
        parse_config(str(path))
    path.write_text("[operator]\nbogus = 1\n")
    with pytest.raises(UsageError, match="operator.bogus"):
        parse_config(str(path))
    with pytest.raises(UsageError, match="cannot read"):
        parse_config(str(tmp_path / "missing"))
    with pytest.raises(UsageError, match="unknown config key"):
        parse_config(None, {"nope.nope": "1"})


def test_parse_config_rejects_mistyped_numbers(tmp_path, capsys):
    """A numeric key that does not parse is a usage error naming the key
    (and the line, for a file); stored values stay the strings given."""
    with pytest.raises(UsageError, match="operator.n must be an int, got 'abc'"):
        parse_config(None, {"operator.n": "abc"})
    with pytest.raises(UsageError, match="operator.r must be a float or auto"):
        parse_config(None, {"operator.r": "wide"})
    with pytest.raises(UsageError, match="params.p_list must be a comma-separated float list"):
        parse_config(None, {"params.p_list": "1.5,two"})
    with pytest.raises(UsageError, match="params.mu must be a float"):
        parse_config(None, {"params.mu": "auto"})
    path = tmp_path / "cfg"
    path.write_text("[family]\nseed = 3\ncount = 2.5\n")
    with pytest.raises(UsageError, match="cfg:3: family.count must be an int"):
        parse_config(str(path))
    cfg = parse_config(None, {"operator.r": "auto", "times.t_min": "0.01",
                              "params.ap_p_list": "1, 2,3"})
    assert (cfg["operator.r"], cfg["times.t_min"], cfg["params.ap_p_list"]) == (
        "auto", "0.01", "1, 2,3")
    assert main(["run", "--check", "plancherel", "--set", "operator.n=abc"]) == 2
    assert "operator.n must be an int" in capsys.readouterr().err


def test_unknown_operator_name_is_usage_error(capsys, monkeypatch):
    """operator.name is checked when the config is parsed, before a check runs."""
    with pytest.raises(UsageError, match="operator.name must be laplacian or hermite, got 'nope'"):
        parse_config(None, {"operator.name": "nope"})
    monkeypatch.setattr("sqfn.cli._build_operator", None)
    assert main(["run", "--check", "plancherel", "--set", "operator.name=nope"]) == 2
    err = capsys.readouterr().err
    for word in ("operator.name", "laplacian", "hermite"):
        assert word in err


class _RecordingConfig(dict):
    """A config that records every key read from it."""

    def __init__(self, cfg):
        super().__init__(cfg)
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)


def test_describe_lists_every_key_a_check_reads():
    for tag, meta in _CHECKS.items():
        cfg = _RecordingConfig(parse_config(None, {"operator.n": "128", "family.count": "8"}))
        meta["runner"](cfg, _build_operator(cfg))
        patterns = [part.strip() for part in meta["keys"].split(",")]
        assert cfg.read, tag
        for key in cfg.read:
            assert any(fnmatch(key, pattern) for pattern in patterns), (tag, key)


def test_config_hash_stable_and_sensitive():
    a = parse_config(None)
    b = parse_config(None, {"operator.n": "128"})
    assert config_hash(a) == config_hash(parse_config(None))
    assert config_hash(a) != config_hash(b)
    assert len(config_hash(a)) == 12


def test_list_checks_and_describe(capsys):
    assert main(["list-checks"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert sorted(out) == sorted(_CHECKS)
    assert main(["describe", "spectral_identity"]) == 0
    text = capsys.readouterr().out
    assert "formula:" in text and "tolerance:" in text
    assert main(["describe", "nope"]) == 2
    assert "usage error: unknown check 'nope'" in capsys.readouterr().err


def test_run_writes_reports(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("SQFN_OUT", str(tmp_path / "out"))
    code = main([
        "run", "--check", "finite_propagation",
        "--set", "operator.n=128",
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "PASS finite_propagation" in out
    lines = (tmp_path / "out" / "report.jsonl").read_text().splitlines()
    header = json.loads(lines[0])
    assert "config_hash" in header and "timestamp" in header
    rec = json.loads(lines[1])
    assert rec["tag"] == "finite_propagation"
    assert rec["passed"] is True
    assert rec["config_hash"] == header["config_hash"]
    csv_lines = (tmp_path / "out" / "summary.csv").read_text().splitlines()
    assert csv_lines[0].startswith("tag,value,bound,passed")
    assert csv_lines[1].startswith("finite_propagation,")


def test_run_jsonl_body_is_config_stable(tmp_path, monkeypatch):
    """Identical configurations produce identical records; only the
    measured runtime_s may differ."""
    bodies = []
    for sub in ("a", "b"):
        monkeypatch.setenv("SQFN_OUT", str(tmp_path / sub))
        assert main(["run", "--check", "finite_propagation",
                     "--set", "operator.n=128"]) == 0
        lines = (tmp_path / sub / "report.jsonl").read_text().splitlines()
        records = [json.loads(line) for line in lines[1:]]
        for rec in records:
            assert rec.pop("runtime_s") > 0
        bodies.append(records)
    assert bodies[0] == bodies[1]


@pytest.mark.parametrize("name, n, r, truncation", [("laplacian", 128, 1.0, None),
                                                     ("hermite", 256, 22.5, 32)])
def test_report_header_describes_the_run(tmp_path, monkeypatch, name, n, r, truncation):
    """The header line carries the operator.* values the run used, auto R
    resolved, and the Python, numpy and scipy versions.  The torus has no
    truncation, so its header records null there."""
    monkeypatch.setenv("SQFN_OUT", str(tmp_path / "out"))
    assert main(["run", "--check", "finite_propagation", "--set", f"operator.name={name}",
                 "--set", f"operator.n={n}", "--set", "operator.truncation=32"]) in (0, 1)
    header = json.loads((tmp_path / "out" / "report.jsonl").read_text().splitlines()[0])
    assert set(header) == {"config_hash", "timestamp", "operator", "python", "numpy", "scipy"}
    assert header["operator"] == {"name": name, "dim": 1, "n": n, "r": r,
                                  "truncation": truncation}
    assert header["python"] == platform.python_version()
    assert header["numpy"] == np.__version__
    assert header["scipy"] == scipy.__version__


def test_ratio_records_carry_witness_and_skipped(tmp_path, monkeypatch):
    """Every weighted_l2_mw record names the ratio where its sup sits, as
    an index into the (weight, member) order, and its skipped count."""
    monkeypatch.setenv("SQFN_OUT", str(tmp_path / "out"))
    assert main(["run", "--check", "weighted_l2_mw", "--set", "operator.n=64",
                 "--set", "family.count=4", "--set", "params.kinds=s_h,g_star",
                 "--set", "times.per_octave=4"]) == 0
    lines = (tmp_path / "out" / "report.jsonl").read_text().splitlines()
    records = [json.loads(line) for line in lines[1:]]
    assert [r["tag"] for r in records] == ["weighted_l2_mw_s_h", "weighted_l2_mw_g_star"]
    for rec in records:
        assert 0 <= rec["witness"] < 4 * 5  # family x weight suite
        assert rec["skipped"] == 0
        assert rec["excluded_fraction"] == 0.0


def test_runtime_s_is_the_check_time_of_each_record(tmp_path, monkeypatch):
    """Every record of a check carries the check's whole elapsed time,
    in report.jsonl and in summary.csv alike."""
    monkeypatch.setenv("SQFN_OUT", str(tmp_path / "out"))
    assert main(["run", "--check", "finite_propagation", "--check", "plancherel",
                 "--set", "operator.n=128", "--set", "family.count=4"]) == 0
    lines = (tmp_path / "out" / "report.jsonl").read_text().splitlines()
    runtime = {}
    for line in lines[1:]:
        rec = json.loads(line)
        runtime[rec["tag"]] = rec["runtime_s"]
    assert set(runtime) == {"finite_propagation", "plancherel_s_h", "plancherel_g_h"}
    assert runtime["plancherel_s_h"] == runtime["plancherel_g_h"] > 0
    rows = (tmp_path / "out" / "summary.csv").read_text().splitlines()[1:]
    csv_runtime = {row.split(",")[0]: float(row.split(",")[-1]) for row in rows}
    for tag, seconds in runtime.items():
        assert csv_runtime[tag] == pytest.approx(seconds, abs=5e-4)


def test_bare_run_is_usage_error(tmp_path, capsys, monkeypatch):
    """No --check and an empty checks.enabled: exit 2, no report."""
    monkeypatch.setenv("SQFN_OUT", str(tmp_path / "out"))
    assert main(["run"]) == 2
    err = capsys.readouterr().err
    assert "--check" in err and "checks.enabled" in err
    assert not (tmp_path / "out" / "report.jsonl").exists()


def test_run_growth_writes_dat(tmp_path, monkeypatch):
    monkeypatch.setenv("SQFN_OUT", str(tmp_path / "out"))
    code = main([
        "run", "--check", "growth_in_p",
        "--set", "operator.n=128", "--set", "family.count=8",
        "--set", "times.per_octave=4",
    ])
    assert code == 0
    dat = (tmp_path / "out" / "growth_in_p.dat").read_text().splitlines()
    assert dat[0].startswith("# growth_in_p config_hash=")
    xs = np.array([float(line.split()[0]) for line in dat[1:]])
    np.testing.assert_allclose(xs, [2, 4, 8, 16, 32])


def test_empty_time_range_names_the_keys(tmp_path, capsys, monkeypatch):
    """At N = 8 the cone grid's auto t_min (the spacing) reaches t_max =
    R^2/4: an error (exit 1) giving both values and the keys that set them."""
    monkeypatch.setenv("SQFN_OUT", str(tmp_path))
    assert main(["run", "--check", "plancherel", "--set", "operator.n=8"]) == 1
    err = capsys.readouterr().err
    assert "t_min = 0.25 and t_max = 0.25" in err
    for key in ("operator.n", "times.t_min", "times.t_max"):
        assert key in err


@pytest.mark.parametrize("r", ["0.7", "1.5"])
def test_auto_time_grids_stay_within_the_budget(tmp_path, capsys, monkeypatch, r):
    """At R = 0.7 and 1.5, R N/8 and R N are not powers of two, so the rounded-up
    node count would carry the auto grids past R^2/4; they end one node earlier."""
    settings = {"operator.n": "64", "operator.r": r, "family.count": "4",
                "params.kinds": "s_h", "times.per_octave": "4"}
    cfg = parse_config(None, settings)
    op = _build_operator(cfg)
    for role in ("cone", "identity"):
        assert _time_grid(cfg, op, role).nodes[-1] <= float(r) ** 2 / 4.0
    monkeypatch.setenv("SQFN_OUT", str(tmp_path))
    args = ["run", "--check", "weighted_l2_mw", "--check", "spectral_identity"]
    for key, value in settings.items():
        args += ["--set", f"{key}={value}"]
    assert main(args) in (0, 1)
    out = capsys.readouterr().out
    for tag in ("weighted_l2_mw_s_h", "spectral_identity"):
        assert f"PASS {tag}:" in out or f"FAIL {tag}:" in out


@pytest.mark.parametrize("per_octave", ["0", "-1"])
def test_per_octave_below_one_names_the_key(tmp_path, capsys, monkeypatch, per_octave):
    """A usage error (exit 2) naming the key, raised when the config is
    parsed, before an operator is built; per_octave = 1 parses."""
    built = _no_build(monkeypatch)
    monkeypatch.setenv("SQFN_OUT", str(tmp_path))
    assert main(["run", "--check", "spectral_identity",
                 "--set", f"times.per_octave={per_octave}"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage error: times.per_octave must be an int >= 1, got '{per_octave}'")
    assert built == []
    parse_config(None, {"times.per_octave": "1"})


@pytest.mark.parametrize("key, value", [
    ("params.lam", "0"), ("params.lam", "1"), ("params.lam", "2"),
    ("params.mu", "1"), ("params.mu", "0.5"), ("params.mu", "inf"),
    ("params.q", "1"), ("params.q", "0"), ("params.q", "inf"),
    ("params.p_list", "1.5,1"), ("params.p_list", ""),
    ("params.ap_p_list", "1,0.5"), ("params.ap_p_list", ""),
    ("params.growth_p_list", "2,4,8"), ("params.growth_p_list", "1,2,4,8"),
    ("params.growth_p_list", "2,4,8,128"),
    ("params.kinds", "s_h,nope"), ("params.kinds", ""),
    ("params.masks", "0"), ("params.masks", "-3"),
])
def test_params_out_of_range_name_their_key(tmp_path, capsys, monkeypatch, key, value):
    """A params.* value outside its range is a usage error (exit 2) naming
    the key, raised when the config is parsed, before an operator is built;
    the values at the ends of each closed range parse."""
    built = _no_build(monkeypatch)
    monkeypatch.setenv("SQFN_OUT", str(tmp_path))
    assert main(["run", "--check", "whitney_cz", "--set", f"{key}={value}"]) == 2
    assert capsys.readouterr().err.startswith(f"usage error: {key} must be ")
    assert built == []
    parse_config(None, {"params.ap_p_list": "1", "params.growth_p_list": "2,2,64,64",
                        "params.masks": "1", "params.kinds": ",".join(KINDS)})


@pytest.mark.parametrize("check, key, value, name", [
    ("rubio_de_francia", "family.seed", "-1", "an int >= 0"),
    ("whitney_cz", "family.seed", "-5", "an int >= 0"),
    ("weighted_l2_mw", "family.count", "0", "an int >= 1"),
    ("rubio_de_francia", "family.count", "-2", "an int >= 1"),
])
def test_family_keys_out_of_range_name_their_key(tmp_path, capsys, monkeypatch,
                                                 check, key, value, name):
    """A negative seed or an empty family is a usage error (exit 2) naming
    the key, raised before an operator is built; seed 0 and count 1 parse."""
    built = _no_build(monkeypatch)
    monkeypatch.setenv("SQFN_OUT", str(tmp_path))
    assert main(["run", "--check", check, "--set", f"{key}={value}"]) == 2
    assert capsys.readouterr().err.startswith(f"usage error: {key} must be {name}, got ")
    assert built == []
    parse_config(None, {"family.seed": "0", "family.count": "1"})


def test_rubio_de_francia_record_names_its_failure(tmp_path, monkeypatch):
    """The record carries the worst A_1 ratio next to its bound 2||M||, the
    worst series tail, ||M|| and whether every majorant dominated |phi|."""
    monkeypatch.setenv("SQFN_OUT", str(tmp_path))
    assert main(["run", "--check", "rubio_de_francia", "--set", "operator.n=64"]) == 0
    rec = json.loads((tmp_path / "report.jsonl").read_text().splitlines()[1])
    assert rec["passed"] and rec["majorizes"] is True
    assert 1.0 <= rec["value"] <= rec["bound"] == 2.0
    assert rec["a1_ratio"] <= rec["a1_bound"] == 2.0 * rec["maximal_norm"]
    assert 0.0 <= rec["tail"] < 1e-8


def test_run_unknown_check_is_usage_error(capsys):
    assert main(["run", "--check", "nope"]) == 2
    assert "unknown check" in capsys.readouterr().err


def test_bad_set_syntax(capsys):
    assert main(["run", "--set", "garbage"]) == 2
    assert "--set expects" in capsys.readouterr().err


def test_kernel_bounds_rejects_hermite(capsys):
    assert main(["run", "--check", "kernel_bounds",
                 "--set", "operator.name=hermite"]) == 2
    err = capsys.readouterr().err
    for word in ("kernel_bounds", "operator.name = hermite", "operator.dim = 1"):
        assert word in err


def test_kernel_bounds_rejects_2d_before_building_kernels(capsys, monkeypatch):
    """In 2-D the check ends in a usage error (exit 2) naming the check,
    the operator and the dim, before any kernel is built."""
    def unreachable(*args, **kwargs):
        raise AssertionError("kernel_bounds built an operator or ran a sweep")

    monkeypatch.setattr("sqfn.cli._build_operator", unreachable)
    monkeypatch.setattr("sqfn.cli.sweep", unreachable)
    assert main(["run", "--check", "kernel_bounds", "--set", "operator.dim=2",
                 "--set", "operator.n=32"]) == 2
    err = capsys.readouterr().err
    for word in ("kernel_bounds", "operator.name = laplacian", "operator.dim = 2"):
        assert word in err


def test_dump_function(tmp_path, capsys):
    out = tmp_path / "f.csv"
    code = main(["dump-function", "--index", "0", "--out", str(out),
                 "--set", "operator.n=128", "--set", "family.count=4"])
    assert code == 0
    assert out.exists() and out.read_text()
    assert main(["dump-function", "--index", "99", "--out", str(out),
                 "--set", "operator.n=128", "--set", "family.count=4"]) == 2


def test_dump_operator(tmp_path):
    out = tmp_path / "k.csv"
    code = main(["dump-operator", "--symbol", "s_h", "--t", "0.1",
                 "--out", str(out), "--set", "operator.n=64"])
    assert code == 0
    data = np.loadtxt(out, delimiter=",")
    assert data.shape == (64, 64)
    np.testing.assert_allclose(data, data.T, atol=1e-12)


# Where each check runs, written out independently of cli._CHECKS.
_EVERY_PAIR = {("laplacian", 1), ("laplacian", 2), ("hermite", 1)}
_DOMAINS = {"kernel_bounds": {("laplacian", 1)},
            "growth_in_ap": {("laplacian", 1), ("hermite", 1)}}
_OUTSIDE = [(tag, name, dim) for tag in sorted(_CHECKS)
            for name in ("laplacian", "hermite") for dim in (1, 2)
            if (name, dim) not in _DOMAINS.get(tag, _EVERY_PAIR)]


def _no_build(monkeypatch):
    """Replace the operator build with one that records each call and fails."""
    built = []

    def build(cfg):
        built.append(cfg)
        raise AssertionError("an operator was built")

    monkeypatch.setattr("sqfn.cli._build_operator", build)
    return built


@pytest.mark.parametrize("tag, name, dim", _OUTSIDE)
def test_run_refuses_a_check_outside_its_domain(tmp_path, capsys, monkeypatch, tag, name, dim):
    """A (check, operator, dim) outside the check's domain is a usage error
    (exit 2) naming all three, raised before an operator is built."""
    built = _no_build(monkeypatch)
    monkeypatch.setenv("SQFN_OUT", str(tmp_path))
    assert main(["run", "--check", tag, "--set", f"operator.name={name}",
                 "--set", f"operator.dim={dim}"]) == 2
    err = capsys.readouterr().err
    for word in (f"check {tag} ", f"operator.name = {name}", f"operator.dim = {dim}"):
        assert word in err
    assert built == []
    assert not (tmp_path / "report.jsonl").exists()


def test_admission_refuses_the_whole_run(tmp_path, capsys, monkeypatch):
    """One check outside its domain refuses the run: no check runs."""
    built = _no_build(monkeypatch)
    monkeypatch.setenv("SQFN_OUT", str(tmp_path))
    assert main(["run", "--check", "finite_propagation", "--check", "growth_in_ap",
                 "--check", "whitney_cz", "--set", "operator.dim=2"]) == 2
    assert "check growth_in_ap " in capsys.readouterr().err
    assert built == []
    assert not (tmp_path / "report.jsonl").exists()


def test_describe_prints_where_a_check_runs(capsys):
    assert main(["describe", "kernel_bounds"]) == 0
    assert "runs on: laplacian 1-D\n" in capsys.readouterr().out
    assert main(["describe", "whitney_cz"]) == 0
    assert "runs on: laplacian 1-D, laplacian 2-D, hermite 1-D\n" in capsys.readouterr().out


def test_every_benchmark_workload_check_is_admitted():
    """Each workload names only checks that run on its operator and dim,
    at full size and at the self-test size."""
    bench = str(Path(__file__).resolve().parent.parent / "benchmarks")
    sys.path.insert(0, bench)
    try:
        import workloads
    finally:
        sys.path.remove(bench)
    for workload in workloads.WORKLOADS.values():
        for tiny in (False, True):
            cfg = parse_config(None, workload.settings_for(tiny))
            pair = (cfg["operator.name"], int(cfg["operator.dim"]))
            for tag in workload.checks:
                _require_check(tag, pair)


@pytest.mark.parametrize("args, words", [
    (["run", "--check", "spectral_identity", "--set", "operator.n=100"],
     ["operator.n = 100", "power of two"]),
    (["dump-operator", "--set", "operator.n=100"], ["operator.n = 100", "power of two"]),
    (["run", "--check", "spectral_identity", "--set", "operator.name=hermite",
      "--set", "operator.truncation=0"],
     ["operator.name = hermite", "operator.truncation = 0", "truncation must be >= 1"]),
], ids=["run-n", "dump-operator-n", "hermite-truncation"])
def test_operator_keys_the_domain_refuses_are_usage_errors(tmp_path, capsys, monkeypatch,
                                                          args, words):
    """A grid or operator the library refuses is a usage error (exit 2)
    naming the operator.* keys and keeping the library's message."""
    monkeypatch.setenv("SQFN_OUT", str(tmp_path))
    monkeypatch.chdir(tmp_path)
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error: ")
    for word in words:
        assert word in err
