import argparse
import gc
import json
import os
import platform
import sys
import weakref
from collections import Counter
from fnmatch import fnmatch
from pathlib import Path

import numpy as np
import pytest

from sqfn import cli, constants
from sqfn.cli import _CHECKS, _Plan, _require_check, config_hash, main, parse_config
from sqfn.decomp import cz_decomposition
from sqfn.errors import UsageError
from sqfn.grid import GridFunction
from sqfn.squarefuncs import KINDS, TimeGrid
from sqfn.verify import RatioReport, mixed_family


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


def test_parse_config_refuses_a_repeated_key(tmp_path):
    """A key given twice in a file is a usage error naming the key and both
    lines, not a silent last-value-wins."""
    path = tmp_path / "cfg"
    path.write_text("[operator]\nn = 128\n[family]\nseed = 3\n[operator]\nn = 64\n")
    with pytest.raises(UsageError, match=r"cfg:6: key 'operator.n' repeats line 2"):
        parse_config(str(path))
    path.write_text("[operator]\nn = 128\n[family]\nseed = 3\n[operator]\ndim = 2\n")
    cfg = parse_config(str(path))
    assert (cfg["operator.n"], cfg["operator.dim"]) == ("128", "2")


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
        meta["runner"](_Plan(cfg))
        patterns = [part.strip() for part in meta["keys"].split(",")]
        assert cfg.read, tag
        for key in cfg.read:
            assert any(fnmatch(key, pattern) for pattern in patterns), (tag, key)


def test_every_default_parses_under_its_own_rule():
    """Each _KEYS default passes its key's parse-time check, and plan[key]
    gives the value a run uses, of the type it uses (written out here
    independently of the rules)."""
    for key, (default, _) in cli._KEYS.items():
        assert cli._check_type(key, default, "") == default
    want = {"operator.name": "laplacian", "operator.dim": 1, "operator.n": 256,
            "operator.r": "auto", "operator.truncation": 128, "family.seed": 7,
            "family.count": 20, "times.t_min": "auto", "times.t_max": "auto",
            "times.per_octave": 8, "checks.enabled": "", "params.mu": 3.5,
            "params.kinds": ["s_h", "s_p", "S_H", "S_P", "g_star"],
            "params.p_list": [1.5, 2.0, 4.0], "params.growth_p_list": [2.0, 4.0, 8.0, 16.0, 32.0],
            "params.ap_p_list": [1.0, 2.0, 3.0], "params.lam": 0.25, "params.q": 2.0,
            "params.masks": 50, "output.directory": "sqfn-out"}
    plan = _Plan(parse_config(None))
    got = {key: plan[key] for key in cli._KEYS}
    assert got == want
    for key, value in want.items():
        assert type(got[key]) is type(value), key
        if isinstance(value, list):
            assert all(type(a) is type(b) for a, b in zip(got[key], value)), key


@pytest.mark.parametrize("key, value, entry", [
    ("params.kinds", "s_h,s_h", "s_h"),
    ("params.p_list", "2,2.0", "2.0"),
    ("params.ap_p_list", "2,2", "2"),
    ("params.growth_p_list", "2,4,8,16,4.0", "4.0"),
])
def test_a_repeated_list_entry_is_a_usage_error(tmp_path, capsys, monkeypatch, key, value, entry):
    """A list entry equal to an earlier one (2 and 2.0 are) would give two
    records one tag: a usage error (exit 2) naming the key and the entry,
    raised when the config is parsed, before an operator is built."""
    built = _no_build(monkeypatch)
    assert main(["run", "--check", "whitney_cz", "--set", f"{key}={value}",
                 "--set", f"output.directory={tmp_path}"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage error: {key} must be ")
    assert f"the entry {entry!r} repeats an earlier one" in err
    assert built == []
    assert not (tmp_path / "report.jsonl").exists()


@pytest.mark.parametrize("n, reach", [(8, 1.75), (16, 1.25)])
def test_finite_propagation_refuses_steps_that_measure_nothing(tmp_path, capsys, n, reach):
    """On the 1-D torus at N <= 16 every step's reach t + 4h is at least R,
    the largest distance on the grid, so no point could show a leak: the
    run ends in an error (exit 1) naming the reach, not a PASS at 0."""
    assert main(["run", "--check", "finite_propagation", "--set", f"operator.n={n}",
                 "--set", f"output.directory={tmp_path}"]) == 1
    captured = capsys.readouterr()
    assert captured.err == ("error: no grid point lies beyond the least reach t + radius + "
                            f"halo = {reach:g}; the grid's largest distance is 1\n")
    assert "finite_propagation" not in captured.out


def test_config_hash_stable_and_sensitive():
    a = parse_config(None)
    b = parse_config(None, {"operator.n": "128"})
    assert config_hash(a) == config_hash(parse_config(None))
    assert config_hash(a) != config_hash(b)
    assert len(config_hash(a)) == 12


def test_config_hash_ignores_the_output_directory(tmp_path):
    """output.directory changes no record, so it does not change the digest."""
    a = parse_config(None, {"output.directory": str(tmp_path / "a")})
    b = parse_config(None, {"output.directory": str(tmp_path / "b")})
    assert config_hash(a) == config_hash(b) == config_hash(parse_config(None))


def test_config_hash_ignores_which_checks_run(tmp_path):
    """checks.enabled chooses which records a run writes, not their values:
    weak_lp's records carry one digest whether growth_in_p runs beside it."""
    digests = []
    for sub, checks in (("a", ["weak_lp"]), ("b", ["weak_lp", "growth_in_p"])):
        argv = ["run", "--set", "operator.n=64", "--set", "family.count=8",
                "--set", "times.per_octave=4", "--set", f"output.directory={tmp_path / sub}"]
        for check in checks:
            argv += ["--check", check]
        assert main(argv) in (0, 1)
        lines = (tmp_path / sub / "report.jsonl").read_text().splitlines()
        digests.append({json.loads(line)["config_hash"] for line in lines})
    assert len(digests[0]) == 1 and digests[0] == digests[1]


def test_list_checks_and_describe(capsys):
    assert main(["list-checks"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert sorted(out) == sorted(_CHECKS)
    assert main(["describe", "spectral_identity"]) == 0
    text = capsys.readouterr().out
    assert "formula:" in text and "tolerance:" in text
    assert main(["describe", "nope"]) == 2
    assert "usage error: unknown check 'nope'" in capsys.readouterr().err
    # The checks whose records have bound inf name the acceptance suite's
    # N -> 2N gate in their tolerance text.
    for tag in ("weighted_l2_mw", "weak_lp", "pointwise_domination", "sharp_maximal"):
        assert main(["describe", tag]) == 0
        tolerance = capsys.readouterr().out.split("tolerance: ")[1].splitlines()[0]
        assert f"N -> 2N change < {constants.STABILITY_FACTOR:g}x" in tolerance, tag
        assert "verify.doubling" in tolerance, tag
    # Both pointwise checks are gated on their excluded fraction.
    for tag in ("pointwise_domination", "sharp_maximal"):
        assert main(["describe", tag]) == 0
        bound = f"excluded fraction < {constants.DOMINATION_EXCLUSION_MAX:.0%}"
        assert bound in capsys.readouterr().out.split("tolerance: ")[1], tag


def test_run_writes_reports(tmp_path, capsys):
    code = main([
        "run", "--check", "finite_propagation",
        "--set", "operator.n=128", "--set", f"output.directory={tmp_path / 'out'}",
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


def test_run_jsonl_body_is_config_stable(tmp_path):
    """Identical configurations produce identical records, config_hash
    included, whatever directory they are written to; only the measured
    runtime_s may differ."""
    bodies = []
    for sub in ("a", "b"):
        assert main(["run", "--check", "finite_propagation", "--set", "operator.n=128",
                     "--set", f"output.directory={tmp_path / sub}"]) == 0
        lines = (tmp_path / sub / "report.jsonl").read_text().splitlines()
        records = [json.loads(line) for line in lines[1:]]
        for rec in records:
            assert rec.pop("runtime_s") > 0
        bodies.append(records)
    assert bodies[0] == bodies[1]


@pytest.mark.parametrize("name, n, r, truncation", [("laplacian", 128, 1.0, None),
                                                     ("hermite", 256, 22.5, 32)])
def test_report_header_describes_the_run(tmp_path, name, n, r, truncation):
    """The header line carries the operator.* values the run used, auto R
    resolved, and the Python and numpy versions.  The torus has no
    truncation, so its header records null there."""
    assert main(["run", "--check", "finite_propagation", "--set", f"operator.name={name}",
                 "--set", f"operator.n={n}", "--set", "operator.truncation=32",
                 "--set", f"output.directory={tmp_path / 'out'}"]) in (0, 1)
    header = json.loads((tmp_path / "out" / "report.jsonl").read_text().splitlines()[0])
    assert set(header) == {"config_hash", "timestamp", "operator", "time_grids",
                           "python", "numpy"}
    assert header["operator"] == {"name": name, "dim": 1, "n": n, "r": r,
                                  "truncation": truncation}
    assert header["time_grids"] == {}  # finite_propagation builds no time grid
    assert header["python"] == platform.python_version()
    assert header["numpy"] == np.__version__


@pytest.mark.parametrize("checks, roles", [(["weak_lp"], {"cone"}),
                                           (["spectral_identity"], {"identity"}),
                                           (["plancherel"], {"cone", "identity"})])
def test_report_header_records_each_time_grid(tmp_path, checks, roles):
    """The header gives each time grid the run built, by role: t_min, the
    last node, the node count and per_octave."""
    overrides = {"operator.n": "128", "family.count": "2", "times.per_octave": "4",
                 "output.directory": str(tmp_path / "out")}
    argv = ["run"] + [arg for check in checks for arg in ("--check", check)]
    for key, value in overrides.items():
        argv += ["--set", f"{key}={value}"]
    assert main(argv) in (0, 1)
    header = json.loads((tmp_path / "out" / "report.jsonl").read_text().splitlines()[0])
    plan = _Plan(parse_config(None, overrides))
    assert set(header["time_grids"]) == roles
    for role in roles:
        times = plan.times(role)
        assert header["time_grids"][role] == {
            "t_min": times.t_min, "t_last": float(times.nodes[-1]),
            "count": times.count, "per_octave": 4}


def test_ratio_records_carry_witness_and_skipped(tmp_path):
    """Every weighted_l2_mw record names the ratio where its sup sits, as
    an index into the (weight, member) order, and its skipped count."""
    assert main(["run", "--check", "weighted_l2_mw", "--set", "operator.n=64",
                 "--set", "family.count=4", "--set", "params.kinds=s_h,g_star",
                 "--set", "times.per_octave=4",
                 "--set", f"output.directory={tmp_path / 'out'}"]) == 0
    lines = (tmp_path / "out" / "report.jsonl").read_text().splitlines()
    records = [json.loads(line) for line in lines[1:]]
    assert [r["tag"] for r in records] == ["weighted_l2_mw_s_h", "weighted_l2_mw_g_star"]
    for rec in records:
        assert 0 <= rec["witness"] < 4 * 5  # family x weight suite
        assert rec["skipped"] == 0
        assert rec["excluded_fraction"] == 0.0


def test_a_ratio_record_fails_at_the_exclusion_bound():
    """Every sup-ratio record passes only when its sup is finite and less
    than DOMINATION_EXCLUSION_MAX of its points were excluded."""
    at, below = constants.DOMINATION_EXCLUSION_MAX, 0.0099
    assert not cli._record(RatioReport("demo", (1.0,), 0, at))["passed"]
    assert cli._record(RatioReport("demo", (1.0,), 0, below))["passed"]
    assert cli._record(RatioReport("demo", (1.0, np.inf)))["passed"] is False


def test_an_overflowing_ratio_fails_its_record_and_the_run_goes_on(tmp_path, monkeypatch):
    """A weak (1,1) ratio that overflows to inf writes a FAIL record with
    value inf; the other records of weak_lp and the next check are written."""
    monkeypatch.setattr(cli, "check_weak_1_1",
                        lambda *args: RatioReport("weak_1_1", (1.0, np.inf)))
    assert main(["run", "--check", "weak_lp", "--check", "growth_in_p",
                 "--set", "operator.n=64", "--set", "family.count=8",
                 "--set", "times.per_octave=4",
                 "--set", f"output.directory={tmp_path}"]) == 1
    records = {rec["tag"]: rec for rec in _records(tmp_path)}
    assert records["weak_1_1"]["passed"] is False
    assert records["weak_1_1"]["value"] == np.inf
    assert records["weak_1_1"]["witness"] == 1
    assert {"lp_range_p1.5", "lp_range_p2", "lp_range_p4", "growth_in_p"} <= set(records)


@pytest.mark.parametrize("dim, n", [(1, 128), (2, 32)])
def test_whitney_cz_records_the_worst_good_bound_constant(dim, n):
    """good_bound is the max of |good| / lam over the members the check
    decomposes, bit for bit."""
    plan = _Plan(parse_config(None, {"operator.dim": str(dim), "operator.n": str(n)}))
    (rec,) = _CHECKS["whitney_cz"]["runner"](plan)
    g = plan.op.grid
    good = []
    for f in mixed_family(g, int(plan.cfg["family.seed"]) + 1, count=8,
                          support_fraction=0.5).members:
        real = GridFunction(g, np.abs(f.values))
        lam = 2.0 * float(np.mean(np.abs(real.values))) + 1e-9
        if np.max(np.abs(real.values)) > lam:
            good.append(cz_decomposition(real, lam).good_bound_constant())
    assert good and rec["good_bound"] == max(good)


def test_a_band_record_passes_only_inside_both_ends():
    """_within's value is the max, low the min and bound target (1 + rtol);
    it fails when either end leaves target (1 -+ rtol)."""
    rec = cli._within("demo", [0.98, 1.03, 1.0], 1.0, 0.05)
    assert rec == {"tag": "demo", "value": 1.03, "low": 0.98, "bound": 1.0 * (1 + 0.05),
                   "passed": True}
    assert not cli._within("demo", [0.94, 1.0], 1.0, 0.05)["passed"]
    assert not cli._within("demo", [1.0, 1.06], 1.0, 0.05)["passed"]


def test_runtime_s_is_the_check_time_of_each_record(tmp_path):
    """Every record of a check carries the check's whole elapsed time,
    in report.jsonl and in summary.csv alike."""
    assert main(["run", "--check", "finite_propagation", "--check", "plancherel",
                 "--set", "operator.n=128", "--set", "family.count=4",
                 "--set", f"output.directory={tmp_path / 'out'}"]) == 0
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


def _records(path):
    """The records of path/report.jsonl, without runtime_s and config_hash."""
    lines = (path / "report.jsonl").read_text().splitlines()[1:]
    return [{k: v for k, v in json.loads(line).items() if k not in ("runtime_s", "config_hash")}
            for line in lines]


def _counting_factory(monkeypatch):
    """Rebind cli's square-function factory, as the benchmark tracer does;
    the list it returns gets (kind, weak reference) per build."""
    factory = cli.square_function_operator
    builds = []

    def counted(kind, *args, **kwargs):
        T = factory(kind, *args, **kwargs)
        builds.append((kind, weakref.ref(T)))
        return T

    monkeypatch.setattr(cli, "square_function_operator", counted)
    return builds


def test_a_run_builds_each_square_function_once(tmp_path, monkeypatch):
    """All 12 checks at defaults share one build of each of the six square
    functions they use, g_h on the identity time grid among them (one run
    per check makes 17), with the records of one run per check."""
    builds = _counting_factory(monkeypatch)
    args = ["run", "--set", f"output.directory={tmp_path / 'all'}"]
    assert main(args + [arg for tag in _CHECKS for arg in ("--check", tag)]) in (0, 1)
    assert Counter(kind for kind, _ in builds) == Counter(
        ("s_h", "s_p", "S_H", "S_P", "g_star", "g_h"))
    one_by_one = []
    for tag in _CHECKS:
        main(["run", "--check", tag, "--set", f"output.directory={tmp_path / tag}"])
        one_by_one += _records(tmp_path / tag)
    assert len(builds) == 6 + 17
    assert json.dumps(_records(tmp_path / "all")) == json.dumps(one_by_one)


def test_a_run_applies_each_square_function_once_per_member(tmp_path, monkeypatch):
    """One run naming every check applies each square function it builds at
    most once to any one function."""
    factory = cli.square_function_operator
    applies = Counter()
    seen = []  # every f applied to, kept alive so that ids stay unique

    def counted(kind, *args, **kwargs):
        T = factory(kind, *args, **kwargs)

        def apply(f):
            seen.append(f)
            applies[id(T), id(f)] += 1
            return T(f)

        return apply

    monkeypatch.setattr(cli, "square_function_operator", counted)
    assert main(["run", *(arg for tag in _CHECKS for arg in ("--check", tag)),
                 "--set", "operator.n=128", "--set", "family.count=8",
                 "--set", "times.per_octave=4",
                 "--set", f"output.directory={tmp_path}"]) in (0, 1)
    assert applies and max(applies.values()) == 1


def test_identity_checks_share_one_family_and_its_images(tmp_path, monkeypatch):
    """spectral_identity and plancherel in one run apply the identity-grid
    g_h once to each of the family's members, not once per check."""
    factory = cli.square_function_operator
    applies = Counter()

    def counted(kind, *args, **kwargs):
        T = factory(kind, *args, **kwargs)

        def apply(f):
            applies[kind] += 1
            return T(f)

        return apply

    monkeypatch.setattr(cli, "square_function_operator", counted)
    assert main(["run", "--check", "spectral_identity", "--check", "plancherel",
                 "--set", "operator.n=128", "--set", "family.count=8",
                 "--set", f"output.directory={tmp_path}"]) == 0
    assert applies["g_h"] == 8


def test_a_run_drops_its_square_functions(tmp_path, monkeypatch):
    """The plan's builds are not reachable once run returns."""
    builds = _counting_factory(monkeypatch)
    assert main(["run", "--check", "weighted_l2_mw", "--check", "pointwise_domination",
                 "--check", "sharp_maximal", "--set", "operator.n=64",
                 "--set", "family.count=4", "--set", "times.per_octave=4",
                 "--set", f"output.directory={tmp_path}"]) == 0
    gc.collect()
    assert len(builds) == 5
    assert [kind for kind, ref in builds if ref() is not None] == []


def test_bare_run_is_usage_error(tmp_path, capsys):
    """No --check and an empty checks.enabled: exit 2, no report."""
    assert main(["run", "--set", f"output.directory={tmp_path / 'out'}"]) == 2
    err = capsys.readouterr().err
    assert "--check" in err and "checks.enabled" in err
    assert not (tmp_path / "out" / "report.jsonl").exists()


def test_run_growth_writes_dat(tmp_path):
    code = main([
        "run", "--check", "growth_in_p",
        "--set", "operator.n=128", "--set", "family.count=8",
        "--set", "times.per_octave=4", "--set", f"output.directory={tmp_path / 'out'}",
    ])
    assert code == 0
    dat = (tmp_path / "out" / "growth_in_p.dat").read_text().splitlines()
    assert dat[0].startswith("# growth_in_p config_hash=")
    xs = np.array([float(line.split()[0]) for line in dat[1:]])
    np.testing.assert_allclose(xs, [2, 4, 8, 16, 32])


def test_empty_time_range_names_the_keys(tmp_path, capsys):
    """At N = 8 the cone grid's auto t_min (the spacing) reaches t_max =
    R/4: an error (exit 1) giving both values and the keys that set them."""
    assert main(["run", "--check", "plancherel", "--set", "operator.n=8",
                 "--set", f"output.directory={tmp_path}"]) == 1
    err = capsys.readouterr().err
    assert "t_min = 0.25 and t_max = 0.25" in err
    for key in ("operator.n", "times.t_min", "times.t_max"):
        assert key in err


@pytest.mark.parametrize("r", ["0.7", "1.5"])
def test_auto_time_grids_stay_within_the_budget(tmp_path, capsys, r):
    """At R = 0.7 and 1.5 the auto grids end within the budget t_max = R/4 and
    a run builds its square functions on them.  With auto t_min and t_max the
    ratio t_max/t_min is N/8 (cone) or N (identity), a power of two at every
    R, so these grids never need the plan's node drop; the test below does."""
    settings = {"operator.n": "64", "operator.r": r, "family.count": "4",
                "params.kinds": "s_h", "times.per_octave": "4"}
    plan = _Plan(parse_config(None, settings))
    for role in ("cone", "identity"):
        assert plan.times(role).nodes[-1] <= plan.op.t_max
    args = ["run", "--check", "weighted_l2_mw", "--check", "spectral_identity",
            "--set", f"output.directory={tmp_path}"]
    for key, value in settings.items():
        args += ["--set", f"{key}={value}"]
    assert main(args) in (0, 1)
    out = capsys.readouterr().out
    for tag in ("weighted_l2_mw_s_h", "spectral_identity"):
        assert f"PASS {tag}:" in out or f"FAIL {tag}:" in out


def test_an_explicit_t_min_drops_the_node_past_the_budget():
    """At defaults with times.t_min = 0.01, TimeGrid.geometric rounds the node
    count up to 39, the last node at 0.2691, past the budget t_max = R/4 =
    0.25; the plan keeps 38 nodes, the last at 0.2468, and builds s_h on them."""
    plan = _Plan(parse_config(None, {"times.t_min": "0.01"}))
    full = TimeGrid.geometric(0.01, plan.op.t_max, 8)
    assert full.count == 39 and not plan.op.trusts(float(full.nodes[-1]))
    for role in ("cone", "identity"):
        times = plan.times(role)
        assert (times.t_min, times.ratio, times.count) == (0.01, full.ratio, 38)
        assert times.nodes[-1] == pytest.approx(0.24675, abs=1e-5)
    assert plan.square("s_h").nodes == [float(t) for t in plan.times("cone").nodes]


@pytest.mark.parametrize("per_octave", ["0", "-1"])
def test_per_octave_below_one_names_the_key(tmp_path, capsys, monkeypatch, per_octave):
    """A usage error (exit 2) naming the key, raised when the config is
    parsed, before an operator is built; per_octave = 1 parses."""
    built = _no_build(monkeypatch)
    assert main(["run", "--check", "spectral_identity", "--set", f"times.per_octave={per_octave}",
                 "--set", f"output.directory={tmp_path}"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage error: times.per_octave must be an int >= 1, got '{per_octave}'")
    assert built == []
    parse_config(None, {"times.per_octave": "1"})


@pytest.mark.parametrize("key, value", [
    ("params.lam", "0"), ("params.lam", "1"), ("params.lam", "2"),
    ("params.mu", "1"), ("params.mu", "0.5"), ("params.mu", "inf"),
    ("params.q", "1"), ("params.q", "0"), ("params.q", "inf"), ("params.q", "65"),
    ("params.p_list", "1.5,1"), ("params.p_list", ""), ("params.p_list", "1.5,65"),
    ("params.ap_p_list", "1,0.5"), ("params.ap_p_list", ""), ("params.ap_p_list", "1,65"),
    ("params.growth_p_list", "2,4,8"), ("params.growth_p_list", "1,2,4,8"),
    ("params.growth_p_list", "2,4,8,128"), ("params.growth_p_list", "2,nan,4,8"),
    ("params.kinds", "s_h,nope"), ("params.kinds", ""),
    ("params.masks", "0"), ("params.masks", "-3"),
    ("times.t_max", "inf"), ("times.t_max", "nan"), ("times.t_max", "0"),
    ("times.t_min", "-1e-3"), ("times.t_min", "-inf"),
])
def test_params_out_of_range_name_their_key(tmp_path, capsys, monkeypatch, key, value):
    """A params.* value outside its range, or a times.t_min / t_max that is
    neither auto nor a finite float > 0, is a usage error (exit 2) naming
    the key, raised when the config is parsed, before an operator is built;
    the values at the ends of each closed range parse."""
    built = _no_build(monkeypatch)
    assert main(["run", "--check", "whitney_cz", "--set", f"{key}={value}",
                 "--set", f"output.directory={tmp_path}"]) == 2
    assert capsys.readouterr().err.startswith(f"usage error: {key} must be ")
    assert built == []
    parse_config(None, {"params.q": "64", "params.p_list": "1.5,64",
                        "params.ap_p_list": "1,64", "params.growth_p_list": "2,3,63,64",
                        "params.masks": "1", "params.kinds": ",".join(KINDS),
                        "times.t_min": "5e-324", "times.t_max": "1.7976931348623157e308"})


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
    assert main(["run", "--check", check, "--set", f"{key}={value}",
                 "--set", f"output.directory={tmp_path}"]) == 2
    assert capsys.readouterr().err.startswith(f"usage error: {key} must be {name}, got ")
    assert built == []
    parse_config(None, {"family.seed": "0", "family.count": "1"})


def test_rubio_de_francia_record_names_its_failure(tmp_path):
    """The record carries the worst A_1 ratio next to its bound 2||M||, the
    worst series tail, ||M|| and whether every majorant dominated |phi|."""
    assert main(["run", "--check", "rubio_de_francia", "--set", "operator.n=64",
                 "--set", f"output.directory={tmp_path}"]) == 0
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


def test_successive_calls_share_the_parser_but_not_its_values(monkeypatch):
    """main builds its parsers once per process, and one call's --set and
    --check values never reach the next (argparse shares an append action's
    default list between calls)."""
    seen = []
    monkeypatch.setattr(cli, "run", lambda cfg: seen.append(cfg) or 0)
    main(["list-checks"])
    built = []
    init = argparse.ArgumentParser.__init__
    monkeypatch.setattr(argparse.ArgumentParser, "__init__",
                        lambda self, *a, **k: built.append(1) or init(self, *a, **k))
    assert main(["run", "--set", "family.seed=3", "--check", "plancherel"]) == 0
    assert main(["run", "--set", "family.count=5", "--check", "whitney_cz",
                 "--check", "weak_lp"]) == 0
    assert not built
    first, second = seen
    assert (first["family.seed"], first["family.count"], first["checks.enabled"]) == (
        "3", "20", "plancherel")
    assert (second["family.seed"], second["family.count"], second["checks.enabled"]) == (
        "7", "5", "whitney_cz,weak_lp")


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


def test_run_refuses_an_unwritable_output_directory(tmp_path, capsys, monkeypatch):
    """An output directory under a regular file is a usage error (exit 2)
    naming the path, raised before any check runs."""
    blocker = tmp_path / "file"
    blocker.write_text("")
    ran = []
    monkeypatch.setitem(_CHECKS["finite_propagation"], "runner",
                        lambda plan: ran.append(plan) or [])
    out = str(blocker / "out")
    assert main(["run", "--check", "finite_propagation", "--set", "operator.n=64",
                 "--set", f"output.directory={out}"]) == 2
    err = capsys.readouterr().err
    assert err == f"usage error: cannot write {out}: Not a directory\n"
    assert ran == []


@pytest.mark.parametrize("command", ["dump-operator", "dump-function"])
def test_dump_refuses_an_unwritable_out_path(tmp_path, capsys, command):
    """An --out path under a regular file is a usage error (exit 2) naming it."""
    blocker = tmp_path / "file"
    blocker.write_text("")
    out = str(blocker / "x.csv")
    assert main([command, "--out", out, "--set", "operator.n=64",
                 "--set", "family.count=1"]) == 2
    assert capsys.readouterr().err == f"usage error: cannot write {out}: Not a directory\n"
    assert blocker.read_text() == ""


@pytest.mark.parametrize("t", ["0", "-0.1", "nan", "inf"])
def test_dump_operator_refuses_t_outside_its_domain(tmp_path, capsys, monkeypatch, t):
    """--t must be a finite float > 0; any other is a usage error (exit 2)
    naming --t, raised before the operator is built."""
    built = _no_build(monkeypatch)
    out = tmp_path / "k.csv"
    assert main(["dump-operator", "--t", t, "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("usage error: --t must be a finite float > 0, got ")
    assert built == []
    assert not out.exists()


def test_dump_operator_refuses_a_t_whose_symbol_overflows(tmp_path, capsys):
    """--t 1e300 overflows the symbol to NaN at every nonzero level: a usage
    error (exit 2) naming --t and the level, with no numpy warning."""
    out = tmp_path / "k.csv"
    assert main(["dump-operator", "--t", "1e300", "--out", str(out),
                 "--set", "operator.n=64"]) == 2
    assert capsys.readouterr().err == ("usage error: --t 1e+300: profile is NaN/Inf at "
                                       f"the spectral value sqrt(L) = {np.pi!r}\n")
    assert not out.exists()


@pytest.mark.parametrize("symbol", ["nope", "g_star"])
def test_dump_operator_refuses_an_unknown_symbol(tmp_path, capsys, monkeypatch, symbol):
    """An unknown --symbol is a usage error (exit 2) naming --symbol and
    every valid kind, raised before the operator is built."""
    built = _no_build(monkeypatch)
    out = tmp_path / "k.csv"
    assert main(["dump-operator", "--symbol", symbol, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage error: --symbol: unknown symbol kind {symbol!r}; choose from ")
    assert all(repr(kind) in err for kind in ("S_H-scalar", "S_P-scalar", "s_h", "s_p"))
    assert built == []
    assert not out.exists()


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
    assert main(["run", "--check", tag, "--set", f"operator.name={name}",
                 "--set", f"operator.dim={dim}", "--set", f"output.directory={tmp_path}"]) == 2
    err = capsys.readouterr().err
    for word in (f"check {tag} ", f"operator.name = {name}", f"operator.dim = {dim}"):
        assert word in err
    assert built == []
    assert not (tmp_path / "report.jsonl").exists()


def test_admission_refuses_the_whole_run(tmp_path, capsys, monkeypatch):
    """One check outside its domain refuses the run: no check runs."""
    built = _no_build(monkeypatch)
    assert main(["run", "--check", "finite_propagation", "--check", "growth_in_ap",
                 "--check", "whitney_cz", "--set", "operator.dim=2",
                 "--set", f"output.directory={tmp_path}"]) == 2
    assert "check growth_in_ap " in capsys.readouterr().err
    assert built == []
    assert not (tmp_path / "report.jsonl").exists()


@pytest.mark.parametrize("how", [["--check", "growth_in_p", "--check", "whitney_cz",
                                  "--check", "growth_in_p"],
                                 ["--set", "checks.enabled=growth_in_p,whitney_cz,growth_in_p"]],
                         ids=["--check", "checks.enabled"])
def test_a_check_named_twice_is_a_usage_error(tmp_path, capsys, monkeypatch, how):
    """A repeated check is refused (exit 2) by name before any work, as a
    repeated config key is: no operator is built and no report written."""
    built = _no_build(monkeypatch)
    assert main(["run", *how, "--set", f"output.directory={tmp_path / 'out'}"]) == 2
    assert "check growth_in_p is named more than once" in capsys.readouterr().err
    assert built == []
    assert not (tmp_path / "out").exists()


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
    (["run", "--check", "spectral_identity", "--set", "operator.r=1e200"],
     ["operator.r = 1e200", "R^2 and the cell volume h^dim positive normal floats"]),
    (["run", "--check", "whitney_cz", "--set", "operator.r=1e200"],
     ["operator.r = 1e200", "R^2 and the cell volume h^dim positive normal floats"]),
    (["run", "--check", "whitney_cz", "--set", "operator.dim=2", "--set", "operator.n=32",
      "--set", "operator.r=1e-200"],
     ["operator.r = 1e-200", "R^2 and the cell volume h^dim positive normal floats"]),
], ids=["run-n", "dump-operator-n", "hermite-truncation", "r-squared-overflows",
        "whitney-r-squared-overflows", "2d-r-squared-underflows"])
def test_operator_keys_the_domain_refuses_are_usage_errors(tmp_path, capsys, monkeypatch,
                                                          args, words):
    """A grid or operator the library refuses is a usage error (exit 2)
    naming the operator.* keys and keeping the library's message."""
    monkeypatch.chdir(tmp_path)
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error: ")
    for word in words:
        assert word in err
