"""Scenario parsing, artifact determinism, CLI exit codes."""

import json
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nstorus import errors
from nstorus.besov import BesovParams
from nstorus.cli import main
from nstorus.fields import random_field, save_snapshot
from nstorus.scenario import FieldSpec, ModeEntry, Scenario, ScenarioError
from nstorus.solver import DEFAULT_CONSTANTS, SolverConfig

SCENARIO_TEXT = """\
name = demo
seed = 7
params.s = 4/3
params.p = 5/2
params.q = 3
params.r = 3
solver.n = 16
solver.dt = 0.01
solver.t_final = 0.1
initial.kind = modes
initial.mode = 1 0 0.05 0.0
forcing.kind = modes
forcing.mode = 1 1 0.02 0.0 constant
"""


class TestScenario:
    def test_parse_emit_round_trip_identity(self):
        s1 = Scenario.from_text(SCENARIO_TEXT)
        s2 = Scenario.from_text(s1.to_text())
        assert s1 == s2
        assert s1.to_text() == s2.to_text()
        assert s1.digest() == s2.digest()

    def test_defaults_and_fields(self):
        s = Scenario.from_text(SCENARIO_TEXT)
        assert s.solver.n == 16 and s.seed == 7
        assert str(s.params.s) == "4/3"
        u0 = s.initial_field()
        assert u0.coeff(1, 0) == 0.05
        f = s.forcing_spec()
        assert f.field_at(0.0).coeff(1, 1) == 0.02

    def test_empty_file_rejected(self):
        with pytest.raises(ScenarioError):
            Scenario.from_text("")

    def test_malformed_line_carries_position(self):
        with pytest.raises(ScenarioError, match="line 2"):
            Scenario.from_text("name = x\nbogus line\n")

    def test_unknown_key_rejected(self):
        with pytest.raises(ScenarioError, match="unknown key"):
            Scenario.from_text(SCENARIO_TEXT + "nope.key = 1\n")

    def test_float_gate_parameter_rejected(self):
        bad = SCENARIO_TEXT.replace("params.s = 4/3", "params.s = 1.5")
        with pytest.raises(ScenarioError, match="params.s"):
            Scenario.from_text(bad)

    def test_duplicate_key_rejected(self):
        with pytest.raises(ScenarioError, match="duplicate"):
            Scenario.from_text(SCENARIO_TEXT + "seed = 9\n")

    def test_random_spec_round_trip(self):
        text = SCENARIO_TEXT.replace(
            "initial.kind = modes\ninitial.mode = 1 0 0.05 0.0",
            "initial.kind = random\ninitial.gamma = 2.5\ninitial.amplitude = 0.1\n"
            "initial.band = 5",
        )
        s = Scenario.from_text(text)
        assert s.initial.kind == "random" and s.initial.band == 5
        assert Scenario.from_text(s.to_text()) == s


POSITIVE = st.floats(1e-6, 1e3, allow_nan=False, allow_infinity=False)
REAL = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)


@st.composite
def field_specs(draw, with_law):
    kind = draw(st.sampled_from(["zero", "modes", "random"]))
    if kind == "zero":
        return FieldSpec()
    if kind == "random":
        return FieldSpec("random", (), draw(POSITIVE), draw(POSITIVE), draw(st.integers(0, 99)),
                         draw(st.none() | st.integers(1, 8)))
    laws = ["constant", "sinusoid"] if with_law else ["constant"]
    modes = []
    for _ in range(draw(st.integers(0, 3))):
        k1, k2, re, im = (draw(st.integers(-7, 7)), draw(st.integers(-7, 7)), draw(REAL),
                          draw(REAL))
        if draw(st.sampled_from(laws)) == "sinusoid":
            modes.append(ModeEntry(k1, k2, re, im, "sinusoid", draw(REAL), draw(REAL)))
        else:
            modes.append(ModeEntry(k1, k2, re, im))
    return FieldSpec("modes", tuple(modes))


@st.composite
def scenarios(draw):
    t_final = draw(POSITIVE)
    steps = draw(st.integers(1, 5000))
    names = sorted(DEFAULT_CONSTANTS.as_dict())
    overrides = draw(st.dictionaries(st.sampled_from(names), POSITIVE))
    solver = SolverConfig(
        n=draw(st.sampled_from([8, 16, 32])), dt=t_final / steps, t_final=t_final,
        split_eps=draw(POSITIVE), smallness_y0=draw(POSITIVE), smallness_h=draw(POSITIVE),
        constants=replace(DEFAULT_CONSTANTS, **overrides),
    )
    exponent = st.fractions(Fraction(1, 60), 20, max_denominator=60)
    return Scenario(
        name=draw(st.from_regex(r"[a-z][a-z0-9_-]{0,11}", fullmatch=True)),
        seed=draw(st.integers(0, 10**6)),
        params=BesovParams(draw(st.fractions(-5, 5, max_denominator=60)), 1 + draw(exponent),
                           1 + draw(exponent), 1 + draw(exponent)),
        solver=solver,
        initial=draw(field_specs(with_law=False)),
        forcing=draw(field_specs(with_law=True)),
        snapshot_times=tuple(draw(st.lists(st.floats(0.0, t_final), max_size=3))),
        reports=tuple(draw(st.lists(st.sampled_from(["trajectory", "report"]),
                                    min_size=1, max_size=2, unique=True))),
    )


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(scenario=scenarios())
def test_emitted_text_parses_back_to_the_same_scenario(scenario):
    parsed = Scenario.from_text(scenario.to_text())
    assert parsed == scenario
    assert parsed.digest() == scenario.digest()


class TestCli:
    def test_admissibility_check_pass_exit0(self, capsys):
        code = main(["admissibility", "check", "--s", "4/3", "--p", "5/2",
                     "--q", "3", "--r", "3", "--global"])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["all_pass"] is True

    def test_admissibility_check_fail_exit1(self, capsys):
        code = main(["admissibility", "check", "--s", "5/2", "--p", "5/2",
                     "--q", "3", "--r", "3"])
        assert code == 1
        data = json.loads(capsys.readouterr().out)
        assert data["failed"]

    def test_admissibility_float_param_exit2(self, capsys):
        code = main(["admissibility", "check", "--s", "1.5", "--p", "2",
                     "--q", "2", "--r", "2"])
        assert code == 2

    def test_admissibility_scan_writes_csv(self, tmp_path):
        out = tmp_path / "region.csv"
        code = main(["admissibility", "scan", "--s", "4/3", "--depth", "5",
                     "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "x,y,local,global"

    @pytest.mark.parametrize("option,message", [
        (["--depth", "-1"], "scan depth must be >= 0, got -1"),
    ])
    def test_admissibility_scan_bad_denominator_exit2(self, tmp_path, capsys, option, message):
        out = tmp_path / "region.csv"
        code = main(["admissibility", "scan", "--s", "4/3", *option, "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == f"error: ValueError: {message}\n"
        assert not out.exists()

    def test_reference_table_exit0(self, capsys):
        code = main(["reproduce-appendix-b"])
        out = capsys.readouterr().out
        assert code == 0
        assert "BOUNDARY(4)" in out
        assert out.count("PASS") >= 6

    def test_norms_roundtrip(self, tmp_path, capsys):
        u = random_field(8, 1.0, seed=3)
        snap = tmp_path / "u.bnsf"
        save_snapshot(u, snap)
        code = main(["norms", "--snapshot", str(snap), "--kind", "besov",
                     "--s", "1/2", "--p", "2", "--q", "2"])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["value"] > 0
        assert data["N"] == 8

    @pytest.mark.parametrize("argv,code", [
        (["admissibility", "check", "--s", "-4/3", "--p", "5/2", "--q", "3", "--r", "3"], 1),
        (["admissibility", "scan", "--s", "-9/10", "--depth", "3", "--out", "{tmp}/r.csv"], 0),
        (["norms", "--snapshot", "{tmp}/u.bnsf", "--s", "-4/3", "--p", "5/2", "--q", "3"], 0),
        (["verify-estimates", "--s", "-9/10", "--count", "1", "--resolutions", "8",
          "--out", "{tmp}/est"], 2),
    ], ids=["check", "scan", "norms", "verify-estimates"])
    def test_negative_rational_takes_the_spaced_form(self, tmp_path, capsys, argv, code):
        # "--s -4/3" is read as "--s=-4/3", not as an option -4/3
        save_snapshot(random_field(8, 1.0, seed=3), tmp_path / "u.bnsf")
        spaced = [arg.format(tmp=tmp_path) for arg in argv]
        i = spaced.index("--s")
        joined = spaced[:i] + [f"--s={spaced[i + 1]}"] + spaced[i + 2:]
        assert main(spaced) == code
        printed = capsys.readouterr()
        assert main(joined) == code
        assert capsys.readouterr() == printed
        if code == 2:  # the gate rejected the parsed s
            assert printed.err.startswith("error: InadmissibleParams: local gate not satisfied")
        else:
            assert spaced[i + 1] in printed.out

    @pytest.mark.parametrize("argv", [
        ["admissibility", "check", "--s", "4/3", "--p", "5/2", "--q", "3", "--r", "3", "--global"],
        ["admissibility", "check", "--s", "5/2", "--p", "5/2", "--q", "3", "--r", "3"],
        ["reproduce-appendix-b"],
    ])
    def test_out_into_a_missing_directory(self, tmp_path, capsys, argv):
        code = main(argv)
        printed = capsys.readouterr().out
        out = tmp_path / "new" / "dir" / "result.txt"
        assert main(argv + ["--out", str(out)]) == code
        assert out.read_text() == printed

    @pytest.mark.parametrize("kind", ["besov", "sobolev", "lp"])
    def test_norms_out_into_a_missing_directory(self, tmp_path, capsys, kind):
        snap = tmp_path / "u.bnsf"
        save_snapshot(random_field(8, 1.0, seed=3), snap)
        argv = ["norms", "--snapshot", str(snap), "--kind", kind, "--p", "5/2"]
        assert main(argv) == 0
        printed = capsys.readouterr().out
        out = tmp_path / "new" / "dir" / "norm.json"
        assert main(argv + ["--out", str(out)]) == 0
        assert out.read_text() == printed

    def test_verify_estimates_out_into_a_missing_directory(self, tmp_path):
        out = tmp_path / "new" / "dir"
        assert main(["verify-estimates", "--count", "1", "--resolutions", "8",
                     "--out", str(out)]) == 0
        assert json.loads((out / "estimates.json").read_text())["chain"]["count"] == 1
        assert (out / "estimates.csv").read_text().count("\n") == 3

    @pytest.mark.parametrize("option,message", [
        (["--count", "0"], "ensemble count must be >= 1, got 0"),
        (["--count", "-2"], "ensemble count must be >= 1, got -2"),
    ])
    def test_verify_estimates_empty_ensemble_exit2(self, tmp_path, capsys, option, message):
        out = tmp_path / "est"
        code = main(["verify-estimates", *option, "--resolutions", "8", "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == f"error: ValueError: {message}\n"
        assert not out.exists()

    def test_empty_scenario_exit2(self, tmp_path, capsys):
        bad = tmp_path / "empty.scn"
        bad.write_text("")
        code = main(["solve", "--scenario", str(bad), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("n", [2, 7])
    def test_unresolvable_n_exit2(self, tmp_path, capsys, n):
        # n = 2 leaves an empty dealias band (an all-zero run), and the field
        # lattice takes an even n only
        scn = tmp_path / "bad.scn"
        scn.write_text(SCENARIO_TEXT.replace("solver.n = 16", f"solver.n = {n}"))
        out = tmp_path / "o"
        code = main(["solve", "--scenario", str(scn), "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: ScenarioError: solver settings: n must be even and >= 4 "
            f"(a dealias band n // 3 >= 1), got n = {n}\n")
        assert not out.exists()

    def test_gate_failure_exit1_names_condition(self, tmp_path, capsys):
        text = SCENARIO_TEXT.replace("params.s = 4/3", "params.s = 5/2")
        scn = tmp_path / "bad.scn"
        scn.write_text(text)
        code = main(["solve", "--scenario", str(scn), "--out", str(tmp_path / "o")])
        assert code == 1
        assert "condition" in capsys.readouterr().err

    def test_solve_artifacts_and_determinism(self, tmp_path):
        scn = tmp_path / "demo.scn"
        scn.write_text(SCENARIO_TEXT)
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert main(["solve", "--scenario", str(scn), "--out", str(out1)]) == 0
        assert main(["solve", "--scenario", str(scn), "--out", str(out2)]) == 0
        csv1 = (out1 / "trajectory.csv").read_bytes()
        csv2 = (out2 / "trajectory.csv").read_bytes()
        assert csv1 == csv2
        rep1 = (out1 / "report.json").read_bytes()
        rep2 = (out2 / "report.json").read_bytes()
        assert rep1 == rep2
        meta = json.loads(rep1)["meta"]
        assert {"scenario_hash", "version", "n", "grid_m", "dt"} <= set(meta)
        assert any(key.startswith("const_") for key in meta)

    def test_meta_records_the_dt_that_ran(self, tmp_path, capsys):
        from nstorus.cli import _meta

        meta = _meta(Scenario(solver=SolverConfig(dt=0.25, t_final=1.0)))
        assert meta["steps"] == 4
        assert meta["dt"] == 0.25
        assert meta["grid_m"] == 32
        # dt = 0.3 does not divide T = 1 and would run 3 steps of 1/3
        bad = SCENARIO_TEXT.replace("solver.dt = 0.01", "solver.dt = 0.3").replace(
            "solver.t_final = 0.1", "solver.t_final = 1.0")
        with pytest.raises(ScenarioError, match="does not divide"):
            Scenario.from_text(bad)
        scn = tmp_path / "bad.scn"
        scn.write_text(bad)
        assert main(["stokes", "--scenario", str(scn), "--out", str(tmp_path / "o")]) == 2
        assert "does not divide" in capsys.readouterr().err

    @pytest.mark.parametrize("mode,setting,error", [
        pytest.param("5 5", "solver.smallness_y0 = 1e-12", "SmallnessViolation: ",
                     id="solver.smallness_y0 = 1e-12-SmallnessViolation"),
        # in-band modes always split (|k|^2 <= 2 * 5^2 < 8^2), so the (7, 7) mode that
        # would exhaust every cutoff lies beyond the band 5 and is refused first
        pytest.param("7 7", "solver.split_eps = 1e-14",
                     "ResolutionMismatch: data support |k|_inf = 7 exceeds the band 5 at n = 16\n",
                     id="solver.split_eps = 1e-14-ResolutionMismatch"),
    ])
    def test_package_errors_are_reported_by_type(self, tmp_path, capsys, mode, setting, error):
        scn = tmp_path / "rough.scn"
        scn.write_text(SCENARIO_TEXT + f"initial.mode = {mode} 1e-06 0.0\n" + setting + "\n")
        code = main(["solve-split", "--scenario", str(scn), "--out", str(tmp_path / "o")])
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: {error}")

    @pytest.mark.parametrize("line,key", [
        ("constants.c1 = abc", "constants.c1"),
        ("reports = trajectry", "reports"),
        ("constants.c2 = -inf", "constants.c2"),
        ("solver.split_eps = nan", "solver.split_eps"),
        ("forcing.gamma = nan", "forcing.gamma"),
        ("initial.amplitude = inf", "initial.amplitude"),
        ("initial.seed_offset = -1", "initial.seed_offset"),
        ("forcing.mode = 2 1 nan 0.0", "forcing.mode"),
        ("forcing.mode = 2 1 0.1 0.0 sinusoid inf 0.0", "forcing.mode"),
        ("snapshot_times = 0.0 nan", "snapshot_times"),
        ("snapshot_times = 0.0 5.0", "snapshot_times"),
        ("snapshot_times = -0.01", "snapshot_times"),
        ("initial.band = -1", "initial.band"),
    ])
    def test_bad_value_names_its_key(self, tmp_path, capsys, line, key):
        scn = tmp_path / "bad.scn"
        scn.write_text(SCENARIO_TEXT + line + "\n")
        out = tmp_path / "o"
        assert main(["stokes", "--scenario", str(scn), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ScenarioError: line 14: ")
        assert repr(key) in err
        assert not out.exists()

    @pytest.mark.parametrize("old,new,lineno,key", [
        ("seed = 7", "seed = -3", 2, "seed"),
        ("solver.dt = 0.01", "solver.dt = nan", 8, "solver.dt"),
        ("solver.t_final = 0.1", "solver.t_final = inf", 9, "solver.t_final"),
        ("initial.mode = 1 0 0.05 0.0", "initial.mode = 1 0 0.05 -inf", 11, "initial.mode"),
    ])
    def test_bad_existing_value_names_its_key(self, tmp_path, capsys, old, new, lineno, key):
        scn = tmp_path / "bad.scn"
        scn.write_text(SCENARIO_TEXT.replace(old, new))
        out = tmp_path / "o"
        assert main(["stokes", "--scenario", str(scn), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: ScenarioError: line {lineno}: field {key!r}: ")
        assert not out.exists()

    def test_truncated_snapshot_reported_by_type(self, tmp_path, capsys):
        snap = tmp_path / "short.bnsf"
        snap.write_bytes(b"BNSF\x01\x00")
        assert main(["norms", "--snapshot", str(snap)]) == 2
        assert capsys.readouterr().err.startswith("error: ValueError: snapshot header truncated")

    def test_every_package_error_shares_one_base(self):
        classes = [c for c in vars(errors).values()
                   if isinstance(c, type) and issubclass(c, Exception)]
        assert len(classes) >= 12
        assert all(issubclass(c, errors.NstorusError) for c in classes + [ScenarioError])

    def test_unbanded_demo_is_refused_by_the_nonlinear_solves(self, tmp_path, capsys):
        # without its two band = 10 lines the demo draws support 16 at N = 32; the
        # nonlinear solves refuse it, and the exact linear solve takes it
        demo = (Path(__file__).parents[1] / "scenarios" / "demo.scn").read_text()
        text = demo.replace("initial.band = 10\n", "").replace("forcing.band = 10\n", "")
        assert ".band" not in text
        scn = tmp_path / "unbanded.scn"
        scn.write_text(text.replace("solver.t_final = 1.0", "solver.t_final = 0.05")
                       .replace("snapshot_times = 0.0 1.0", "snapshot_times = 0.0 0.05"))
        for command in ("solve", "solve-split", "uniqueness-probe"):
            assert main([command, "--scenario", str(scn), "--out", str(tmp_path / command)]) == 2
            assert capsys.readouterr().err == ("error: ResolutionMismatch: data support "
                                               "|k|_inf = 16 exceeds the band 10 at n = 32\n")
        assert main(["stokes", "--scenario", str(scn), "--out", str(tmp_path / "stokes")]) == 0

    def test_stokes_artifacts(self, tmp_path):
        scn = tmp_path / "demo.scn"
        scn.write_text(SCENARIO_TEXT + "snapshot_times = 0.0 0.1\n")
        out = tmp_path / "stokes"
        assert main(["stokes", "--scenario", str(scn), "--out", str(out)]) == 0
        assert (out / "trajectory.csv").exists()
        assert (out / "report.json").exists()
        snaps = sorted(Path(out).glob("snapshot_*.bnsf"))
        assert len(snaps) == 2

    def test_uniqueness_probe_cli(self, tmp_path):
        text = SCENARIO_TEXT.replace("solver.dt = 0.01", "solver.dt = 0.003125")
        scn = tmp_path / "demo.scn"
        scn.write_text(text)
        out = tmp_path / "probe"
        code = main(["uniqueness-probe", "--scenario", str(scn), "--out", str(out),
                     "--halvings", "3"])
        assert code == 0
        data = json.loads((out / "report.json").read_text())
        assert data["zero_start_exact"] is True

    @pytest.mark.parametrize("halvings", ["-3", "0"])
    def test_uniqueness_probe_needs_a_halving(self, tmp_path, capsys, halvings):
        scn = tmp_path / "demo.scn"
        scn.write_text(SCENARIO_TEXT)
        out = tmp_path / "probe"
        code = main(["uniqueness-probe", "--scenario", str(scn), "--out", str(out),
                     "--halvings", halvings])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ValueError: num_halvings must be >= 1")
        assert not (out / "report.json").exists()

    @pytest.mark.parametrize("amplitude", ["nan", "inf", "-inf"])
    def test_uniqueness_probe_rejects_non_finite_amplitude(self, tmp_path, capsys, amplitude):
        scn = tmp_path / "demo.scn"
        scn.write_text(SCENARIO_TEXT)
        out = tmp_path / "probe"
        with pytest.raises(SystemExit) as exit_info:
            main(["uniqueness-probe", "--scenario", str(scn), "--out", str(out),
                  f"--delta-amplitude={amplitude}"])
        assert exit_info.value.code == 2
        assert "argument --delta-amplitude" in capsys.readouterr().err
        assert not (out / "report.json").exists()

    def test_uniqueness_probe_one_window_is_no_decrease(self, tmp_path, capsys):
        # one step gives one window, so no decrease of C_u is measured
        scn = tmp_path / "demo.scn"
        scn.write_text(SCENARIO_TEXT.replace("solver.dt = 0.01", "solver.dt = 0.1"))
        out = tmp_path / "probe"
        assert main(["uniqueness-probe", "--scenario", str(scn), "--out", str(out)]) == 1
        data = json.loads((out / "report.json").read_text())
        assert data["zero_start_exact"] is True
        assert len(data["contraction_values"]) == 1
        assert "C_u strictly decreasing: False" in capsys.readouterr().out

    def test_uniqueness_probe_windows_are_distinct(self, tmp_path):
        # 11 steps halve to window ends 11, 6, 3, 1, 1 before the repeat is dropped
        scn = tmp_path / "demo.scn"
        scn.write_text(SCENARIO_TEXT.replace("solver.t_final = 0.1", "solver.t_final = 0.11"))
        out = tmp_path / "probe"
        assert main(["uniqueness-probe", "--scenario", str(scn), "--out", str(out)]) == 0
        data = json.loads((out / "report.json").read_text())
        assert data["contraction_times"] == pytest.approx([0.11, 0.06, 0.03, 0.01])
