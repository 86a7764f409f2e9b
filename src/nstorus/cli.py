"""Command-line surface tying the modules together.

Exit codes: 0 on success, 1 when a requested check yields FAIL verdicts
(or a gate rejects the parameters), 2 on runtime or parse errors.
Package errors (NstorusError), bad input and missing files print
"error: <type>: <message>"; "unexpected error" means a program fault.
All artifacts are deterministic for a given scenario and seed, and embed
the scenario hash, package version, resolution, evaluation grid, time
step and the empirical-constant values in use.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .admissible import (
    BOUNDARY,
    PASS,
    check_global,
    check_local,
    reproduce_reference_table,
    scan_region,
)
from .besov import BesovParams, as_fraction, besov_norm, lp_norm, sobolev_norm
from .errors import NstorusError
from .fields import load_snapshot, random_field, save_snapshot
from .nonlinear import EnsembleSpec, energy_lemma_ensemble, verify_estimate_chain
from .scenario import Scenario, _finite
from .solver import regularity_norms_y, solve_local, solve_split, uniqueness_probe
from .stokes import stokes_solve
from .trajectory import cumulative_trapezoid


def _meta(scenario: Scenario | None, **extra) -> dict:
    """Provenance of a run: the effective dt = t_final / steps, not the requested dt."""
    meta = {"version": __version__}
    if scenario is not None:
        cfg = scenario.solver
        meta.update(
            scenario_hash=scenario.digest(),
            n=cfg.n,
            grid_m=cfg.grid_m,
            dt=cfg.t_final / cfg.steps,
            steps=cfg.steps,
            **{f"const_{k}": v for k, v in cfg.constants.as_dict().items()},
        )
    meta.update(extra)
    return meta


def _write_text(path: Path, text: str) -> None:
    """Write an artifact, making its directory first."""
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


def _write_json(path: Path, payload: dict) -> None:
    _write_text(path, json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _load_scenario(path: str) -> Scenario:
    return Scenario.from_text(Path(path).read_text())


def _params_from_args(args) -> BesovParams:
    return BesovParams(as_fraction(args.s), as_fraction(args.p),
                       as_fraction(args.q), as_fraction(args.r))


# -- subcommands -----------------------------------------------------------------


def cmd_admissibility(args) -> int:
    if args.action == "check":
        params = _params_from_args(args)
        report = check_global(params) if args.use_global else check_local(params)
        text = report.to_json()
        if args.out:
            _write_text(Path(args.out), text + "\n")
        else:
            print(text)
        if report.failed_ids:
            return 1
        return 0
    if args.action == "scan":
        if args.depth < 0:
            raise ValueError(f"scan depth must be >= 0, got {args.depth}")
        denominator = args.denominator if args.denominator else 2**args.depth
        scan = scan_region(as_fraction(args.s), denominator)
        out = Path(args.out)
        _write_text(out, "\n".join(scan.csv_lines()) + "\n")
        print(f"s = {scan.s}: {scan.local_count} local / {scan.global_count} global "
              f"feasible grid points (denominator {scan.denominator}) -> {out}")
        return 0
    raise ValueError(f"unknown admissibility action {args.action!r}")


def cmd_norms(args) -> int:
    field, time = load_snapshot(args.snapshot)
    if args.kind == "besov":
        report = besov_norm(field, as_fraction(args.s), as_fraction(args.p), as_fraction(args.q))
        text = report.to_json()
    elif args.kind == "sobolev":
        value = sobolev_norm(field, as_fraction(args.s), as_fraction(args.p))
        text = json.dumps({"kind": "sobolev", "s": args.s, "p": args.p, "N": field.n,
                           "value": value}, sort_keys=True)
    else:
        value = lp_norm(field.to_grid(), as_fraction(args.p))
        text = json.dumps({"kind": "lp", "p": args.p, "N": field.n, "value": value},
                          sort_keys=True)
    if args.out:
        _write_text(Path(args.out), text + "\n")
    else:
        print(text)
    return 0


def cmd_stokes(args) -> int:
    scenario = _load_scenario(args.scenario)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    u0 = scenario.initial_field()
    forcing = scenario.forcing_spec()
    traj = stokes_solve(u0, forcing, scenario.solver.t_final, scenario.solver.steps)
    p = scenario.params
    if "trajectory" in scenario.reports:
        traj.to_csv(out / "trajectory.csv",
                    besov_specs=[(float(-p.s + 2), float(p.p), float(p.q))],
                    extra_columns={"energy_residual": _energy_residual_series(traj, forcing)},
                    meta=_meta(scenario))
    if "report" in scenario.reports:
        _write_json(out / "report.json", {
            "meta": _meta(scenario),
            "w1r_norm": traj.w1r_norm(p),
            "final_l2": traj.fields[-1].l2_norm(),
        })
    _write_snapshots(scenario, traj, out)
    return 0


def _energy_residual_series(traj, forcing) -> np.ndarray:
    """Discrete balance 1/2||u(t)||^2 - 1/2||u(0)||^2 + int ||u||^2_H1 - int <f,u>."""
    times = traj.times
    half_e = 0.5 * traj.series(lambda u: u.energy())
    h1_sq = traj.series(lambda u: u.h_norm(1.0) ** 2)
    work = np.array([forcing.field_at(float(t)).inner(u) for t, u in zip(times, traj.fields)])
    visc, pump = cumulative_trapezoid(times, h1_sq), cumulative_trapezoid(times, work)
    return half_e - half_e[0] + visc - pump


def _gate_or_fail(scenario: Scenario, use_global: bool) -> int | None:
    report = (check_global if use_global else check_local)(scenario.params)
    if not report.all_pass:
        bad = ", ".join(report.failed_ids + report.boundary_ids)
        print(f"admissibility gate failed on condition(s): {bad}", file=sys.stderr)
        return 1
    return None


def _write_snapshots(scenario: Scenario, traj, out: Path) -> None:
    for t_req in scenario.snapshot_times:
        idx = int(np.argmin(np.abs(traj.times - t_req)))
        save_snapshot(traj.fields[idx], out / f"snapshot_{idx:06d}.bnsf",
                      time=float(traj.times[idx]))


def cmd_solve(args) -> int:
    scenario = _load_scenario(args.scenario)
    bad = _gate_or_fail(scenario, use_global=False)
    if bad:
        return bad
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    result = solve_local(scenario.initial_field(), scenario.forcing_spec(),
                         scenario.params, scenario.solver)
    p = scenario.params
    # the local solve runs on [0, t_bar] with its own step count
    steps = len(result.trajectory.times) - 1
    meta = _meta(scenario, t_bar=result.t_bar, dt=result.t_bar / steps, steps=steps)
    if "trajectory" in scenario.reports:
        traj = result.trajectory
        half_e = 0.5 * traj.series(lambda u: u.energy())
        residual = half_e - half_e[0] + traj.acc["visc"] - traj.acc["work_f"] + traj.acc["work_b"]
        traj.to_csv(out / "trajectory.csv",
                    besov_specs=[(float(-p.s + 2), float(p.p), float(p.q))],
                    extra_columns={"energy_residual": residual},
                    meta=meta)
    if "report" in scenario.reports:
        _write_json(out / "report.json", {
            "meta": meta,
            "t_bar": result.t_bar,
            "f_norm": result.f_norm,
            "epsilon": str(result.epsilon),
            "bound_rhs": result.bound_rhs,
            "picard_iterations": result.picard.iterations,
            "picard_factors": result.picard.factors,
        })
    _write_snapshots(scenario, result.trajectory, out)
    return 0


def cmd_solve_split(args) -> int:
    scenario = _load_scenario(args.scenario)
    bad = _gate_or_fail(scenario, use_global=True)
    if bad:
        return bad
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    result = solve_split(scenario.initial_field(), scenario.forcing_spec(),
                         scenario.params, scenario.solver)
    mon = result.x_result.monitor
    if "trajectory" in scenario.reports:
        result.direct.to_csv(out / "direct.csv", meta=_meta(scenario))
        result.x_result.trajectory.to_csv(
            out / "smooth_part.csv",
            extra_columns={"energy_residual": mon.residuals, "envelope": mon.envelope},
            meta=_meta(scenario),
        )
        result.x_result.y_trajectory.to_csv(out / "rough_part.csv", meta=_meta(scenario))
    _write_snapshots(scenario, result.direct, out)
    _write_json(out / "report.json", {
        "meta": _meta(scenario),
        "cutoff": result.split.k_cut,
        "h_norm": result.split.h_norm,
        "y0_norm": result.split.y0_norm,
        "sup_discrepancy": result.sup_discrepancy,
        "max_energy_residual": mon.max_residual,
        "gronwall_breached": mon.breached,
        "y_regularity": regularity_norms_y(result.x_result.y_trajectory, scenario.params),
    })
    return 0


def cmd_verify_estimates(args) -> int:
    params = _params_from_args(args)
    resolutions = tuple(int(x) for x in args.resolutions.split(","))
    ensemble = EnsembleSpec(count=args.count, seed=args.seed, resolutions=resolutions)
    chain = verify_estimate_chain(params, ensemble)
    energy = energy_lemma_ensemble(0.5, params.p, params.r, ensemble)
    out = Path(args.out)
    _write_json(out / "estimates.json", {"meta": _meta(None), "chain": json.loads(chain.to_json()),
                                         "energy": json.loads(energy.to_json())})
    header = "inequality,lhs,rhs,ratio,max_ratio,mean_ratio,count,seed"
    _write_text(out / "estimates.csv",
                "\n".join([header, chain.csv_row(), energy.csv_row()]) + "\n")
    print(f"product-estimate max ratio {chain.max_ratio:.6g}; energy-lemma max constant "
          f"{energy.max_ratio:.6g} -> {out}")
    return 0


def cmd_uniqueness_probe(args) -> int:
    scenario = _load_scenario(args.scenario)
    bad = _gate_or_fail(scenario, use_global=True)
    if bad:
        return bad
    out = Path(args.out)
    cfg = scenario.solver
    delta0 = random_field(cfg.n, 3.0, scenario.seed + 99, band=cfg.band,
                          amplitude=args.delta_amplitude)
    report = uniqueness_probe(scenario.initial_field(), scenario.forcing_spec(), scenario.params,
                              cfg, delta0=delta0, num_halvings=args.halvings)
    _write_json(out / "report.json", {
        "meta": _meta(scenario),
        "zero_start_exact": report.zero_start_exact,
        "contraction_times": list(report.contraction_times),
        "contraction_values": list(report.contraction_values),
        "delta_norms": None if report.delta_norms is None else list(report.delta_norms),
        "envelope_holds": report.envelope_holds,
    })
    # a decrease needs at least two windows to be measured
    values = report.contraction_values
    decreasing = len(values) >= 2 and bool(np.all(np.diff(values) < 0))
    print(f"zero-start exact: {report.zero_start_exact}; C_u strictly decreasing: {decreasing}")
    return 0 if (report.zero_start_exact and decreasing) else 1


def cmd_reference_table(args) -> int:
    rows = reproduce_reference_table()
    lines = ["idx  s        r        p       q      gate    -s+2-2/r   status"]
    ok = True
    for row in rows:
        lines.append(
            f"{row.index:<4d} {str(row.params.s):<8s} {str(row.params.r):<8s} "
            f"{str(row.params.p):<7s} {str(row.params.q):<6s} {row.gate:<7s} "
            f"{str(row.computed_regularity):<10s} {row.status}"
        )
        if not row.regularity_matches:
            ok = False
        if row.gate == "global" and row.report.all_pass is False:
            ok = False
    boundary_rows = [r for r in rows if r.report.boundary_ids]
    for row in boundary_rows:
        lines.append(
            f"note: row {row.index} sits exactly on condition "
            f"{','.join(row.report.boundary_ids)} (sum equals the bound); "
            "reported as BOUNDARY, not passed"
        )
    # exactly one boundary row is expected in the bundled table
    expected_boundary = [r.index for r in rows if r.status.startswith(BOUNDARY)]
    if expected_boundary != [2]:
        ok = False
    for row in rows:
        if row.index not in expected_boundary and row.status != PASS:
            ok = False
    text = "\n".join(lines)
    if args.out:
        _write_text(Path(args.out), text + "\n")
    print(text)
    return 0 if ok else 1


# -- parser ------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nstorus",
        description="Pseudo-spectral 2D Navier-Stokes on the torus with a Besov toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    adm = sub.add_parser("admissibility", help="exact rational parameter checks")
    adm_sub = adm.add_subparsers(dest="action", required=True)
    chk = adm_sub.add_parser("check", help="evaluate the local or global gate")
    for name in ("s", "p", "q", "r"):
        chk.add_argument(f"--{name}", required=True)
    chk.add_argument("--global", dest="use_global", action="store_true")
    chk.add_argument("--out")
    chk.set_defaults(fn=cmd_admissibility)
    scn = adm_sub.add_parser("scan", help="classify the (2/p, 2/r) grid")
    scn.add_argument("--s", required=True)
    scn.add_argument("--depth", type=int, default=8)
    scn.add_argument("--denominator", type=int, default=0)
    scn.add_argument("--out", required=True)
    scn.set_defaults(fn=cmd_admissibility)

    nrm = sub.add_parser("norms", help="norms of a snapshot field")
    nrm.add_argument("--snapshot", required=True)
    nrm.add_argument("--kind", choices=["besov", "sobolev", "lp"], default="besov")
    nrm.add_argument("--s", default="0")
    nrm.add_argument("--p", default="2")
    nrm.add_argument("--q", default="2")
    nrm.add_argument("--out")
    nrm.set_defaults(fn=cmd_norms)

    stk = sub.add_parser("stokes", help="linear solve from a scenario")
    stk.add_argument("--scenario", required=True)
    stk.add_argument("--out", required=True)
    stk.set_defaults(fn=cmd_stokes)

    slv = sub.add_parser("solve", help="local nonlinear solve from a scenario")
    slv.add_argument("--scenario", required=True)
    slv.add_argument("--out", required=True)
    slv.set_defaults(fn=cmd_solve)

    sps = sub.add_parser("solve-split", help="split solve checked against a direct solve")
    sps.add_argument("--scenario", required=True)
    sps.add_argument("--out", required=True)
    sps.set_defaults(fn=cmd_solve_split)

    ver = sub.add_parser("verify-estimates", help="ensemble estimate harnesses")
    for name, default in (("s", "4/3"), ("p", "5/2"), ("q", "3"), ("r", "3")):
        ver.add_argument(f"--{name}", default=default)
    ver.add_argument("--count", type=int, default=64)
    ver.add_argument("--seed", type=int, default=0)
    ver.add_argument("--resolutions", default="16,32,64")
    ver.add_argument("--out", required=True)
    ver.set_defaults(fn=cmd_verify_estimates)

    unq = sub.add_parser("uniqueness-probe", help="zero-difference and contraction probe")
    unq.add_argument("--scenario", required=True)
    unq.add_argument("--out", required=True)
    unq.add_argument("--halvings", type=int, default=8)
    unq.add_argument("--delta-amplitude", type=_finite, default=1e-3)
    unq.set_defaults(fn=cmd_uniqueness_probe)

    ref = sub.add_parser("reproduce-appendix-b",
                         help="recompute the bundled reference parameter table")
    ref.add_argument("--out")
    ref.set_defaults(fn=cmd_reference_table)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (NstorusError, FileNotFoundError, ValueError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"unexpected error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
