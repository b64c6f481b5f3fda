"""Batch command line interface.

Subcommands cover mesh generation and clustering, measurement simulation,
single reconstructions, the two experiment drivers, and indicator evaluation.
All outputs are plain text: mesh/partition files, CSV statistics, and JSON
records.
"""

from __future__ import annotations

import argparse
import csv
import sys
from pathlib import Path

import numpy as np

from . import harness
from .fem import IndefiniteSystemError
from .harness import (
    CASES,
    Reconstructor,
    build_models,
    build_noise_cov_for_side,
    case_from_config,
    draw_target,
    indicators,
    sample_rng,
    side_forward_map,
    simulate_measurements,
)
from .inversion import build_prior
from .mesh import cluster_partition, generate_disk_mesh, load_mesh, save_mesh, save_partition


def _load_case(args) -> harness.ExperimentCase:
    """The case of ``--case`` and ``--config``; C1 when neither names one.

    When both name a case they must name the same one.
    """
    data = harness._read_json(Path(args.config), lambda d: d) if args.config else {}
    if args.case is not None and isinstance(data, dict):  # case_from_config rejects the rest
        named = data.get("case", args.case)
        if named != args.case:
            raise ValueError(
                f"--case {args.case} differs from the case {named!r} of {args.config}"
            )
        data = {**data, "case": args.case}
    return case_from_config(data)


def _check_point(path, name: str, case: harness.ExperimentCase, side: str, point) -> None:
    """``ValueError`` naming ``path`` unless the record's ``name``, ``point``, fits ``side``.

    On the case's ``side`` (measurement or reconstruction) a point has one kappa per
    cluster, one rho per electrode, and an (M, 2) xi for the smooth contact model only.
    """

    def described(shape) -> str:
        return "absent" if shape is None else f"of shape {shape}"

    spec, M = getattr(case, side), case.n_electrodes
    xi = (M, 2) if spec.contact == "smooth" else None
    for key, want in (("kappa", (spec.n_clusters,)), ("rho", (M,)), ("xi", xi)):
        value = getattr(point, key)
        got = None if value is None else value.shape
        if got != want:
            raise ValueError(
                f"{path}: {name} {key!r} is {described(got)}; "
                f"the case's {side} side needs it {described(want)}"
            )


def _cmd_mesh_gen(args) -> int:
    mesh = generate_disk_mesh(args.level)
    save_mesh(mesh, args.out)
    print(f"wrote {args.out}: {mesh.n_vertices} vertices, {mesh.n_cells} cells")
    return 0


def _cmd_mesh_cluster(args) -> int:
    mesh = load_mesh(args.mesh)
    partition = cluster_partition(mesh, args.clusters, args.seed)
    save_partition(partition, args.out)
    counts = np.bincount(partition.cluster_of)
    print(f"wrote {args.out}: {partition.n_clusters} clusters, sizes {counts.min()}..{counts.max()}")
    return 0


def _cmd_simulate(args) -> int:
    case = _load_case(args)
    rng = sample_rng(args.seed, args.sample)
    meas, _ = build_models(case)
    prior = build_prior(meas.param, case.measurement.gammas)
    noise = build_noise_cov_for_side(meas, case.measurement.deltas)
    target = draw_target(meas, prior, rng)
    record = simulate_measurements(meas, target, noise, rng)
    harness.write_measurement(record, args.out)
    print(f"wrote measurement record to {args.out} (case {case.name}, seed {args.seed})")
    return 0


def _cmd_reconstruct(args) -> int:
    case = _load_case(args)
    method = str(args.order) if args.order else ",".join(["1"] * args.sequential)
    upsilon, target, _ = harness.read_measurement(args.data)
    _check_point(Path(args.data) / "record.json", "target", case, "measurement", target)
    recon = Reconstructor(harness.build_side(case, case.reconstruction))
    outcome = recon.run(method, recon.item(upsilon))
    harness.write_reconstruction(outcome, args.out)
    print(f"wrote reconstruction ({method}) to {args.out}")
    return 0


def _cmd_experiment1(args) -> int:
    case = _load_case(args)
    methods = harness.METHODS if args.methods is None else tuple(args.methods.split(";"))
    result = harness.experiment1(
        case, methods=methods, n_samples=args.samples, seed=args.seed
    )
    harness.write_experiment1_csv(result, args.out)
    for row in result.summary_rows():
        print(
            f"({row['method']}) log10 mean res_rel = {row['log10_mean_res_rel']:+.3f}"
            f"  log10 mean err = {row['log10_mean_err']:+.3f}"
        )
    print(f"wrote statistics to {args.out}")
    return 0


def _cmd_experiment2(args) -> int:
    case = _load_case(args)
    try:
        s_values = [float(tok) for tok in args.s_grid.split(",") if tok.strip()]
    except ValueError as exc:  # float names the token
        raise ValueError(f"--s-grid: {exc}") from None
    result = harness.experiment2(case, s_values, seed=args.seed)
    harness.write_experiment2_csv(result, args.out)
    print(f"wrote scaling curves for {len(s_values)} factors to {args.out}")
    return 0


def _cmd_indicators(args) -> int:
    case = _load_case(args)
    upsilon_data, target, _ = harness.read_measurement(args.data)
    upsilon_i = harness.read_reconstruction(args.recon)
    _check_point(Path(args.data) / "record.json", "target", case, "measurement", target)
    _check_point(args.recon, "upsilon", case, "reconstruction", upsilon_i)
    meas, rec = build_models(case)
    lam0 = side_forward_map(rec, rec.param.zero())
    ind = indicators(rec, meas, upsilon_i, target, upsilon_data, lam0)
    row = {
        "res": repr(ind.res),
        "res_rel": repr(ind.res_rel),
        "err": repr(ind.err),
        "err_rel": repr(ind.err_rel),
    }
    if args.out:
        with open(args.out, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(row))
            writer.writeheader()
            writer.writerow(row)
    print(" ".join(f"{k}={v}" for k, v in row.items()))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eitrev",
        description="Smoothened complete electrode model with series-reversion reconstruction",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    case_args = argparse.ArgumentParser(add_help=False)
    case_args.add_argument("--case", default=None, choices=sorted(CASES))
    case_args.add_argument("--config", default=None)

    p = sub.add_parser("mesh", help="mesh utilities")
    mesh_sub = p.add_subparsers(dest="mesh_command", required=True)
    g = mesh_sub.add_parser("gen", help="generate a unit-disk mesh")
    g.add_argument("--level", type=int, required=True)
    g.add_argument("--out", required=True)
    g.set_defaults(func=_cmd_mesh_gen)
    c = mesh_sub.add_parser("cluster", help="partition mesh cells into clusters")
    c.add_argument("--mesh", required=True)
    c.add_argument("--clusters", type=int, required=True)
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--out", required=True)
    c.set_defaults(func=_cmd_mesh_cluster)

    s = sub.add_parser("simulate", help="simulate one noisy measurement", parents=[case_args])
    s.add_argument("--seed", type=int, default=1)
    s.add_argument("--sample", type=int, default=0)
    s.add_argument("--out", required=True)
    s.set_defaults(func=_cmd_simulate)

    r = sub.add_parser(
        "reconstruct", help="reconstruct from a measurement record", parents=[case_args]
    )
    r.add_argument("--data", required=True, help="directory written by simulate")
    mode = r.add_mutually_exclusive_group(required=True)
    mode.add_argument("--order", type=int, choices=(1, 2, 3))
    mode.add_argument("--sequential", type=int, choices=(1, 2, 3))
    r.add_argument("--out", required=True)
    r.set_defaults(func=_cmd_reconstruct)

    e1 = sub.add_parser("experiment1", help="statistics over prior draws", parents=[case_args])
    e1.add_argument("--samples", type=int, default=None)
    e1.add_argument("--seed", type=int, default=None)
    e1.add_argument("--methods", default=None, help="semicolon-separated subset, e.g. '1;2;1,1'")
    e1.add_argument("--out", required=True)
    e1.set_defaults(func=_cmd_experiment1)

    e2 = sub.add_parser("experiment2", help="scaling study for a single draw", parents=[case_args])
    e2.add_argument("--s-grid", required=True, help="comma-separated scaling factors")
    e2.add_argument("--seed", type=int, default=None)
    e2.add_argument("--out", required=True)
    e2.set_defaults(func=_cmd_experiment2)

    i = sub.add_parser(
        "indicators", help="evaluate indicators for a reconstruction", parents=[case_args]
    )
    i.add_argument("--data", required=True)
    i.add_argument("--recon", required=True)
    i.add_argument("--out", default=None)
    i.set_defaults(func=_cmd_indicators)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand and return its exit status.

    A rejected input is one stderr line and exit status 2; so is a rejected
    command line, after argparse's usage line, and an input whose system
    matrix is not positive definite.
    """
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse has written its message
        return exc.code
    try:
        return args.func(args)
    except (ValueError, OSError, IndefiniteSystemError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
