"""Batch command line interface.

Subcommands cover mesh generation and clustering, measurement simulation,
single reconstructions, the two experiment drivers, and indicator evaluation.
All outputs are plain text: mesh/partition files, CSV statistics, and JSON
records.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

import numpy as np

from . import harness
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
    data = {}
    if getattr(args, "config", None):
        data = json.loads(Path(args.config).read_text())
    data.setdefault("case", args.case)
    return case_from_config(data)


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
    meas, _ = build_models(case)
    prior = build_prior(meas.param, case.measurement.gammas)
    noise = build_noise_cov_for_side(meas, case.measurement.deltas)
    rng = sample_rng(args.seed, args.sample)
    target = draw_target(meas, prior, rng)
    record = simulate_measurements(meas, target, noise, rng)
    harness.write_measurement(record, args.out)
    print(f"wrote measurement record to {args.out} (case {case.name}, seed {args.seed})")
    return 0


def _cmd_reconstruct(args) -> int:
    case = _load_case(args)
    if (args.order is None) == (args.sequential is None):
        print("exactly one of --order or --sequential is required", file=sys.stderr)
        return 2
    method = str(args.order) if args.order else ",".join(["1"] * args.sequential)
    _, rec = build_models(case)
    recon = Reconstructor(rec)
    upsilon, _, _ = harness.read_measurement(args.data)
    outcome = recon.run(method, upsilon)
    harness.write_reconstruction(outcome, args.out)
    print(f"wrote reconstruction ({method}) to {args.out}")
    return 0


def _cmd_experiment1(args) -> int:
    case = _load_case(args)
    methods = tuple(args.methods.split(";")) if args.methods else harness.METHODS
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
    s_values = [float(tok) for tok in args.s_grid.split(",") if tok.strip()]
    result = harness.experiment2(case, s_values, seed=args.seed)
    harness.write_experiment2_csv(result, args.out)
    print(f"wrote scaling curves for {len(s_values)} factors to {args.out}")
    return 0


def _cmd_indicators(args) -> int:
    case = _load_case(args)
    meas, rec = build_models(case)
    lam0 = side_forward_map(rec, rec.param.zero())
    upsilon_data, target, _ = harness.read_measurement(args.data)
    rec_json = json.loads(Path(args.recon).read_text())
    upsilon_i = harness.param_from_json(rec_json["upsilon"])
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

    s = sub.add_parser("simulate", help="simulate one noisy measurement")
    s.add_argument("--case", default="C1", choices=sorted(CASES))
    s.add_argument("--config", default=None)
    s.add_argument("--seed", type=int, default=1)
    s.add_argument("--sample", type=int, default=0)
    s.add_argument("--out", required=True)
    s.set_defaults(func=_cmd_simulate)

    r = sub.add_parser("reconstruct", help="reconstruct from a measurement record")
    r.add_argument("--case", default="C1", choices=sorted(CASES))
    r.add_argument("--config", default=None)
    r.add_argument("--data", required=True, help="directory written by simulate")
    r.add_argument("--order", type=int, choices=(1, 2, 3), default=None)
    r.add_argument("--sequential", type=int, choices=(1, 2, 3), default=None)
    r.add_argument("--out", required=True)
    r.set_defaults(func=_cmd_reconstruct)

    e1 = sub.add_parser("experiment1", help="statistics over prior draws")
    e1.add_argument("--case", default="C1", choices=sorted(CASES))
    e1.add_argument("--config", default=None)
    e1.add_argument("--samples", type=int, default=None)
    e1.add_argument("--seed", type=int, default=None)
    e1.add_argument("--methods", default=None, help="semicolon-separated subset, e.g. '1;2;1,1'")
    e1.add_argument("--out", required=True)
    e1.set_defaults(func=_cmd_experiment1)

    e2 = sub.add_parser("experiment2", help="scaling study for a single draw")
    e2.add_argument("--case", default="C1", choices=sorted(CASES))
    e2.add_argument("--config", default=None)
    e2.add_argument("--s-grid", required=True, help="comma-separated scaling factors")
    e2.add_argument("--seed", type=int, default=None)
    e2.add_argument("--out", required=True)
    e2.set_defaults(func=_cmd_experiment2)

    i = sub.add_parser("indicators", help="evaluate indicators for a reconstruction")
    i.add_argument("--case", default="C1", choices=sorted(CASES))
    i.add_argument("--config", default=None)
    i.add_argument("--data", required=True)
    i.add_argument("--recon", required=True)
    i.add_argument("--out", default=None)
    i.set_defaults(func=_cmd_indicators)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
