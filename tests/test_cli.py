"""Command line interface: every subcommand end to end on temporary files."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import eitrev
from eitrev import harness
from eitrev.cli import _load_case, build_parser, main
from eitrev.harness import read_matrix
from eitrev.mesh import generate_disk_mesh, load_mesh, load_partition, save_mesh


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("cli")


def test_mesh_gen_and_cluster(workdir):
    mesh_path = workdir / "mesh.txt"
    part_path = workdir / "part.txt"
    assert main(["mesh", "gen", "--level", "2", "--out", str(mesh_path)]) == 0
    mesh = load_mesh(mesh_path)
    assert mesh.n_cells == 128
    assert (
        main(
            [
                "mesh",
                "cluster",
                "--mesh",
                str(mesh_path),
                "--clusters",
                "16",
                "--seed",
                "2",
                "--out",
                str(part_path),
            ]
        )
        == 0
    )
    part = load_partition(mesh, part_path)
    assert part.n_clusters == 16


def test_simulate_reconstruct_indicators(workdir):
    sim_dir = workdir / "sim"
    rec_path = workdir / "rec.json"
    ind_path = workdir / "ind.csv"
    assert main(["simulate", "--case", "C1", "--seed", "4", "--out", str(sim_dir)]) == 0
    assert (sim_dir / "upsilon.txt").exists()
    upsilon = read_matrix(sim_dir / "upsilon.txt")
    assert upsilon.shape == (15, 15)
    assert (
        main(
            [
                "reconstruct",
                "--case",
                "C1",
                "--data",
                str(sim_dir),
                "--order",
                "2",
                "--out",
                str(rec_path),
            ]
        )
        == 0
    )
    record = json.loads(rec_path.read_text())
    assert record["method"] == "2"
    assert (
        main(
            [
                "indicators",
                "--case",
                "C1",
                "--data",
                str(sim_dir),
                "--recon",
                str(rec_path),
                "--out",
                str(ind_path),
            ]
        )
        == 0
    )
    text = ind_path.read_text().splitlines()
    assert text[0] == "res,res_rel,err,err_rel"
    values = [float(tok) for tok in text[1].split(",")]
    assert values[1] < 1.0  # the reconstruction improves on the initial guess


def test_reconstruct_requires_exactly_one_mode(workdir, tmp_path, capsys):
    sim_dir = workdir / "sim"
    out = tmp_path / "rec.json"
    argv = ["reconstruct", "--case", "C1", "--data", str(sim_dir), "--out", str(out)]
    for modes in ([], ["--order", "1", "--sequential", "2"]):
        assert main(argv + modes) == 2
        assert "--order" in capsys.readouterr().err.splitlines()[-1]
        assert not out.exists()


def test_sequential_reconstruction(workdir):
    sim_dir = workdir / "sim"
    rec_path = workdir / "rec_seq.json"
    assert (
        main(
            [
                "reconstruct",
                "--case",
                "C1",
                "--data",
                str(sim_dir),
                "--sequential",
                "2",
                "--out",
                str(rec_path),
            ]
        )
        == 0
    )
    record = json.loads(rec_path.read_text())
    assert record["method"] == "1,1"
    assert len(record["components"]) == 2


def test_experiment1_cli(workdir):
    out_dir = workdir / "exp1"
    assert (
        main(
            [
                "experiment1",
                "--case",
                "C1",
                "--samples",
                "2",
                "--seed",
                "3",
                "--methods",
                "1;1,1",
                "--out",
                str(out_dir),
            ]
        )
        == 0
    )
    summary = (out_dir / "summary.csv").read_text().splitlines()
    assert summary[0] == "method,log10_mean_res_rel,log10_mean_err"
    assert len(summary) == 4  # header + (0) + two methods
    assert (out_dir / "samples.csv").exists()
    assert (out_dir / "distributions.csv").exists()


def test_experiment2_cli(workdir):
    out_dir = workdir / "exp2"
    assert (
        main(
            [
                "experiment2",
                "--case",
                "C1",
                "--s-grid",
                "0.5,1.0",
                "--seed",
                "5",
                "--out",
                str(out_dir),
            ]
        )
        == 0
    )
    curves = (out_dir / "curves.csv").read_text().splitlines()
    assert curves[0].startswith("s,ref_res,ref_err")
    assert len(curves) == 3


def test_config_override(workdir, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"measurement": {"deltas": [0.0, 0.0]}}))
    sim_dir = workdir / "sim_quiet"
    assert (
        main(
            [
                "simulate",
                "--case",
                "C1",
                "--config",
                str(cfg),
                "--seed",
                "4",
                "--out",
                str(sim_dir),
            ]
        )
        == 0
    )
    meta = json.loads((sim_dir / "record.json").read_text())
    assert meta["deltas"] == [0.0, 0.0]


def test_module_runs_main_and_exits_with_its_status(tmp_path):
    """``python -m eitrev.cli`` runs :func:`main`; the one test that starts a process."""
    env = dict(os.environ, PYTHONPATH=str(Path(eitrev.__file__).parents[1]))
    argv = ["experiment2", "--s-grid", ",", "--out", str(tmp_path / "out")]
    proc = subprocess.run(
        [sys.executable, "-m", "eitrev.cli", *argv], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 2
    assert proc.stderr == "ValueError: the grid of scaling factors is empty\n"
    assert not (tmp_path / "out").exists()


def _run_cli(argv, capsys):
    """Exit status and stderr of ``eitrev`` with ``argv``, run in this process."""
    status = main(argv)
    return status, capsys.readouterr().err


def test_unknown_method_exits_nonzero(tmp_path, capsys):
    argv = ["experiment1", "--samples", "1", "--methods", "1;4", "--out", str(tmp_path)]
    status, err = _run_cli(argv, capsys)
    assert status != 0
    assert "unknown method '4'" in err
    assert not (tmp_path / "summary.csv").exists()


def test_repeated_method_exits_nonzero(tmp_path, capsys):
    out = tmp_path / "out"
    argv = ["experiment1", "--case", "C1", "--samples", "2", "--seed", "1"]
    status, err = _run_cli(argv + ["--methods", "1;1", "--out", str(out)], capsys)
    assert status == 2
    assert err == "ValueError: method '1' is given twice\n"
    assert not out.exists()


def test_zero_samples_exits_nonzero(tmp_path, capsys):
    argv = ["experiment1", "--samples", "0", "--methods", "1", "--out", str(tmp_path)]
    status, err = _run_cli(argv, capsys)
    assert status != 0
    assert "n_samples must be at least 1" in err
    assert not (tmp_path / "summary.csv").exists()


def test_one_sample_gives_finite_means(tmp_path):
    argv = ["experiment1", "--case", "C1", "--samples", "1", "--methods", "1", "--out"]
    assert main(argv + [str(tmp_path)]) == 0
    rows = (tmp_path / "summary.csv").read_text().splitlines()[1:]
    assert [row.split(",")[0] for row in rows] == ["0", "1"]
    means = [float(value) for row in rows for value in row.split(",")[1:]]
    assert all(math.isfinite(value) for value in means)
    samples = (tmp_path / "samples.csv").read_text().splitlines()
    assert samples[0].split(",")[2] == "retained" and samples[1].split(",")[2] == "1"


def test_empty_grid_exits_nonzero(tmp_path, capsys):
    status, err = _run_cli(["experiment2", "--s-grid", ",", "--out", str(tmp_path)], capsys)
    assert status != 0
    assert "grid of scaling factors is empty" in err
    assert not (tmp_path / "curves.csv").exists()


def test_bad_config_value_exits_nonzero(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"measurement": {"deltas": [1e-4]}}))
    status, err = _run_cli(["experiment1", "--config", str(cfg), "--out", str(tmp_path)], capsys)
    assert status != 0
    last = err.strip().splitlines()[-1]
    assert last.startswith("ValueError") and "deltas" in last
    assert not (tmp_path / "summary.csv").exists()


@pytest.mark.parametrize(
    "config, key",
    [
        ({"measurement": [1, 2]}, "measurement"),
        ({"measurement": {"deltas": 5}}, "deltas"),
        ({"electrode_radius": "a"}, "electrode_radius"),
        ([1, 2], "configuration"),
        ({"contact_radius": 0.2}, "contact_radius"),
        ({"n_samples": "3"}, "n_samples"),
        ({"mu_kappa": 10**400}, "mu_kappa"),
        ({"measurement": {"gammas": {"gamma_kappa": 1e200}}}, "gamma_kappa"),
        ({"mu_zeta": -800}, "mu_zeta"),
    ],
    ids=[
        "side-list",
        "deltas-number",
        "radius-string",
        "top-level-list",
        "radii",
        "n_samples",
        "huge-int",
        "square-overflows",
        "exponential-underflows",
    ],
)
def test_config_value_of_wrong_type_is_one_error_line(tmp_path, config, key, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "out"
    argv = ["experiment1", "--config", str(cfg), "--samples", "1", "--out", str(out)]
    status, err = _run_cli(argv, capsys)
    assert status == 2
    assert err.splitlines() == [err.strip()]
    assert err.startswith("ValueError: ") and key in err
    assert not out.exists()


def test_config_whose_system_is_indefinite_is_one_error_line(tmp_path, capsys):
    """``mu_kappa`` 700 passes the config check, but its conductivity breaks the system."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"case": "C1", "mu_kappa": 700}))
    out = tmp_path / "out"
    status, err = _run_cli(["simulate", "--config", str(cfg), "--out", str(out)], capsys)
    assert status == 2
    assert err.splitlines() == [err.strip()]
    assert err.startswith(
        "IndefiniteSystemError: assembled system is not positive definite: pivot "
    )
    assert "in elimination order is -" in err and "min/max |pivot| ratio is " in err
    assert not out.exists()


def test_missing_config_file_is_one_error_line(tmp_path, capsys):
    missing = tmp_path / "absent.json"
    argv = ["simulate", "--config", str(missing), "--out", str(tmp_path / "sim")]
    status, err = _run_cli(argv, capsys)
    assert status == 2
    assert err.splitlines() == [err.strip()]
    assert err.startswith("FileNotFoundError: ") and str(missing) in err


@pytest.mark.parametrize("bad", ["token", "token-count"])
def test_malformed_mesh_file_is_one_error_line(tmp_path, capsys, bad):
    mesh_path = tmp_path / "mesh.txt"
    if bad == "token":
        mesh_path.write_text("dim 2\nvertices 3\n0 0\n1 0\n0 one\ncells 1\n0 1 2\n")
        line = "line 5"
    else:
        save_mesh(generate_disk_mesh(0), mesh_path)
        lines = mesh_path.read_text().splitlines()
        lines[3] = "0.0 0.0 0.0"
        mesh_path.write_text("\n".join(lines) + "\n")
        line = "line 4"
    argv = ["mesh", "cluster", "--mesh", str(mesh_path), "--clusters", "1"]
    status, err = _run_cli(argv + ["--out", str(tmp_path / "part.txt")], capsys)
    assert status == 2
    assert err.splitlines() == [err.strip()]
    assert err.startswith(f"MeshFormatError: malformed mesh file {mesh_path}: {line}: ")
    assert not (tmp_path / "part.txt").exists()


@pytest.mark.parametrize(
    "argv, config",
    [
        (["mesh", "cluster", "--clusters", "1", "--seed", "-1"], None),
        (["experiment1", "--samples", "1", "--seed", "-1"], None),
        (["experiment1", "--samples", "1"], {"cluster_seed": -3}),
    ],
    ids=["mesh-cluster", "experiment1", "config-cluster-seed"],
)
def test_out_of_range_seed_is_one_error_line(tmp_path, argv, config, capsys):
    out = tmp_path / "out"
    if argv[0] == "mesh":
        mesh_path = tmp_path / "mesh.txt"
        mesh_path.write_text("dim 2\nvertices 3\n0 0\n1 0\n0 1\ncells 1\n0 1 2\n")
        argv = argv + ["--mesh", str(mesh_path)]
    if config is not None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        argv = argv + ["--config", str(cfg)]
    status, err = _run_cli(argv + ["--out", str(out)], capsys)
    assert status == 2
    assert err.splitlines() == [err.strip()]
    assert err.startswith("ValueError: ")
    assert "seed must be an integer in 0..2**64-1" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "grid, message",
    [
        ("nan", "ValueError: scaling factors must be positive and finite"),
        ("0.5,inf", "ValueError: scaling factors must be positive and finite"),
        ("0.5,abc", "ValueError: --s-grid: could not convert string to float: 'abc'"),
    ],
    ids=["nan", "0.5,inf", "0.5,abc"],
)
def test_non_finite_grid_is_one_error_line(tmp_path, grid, message, capsys):
    argv = ["experiment2", "--s-grid", grid, "--out", str(tmp_path / "out")]
    status, err = _run_cli(argv, capsys)
    assert status == 2
    assert err.splitlines() == [err.strip()]
    assert err.startswith(message)
    assert not (tmp_path / "out").exists()


@pytest.fixture(scope="module")
def recorded(workdir):
    """A simulated C1 measurement and an order-one reconstruction from it."""
    sim_dir, rec_path = workdir / "recorded", workdir / "recorded.json"
    assert main(["simulate", "--seed", "4", "--out", str(sim_dir)]) == 0
    argv = ["reconstruct", "--data", str(sim_dir), "--order", "1", "--out", str(rec_path)]
    assert main(argv) == 0
    return sim_dir, rec_path


def _cut_to_first_row(sim_dir, tmp_path):
    cut = tmp_path / "cut"
    cut.mkdir()
    (cut / "record.json").write_text((sim_dir / "record.json").read_text())
    lines = (sim_dir / "upsilon.txt").read_text().splitlines()
    (cut / "upsilon.txt").write_text(lines[0] + "\n")
    return cut


@pytest.mark.parametrize("command", ["reconstruct", "indicators"])
def test_data_matrix_of_the_wrong_shape_exits_2(recorded, tmp_path, capsys, command):
    sim_dir, rec_path = recorded
    cut = _cut_to_first_row(sim_dir, tmp_path)
    out = tmp_path / "out"
    if command == "reconstruct":
        argv = ["reconstruct", "--data", str(cut), "--order", "1", "--out", str(out)]
    else:
        argv = ["indicators", "--data", str(cut), "--recon", str(rec_path), "--out", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.splitlines() == [err.strip()]
    assert err.startswith("ValueError: ") and "(1, 15)" in err and "(15, 15)" in err
    assert not out.exists()


@pytest.mark.parametrize("record", ["reconstruction", "measurement"])
def test_malformed_record_file_exits_2(recorded, tmp_path, capsys, record):
    sim_dir, rec_path = recorded
    out = tmp_path / "out"
    if record == "reconstruction":
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"method": "1"}))
        argv = ["indicators", "--data", str(sim_dir), "--recon", str(bad), "--out", str(out)]
        key = "'upsilon'"
    else:
        data = tmp_path / "sim"
        data.mkdir()
        (data / "upsilon.txt").write_text((sim_dir / "upsilon.txt").read_text())
        meta = json.loads((sim_dir / "record.json").read_text())
        del meta["target"]["rho"]
        bad = data / "record.json"
        bad.write_text(json.dumps(meta))
        argv = ["reconstruct", "--data", str(data), "--order", "1", "--out", str(out)]
        key = "'rho'"
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.splitlines() == [err.strip()]
    assert err.startswith("ValueError: ") and str(bad) in err and key in err
    assert not out.exists()


@pytest.mark.parametrize(
    "flag, config, expect",
    [
        (None, None, "C1"),
        ("C2", None, "C2"),
        (None, {"case": "C3"}, "C3"),
        ("C3", {"case": "C3"}, "C3"),
        ("C2", {"n_samples": 4}, "C2"),
    ],
)
def test_case_comes_from_the_flag_or_the_config(tmp_path, flag, config, expect):
    argv = ["simulate", "--out", str(tmp_path / "sim")]
    if flag is not None:
        argv += ["--case", flag]
    if config is not None:
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(config))
        argv += ["--config", str(cfg)]
    assert _load_case(build_parser().parse_args(argv)).name == expect


def test_case_flag_differing_from_the_config_exits_2(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"case": "C3"}))
    out = tmp_path / "sim"
    assert main(["simulate", "--case", "C2", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.splitlines() == [err.strip()]
    assert err.startswith("ValueError: ") and "C2" in err and "'C3'" in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["reconstruct", "indicators"])
def test_target_that_does_not_fit_the_case_exits_2(recorded, tmp_path, capsys, command):
    sim_dir, rec_path = recorded
    data = tmp_path / "sim"
    data.mkdir()
    (data / "upsilon.txt").write_text((sim_dir / "upsilon.txt").read_text())
    meta = json.loads((sim_dir / "record.json").read_text())
    meta["target"]["kappa"] = meta["target"]["kappa"][:3]
    (data / "record.json").write_text(json.dumps(meta))
    out = tmp_path / "out"
    if command == "reconstruct":
        argv = ["reconstruct", "--data", str(data), "--order", "1", "--out", str(out)]
    else:
        argv = ["indicators", "--data", str(data), "--recon", str(rec_path), "--out", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.splitlines() == [err.strip()]
    assert err.startswith("ValueError: ") and str(data / "record.json") in err
    assert "'kappa'" in err and "(3,)" in err and "(80,)" in err
    assert not out.exists()


def _with_target(sim_dir, tmp_path, target):
    """A copy of the measurement record in ``sim_dir`` with another target."""
    data = tmp_path / "sim"
    data.mkdir()
    (data / "upsilon.txt").write_text((sim_dir / "upsilon.txt").read_text())
    meta = json.loads((sim_dir / "record.json").read_text())
    meta["target"] = target
    (data / "record.json").write_text(json.dumps(meta))
    return data


@pytest.fixture
def partitions(monkeypatch):
    """The cluster counts of every partition made while the test runs."""
    counts = []
    partition = harness.cluster_partition

    def counted(mesh, n_clusters, seed):
        counts.append(n_clusters)
        return partition(mesh, n_clusters, seed=seed)

    monkeypatch.setattr(harness, "cluster_partition", counted)
    return counts


def test_reconstruct_partitions_only_the_reconstruction_side(recorded, tmp_path, partitions):
    """C3 measures on L4/200 cem and reconstructs on L3/80 smooth: one partition, of L3."""
    sim_dir, _ = recorded
    data = _with_target(sim_dir, tmp_path, {"kappa": [0.0] * 200, "rho": [0.0] * 16})
    out = tmp_path / "rec.json"
    argv = ["reconstruct", "--case", "C3", "--data", str(data), "--order", "1", "--out", str(out)]
    assert main(argv) == 0
    assert partitions == [80]
    assert json.loads(out.read_text())["method"] == "1"


@pytest.mark.parametrize(
    "target, message",
    [
        (
            {"kappa": [0.0] * 80, "rho": [0.0] * 16},
            "target 'kappa' is of shape (80,); "
            "the case's measurement side needs it of shape (200,)",
        ),
        (
            {"kappa": [0.0] * 200, "rho": [0.0] * 16, "xi": [[0.0, 0.0]] * 16},
            "target 'xi' is of shape (16, 2); the case's measurement side needs it absent",
        ),
    ],
    ids=["kappa", "xi"],
)
def test_target_that_does_not_fit_c3_exits_2_before_any_partition(
    recorded, tmp_path, capsys, partitions, target, message
):
    sim_dir, _ = recorded
    data = _with_target(sim_dir, tmp_path, target)
    out = tmp_path / "rec.json"
    argv = ["reconstruct", "--case", "C3", "--data", str(data), "--order", "1", "--out", str(out)]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"ValueError: {data / 'record.json'}: {message}\n"
    assert partitions == []
    assert not out.exists()


@pytest.mark.parametrize("bad", ["token", "ragged", "config"])
def test_unreadable_input_file_is_named(recorded, tmp_path, capsys, bad):
    sim_dir, _ = recorded
    data = tmp_path / "sim"
    data.mkdir()
    (data / "record.json").write_text((sim_dir / "record.json").read_text())
    lines = (sim_dir / "upsilon.txt").read_text().splitlines()
    out = tmp_path / "out"
    argv = ["reconstruct", "--data", str(data), "--order", "1", "--out", str(out)]
    if bad == "token":
        lines[1] = lines[1].replace(lines[1].split()[2], "abc")
        named, detail = data / "upsilon.txt", "line 2"
    elif bad == "ragged":
        lines.append(lines[0] + " 1.0")
        named, detail = data / "upsilon.txt", "line 16"
    else:
        named = tmp_path / "c.json"
        named.write_text('{"case": "C1",\n')
        argv += ["--config", str(named)]
        detail = "line 2"
    (data / "upsilon.txt").write_text("\n".join(lines) + "\n")
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.splitlines() == [err.strip()]
    assert err.startswith("ValueError: ") and str(named) in err and detail in err
    assert not out.exists()


@pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("command", ["reconstruct", "indicators"])
def test_data_matrix_with_an_entry_that_is_not_finite_exits_2(
    recorded, tmp_path, capsys, command, token
):
    sim_dir, rec_path = recorded
    data = tmp_path / "sim"
    data.mkdir()
    (data / "record.json").write_text((sim_dir / "record.json").read_text())
    lines = (sim_dir / "upsilon.txt").read_text().splitlines()
    row = lines[2].split()
    row[5] = token
    lines[2] = " ".join(row)
    (data / "upsilon.txt").write_text("\n".join(lines) + "\n")
    out = tmp_path / "out"
    if command == "reconstruct":
        argv = ["reconstruct", "--data", str(data), "--order", "1", "--out", str(out)]
    else:
        argv = ["indicators", "--data", str(data), "--recon", str(rec_path), "--out", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.splitlines() == [f"ValueError: data[2, 5] is not finite: {token}"]
    assert not out.exists()


def test_reconstruction_whose_exponential_underflows_exits_2(recorded, tmp_path, capsys):
    sim_dir, rec_path = recorded
    record = json.loads(rec_path.read_text())
    record["upsilon"]["rho"] = [-800.0] * len(record["upsilon"]["rho"])
    bad = tmp_path / "rec.json"
    bad.write_text(json.dumps(record))
    out = tmp_path / "out"
    argv = ["indicators", "--data", str(sim_dir), "--recon", str(bad), "--out", str(out)]
    status, err = _run_cli(argv, capsys)
    assert status == 2
    assert err.splitlines() == [
        "ValueError: rho[0] = -800.0 is too small: its exponential underflows"
    ]
    assert not out.exists()


@pytest.mark.parametrize("side", ["measurement", "reconstruction"])
def test_noise_levels_whose_covariance_overflows_exit_2(recorded, tmp_path, capsys, side):
    sim_dir, _ = recorded
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({side: {"deltas": [1e300, 0.0]}}))
    out = tmp_path / "out"
    if side == "measurement":
        argv = ["simulate", "--config", str(cfg), "--out", str(out)]
    else:
        argv = ["reconstruct", "--config", str(cfg), "--data", str(sim_dir), "--order", "1"]
        argv += ["--out", str(out)]
    status, err = _run_cli(argv, capsys)
    assert status == 2
    assert err.splitlines() == [
        "ValueError: deltas (1e+300, 0.0) are too large: their covariance overflows"
    ]
    assert not out.exists()
