"""Command-line entry points: configs, reports, and exit codes."""
import csv
import json

import pytest

from translocal import cli, maps


def run_cli(args):
    return cli.main(args)


def test_list_names_all_catalogue_maps(capsys):
    assert run_cli(["list"]) == 0
    out = capsys.readouterr().out
    for name in ("tripling", "pomeau-manneville", "staircase"):
        assert name in out
    assert "disk" not in out


EXAMPLE_PARAMETERS = {"<matrix>": "2,0;0,3", "<k>": "3", "<id>": "g3branch",
                      "<r>": "2"}


def test_every_listed_system_id_resolves(capsys):
    assert run_cli(["list"]) == 0
    out = capsys.readouterr().out
    listed = out.split("systems:\n")[1].split("measures:\n")[0].split()
    assert "iterate:<id>:<r>" in listed
    for sid in listed:
        for placeholder, example in EXAMPLE_PARAMETERS.items():
            sid = sid.replace(placeholder, example)
        assert "<" not in sid
        assert maps.get_system(sid).name


def write_config(path, text):
    path.write_text(text)
    return str(path)


def test_run_translocal_writes_csv_and_json(tmp_path, capsys):
    cfg = write_config(tmp_path / "exp.ini", """
[experiment]
kind = translocal
system = tripling
point = circle:0.3
omega = 0.5

[schedule]
n_min = 6
n_max = 12
""")
    csv_path = tmp_path / "out.csv"
    json_path = tmp_path / "out.json"
    code = run_cli(["run", cfg, "--csv", str(csv_path),
                    "--json", str(json_path)])
    assert code == 0
    with csv_path.open() as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 1
    assert list(rows[0]) == list(cli.CSV_COLUMNS)
    assert rows[0]["system"] == "tripling"
    assert float(rows[0]["rel_error"]) < 0.10
    summary = json.loads(json_path.read_text())
    assert summary["passed"] is True
    assert summary["rows"] == 1


def test_runs_are_deterministic(tmp_path, capsys):
    cfg = write_config(tmp_path / "exp.ini", """
[experiment]
kind = translocal
system = tripling
point = circle:0.3
omega = 0.4

[schedule]
n_min = 6
n_max = 10
""")
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run_cli(["run", cfg, "--csv", str(a)])
    run_cli(["run", cfg, "--csv", str(b)])
    assert a.read_text() == b.read_text()


def test_unknown_system_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path / "bad.ini", """
[experiment]
kind = translocal
system = nosuchmap
point = circle:0.3
""")
    assert run_cli(["run", cfg]) == 2
    assert "nosuchmap" in capsys.readouterr().err


def test_missing_section_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path / "empty.ini", "[other]\nx = 1\n")
    assert run_cli(["run", cfg]) == 2


def test_kraft_config(tmp_path, capsys):
    cfg = write_config(tmp_path / "kraft.ini", """
[experiment]
kind = kraft
lengths = 1,2
""")
    assert run_cli(["run", cfg]) == 0
    out = capsys.readouterr().out
    assert "0.4812" in out


def test_lyapunov_config(tmp_path, capsys):
    cfg = write_config(tmp_path / "lyap.ini", """
[experiment]
kind = lyapunov
system = tripling
point = circle:0.3
""")
    assert run_cli(["run", cfg]) == 0
    out = capsys.readouterr().out
    assert "1.0986" in out


@pytest.mark.parametrize("kind", ["translocal", "restricted-entropy",
                                  "yz-function"])
def test_point_outside_the_system_space_exits_2(tmp_path, capsys, kind):
    cfg = write_config(tmp_path / "mismatch.ini", f"""
[experiment]
kind = {kind}
system = pomeau-manneville
point = circle:0.3
""")
    assert run_cli(["run", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert "'circle'" in err and "'interval'" in err
    assert "Traceback" not in err


def test_singular_orbit_exits_1_without_traceback(tmp_path, capsys):
    cfg = write_config(tmp_path / "singular.ini", """
[experiment]
kind = lyapunov
system = g3branch
point = circle:0.455118552
""")
    assert run_cli(["run", cfg]) == 1
    err = capsys.readouterr().err
    assert err.startswith("numeric failure:")
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("system,point", [("disk", "0.5/1.0"),
                                          ("disk", "circle:0.3"),
                                          ("tripling", "disk:0.5/1.0")])
def test_disk_system_or_point_exits_2(tmp_path, capsys, system, point):
    # the disk is not in the catalogue, and `disk:` is no point tag
    cfg = write_config(tmp_path / "disk.ini", f"""
[experiment]
kind = translocal
system = {system}
point = {point}
""")
    assert run_cli(["run", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "disk" in err
    assert "Traceback" not in err


def test_estimate_warning_reaches_the_csv(tmp_path, capsys):
    # a Dirac mass at the fixed point 0 gives the ball around 0.3 no mass
    cfg = write_config(tmp_path / "bk.ini", """
[experiment]
kind = brin-katok
system = tripling
measure = dirac:circle:0
points = circle:0.3;circle:0

[schedule]
n_min = 2
n_max = 5
""")
    csv_path = tmp_path / "bk.csv"
    assert run_cli(["run", cfg, "--csv", str(csv_path)]) == 0
    with csv_path.open() as fh:
        rows = list(csv.DictReader(fh))
    assert [row["warning"] for row in rows] == ["zero-measure ball", ""]
