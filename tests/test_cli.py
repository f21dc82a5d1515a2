"""Command-line entry points: configs, reports, and exit codes."""
import csv
import json
import math

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


def test_kraft_family_of_explicit_words(tmp_path, capsys):
    # the words 0 and 01 have lengths 1 and 2: the root is log(golden ratio)
    cfg = write_config(tmp_path / "kraft-words.ini", """
[experiment]
kind = kraft
family = codedshift:words:0,01
""")
    assert run_cli(["run", cfg]) == 0
    assert "0.4812118250596" in capsys.readouterr().out


def test_kraft_root_beyond_log_two(tmp_path, capsys):
    cfg = write_config(tmp_path / "kraft-four.ini", """
[experiment]
kind = kraft
lengths = 1,1,1,1
""")
    assert run_cli(["run", cfg]) == 0
    out = capsys.readouterr().out
    # log 4 = 1.38629436111989..., checked against n equal lengths' log(n)/L
    assert "1.3862943611" in out
    summary = json.loads(out.splitlines()[-1])
    assert summary["passed"] is True and summary["max_rel_error"] is not None


def test_kraft_rel_error_is_relative(tmp_path, capsys):
    cfg = write_config(tmp_path / "kraft.ini", """
[experiment]
kind = kraft
lengths = 1,2
""")
    csv_path = tmp_path / "kraft.csv"
    assert run_cli(["run", cfg, "--csv", str(csv_path)]) == 0
    with csv_path.open() as fh:
        (row,) = list(csv.DictReader(fh))
    golden = math.log((1.0 + math.sqrt(5.0)) / 2.0)
    assert float(row["expected"]) == golden
    assert float(row["rel_error"]) == \
        abs(float(row["value"]) - golden) / golden


@pytest.mark.parametrize("system, potential, slopes, t", [
    ("tripling", "zero", (3, 3, 3), 0.0),
    ("g3branch", "zero", (2, 4, 4), 0.0),
    ("g3branch", "geometric:0.5", (2, 4, 4), 0.5),
    ("g3branch", "geometric:1", (2, 4, 4), 1.0),
])
def test_pressure_oracle_reads_the_branch_slopes(tmp_path, capsys, system,
                                                 potential, slopes, t):
    # any full-branch affine circle map is checked against Bowen's formula
    # log sum_i s_i^-t, whatever its name
    cfg = write_config(tmp_path / "pressure.ini", f"""
[experiment]
kind = pressure
system = {system}
potential = {potential}
""")
    csv_path = tmp_path / "pressure.csv"
    assert run_cli(["run", cfg, "--csv", str(csv_path)]) == 0
    with csv_path.open() as fh:
        (row,) = list(csv.DictReader(fh))
    want = math.log(sum(s ** -t for s in slopes))
    assert float(row["expected"]) == pytest.approx(want, rel=1e-15,
                                                   abs=1e-15)
    assert float(row["rel_error"]) <= 1e-9


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


def test_brin_katok_on_a_tripling_iterate_expects_power_log_3(tmp_path,
                                                              capsys):
    cfg = write_config(tmp_path / "bk.ini", """
[experiment]
kind = brin-katok
system = iterate:tripling:3
measure = lebesgue-circle
point = circle:0.3141592
""")
    csv_path = tmp_path / "bk.csv"
    assert run_cli(["run", cfg, "--csv", str(csv_path)]) == 0
    with csv_path.open() as fh:
        (row,) = list(csv.DictReader(fh))
    assert float(row["expected"]) == pytest.approx(3 * math.log(3.0))
    assert float(row["rel_error"]) <= 0.05


def test_bowen_ball_with_several_arcs_exits_2(tmp_path, capsys):
    # eps 0.2 exceeds 1/(s + 1) = 0.1 for the slope-9 map
    cfg = write_config(tmp_path / "bk.ini", """
[experiment]
kind = brin-katok
system = iterate:tripling:2
measure = lebesgue-circle
point = circle:0.3

[schedule]
epsilons = 0.2
""")
    assert run_cli(["run", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "1/(s + 1)" in err
    assert err.count("\n") == 1 and "Traceback" not in err
