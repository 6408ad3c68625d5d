import json
import os

import pytest

from treeirs.cli import main
from treeirs.perm import GeneratedGroup, from_cycles, group_to_json, symmetric_group


def read(path):
    with open(path, "rb") as fh:
        return fh.read()


def write_scheme(tmp_path, generators, d=2):
    path = tmp_path / "scheme.json"
    path.write_text(json.dumps({"d": d, "generators": generators}))
    return str(path)


def test_verify_counting_degree3(tmp_path):
    out = tmp_path / "verify.csv"
    rc = main(["verify-counting", "--degree", "3", "--out", str(out)])
    assert rc == 0
    text = out.read_text().splitlines()
    assert text[0].startswith("lemma,degree,gamma_id")
    assert all(line.endswith("true") for line in text[1:])
    assert os.path.exists(tmp_path / "verify.json")


def test_verify_counting_degree4_row_count_frozen(tmp_path):
    # frozen regression: 271 subgroup-index rows (one vacuous), 270 transporter
    # rows, 60 conjugacy-class rows over the Sym(2) x Sym(3) product
    out = tmp_path / "verify4.csv"
    assert main(["verify-counting", "--degree", "4", "--out", str(out)]) == 0
    rows = json.loads((tmp_path / "verify4.json").read_text())["rows"]
    counts = {}
    for r in rows:
        counts[r[0]] = counts.get(r[0], 0) + 1
    assert counts == {"E1": 271, "index": 270, "E2": 60}


def test_verify_counting_degree1_single_row(tmp_path):
    out = tmp_path / "verify1.csv"
    assert main(["verify-counting", "--degree", "1", "--out", str(out)]) == 0
    data = json.loads((tmp_path / "verify1.json").read_text())
    e1_rows = [r for r in data["rows"] if r[0] == "E1"]
    assert len(e1_rows) == 1 and e1_rows[0][-1] == "true"


def test_simulate_treematch_reproducible_across_workers(tmp_path):
    argv = ["simulate", "--experiment", "treematch", "--d", "2", "--n", "2",
            "--k", "2", "--trials", "2000", "--seed", "7"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(argv + ["--out", str(a), "--workers", "1"]) == 0
    assert main(argv + ["--out", str(b), "--workers", "3"]) == 0
    assert read(a) == read(b)
    assert read(tmp_path / "a.json") == read(tmp_path / "b.json")


def test_simulate_exact_small_value(tmp_path):
    out = tmp_path / "sim.csv"
    assert main(["simulate", "--experiment", "treematch", "--d", "2", "--n", "2",
                 "--k", "2", "--trials", "100000", "--seed", "7",
                 "--out", str(out)]) == 0
    row = json.loads((tmp_path / "sim.json").read_text())["rows"][0]
    p_hat, stderr = float(row[9]), float(row[10])
    assert abs(p_hat - 5 / 9) <= 3 * stderr


def test_simulate_cut1_full_level(tmp_path):
    out = tmp_path / "cut1.csv"
    assert main(["simulate", "--experiment", "cut1", "--d", "2", "--q", "2",
                 "--n", "2", "--k", "8", "--trials", "100", "--out", str(out)]) == 0
    row = json.loads((tmp_path / "cut1.json").read_text())["rows"][0]
    assert float(row[9]) == 1.0


def test_simulate_colormatch_needs_scheme(tmp_path, capsys):
    rc = main(["simulate", "--experiment", "colormatch", "--d", "2", "--n", "2",
               "--k", "1", "--trials", "10", "--out", str(tmp_path / "x.csv")])
    assert rc == 2


def test_simulate_refuses_scheme_of_other_d(tmp_path):
    scheme = write_scheme(tmp_path, [[1, 0, 2, 3], [1, 2, 3, 0]], d=3)
    out = tmp_path / "x.csv"
    rc = main(["simulate", "--experiment", "treematch", "--d", "2", "--n", "3",
               "--k", "2", "--trials", "50", "--scheme", scheme, "--out", str(out)])
    assert rc == 2
    assert not out.exists()


def test_simulate_colormatch_refuses_scheme_of_other_d(tmp_path):
    # without --d the row used to say d=2 while the estimate ran with d=3
    scheme = write_scheme(tmp_path, [[1, 0, 2, 3]], d=3)
    out = tmp_path / "x.csv"
    rc = main(["simulate", "--experiment", "colormatch", "--n", "2", "--k", "2",
               "--trials", "50", "--scheme", scheme, "--out", str(out)])
    assert rc == 2
    assert not out.exists()
    assert main(["simulate", "--experiment", "colormatch", "--d", "3", "--n", "2",
                 "--k", "2", "--trials", "50", "--scheme", scheme,
                 "--out", str(out)]) == 0
    assert out.read_text().splitlines()[1].startswith("colormatch,3,")


@pytest.mark.parametrize("argv,row", [
    (["--experiment", "treematch", "--d", "3", "--n", "2", "--k", "3",
      "--cc-C", "2.0", "--cc-c", "0.5"],
     "treematch,3,2,2,3,,50,1729,25,0.5,0.07071067811865475,1.0971091807145332"),
    (["--experiment", "cut2", "--d", "2", "--q", "3", "--n", "2", "--k", "2",
      "--cc-C", "1.5", "--cc-c", "0.25"],
     "cut2,2,3,2,2,,50,1729,29,0.58,0.06979971346646059,1.1420651686139358"),
])
def test_simulate_bound_value_frozen(tmp_path, argv, row):
    # bound_value = C exp(-c k^alpha) with alpha = (d-1)/(4d), byte for byte
    out = tmp_path / "sim.csv"
    assert main(["simulate", "--trials", "50", "--out", str(out)] + argv) == 0
    assert out.read_text().splitlines()[1] == row


def test_simulate_refuses_bound_constants_out_of_domain(tmp_path):
    # the bound's parameters are checked as in `bounds` and `classify`
    out = tmp_path / "sim.csv"
    for cc in (["--cc-C", "0", "--cc-c", "0.5"], ["--cc-C", "2.0", "--cc-c", "-1"]):
        assert main(["simulate", "--experiment", "treematch", "--n", "2", "--k", "2",
                     "--trials", "10", "--out", str(out)] + cc) == 2
    assert not out.exists()


def test_classify_sym6(tmp_path):
    gfile = tmp_path / "s6.json"
    gfile.write_text(json.dumps(group_to_json(symmetric_group(6))))
    out = tmp_path / "cls.csv"
    assert main(["classify", "--group-file", str(gfile), "--delta", "0",
                 "--q", "3", "--out", str(out)]) == 0
    row = json.loads((tmp_path / "cls.json").read_text())["rows"][0]
    assert row[3] == "Xi" and row[7] == "6"


def test_classify_c6_case3_with_bound(tmp_path):
    c6 = GeneratedGroup(6, [from_cycles(6, tuple(range(6)))])
    gfile = tmp_path / "c6.json"
    gfile.write_text(json.dumps(group_to_json(c6)))
    out = tmp_path / "cls.csv"
    assert main(["classify", "--group-file", str(gfile), "--delta", "0",
                 "--q", "3", "--d", "2", "--cc-C", "1.0", "--cc-c", "1.0",
                 "--out", str(out)]) == 0
    row = json.loads((tmp_path / "cls.json").read_text())["rows"][0]
    assert row[3] == "III"
    assert row[8] != ""  # bound emitted


def test_classify_with_scheme_reports_pi(tmp_path):
    gfile = tmp_path / "s4.json"
    gfile.write_text(json.dumps(group_to_json(symmetric_group(4))))
    scheme = write_scheme(tmp_path, [[1, 0, 2], [0, 2, 1]])
    out = tmp_path / "cls.csv"
    assert main(["classify", "--group-file", str(gfile), "--delta", "1",
                 "--q", "2", "--d", "2", "--scheme", scheme,
                 "--out", str(out)]) == 0
    row = json.loads((tmp_path / "cls.json").read_text())["rows"][0]
    assert row[4] == "true" and row[5] == "true"  # in_Xi and in_Pi


def test_classify_refuses_scheme_of_other_d(tmp_path):
    gfile = tmp_path / "s4.json"
    gfile.write_text(json.dumps(group_to_json(symmetric_group(4))))
    scheme = write_scheme(tmp_path, [[1, 0, 2, 3], [1, 2, 3, 0]], d=3)
    out = tmp_path / "cls.csv"
    rc = main(["classify", "--group-file", str(gfile), "--delta", "1",
               "--q", "2", "--d", "2", "--scheme", scheme, "--out", str(out)])
    assert rc == 2
    assert not out.exists()


def test_classify_trivial_case1(tmp_path):
    triv = GeneratedGroup(6, [])
    gfile = tmp_path / "triv.json"
    gfile.write_text(json.dumps(group_to_json(triv)))
    out = tmp_path / "cls.csv"
    assert main(["classify", "--group-file", str(gfile), "--delta", "0",
                 "--q", "3", "--out", str(out)]) == 0
    row = json.loads((tmp_path / "cls.json").read_text())["rows"][0]
    assert row[3] == "I" and row[2] == "1"


def test_bounds_table(tmp_path, capsys):
    out = tmp_path / "bounds.csv"
    assert main(["bounds", "--d", "2", "--q", "4", "--n-hi", "12",
                 "--cc-C", "1.0", "--cc-c", "1.0", "--out", str(out)]) == 0
    assert "alpha = 0.125" in capsys.readouterr().out
    data = json.loads((tmp_path / "bounds.json").read_text())
    deltas = [float(r[2]) for r in data["rows"] if r[3] == "aggregate6"]
    assert deltas == sorted(deltas)


def test_census_cmd(tmp_path, capsys):
    out = tmp_path / "census.csv"
    assert main(["census", "--d", "2", "--depth", "2", "--k", "2",
                 "--out", str(out)]) == 0
    assert "match probability 5/9" in capsys.readouterr().out
    rows = json.loads((tmp_path / "census.json").read_text())["rows"]
    assert sorted(int(r[5]) for r in rows) == [2, 4]


def test_census_coloured(tmp_path):
    scheme = write_scheme(tmp_path, [[1, 0, 2]])
    out = tmp_path / "census.csv"
    assert main(["census", "--d", "2", "--depth", "2", "--k", "1",
                 "--scheme", scheme, "--out", str(out)]) == 0
    rows = json.loads((tmp_path / "census.json").read_text())["rows"]
    assert sorted(int(r[5]) for r in rows) == [1, 1, 2]


def test_deterministic_outputs_all_commands(tmp_path):
    scheme = write_scheme(tmp_path, [[1, 0, 2]])
    gfile = tmp_path / "g.json"
    gfile.write_text(json.dumps(group_to_json(symmetric_group(4))))
    cases = [
        (["verify-counting", "--degree", "2"], "v"),
        (["simulate", "--experiment", "cut2", "--d", "2", "--q", "2", "--n", "1",
          "--k", "1", "--trials", "500", "--seed", "3"], "s"),
        (["classify", "--group-file", str(gfile), "--delta", "1", "--q", "2"], "c"),
        (["bounds", "--d", "3", "--q", "2", "--n-hi", "6",
          "--cc-C", "2.0", "--cc-c", "0.5"], "b"),
        (["census", "--d", "2", "--depth", "3", "--k", "2",
          "--scheme", scheme], "z"),
    ]
    for argv, tag in cases:
        p1 = tmp_path / f"{tag}1.csv"
        p2 = tmp_path / f"{tag}2.csv"
        assert main(argv + ["--out", str(p1), "--workers", "1"]) == 0
        assert main(argv + ["--out", str(p2), "--workers", "4"]) == 0
        assert read(p1) == read(p2), argv


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--experiment", "bogus", "--n", "1", "--k", "1",
              "--trials", "1", "--out", "x.csv"])
    assert exc.value.code == 2
