import hashlib
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


@pytest.mark.parametrize("n_lo, n_hi", [(5, 3), (0, 4), (-2, 4)])
def test_bounds_refuses_bad_range(tmp_path, capsys, n_lo, n_hi):
    out = tmp_path / "bounds.csv"
    assert main(["bounds", "--d", "2", "--q", "4", "--n-lo", str(n_lo),
                 "--n-hi", str(n_hi), "--cc-C", "1.0", "--cc-c", "1.0",
                 "--out", str(out)]) == 2
    assert "--n-lo" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("n_hi, rc", [(1021, 0), (1022, 2), (1100, 2)])
def test_bounds_refuses_n_hi_past_float_range(tmp_path, capsys, n_hi, rc):
    # k_n = 4 * 2^n fits a float up to n = 1021; past it the table used to
    # stop with an OverflowError traceback and the counterexample exit code
    out = tmp_path / "bounds.csv"
    assert main(["bounds", "--d", "2", "--q", "4", "--n-lo", "1021",
                 "--n-hi", str(n_hi), "--cc-C", "1", "--cc-c", "1",
                 "--out", str(out)]) == rc
    if rc:
        assert "--n-hi" in capsys.readouterr().err
        assert not out.exists()
    else:
        assert len(out.read_text().splitlines()) == 6


# SHA-256 of `treeirs census --d 2 --depth 4 --k 6` outputs (CSV and its JSON
# mirror), in full mode and with the <(0 1)> scheme, as the per-subset loop
# wrote them
CENSUS_DIGESTS = {
    "full": ("1a59f145d8e9fc03d669aa4c9b10dfaa4ce92596cc7771cf8f283001a7b9c841",
             "e38d5ac5733f02cb9ca55d42087dcfaab98ab898b261dcfb08a9c0e17205faa2"),
    "coloured": ("bf753ea38da759a530da9ba6c7f3e3637911ee3ec52baa5367fac5273b40acde",
                 "723e42241d257779db026dd5b1a5ba55d91164a1cd30dac03d50841bc843730d"),
}


@pytest.mark.parametrize("mode", sorted(CENSUS_DIGESTS))
def test_census_output_golden(tmp_path, mode):
    argv = ["census", "--d", "2", "--depth", "4", "--k", "6"]
    if mode == "coloured":
        argv += ["--scheme", write_scheme(tmp_path, [[1, 0, 2]])]
    out = tmp_path / "census.csv"
    assert main(argv + ["--out", str(out)]) == 0
    digests = tuple(hashlib.sha256(read(p)).hexdigest()
                    for p in (out, tmp_path / "census.json"))
    assert digests == CENSUS_DIGESTS[mode]
    assert main(argv + ["--out", str(tmp_path / "only.json"), "--format", "json"]) == 0
    assert hashlib.sha256(read(tmp_path / "only.json")).hexdigest() == digests[1]


# SHA-256 of `treeirs verify-counting --degree 4|5` outputs (CSV and its JSON
# mirror), as the verifiers wrote them when every call rebuilt its measure,
# re-checked invariance and recomputed the ambient transporter
VERIFY_COUNTING_DIGESTS = {
    4: ("1d7a1759fc23303b89522f7788eaddc0b18c5d6de56034771d694568187ea14a",
        "2b1c9422634390629a3037a4e9ae8822ffc55b1fdffc780c1fb36cccc85847f9"),
    5: ("49ab47e1a3e49d004987428ee33496a8fb6ad3d3ce38660214bfb3a00215f17a",
        "9481e34ee31ad93da72d44690f0a1487e11016694a4fc776bc8d062b71e6fc80"),
}


@pytest.mark.parametrize("degree", sorted(VERIFY_COUNTING_DIGESTS))
def test_verify_counting_output_golden(tmp_path, degree):
    out = tmp_path / "verify.csv"
    argv = ["verify-counting", "--degree", str(degree)]
    assert main(argv + ["--out", str(out)]) == 0
    digests = tuple(hashlib.sha256(read(p)).hexdigest()
                    for p in (out, tmp_path / "verify.json"))
    assert digests == VERIFY_COUNTING_DIGESTS[degree]
    assert main(argv + ["--out", str(tmp_path / "only.json"), "--format", "json"]) == 0
    assert hashlib.sha256(read(tmp_path / "only.json")).hexdigest() == digests[1]


@pytest.mark.parametrize("argv", [
    ["--k", "1", "--parent-colour", "7"],  # no scheme to read a colour in
    ["--k", "1", "--parent-colour", "0"],
    ["--k", "9", "--parent-colour", "9", "--scheme"],  # more than 4 leaves
    ["--k", "1", "--parent-colour", "3", "--scheme"],
], ids=["no-scheme-7", "no-scheme-0", "k-past-leaves", "out-of-range"])
def test_census_refuses_unusable_parent_colour(tmp_path, capsys, argv):
    if argv[-1] == "--scheme":
        argv = argv + [write_scheme(tmp_path, [[1, 0, 2]])]
    out = tmp_path / "census.csv"
    assert main(["census", "--d", "2", "--depth", "2", *argv, "--out", str(out)]) == 2
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("scheme", [False, True], ids=["full", "coloured"])
def test_census_refuses_k_past_leaves(tmp_path, capsys, scheme):
    # simulate refuses k > leaves; census used to write a header-only table
    argv = ["--scheme", write_scheme(tmp_path, [[1, 0, 2]])] if scheme else []
    out = tmp_path / "census.csv"
    assert main(["census", "--d", "2", "--depth", "2", "--k", "9", *argv,
                 "--out", str(out)]) == 2
    assert "k=9 exceeds 4 leaves" in capsys.readouterr().err
    assert not out.exists() and not (tmp_path / "census.json").exists()


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


# payload and the words its refusal must contain
MALFORMED_SCHEMES = {
    "no-d": ({"generators": [[1, 0, 2]]}, '"d" and "generators"'),
    "no-generators": ({"d": 2}, '"d" and "generators"'),
    "not-an-object": ([[1, 0, 2]], "JSON object"),
    "generator-too-short": ({"d": 2, "generators": [[1, 0]]}, "bad generator for degree 3"),
    "generator-too-long": ({"d": 2, "generators": [[1, 0, 2, 3]]},
                           "bad generator for degree 3"),
    "not-a-permutation": ({"d": 2, "generators": [[0, 0, 2]]}, "bad generator for degree 3"),
    "generator-not-a-list": ({"d": 2, "generators": [1]}, "malformed generators"),
}

MALFORMED_GROUPS = {
    "no-degree": ({"generators": [[1, 0, 2, 3]]}, '"degree" and "generators"'),
    "no-generators": ({"degree": 4}, '"degree" and "generators"'),
    "not-an-object": ([[1, 0, 2, 3]], "JSON object"),
    "generator-too-short": ({"degree": 4, "generators": [[1, 0]]},
                            "bad generator for degree 4"),
    "not-a-permutation": ({"degree": 4, "generators": [[1, 1, 2, 3]]},
                          "bad generator for degree 4"),
}


def assert_refused_as_bad_input(tmp_path, capsys, argv, message):
    out = tmp_path / "out.csv"
    assert main(argv + ["--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists() and not (tmp_path / "out.json").exists()


@pytest.mark.parametrize("payload,message", MALFORMED_SCHEMES.values(),
                         ids=MALFORMED_SCHEMES)
@pytest.mark.parametrize("command", ["simulate", "census", "classify"])
def test_malformed_scheme_file_is_bad_input(tmp_path, capsys, command, payload, message):
    scheme = tmp_path / "scheme.json"
    scheme.write_text(json.dumps(payload))
    gfile = tmp_path / "g.json"
    gfile.write_text(json.dumps(group_to_json(symmetric_group(4))))
    argv = {
        "simulate": ["simulate", "--experiment", "colormatch", "--d", "2", "--n", "2",
                     "--k", "1", "--trials", "10"],
        "census": ["census", "--d", "2", "--depth", "2", "--k", "1"],
        "classify": ["classify", "--group-file", str(gfile), "--delta", "1",
                     "--q", "2"],
    }[command]
    assert_refused_as_bad_input(tmp_path, capsys, argv + ["--scheme", str(scheme)],
                                message)


@pytest.mark.parametrize("payload,message", MALFORMED_GROUPS.values(),
                         ids=MALFORMED_GROUPS)
def test_malformed_group_file_is_bad_input(tmp_path, capsys, payload, message):
    gfile = tmp_path / "g.json"
    gfile.write_text(json.dumps(payload))
    assert_refused_as_bad_input(tmp_path, capsys, [
        "classify", "--group-file", str(gfile), "--delta", "1", "--q", "2"], message)


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--experiment", "bogus", "--n", "1", "--k", "1",
              "--trials", "1", "--out", "x.csv"])
    assert exc.value.code == 2
