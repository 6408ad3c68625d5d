import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from treeirs import cli, irs, perm
from treeirs.cli import main
from treeirs.irs import transporter, uniform_conjugate_measure, verify_E1, verify_index
from treeirs.perm import (
    DEFAULT_CAP,
    DegreeTooLarge,
    GeneratedGroup,
    enumerate_subgroups,
    from_cycles,
    group_to_json,
    symmetric_group,
)


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


@pytest.mark.parametrize("d,q", [(1, 2), (0, 1)])
def test_classify_refuses_scheme_below_binary(tmp_path, d, q):
    # classify with a d = 1 or d = 0 scheme used to loop forever looking for
    # the cone depth, so it runs in a child process with a timeout
    gfile = tmp_path / "g.json"
    gfile.write_text(json.dumps(group_to_json(symmetric_group(4))))
    scheme = write_scheme(tmp_path, [[1, 0]] if d == 1 else [], d=d)
    out = tmp_path / "x.csv"
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    proc = subprocess.run(
        [sys.executable, "-m", "treeirs.cli", "classify", "--group-file", str(gfile),
         "--q", str(q), "--delta", "0", "--d", str(d), "--scheme", scheme, "--out", str(out)],
        capture_output=True, text=True, timeout=60, env=env)
    assert proc.returncode == 2
    assert f"need d >= 2, not {d}" in proc.stderr
    assert not out.exists() and not (tmp_path / "x.json").exists()


# classify on a degree-4 group outside Xi at delta 0, with no scheme: --q 0
# used to die in classify_case with a ZeroDivisionError traceback (exit 1),
# and the others exited 0, --d being read only by the bound, which it changed
CLASSIFY_OFF_THE_TREE = {
    "q-0": (["--q", "0"], "need q >= 2, not 0"),
    "q-3": (["--q", "3", "--cc-C", "1", "--cc-c", "1"], "degree 4 is not q*d^n for q=3, d=2"),
    "d-1": (["--q", "2", "--d", "1"], "need d >= 2, not 1"),
    "d-3": (["--q", "2", "--d", "3", "--cc-C", "1", "--cc-c", "1"],
            "degree 4 is not q*d^n for q=2, d=3"),
}


@pytest.mark.parametrize("flags,message", CLASSIFY_OFF_THE_TREE.values(),
                         ids=CLASSIFY_OFF_THE_TREE)
def test_classify_refuses_a_level_off_the_tree(tmp_path, flags, message):
    # a child process, so that a traceback shows up as exit 1
    gfile = tmp_path / "g.json"
    gfile.write_text(json.dumps({"degree": 4, "generators": [[1, 0, 2, 3]]}))
    out = tmp_path / "c.csv"
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    proc = subprocess.run(
        [sys.executable, "-m", "treeirs.cli", "classify", "--group-file", str(gfile),
         "--delta", "0", *flags, "--out", str(out)],
        capture_output=True, text=True, timeout=60, env=env)
    assert proc.returncode == 2, proc.stderr
    assert message in proc.stderr and not proc.stdout
    assert not out.exists() and not (tmp_path / "c.json").exists()


def test_classify_answers_on_the_tree(tmp_path, capsys):
    gfile = tmp_path / "g.json"
    gfile.write_text(json.dumps({"degree": 4, "generators": [[1, 0, 2, 3]]}))
    out = tmp_path / "c.csv"
    assert main(["classify", "--group-file", str(gfile), "--delta", "0", "--q", "2",
                 "--out", str(out)]) == 0
    assert capsys.readouterr().out == "case I, t_max=2\n"


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


def counting_rows_oracle(degree):
    """The E1 and index rows of ``cli.counting_rows``, verified subgroup by
    subgroup: each row from the subgroup's own transporter, under one
    uniform conjugate measure per conjugacy class."""
    ambient = symmetric_group(degree)
    subs, classes = enumerate_subgroups(degree)
    class_of = {gid: cls for cls in classes for gid in cls}
    measures = {}
    rows = []
    for gid, gamma in enumerate(subs):
        cls = class_of[gid]
        if cls not in measures:
            measures[cls] = uniform_conjugate_measure(gamma, ambient)
        mu = measures[cls]
        emitted = False
        for U, V in cli._disjoint_pairs(degree):
            tv = transporter(gamma, U, V)
            if not tv.elements:
                continue
            emitted = True
            U_txt, V_txt = ";".join(map(str, U)), ";".join(map(str, V))
            res = verify_E1(mu, U, V, tv.restrictions)
            rows.append(["E1", degree, gid, U_txt, V_txt,
                         res.lhs.numerator, res.lhs.denominator,
                         res.rhs.numerator, res.rhs.denominator,
                         f"|A|={len(tv.restrictions)}", res.holds])
            res = verify_index(mu, tv.elements, U, V)
            rows.append(["index", degree, gid, U_txt, V_txt,
                         res.lhs.numerator, res.lhs.denominator,
                         res.rhs.numerator, res.rhs.denominator,
                         f"|Q|={len(tv.elements)}", res.holds])
        if not emitted:
            rows.append(["E1", degree, gid, "", "", 0, 1, 0, 1, "vacuous", True])
    return rows


@pytest.mark.parametrize("degree", [2, 3, 4, 5])
def test_counting_rows_vs_per_subgroup_oracle(degree):
    # rows read off each class representative's table equal the rows
    # verified on every subgroup, row by row
    rows = [r for r in cli.counting_rows(degree, DEFAULT_CAP) if r[0] != "E2"]
    expect = counting_rows_oracle(degree)
    assert len(rows) == len(expect)
    for row, want in zip(rows, expect):
        assert row == want


def test_class_tables_follow_the_class_order():
    # one table per class, on its least member, in enumerate_subgroups'
    # class order; the degree-7 sweep runs in CI, and degree 8 is refused
    subs, classes = enumerate_subgroups(4)
    tables = list(cli.class_tables(4))
    assert [mu.support[0][0].elements for mu, _ in tables] == \
        [subs[cls[0]].elements for cls in classes]
    assert [len(mu.support) for mu, _ in tables] == [len(cls) for cls in classes]
    with pytest.raises(DegreeTooLarge):
        next(cli.class_tables(8))


def test_counting_rows_refuses_a_wrong_conjugator(wrong_conjugators):
    # each conjugator is checked before a row is read through it, and the
    # sweep raises instead of relabelling
    wrong_conjugators()
    with pytest.raises(RuntimeError, match="no conjugator carries subgroup"):
        cli.counting_rows(3, DEFAULT_CAP)


def test_internal_fault_exits_3(tmp_path, capsys, wrong_conjugators):
    # a failed conjugator check is a fault of the program, not of the input
    wrong_conjugators()
    out = tmp_path / "verify.csv"
    assert main(["verify-counting", "--degree", "3", "--out", str(out)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("internal error: no conjugator carries subgroup")
    assert not out.exists() and not (tmp_path / "verify.json").exists()


def test_wrong_conjugator_at_degree4_is_refused_as_a_fault(tmp_path, capsys,
                                                          wrong_conjugators):
    # at degree 4 the wrong conjugators carry a walk generator outside its
    # member, which used to read past the member's element list (IndexError)
    # or pick a wrong element; the record is refused when it is filed
    wrong_conjugators()
    with pytest.raises(RuntimeError, match="no conjugator carries subgroup"):
        cli.counting_rows(4, DEFAULT_CAP)
    out = tmp_path / "verify.csv"
    assert main(["verify-counting", "--degree", "4", "--out", str(out)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("internal error: no conjugator carries subgroup")
    assert not out.exists() and not (tmp_path / "verify.json").exists()


def test_cold_counting_rows_walk_each_class_once(monkeypatch):
    # a cold counting_rows(6) walks each conjugacy orbit once: 56 for the
    # classes of Sym(6) and 10 for those of Sym(2) x Sym(3), counted in
    # every module that binds conjugacy_orbit; the measures read the
    # walk's records instead of walking again
    calls = []
    real = perm.conjugacy_orbit

    def counted(*args):
        calls.append(len(args[0]))
        return real(*args)

    for module in (perm, irs, cli):
        if getattr(module, "conjugacy_orbit", None) is real:
            monkeypatch.setattr(module, "conjugacy_orbit", counted)
    perm._kept_symmetric_records.cache_clear()
    enumerate_subgroups.cache_clear()
    rows = cli.counting_rows(6, DEFAULT_CAP)
    assert len(rows) == 132181
    assert len(calls) == 56 + 10


def test_exceeded_cap_exits_2(tmp_path, capsys):
    # a refused computation stays a usage-level error, though
    # ClosureExceedsCap is a RuntimeError
    gfile = tmp_path / "g.json"
    gfile.write_text(json.dumps(group_to_json(symmetric_group(4))))
    out = tmp_path / "cls.csv"
    assert main(["classify", "--group-file", str(gfile), "--q", "2", "--delta", "0",
                 "--cap", "5", "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: closure exceeds cap=5\n"
    assert not out.exists()


def test_verify_counting_degree6(tmp_path, capsys, monkeypatch):
    # every subgroup of Sym(6); the digest is of the rows as the per-subgroup
    # loop computed them before rows were verified class by class
    seen = []
    real = cli.counting_rows
    monkeypatch.setattr(cli, "counting_rows", lambda *a: seen.append(real(*a)) or seen[-1])
    out = tmp_path / "verify.json"
    assert main(["verify-counting", "--degree", "6", "--out", str(out),
                 "--format", "json"]) == 0
    assert capsys.readouterr().out == "verified 132181 instances, all hold\n"
    (rows,) = seen
    assert len(rows) == 132181
    assert (hashlib.sha256(repr(rows).encode()).hexdigest()
            == "8ca6f60891512947fe31b9a01ea6e71086311b31c3a1289f979bd3d5d862e089")


def test_verify_counting_refuses_degree7(tmp_path, capsys):
    out = tmp_path / "verify.csv"
    assert main(["verify-counting", "--degree", "7", "--out", str(out)]) == 2
    assert "verify-counting supports --degree <= 6" in capsys.readouterr().err
    assert not out.exists() and not (tmp_path / "verify.json").exists()


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
    "non-integer-d": ({"d": 2.9, "generators": [[1.7, 0, 2]]}, '"d" must be an integer'),
    "boolean-d": ({"d": True, "generators": []}, '"d" must be an integer'),
    "non-integer-point": ({"d": 2, "generators": [[1.0, 0, 2]]},
                          "bad generator for degree 3"),
    "boolean-point": ({"d": 2, "generators": [[True, False, 2]]},
                      "bad generator for degree 3"),
}

MALFORMED_GROUPS = {
    "no-degree": ({"generators": [[1, 0, 2, 3]]}, '"degree" and "generators"'),
    "no-generators": ({"degree": 4}, '"degree" and "generators"'),
    "not-an-object": ([[1, 0, 2, 3]], "JSON object"),
    "generator-too-short": ({"degree": 4, "generators": [[1, 0]]},
                            "bad generator for degree 4"),
    "not-a-permutation": ({"degree": 4, "generators": [[1, 1, 2, 3]]},
                          "bad generator for degree 4"),
    "non-integer-degree": ({"degree": 4.5, "generators": []}, '"degree" must be an integer'),
    "boolean-degree": ({"degree": True, "generators": []}, '"degree" must be an integer'),
    "non-integer-point": ({"degree": 4, "generators": [[1.5, 0, 2, 3]]},
                          "bad generator for degree 4"),
    "boolean-point": ({"degree": 4, "generators": [[True, False, 2, 3]]},
                      "bad generator for degree 4"),
    # degree 0 used to crash classify with an IndexError
    "degree-zero": ({"degree": 0, "generators": []}, "group degree must be >= 1"),
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


# flags no command reads any more: each is now a usage error
@pytest.mark.parametrize("argv", [
    ["verify-counting", "--degree", "3", "--seed", "1"],
    ["verify-counting", "--degree", "3", "--cap", "1"],
    ["classify", "--group-file", "g.json", "--delta", "1", "--q", "2", "--seed", "1"],
    ["bounds", "--d", "2", "--q", "4", "--n-hi", "3", "--cc-C", "1", "--cc-c", "1",
     "--seed", "1"],
    ["census", "--d", "2", "--depth", "2", "--k", "2", "--seed", "1"],
], ids=["verify-counting-seed", "verify-counting-cap", "classify-seed",
        "bounds-seed", "census-seed"])
def test_unread_flags_are_refused(tmp_path, capsys, argv):
    out = tmp_path / "out.csv"
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out", str(out)])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not out.exists()


SIMULATE = ["simulate", "--trials", "10", "--experiment"]

# command lines on a tree with too few children or root cones, a negative
# depth or size, or a missing root or leaf orbit: each used to crash or print
# an estimate
BAD_TREE_PARAMETERS = {
    "census-d-negative": (["census", "--d", "-2", "--depth", "2", "--k", "1"],
                          "need d >= 2, not -2"),
    "census-d-0": (["census", "--d", "0", "--depth", "2", "--k", "0"], "need d >= 2, not 0"),
    "census-d-1": (["census", "--d", "1", "--depth", "2", "--k", "1"], "need d >= 2, not 1"),
    "census-depth-negative": (["census", "--d", "2", "--depth", "-1", "--k", "0"],
                              "negative depth"),
    "treematch-d-1": (SIMULATE + ["treematch", "--d", "1", "--n", "2", "--k", "1"],
                      "need d >= 2, not 1"),
    # every experiment writes the q column: treematch used to write q = 0
    "treematch-q-0": (SIMULATE + ["treematch", "--q", "0", "--n", "2", "--k", "1"],
                      "need q >= 2, not 0"),
    "treematch-k-negative": (SIMULATE + ["treematch", "--n", "2", "--k", "-1"],
                             "k=-1 must be >= 0"),
    "colormatch-k-negative": (SIMULATE + ["colormatch", "--n", "2", "--k", "-1", "--scheme"],
                              "k=-1 must be >= 0"),
    "cut2-k-negative": (SIMULATE + ["cut2", "--n", "2", "--k", "-1"], "k=-1 must be >= 0"),
    "colormatch-root-label-5": (SIMULATE + ["colormatch", "--n", "2", "--k", "1",
                                            "--root-label", "5", "--scheme"],
                                "root_label 5 out of range"),
    "cut1-q-0": (SIMULATE + ["cut1", "--q", "0", "--n", "2", "--k", "0"],
                 "need q >= 2, not 0"),
    "cut2-q-1": (SIMULATE + ["cut2", "--q", "1", "--n", "2", "--k", "1"],
                 "need q >= 2, not 1"),
    "colormatch-orbit-7": (SIMULATE + ["colormatch", "--n", "2", "--k", "0",
                                       "--orbit", "7", "--scheme"],
                           "orbit 7 out of range"),
    "colormatch-orbit-negative": (SIMULATE + ["colormatch", "--n", "2", "--k", "1",
                                              "--orbit", "-1", "--scheme"],
                                  "orbit -1 out of range"),
}


@pytest.mark.parametrize("argv,message", BAD_TREE_PARAMETERS.values(),
                         ids=BAD_TREE_PARAMETERS)
def test_bad_tree_parameters_are_bad_input(tmp_path, capsys, argv, message):
    if argv[-1] == "--scheme":
        argv = argv + [write_scheme(tmp_path, [[1, 0, 2]])]
    assert_refused_as_bad_input(tmp_path, capsys, argv, message)


def test_counterexample_exits_1(tmp_path, capsys, monkeypatch):
    # a row that fails is written with the others, both files, and the first
    # failing row is reported
    real = cli.verify_E2
    calls = []

    def fail_first(*args):
        calls.append(args)
        res = real(*args)
        return irs.VerifyResult(res.rhs + 1, res.rhs, False) if len(calls) == 1 else res

    monkeypatch.setattr(cli, "verify_E2", fail_first)
    out = tmp_path / "verify.csv"
    assert main(["verify-counting", "--degree", "3", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("counterexample: ['E2', 5, 0, ")
    lines = out.read_text().splitlines()
    assert len(lines) == 98
    assert [line.startswith("E2,5,0,") for line in lines if line.endswith("false")] == [True]
    mirror = json.loads((tmp_path / "verify.json").read_text())
    assert [row[-1] for row in mirror["rows"]].count("false") == 1
