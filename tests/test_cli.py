import itertools
import json
import math
import os
import subprocess
import sys
import time
from fractions import Fraction

import pytest

import froblip
from froblip import cli, cones, frobenius, growth, selfsimilar, serialize
from froblip.cli import main
from froblip.lattice import read_fraction


def write(tmp_path, name, doc):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


@pytest.fixture
def half(tmp_path):
    return write(tmp_path, "half.json", {"rationals": ["1/2", "1/2"]})


@pytest.fixture
def quarters(tmp_path):
    return write(tmp_path, "quarters.json", {"rationals": ["1/4"] * 4})


def test_build_numeric(tmp_path, capsys):
    p = write(tmp_path, "thirds.json", {"rationals": ["1/3", "1/3"]})
    assert main(["build", p]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert abs(doc["delta"] - 0.6309297536) < 1e-9
    assert doc["basis"] == ["1/3"]
    assert doc["exponents"] == [[1], [1]]


def test_build_symbolic(tmp_path, capsys):
    p = write(tmp_path, "sym.json",
              {"generators": ["l"], "monomials": [[5], [1]]})
    assert main(["build", p]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["delta"] is None
    assert doc["exponents"] == [[5], [1]]


def test_build_round_trip(tmp_path, capsys):
    p = write(tmp_path, "a.json", {"rationals": ["1/2", "1/4"]})
    assert main(["build", p]) == 0
    doc = json.loads(capsys.readouterr().out)
    p2 = tmp_path / "b.json"
    p2.write_text(json.dumps(doc))
    assert main(["build", str(p2)]) == 0
    doc2 = json.loads(capsys.readouterr().out)
    assert doc == doc2


def test_parse_error_exit_2(tmp_path, capsys):
    p = write(tmp_path, "bad.json", {"rationals": ["1/0"]})
    assert main(["build", p]) == 2
    out = capsys.readouterr()
    assert out.out == ""  # errors only on stderr
    assert "1/0" in out.err


def test_malformed_json_exit_2(tmp_path, capsys):
    p = tmp_path / "broken.json"
    p.write_text("{not json")
    assert main(["build", str(p)]) == 2
    assert capsys.readouterr().out == ""


def test_decide_exit_codes(tmp_path, capsys, half, quarters):
    assert main(["decide", half, quarters]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["result"] == "EQUIVALENT"
    assert doc["certificate"]["p"] == 2 and doc["certificate"]["q"] == 1

    a = write(tmp_path, "s1.json",
              {"generators": ["u", "v"], "monomials": [[2, 0], [0, 1]]})
    b = write(tmp_path, "s2.json",
              {"generators": ["u", "v"], "monomials": [[1, 0], [0, 2]]})
    assert main(["decide", a, b]) == 10
    doc = json.loads(capsys.readouterr().out)
    assert doc["reason"] == "NO_ITERATION_PERMUTATION"
    assert doc["certificate"] == {"p": 1, "q": 1}

    # coplanar, and (u^2 + 2uv + v^2) != 2u^2 + uv + v^2: the only
    # iteration pair with 4**p == 2**q that can match, (1, 2), does not
    a = write(tmp_path, "s3.json", {"generators": ["u", "v"],
              "monomials": [[2, 0], [2, 0], [1, 1], [0, 2]]})
    b = write(tmp_path, "s4.json",
              {"generators": ["u", "v"], "monomials": [[1, 0], [0, 1]]})
    assert main(["decide", a, b]) == 10
    doc = json.loads(capsys.readouterr().out)
    assert doc["reason"] == "NO_ITERATION_PERMUTATION"
    assert doc["certificate"] == {"p": 1, "q": 2}


def test_decide_large_axis_supported_pair(tmp_path, capsys):
    # 32 generators against each of them twice: refuted at once, though
    # expanding the identity at (6, 5) would pass ITERATION_BUDGET
    names = [f"u{i}" for i in range(32)]
    rows = [[int(i == j) for j in range(32)] for i in range(32)]
    a = write(tmp_path, "axis32.json", {"generators": names, "monomials": rows})
    b = write(tmp_path, "axis64.json", {"generators": names,
                                        "monomials": [r for r in rows for _ in range(2)]})
    assert main(["decide", a, b]) == 10
    doc = json.loads(capsys.readouterr().out)
    assert (doc["result"], doc["reason"], doc["certificate"]) == (
        "NOT_EQUIVALENT", "NO_ITERATION_PERMUTATION", {"p": 6, "q": 5})


def test_decide_two_branch(tmp_path, capsys):
    a = write(tmp_path, "t1.json",
              {"generators": ["l"], "monomials": [[5], [1]]})
    b = write(tmp_path, "t2.json",
              {"generators": ["l"], "monomials": [[3], [2]]})
    assert main(["decide", a, b]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["reason"] == "TWO_BRANCH_SPECIAL"


def test_gamma_sweep_csv(tmp_path, capsys):
    p = write(tmp_path, "binom.json",
              {"generators": ["a", "b"], "monomials": [[1, 0], [0, 1]]})
    assert main(["gamma", p, "--dirs", "9", "--k-max", "60"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "# frobenius-lipschitz v0.1.0"
    assert lines[1] == "theta_1,theta_2,gamma_analytic,gamma_empirical,stderr"
    assert len(lines) == 11
    mid = lines[2 + 4].split(",")
    assert abs(float(mid[0]) - 0.7071) < 1e-3
    assert abs(float(mid[2]) - 0.9803) < 1e-3


def test_gamma_theta_outside_cone(tmp_path, capsys):
    p = write(tmp_path, "binom.json",
              {"generators": ["a", "b"], "monomials": [[1, 0], [0, 1]]})
    assert main(["gamma", p, "--theta=-1,1"]) == 4
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("theta, row", [
    ("2,1", "0.894427,0.447214,0.000000,,"),
    ("4,2", "0.894427,0.447214,0.000000,,"),
    ("1,3", "0.316228,0.948683,0.000000,,"),
    ("2,1.00000000000000000001", "0.894427,0.447214,0.000000,,"),
    ("2,0.99999999999999999999", None),
])
def test_gamma_boundary_rays_read_exactly(tmp_path, capsys, theta, row):
    """{1/12, 1/54} has the exponent vectors (2, 1) and (1, 3), the edges
    of its cone.  --theta is read exactly: a generator and its multiples
    are on an edge, where one word reaches each point; 1e-20 past the
    edge of (2, 1) is outside, though its unit vector rounds to that
    edge's."""
    p = write(tmp_path, "edge.json", {"rationals": ["1/12", "1/54"]})
    rc = main(["gamma", p, "--analytic", f"--theta={theta}"])
    out = capsys.readouterr()
    if row is None:
        assert rc == 4 and out.out == ""
        assert out.err.endswith(" outside the cone\n")
    else:
        assert rc == 0
        assert out.out.splitlines()[2] == row


@pytest.mark.parametrize("theta", [None, "1,1", "-1,1"])
def test_gamma_both_tests_each_direction_once(tmp_path, capsys, monkeypatch,
                                              theta):
    """growth.gamma and estimate_gamma share one cone test per direction,
    and a direction outside the cone still fails with the same message."""
    p = write(tmp_path, "line.json", {"rationals": ["1/4", "1/6", "1/9"]})
    tested = []
    real = frobenius.cone_member

    def counted(x, c):
        tested.append(tuple(x))
        return real(x, c)

    for module in (cli, frobenius):
        monkeypatch.setattr(module, "cone_member", counted)
    argv = ["gamma", p, "--both", "--k-max", "30"]
    argv += ["--dirs", "3"] if theta is None else [f"--theta={theta}"]
    rc = main(argv)
    out = capsys.readouterr()
    if theta == "-1,1":
        assert rc == 4 and out.out == ""
        assert out.err == "error: direction (-0.7071067811865475, " \
                          "0.7071067811865475) outside the cone\n"
    else:
        assert rc == 0
        assert len(out.out.splitlines()) == 2 + (3 if theta is None else 1)
    assert len(tested) == len(set(tested)) == (3 if theta is None else 1)


def test_gamma_analytic_noncoplanar_domain_error(tmp_path, capsys):
    # {l^5, l} is not coplanar; its rate solves e^(-5 g) + e^(-g) = 1
    p = write(tmp_path, "sym.json",
              {"generators": ["l"], "monomials": [[5], [1]]})
    assert main(["gamma", p, "--analytic"]) == 0
    out = capsys.readouterr()
    assert out.err == ""
    assert out.out.splitlines()[-1] == "1.000000,0.281200,,"


def test_gamma_sweep_above_3d_names_theta(tmp_path, capsys):
    s4 = write(tmp_path, "s4.json", {"rationals": ["1/2", "1/3", "1/5", "1/7"]})
    assert main(["gamma", s4, "--empirical", "--dirs", "3"]) == 4
    err = capsys.readouterr().err
    assert "--theta" in err and "dimension differ" not in err
    assert main(["gamma", s4, "--analytic", "--theta=1,1,1,1"]) == 0


DATA = os.path.join(os.path.dirname(__file__), "data")
PINNED_SWEEPS = [
    (["1/4", "1/6", "1/9", "1/6"], "gamma_analytic_4_6_9_6.csv"),
    (["1/8", "1/12", "1/18", "1/27", "1/12", "1/18"],
     "gamma_analytic_8_12_18_27_12_18.csv"),
    (["1/30", "1/30", "1/30", "1/20", "1/45", "1/75"],
     "gamma_analytic_30_30_30_20_45_75.csv"),
]


@pytest.mark.parametrize("ratios, name", PINNED_SWEEPS,
                         ids=[n[:-4] for _, n in PINNED_SWEEPS])
def test_gamma_analytic_sweep_pinned(tmp_path, capsys, ratios, name):
    # CSVs written by the LP-based hull membership and minimal face that
    # the facet sign tests replaced; the sweeps must not move
    p = write(tmp_path, "s.json", {"rationals": ratios})
    assert main(["gamma", p, "--analytic", "--dirs", "60"]) == 0
    with open(os.path.join(DATA, name)) as fh:
        assert capsys.readouterr().out == fh.read()


def test_gamma_narrow_3d_cone_sweep_ends_with_its_grid(tmp_path, capsys):
    # 1 of the 360 grid points lies in this cone; the sweep prints that
    # one row and tries no candidate past the grid
    p = write(tmp_path, "narrow.json", {
        "generators": ["u", "v", "w"],
        "monomials": [[5, 5, 4], [5, 4, 5], [4, 5, 5]]})
    assert main(["gamma", p, "--analytic", "--dirs", "9"]) == 0
    assert capsys.readouterr().out == (
        "# frobenius-lipschitz v0.1.0\n"
        "theta_1,theta_2,theta_3,gamma_analytic,gamma_empirical,stderr\n"
        "0.599739,0.538743,0.591667,0.110756,,\n")


def test_gamma_sweep_builds_one_table(tmp_path, capsys, monkeypatch):
    p = write(tmp_path, "three.json", {"rationals": ["1/2", "1/3", "1/6"]})
    bounds = []
    real_build = frobenius.build_multiplicity

    def counted_build(data, bound, *args, **kwargs):
        bounds.append(bound)
        return real_build(data, bound, *args, **kwargs)

    monkeypatch.setattr(cli, "build_multiplicity", counted_build)
    monkeypatch.setattr(frobenius, "build_multiplicity", counted_build)
    assert main(["gamma", p, "--dirs", "5", "--empirical"]) == 0
    out = capsys.readouterr().out
    assert len(bounds) == 1
    # the rows each direction gives with a table of its own
    system = serialize.load_system(p)
    data = frobenius.make_defining_data(system.exponents, system.alpha)
    rows = []
    for theta in cli._sweep_directions(data, 5):
        est = frobenius.estimate_gamma(data, theta, table=None)
        rows.append({"theta": est.theta, "gamma_empirical": est.gamma_hat,
                     "stderr": est.stderr})
    assert len(bounds) == 6 and bounds[0] == max(bounds[1:])
    assert out == "\n".join(serialize.sweep_csv_lines(rows, 2)) + "\n"


def test_multiplicity_csv(tmp_path, capsys):
    p = write(tmp_path, "binom.json",
              {"generators": ["a", "b"], "monomials": [[1, 0], [0, 1]]})
    assert main(["multiplicity", p, "--bound", "3"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "# frobenius-lipschitz v0.1.0"
    assert lines[1] == "z_1,z_2,m"
    rows = {tuple(map(int, l.split(",")[:2])): int(l.split(",")[2])
            for l in lines[2:]}
    assert rows[(1, 1)] == 2
    assert rows[(2, 1)] == 3


def test_cutset_json(tmp_path, capsys):
    p = write(tmp_path, "a.json", {"rationals": ["1/2", "1/4"]})
    assert main(["cutset", p, "--t", "1/4"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert [d["word"] for d in doc] == ["11", "12", "2"]
    assert main(["cutset", p]) == 2  # neither --t nor --exp-k


def test_matchable_json(tmp_path, capsys, half, quarters):
    assert main(["matchable", half, quarters, "--exp-k", "4",
                 "--search"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["feasible"] is True
    assert doc["m0"] <= 2


def run_python(*args):
    """A fresh interpreter with this checkout's froblip on its path."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(froblip.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=True, timeout=120)


def test_matchable_search_m0_limit_zero_exit_4(half, quarters):
    proc = run_python("-m", "froblip.cli", "matchable", half, quarters,
                      "--exp-k", "3", "--search", "--m0-limit", "0")
    assert proc.returncode == 4
    assert proc.stdout == ""
    assert proc.stderr == "error: m0_limit must be >= 1\n"


def test_frobenius1d(capsys):
    assert main(["frobenius1d", "3", "5"]) == 0
    assert capsys.readouterr().out.strip() == "7"
    assert main(["frobenius1d", "4", "6"]) == 4  # gcd 2


def test_determinism(tmp_path, capsys, half, quarters):
    outs = []
    for _ in range(2):
        main(["decide", half, quarters])
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    for _ in range(2):
        main(["gamma", half, "--dirs", "3", "--k-max", "30"])
        outs.append(capsys.readouterr().out)
    assert outs[2] == outs[3]


def test_output_file(tmp_path, half, quarters):
    out = tmp_path / "verdict.json"
    assert main(["decide", half, quarters, "-o", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["result"] == "EQUIVALENT"


BAD_ARGUMENTS = [
    (["gamma", "{s2}", "--theta=0,0"], 4),
    (["gamma", "{s2}", "--theta=nan,1"], 2),  # --theta is read exactly
    (["gamma", "{s2}", "--theta=1,nan"], 2),
    (["gamma", "{s2}", "--theta=inf,1"], 2),
    (["gamma", "{s2}", "--theta=1,x"], 2),
    (["gamma", "{s2}", "--dirs", "0"], 4),
    (["gamma", "{s2}", "--k-max", "0"], 4),
    (["gamma", "{s2}", "--k-max", "inf"], 4),
    (["gamma", "{s2}", "--empirical", "--k-max", "1e-323"], 4),  # k_max / 16 == 0
    (["gamma", "{s2}", "--k-count", "0"], 4),
    (["gamma", "{s2}", "--k-count", "1"], 4),  # one sample: no slope
    (["multiplicity", "{s2}", "--bound", "abc"], 2),
    (["multiplicity", "{s2}", "--bound", "1/0"], 2),
    (["multiplicity", "{s2}", "--bound", "0"], 4),
    (["cutset", "{s2}", "--exp-k", "abc"], 2),
    (["cutset", "{s2}"], 2),  # no threshold
    (["cutset", "{s2}", "--t", "1/4", "--exp-k", "1/2"], 2),  # two thresholds
    (["matchable", "{s2}", "{s2}", "--t", "1/4", "--exp-k", "1/2"], 2),
    (["gamma", "{s4}", "--empirical", "--dirs", "3"], 4),  # 4-D sweep: --theta
    (["gamma", "{s2}", "--theta=1,1,1"], 4),  # 3 components, dimension 2
    (["frobenius1d", "3000001", "3000002"], 3),  # more residues than the budget
]


@pytest.mark.parametrize("argv, code", BAD_ARGUMENTS, ids=[
    " ".join([a[0], *(x for x in a[2:] if not x.startswith("{"))])
    for a, _ in BAD_ARGUMENTS])
def test_bad_argument_typed_error(tmp_path, argv, code):
    s2 = write(tmp_path, "s2.json", {"rationals": ["1/2", "1/3"]})
    s4 = write(tmp_path, "s4.json", {"rationals": ["1/2", "1/3", "1/5", "1/7"]})
    proc = run_python("-m", "froblip.cli",
                      *(a.format(s2=s2, s4=s4) for a in argv))
    assert proc.returncode == code
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ")
    assert proc.stderr.count("\n") == 1
    if "--theta=1,1,1" in argv:
        assert "--theta has 3 components" in proc.stderr
        assert "dimension 2" in proc.stderr


@pytest.mark.parametrize("theta", ["1e-200,1e-200", "1e200,1e200"])
def test_gamma_tiny_and_huge_directions(tmp_path, capsys, theta):
    # the squared components underflow or overflow; scaled by the largest
    # component first, both are exactly the direction (1, 1)
    s2 = write(tmp_path, "s2.json", {"rationals": ["1/2", "1/3"]})
    assert main(["gamma", s2, "--theta=1,1"]) == 0
    expect = capsys.readouterr().out
    assert main(["gamma", s2, f"--theta={theta}"]) == 0
    assert capsys.readouterr().out == expect


def test_decimal_exponents_up_to_the_cap_are_read(tmp_path, capsys):
    s2 = write(tmp_path, "s2.json", {"rationals": ["1/2", "1/3"]})
    assert main(["gamma", s2, "--analytic", "--theta=1,1"]) == 0
    expect = capsys.readouterr().out
    assert main(["gamma", s2, "--analytic", "--theta=1e400,1e400"]) == 0
    assert capsys.readouterr().out == expect
    assert read_fraction("1e400", "x") == 10 ** 400
    assert read_fraction(" -2.5E-1000 ", "x") == Fraction(-5, 2 * 10 ** 1000)
    assert read_fraction("1e1_000", "x") == 10 ** 1000


HUGE = "1e100000000"


@pytest.mark.parametrize("argv, field", [
    (["gamma", "{s}", f"--theta=1,{HUGE}"], "--theta"),
    (["multiplicity", "{s}", "--bound", HUGE], "--bound"),
    (["cutset", "{s}", "--exp-k", HUGE], "--exp-k"),
    (["cutset", "{s}", "--t", HUGE], "--t"),
    (["cutset", "{s}", "--exp-k", "1e" + "9" * 100_000], "--exp-k"),
    (["matchable", "{s}", "{s}", "--exp-k", "1e1_000_000_000"], "--exp-k"),
    (["build", "{huge}"], "rational"),
], ids=["theta", "bound", "exp-k", "t", "exp-k-digits", "exp-k-underscores", "ratio"])
def test_huge_decimal_exponent_exits_2_at_once(tmp_path, capsys, argv, field):
    # 10**(10**8) would take minutes to build; the exponent is refused first
    s = write(tmp_path, "s.json", {"rationals": ["1/2", "1/3"]})
    huge = write(tmp_path, "huge.json", {"rationals": ["1/2", "1e-100000000"]})
    start = time.perf_counter()
    assert main([a.format(s=s, huge=huge) for a in argv]) == 2
    assert time.perf_counter() - start < 1
    err = capsys.readouterr().err
    assert field in err and "EXPONENT_CAP = 1000" in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("argv, budget", [
    (["gamma", "{s}", "--dirs", str(10 ** 12)], "SWEEP_CANDIDATES"),
    (["gamma", "{s}", "--k-count", str(10 ** 12)], "K_COUNT_CAP"),
], ids=["dirs", "k-count"])
def test_huge_gamma_sweep_exits_3_at_once(tmp_path, capsys, argv, budget):
    # 10**12 directions or radii would take weeks; both are refused first
    s = write(tmp_path, "s.json", {"rationals": ["1/2", "1/3"]})
    start = time.perf_counter()
    assert main([a.format(s=s) for a in argv]) == 3
    assert time.perf_counter() - start < 1
    out = capsys.readouterr()
    assert out.out == "" and out.err.count("\n") == 1
    assert out.err.startswith("error: ") and budget in out.err


def test_gamma_nonconverged_exit_4(tmp_path, capsys, monkeypatch):
    # no Newton step: lambda = 0 is not on sum_j e^(-lambda . X_j) = 1
    monkeypatch.setattr(growth, "MAX_NEWTON_ITERS", 0)
    s2 = write(tmp_path, "s2.json", {"rationals": ["1/2", "1/3"]})
    assert main(["gamma", s2, "--theta=1,2", "--analytic"]) == 4
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("error: entropy solve along ")
    assert "residual" in out.err and out.err.count("\n") == 1


@pytest.mark.parametrize("argv, budget, patch", [
    (["frobenius1d", "2000003", "2000004"], "DEFAULT_POINT_BUDGET", None),
    (["cutset", "{s}", "--exp-k", "30"], "DEFAULT_WORD_BUDGET", None),
    (["multiplicity", "{s}", "--bound", "50"], "DEFAULT_POINT_BUDGET",
     (frobenius.build_multiplicity, "__defaults__", (100,))),
    (["matchable", "{s}", "{s}", "--exp-k", "12", "--search"],
     "DEFAULT_WORD_BUDGET", (selfsimilar.cut_multiset, "__defaults__", (100,))),
    (["gamma", "{s3}", "--analytic", "--theta=1,1,1"], "FACET_BUDGET",
     (cones, "FACET_BUDGET", 3)),
], ids=["frobenius1d", "cutset", "multiplicity", "matchable", "facets"])
def test_budget_errors_name_their_constant(tmp_path, capsys, monkeypatch,
                                           argv, budget, patch):
    # small budgets stand in for the defaults where those take long to reach
    paths = {"s": write(tmp_path, "s.json", {"rationals": ["1/2", "1/3"]}),
             # exponents (1,0,1), (0,1,1), (1,1,0), (1,0,0): four facets
             "s3": write(tmp_path, "s3.json",
                         {"rationals": ["1/10", "1/15", "1/6", "1/2"]})}
    if patch is not None:
        monkeypatch.setattr(*patch)
    assert main([a.format(**paths) for a in argv]) == 3
    out = capsys.readouterr()
    assert out.out == "" and out.err.count("\n") == 1
    assert out.err.startswith("error: ") and budget in out.err


HEAVY = ("mpmath", "networkx", "numpy", "sympy")
# froblip loads neither of the last two; networkx loads dataclasses, so matchable may
LEAN = HEAVY + ("dataclasses", "inspect")
MERSENNE = [f"1/{2 ** 61 - 1}", "1/2"]


def second_iteration(texts):
    ratios = [Fraction(t) for t in texts]
    return [str(a * b) for a, b in itertools.product(ratios, repeat=2)]
GUARD = (
    "import sys\n"
    "import froblip, froblip.cli\n"
    "rc = froblip.cli.main(sys.argv[1:]) if sys.argv[1:] else 0\n"
    f"print(rc, *(m for m in {LEAN!r} if m in sys.modules))\n"
)


@pytest.mark.parametrize("argv, rc, banned", [
    ([], 0, LEAN),
    (["build", "{half}"], 0, LEAN),
    (["decide", "{half}", "{quarters}"], 0, LEAN),
    (["decide", "{half}", "{thirds}"], 10, LEAN),
    (["decide", "{l51}", "{l32}"], 0, LEAN),
    (["cutset", "{half}", "--t", "1/8"], 0, LEAN),
    (["multiplicity", "{half}", "--bound", "10"], 0, LEAN),
    (["gamma", "{half}", "--dirs", "1", "--k-max", "30"], 0, LEAN),
    (["decide", "{uv}", "{uuv}", "--diagnostics"], 11, LEAN),
    (["cutset", "{half}", "--exp-k", "3"], 0, LEAN),
    (["matchable", "{half}", "{quarters}", "--exp-k", "3", "--search"], 0,
     ("mpmath", "numpy", "sympy")),
    (["build", "{mersenne}"], 0, LEAN),
    (["decide", "{mersenne}", "{mersenne2}"], 0, LEAN),
], ids=["import", "build", "decide", "decide-refuted", "decide-rank1-symbolic",
        "cutset-t", "multiplicity", "gamma", "decide-diagnostics",
        "cutset-exp-k", "matchable-exp-k", "build-large-prime",
        "decide-large-prime"])
def test_commands_import_only_what_they_call(tmp_path, half, quarters,
                                             argv, rc, banned):
    paths = {"half": half, "quarters": quarters,
             "thirds": write(tmp_path, "thirds.json",
                             {"rationals": ["1/3", "1/3", "1/3"]}),
             "l51": write(tmp_path, "l51.json", {"generators": ["l"],
                          "monomials": [[5], [1]]}),
             "l32": write(tmp_path, "l32.json", {"generators": ["l"],
                          "monomials": [[3], [2]]}),
             # a pair outside the decidable families: {u, v, uv} vs {u, v, u^2 v}
             "uv": write(tmp_path, "uv.json", {"generators": ["u", "v"],
                         "monomials": [[1, 0], [0, 1], [1, 1]]}),
             "uuv": write(tmp_path, "uuv.json", {"generators": ["u", "v"],
                          "monomials": [[1, 0], [0, 1], [2, 1]]}),
             # a prime cofactor far beyond trial division, and the 2nd iteration
             "mersenne": write(tmp_path, "m.json", {"rationals": MERSENNE}),
             "mersenne2": write(tmp_path, "m2.json",
                                {"rationals": second_iteration(MERSENNE)})}
    argv = [a.format(**paths) for a in argv]
    if argv:
        argv += ["-o", str(tmp_path / "out")]
    proc = run_python("-c", GUARD, *argv)
    assert proc.returncode == 0, proc.stderr
    code, *loaded = proc.stdout.split()
    assert int(code) == rc
    assert not set(loaded) & set(banned), loaded


def test_cli_import_loads_every_layer():
    # perfbench's tracer looks every layer up in sys.modules right after
    # importing froblip.cli: a layer imported lazily would fail it there
    layers = ("lattice", "ratlp", "cones", "frobenius", "growth", "selfsimilar",
              "flows", "equivalence", "serialize", "cli", "poly", "errors")
    proc = run_python("-c", "import sys, froblip.cli; print(*sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert {f"froblip.{m}" for m in layers} <= set(proc.stdout.split())


def test_frobenius1d_large_pair_is_fast(capsys):
    # a sieve up to 99999 * 100000 would need about 10^10 entries
    start = time.perf_counter()
    assert main(["frobenius1d", "99999", "100000"]) == 0
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().out == f"{99999 * 100000 - 99999 - 100000}\n"


MALFORMED_INPUTS = {
    "float-exponent": ({"generators": ["u", "v"], "monomials": [[1.5, 0], [0, 1]]},
                       "'monomials'"),
    "bool-exponent": ({"generators": ["u", "v"], "monomials": [[True, 0], [0, 1]]},
                      "'monomials'"),
    "string-exponent": ({"generators": ["u", "v"], "monomials": [["a", 0], [0, 1]]},
                        "'monomials'"),
    "row-not-a-list": ({"generators": ["u", "v"], "monomials": [1, 2]},
                       "'monomials'"),
    "monomials-not-a-list": ({"generators": ["u"], "monomials": {"u": 1}},
                             "'monomials'"),
    "repeated-generator": ({"generators": ["u", "u"], "monomials": [[1, 2], [2, 1]]},
                           "'generators'"),
    "generators-string": ({"generators": "uv", "monomials": [[1, 0], [0, 1]]},
                          "'generators'"),
    "integer-generators": ({"generators": [1, 2], "monomials": [[1, 0], [0, 1]]},
                           "'generators'"),
    "empty-generator": ({"generators": ["u", ""], "monomials": [[1, 0], [0, 1]]},
                        "'generators'"),
    "float-rational": ({"rationals": [0.5, "1/3"]}, "'rationals'"),
    "integer-rational": ({"rationals": [1, "1/3"]}, "'rationals'"),
    "null-rational": ({"rationals": ["1/2", None]}, "'rationals'"),
    "rationals-string": ({"rationals": "1/2"}, "'rationals'"),
    "short-row": ({"generators": ["u", "v"], "monomials": [[1], [0, 1]]},
                  "'monomials'"),
    "input-string": ({"input": "rationals"}, "unrecognized system document"),
    "rationals-and-monomials": ({"rationals": ["1/2", "1/3"], "generators": ["u"],
                                 "monomials": [[1], [2]]}, "'generators'"),
}


@pytest.mark.parametrize("doc, field", MALFORMED_INPUTS.values(),
                         ids=list(MALFORMED_INPUTS))
def test_malformed_input_is_a_parse_error(tmp_path, doc, field):
    proc = run_python("-m", "froblip.cli", "build", write(tmp_path, "bad.json", doc))
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert field in proc.stderr
    assert "Traceback" not in proc.stderr


def test_build_near_one_ratio_is_fast_domain_error(tmp_path):
    # 1 - 10^-400 needs 10^400 - 1 factored; its dimension has no float
    p = write(tmp_path, "near.json",
              {"rationals": [f"{10 ** 400 - 1}/{10 ** 400}", "1/2"]})
    start = time.perf_counter()
    proc = run_python("-m", "froblip.cli", "build", p)
    assert time.perf_counter() - start < 5
    assert proc.returncode == 4
    assert proc.stdout == ""
    assert proc.stderr == "error: a ratio is too close to 1 for a float dimension\n"


def test_build_keeps_a_large_cofactor(tmp_path):
    n = 10 ** 400 - 1
    cofactor = n
    for d in range(2, 2 ** 16):
        while cofactor % d == 0:
            cofactor //= d
    assert cofactor.bit_length() == 1151
    ratios = [Fraction(n, 10 ** 401), Fraction(1, 2)]
    p = write(tmp_path, "big.json", {"rationals": [str(r) for r in ratios]})
    proc = run_python("-m", "froblip.cli", "build", p)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    basis = [Fraction(v) for v in doc["basis"]]
    assert any(v.numerator % cofactor == 0 or v.denominator % cofactor == 0
               for v in basis)
    for r, x in zip(ratios, doc["exponents"]):
        assert math.prod(v ** e for v, e in zip(basis, x)) == r
