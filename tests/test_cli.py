import contextlib
import io
import json
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from clustermut import NotDivisible, Seed, cli, verify
from clustermut.verify import VerificationReport

A2_TEXT = "0 1\n-1 0"
A2_JSON = '{"n": 2, "m": 0, "rows": [[0, 1], [-1, 0]]}'
MARKOV = "0 2 -2\n-2 0 2\n2 -2 0"


def run(argv, capsys):
    code = cli.main(argv)
    return code, capsys.readouterr().out


def test_enumerate_pentagon_text(capsys, tmp_path):
    path = tmp_path / "a2.txt"
    path.write_text(A2_TEXT)
    code, out = run(["enumerate", str(path)], capsys)
    assert code == 0
    assert out == "5 vertices, 5 edges, complete\n"


def test_enumerate_accepts_inline_json(capsys):
    code, out = run(["enumerate", A2_JSON], capsys)
    assert code == 0
    assert out.startswith("5 vertices")


def test_mutate_closed_walk_returns_initial(capsys):
    code, out = run(["mutate", A2_TEXT, "1,2,1,2,1,2,1,2,1,2"], capsys)
    assert code == 0
    assert "cluster: (x1, x2)" in out
    assert "0 1\n-1 0" in out


def test_mutate_json_output(capsys):
    code, out = run(["mutate", A2_TEXT, "1", "--format", "json"], capsys)
    assert code == 0
    obj = json.loads(out)
    assert obj["cluster"] == ["x1^-1*x2 + x1^-1", "x2"]
    assert obj["matrix"]["rows"] == [[0, -1], [1, 0]]


def test_verify_all_g2_confirms_and_exits_zero(capsys):
    code, out = run(["verify", "0 1\n-3 0", "--check", "all", "--depth", "8"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines == [
        "adjacency: confirmed",
        "cluster-seed: confirmed",
        "coincide: confirmed",
        "g-spec: confirmed",
        "laurent: confirmed",
        "toric: confirmed",
    ]


def test_verify_json_shape(capsys):
    code, out = run(["verify", A2_TEXT, "--check", "coincide", "--format", "json"], capsys)
    assert code == 0
    reports = json.loads(out)
    assert reports[0]["check"] == "coincide"
    assert reports[0]["verdict"] == "confirmed"
    assert "seconds" not in reports[0]


def test_verify_reports_degenerate_toric(capsys):
    code, out = run(["verify", "0 1 0\n-1 0 1\n0 -1 0", "--check", "toric"], capsys)
    assert code == 0
    assert "toric: inconclusive" in out
    assert "det B = 0" in out


def test_identical_invocations_byte_identical(capsys):
    argv = ["enumerate", "0 1 0\n-1 0 1\n0 -1 0", "--format", "json"]
    _, first = run(argv, capsys)
    _, second = run(argv, capsys)
    assert first == second
    _, parallel = run(argv + ["--workers", "3"], capsys)
    assert first == parallel


def test_verify_byte_identical_with_workers(capsys):
    argv = ["verify", A2_TEXT, "--check", "all", "--format", "json"]
    _, first = run(argv, capsys)
    _, parallel = run(argv + ["--workers", "2"], capsys)
    assert first == parallel


def test_usage_error_on_malformed_matrix(capsys):
    code = cli.main(["enumerate", "0 1\n-1 zebra"])
    assert code == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert "line 2" in err and "column 2" in err


def test_usage_error_on_ragged_matrix(capsys):
    code = cli.main(["enumerate", "0 1\n-1"])
    assert code == cli.EXIT_USAGE


def test_usage_error_on_bad_direction(capsys):
    code = cli.main(["mutate", A2_TEXT, "5,1"])
    assert code == cli.EXIT_USAGE


def test_budget_exit_code(capsys):
    code = cli.main(["enumerate", MARKOV, "--depth", "6", "--max-vertices", "10"])
    assert code == cli.EXIT_BUDGET


def test_mutate_negative_vertex_budget_is_usage_error(capsys):
    assert cli.main(["mutate", A2_TEXT, "1", "--max-vertices", "-1"]) == cli.EXIT_USAGE
    assert capsys.readouterr().err == "error: --max-vertices must be nonnegative, got -1\n"


def test_mutate_negative_budget_env_is_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("CLUSTERMUT_MAX_TERMS", "-3")
    assert cli.main(["mutate", A2_TEXT, "1"]) == cli.EXIT_USAGE
    assert capsys.readouterr().err == "error: CLUSTERMUT_MAX_TERMS must be nonnegative, got -3\n"


def test_mutate_term_budget_names_the_step(capsys):
    code = cli.main(["mutate", "0 5;-5 0", "1,2,1,2", "--max-terms", "10"])
    assert code == cli.EXIT_BUDGET
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: term budget 10 exhausted at step 3 of 4\n"


def test_mutate_default_budgets_keep_golden_output(capsys, monkeypatch):
    golden = Path(__file__).parent / "golden"
    cases = json.loads((golden / "cases.json").read_text())
    names = [name for name, case in cases.items() if case["argv"][0] == "mutate"]
    assert names
    monkeypatch.setenv("CLUSTERMUT_MAX_VERTICES", str(cli.DEFAULT_MAX_VERTICES))
    monkeypatch.setenv("CLUSTERMUT_MAX_TERMS", str(cli.DEFAULT_MAX_TERMS))
    for name in names:
        argv = cases[name]["argv"] + ["--max-terms", str(cli.DEFAULT_MAX_TERMS)]
        code, out = run(argv, capsys)
        assert (code, out) == (cases[name]["exit"], (golden / f"{name}.out").read_text())


def test_budget_env_override(capsys, monkeypatch):
    monkeypatch.setenv("CLUSTERMUT_MAX_VERTICES", "10")
    code = cli.main(["enumerate", MARKOV, "--depth", "6"])
    assert code == cli.EXIT_BUDGET


def test_refuted_verification_exits_one(capsys, monkeypatch):
    refuted = VerificationReport("coincide", "forced", "refuted", "synthetic witness")
    monkeypatch.setattr(verify, "check_joint_graph", lambda *a, **k: [refuted])
    code, out = run(["verify", A2_TEXT, "--check", "coincide"], capsys)
    assert code == cli.EXIT_REFUTED
    assert "refuted" in out


def test_export_dot_to_file(tmp_path, capsys):
    target = tmp_path / "graph.dot"
    code = cli.main(["export", A2_TEXT, "--format", "dot", "-o", str(target)])
    assert code == 0
    text = target.read_text()
    assert text.startswith("graph exchange {") and text.count(" -- ") == 5


def test_export_json_round_trip(capsys):
    from clustermut import ExchangeGraph

    code, out = run(["export", A2_TEXT, "--format", "json"], capsys)
    assert code == 0
    graph = ExchangeGraph.from_json(out)
    assert graph.vertex_count == 5


def test_forms_text_output(capsys):
    code, out = run(["forms", A2_TEXT, "--mutate", "1"], capsys)
    assert code == 0
    assert out.splitlines()[0] == "dimension 1"
    assert "mutated element 1" in out


def test_forms_json_output(capsys):
    code, out = run(
        ["forms", '{"n":2,"m":1,"rows":[[0,1,1],[-1,0,2]]}', "--format", "json"], capsys
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["dimension"] == 1
    assert obj["basis"][0][0] == ["0", "1", "1"]


def test_principal_and_tropical_modes(capsys):
    code, out = run(["enumerate", A2_TEXT, "--coeffs", "principal"], capsys)
    assert code == 0 and out.startswith("5 vertices")
    code, out = run(["enumerate", A2_TEXT, "--coeffs", "tropical:3"], capsys)
    assert code == 0 and out.startswith("5 vertices")


def test_coefficient_file_mode(tmp_path, capsys):
    coeff_file = tmp_path / "coeffs.json"
    coeff_file.write_text(json.dumps({"rank": 2, "coefficients": [[1, 0], [-1, 2]]}))
    code, out = run(["enumerate", A2_TEXT, "--coeffs", f"file:{coeff_file}"], capsys)
    assert code == 0
    assert out.startswith("5 vertices")


def test_extended_matrix_goes_geometric(capsys):
    code, out = run(["enumerate", '{"n":2,"m":1,"rows":[[0,1,1],[-1,0,0]]}'], capsys)
    assert code == 0
    assert out.startswith("5 vertices")


def usage_error(argv, capsys):
    """Exit code and the single stderr line of a rejected invocation."""
    code = cli.main(argv)
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert len(err.strip().splitlines()) == 1
    return code, err


def test_not_skew_symmetrizable_is_usage_error(capsys):
    # "0 1;1 0" breaks the hypotheses; it must not read as a refutation
    for command in ("enumerate", "verify"):
        code, err = usage_error([command, "0 1;1 0"], capsys)
        assert code == cli.EXIT_USAGE
        assert "sign-skew" in err


def test_forms_mutate_direction_out_of_range(capsys):
    for k in ("0", "5"):
        code, err = usage_error(["forms", A2_TEXT, "--mutate", k], capsys)
        assert code == cli.EXIT_USAGE
        assert f"direction {k} outside [1, 2]" in err


def test_non_integer_budget_env_is_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("CLUSTERMUT_MAX_VERTICES", "1e3")
    code, err = usage_error(["enumerate", A2_TEXT], capsys)
    assert code == cli.EXIT_USAGE and "CLUSTERMUT_MAX_VERTICES" in err
    monkeypatch.delenv("CLUSTERMUT_MAX_VERTICES")
    monkeypatch.setenv("CLUSTERMUT_MAX_TERMS", "many")
    code, err = usage_error(["verify", A2_TEXT, "--check", "laurent"], capsys)
    assert code == cli.EXIT_USAGE and "CLUSTERMUT_MAX_TERMS" in err


def test_negative_tropical_rank_is_usage_error(capsys):
    code, err = usage_error(["enumerate", A2_TEXT, "--coeffs", "tropical:-1"], capsys)
    assert code == cli.EXIT_USAGE
    assert "tropical:-1" in err


def test_coefficient_file_without_rank_is_usage_error(tmp_path, capsys):
    coeff_file = tmp_path / "coeffs.json"
    coeff_file.write_text(json.dumps({"coefficients": [[1, 0], [-1, 2]]}))
    code, err = usage_error(["enumerate", A2_TEXT, "--coeffs", f"file:{coeff_file}"], capsys)
    assert code == cli.EXIT_USAGE
    assert "'rank'" in err


@pytest.mark.parametrize("command", [["enumerate", "--depth", "0"], ["export", "--format", "json"], ["mutate", "1"]])
def test_coefficient_vector_of_another_rank_is_usage_error(command, tmp_path, capsys):
    # a third entry in a rank-2 file once made a graph from_json rejects
    coeff_file = tmp_path / "coeffs.json"
    coeff_file.write_text(json.dumps({"rank": 2, "coefficients": [[1, 0, 5], [0, 1, 0]]}))
    argv = [command[0], A2_TEXT, "--coeffs", f"file:{coeff_file}", *command[1:]]
    code, err = usage_error(argv, capsys)
    assert code == cli.EXIT_USAGE
    assert err == f"error: coefficient vector 1 in {coeff_file} has 3 entries, not rank 2\n"


@pytest.mark.parametrize(
    "argv, file_text, message",
    [
        (["enumerate", A2_TEXT, "--coeffs", "tropical:x"], None, "bad tropical rank in 'tropical:x'"),
        (["enumerate", A2_TEXT, "--coeffs", "bogus"], None, "unknown coefficient mode 'bogus'"),
        (["enumerate", A2_TEXT, "--coeffs", "file:{file}"], "not json",
         "bad coefficient file {file}: Expecting value: line 1 column 1 (char 0)"),
        (["enumerate", A2_TEXT, "--coeffs", "file:{file}"], '{"rank": -1, "coefficients": [[], []]}',
         "negative tropical rank in {file}"),
        (["enumerate", A2_TEXT, "--coeffs", "file:{file}"], '{"rank": 1, "coefficients": [[1]]}',
         "need 2 coefficient vectors"),
        (["mutate", A2_TEXT, "1,x"], None, "bad mutation path '1,x'; expected comma-separated directions"),
        (["enumerate", A2_TEXT, "--coeffs", "file:{file}"], '{"rank": 1.9, "coefficients": [[1], [0]]}',
         "bad coefficient file {file}: 1.9 is not an integer"),
        (["enumerate", A2_TEXT, "--coeffs", "file:{file}"], '{"rank": "2", "coefficients": [[1, 2], [0, 3]]}',
         'bad coefficient file {file}: "2" is not an integer'),
        (["enumerate", A2_TEXT, "--coeffs", "file:{file}"], '{"rank": 1, "coefficients": [[1.7], [0]]}',
         "bad coefficient file {file}: 1.7 is not an integer"),
        (["enumerate", A2_TEXT, "--coeffs", "file:{file}"], '{"rank": 1, "coefficients": [[1], [true]]}',
         "bad coefficient file {file}: true is not an integer"),
        (["enumerate", A2_TEXT, "--coeffs", "file:{file}"], '{"rank": 2, "coefficients": ["12", "03"]}',
         'bad coefficient file {file}: "12" is not a list'),
        (["enumerate", A2_TEXT, "--coeffs", "file:{file}"], '{"rank": 2, "coefficients": {"a": [1, 2]}}',
         'bad coefficient file {file}: {{"a": [1, 2]}} is not a list'),
    ],
)
def test_bad_coefficients_and_paths_are_usage_errors(argv, file_text, message, tmp_path, capsys):
    coeff_file = tmp_path / "coeffs.json"
    if file_text is not None:
        coeff_file.write_text(file_text)
    argv = [a.format(file=coeff_file) for a in argv]
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert code == cli.EXIT_USAGE
    assert captured.out == ""
    assert captured.err == f"error: {message.format(file=coeff_file)}\n"


@pytest.mark.parametrize("rank, form", [(cli.MAX_TROPICAL_RANK + 1, "inline"), (10 ** 5, "inline"),
                                        (cli.MAX_TROPICAL_RANK + 1, "file")])
def test_a_tropical_rank_above_the_bound_is_usage_error(rank, form, tmp_path, capsys):
    # each ambient variable widens every packed monomial of exact division,
    # uncounted by any budget: without the bound, rank 100,000 runs out of
    # memory on A2
    coeffs, source = f"tropical:{rank}", f"'tropical:{rank}'"
    if form == "file":
        source = tmp_path / "coeffs.json"
        source.write_text(json.dumps({"rank": rank, "coefficients": [[0] * rank] * 2}))
        coeffs = f"file:{source}"
    code, err = usage_error(["verify", A2_TEXT, "--coeffs", coeffs], capsys)
    assert code == cli.EXIT_USAGE
    assert err == f"error: tropical rank {rank} in {source} is above {cli.MAX_TROPICAL_RANK}\n"


def test_the_largest_tropical_rank_still_runs(capsys):
    code, out = run(["enumerate", A2_TEXT, "--coeffs", f"tropical:{cli.MAX_TROPICAL_RANK}"], capsys)
    assert (code, out) == (cli.EXIT_OK, "5 vertices, 5 edges, complete\n")


def test_engine_error_exits_one_with_one_line(capsys, monkeypatch):
    def failing(self, k):
        raise NotDivisible("injected: leading monomial not divisible")

    monkeypatch.setattr(Seed, "_exchange", failing)
    code = cli.main(["verify", "0 1;-1 0", "--check", "cluster-seed"])
    captured = capsys.readouterr()
    assert code == cli.EXIT_REFUTED == 1
    assert captured.out == ""
    assert captured.err == "error: injected: leading monomial not divisible\n"


@pytest.mark.parametrize("argv", [["mutate", A2_TEXT, "1"], ["verify", A2_TEXT]], ids=["mutate", "verify"])
def test_dot_format_is_refused_where_only_text_is_written(argv, capsys):
    # argparse refuses the choice, so dot never prints text and exits 0
    with pytest.raises(SystemExit) as exc:
        cli.main(argv + ["--format", "dot"])
    assert exc.value.code == cli.EXIT_USAGE == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "argument --format: invalid choice: 'dot'" in captured.err


@pytest.mark.parametrize("check", ["coincide", "g-spec", "toric"])
def test_negative_depth_is_usage_error(check, capsys):
    # an empty walk must not read as a confirmation
    code = cli.main(["verify", "0 1;-1 0", "--check", check, "--depth", "-3"])
    captured = capsys.readouterr()
    assert code == cli.EXIT_USAGE
    assert captured.out == ""
    assert captured.err == "error: --depth must be nonnegative, got -3\n"


@pytest.mark.parametrize("check", ["coincide", "g-spec", "toric"])
@pytest.mark.parametrize(
    "matrix, coeffs, message",
    [
        (A2_TEXT, "tropical:-1", "negative tropical rank in 'tropical:-1'"),
        ('{"n": 2, "m": 1, "rows": [[0, 1, 1], [-1, 0, 1]]}', "principal",
         "an extended matrix already fixes the coefficients"),
    ],
)
def test_tree_checks_validate_coeffs(check, matrix, coeffs, message, capsys):
    # the tree checks build their own seeds, but a bad --coeffs is still bad
    code, err = usage_error(["verify", matrix, "--check", check, "--coeffs", coeffs], capsys)
    assert (code, err) == (cli.EXIT_USAGE, f"error: {message}\n")


@pytest.mark.parametrize("check", ["coincide", "g-spec", "toric"])
def test_tree_checks_honour_the_term_budget(check, capsys):
    # the principal root holds two terms, the first vertex found two more
    code = cli.main(["verify", A2_TEXT, "--check", check, "--max-terms", "2"])
    captured = capsys.readouterr()
    assert code == cli.EXIT_BUDGET
    assert (captured.out, captured.err) == ("", "error: term budget 2 exhausted\n")


def test_laurent_alone_reports_a_term_budget_overrun_as_inconclusive(capsys):
    # under --check all, laurent reads the graph the other checks share,
    # whose enumeration exits 3 before any report
    code = cli.main(["verify", A2_TEXT, "--check", "all", "--max-terms", "5"])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (cli.EXIT_BUDGET, "", "error: term budget 5 exhausted\n")
    code, out = run(["verify", A2_TEXT, "--check", "laurent", "--max-terms", "5"], capsys)
    assert (code, out) == (cli.EXIT_OK, "laurent: inconclusive [term budget 5 exhausted]\n")


@pytest.mark.parametrize(
    "matrix, checks",
    [
        # A3 has det B = 0, so toric reports that and enumerates nothing
        ("0 1 0;-1 0 1;0 -1 0", ("cluster-seed", "adjacency", "coincide", "g-spec")),
        ("0 1 0 0;-1 0 1 0;0 -1 0 1;0 0 -1 0", ("cluster-seed", "adjacency", "coincide", "g-spec", "toric")),
    ],
)
def test_graph_checks_share_one_term_budget(matrix, checks, capsys):
    # every check that enumerates a graph reads --max-terms the same way:
    # the terms of all the seeds it stores (laurent alone reports its
    # overrun as inconclusive)
    outcomes = set()
    for check in checks:
        code = cli.main(["verify", matrix, "--check", check, "--max-terms", "20"])
        captured = capsys.readouterr()
        outcomes.add((code, captured.out, captured.err))
    assert outcomes == {(cli.EXIT_BUDGET, "", "error: term budget 20 exhausted\n")}


def test_timings_give_every_report_its_seconds(capsys):
    code, out = run(["verify", A2_TEXT, "--check", "all", "--timings", "--format", "json"], capsys)
    reports = json.loads(out)
    assert code == cli.EXIT_OK
    assert [r["check"] for r in reports] == sorted(cli.ALL_CHECKS)
    assert all(isinstance(r["seconds"], float) and r["seconds"] >= 0 for r in reports)


@pytest.mark.parametrize(
    "argv, env, source",
    [
        (["enumerate", A2_TEXT, "--max-vertices", "-1"], None, "--max-vertices"),
        (["verify", A2_TEXT, "--check", "laurent", "--max-terms", "-5"], None, "--max-terms"),
        (["enumerate", A2_TEXT], "CLUSTERMUT_MAX_VERTICES", "CLUSTERMUT_MAX_VERTICES"),
        (["verify", A2_TEXT, "--check", "laurent"], "CLUSTERMUT_MAX_TERMS", "CLUSTERMUT_MAX_TERMS"),
    ],
)
def test_negative_budget_is_usage_error(argv, env, source, capsys, monkeypatch):
    # a negative budget is not exhausted (exit 3) nor merely inconclusive
    if env:
        monkeypatch.setenv(env, "-5")
    code, err = usage_error(argv, capsys)
    assert code == cli.EXIT_USAGE
    assert err.startswith(f"error: {source} must be nonnegative, got -")


def test_zero_budget_is_legal(capsys, monkeypatch):
    code = cli.main(["enumerate", A2_TEXT, "--max-vertices", "0"])
    assert code == cli.EXIT_BUDGET
    monkeypatch.setenv("CLUSTERMUT_MAX_TERMS", "0")
    code, out = run(["verify", A2_TEXT, "--check", "laurent"], capsys)
    assert code == cli.EXIT_OK
    assert out.startswith("laurent: inconclusive")


def test_json_matrix_with_float_entry_is_usage_error(capsys):
    # 1.5 used to be truncated to 1, printing the basis of another matrix
    code, err = usage_error(["forms", '{"n":2,"m":0,"rows":[[0,1.5],[-1,0]]}'], capsys)
    assert code == cli.EXIT_USAGE
    assert err == "error: bad matrix JSON: 1.5 is not an integer\n"


def test_json_matrix_with_boolean_entry_is_usage_error(capsys):
    code, err = usage_error(["forms", '{"n":2,"m":0,"rows":[[0,true],[-1,0]]}'], capsys)
    assert code == cli.EXIT_USAGE
    assert err == "error: bad matrix JSON: true is not an integer\n"


def test_json_matrix_without_rows_is_usage_error(capsys):
    # an empty matrix used to confirm every check; the text path rejects it too
    code = cli.main(["verify", '{"m":0,"rows":[]}'])
    captured = capsys.readouterr()
    assert code == cli.EXIT_USAGE
    assert captured.out == ""
    assert captured.err == "error: empty matrix\n"


def test_json_matrix_with_wrong_n_is_usage_error(capsys):
    # n used to be ignored, printing the basis of the 2 x 2 matrix
    code, err = usage_error(["forms", '{"n":5,"m":0,"rows":[[0,1],[-1,0]]}'], capsys)
    assert code == cli.EXIT_USAGE
    assert err == "error: bad matrix JSON: n is 5 but there are 2 rows\n"


def test_json_matrix_with_non_integer_n_is_usage_error(capsys):
    code, err = usage_error(["forms", '{"n":"x","m":0,"rows":[[0,1],[-1,0]]}'], capsys)
    assert code == cli.EXIT_USAGE
    assert err == 'error: bad matrix JSON: "x" is not an integer\n'


def test_negative_m_is_usage_error(capsys):
    # m = -1 used to pass the shape check and fail later on a wrong shape
    code, err = usage_error(["enumerate", '{"m":-1,"rows":[[0],[0]]}'], capsys)
    assert code == cli.EXIT_USAGE
    assert err == "error: m must be nonnegative, got -1\n"


def test_unexpected_exception_exits_four(capsys, monkeypatch):
    def broken(args, out):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "cmd_verify", broken)
    code = cli.main(["verify", A2_TEXT])
    captured = capsys.readouterr()
    assert code == cli.EXIT_INTERNAL == 4
    assert captured.out == ""
    assert captured.err == "error: internal error: RuntimeError: boom\n"


@st.composite
def _fuzzed_argv(draw):
    n = draw(st.integers(1, 3))
    rows = [[draw(st.integers(-3, 3)) for _ in range(n)] for _ in range(n)]
    if draw(st.booleans()):
        for i in range(n):
            rows[i][i] = 0
            for j in range(i):
                rows[i][j] = -rows[j][i]
    matrix = ";".join(" ".join(str(x) for x in r) for r in rows)
    command = draw(st.sampled_from(["mutate", "enumerate", "export", "forms", "verify"]))
    if command == "forms":
        argv = ["forms", matrix, "--format", draw(st.sampled_from(["text", "json"]))]
        if draw(st.booleans()):
            argv += ["--mutate", str(draw(st.integers(0, 4)))]
        return argv
    argv = [command, matrix]
    if command == "mutate":
        argv.append(",".join(str(k) for k in draw(st.lists(st.integers(0, 4), max_size=3))))
    # only enumerate and export write dot
    formats = ["text", "json", "dot"] if command in ("enumerate", "export") else ["text", "json"]
    argv += [
        "--format", draw(st.sampled_from(formats)),
        "--coeffs", draw(st.sampled_from(
            ["trivial", "principal", "tropical:0", "tropical:1", "tropical:2",
             f"tropical:{cli.MAX_TROPICAL_RANK + 1}"]
        )),
        "--depth", str(draw(st.integers(0, 2))),
        "--max-vertices", str(draw(st.integers(0, 30))),
        "--max-terms", str(draw(st.integers(0, 500))),
    ]
    if command == "verify":
        argv += ["--check", draw(st.sampled_from(("all",) + cli.ALL_CHECKS))]
    return argv


@settings(max_examples=60, deadline=None)
@given(_fuzzed_argv())
def test_fuzzed_argv_exits_with_a_documented_code(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code in (cli.EXIT_OK, cli.EXIT_REFUTED, cli.EXIT_USAGE, cli.EXIT_BUDGET), err.getvalue()
    assert "Traceback" not in err.getvalue()
