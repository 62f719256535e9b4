import json

import numpy as np
import pytest

import console_baselines
from qdiv import DensityOperator, cli, info, suites
from qdiv.states import basis_state, classical_channel, maximally_mixed, random_density, save_channel, save_state


@pytest.fixture
def files(tmp_path):
    paths = {}
    save_state(basis_state(0, 2), tmp_path / "zero.json")
    save_state(maximally_mixed(2), tmp_path / "u2.json")
    save_state(random_density(2, 2, 5), tmp_path / "rand.json")
    save_state(random_density(8, 8, 6), tmp_path / "tri.json", dims=[2, 2, 2])
    save_channel(classical_channel(np.eye(2)), tmp_path / "noiseless.json")
    paths.update(
        zero=str(tmp_path / "zero.json"),
        u2=str(tmp_path / "u2.json"),
        rand=str(tmp_path / "rand.json"),
        tri=str(tmp_path / "tri.json"),
        chan=str(tmp_path / "noiseless.json"),
    )
    return paths


def run(argv):
    return cli.main(argv)


def test_divergence_min_prints_one(files, capsys):
    assert run(["divergence", "--rho", files["zero"], "--sigma", files["u2"], "--kind", "min"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "min: 1.0"


def test_divergence_hypothesis_eps_zero_equal_states(files, capsys):
    code = run(
        ["divergence", "--rho", files["rand"], "--sigma", files["rand"], "--kind", "hypothesis", "--eps", "0"]
    )
    assert code == 0
    first = capsys.readouterr().out.splitlines()[0]
    assert first.startswith("hypothesis: ")
    assert abs(float(first.split(":")[1])) < 1e-9


def test_divergence_renyi_equal_states(files, capsys):
    code = run(
        ["divergence", "--rho", files["rand"], "--sigma", files["rand"], "--kind", "renyi", "--alpha", "2"]
    )
    assert code == 0
    first = capsys.readouterr().out.splitlines()[0]
    assert abs(float(first.split(":")[1])) < 1e-9


def test_divergence_requires_alpha(files, capsys):
    code = run(["divergence", "--rho", files["zero"], "--sigma", files["u2"], "--kind", "renyi"])
    assert code == 1


def test_induced_equal_states_normalized_zero(files, capsys):
    code = run(
        [
            "induced",
            "--rho",
            files["rand"],
            "--sigma",
            files["rand"],
            "--parent",
            "renyi",
            "--alpha",
            "2",
            "--eps",
            "0.3",
            "--normalized",
        ]
    )
    assert code == 0
    first = capsys.readouterr().out.splitlines()[0]
    assert abs(float(first.split(":")[1])) < 1e-9


def test_induced_min_matches_divergence(files, capsys):
    run(["divergence", "--rho", files["zero"], "--sigma", files["u2"], "--kind", "min"])
    ref = float(capsys.readouterr().out.splitlines()[0].split(":")[1])
    run(
        [
            "induced",
            "--rho",
            files["zero"],
            "--sigma",
            files["u2"],
            "--parent",
            "min",
            "--eps",
            "0.4",
            "--normalized",
        ]
    )
    got = float(capsys.readouterr().out.splitlines()[0].split(":")[1])
    assert abs(got - ref) < 1e-8


def test_induced_eps_near_one_tracks_parent(files, capsys):
    run(
        ["divergence", "--rho", files["rand"], "--sigma", files["u2"], "--kind", "renyi", "--alpha", "2"]
    )
    ref = float(capsys.readouterr().out.splitlines()[0].split(":")[1])
    run(
        [
            "induced",
            "--rho",
            files["rand"],
            "--sigma",
            files["u2"],
            "--parent",
            "renyi",
            "--alpha",
            "2",
            "--eps",
            "0.999",
            "--normalized",
        ]
    )
    got = float(capsys.readouterr().out.splitlines()[0].split(":")[1])
    assert abs(got - ref) <= 2e-2


def test_verify_suite_passes(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = run(
        ["verify", "--suite", "cheng", "--instances", "4", "--seed", "3", "--format", "json", "--out", str(out)]
    )
    assert code == 0
    report = json.loads(out.read_text())
    assert report["results"]["failures"] == 0
    assert report["results"]["rows"]


def test_verify_failure_exit_code_and_repro(tmp_path, monkeypatch, capsys):
    from qdiv.suites import Row

    def fake_run_suite(name, instances, seed):
        return [Row("cheng", "forced", 0, seed, 1.0, 0.0, -1.0, False)]

    monkeypatch.setattr(cli.suites, "run_suite", fake_run_suite)
    repro = tmp_path / "repro.json"
    code = run(
        ["verify", "--suite", "cheng", "--instances", "1", "--seed", "1", "--repro-out", str(repro)]
    )
    assert code == 3
    payload = json.loads(repro.read_text())
    assert payload["failing"][0]["assertion"] == "forced"


def test_verify_rejects_nonpositive_instances():
    assert run(["verify", "--suite", "cheng", "--instances", "0"]) == 1


def test_verify_json_with_numpy_row_values(tmp_path, monkeypatch):
    from qdiv.suites import _row

    row = _row("s", "a", 0, 0, np.float64(0.5), np.float64(1.0))
    assert type(row.passed) is bool
    monkeypatch.setattr(cli.suites, "run_suite", lambda name, instances, seed: [row])
    out = tmp_path / "report.json"
    code = run(["verify", "--suite", "cheng", "--instances", "1", "--format", "json", "--out", str(out)])
    assert code == 0
    assert json.loads(out.read_text())["results"]["rows"][0]["passed"] is True


def test_verify_csv_format(tmp_path):
    out = tmp_path / "rows.csv"
    code = run(
        ["verify", "--suite", "lemma2", "--instances", "2", "--seed", "9", "--format", "csv", "--out", str(out)]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "suite,assertion,instance,seed,lhs,rhs,margin,pass"
    assert all(line.endswith(",1") for line in lines[1:])


def test_verify_baseline_names_the_moved_rows(tmp_path, capsys):
    argv = ["verify", "--suite", "lemma2", "--instances", "2", "--seed", "9"]
    base = tmp_path / "base.json"
    assert run(argv + ["--format", "json", "--out", str(base)]) == 0
    capsys.readouterr()
    assert run(argv + ["--baseline", str(base)]) == 0
    err = capsys.readouterr().err.splitlines()
    assert err[0] == f"baseline {base}: 0 of {len(json.loads(base.read_text())['results']['rows'])} rows moved"

    report = json.loads(base.read_text())
    rows = report["results"]["rows"]
    moved, dropped = rows[0], rows[1]
    old_lhs = moved["lhs"]
    moved["lhs"], moved["passed"] = old_lhs + 0.5, not moved["passed"]
    rows.remove(dropped)
    rows.append(dict(moved, instance=99))
    base.write_text(json.dumps(report))
    assert run(argv + ["--baseline", str(base), "--format", "json", "--out", str(tmp_path / "new.json")]) == 0
    err = capsys.readouterr().err.splitlines()
    head = f"{moved['suite']}:{moved['assertion']} instance={moved['instance']} seed={moved['seed']}: "
    assert err[0] == f"baseline {base}: 3 of {len(rows)} rows moved"
    assert err[1] == (
        f"  {head}lhs {old_lhs + 0.5!r} -> {old_lhs!r} |d|={abs(old_lhs - (old_lhs + 0.5))!r}; "
        f"passed {moved['passed']!r} -> {not moved['passed']!r}"
    )
    gone = f"{dropped['suite']}:{dropped['assertion']} instance={dropped['instance']} seed={dropped['seed']}"
    assert err[2] == f"  {gone}: not in the baseline"
    assert err[3] == f"  {moved['suite']}:{moved['assertion']} instance=99 seed={moved['seed']}: only in the baseline"
    # the report itself does not change
    assert json.loads((tmp_path / "new.json").read_text())["results"]["rows"][0]["lhs"] == old_lhs


def test_verify_baseline_that_is_not_a_report_is_refused_before_the_run(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli.suites, "run_suite", lambda *a: pytest.fail("the suite ran"))
    bad = tmp_path / "bad.json"
    for text in ('{"results": {}}', '{"results": {"rows": [{"suite": "cheng", "assertion": "a", "instance": 0, "seed": 1}]}}'):
        bad.write_text(text)
        assert run(["verify", "--suite", "cheng", "--instances", "1", "--baseline", str(bad)]) == 1
    assert run(["verify", "--suite", "cheng", "--instances", "1", "--baseline", str(tmp_path / "missing.json")]) == 1
    assert "is not a qdiv verify JSON report" in capsys.readouterr().err


VERIFY_BASELINE = console_baselines.BASELINES / "verify-all-5-seed7.json"


def test_verify_report_matches_the_committed_baseline():
    # the committed report of `qdiv verify --suite all --instances 5 --seed 7 --format json --out <this file>`: a
    # change that moves a row rewrites the file with tests/console_baselines.py, and its diff declares the move.
    # numpy < 2 ships an older LAPACK that may round differently, so there only the pass flags and the set of rows
    # are compared
    baseline = cli._baseline_rows(str(VERIFY_BASELINE))
    rows = suites.run_suite("all", 5, 7)
    assert len(rows) == len(baseline) == 416
    moved = cli._moved_rows(baseline, rows)
    if np.lib.NumpyVersion(np.__version__) < "2.0.0":
        moved = [line for line in moved if "passed" in line or line.endswith("baseline")]
    assert moved == []


@pytest.mark.parametrize("name", sorted(console_baselines.CONSOLE))
def test_console_report_matches_the_committed_baseline(name, tmp_path):
    # each qsr and comm run of the console-script CI step against its committed report, which
    # tests/console_baselines.py rewrites; on numpy < 2 only the fields are compared, as above
    console_baselines.save_inputs(tmp_path)
    out = tmp_path / "report.json"
    assert run(console_baselines.console_argv(name, tmp_path, out)) == 0
    results = json.loads(out.read_text())["results"]
    baseline = json.loads((console_baselines.BASELINES / f"{name}.json").read_text())["results"]
    if np.lib.NumpyVersion(np.__version__) < "2.0.0":
        assert results.keys() == baseline.keys()
    else:
        assert results == baseline


def test_comm_noiseless(files, capsys):
    code = run(["comm", "--channel", files["chan"], "--eps", "0.5", "--brute-force", "--m", "2"])
    assert code == 0
    out = capsys.readouterr().out
    assert "brute_force_tc(m=2): 0.0" in out


def test_comm_refuses_a_negative_seed(files, capsys, monkeypatch):
    monkeypatch.setattr(info._roots, "bisect_decreasing", lambda *args: pytest.fail("searched before the seed check"))
    assert run(["comm", "--channel", files["chan"], "--eps", "0.2", "--seed", "-1"]) == 1
    err = capsys.readouterr().err
    assert "validation error: seed must be a non-negative integer, got -1" in err
    assert "Traceback" not in err


def test_comm_warns_when_the_input_ascent_does_not_converge(files, capsys, monkeypatch):
    argv = ["comm", "--channel", files["chan"], "--eps", "0.3", "--format", "json"]
    assert run(argv) == 0
    converged = capsys.readouterr()
    assert "warning" not in converged.err

    ascend = info.maximize_simplex

    def unconverged(value_and_grad, p):  # the same ascent, reporting a gap above 1e-7
        value, p, _ = ascend(value_and_grad, p)
        return value, p, 1.0

    monkeypatch.setattr(info, "maximize_simplex", unconverged)
    assert run(argv) == 0
    captured = capsys.readouterr()
    assert captured.out == converged.out  # the report is the same; only stderr says more
    assert "without converging" in captured.err


@pytest.mark.parametrize(
    "extra, message",
    [(["--m", "3"], "does not apply"), (["--brute-force"], "--m is required")],
)
def test_comm_m_is_checked_before_the_bound(files, capsys, monkeypatch, extra, message):
    # --m only sizes the brute-force oracle; both misuses fail before any work
    def no_bound(*args, **kwargs):
        raise AssertionError("distill_lower_bound ran before the argument check")

    monkeypatch.setattr(cli, "distill_lower_bound", no_bound)
    assert run(["comm", "--channel", files["chan"], "--eps", "0.4"] + extra) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


def test_qsr_feasible_and_infeasible(files, capsys):
    code = run(
        ["qsr", "--state", files["tri"], "--eps", "0.5", "--delta0", "0.005", "--delta1", "0.005"]
    )
    assert code == 0
    code = run(
        ["qsr", "--state", files["tri"], "--eps", "0.1", "--delta0", "0.05", "--delta1", "0.05"]
    )
    assert code == 2


def test_qsr_requires_tripartite(files):
    code = run(["qsr", "--state", files["rand"], "--eps", "0.5", "--delta0", "0.005", "--delta1", "0.005"])
    assert code == 1


def test_validation_exit_code_on_missing_file(tmp_path):
    code = run(["divergence", "--rho", str(tmp_path / "nope.json"), "--sigma", str(tmp_path / "nope.json"), "--kind", "min"])
    assert code == 1


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        run(["divergence", "--kind", "min"])
    assert exc.value.code == 1


def test_json_report_determinism(files, tmp_path):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    argv = [
        "divergence",
        "--rho",
        files["zero"],
        "--sigma",
        files["u2"],
        "--kind",
        "renyi",
        "--alpha",
        "0.5",
        "--format",
        "json",
    ]
    assert run(argv + ["--out", str(out1)]) == 0
    assert run(argv + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


@pytest.fixture
def nan_state(tmp_path):
    # json writes the NaN literal, which json.load reads back as float("nan")
    path = tmp_path / "nan.json"
    path.write_text(json.dumps({"dims": [2], "re": [[float("nan"), 0.0], [0.0, 1.0]], "im": [[0.0, 0.0], [0.0, 0.0]]}))
    return str(path)


def test_divergence_rejects_nan_state(files, nan_state, capsys):
    code = run(["divergence", "--rho", nan_state, "--sigma", files["u2"], "--kind", "umegaki"])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "non-finite" in captured.err


def test_induced_rejects_nan_sigma(files, nan_state, capsys):
    argv = ["induced", "--rho", files["rand"], "--sigma", nan_state, "--parent", "renyi", "--alpha", "2", "--eps", "0.3"]
    assert run(argv) == 1
    assert "non-finite" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["divergence", "--kind", "renyi", "--alpha", "abc"],
        ["induced", "--parent", "renyi", "--alpha", "abc", "--eps", "0.3"],
    ],
)
def test_non_numeric_alpha_is_a_validation_error(files, capsys, argv):
    assert run(argv + ["--rho", files["rand"], "--sigma", files["u2"]]) == 1
    assert "--alpha must be a number" in capsys.readouterr().err


@pytest.mark.parametrize("text", ["inf", "infinity", "Inf"])
def test_alpha_infinity_spellings(files, capsys, text):
    argv = ["divergence", "--rho", files["rand"], "--sigma", files["u2"], "--kind", "renyi", "--format", "json"]
    assert run(argv + ["--alpha", text]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["results"]["alpha"] == float("inf")
    assert run(["divergence", "--rho", files["rand"], "--sigma", files["u2"], "--kind", "max", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["results"]["value"] == report["results"]["value"]


@pytest.mark.parametrize(
    "argv",
    [
        ["divergence", "--kind", "min", "--alpha", "abc", "--eps", "7"],
        ["divergence", "--kind", "umegaki", "--alpha", "2"],
        ["divergence", "--kind", "hypothesis", "--eps", "0.1", "--alpha", "2"],
        ["divergence", "--kind", "renyi", "--alpha", "2", "--eps", "0.1"],
        ["divergence", "--kind", "max", "--eps", "0.1"],
        ["induced", "--parent", "min", "--alpha", "2", "--eps", "0.3"],
        ["induced", "--parent", "umegaki", "--alpha", "1", "--eps", "0.3"],
    ],
)
def test_options_that_do_not_apply_are_rejected(files, capsys, argv):
    assert run(argv + ["--rho", files["rand"], "--sigma", files["u2"]]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "does not apply" in captured.err


def test_qsr_warns_when_induced_term_hits_its_cap(files, tmp_path, capsys, monkeypatch):
    # at delta1 = 0.3 the induced descent skips its Newton trial and takes 4 iterations
    argv = ["qsr", "--state", files["tri"], "--eps", "0.95", "--delta0", "0.001", "--delta1", "0.3"]
    descend = info.minimize_density

    def capped(value_and_grad, start, **kwargs):  # the induced descent passes its slack; cap only it
        return descend(value_and_grad, start, **({"max_iter": 1} if "slack" in kwargs else {}), **kwargs)

    with monkeypatch.context() as m:
        m.setattr(info, "minimize_density", capped)
        assert run(argv + ["--format", "json"]) == 0
    captured = capsys.readouterr()
    warnings = [line for line in captured.err.splitlines() if line.startswith("warning:")]
    assert len(warnings) == 1
    assert "stopped at 1 mirror-descent iterations" in warnings[0]
    assert "warning" not in captured.out
    # a product state's induced term converges at delta1 = 0.3
    product = np.kron(np.kron(random_density(2, 2, 5).mat, random_density(2, 2, 7).mat), random_density(2, 2, 8).mat)
    save_state(DensityOperator(product), tmp_path / "product.json", dims=[2, 2, 2])
    argv = ["qsr", "--state", str(tmp_path / "product.json"), "--eps", "0.95", "--delta0", "0.001", "--delta1", "0.3"]
    assert run(argv) == 0
    assert "warning" not in capsys.readouterr().err


def test_qsr_warns_when_smoothed_term_does_not_converge(files, capsys, monkeypatch):
    argv = ["qsr", "--state", files["tri"], "--eps", "0.5", "--delta0", "0.005", "--delta1", "0.005"]
    argv += ["--format", "json"]
    assert run(argv) == 0
    converged = capsys.readouterr()
    assert "warning" not in converged.err

    descend = info.minimize_density

    def capped(value_and_grad, start, **kwargs):  # the induced descent passes its slack; cap only the others
        return descend(value_and_grad, start, **({} if "slack" in kwargs else {"max_iter": 2}), **kwargs)

    def floored(gram, sigma):  # sigma mixed with 1e-8 of I/d, as a mirror step floors its iterates
        return (1.0 - info._ITERATE_FLOOR) * sigma + info._ITERATE_FLOOR * np.eye(len(sigma)) / len(sigma)

    # the smoothed descents start at their quadratic forms' minimizers, where they stop at once: start them at
    # rho_B and sigma*, floored, instead, where 2 iterations do not converge
    monkeypatch.setattr(info, "_quadratic_start", floored)
    monkeypatch.setattr(info, "minimize_density", capped)
    assert run(argv) == 0
    captured = capsys.readouterr()
    warnings = [line for line in captured.err.splitlines() if line.startswith("warning:")]
    assert len(warnings) == 1
    assert "smoothed I_2 term's descent" in warnings[0] and "stopped at 2 mirror-descent iterations" in warnings[0]
    assert "without converging" in warnings[0]
    # the report's fields are those of a converged run: the flag goes to stderr only
    assert json.loads(captured.out)["results"].keys() == json.loads(converged.out)["results"].keys()
