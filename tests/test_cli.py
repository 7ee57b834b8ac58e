import csv
import dataclasses
import importlib
import io
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from fermient import (PHYSICS, RankedBasis, build_corpus, cli, dumps_rdm, ef_exact_m4,
                      entmeasures, hermlin, load_rdm, load_state, loads_rdm, loads_state,
                      random_pure_state, reduce_pure, rescale)
from fermient.errors import NormalizationError, NumericalError
from fermient.report import bound_report, fmt17

LN2 = math.log(2.0)


def _json_lines(text):
    return [json.loads(ln) for ln in text.splitlines() if ln.strip()]


def _write_yang(tmp_path, m, n, name="state.fermistate"):
    p = tmp_path / name
    rc = cli.main(["state", "yang", "--m", str(m), "--n", str(n), "--out", str(p)])
    assert rc == 0
    return p


def test_state_yang_writes_file(tmp_path, capsys):
    p = _write_yang(tmp_path, 3, 1)
    st = load_state(p)
    hits = np.flatnonzero(st.amplitudes)
    assert len(hits) == 3
    np.testing.assert_allclose(st.amplitudes[hits], 1 / math.sqrt(3), atol=1e-15)
    assert "support=3" in capsys.readouterr().out


def test_state_slater_stdout(capsys):
    rc = cli.main(["state", "slater", "--M", "5", "--occ", "0,2,4"])
    assert rc == 0
    out, err = capsys.readouterr()
    st = loads_state(out)  # metadata comments are skipped by the loader
    assert np.count_nonzero(st.amplitudes) == 1
    assert "fermistate M=5 N=3" in err


def test_state_random_stdout_is_byte_identical(capsys):
    argv = ["state", "random", "--M", "6", "--N", "3", "--seed", "4"]
    assert cli.main(argv) == 0
    first = capsys.readouterr().out
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == first


def test_rdm_summary_and_physics_norm(tmp_path, capsys):
    p = _write_yang(tmp_path, 3, 2)
    capsys.readouterr()
    out_unit = tmp_path / "unit.fermirdm"
    assert cli.main(["rdm", str(p), "--k", "2", "--out", str(out_unit)]) == 0
    summary = capsys.readouterr().out
    assert "trace=1" in summary
    assert "0.222222222222" in summary  # top eigenvalue 2/9
    out_phys = tmp_path / "phys.fermirdm"
    assert cli.main(["rdm", str(p), "--k", "2", "--norm", "physics",
                     "--out", str(out_phys)]) == 0
    assert "trace=6" in capsys.readouterr().out
    r = load_rdm(out_phys)
    assert r.normalization == "physics"
    assert r.n_particles == 4  # recovered from the trace


def test_rdm_traces_down_an_rdm_file(tmp_path, capsys):
    p = _write_yang(tmp_path, 3, 2)
    r2 = tmp_path / "two.fermirdm"
    assert cli.main(["rdm", str(p), "--k", "2", "--out", str(r2)]) == 0
    r1 = tmp_path / "one.fermirdm"
    assert cli.main(["rdm", str(r2), "--k", "1", "--out", str(r1)]) == 0
    got = load_rdm(r1)
    assert got.k == 1
    # paired state has a flat 1-RDM
    np.testing.assert_allclose(np.diag(got.matrix).real, 1 / 6, atol=1e-12)
    capsys.readouterr()
    assert cli.main(["rdm", str(r2), "--k", "2", "--out", str(r1)]) == 0  # same k passes through
    assert cli.main(["rdm", str(r2), "--k", "3", "--out", str(r1)]) == 2  # cannot raise


def test_entropy_bits_ratio(tmp_path, capsys):
    p = _write_yang(tmp_path, 3, 1)
    capsys.readouterr()
    assert cli.main(["entropy", str(p), "--k", "1"]) == 0
    nats = _json_lines(capsys.readouterr().out)[1]
    assert cli.main(["entropy", str(p), "--k", "1", "--bits"]) == 0
    bits = _json_lines(capsys.readouterr().out)[1]
    assert nats["unit"] == "nats" and bits["unit"] == "bits"
    assert nats["entropy"] == pytest.approx(bits["entropy"] * LN2, abs=1e-12)
    assert nats["entropy"] == pytest.approx(math.log(6), abs=1e-12)


def test_entropy_cannot_raise_an_rdm_file(tmp_path, capsys):
    p = _write_yang(tmp_path, 3, 2)
    r2 = tmp_path / "two.fermirdm"
    assert cli.main(["rdm", str(p), "--k", "2", "--out", str(r2)]) == 0
    capsys.readouterr()
    assert cli.main(["entropy", str(r2), "--k", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "cannot raise a 2-RDM to k=3" in captured.err


@pytest.mark.parametrize("argv", [["entropy"], ["entropy", "--k", "2"], ["rdm", "--k", "2"]])
def test_an_rdm_file_at_its_own_k_is_solved_once(tmp_path, capsys, monkeypatch, argv):
    # the spectrum that validates the file is the one reported; a file traced
    # down to a lower k needs a second solve
    p = _write_yang(tmp_path, 3, 2)
    r2 = tmp_path / "two.fermirdm"
    assert cli.main(["rdm", str(p), "--k", "2", "--out", str(r2)]) == 0
    capsys.readouterr()
    dims = []
    real = cli.eig_herm

    def counted(a, *args, **kwargs):
        dims.append(len(a))
        return real(a, *args, **kwargs)

    monkeypatch.setattr(cli, "eig_herm", counted)
    assert cli.main([argv[0], str(r2), *argv[1:]]) == 0
    assert dims == [15]
    dims.clear()
    assert cli.main([argv[0], str(r2), "--k", "1"]) == 0
    assert dims == [15, 6]


def test_entropy_pure_state_without_k(tmp_path, capsys):
    p = _write_yang(tmp_path, 2, 1)
    capsys.readouterr()
    assert cli.main(["entropy", str(p)]) == 0
    row = _json_lines(capsys.readouterr().out)[1]
    assert row["kind"] == "pure-state"
    assert row["entropy"] == 0.0
    assert row["purity"] == 1.0


def test_yang_numeric_crosscheck(capsys):
    assert cli.main(["yang", "--m", "3", "--n", "2", "--numeric"]) == 0
    row = _json_lines(capsys.readouterr().out)[1]
    assert row["spectrum_max_diff"] < 1e-12
    assert row["entropy_numeric"] == pytest.approx(row["entropy"], abs=1e-12)
    assert row["mult2"] == 14


def test_verify_mutual_small(capsys):
    rc = cli.main(["verify", "mutual", "--M", "4", "--random", "2"])
    out = capsys.readouterr().out
    assert rc == 0
    lines = _json_lines(out)
    assert "meta" in lines[0]
    reports = lines[1:]
    assert reports and all(r["holds"] for r in reports)
    assert all(r["name"].startswith("mutual-info/") for r in reports)


def test_verify_exit_1_on_violation(capsys, monkeypatch):
    def broken(**kwargs):
        return [bound_report("mutual-info/planted", -1.0, 0.0, ">=")]

    monkeypatch.setitem(cli._SUITES, "mutual", broken)
    rc = cli.main(["verify", "mutual"])
    out = capsys.readouterr().out
    assert rc == 1
    assert _json_lines(out)[1]["holds"] is False


def test_bound_report_refuses_a_nan_slack():
    for lhs, rhs in ((math.nan, 0.0), (0.0, math.nan), (math.inf, math.inf)):
        with pytest.raises(NumericalError):
            bound_report("x", lhs, rhs)
    # an infinite side alone is a verdict (subadd and n-body use them)
    assert not bound_report("x", 0.0, math.inf).holds
    assert bound_report("x", 0.0, -math.inf).holds
    assert not bound_report("x", 0.0, -math.inf, "<=").holds


def test_verify_nan_report_exits_4(capsys, monkeypatch):
    # a NaN lhs is no verdict, so it must not read as a violated bound (exit 1)
    def broken(**kwargs):
        return [bound_report("mutual-info/planted", math.nan, 0.0, ">=")]

    monkeypatch.setitem(cli._SUITES, "mutual", broken)
    assert cli.main(["verify", "mutual"]) == 4
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("fermient: numerical failure: ") and err.count("\n") == 1


def test_usage_errors_exit_2(tmp_path, capsys):
    assert cli.main(["verify", "mutual", "--tol", "bogus=1"]) == 2
    assert cli.main(["verify", "mutual", "--tol", "no-equals"]) == 2
    assert cli.main(["entropy", str(tmp_path / "missing.fermistate")]) == 2
    assert cli.main(["state", "slater", "--M", "4"]) == 2  # --occ missing
    with pytest.raises(SystemExit) as exc:
        cli.main(["no-such-command"])
    assert exc.value.code == 2
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ["sweep", "s2", "--N", "5..2"],
    ["sweep", "s2", "--N", "x"],
    ["sweep", "mutual-slack", "--M-range", "4..x"],
    ["state", "slater", "--M", "4", "--occ", "a,b"],
    ["verify", "ef", "--M", "4", "--random", "0", "--restarts", "0"],
    ["sweep", "ef", "--restarts", "0"],
    ["verify", "mutual", "--M", "4", "--random", "0", "--tol", "support_cutoff=-1"],
    ["verify", "mutual", "--M", "4", "--random", "-3"],
    ["sweep", "mutual-slack", "--random", "-1"],
    ["verify", "mutual", "--M", "4", "--random", "0", "--jobs", "0"],
    ["verify", "ef", "--M", "4", "--random", "0", "--restarts", "-3"],
    ["sweep", "ef", "--restarts", "-2"],
    ["sweep", "s2", "--M", "0"],
    ["sweep", "s2", "--N", ""],
    ["sweep", "mutual-slack", "--M-range", ""],
    ["sweep", "yang-spectrum", "--m", ""],
])
def test_malformed_values_exit_2(argv, capsys):
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("fermient: error: ")
    assert len(captured.err.strip().splitlines()) == 1


@pytest.mark.parametrize("argv", [
    ["verify", "mutual", "--M", "4", "--random", "0", "--seed", "-1"],
    ["state", "random", "--M", "4", "--N", "2", "--seed", "-1"],
])
def test_negative_seeds_exit_2(argv, capsys):
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "fermient: error: --seed must be at least 0, got -1\n"


def test_verify_empty_selection_is_usage_error(capsys):
    assert cli.main(["verify", "mutual", "--M", "99", "--random", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--M 99" in captured.err


def test_bad_fermistate_files_exit_2(tmp_path, capsys):
    dup = tmp_path / "dup.fermistate"
    dup.write_text("fermistate 4 2\n1 0.6 0\n1 0.8 0\n")
    word = tmp_path / "word.fermistate"
    word.write_text("fermistate 4 2\nx 1.0 0.0\n")
    assert cli.main(["entropy", str(dup)]) == 2
    assert cli.main(["entropy", str(word)]) == 2
    capsys.readouterr()


def test_capacity_exit_3(capsys):
    assert cli.main(["state", "random", "--M", "40", "--N", "20"]) == 3
    assert "capacity" in capsys.readouterr().err


def test_verify_outputs_are_byte_identical(tmp_path, monkeypatch):
    argv = ["verify", "mutual", "--M", "4", "--random", "1",
            "--out", "report.json"]
    d1 = tmp_path / "a"
    d2 = tmp_path / "b"
    d1.mkdir()
    d2.mkdir()
    monkeypatch.chdir(d1)
    assert cli.main(argv) == 0
    monkeypatch.chdir(d2)
    assert cli.main(argv) == 0
    assert (d1 / "report.json").read_bytes() == (d2 / "report.json").read_bytes()


def test_verify_jobs_reports_match(tmp_path):
    base = ["verify", "mutual", "--M", "4", "--random", "1"]
    one = tmp_path / "one.json"
    two = tmp_path / "two.json"
    assert cli.main(base + ["--jobs", "1", "--out", str(one)]) == 0
    assert cli.main(base + ["--jobs", "2", "--out", str(two)]) == 0
    # report lines are identical; only the embedded config (jobs, out) differs
    tail = lambda p: p.read_text().splitlines()[1:]
    assert tail(one) == tail(two)


def test_verify_csv_format(capsys):
    assert cli.main(["verify", "mutual", "--M", "4", "--random", "1",
                     "--format", "csv"]) == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert lines[0] == "# fermient 0.1.0"
    data = [ln for ln in lines if not ln.startswith("#")]
    rows = list(csv.reader(io.StringIO("\n".join(data))))
    assert rows[0] == ["name", "lhs", "rhs", "slack", "holds", "context"]
    ctx = json.loads(rows[1][5])  # context column round-trips as JSON
    assert "S1" in ctx
    assert "generated" not in out


def test_stamp_adds_timestamp(capsys):
    assert cli.main(["yang", "--m", "2", "--n", "1"]) == 0
    plain = _json_lines(capsys.readouterr().out)[0]["meta"]
    assert "generated" not in plain
    assert cli.main(["yang", "--m", "2", "--n", "1", "--stamp"]) == 0
    stamped = _json_lines(capsys.readouterr().out)[0]["meta"]
    assert "generated" in stamped


def test_sweep_s2_table(capsys):
    assert cli.main(["sweep", "s2", "--N", "2..4", "--format", "csv"]) == 0
    out = capsys.readouterr().out
    data = [ln for ln in out.splitlines() if not ln.startswith("#")]
    rows = list(csv.reader(io.StringIO("\n".join(data))))
    assert rows[0] == ["N", "M", "dim2", "s2_numeric", "s2_analytic", "abs_diff"]
    assert len(rows) == 4
    for row in rows[1:]:
        assert float(row[5]) < 1e-10  # numeric matches ln C(N,2)


def test_sweep_text_format(capsys):
    assert cli.main(["verify", "mutual", "--M", "4", "--random", "1",
                     "--format", "text"]) == 0
    out = capsys.readouterr().out
    assert "HOLDS" in out and "VIOLATED" not in out


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--version"])
    assert exc.value.code == 0
    assert "fermient" in capsys.readouterr().out


def test_tol_overrides_parse_by_field_type(capsys):
    yang = ["yang", "--m", "3", "--n", "1", "--numeric"]
    for bad in ("jacobi_max_sweeps=5.5", "unit_trace=nan", "bound_slack=inf",
                "hermiticity=abc"):
        assert cli.main(yang + ["--tol", bad]) == 2, bad
    capsys.readouterr()


def test_unread_and_duplicate_tolerances_are_unknown_names(capsys):
    yang = ["yang", "--m", "3", "--n", "1"]
    for gone in ("jacobi_max_sweeps=50", "trace_match=1e-9", "ef_sweep_tol=1e3"):
        assert cli.main(yang + ["--tol", gone]) == 2, gone
        assert "unknown tolerance" in capsys.readouterr().err


def test_physics_rdm_trace_is_judged_by_unit_trace(tmp_path, capsys):
    # the trace C(3, 2) = 3, off by 1.5e-8, is within unit_trace * 3; off by
    # 3e-7 it is not
    r = rescale(reduce_pure(random_pure_state(RankedBasis(5, 3), seed=5), 2), PHYSICS)
    p = tmp_path / "r.fermirdm"
    p.write_text(dumps_rdm(dataclasses.replace(r, matrix=r.matrix * (1 + 5e-9))))
    assert cli.main(["entropy", str(p)]) == 0
    p.write_text(dumps_rdm(dataclasses.replace(r, matrix=r.matrix * (1 + 1e-7))))
    assert cli.main(["entropy", str(p)]) == 2
    assert "inconsistent with tag" in capsys.readouterr().err


def test_physics_rdm_count_is_the_nearest_binomial(tmp_path, capsys):
    # the trace C(10, 5) = 252 off by 2.0e-6 is within unit_trace * 252 =
    # 2.5e-6; off by 5.0e-6 it still names N = 10, and unit_trace refuses it
    r = rescale(reduce_pure(random_pure_state(RankedBasis(12, 10), seed=1), 5), PHYSICS)
    p = tmp_path / "r.fermirdm"
    text = dumps_rdm(dataclasses.replace(r, matrix=r.matrix * (1 + 8e-9)))
    p.write_text(text)
    assert cli.main(["entropy", str(p)]) == 0
    assert loads_rdm(text).n_particles == 10
    p.write_text(dumps_rdm(dataclasses.replace(r, matrix=r.matrix * (1 + 2e-8))))
    assert cli.main(["entropy", str(p)]) == 2
    assert "inconsistent with tag" in capsys.readouterr().err


def test_physics_rdm_with_an_overflowing_trace_exits_2(tmp_path, capsys):
    # two diagonal entries of 1e308 sum to inf, which is near no C(n, 1)
    zeros = " 0 0" * 2 + "\n"
    p = tmp_path / "inf.fermirdm"
    p.write_text("fermirdm 4 1 physics\n1e308 0 0 0" + zeros + "0 0 1e308 0" + zeros
                 + ("0 0" + " 0 0" * 3 + "\n") * 2)
    assert cli.main(["entropy", str(p)]) == 2
    assert "particle count unknown" in capsys.readouterr().err


def test_jobs_is_a_verify_option_only(tmp_path, capsys):
    p = _write_yang(tmp_path, 2, 1)
    for argv in (["state", "yang", "--m", "2", "--n", "1"], ["rdm", str(p), "--k", "1"],
                 ["entropy", str(p)], ["yang", "--m", "2", "--n", "1"], ["sweep", "s2"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv + ["--jobs", "2"])
        assert exc.value.code == 2
    capsys.readouterr()


def test_options_a_command_does_not_read_are_refused(tmp_path, capsys):
    p = _write_yang(tmp_path, 2, 1)
    yang = ["yang", "--m", "2", "--n", "1"]
    for argv in (["rdm", str(p), "--k", "1", "--seed", "2"], ["entropy", str(p), "--seed", "2"],
                 yang + ["--seed", "2"],
                 ["state", "yang", "--m", "2", "--n", "1", "--format", "json"],
                 ["rdm", str(p), "--k", "1", "--format", "json"],
                 ["entropy", str(p), "--format", "text"], yang + ["--format", "text"],
                 ["sweep", "s2", "--format", "text"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2, argv
    capsys.readouterr()


def test_parser_is_built_once_and_calls_share_no_state(tmp_path, capsys):
    assert cli.build_parser() is cli.build_parser()
    p = _write_yang(tmp_path, 2, 1)
    capsys.readouterr()
    assert cli.main(["verify", "mutual", "--random", "0", "--states", str(p),
                     "--tol", "bound_slack=1e-6"]) == 0
    first = _json_lines(capsys.readouterr().out)[0]["meta"]
    assert first["config"]["states"] == [str(p)]
    assert first["tolerances"]["bound_slack"] == 1e-6
    assert cli.main(["verify", "mutual", "--M", "4", "--random", "0"]) == 0
    second = _json_lines(capsys.readouterr().out)[0]["meta"]
    assert second["config"]["tol"] is None and second["config"]["states"] == []
    assert second["tolerances"]["bound_slack"] != 1e-6


def test_verify_jobs_are_capped_at_the_suite_count(monkeypatch, capsys):
    # a fork pool starts every worker it is asked for; the fake starts none
    import concurrent.futures
    requested = []

    class RecordingPool:
        def __init__(self, max_workers):
            requested.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    assert cli.main(["verify", "yang", "--jobs", "64"]) == 0
    assert requested == []          # one suite runs serially
    assert cli.main(["verify", "all", "--M", "4", "--random", "0", "--restarts", "1",
                     "--jobs", "64"]) == 0
    assert requested == [len(cli._SUITES)]
    capsys.readouterr()


def test_verify_reads_each_state_file_once(tmp_path, monkeypatch, capsys):
    from fermient import statekit
    p = tmp_path / "F.fermistate"
    assert cli.main(["state", "random", "--M", "5", "--N", "3", "--seed", "4",
                     "--out", str(p)]) == 0
    capsys.readouterr()
    reads = []
    read_text = statekit.read_text

    def spy(path):
        reads.append(path)
        return read_text(path)

    monkeypatch.setattr(statekit, "read_text", spy)
    assert cli.main(["verify", "all", "--random", "0", "--M", "5", "--states", str(p),
                     "--restarts", "1"]) == 0
    assert reads == [str(p)]
    reports = _json_lines(capsys.readouterr().out)[1:]
    assert {r["name"] for r in reports if r["context"].get("state") == f"user-0-{p}"} == {
        "mutual-info/jensen", "mutual-info/purity", "subadd/remainder", "n-body/elem-sym",
        "ef/floor"}


def test_verify_refuses_a_missing_state_file_before_any_pool(tmp_path, monkeypatch, capsys):
    import concurrent.futures
    requested = []

    class RecordingPool:
        def __init__(self, max_workers):
            requested.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    missing = tmp_path / "missing.fermistate"
    assert cli.main(["verify", "all", "--jobs", "2", "--states", str(missing)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and requested == []
    assert err.startswith("fermient: io error: ") and err.count("\n") == 1
    assert str(missing) in err


def test_one_particle_states_skip_the_2rdm_suites(tmp_path, capsys):
    p = tmp_path / "n1.fermistate"
    assert cli.main(["state", "slater", "--M", "3", "--occ", "1", "--out", str(p)]) == 0
    capsys.readouterr()
    assert cli.main(["verify", "all", "--random", "0", "--M", "3", "--states", str(p)]) == 0
    reports = _json_lines(capsys.readouterr().out)[1:]
    # of the suites that read corpus states, only `elem` reports on N = 1
    assert [r["name"] for r in reports if "state" in r["context"]] == ["n-body/elem-sym"]


def test_verify_reports_identical_across_processes(tmp_path):
    # reductions run through BLAS, so compare fresh interpreters, not one process
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONHASHSEED="0",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    argv = [sys.executable, "-m", "fermient.cli", "verify", "all", "--random", "3",
            "--restarts", "1"]

    def run(*extra):
        done = subprocess.run(argv + list(extra), env=env, cwd=tmp_path,
                              capture_output=True, timeout=120)
        assert done.returncode == 0, done.stderr.decode()
        return done.stdout

    first, second, jobs2 = run(), run(), run("--jobs", "2")
    assert first == second
    # only the meta line (it embeds the jobs option) may differ
    assert first.splitlines()[1:] == jobs2.splitlines()[1:]
    assert len(first.splitlines()) > 100


def test_crash_exits_4_with_one_line(capsys, monkeypatch):
    def crash(**kwargs):
        raise RuntimeError("planted crash")

    monkeypatch.setitem(cli._SUITES, "mutual", crash)
    assert cli.main(["verify", "mutual", "--M", "4", "--random", "1"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.strip().splitlines() == [
        "fermient: internal error: RuntimeError: planted crash"]


def test_wrong_eigensolver_result_exits_4(capsys, monkeypatch):
    real = hermlin.np.linalg.eigh

    def wrong(a):
        lam, vecs = real(a)
        return lam, np.roll(vecs, 1, axis=1)

    monkeypatch.setattr(hermlin.np.linalg, "eigh", wrong)
    assert cli.main(["verify", "subadd", "--M", "4", "--random", "0"]) == 4
    err = capsys.readouterr().err
    assert err.startswith("fermient: numerical failure: eigen-residual")
    assert len(err.strip().splitlines()) == 1


def test_bound_report_grace_zero_holds_exactly_at_the_limit():
    limit = 1e-10
    assert bound_report("match", limit, limit, "<=", grace=0.0).holds
    above = float(np.nextafter(limit, 1.0))
    assert not bound_report("match", above, limit, "<=", grace=0.0).holds
    assert bound_report("match", limit + 5e-10, limit, "<=").holds  # bound_slack 1e-9


def test_tracer_sees_every_layer_call(monkeypatch, capsys):
    # the benchmark's Tracer rebinds layer functions only where the package and
    # its layer modules hold them; a from-import elsewhere escapes it
    monkeypatch.syspath_prepend(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    from perfbench.tracing import LAYERS, Tracer

    import fermient
    originals = {id(getattr(importlib.import_module(f"fermient.{layer}"), name))
                 for layer, names in LAYERS.items() for name in names}
    tracer = Tracer()
    tracer.install(fermient)
    try:
        assert cli.main(["verify", "ef", "--M", "4", "--random", "0"]) == 0
        assert cli.main(["verify", "yang"]) == 0
        untraced = [f"{modname}.{attr}" for modname, mod in list(sys.modules.items())
                    if modname.startswith("fermient.")
                    for attr, val in vars(mod).items() if id(val) in originals]
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert tracer.missing == []
    assert untraced == []
    names = {span[3] for span in tracer.spans}
    assert {"entmeasures.ef_optimize", "hermlin.eig_herm",
            "rdmcore.reduce_mixed"} <= names


def test_non_ascii_and_misheaded_state_files_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.fermistate"
    bad.write_bytes(b"fermistate 4 2\n# caf\xc3\xa9\n0 1 0\n")
    foo = _write_yang(tmp_path, 2, 1, "foo.fermistate")
    foo.write_text(foo.read_text().replace("fermistate 4 2", "fermistatefoo 4 2"))
    for argv in (["entropy", str(bad)], ["rdm", str(bad), "--k", "1"],
                 ["verify", "mutual", "--random", "0", "--states", str(bad)],
                 ["entropy", str(foo)],
                 ["verify", "mutual", "--random", "0", "--states", str(foo)]):
        assert cli.main(argv) == 2, argv
        assert capsys.readouterr().err.startswith("fermient: error: ")


@pytest.mark.parametrize("name", ["ta\tb.fermistate", "café.fermistate"])
def test_unusual_paths_give_valid_json_lines(tmp_path, capsys, name):
    p = _write_yang(tmp_path, 2, 1, name)
    assert load_state(p).basis.dim == 6
    out = tmp_path / "r.json"
    assert cli.main(["verify", "mutual", "--random", "0", "--states", str(p),
                     "--out", str(out)]) == 0
    lines = _json_lines(out.read_text(encoding="utf-8"))
    assert lines[0]["meta"]["config"]["states"] == [str(p)]
    assert f"user-0-{p}" in {ln["context"]["state"] for ln in lines[1:]}
    capsys.readouterr()


def test_entropy_of_a_k_rdm_above_tensor_dim_exits_3(tmp_path, capsys, monkeypatch):
    from fermient import config, rdmcore

    p = tmp_path / "s.fermistate"
    assert cli.main(["state", "random", "--M", "6", "--N", "3", "--out", str(p)]) == 0
    capsys.readouterr()
    monkeypatch.setattr(rdmcore, "CAP", config.Capacities(tensor_dim=8))
    assert cli.main(["entropy", str(p), "--k", "2"]) == 3
    assert capsys.readouterr().err.startswith("fermient: capacity: ")


def test_entropy_of_a_gather_table_above_a_tensor_dim_matrix_exits_3(tmp_path, capsys,
                                                                    monkeypatch):
    from fermient import rdmcore

    p = tmp_path / "s.fermistate"
    assert cli.main(["state", "random", "--M", "8", "--N", "4", "--out", str(p)]) == 0
    capsys.readouterr()
    rdmcore._gather_table.cache_clear()
    monkeypatch.setattr(rdmcore, "CAP", dataclasses.replace(rdmcore.CAP, tensor_dim=8))
    assert cli.main(["entropy", str(p), "--k", "1"]) == 3
    assert capsys.readouterr().err.startswith("fermient: capacity: ")


def test_state_above_half_filling_is_built_level_by_level(tmp_path, capsys):
    # C(32, 28) = 35960 basis states, without the C(32, 16) masks between
    p = tmp_path / "y.fermistate"
    assert cli.main(["state", "yang", "--m", "16", "--n", "14", "--out", str(p)]) == 0
    assert "dim=35960" in capsys.readouterr().out


def test_oversized_bases_exit_3(tmp_path, capsys):
    occ = ",".join(str(i) for i in range(32))
    assert cli.main(["state", "slater", "--M", "64", "--occ", occ]) == 3
    big = tmp_path / "big.fermistate"
    big.write_text("fermistate 64 32\n0 1 0\n")
    assert cli.main(["entropy", str(big)]) == 3
    assert capsys.readouterr().err.count("fermient: capacity: ") == 2


@pytest.mark.parametrize("header", ["fermirdm 64 32 unit", "fermirdm 20 10 unit",
                                    "fermirdm 16 8 unit"])
def test_rdm_header_without_rows_exits_2(tmp_path, capsys, header):
    p = tmp_path / "short.fermirdm"
    p.write_text(header + "\n")
    assert cli.main(["entropy", str(p)]) == 2
    assert "matrix rows, found 0" in capsys.readouterr().err


def test_physics_rdm_with_impossible_trace_exits_2(tmp_path, capsys):
    zeros = " 0 0" * 3 + "\n"
    p = tmp_path / "t10.fermirdm"
    p.write_text("fermirdm 4 1 physics\n10 0" + zeros + ("0 0" + zeros) * 3)
    assert cli.main(["entropy", str(p)]) == 2
    assert "particle count unknown" in capsys.readouterr().err


def test_state_chi_and_sweeps_run(capsys):
    assert cli.main(["state", "chi", "--m", "3"]) == 0
    out, err = capsys.readouterr()
    assert np.count_nonzero(loads_state(out).amplitudes) == 3
    assert "fermistate M=6 N=2 dim=15 support=3" in err
    assert cli.main(["sweep", "yang-spectrum", "--m", "2..3"]) == 0
    rows = _json_lines(capsys.readouterr().out)[1:]
    assert len(rows) == 5 and all(r["max_spectrum_diff"] < 1e-12 for r in rows)
    assert cli.main(["sweep", "mutual-slack", "--random", "1", "--M-range", "4..5"]) == 0
    rows = _json_lines(capsys.readouterr().out)[1:]
    assert len(rows) == 14 and all(r["holds"] == "true" for r in rows)
    assert cli.main(["sweep", "ef", "--restarts", "1"]) == 0
    rows = _json_lines(capsys.readouterr().out)[1:]
    assert [r["case"] for r in rows] == ["slater-proj-M4", "mix2-M4", "mix3-M6"]
    assert all(r["excess"] > -1e-4 for r in rows)


@pytest.mark.parametrize("argv", [
    ["verify", "yang", "--M", "4"],
    ["verify", "yang", "--states", "f.fermistate"],
    ["verify", "squash", "--N", "3"],
    ["verify", "mutual", "--restarts", "3"],
    ["verify", "elem", "--ensemble", "square"],
    ["state", "chi", "--M", "4"],
    ["state", "slater", "--M", "4", "--occ", "0,1", "--seed", "2"],
    ["sweep", "s2", "--restarts", "3"],
    ["sweep", "yang-spectrum", "--random", "2"],
    ["sweep", "mutual-slack", "--M", "4"],
    ["rdm", "FILE", "--k", "1", "--seed", "3"],
    ["verify", "ef", "--max-iters", "4"],
    ["sweep", "ef", "--max-iters", "4"],
])
def test_an_option_the_call_does_not_read_shows_its_usage(argv, capsys):
    call = argv[:1] if argv[0] == "rdm" else argv[:2]
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"usage: fermient {' '.join(call)} ")
    assert captured.err.strip().splitlines()[-1].startswith(
        f"fermient {' '.join(call)}: error: unrecognized arguments: ")


@pytest.mark.parametrize("argv", [
    ["verify", "ef", "--random", "8", "--seed", "3", "--jobs", "1", "--M", "6", "--N", "2"],
    *(["verify", suite, "--random", "150", "--seed", "3", "--jobs", "1"]
      for suite in ("mutual", "subadd", "elem", "squash", "yang")),
    ["entropy", "P", "--k", "2"],
    ["rdm", "P", "--k", "2", "--norm", "physics", "--out", "R"],
])
def test_benchmark_command_lines_parse(argv):
    args, extra = cli.build_parser().parse_known_args(argv)
    assert extra == []


def test_headers_record_only_the_options_a_call_takes(capsys):
    common = {"command", "tol", "format", "out", "stamp"}
    assert cli.main(["verify", "yang"]) == 0
    meta = _json_lines(capsys.readouterr().out)[0]["meta"]
    assert set(meta["config"]) == common | {"suite", "random", "seed", "jobs"}
    assert cli.main(["sweep", "s2", "--N", "2..3"]) == 0
    meta = _json_lines(capsys.readouterr().out)[0]["meta"]
    assert set(meta["config"]) == common | {"quantity", "N", "M"}
    assert cli.main(["state", "chi", "--m", "2"]) == 0
    header = capsys.readouterr().out.splitlines()[1]
    assert header.startswith("# config: ")
    config = json.loads(header.removeprefix("# config: "))
    assert set(config) == common - {"format"} | {"kind", "m"}


def test_verify_whose_states_were_all_skipped_says_so(tmp_path, capsys):
    p = tmp_path / "n1.fermistate"
    assert cli.main(["state", "slater", "--M", "3", "--occ", "1", "--out", str(p)]) == 0
    capsys.readouterr()
    assert cli.main(["verify", "ef", "--random", "0", "--M", "3", "--states", str(p)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.strip().splitlines()) == 1
    assert "no state matches" not in captured.err
    assert "skipped" in captured.err and "N >= 2" in captured.err


@pytest.mark.parametrize("header, bad", [("fermirdm 4 1 physics", "nan"),
                                         ("fermirdm 4 1 unit", "inf")])
def test_rdm_files_with_non_finite_entries_exit_2(tmp_path, capsys, header, bad):
    rows = [["0"] * 8 for _ in range(4)]
    for i in range(4):
        rows[i][2 * i] = "0.25" if header.endswith("unit") else "0.5"
    rows[2][4] = bad
    p = tmp_path / "bad.fermirdm"
    p.write_text(header + "\n" + "".join(" ".join(r) + "\n" for r in rows))
    for argv in (["entropy", str(p)], ["rdm", str(p), "--k", "1"]):
        assert cli.main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.strip().splitlines()) == 1
        assert captured.err.startswith("fermient: error: row 2 has a non-finite entry")


@pytest.mark.parametrize("argv", [["entropy"], ["rdm", "--k", "1"]])
def test_indefinite_rdm_file_exits_2(tmp_path, capsys, argv):
    # trace 1, eigenvalues 1.5 and -0.5: no density matrix, so no entropy
    p = tmp_path / "indefinite.fermirdm"
    p.write_text("fermirdm 2 1 unit\n1.5 0 0 0\n0 0 -0.5 0\n")
    assert cli.main([argv[0], str(p), *argv[1:]]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("fermient: error: ") and err.count("\n") == 1
    assert "negative" in err


@pytest.mark.parametrize("command", ["entropy", "rdm"])
def test_indefinite_rdm_file_is_refused_whatever_k(tmp_path, capsys, command):
    # diagonal (0.7, 0.4, -0.1, 0, 0, 0): its traced 1-RDM, diagonal
    # (0.55, 0.3, 0.15, 0), is PSD, yet the file is no density matrix
    diag = [0.7, 0.4, -0.1, 0.0, 0.0, 0.0]
    rows = [" ".join(f"{diag[i] if i == j else 0} 0" for j in range(6)) for i in range(6)]
    p = tmp_path / "indefinite.fermirdm"
    p.write_text("fermirdm 4 2 unit\n" + "\n".join(rows) + "\n")
    assert cli.main([command, str(p), "--k", "1"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("fermient: error: ") and err.count("\n") == 1
    assert "negative" in err


@pytest.mark.parametrize("argv, needs", [
    (["state", "slater", "--M", "4"], "slater needs --M and --occ"),
    (["state", "slater", "--occ", "0,1"], "slater needs --M and --occ"),
    (["state", "yang", "--m", "3"], "yang needs --m and --n"),
    (["state", "yang", "--n", "1"], "yang needs --m and --n"),
    (["state", "chi"], "chi needs --m"),
    (["state", "random", "--M", "4"], "random needs --M and --N"),
])
def test_state_kinds_name_their_missing_flags(argv, needs, capsys):
    assert cli.main(argv) == 2
    assert capsys.readouterr() == ("", f"fermient: error: state {needs}\n")


def test_yang_without_pair_fraction_writes_an_infinite_squash_candidate(capsys):
    # m = n = 1 fills the one mode pair: esq_bound_paper is +inf
    assert cli.main(["yang", "--m", "1", "--n", "1"]) == 0
    assert '"esq_upper_candidate": "Infinity"' in capsys.readouterr().out
    assert cli.main(["yang", "--m", "1", "--n", "1", "--format", "csv"]) == 0
    header, row = capsys.readouterr().out.splitlines()[-2:]
    assert dict(zip(header.split(","), row.split(",")))["esq_upper_candidate"] == "Infinity"
    assert (fmt17(math.nan), fmt17(-math.inf)) == ("NaN", "-Infinity")


def test_bound_report_refuses_an_unknown_direction():
    with pytest.raises(ValueError):
        bound_report("x", 0.0, 0.0, "==")


def test_mutual_slack_sweep_skips_more_particles_than_modes(capsys):
    assert cli.main(["sweep", "mutual-slack", "--M-range", "3", "--N", "4"]) == 0
    lines = _json_lines(capsys.readouterr().out)
    assert len(lines) == 1 and "meta" in lines[0]


@pytest.mark.parametrize("diag, trace", [(["10", "0"], "10.0"), (["1e308", "1e308"], "inf")])
def test_physics_rdm_near_no_count_names_its_trace(tmp_path, capsys, diag, trace):
    # a physics-tagged file whose trace is near no C(n, 1), 1 <= n <= 4; the
    # second sums 1e308 + 1e308, and numpy's overflow warning stays off stderr
    diag = diag + ["0", "0"]
    rows = [" ".join(f"{diag[i] if j == i else 0} 0" for j in range(4)) for i in range(4)]
    p = tmp_path / "t.fermirdm"
    p.write_text("fermirdm 4 1 physics\n" + "\n".join(rows) + "\n")
    assert cli.main(["entropy", str(p)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1, err
    assert "particle count unknown" in err and f"trace {trace} " in err
    assert "1 <= n <= 4" in err and "load a physics-tagged file" not in err


def test_unit_rdm_without_a_count_keeps_the_rescale_hint():
    r = reduce_pure(random_pure_state(RankedBasis(4, 2), seed=1), 1)
    r = dataclasses.replace(r, n_particles=None)
    with pytest.raises(NormalizationError, match="load a physics-tagged file"):
        rescale(r, PHYSICS)


def test_a_call_builds_only_the_parser_of_its_own_leaf(tmp_path, monkeypatch, capsys):
    # every parser's arguments were once added up front (about 160
    # add_argument calls a process); now only the called leaf's are
    import argparse

    p = _write_yang(tmp_path, 2, 1)
    added = []
    add = argparse._ActionsContainer.add_argument

    def spy(self, *args, **kwargs):
        added.append(args[0])
        return add(self, *args, **kwargs)

    monkeypatch.setattr(argparse._ActionsContainer, "add_argument", spy)
    cli.build_parser.cache_clear()
    try:
        assert cli.main(["entropy", str(p), "--k", "1"]) == 0
    finally:
        cli.build_parser.cache_clear()
    capsys.readouterr()
    # "-h" is the help flag every ArgumentParser adds to itself
    assert sorted(added) == sorted(["-h", "--version",
                                    "-h", "input", "--k", "--bits", "--tol", "--format",
                                    "--out", "--stamp"])


def test_verify_elem_checks_the_e_k_route_the_bound_reads(monkeypatch, capsys):
    # elem/routes compares the product recursion behind every n-body/elem-sym
    # rhs with subset sums; a shift that the bound reports absorb is caught
    exact = entmeasures._elem_sym_spectrum
    monkeypatch.setattr(entmeasures, "_elem_sym_spectrum",
                        lambda lam, k: exact(lam, k) + 1e-9)
    assert cli.main(["verify", "elem", "--random", "0", "--M", "4"]) == 1
    reports = _json_lines(capsys.readouterr().out)[1:]
    assert all(r["holds"] for r in reports if r["name"] == "n-body/elem-sym")
    assert any(r["name"] == "elem/routes" and not r["holds"] for r in reports)


@pytest.mark.parametrize("quantity, ranges", [
    ("s2", {"N": "2..6"}),
    ("mutual-slack", {"N": "2..4", "M_range": "4..6"}),
    ("yang-spectrum", {"m": "2..5"}),
])
def test_sweep_headers_record_the_default_ranges_they_ran(quantity, ranges, capsys):
    argv = ["sweep", quantity] + (["--random", "0"] if quantity == "mutual-slack" else [])
    assert cli.main(argv) == 0
    config = _json_lines(capsys.readouterr().out)[0]["meta"]["config"]
    assert {k: config[k] for k in ranges} == ranges


def test_verify_n_filter_keeps_only_its_particle_count(capsys):
    assert cli.main(["verify", "mutual", "--random", "8", "--N", "3"]) == 0
    reports = _json_lines(capsys.readouterr().out)[1:]
    states = {e.name for e in build_corpus(1, 8) if e.basis.n_particles == 3}
    assert len(states) == 6 and len(reports) == 12
    assert {r["context"]["state"] for r in reports} == states


def test_verify_ef_square_ensemble_meets_the_exact_four_mode_value(capsys):
    argv = ["verify", "ef", "--random", "0", "--M", "4", "--ensemble", "square",
            "--restarts", "1"]
    assert cli.main(argv) == 0
    meta, *reports = _json_lines(capsys.readouterr().out)
    assert meta["meta"]["config"]["ensemble"] == "square"
    exact = {e.name: ef_exact_m4(e.rdm(2)) for e in build_corpus(1, 0)
             if e.basis.n_modes == 4 and e.basis.n_particles >= 2}
    assert reports and {r["context"]["state"] for r in reports} == set(exact)
    for r in reports:
        assert r["name"] == "ef/floor"
        assert abs(r["lhs"] - exact[r["context"]["state"]]) <= 1e-8, r
