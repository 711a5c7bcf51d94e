import json
import os
import stat

import pytest

from primesq import cli, verify


def run_cli(*argv):
    return cli.main(list(argv))


def test_compute_pi_prints_value(capsys):
    assert run_cli("compute", "pi", "--x", "1000000") == 0
    assert capsys.readouterr().out.strip() == "78498"


def test_compute_pi_single_method(capsys):
    assert run_cli("compute", "pi", "--x", "1000", "--method", "window_sieve") == 0
    assert capsys.readouterr().out.strip() == "168"


def test_combinatorial_pi_at_documented_limit(capsys):
    assert run_cli("compute", "pi", "--x", "1000000000000", "--method", "combinatorial") == 0
    assert capsys.readouterr().out.strip() == "37607912018"


def test_compute_f_g_delta(capsys):
    assert run_cli("compute", "f", "--n", "4") == 0
    assert capsys.readouterr().out.strip() == "3"
    assert run_cli("compute", "g", "--n", "10") == 0
    assert capsys.readouterr().out.strip() == "10"
    assert run_cli("compute", "delta", "--n", "3") == 0
    assert capsys.readouterr().out.strip() == "1.674704"


def test_compute_m_and_bounds(capsys):
    assert run_cli("compute", "m", "--n", "650") == 0
    assert capsys.readouterr().out.strip() == "635"
    assert run_cli("compute", "bounds", "--x", "1000000") == 0
    out = capsys.readouterr().out
    assert "78304.235950" in out and "78573.487078" in out
    assert out.count("valid=yes") == 2
    assert run_cli("compute", "bounds", "--x", "100") == 0
    assert capsys.readouterr().out.count("valid=no") == 2


def test_compute_missing_flag_is_usage_error(capsys):
    assert run_cli("compute", "f") == 2
    assert "the following arguments are required: --n" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ("compute", "f", "--n", "4", "--x", "5"),
    ("compute", "f", "--n", "4", "--method", "combinatorial"),
    ("compute", "g", "--n", "10", "--x", "5"),
    ("compute", "m", "--n", "650", "--method", "both"),
    ("compute", "delta", "--n", "3", "--x", "5"),
    ("compute", "bounds", "--x", "100", "--n", "5"),
    ("compute", "bounds", "--x", "100", "--method", "both"),
    ("compute", "pi", "--x", "100", "--n", "5"),
])
def test_compute_rejects_flags_its_quantity_ignores(argv, capsys):
    assert run_cli(*argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and f"unrecognized arguments: {' '.join(argv[4:])}" in captured.err


@pytest.mark.parametrize("n, want", [("9999999", "601174.568648\n"), ("1000000000", "47090672.721492\n")])
def test_compute_delta_prints_correct_digits(n, want, capsys):
    assert run_cli("compute", "delta", "--n", n) == 0
    assert capsys.readouterr().out == want


@pytest.mark.parametrize("n", [str(3 * 10**11), str(10**187)])
def test_compute_delta_beyond_six_decimals_exits_2(n, capsys):
    assert run_cli("compute", "delta", "--n", n) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("primesq: error: delta(") and captured.err.count("\n") == 1


def test_compute_bounds_at_quad_precision(capsys):
    assert run_cli("compute", "bounds", "--x", str(10**12)) == 0
    out = capsys.readouterr().out
    assert "L(1000000000000) = 37586336338.443184" in out
    assert "U(1000000000000) = 37619992729.448120" in out
    assert run_cli("compute", "bounds", "--x", str(10**400)) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert "exceed the double range" in captured.err


def test_verify_below_domain_exits_2(capsys):
    assert run_cli("verify", "c2", "--from", "2", "--to", "10") == 2
    assert "need from >= 3" in capsys.readouterr().err


def test_verify_small_campaign_json(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = run_cli("verify", "c1", "--from", "5", "--to", "60",
                   "--format", "json", "--out", str(out))
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["target"] == "c1"
    assert payload["violations"] == []
    assert payload["range"] == [5, 60]


def test_verify_csv_output(tmp_path):
    out = tmp_path / "rows.csv"
    assert run_cli("verify", "c2", "--from", "3", "--to", "40",
                   "--format", "csv", "--out", str(out)) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == ("n,f,pi_n2,delta,c1_rhs,c2_lhs,t_floor,"
                        "margin_c1,margin_c2,margin_thm,boundary_flag")
    assert len(lines) == 1 + 38


def test_campaign_at_far_n(tmp_path, capsys):
    out = tmp_path / "rows.csv"
    assert run_cli("verify", "c2", "--from", "700000", "--to", "700001",
                   "--format", "csv", "--out", str(out)) == 0
    first, second = (line.split(",") for line in out.read_text().splitlines()[1:])
    assert int(first[2]) + int(first[1]) == int(second[2])  # pi_n2 + f chains
    assert run_cli("verify", "c2", "--from", "999999", "--to", "1000000") == 2
    err = capsys.readouterr().err
    assert err.startswith("primesq: error:") and err.count("\n") == 1


def test_lemmas_and_dusart_reject_csv(capsys):
    assert run_cli("verify", "lemmas", "--from", "3", "--to", "10", "--format", "csv") == 2
    assert "invalid choice: 'csv'" in capsys.readouterr().err
    assert run_cli("verify", "dusart", "--format", "csv") == 2
    assert "invalid choice: 'csv'" in capsys.readouterr().err


def test_verify_lemmas_json(capsys):
    assert run_cli("verify", "lemmas", "--from", "3", "--to", "200", "--format", "json") == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["lemma1"]["violations"] == []
    assert payload["lemma2"]["violations"] == []


def test_verify_dusart_table(capsys):
    assert run_cli("verify", "dusart", "--samples", "100,1000000") == 0
    out = capsys.readouterr().out
    assert "violations  : 0" in out and "skipped=1" in out


def test_table_c3(capsys):
    assert run_cli("table", "c3", "--ns", "597,650") == 0
    out = capsys.readouterr().out
    assert "597,64,597,1.000000" in out
    assert out.splitlines()[0] == "n,s_sum,m,ratio"


def test_table_c3_json(capsys):
    assert run_cli("table", "c3", "--ns", "597", "--format", "json") == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload == [{"n": 597, "s_sum": 64, "m": 597, "ratio": 1.0}]


def test_workers_byte_identical_files(tmp_path):
    outs = []
    for workers in ("1", "2"):
        path = tmp_path / f"w{workers}.csv"
        assert run_cli("verify", "theorem", "--from", "3", "--to", "700",
                       "--workers", workers, "--format", "csv", "--out", str(path)) == 0
        outs.append(path.read_bytes())
    assert outs[0] == outs[1]


def test_cli_checkpoint_resume(tmp_path):
    ck = tmp_path / "ck.txt"
    ref = tmp_path / "ref.json"
    res = tmp_path / "res.json"
    assert run_cli("verify", "c2", "--from", "3", "--to", "1200", "--checkpoint", str(ck),
                   "--format", "json", "--out", str(ref)) == 0
    lines = ck.read_text().splitlines()
    ck.write_text("\n".join(lines[:2]) + "\n")  # keep header + first chunk only
    assert run_cli("verify", "c2", "--from", "3", "--to", "1200", "--checkpoint", str(ck),
                   "--resume", "--format", "json", "--out", str(res)) == 0
    assert ref.read_bytes() == res.read_bytes()


@pytest.mark.parametrize("target, first", [("c1", "5"), ("c2", "3"), ("theorem", "3"), ("implication", "3")])
def test_margin_commands_run_one_campaign(monkeypatch, capsys, target, first):
    calls, real_run = [], verify._run_chunked

    def counted_run(from_n, to_n, **kwargs):
        calls.append((from_n, to_n))
        return real_run(from_n, to_n, **kwargs)

    monkeypatch.setattr(verify, "_run_chunked", counted_run)
    for fmt in ("csv", "json", "table"):
        calls.clear()
        assert run_cli("verify", target, "--from", first, "--to", "1100", "--format", fmt) == 0
        assert calls == [(int(first), 1100)]


def test_written_files_get_the_mode_open_gives(tmp_path, capsys):
    ck, out = tmp_path / "ck.txt", tmp_path / "out.csv"
    argv = ["verify", "c2", "--from", "3", "--to", "10", "--checkpoint", str(ck), "--format", "csv",
            "--out", str(out)]
    old = os.umask(0o022)
    try:
        assert run_cli(*argv) == 0
        assert [stat.S_IMODE(p.stat().st_mode) for p in (ck, out)] == [0o644, 0o644]
        for p in (ck, out):
            p.chmod(0o640)
        assert run_cli(*argv) == 0  # rewrites both
        assert [stat.S_IMODE(p.stat().st_mode) for p in (ck, out)] == [0o640, 0o640]
        os.umask(0o027)
        ck.unlink()
        out.unlink()
        assert run_cli(*argv) == 0
        assert [stat.S_IMODE(p.stat().st_mode) for p in (ck, out)] == [0o640, 0o640]
    finally:
        os.umask(old)


def test_resume_requires_checkpoint(capsys):
    assert run_cli("verify", "c2", "--from", "3", "--to", "10", "--resume") == 2
    assert "requires --checkpoint" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [("verify", "c2", "--from", "3", "--to", "10", "--checkpoint", "ck"),
                                  ("report", "all")])
def test_zero_workers_exits_2(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run_cli(*argv, "--workers", "0") == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1 and "--workers" in captured.err
    assert list(tmp_path.iterdir()) == []  # no checkpoint written


def test_bad_usage_exits_2():
    assert run_cli("verify", "nonsense") == 2
    assert run_cli() == 2


def test_pi_method_disagreement_exits_3(capsys, monkeypatch):
    # force the two methods apart to exercise the inconsistency path
    monkeypatch.setattr(cli, "pi_exact", lambda x, method: 1 if method == "window_sieve" else 2)
    assert run_cli("compute", "pi", "--x", "50") == 3
    assert "disagree" in capsys.readouterr().err


def test_report_all_wiring(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "DEFAULT_RANGES", {
        "c1": (5, 40), "c2": (3, 40), "theorem": (3, 40),
        "implication": (3, 40), "lemmas": (3, 40),
    })
    monkeypatch.setattr(cli, "DEFAULT_DUSART_SAMPLES", [10**6])
    monkeypatch.setattr(cli, "DEFAULT_C3_NS", [597])
    out = tmp_path / "all.json"
    assert run_cli("report", "all", "--out", str(out)) == 0
    payload = json.loads(out.read_text())
    assert set(payload) == {"c1", "c2", "theorem", "implication",
                            "lemma1", "lemma2", "dusart", "c3_table"}
    assert all(payload[k]["violations"] == [] for k in
               ("c1", "c2", "theorem", "implication", "lemma1", "lemma2", "dusart"))
    assert payload["c3_table"] == [{"n": 597, "s_sum": 64, "m": 597, "ratio": 1.0}]


def test_unwritable_path_exits_2(tmp_path, capsys):
    missing = tmp_path / "missing"
    assert run_cli("verify", "c2", "--from", "3", "--to", "10",
                   "--checkpoint", str(missing / "ck.txt")) == 2
    err = capsys.readouterr().err
    assert err.startswith("primesq: error:") and err.count("\n") == 1
    assert str(missing / "ck.txt") in err
    assert run_cli("verify", "c2", "--from", "3", "--to", "10", "--out", str(missing / "r.json")) == 2
    assert capsys.readouterr().err.count("\n") == 1


def test_unexpected_exception_exits_3(capsys, monkeypatch):
    def crash(config):
        raise RuntimeError("simulated crash")

    monkeypatch.setattr(cli, "run", crash)
    assert run_cli("verify", "c2", "--from", "3", "--to", "10") == 3
    err = capsys.readouterr().err
    assert "RuntimeError" in err and err.count("\n") == 1


def test_compute_f_range(capsys):
    assert run_cli("compute", "f", "--n", "4000000000") == 2
    err = capsys.readouterr().err
    assert "9999999" in err and err.count("\n") == 1
    assert run_cli("compute", "f", "--n", "9999999") == 0
    assert capsys.readouterr().out == "621074\n"


def test_compute_g_range(capsys):
    assert run_cli("compute", "g", "--n", "10000000") == 2
    err = capsys.readouterr().err
    assert "9999999" in err and err.count("\n") == 1
    assert run_cli("compute", "g", "--n", "3000") == 0
    assert capsys.readouterr().out == "3000\n"


def test_m_range(capsys):
    for argv in (("compute", "m", "--n", "10000000"), ("table", "c3", "--ns", "1000,10000000")):
        assert run_cli(*argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "9999999" in captured.err and captured.err.count("\n") == 1


@pytest.mark.parametrize("option", [["--workers", "4"], ["--precision", "strict"],
                                    ["--checkpoint", "ck"], ["--resume"]])
def test_table_rejects_campaign_options(option, capsys):
    assert run_cli("table", "c3", "--ns", "597", *option) == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("option, message", [(["--checkpoint", "ck"], "unrecognized arguments"),
                                             (["--resume"], "unrecognized arguments"),
                                             (["--format", "csv"], "invalid choice: 'csv'")])
def test_report_rejects_options_it_ignores(option, message, capsys):
    assert run_cli("report", "all", *option) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("argv", [("verify", "dusart", "--samples", ","), ("table", "c3", "--ns", ","),
                                  ("table", "c3", "--ns", " , ")])
def test_int_list_needs_an_integer(argv, capsys):
    assert run_cli(*argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    errors = [line for line in captured.err.splitlines() if "error:" in line]
    assert len(errors) == 1 and "expected comma-separated integers" in errors[0]


@pytest.mark.parametrize("argv", [
    ("verify", "dusart", "--checkpoint", "ck"),
    ("verify", "dusart", "--from", "3"),
    ("verify", "dusart", "--to", "10"),
    ("verify", "dusart", "--resume"),
    ("verify", "dusart", "--workers", "2"),
    ("verify", "c2", "--samples", "5"),
    ("verify", "lemmas", "--samples", "5"),
])
def test_verify_rejects_options_its_target_ignores(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run_cli(*argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and f"unrecognized arguments: {' '.join(argv[2:])}" in captured.err
    assert list(tmp_path.iterdir()) == []  # no checkpoint written
