import importlib.resources

import pytest

from argbayes.cli import _resolve_run_config, build_parser, run

DATA = importlib.resources.files("argbayes") / "data"


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


@pytest.fixture
def votes3(tmp_path):
    rows = ["participant,a,b,c"]
    for i in range(4):
        rows += [f"p{3 * i},1,0,0", f"q{3 * i},0,1,0", f"r{3 * i},0,0,1"]
    return write(tmp_path, "votes.csv", "\n".join(rows) + "\n")


class TestUsage:
    def test_no_command(self, capsys):
        assert run([]) == 1
        assert "usage" in capsys.readouterr().err

    def test_unknown_command(self, capsys):
        assert run(["frobnicate"]) == 1

    def test_unknown_flag(self, capsys):
        assert run(["demo", "--wat"]) == 1

    def test_missing_required_flag(self, capsys):
        assert run(["posterior"]) == 1

    def test_help_exits_zero(self, capsys):
        assert run(["--help"]) == 0
        assert "semantics" in capsys.readouterr().out


class TestSemantics:
    def test_triangle_complete(self, capsys):
        assert run(["semantics", "--framework", str(DATA / "triangle.json")]) == 0
        out = capsys.readouterr().out.splitlines()
        assert set(out) == {"{}", "{a}", "{b}", "{c}"}

    def test_triangle_grounded(self, capsys):
        assert run(["semantics", "--framework", str(DATA / "triangle.json"),
                    "--semantics", "grounded"]) == 0
        assert capsys.readouterr().out.splitlines() == ["{}"]

    def test_preferred_at_the_cap_without_attacks(self, tmp_path, capsys):
        # every one of the 2^16 subsets is admissible
        names = ", ".join(f'"a{i}"' for i in range(16))
        path = write(tmp_path, "free16.json", f'{{"arguments": [{names}], "attacks": []}}')
        assert run(["semantics", "--framework", path, "--semantics", "preferred"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 1

    def test_missing_file(self, capsys):
        assert run(["semantics", "--framework", "/nonexistent.json"]) == 2

    def test_bad_schema(self, tmp_path, capsys):
        path = write(tmp_path, "bad.json", '{"weird": 1}')
        assert run(["semantics", "--framework", path]) == 2
        assert "error" in capsys.readouterr().err


class TestPosterior:
    def test_writes_posterior(self, votes3, tmp_path, capsys):
        out = tmp_path / "out"
        code = run(["posterior", "--votes", votes3, "--mode", "symmetric",
                    "--family", "exponential", "--w", "2",
                    "--out-dir", str(out)])
        assert code == 0
        text = (out / "posterior.csv").read_text()
        assert text.startswith("assignment,probability")
        # triangle assignment dominates under repeated singleton votes
        best = max(text.splitlines()[1:], key=lambda r: float(r.split(",")[1]))
        assert best.split(",")[0] == "111"

    def test_bad_config_value(self, votes3, tmp_path):
        cfg = write(tmp_path, "c.cfg", "w = -3")
        assert run(["posterior", "--votes", votes3, "--config", cfg,
                    "--out-dir", str(tmp_path / "o")]) == 2

    def test_bad_lambda_flag(self, votes3, tmp_path, capsys):
        assert run(["posterior", "--votes", votes3, "--lambda", "abc",
                    "--out-dir", str(tmp_path / "o")]) == 2
        assert "lambda" in capsys.readouterr().err

    def test_degenerate_evidence_exit_code(self, tmp_path):
        votes = write(tmp_path, "v.csv", "participant,a\np1,1\np2,0\n")
        code = run(["posterior", "--votes", votes, "--mode", "symmetric",
                    "--family", "deterministic",
                    "--convention", "cell-as-singleton",
                    "--out-dir", str(tmp_path / "o")])
        assert code == 4

    @pytest.mark.parametrize("family", ["linear", "exponential"])
    def test_degenerate_evidence_message_names_no_other_family(self, family, tmp_path,
                                                               capsys):
        # each row is a label-1 vote for {}, at distance n = 1 from {a}, the
        # one framework's extension: theta is 0 there under every family
        votes = write(tmp_path, "v.csv", "participant,a\np1,0\np2,0\n")
        code = run(["posterior", "--votes", votes, "--family", family,
                    "--out-dir", str(tmp_path / "o")])
        assert code == 4
        assert "deterministic" not in capsys.readouterr().err

    def test_capacity_exit_code(self, tmp_path):
        n = 8  # 28 symmetric variables > exact capacity
        header = "participant," + ",".join(f"a{i}" for i in range(n))
        row = "p1," + ",".join("1" for _ in range(n))
        votes = write(tmp_path, "v.csv", f"{header}\n{row}\n")
        assert run(["posterior", "--votes", votes, "--mode", "symmetric",
                    "--out-dir", str(tmp_path / "o")]) == 3


class TestGibbs:
    def test_outputs_and_determinism(self, votes3, tmp_path, capsys):
        args = ["gibbs", "--votes", votes3, "--mode", "symmetric",
                "--family", "exponential", "--w", "2",
                "--iterations", "300", "--burn-in", "50", "--seed", "5"]
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert run(args + ["--out-dir", str(out1)]) == 0
        assert run(args + ["--out-dir", str(out2)]) == 0
        assert "seed = 5" in capsys.readouterr().out
        for name in ("histogram.csv", "trace.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_evidence_beyond_the_float_range(self, tmp_path):
        # 3000 votes make one value's conditional odds overflow a float; the
        # chain keeps to the assignment exact inference gives all the mass
        rows = ["participant,a,b,c"] + [f"p{i},1,0,0" for i in range(1500)] \
            + [f"q{i},0,1,1" for i in range(1500)]
        votes = write(tmp_path, "heavy.csv", "\n".join(rows) + "\n")
        assert run(["posterior", "--votes", votes, "--out-dir", str(tmp_path / "p")]) == 0
        assert "110,1.0" in (tmp_path / "p" / "posterior.csv").read_text().splitlines()
        assert run(["gibbs", "--votes", votes, "--iterations", "500", "--burn-in", "50",
                    "--out-dir", str(tmp_path / "g")]) == 0
        assert (tmp_path / "g" / "histogram.csv").read_text().splitlines()[1:] == ["110,1.0"]

    def test_seed_reported_and_changes_output(self, votes3, tmp_path):
        base = ["gibbs", "--votes", votes3, "--mode", "symmetric",
                "--family", "exponential", "--w", "2",
                "--iterations", "200", "--burn-in", "0"]
        out1, out2 = tmp_path / "s1", tmp_path / "s2"
        assert run(base + ["--seed", "1", "--out-dir", str(out1)]) == 0
        assert run(base + ["--seed", "2", "--out-dir", str(out2)]) == 0
        assert (out1 / "histogram.csv").read_text() != (out2 / "histogram.csv").read_text()

    def test_negative_seed_is_an_input_error(self, votes3, tmp_path, capsys):
        base = ["gibbs", "--votes", votes3, "--iterations", "20", "--burn-in", "0",
                "--out-dir", str(tmp_path / "o")]
        assert run(base + ["--seed", "-5"]) == 2
        assert "error: seed must be nonnegative" in capsys.readouterr().err
        cfg = write(tmp_path, "c.cfg", "seed = -3")
        assert run(base + ["--config", cfg]) == 2
        assert "seed must be nonnegative" in capsys.readouterr().err

    def test_infinite_w_is_a_config_error(self, votes3, tmp_path, capsys):
        base = ["gibbs", "--votes", votes3, "--mode", "symmetric",
                "--iterations", "20", "--burn-in", "0", "--out-dir", str(tmp_path / "o")]
        assert run(base + ["--w", "inf"]) == 2
        assert "w must be finite" in capsys.readouterr().err
        cfg = write(tmp_path, "c.cfg", "family = exponential\nw = inf")
        assert run(base + ["--config", cfg]) == 2
        assert "w must be finite" in capsys.readouterr().err


class TestConfigFlags:
    @pytest.mark.parametrize("flag, value, key", [
        ("--w", "abc", "w"),
        ("--seed", "x", "seed"),
        ("--iterations", "x", "iterations"),
        ("--semantics", "bogus", "semantics"),
        ("--family", "bogus", "family"),
        ("--mode", "bogus", "mode"),
        ("--convention", "bogus", "convention"),
    ])
    def test_bad_value_is_a_config_error(self, votes3, tmp_path, capsys, flag, value, key):
        assert run(["gibbs", "--votes", votes3, flag, value,
                    "--out-dir", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and key in err

    def test_flags_win_over_the_file(self, votes3, tmp_path):
        cfg = write(tmp_path, "c.cfg", "w = 100\nconvention = cell-as-singleton\n"
                                       "negative_rows = include-as-label-0\n")
        args = build_parser().parse_args([
            "gibbs", "--votes", votes3, "--config", cfg, "--w", "3",
            "--convention", "row-as-set", "--out-dir", str(tmp_path / "o")])
        run_config = _resolve_run_config(args)
        assert run_config.model.w == 3.0
        assert run_config.convention.mode == "row-as-set"
        assert run_config.convention.negative_rows == "include-as-label-0"


class TestPredict:
    def test_scores_against_saved_posterior(self, votes3, tmp_path, capsys):
        out = tmp_path / "out"
        run(["posterior", "--votes", votes3, "--mode", "symmetric",
             "--family", "exponential", "--w", "2", "--out-dir", str(out)])
        capsys.readouterr()
        code = run(["predict", "--votes", votes3, "--mode", "symmetric",
                    "--family", "exponential", "--w", "2",
                    "--posterior", str(out / "posterior.csv")])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert all("p(acceptable)=" in line for line in lines)

    def test_posterior_of_another_argument_count(self, votes3, tmp_path, capsys):
        votes4 = write(tmp_path, "votes4.csv",
                       "participant,a,b,c,d\np0,1,0,0,1\np1,0,1,1,0\n")
        out = tmp_path / "out"
        assert run(["posterior", "--votes", votes4, "--mode", "symmetric",
                    "--out-dir", str(out)]) == 0
        capsys.readouterr()
        code = run(["predict", "--votes", votes3, "--mode", "symmetric",
                    "--posterior", str(out / "posterior.csv")])
        assert code == 2
        assert "length" in capsys.readouterr().err

    @pytest.mark.parametrize("rows", [
        "000,abc\n",                      # not a number
        "000,nan\n111,1.0\n",             # not finite
        "000,0.5\n000,0.5\n111,0.5\n",    # repeated assignment
        "",                               # no assignments
    ])
    def test_bad_posterior_file_exit_code(self, votes3, tmp_path, capsys, rows):
        post = write(tmp_path, "bad.csv", "assignment,probability\n" + rows)
        assert run(["predict", "--votes", votes3, "--mode", "symmetric",
                    "--posterior", post]) == 2
        captured = capsys.readouterr()
        assert captured.err and "p(acceptable)" not in captured.out


class TestCrossval:
    def test_learning_curve_file(self, votes3, tmp_path, capsys):
        out = tmp_path / "cv"
        code = run(["crossval", "--votes", votes3, "--mode", "symmetric",
                    "--family", "exponential", "--w", "2", "--seed", "3",
                    "--train-sizes", "0,2", "--repeats", "2",
                    "--out-dir", str(out)])
        assert code == 0
        lines = (out / "learning_curve.csv").read_text().splitlines()
        assert lines[0] == "train_size,mean_accuracy,stddev"
        assert len(lines) == 3

    def test_oversized_plan(self, votes3, tmp_path):
        assert run(["crossval", "--votes", votes3, "--mode", "symmetric",
                    "--train-sizes", "50", "--out-dir", str(tmp_path / "cv")]) == 2

    def test_bad_train_sizes_is_usage_error(self, votes3, tmp_path, capsys):
        assert run(["crossval", "--votes", votes3, "--train-sizes", "3,x",
                    "--out-dir", str(tmp_path / "cv")]) == 1
        assert "--train-sizes" in capsys.readouterr().err


class TestSynth:
    def test_framework_truth_recovery(self, tmp_path, capsys):
        code = run(["synth", "--framework", str(DATA / "triangle.json"),
                    "--mode", "symmetric", "--family", "exponential",
                    "--w", "2", "--n-obs", "80", "--seed", "11"])
        assert code == 0
        out = capsys.readouterr().out
        assert "true assignment        = 111" in out
        assert "MAP Hamming distance    = 0" in out

    def test_writes_report(self, tmp_path, capsys):
        out = tmp_path / "synth"
        code = run(["synth", "--n-args", "3", "--mode", "symmetric",
                    "--family", "exponential", "--w", "2", "--n-obs", "40",
                    "--seed", "2", "--out-dir", str(out)])
        assert code == 0
        assert (out / "recovery.csv").exists()

    def test_negative_seed(self, capsys):
        assert run(["synth", "--n-args", "3", "--seed", "-1"]) == 2
        assert "error: seed must be nonnegative" in capsys.readouterr().err

    @pytest.mark.parametrize("mode, attacks, message", [
        ("symmetric", '[["a", "b"]]', "(0, 1) lacks its reverse (1, 0)"),
        ("directed", '[["a", "a"]]', "(0, 0) has no variable"),
    ])
    def test_framework_outside_the_space(self, tmp_path, capsys, mode, attacks, message):
        path = write(tmp_path, "f.json", f'{{"arguments": ["a", "b", "c"], "attacks": {attacks}}}')
        assert run(["synth", "--framework", path, "--mode", mode, "--seed", "1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err

    @pytest.mark.parametrize("flag, name", [("--n-args", "n_args"),
                                            ("--n-obs", "n_obs")])
    def test_negative_count(self, flag, name, capsys):
        assert run(["synth", flag, "-2", "--seed", "1"]) == 2
        assert name in capsys.readouterr().err

    @pytest.mark.parametrize("n_args", ["-2", "0", "7"])
    def test_framework_ignores_n_args(self, n_args, capsys):
        # the framework fixes the argument count, so --n-args has no effect
        argv = ["synth", "--framework", str(DATA / "triangle.json"),
                "--mode", "symmetric", "--n-obs", "20", "--seed", "3"]
        assert run(argv) == 0
        expected = capsys.readouterr().out.splitlines()
        assert run(argv + ["--n-args", n_args]) == 0
        assert capsys.readouterr().out.splitlines() == expected


class TestDemo:
    def test_all_cases_pass(self, capsys):
        assert run(["demo"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out

    @pytest.mark.parametrize("case", ["table1", "example6", "figure3", "theorem2"])
    def test_single_case(self, case, capsys):
        assert run(["demo", "--case", case]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_unknown_case(self, capsys):
        assert run(["demo", "--case", "nope"]) == 1
