"""Config parsing and command-line behavior: every complaint carries a line
number, all errors are collected in one raise, exit codes follow the contract
(0 pass, 2 check failed, 3 bad config, 4 runtime), and CSV output is
byte-identical across reruns of the same config and seed."""
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from bayesrates import cli, experiments
from bayesrates.cli import (
    EXIT_CONFIG_ERROR,
    EXIT_CRITERION_FAIL,
    EXIT_PASS,
    EXIT_RUNTIME_ERROR,
    ConfigError,
    RunConfig,
    main,
    parse_config,
)
from bayesrates.experiments import ExperimentError, IidRegime

ROOT = Path(__file__).resolve().parent.parent

MINIMAL = """\
regime: iid
family:
  means: [0.0, 1.0]
truth:
  mean: 0.0
schedule:
  n_values: [25, 50]
seed: 11
verify: [factorization]
"""


def write_config(tmp_path: Path, text: str, name: str = "plan.yaml") -> Path:
    path = tmp_path / name
    path.write_text(text)
    return path


def parse_errors(tmp_path: Path, text: str) -> list[str]:
    with pytest.raises(ConfigError) as exc:
        parse_config(write_config(tmp_path, text))
    return exc.value.errors


class TestParse:
    def test_minimal_config_parses(self, tmp_path):
        cfg = parse_config(write_config(tmp_path, MINIMAL))
        assert isinstance(cfg, RunConfig)
        assert cfg.regime == "iid"
        assert cfg.schedule.n_values == (25, 50)
        assert cfg.verify == ("factorization",)
        assert cfg.subset is None
        assert cfg.params is None
        assert cfg.replications == 200  # default
        assert cfg.jobs == 1

    def test_beta_of_one_rejected_with_location(self, tmp_path):
        text = MINIMAL + "params:\n  beta: 1.0\n"
        errors = parse_errors(tmp_path, text)
        joined = "\n".join(errors)
        assert "must exceed 1" in joined
        assert "line 11" in joined  # the beta line

    def test_duplicate_key_cites_both_lines(self, tmp_path):
        text = MINIMAL + "seed: 12\n"
        errors = parse_errors(tmp_path, text)
        assert any(
            "duplicate key 'seed'" in e and "line 8" in e and "line 10" in e
            for e in errors
        )

    def test_unknown_key_in_section_cites_line(self, tmp_path):
        text = MINIMAL.replace("truth:\n  mean: 0.0", "truth:\n  mean: 0.0\n  centre: 1.0")
        errors = parse_errors(tmp_path, text)
        assert any(
            "unknown key 'centre' in section 'truth'" in e and "line 6" in e
            for e in errors
        )

    def test_unknown_top_level_key(self, tmp_path):
        text = MINIMAL + "replicationz: 10\n"
        errors = parse_errors(tmp_path, text)
        assert any("unknown key 'replicationz'" in e and "top level" in e for e in errors)

    def test_unknown_verification_name(self, tmp_path):
        text = MINIMAL.replace("verify: [factorization]", "verify: [factorizatoin]")
        errors = parse_errors(tmp_path, text)
        assert any("unknown verification 'factorizatoin'" in e for e in errors)

    def test_unknown_regime_lists_choices(self, tmp_path):
        text = MINIMAL.replace("regime: iid", "regime: ar2")
        errors = parse_errors(tmp_path, text)
        assert any("unknown regime 'ar2'" in e and "markov" in e for e in errors)

    def test_missing_seed(self, tmp_path):
        text = MINIMAL.replace("seed: 11\n", "")
        errors = parse_errors(tmp_path, text)
        assert any("missing key 'seed'" in e for e in errors)

    def test_thin_evidence_constant_rejected(self, tmp_path):
        text = MINIMAL + "params:\n  C: 0.2\n  c: 1.1\n"
        errors = parse_errors(tmp_path, text)
        joined = "\n".join(errors)
        assert "does not exceed C + 1" in joined
        assert "allow_thin_evidence" in joined

    def test_thin_evidence_flag_allows_diagnostic_run(self, tmp_path):
        text = MINIMAL + "params:\n  C: 0.2\n  c: 1.1\n  allow_thin_evidence: true\n"
        cfg = parse_config(write_config(tmp_path, text))
        assert cfg.allow_thin_evidence
        assert cfg.params.c == 1.1

    @pytest.mark.parametrize("name", ["separation", "numerator-bound"])
    def test_subset_required(self, tmp_path, name):
        text = MINIMAL.replace(
            "verify: [factorization]", f"verify: [{name}]"
        ) + "params:\n  d: 2.5\n"
        errors = parse_errors(tmp_path, text)
        assert any(f"verification '{name}' needs a top-level subset list" in e for e in errors)

    def test_needed_params_per_verification(self, tmp_path):
        text = MINIMAL.replace("verify: [factorization]", "verify: [cover, sieve]")
        text += "params:\n  beta: 2.0\n  c: 1.7\n  M: 1.0\n"
        errors = parse_errors(tmp_path, text)
        assert any("verification 'sieve' needs params.r" in e for e in errors)
        # cover only needs M, which is present
        assert not any("'cover' needs" in e for e in errors)

    def test_weights_length_mismatch(self, tmp_path):
        text = MINIMAL.replace(
            "  means: [0.0, 1.0]", "  means: [0.0, 1.0]\n  weights: [0.5, 0.3, 0.2]"
        )
        errors = parse_errors(tmp_path, text)
        assert any("family.weights has 3 entries for 2 atoms" in e for e in errors)

    def test_wrongly_typed_scalar(self, tmp_path):
        text = MINIMAL.replace("seed: 11", "seed: eleven")
        errors = parse_errors(tmp_path, text)
        assert any("seed must be a int" in e and "'eleven'" in e for e in errors)

    def test_float_key_accepts_integer_literal(self, tmp_path):
        text = MINIMAL.replace("truth:\n  mean: 0.0", "truth:\n  mean: 0")
        cfg = parse_config(write_config(tmp_path, text))
        assert cfg.truth["mean"] == 0.0

    def test_all_errors_collected_in_one_raise(self, tmp_path):
        text = (
            "regime: iid\n"
            "family:\n"
            "  means: [0.0, 1.0]\n"
            "truth:\n"
            "  mean: 0.0\n"
            "schedule:\n"
            "  n_values: [25, 50]\n"
            "replications: 0\n"
            "verify: [factorizatoin]\n"
        )
        errors = parse_errors(tmp_path, text)
        assert len(errors) >= 3  # missing seed, bad replications, bad verification
        joined = "\n".join(errors)
        assert "missing key 'seed'" in joined
        assert "replications must be at least 1" in joined
        assert "unknown verification" in joined

    def test_empty_file_rejected(self, tmp_path):
        errors = parse_errors(tmp_path, "")
        assert any("config is empty" in e for e in errors)

    def test_markov_family_keys(self, tmp_path):
        text = (
            "regime: markov\n"
            "family:\n"
            "  thetas: [0.6, -0.4]\n"
            "  noise_sd: 1.0\n"
            "truth:\n"
            "  theta: 0.6\n"
            "schedule:\n"
            "  n_values: [30]\n"
            "seed: 3\n"
            "verify: [factorization]\n"
        )
        cfg = parse_config(write_config(tmp_path, text))
        assert cfg.family["thetas"] == [0.6, -0.4]


SMALL_CHECK = """\
regime: iid
family:
  means: [0.0, 1.0]
truth:
  mean: 0.0
schedule:
  n_values: [30]
seed: 17
verify: [factorization, conditional-identity]
out: {out}
"""

SMALL_CESARO = """\
regime: iid
family:
  means: [0.0, 1.0]
truth:
  mean: 0.0
schedule:
  n_values: [25, 50]
seed: 17
replications: 8
verify: [cesaro]
out: {out}
"""

NEAR_SUBSET_SIMULATE = """\
regime: iid
family:
  means: [0.0, 0.3]
truth:
  mean: 0.0
schedule:
  n_values: [50, 100]
seed: 17
replications: 10
params:
  d: 2.5
subset: [1]
verify: [numerator-bound]
out: {out}
"""

SMALL_SIMULATE = """\
regime: iid
family:
  means: [0.0, 1.0]
truth:
  mean: 0.0
schedule:
  n_values: [25, 50]
seed: 17
replications: 8
params:
  c: {c}
  M: 1.0
verify: [cesaro, evidence-bound, posterior-mass]
out: {out}
"""

MARKOV_WINDOW = """\
regime: markov
family:
  thetas: [0.6, -0.4]
  state_window: {window}
truth:
  theta: 0.6
schedule:
  n_values: [100]
params:
  C: 0.0
  c: 1.5
  d: 1.8
  r: 1.0
  beta: 2.0
  M: 1.0
seed: 17
verify: [thickness, cover, sieve]
out: {out}
"""


class TestMain:
    def test_missing_config_file(self, tmp_path, capsys):
        code = main(["check", "--config", str(tmp_path / "absent.yaml")])
        assert code == EXIT_CONFIG_ERROR
        assert "cannot read config" in capsys.readouterr().err

    def test_bad_yaml_syntax(self, tmp_path, capsys):
        path = write_config(tmp_path, "regime: [unclosed\n")
        code = main(["check", "--config", str(path)])
        assert code == EXIT_CONFIG_ERROR
        assert "config syntax error" in capsys.readouterr().err

    def test_check_exact_identities_pass(self, tmp_path, capsys):
        out = tmp_path / "out"
        path = write_config(tmp_path, SMALL_CHECK.format(out=out))
        code = main(["check", "--config", str(path)])
        assert code == EXIT_PASS
        shown = capsys.readouterr().out
        assert "factorization: pass" in shown
        assert "conditional-identity: pass" in shown
        assert (out / "factorization.csv").exists()
        assert (out / "conditional_identity.csv").exists()
        data = json.loads((out / "summary.json").read_text())
        assert data["verifications"]["factorization"]["passed"] is True
        assert data["seed"] == 17

    def test_simulate_inadmissible_subset_exits_2(self, tmp_path, capsys):
        out = tmp_path / "out"
        path = write_config(tmp_path, NEAR_SUBSET_SIMULATE.format(out=out))
        code = main(["simulate", "--config", str(path)])
        assert code == EXIT_CRITERION_FAIL
        assert "FAIL" in capsys.readouterr().out
        data = json.loads((out / "summary.json").read_text())
        entry = data["verifications"]["numerator-bound"]
        assert entry["passed"] is False
        assert "subset not admissible" in entry["detail"]

    def test_csv_bytes_identical_on_rerun(self, tmp_path):
        out = tmp_path / "out"
        path = write_config(tmp_path, SMALL_CHECK.format(out=out))
        assert main(["check", "--config", str(path)]) == EXIT_PASS
        first = (out / "factorization.csv").read_bytes()
        assert main(["check", "--config", str(path)]) == EXIT_PASS
        assert (out / "factorization.csv").read_bytes() == first

    def test_seed_override_changes_monte_carlo_output(self, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        path = write_config(tmp_path, SMALL_CESARO.format(out=tmp_path / "unused"))
        assert main(["simulate", "--config", str(path), "--seed", "1",
                     "--out", str(out_a)]) == EXIT_PASS
        assert main(["simulate", "--config", str(path), "--seed", "2",
                     "--out", str(out_b)]) == EXIT_PASS
        rows_a = (out_a / "cesaro.csv").read_text().splitlines()[5:]
        rows_b = (out_b / "cesaro.csv").read_text().splitlines()[5:]
        assert rows_a != rows_b

    def test_report_aggregates_and_exits_0(self, tmp_path, capsys):
        out = tmp_path / "out"
        path = write_config(tmp_path, SMALL_CHECK.format(out=out))
        assert main(["check", "--config", str(path)]) == EXIT_PASS
        code = main(["report", "--config", str(path)])
        assert code == EXIT_PASS
        assert (out / "summary.csv").exists()
        shown = capsys.readouterr().out
        assert "factorization: pass" in shown

    def test_report_exits_2_when_any_check_failed(self, tmp_path):
        out = tmp_path / "out"
        path = write_config(tmp_path, NEAR_SUBSET_SIMULATE.format(out=out))
        assert main(["simulate", "--config", str(path)]) == EXIT_CRITERION_FAIL
        assert main(["report", "--config", str(path)]) == EXIT_CRITERION_FAIL

    def test_report_without_summary_is_config_error(self, tmp_path, capsys):
        code = main(["report", "--out", str(tmp_path / "empty")])
        assert code == EXIT_CONFIG_ERROR
        assert "no summary.json" in capsys.readouterr().err

    def test_verify_override_unknown_name(self, tmp_path, capsys):
        path = write_config(tmp_path, SMALL_CHECK.format(out=tmp_path / "out"))
        code = main(["check", "--config", str(path), "--verify", "bogus"])
        assert code == EXIT_CONFIG_ERROR
        assert "unknown verification 'bogus' in --verify" in capsys.readouterr().err

    def test_verify_override_revalidates_requirements(self, tmp_path, capsys):
        path = write_config(tmp_path, SMALL_CHECK.format(out=tmp_path / "out"))
        code = main(["check", "--config", str(path), "--verify", "separation"])
        assert code == EXIT_CONFIG_ERROR
        err = capsys.readouterr().err
        assert "needs params.d" in err
        assert "needs a top-level subset" in err

    def test_verify_override_narrows_selection(self, tmp_path, capsys):
        out = tmp_path / "out"
        path = write_config(tmp_path, SMALL_CHECK.format(out=out))
        code = main(["check", "--config", str(path), "--verify", "factorization"])
        assert code == EXIT_PASS
        shown = capsys.readouterr().out
        assert "factorization: pass" in shown
        assert "conditional-identity" not in shown

    def test_nothing_to_do_for_other_subcommand(self, tmp_path, capsys):
        path = write_config(tmp_path, SMALL_CHECK.format(out=tmp_path / "out"))
        code = main(["simulate", "--config", str(path)])
        assert code == EXIT_PASS
        assert "nothing to do" in capsys.readouterr().out

    def test_subset_with_unknown_atom_id(self, tmp_path, capsys):
        text = SMALL_CHECK.format(out=tmp_path / "out") + "subset: [9]\n"
        path = write_config(tmp_path, text)
        code = main(["check", "--config", str(path)])
        assert code == EXIT_CONFIG_ERROR
        assert "subset names id 9" in capsys.readouterr().err

    def test_summary_merges_across_subcommands(self, tmp_path):
        out = tmp_path / "out"
        text = (
            "regime: iid\n"
            "family:\n"
            "  means: [0.0, 2.0]\n"
            "truth:\n"
            "  mean: 0.0\n"
            "schedule:\n"
            "  n_values: [40]\n"
            "seed: 5\n"
            "replications: 8\n"
            "params:\n"
            "  beta: 2.0\n"
            "  r: 1.0\n"
            "  c: 1.7\n"
            "  M: 1.0\n"
            "verify: [factorization, cover, sieve, posterior-mass]\n"
            f"out: {out}\n"
        )
        path = write_config(tmp_path, text)
        assert main(["check", "--config", str(path)]) == EXIT_PASS
        assert main(["sieve", "--config", str(path)]) == EXIT_PASS
        assert main(["simulate", "--config", str(path)]) == EXIT_PASS
        data = json.loads((out / "summary.json").read_text())
        names = set(data["verifications"])
        assert {"factorization", "cover", "sieve", "posterior-mass"} <= names


def count_passes(monkeypatch) -> list[set[str]]:
    """Record each replication pass a run makes: the statistics its records carry."""
    passes = []
    run_replications = experiments.run_replications

    def counting(plan, jobs=1):
        records = run_replications(plan, jobs=jobs)
        passes.append({key for r in records for key in r.stats})
        return records

    monkeypatch.setattr(cli, "run_replications", counting)
    monkeypatch.setattr(experiments, "run_replications", counting)
    return passes


def broken_replicate(plan, rep_id):
    # module level, so the process pool can pickle it by name
    raise ExperimentError("statistic log_evidence has NaN entries")


def dying_replicate(plan, rep_id):
    os._exit(9)


class TestSharedPass:
    """simulate builds each replication once; every selected verification
    reads the statistics it needs from that one pass."""

    @pytest.mark.parametrize("verify, stats", [
        (None, {"cesaro_kl", "sqrt_l", "log_evidence", "posterior_mass", "u_mass"}),
        ("cesaro", {"cesaro_kl"}),
        ("numerator-bound,posterior-mass", {"sqrt_l", "posterior_mass", "u_mass"}),
    ])
    def test_one_pass_on_iid(self, tmp_path, monkeypatch, verify, stats):
        passes = count_passes(monkeypatch)
        argv = ["simulate", "--config", str(ROOT / "configs" / "iid.yaml"),
                "--out", str(tmp_path)]
        assert main(argv + (["--verify", verify] if verify else [])) == EXIT_PASS
        assert passes == [stats]

    def test_posterior_mass_without_u_set(self, tmp_path, monkeypatch):
        passes = count_passes(monkeypatch)
        path = write_config(tmp_path, SMALL_SIMULATE.format(c=1.5, out=tmp_path / "out"))
        code = main(["simulate", "--config", str(path), "--verify", "posterior-mass"])
        assert code == EXIT_PASS
        assert passes == [{"posterior_mass"}]
        header = (tmp_path / "out" / "posterior_mass.csv").read_text().splitlines()[4]
        assert "near_set_median_mass" not in header

    def test_refused_verification_adds_no_statistic(self, tmp_path, monkeypatch):
        # implied C + 1 is 1.237 here: the evidence bound refuses, the others
        # still read their one pass
        passes = count_passes(monkeypatch)
        out = tmp_path / "out"
        path = write_config(tmp_path, SMALL_SIMULATE.format(c=1.2, out=out))
        assert main(["simulate", "--config", str(path)]) == EXIT_CRITERION_FAIL
        assert passes == [{"cesaro_kl", "posterior_mass"}]
        entries = json.loads((out / "summary.json").read_text())["verifications"]
        assert entries["evidence-bound"]["passed"] is False
        assert "needs c > implied C + 1" in entries["evidence-bound"]["detail"]
        assert "set allow_thin_evidence: true" in entries["evidence-bound"]["detail"]
        assert entries["cesaro"]["passed"] and entries["posterior-mass"]["passed"]

    def test_no_pass_when_every_precondition_refuses(self, tmp_path, monkeypatch):
        passes = count_passes(monkeypatch)
        path = write_config(tmp_path, NEAR_SUBSET_SIMULATE.format(out=tmp_path / "out"))
        assert main(["simulate", "--config", str(path)]) == EXIT_CRITERION_FAIL
        assert passes == []

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_fault_in_the_pass_exits_4(self, tmp_path, capsys, monkeypatch, jobs):
        """A fault while replicating is a runtime error under any verification,
        not a failed criterion of the one it happens to serve."""
        monkeypatch.setattr(experiments, "replicate", broken_replicate)
        out = tmp_path / "out"
        path = write_config(tmp_path, SMALL_SIMULATE.format(c=1.5, out=out))
        code = main(["simulate", "--config", str(path), "--verify", "evidence-bound",
                     "--jobs", jobs])
        assert code == EXIT_RUNTIME_ERROR
        assert capsys.readouterr().err == (
            "runtime error: statistic log_evidence has NaN entries\n"
        )
        assert not (out / "summary.json").exists()

    def test_dead_worker_exits_4(self, tmp_path, capsys, monkeypatch):
        """A pool worker that dies mid-pass is a runtime error with one line,
        not a traceback; forked workers inherit the patched replicate."""
        monkeypatch.setattr(experiments, "replicate", dying_replicate)
        out = tmp_path / "out"
        path = write_config(tmp_path, SMALL_SIMULATE.format(c=1.5, out=out))
        code = main(["simulate", "--config", str(path), "--verify", "cesaro", "--jobs", "2"])
        assert code == EXIT_RUNTIME_ERROR
        err = capsys.readouterr().err
        assert err.startswith("runtime error: a replication worker died: ")
        assert err.count("\n") == 1
        assert not (out / "summary.json").exists()


class TestOverridesAndRuntimeFaults:
    def test_negative_seed_override_is_config_error(self, tmp_path, capsys):
        path = write_config(tmp_path, SMALL_CHECK.format(out=tmp_path / "out"))
        code = main(["check", "--config", str(path), "--seed", "-1"])
        assert code == EXIT_CONFIG_ERROR
        assert "config error: seed must be nonnegative, got -1" in capsys.readouterr().err

    def test_zero_jobs_override_is_config_error(self, tmp_path, capsys):
        path = write_config(tmp_path, SMALL_CHECK.format(out=tmp_path / "out"))
        code = main(["check", "--config", str(path), "--jobs", "0"])
        assert code == EXIT_CONFIG_ERROR
        assert "config error: jobs must be at least 1, got 0" in capsys.readouterr().err

    def test_unwritable_summary_exits_4(self, tmp_path, capsys):
        out = tmp_path / "out"
        (out / "summary.json").mkdir(parents=True)
        path = write_config(tmp_path, SMALL_CHECK.format(out=out))
        code = main(["check", "--config", str(path)])
        assert code == EXIT_RUNTIME_ERROR
        err = capsys.readouterr().err
        assert err.startswith("runtime error:")
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("command", ["check", "report"])
    def test_corrupt_summary_exits_4(self, tmp_path, capsys, command):
        out = tmp_path / "out"
        out.mkdir()
        (out / "summary.json").write_text('{"seed": 17, "verif')
        path = write_config(tmp_path, SMALL_CHECK.format(out=out))
        code = main([command, "--config", str(path)])
        assert code == EXIT_RUNTIME_ERROR
        err = capsys.readouterr().err
        assert err.startswith("runtime error: corrupt")
        assert "summary.json" in err
        assert len(err.strip().splitlines()) == 1

    def test_summary_drops_entries_from_another_seed(self, tmp_path):
        out = tmp_path / "out"
        path = write_config(tmp_path, SMALL_CHECK.format(out=out))
        assert main(["check", "--config", str(path), "--seed", "7",
                     "--verify", "factorization"]) == EXIT_PASS
        assert main(["check", "--config", str(path), "--seed", "99",
                     "--verify", "conditional-identity"]) == EXIT_PASS
        data = json.loads((out / "summary.json").read_text())
        assert data["seed"] == 99
        assert set(data["verifications"]) == {"conditional-identity"}

    def test_summary_drops_entries_from_another_config(self, tmp_path):
        # iid's check runs smoke's two verifications and two more
        out = tmp_path / "out"
        for name in ("iid", "smoke"):
            config = str(ROOT / "configs" / f"{name}.yaml")
            code = main(["check", "--config", config, "--seed", "7", "--out", str(out)])
            assert code == EXIT_PASS
        alone = tmp_path / "alone"
        assert main(["check", "--config", str(ROOT / "configs" / "smoke.yaml"),
                     "--out", str(alone)]) == EXIT_PASS
        data = json.loads((out / "summary.json").read_text())
        assert data == json.loads((alone / "summary.json").read_text())
        assert set(data["verifications"]) == {"factorization", "conditional-identity"}

    def test_summary_without_config_key_is_stale(self, tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        (out / "summary.json").write_text(
            '{"seed": 17, "verifications": {"thickness": {"passed": true}}}'
        )
        path = write_config(tmp_path, SMALL_CHECK.format(out=out))
        assert main(["check", "--config", str(path), "--verify", "factorization"]) == EXIT_PASS
        data = json.loads((out / "summary.json").read_text())
        assert data["config"] == hashlib.sha256(path.read_bytes()).hexdigest()
        assert set(data["verifications"]) == {"factorization"}

    @pytest.mark.parametrize("command", ["check", "sieve"])
    @pytest.mark.parametrize(
        "window, message",
        [
            ("-1.0", "state window must be positive, got -1.0"),
            ("0.0", "state window must be positive, got 0.0"),
            ("100.0", "grid clips transition density"),
        ],
        ids=["negative", "zero", "clipped"],
    )
    def test_bad_state_window_exits_4(self, tmp_path, capsys, command, window, message):
        path = write_config(tmp_path, MARKOV_WINDOW.format(window=window, out=tmp_path / "out"))
        code = main([command, "--config", str(path)])
        assert code == EXIT_RUNTIME_ERROR
        err = capsys.readouterr().err
        assert err.startswith(f"runtime error: {message}")
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize(
        "command, text",
        [
            ("report", "[]"),
            ("check", "[]"),
            ("report", '{"seed": 17, "verifications": []}'),
            ("report", '{"seed": 17, "verifications": {"factorization": {"detail": ""}}}'),
        ],
        ids=["report-list", "check-list", "report-list-of-verifications", "report-no-passed"],
    )
    def test_malformed_summary_exits_4(self, tmp_path, capsys, command, text):
        out = tmp_path / "out"
        out.mkdir()
        (out / "summary.json").write_text(text)
        path = write_config(tmp_path, SMALL_CHECK.format(out=out))
        code = main([command, "--config", str(path)])
        assert code == EXIT_RUNTIME_ERROR
        err = capsys.readouterr().err
        assert err.startswith("runtime error: malformed")
        assert str(out / "summary.json") in err
        assert len(err.strip().splitlines()) == 1


CHECK_AND_SIEVE = (("check",), ("sieve",))
EVERY_COMMAND = CHECK_AND_SIEVE + (("simulate",),)
REPRODUCED_RUNS = {
    "iid": EVERY_COMMAND,
    "misspecified": EVERY_COMMAND,
    "sieve": CHECK_AND_SIEVE,
    "smoke": CHECK_AND_SIEVE,
    "markov": EVERY_COMMAND,
    "regression": EVERY_COMMAND,
}


@pytest.mark.parametrize("name", list(REPRODUCED_RUNS))
def test_check_and_sieve_reproduce_committed_csvs(tmp_path, name):
    """The committed out/ CSVs are what check and sieve write, byte for byte,
    and for iid, misspecified, markov and regression also what every
    simulation writes."""
    config = str(ROOT / "configs" / f"{name}.yaml")
    for command, *extra in REPRODUCED_RUNS[name]:
        argv = [command, "--config", config, "--out", str(tmp_path), *extra]
        assert main(argv) == EXIT_PASS
    written = sorted(p.name for p in tmp_path.glob("*.csv"))
    assert written
    for fname in written:
        assert (tmp_path / fname).read_bytes() == (ROOT / "out" / name / fname).read_bytes(), fname


@pytest.mark.parametrize("name", ["iid", "markov"])
def test_parallel_simulate_reproduces_committed_output(tmp_path, name):
    """simulate --jobs 2 writes the committed out/ CSVs and summary entries,
    byte for byte."""
    config = ROOT / "configs" / f"{name}.yaml"
    assert main(["simulate", "--config", str(config), "--out", str(tmp_path),
                 "--jobs", "2"]) == EXIT_PASS
    ref = ROOT / "out" / name
    written = json.loads((tmp_path / "summary.json").read_text())
    committed = json.loads((ref / "summary.json").read_text())
    assert (written["seed"], written["config"]) == (committed["seed"], committed["config"])
    assert len(written["verifications"]) == 4
    for entry in written["verifications"].values():
        assert entry in committed["verifications"].values()
        csv = entry["csv"]
        assert (tmp_path / csv).read_bytes() == (ref / csv).read_bytes(), csv


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize(
    "fault, message",
    [
        (lambda v: np.sqrt(v - 1.0), "invalid value encountered in sqrt"),
        (lambda v: np.log(0.0 * v), "divide by zero encountered in log"),
        (lambda v: np.exp(v + 1000.0), "overflow encountered in exp"),
    ],
    ids=["invalid", "divide", "overflow"],
)
def test_floating_point_error_exits_4(tmp_path, capsys, monkeypatch, jobs, fault, message):
    """A NaN, a division by zero or an overflow anywhere in a run is a
    runtime fault, also inside the replication workers."""
    cesaro_kls = IidRegime.cesaro_kls
    monkeypatch.setattr(IidRegime, "cesaro_kls", lambda *a: fault(cesaro_kls(*a)))
    path = write_config(tmp_path, SMALL_CESARO.format(out=tmp_path / "out"))
    code = main(["simulate", "--config", str(path), "--jobs", jobs])
    assert code == EXIT_RUNTIME_ERROR
    err = capsys.readouterr().err
    assert err == f"runtime error: {message}\n"


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_underflow_stays_silent(tmp_path, monkeypatch, jobs):
    cesaro_kls = IidRegime.cesaro_kls
    monkeypatch.setattr(IidRegime, "cesaro_kls",
                        lambda *a: cesaro_kls(*a) + np.exp(-1000.0 - np.arange(len(a[2][0]))))
    path = write_config(tmp_path, SMALL_CESARO.format(out=tmp_path / "out"))
    assert main(["simulate", "--config", str(path), "--jobs", jobs]) == EXIT_PASS


def test_import_leaves_the_process_pool_unloaded():
    """Only a run with --jobs above 1 loads the process pool, so a fresh
    process that imports the CLI does not pay for multiprocessing."""
    code = (
        "import sys, bayesrates.cli; "
        "print([m for m in ('concurrent.futures', 'multiprocessing') if m in sys.modules])"
    )
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
                         capture_output=True, text=True, check=True)
    assert run.stdout == "[]\n"
