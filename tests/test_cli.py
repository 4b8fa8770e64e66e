"""Config parsing and command-line behavior: every complaint carries a line
number, all errors are collected in one raise, exit codes follow the contract
(0 pass, 2 check failed, 3 bad config, 4 runtime), and CSV output is
byte-identical across reruns of the same config and seed."""
import hashlib
import json
import os
import subprocess
import sys
from dataclasses import replace
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
from bayesrates.divergences import GridDensity, default_grid, gaussian_density
from bayesrates.experiments import ExperimentError, IidRegime, MisspecifiedRegime
from bayesrates.models import (
    IID,
    FamilyMember,
    MisspecifiedSetup,
    ModelError,
    build_gaussian_location_family,
    location_faults,
    uniform_prior,
)
from helpers import numerator_refusal_oracle, separation_rows_oracle

ROOT = Path(__file__).resolve().parent.parent
GRID = default_grid()

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


def run_in_c_locale(*argv: str) -> subprocess.CompletedProcess:
    """The CLI in a fresh process whose locale encoding is ASCII: the C
    locale with UTF-8 mode off."""
    src = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONPATH": src}
    env.pop("PYTHONIOENCODING", None)
    return subprocess.run([sys.executable, "-m", "bayesrates.cli", *argv],
                          env=env, capture_output=True, text=True)


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
        assert cfg.family == {"means": [0.0, 1.0], "sd": 1.0, "weights": None}
        assert cfg.truth == {"mean": 0.0, "sd": 1.0}

    def test_beta_of_one_rejected_with_location(self, tmp_path):
        text = MINIMAL + "params:\n  beta: 1.0\n"
        errors = parse_errors(tmp_path, text)
        assert errors == ["params.beta must be greater than 1, got 1.0 (line 11)"]

    def test_bad_constant_cites_its_own_line(self, tmp_path):
        text = MINIMAL + "params:\n  beta: 2.0\n  d: -1.0\n"
        errors = parse_errors(tmp_path, text)
        assert errors == ["params.d must be positive, got -1.0 (line 12)"]

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

    def test_verbosity_is_not_a_key(self, tmp_path):
        errors = parse_errors(tmp_path, MINIMAL + "verbosity: 2\n")
        assert errors == ["unknown key 'verbosity' in section 'top level' at line 10"]

    def test_unknown_verification_name(self, tmp_path):
        text = MINIMAL.replace("verify: [factorization]", "verify: [factorizatoin]")
        errors = parse_errors(tmp_path, text)
        assert any("unknown verification 'factorizatoin'" in e for e in errors)

    def test_repeated_verification_cites_both_lines(self, tmp_path):
        text = MINIMAL.replace("verify: [factorization]",
                               "verify:\n  - factorization\n  - factorization")
        assert parse_errors(tmp_path, text) == [
            "duplicate verification 'factorization' at line 10 and at line 11"]

    def test_unknown_regime_lists_choices(self, tmp_path):
        text = MINIMAL.replace("regime: iid", "regime: ar2")
        errors = parse_errors(tmp_path, text)
        # the family and truth sections are not reported as unknown keys
        assert errors == ["unknown regime 'ar2' at line 1; expected one of "
                          "iid, misspecified, regression, markov"]

    def test_missing_seed(self, tmp_path):
        text = MINIMAL.replace("seed: 11\n", "")
        errors = parse_errors(tmp_path, text)
        assert any("missing key 'seed'" in e for e in errors)

    @pytest.mark.parametrize(
        "old, new, message",
        [
            ("family:\n  means: [0.0, 1.0]\n", "",
             "section 'top level' is missing key 'family' (line 1)"),
            ("verify: [factorization]\n", "",
             "section 'top level' is missing key 'verify' (line 1)"),
            ("schedule:\n  n_values: [25, 50]\n", "# a plan\n",
             "section 'top level' is missing key 'schedule' (line 1)"),
            ("means: [0.0, 1.0]", "sd: 1.0",
             "section 'family' is missing key 'means' (line 2)"),
            ("regime: iid\n", "# no regime\n",
             "section 'top level' is missing key 'regime' (line 2)"),
        ],
        ids=["section", "verify", "schedule", "family-key", "regime"],
    )
    def test_missing_key_is_one_line(self, tmp_path, old, new, message):
        """A missing key or section gets one complaint, in one wording, with
        the line where its section starts."""
        assert parse_errors(tmp_path, MINIMAL.replace(old, new)) == [message]

    def test_verify_flag_stands_in_for_the_key(self, tmp_path):
        path = write_config(tmp_path, MINIMAL.replace("verify: [factorization]\n", ""))
        assert parse_config(path, {"verify": ("thickness",)}).verify == ("thickness",)

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
        assert cfg.family == {"thetas": [0.6, -0.4], "noise_sd": 1.0, "state_window": None,
                              "theta0_bound": 1.0, "weights": None}
        assert cfg.truth == {"theta": 0.6}


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

SMALL_MARKOV_SIMULATE = """\
regime: markov
family:
  thetas: [0.6, -0.4]
truth:
  theta: 0.6
schedule:
  n_values: [50, 100]
seed: 17
replications: 20
verify: [cesaro]
out: {out}
"""

SHORT_DESIGN = """\
regime: regression
family:
  slopes: [0.0, 1.0, 3.0]
  design_length: 300
truth:
  slope: 0.0
schedule:
  n_values: [250, 350, 450]
params:
  C: 0.0
  c: 1.5
  d: 2.5
  r: 1.0
  beta: 2.0
  M: 1.0
seed: 17
replications: 4
verify: [factorization, thickness, cover, sieve, cesaro]
out: {out}
"""

MISSPECIFIED_CHECK = """\
regime: misspecified
family:
  means: [0.5, 1.0, 1.5]
truth:
  mean: 0.0
  projection_id: 0
schedule:
  n_values: [30]
seed: 17
verify: [factorization, conditional-identity]
out: {out}
"""

# (config, line replaced, its replacement, its complaints) of each bad value
BAD_VALUES = {
    "family.means": (SMALL_CHECK, "means: [0.0, 1.0]", "means: [0.0, 40.0]",
                     "family.means[1] = 40.0 with family.sd = 1.0 needs [34.0, 46.0] "
                     "inside the grid [-12.0, 12.0] (line 3)"),
    "family.sd.grid": (MISSPECIFIED_CHECK, "means: [0.5, 1.0, 1.5]",
                       "means: [0.5, 1.0, 1.5]\n  sd: 1.8",
                       "family.means[2] = 1.5 with family.sd = 1.8 needs [-9.3, 12.3] "
                       "inside the grid [-12.0, 12.0] (line 3)"),
    "truth.mean": (SMALL_CHECK, "mean: 0.0", "mean: 7.0",
                   "truth.mean = 7.0 with truth.sd = 1.0 needs [1.0, 13.0] "
                   "inside the grid [-12.0, 12.0] (line 5)"),
    "truth.mean.inf": (SMALL_CHECK, "mean: 0.0", "mean: 1.0e+400",
                       "truth.mean must be finite, got inf (line 5)"),
    "truth.mean.yaml-inf": (SMALL_CHECK, "mean: 0.0", "mean: .inf",
                            "truth.mean must be finite, got inf (line 5)"),
    "truth.mean.yaml-minus-inf": (SMALL_CHECK, "mean: 0.0", "mean: -.Inf",
                                  "truth.mean must be finite, got -inf (line 5)"),
    "truth.mean.nan": (SMALL_CHECK, "mean: 0.0", "mean: .nan",
                       "truth.mean must be finite, got nan (line 5)"),
    "truth.slope.inf": (SHORT_DESIGN, "design_length: 300\ntruth:\n  slope: 0.0",
                        "design_length: 450\ntruth:\n  slope: 1.0e+400",
                        "truth.slope must be finite, got inf (line 6)"),
    "schedule.kappa.inf": (SMALL_CHECK, "n_values: [30]", "n_values: [30]\n  kappa: 1.0e+400",
                           "schedule.kappa must be finite, got inf (line 8)"),
    "truth.sd.fine": (SMALL_CHECK, "mean: 0.0", "mean: 0.0\n  sd: 0.001",
                      "truth.sd = 0.001 is below 2 grid spacings, 0.012 (line 6)"),
    "family.sd.fine": (MISSPECIFIED_CHECK, "means: [0.5, 1.0, 1.5]",
                       "means: [0.5, 1.0, 1.5]\n  sd: 0.011",
                       "family.sd = 0.011 is below 2 grid spacings, 0.012 (line 4)"),
    "misspecified.tilt": (MISSPECIFIED_CHECK, "means: [0.5, 1.0, 1.5]\ntruth:\n  mean: 0.0",
                          "means: [0.5, 1.0, 1.5, 3.5]\ntruth:\n  mean: 0.0\n  sd: 1.5",
                          "family.means[3] = 3.5 tilts f_star f / f_circ to mean 6.75 with "
                          "truth.sd = 1.5, which needs [-2.25, 15.75] inside the grid "
                          "[-12.0, 12.0] (line 3)"),
    # three atoms' weighted integrands leave the grid; the one at 3.5 peaks at
    # its edge, where both quadrature rules read its certificate half low
    "misspecified.tilt.wide": (MISSPECIFIED_CHECK, "means: [0.5, 1.0, 1.5]\ntruth:\n  mean: 0.0",
                               "means: [0.5, 1.0, 1.5, 3.5]\ntruth:\n  mean: 0.0\n  sd: 2.0",
                               *(f"family.means[{i}] = {m} tilts f_star f / f_circ to mean {t} "
                                 f"with truth.sd = 2.0, which needs [{t - 12.0}, {t + 12.0}] "
                                 "inside the grid [-12.0, 12.0] (line 3)"
                                 for i, m, t in ((1, 1.0, 2.0), (2, 1.5, 4.0), (3, 3.5, 12.0)))),
    "truth.projection_id": (MISSPECIFIED_CHECK, "projection_id: 0", "projection_id: 2",
                            "truth.projection_id = 2 is not the kl projection: "
                            "family.means[0] = 0.5 is nearer truth.mean = 0.0 (line 6)"),
    "family.means.empty": (SMALL_CHECK, "means: [0.0, 1.0]", "means: []",
                           "family.means must list at least one atom (line 3)"),
    "family.slopes.empty": (SHORT_DESIGN, "slopes: [0.0, 1.0, 3.0]\n  design_length: 300",
                            "slopes: []\n  design_length: 450",
                            "family.slopes must list at least one atom (line 3)"),
    # with a subset set this once read "u_set[0] must be an atom id below 0"
    "family.thetas.empty": (MARKOV_WINDOW.replace("seed: 17", "seed: 17\nsubset: [0]\nu_set: [0]"),
                            "thetas: [0.6, -0.4]", "thetas: []",
                            "family.thetas must list at least one atom (line 3)"),
    "family.weights": (SMALL_CHECK, "means: [0.0, 1.0]", "means: [0.0, 1.0]\n  weights: [1, -0.5]",
                       "family.weights[1] must be positive, got -0.5 (line 4)"),
    "family.design_length": (SHORT_DESIGN, "design_length: 300", "design_length: 0",
                             "family.design_length must be at least 1, got 0 (line 4)"),
    "schedule.n_values": (SMALL_CHECK, "n_values: [30]", "n_values: [0, 30]",
                          "schedule.n_values[0] must be at least 1, got 0 (line 7)"),
    "schedule.empty": (SMALL_CHECK, "n_values: [30]", "n_values: []",
                       "invalid schedule: schedule needs at least one sample size (line 6)"),
    "schedule.a": (SMALL_CHECK, "n_values: [30]", "n_values: [30]\n  a: -2.0",
                   "schedule.a must be positive, got -2.0 (line 8)"),
    # a power of zero or an overflow in epsilon is a config error, not a traceback
    "schedule.kappa.log1": (SMALL_CHECK, "n_values: [30]", "n_values: [1, 30]\n  kappa: -1.0",
                            "invalid schedule: epsilon and n * epsilon^2 must be finite over "
                            "the schedule (line 6)"),
    # (log 1)^1 = 0: a zero rate would certify every subset at delta 0
    "schedule.kappa.zero-rate": (SMALL_CHECK, "n_values: [30]", "n_values: [1]\n  kappa: 1.0",
                                 "invalid schedule: epsilon must be positive over the "
                                 "schedule, got 0.0 at n = 1 (line 6)"),
    "schedule.gamma.overflow": (SMALL_CHECK, "n_values: [30]",
                                "n_values: [2, 1000]\n  gamma: -400.0",
                                "invalid schedule: epsilon and n * epsilon^2 must be finite "
                                "over the schedule (line 6)"),
    "params.C": (MARKOV_WINDOW, "C: 0.0", "C: -0.5",
                 "params.C must be nonnegative, got -0.5 (line 10)"),
    "params.c": (MARKOV_WINDOW, "c: 1.5", "c: 0.0",
                 "params.c must be positive, got 0.0 (line 11)"),
    "params.d": (MARKOV_WINDOW, "d: 1.8", "d: -1.0",
                 "params.d must be positive, got -1.0 (line 12)"),
    "params.r": (MARKOV_WINDOW, "r: 1.0", "r: 0",
                 "params.r must be positive, got 0.0 (line 13)"),
    "params.beta": (MARKOV_WINDOW, "beta: 2.0", "beta: 0.5",
                    "params.beta must be greater than 1, got 0.5 (line 14)"),
    "params.M": (MARKOV_WINDOW, "M: 1.0", "M: -1.0",
                 "params.M must be positive, got -1.0 (line 15)"),
    "params.big": (MARKOV_WINDOW, "M: 1.0", "M: 1.0e+400",
                   "params.M must be finite, got inf (line 15)"),
    "replications": (SMALL_CESARO, "replications: 8", "replications: 0",
                     "replications must be at least 1, got 0 (line 9)"),
    "jobs": (SMALL_CHECK, "seed: 17", "seed: 17\njobs: 0",
             "jobs must be at least 1, got 0 (line 9)"),
    "seed": (SMALL_CHECK, "seed: 17", "seed: -3",
             "seed must be nonnegative, got -3 (line 8)"),
    "u_set": (SMALL_CHECK, "seed: 17", "seed: 17\nu_set: [-1]",
              "u_set[0] must be an atom id below 2, got -1 (line 9)"),
    "family.thetas": (MARKOV_WINDOW, "thetas: [0.6, -0.4]", "thetas: [0.6, 1.2]",
                      "family.thetas[1] must be inside (-1, 1), got 1.2 (line 3)"),
    "truth.theta": (MARKOV_WINDOW, "theta: 0.6", "theta: -1.0",
                    "truth.theta must be inside (-1, 1), got -1.0 (line 6)"),
}

# a summary.json whose bytes are not all ASCII
UTF8_SUMMARY = json.dumps({"seed": 17, "config": "Cesàro", "verifications": {
    "factorization": {"passed": True, "detail": "ok", "csv": "factorization.csv"}}},
    ensure_ascii=False).encode("utf-8")

# a bad config value exits 3 from each of these, before any verification runs
EVERY_SUBCOMMAND = [["check"], ["check", "--verify", "factorization"], ["simulate"],
                    ["sieve"], ["report"]]
SUBCOMMAND_IDS = ["check", "factorization", "simulate", "sieve", "report"]


def random_location_setup(rng) -> tuple[list[float], float, float, float]:
    """Decimal means, family sd, truth mean and truth sd: the sds run 0.3 to
    1.8 and are equal one time in four, and half the setups hold two means
    symmetric about the truth's, so that two atoms tie for the projection."""
    mean = round(float(rng.uniform(-6.0, 6.0)), 1)
    sd = round(float(rng.uniform(0.3, 1.8)), 2)
    truth_sd = sd if rng.random() < 0.25 else round(float(rng.uniform(0.3, 1.8)), 2)
    means = [round(float(m), 1) for m in rng.uniform(-8.0, 8.0, int(rng.integers(1, 5)))]
    if rng.random() < 0.5:
        gap = round(float(rng.uniform(0.1, 3.0)), 1)
        means += [round(mean - gap, 1), round(mean + gap, 1)]
    return means, sd, mean, truth_sd


def location_config(regime: str, means, sd, mean, truth_sd, projection) -> str:
    proj = "" if projection is None else f"\n  projection_id: {projection}"
    return (f"regime: {regime}\nfamily:\n  means: {means}\n  sd: {sd}\ntruth:\n  mean: {mean}\n"
            f"  sd: {truth_sd}{proj}\nschedule:\n  n_values: [30]\nseed: 1\n"
            "verify: [factorization]\n")


def library_builds(regime: str, means, sd, mean, truth_sd, projection) -> bool:
    """Whether the library builds the regime, from the family and truth up."""
    try:
        prior = uniform_prior(build_gaussian_location_family(GRID, means, sd))
        truth = gaussian_density(GRID, mean, truth_sd)
        if regime == "iid":
            IidRegime(prior, truth)
        else:
            MisspecifiedRegime(MisspecifiedSetup(prior, truth, projection))
    except ModelError:
        return False
    return True


def grid_kl_refuses(prior, truth, projection: int) -> bool:
    """The library's grid-kl projection check, on copies of the densities
    that record no Gaussian parameters."""
    bare = [FamilyMember(m.id, IID, GridDensity(GRID, m.density.values)) for m in prior.members]
    try:
        MisspecifiedSetup(uniform_prior(bare), GridDensity(GRID, truth.values), projection)
    except ModelError as e:
        assert "beats declared projection" in str(e)
        return True
    return False


def assert_config_error(tmp_path: Path, capsys, argv, text: str, *messages: str) -> None:
    """The run exits 3 with one ``config error:`` line per message and writes nothing."""
    path = write_config(tmp_path, text)
    assert main([*argv, "--config", str(path)]) == EXIT_CONFIG_ERROR
    assert capsys.readouterr().err == "".join(f"config error: {m}\n" for m in messages)
    assert not (tmp_path / "out").exists()


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

    def test_report_with_config_builds_no_regime(self, tmp_path, capsys, monkeypatch):
        out = tmp_path / "out"
        path = write_config(tmp_path, SMALL_CHECK.format(out=out))
        assert main(["check", "--config", str(path)]) == EXIT_PASS
        monkeypatch.setattr(cli, "build_regime", broken)
        assert main(["report", "--config", str(path)]) == EXIT_PASS
        assert "factorization: pass" in capsys.readouterr().out

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

    def test_verify_override_refuses_a_repeat(self, tmp_path, capsys):
        assert_config_error(tmp_path, capsys, ["check", "--verify", "factorization,factorization"],
                            SMALL_CHECK.format(out=tmp_path / "out"),
                            "duplicate verification 'factorization' in --verify and in --verify")

    def test_nothing_to_do_for_other_subcommand(self, tmp_path, capsys):
        path = write_config(tmp_path, SMALL_CHECK.format(out=tmp_path / "out"))
        code = main(["simulate", "--config", str(path)])
        assert code == EXIT_PASS
        assert "nothing to do" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["report", "simulate"])
    def test_read_only_run_leaves_no_output_directory(self, tmp_path, capsys, command):
        """report, and a subcommand with nothing to do, write nothing, so
        neither creates the configured output directory."""
        path = write_config(tmp_path, SMALL_CHECK.format(out=tmp_path / "out"))
        code = main([command, "--config", str(path)])
        assert code == (EXIT_CONFIG_ERROR if command == "report" else EXIT_PASS)
        assert not (tmp_path / "out").exists()

    def test_subset_with_unknown_atom_id(self, tmp_path, capsys):
        text = SMALL_CHECK.format(out=tmp_path / "out") + "subset: [1, 9]\n"
        assert_config_error(tmp_path, capsys, ["check"], text,
                            "subset[1] must be an atom id below 2, got 9 (line 11)")

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


def broken_replicate_block(plan, rep_ids):
    raise ExperimentError("statistic log_evidence has NaN entries")


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
        monkeypatch.setattr(experiments, "replicate_block", broken_replicate_block)
        out = tmp_path / "out"
        path = write_config(tmp_path, SMALL_SIMULATE.format(c=1.5, out=out))
        code = main(["simulate", "--config", str(path), "--verify", "evidence-bound",
                     "--jobs", jobs])
        assert code == EXIT_RUNTIME_ERROR
        assert capsys.readouterr().err == (
            "runtime error: statistic log_evidence has NaN entries\n"
        )
        assert not (out / "summary.json").exists()

    def test_rate_fits_need_no_least_squares_solver(self, tmp_path, monkeypatch):
        """simulate's two slopes are closed forms: markov.yaml runs, and
        writes the committed bytes, with numpy's lstsq raising wherever
        numpy bound it (np.polyfit included)."""
        lstsq = np.linalg.lstsq

        def refused(*args, **kwargs):
            raise AssertionError("numpy.linalg.lstsq called")

        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "numpy" and module is not None:
                for key, value in list(vars(module).items()):
                    if value is lstsq:
                        monkeypatch.setattr(module, key, refused)
        with pytest.raises(AssertionError, match="lstsq called"):
            np.polyfit([0.0, 1.0, 2.0], [0.0, 1.0, 3.0], 1)
        committed = ROOT / "out" / "markov"
        for jobs in ("1", "2"):
            out = tmp_path / jobs
            argv = ["simulate", "--config", str(ROOT / "configs" / "markov.yaml"),
                    "--out", str(out), "--jobs", jobs]
            assert main(argv) == EXIT_PASS
            entries = json.loads((out / "summary.json").read_text())["verifications"]
            assert sorted(entries) == ["cesaro", "evidence-bound", "numerator-bound",
                                       "posterior-mass"]
            for entry in entries.values():
                assert (out / entry["csv"]).read_bytes() == (
                    committed / entry["csv"]).read_bytes()


def broken(*args, **kwargs):
    raise ExperimentError("injected fault")


class TestWritesAfterTheWork:
    """A subcommand writes the CSVs of its selected verifications only, and
    only once every one of them has run."""

    def sieve_config(self, tmp_path, verify: str, drop: tuple[str, ...] = ()) -> list[str]:
        text = (ROOT / "configs" / "sieve.yaml").read_text()
        text = "".join(line for line in text.splitlines(keepends=True)
                       if line.strip().split(":")[0] not in drop)
        path = write_config(tmp_path, text)
        return ["sieve", "--config", str(path), "--out", str(tmp_path / "out"),
                "--verify", verify]

    @pytest.mark.parametrize("verify, drop", [
        ("cover", ()), ("cover", ("c", "r", "beta")), ("sieve", ())],
        ids=["cover", "cover-without-sieve-constants", "sieve"])
    def test_only_the_selected_csv_is_written(self, tmp_path, verify, drop):
        """The cover needs only M, so a cover-only config may leave out the
        sieve's constants; and neither of the two writes the other's CSV."""
        out = tmp_path / "out"
        assert main(self.sieve_config(tmp_path, verify, drop)) == EXIT_PASS
        csv = cli.VERIFICATIONS[verify].csv
        assert sorted(p.name for p in out.iterdir()) == sorted([csv, "summary.json"])
        assert (out / csv).read_bytes() == (ROOT / "out" / "sieve" / csv).read_bytes()
        entries = json.loads((out / "summary.json").read_text())["verifications"]
        assert entries == {verify: json.loads(
            (ROOT / "out" / "sieve" / "summary.json").read_text())["verifications"][verify]}

    @pytest.mark.parametrize("command, config, name", [
        ("check", "iid.yaml", "certify_schedule"),
        ("simulate", "iid.yaml", "concentration_report"),
        ("sieve", "sieve.yaml", "build_sieve_from_cover"),
    ], ids=["check", "simulate", "sieve"])
    def test_fault_in_the_last_runner_writes_nothing(self, tmp_path, capsys, monkeypatch,
                                                     command, config, name):
        """A fault in the last selected verification exits 4 and leaves no
        CSV of the ones before it, and no output directory."""
        monkeypatch.setattr(cli, name, broken)
        out = tmp_path / "out"
        argv = [command, "--config", str(ROOT / "configs" / config), "--out", str(out)]
        assert main(argv) == EXIT_RUNTIME_ERROR
        assert capsys.readouterr() == ("", "runtime error: injected fault\n")
        assert not out.exists()


class TestOverridesAndRuntimeFaults:
    def test_negative_seed_override_is_config_error(self, tmp_path, capsys):
        path = write_config(tmp_path, SMALL_CHECK.format(out=tmp_path / "out"))
        code = main(["check", "--config", str(path), "--seed", "-1"])
        assert code == EXIT_CONFIG_ERROR
        assert capsys.readouterr().err == (
            "config error: seed must be nonnegative, got -1 (--seed)\n"
        )

    def test_zero_jobs_override_is_config_error(self, tmp_path, capsys):
        path = write_config(tmp_path, SMALL_CHECK.format(out=tmp_path / "out"))
        code = main(["check", "--config", str(path), "--jobs", "0"])
        assert code == EXIT_CONFIG_ERROR
        assert capsys.readouterr().err == (
            "config error: jobs must be at least 1, got 0 (--jobs)\n"
        )

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

    @pytest.mark.parametrize("argv", EVERY_SUBCOMMAND, ids=SUBCOMMAND_IDS)
    def test_config_not_utf8_exits_3(self, tmp_path, capsys, argv):
        path = tmp_path / "plan.yaml"
        path.write_bytes(b"\xff\xfe" + SMALL_CHECK.format(out=tmp_path / "out").encode())
        assert main([*argv, "--config", str(path)]) == EXIT_CONFIG_ERROR
        assert capsys.readouterr().err == (
            "config error: cannot read config: 'utf-8' codec can't decode byte 0xff "
            "in position 0: invalid start byte\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, verify", [
        ("check", "factorization"), ("simulate", "cesaro"), ("sieve", "cover"),
        ("report", "factorization")])
    def test_summary_not_utf8_exits_4(self, tmp_path, capsys, command, verify):
        out = tmp_path / "out"
        out.mkdir()
        (out / "summary.json").write_bytes(b'\xff\xfe{"seed": 17}')
        text = SMALL_SIMULATE.format(c=1.5, out=out).replace(
            "M: 1.0", "M: 1.0\n  r: 1.0\n  beta: 2.0")
        path = write_config(tmp_path, text)
        assert main([command, "--config", str(path), "--verify", verify]) == EXIT_RUNTIME_ERROR
        err = capsys.readouterr().err
        assert err.startswith(f"runtime error: corrupt {out / 'summary.json'}: 'utf-8' codec")
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("command, config, summary, code", [
        ("check", "# Cesàro\n", None, EXIT_PASS),
        ("report", "# Cesàro\n", UTF8_SUMMARY, EXIT_PASS),
        ("check", "# \xff\n", None, EXIT_CONFIG_ERROR),
        ("check", "", b'\xff\xfe{"seed": 17}', EXIT_RUNTIME_ERROR),
    ], ids=["utf8-config", "utf8-report", "latin1-config", "bad-summary"])
    def test_text_is_utf8_whatever_the_locale(self, tmp_path, command, config, summary, code):
        """Under the C locale with UTF-8 mode off, the locale's encoding is
        ASCII: a UTF-8 config and a UTF-8 summary.json are still read, while a
        config that is not UTF-8 still exits 3 and such a summary exits 4."""
        out = tmp_path / "out"
        text = SMALL_CHECK.format(out=out).replace("verify: [", config + "verify: [")
        path = tmp_path / "plan.yaml"
        path.write_bytes(text.encode("latin-1" if "\xff" in config else "utf-8"))
        if summary is not None:
            out.mkdir()
            (out / "summary.json").write_bytes(summary)
        run = run_in_c_locale(command, "--config", str(path), "--verify", "factorization")
        assert run.returncode == code, run.stderr
        if code == EXIT_PASS:
            assert "factorization: pass" in run.stdout
            assert json.loads((out / "summary.json").read_bytes())["seed"] == 17
            assert (out / ("summary.csv" if command == "report" else "factorization.csv")).exists()

    @pytest.mark.parametrize("command, verify", [
        ("check", "factorization"), ("simulate", "cesaro"), ("sieve", "cover")])
    def test_out_the_locale_cannot_encode_exits_4(self, tmp_path, command, verify):
        """Under the C locale with UTF-8 mode off, an output directory whose
        name the locale cannot encode is a runtime error of one line, as is
        any directory that cannot be created."""
        out = tmp_path / "Cesàro"
        text = SMALL_SIMULATE.format(c=1.5, out=out).replace(
            "M: 1.0", "M: 1.0\n  r: 1.0\n  beta: 2.0")
        path = tmp_path / "plan.yaml"
        path.write_bytes(text.encode("utf-8"))
        run = run_in_c_locale(command, "--config", str(path), "--verify", verify)
        assert run.returncode == EXIT_RUNTIME_ERROR, run.stderr
        shown = str(out).encode("ascii", "backslashreplace").decode()
        assert run.stderr.startswith(f"runtime error: cannot create output directory {shown}: ")
        assert run.stderr.count("\n") == 1
        assert not out.exists()

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

    @pytest.mark.parametrize("summary, fault", [
        (b'{"seed": 7, "verif', "corrupt"),
        (b'\xff\xfe{"seed": 7}', "corrupt"),
        (b'{"seed": 7, "verifications": []}', "malformed"),
    ], ids=["corrupt", "not-utf8", "malformed"])
    def test_unusable_summary_leaves_every_file_as_it_was(self, tmp_path, capsys, summary,
                                                          fault):
        """The old summary is read and checked before the first CSV is
        written, so one that cannot be merged exits 4 with every file of the
        directory byte-identical and none added."""
        out = tmp_path / "out"
        out.mkdir()
        (out / "summary.json").write_bytes(summary)
        (out / "factorization.csv").write_bytes(b"an older run's rows\n")
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        path = write_config(tmp_path, SMALL_CHECK.format(out=out))
        assert main(["check", "--config", str(path)]) == EXIT_RUNTIME_ERROR
        err = capsys.readouterr().err
        assert err.startswith(f"runtime error: {fault} {out / 'summary.json'}")
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    def test_summary_records_the_hash_of_the_parsed_bytes(self, tmp_path, monkeypatch):
        """A config rewritten after it was parsed is recorded under the
        sha256 of the bytes that ran, not of the bytes now on disk."""
        out = tmp_path / "out"
        path = write_config(tmp_path, SMALL_CHECK.format(out=out))
        parsed = path.read_bytes()
        real = cli.parse_config

        def parse_then_rewrite(*args, **kwargs):
            cfg = real(*args, **kwargs)
            path.write_bytes(parsed + b"# edited after the parse\n")
            return cfg

        monkeypatch.setattr(cli, "parse_config", parse_then_rewrite)
        assert main(["check", "--config", str(path), "--verify", "factorization"]) == EXIT_PASS
        data = json.loads((out / "summary.json").read_text())
        assert data["config"] == hashlib.sha256(parsed).hexdigest()
        assert data["config"] != hashlib.sha256(path.read_bytes()).hexdigest()

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

    @pytest.mark.parametrize("argv", EVERY_SUBCOMMAND, ids=SUBCOMMAND_IDS)
    @pytest.mark.parametrize("window", ["-1.0", "0.0"], ids=["negative", "zero"])
    def test_bad_state_window_exits_3(self, tmp_path, capsys, argv, window):
        text = MARKOV_WINDOW.format(window=window, out=tmp_path / "out")
        assert_config_error(tmp_path, capsys, argv, text,
                            f"family.state_window must be positive, got {window} (line 4)")

    @pytest.mark.parametrize("argv", EVERY_SUBCOMMAND, ids=SUBCOMMAND_IDS)
    def test_negative_theta0_bound_exits_3(self, tmp_path, capsys, argv):
        text = MARKOV_WINDOW.format(window="2.0", out=tmp_path / "out")
        text = text.replace("state_window: 2.0", "theta0_bound: -1.0")
        assert_config_error(tmp_path, capsys, argv, text,
                            "family.theta0_bound must be nonnegative, got -1.0 (line 4)")

    @pytest.mark.parametrize("argv", EVERY_SUBCOMMAND, ids=SUBCOMMAND_IDS)
    @pytest.mark.parametrize(
        "regime, family, truth, key, line",
        [
            ("iid", "means: [0.0, 1.0]\n  sd: 0", "mean: 0.0", "family.sd", 4),
            ("iid", "means: [0.0, 1.0]", "mean: 0.0\n  sd: 0", "truth.sd", 6),
            ("markov", "thetas: [0.6, -0.4]\n  noise_sd: 0", "theta: 0.6",
             "family.noise_sd", 4),
        ],
        ids=["family.sd", "truth.sd", "family.noise_sd"],
    )
    def test_zero_sd_exits_3(self, tmp_path, capsys, argv, regime, family, truth, key, line):
        text = (f"regime: {regime}\nfamily:\n  {family}\ntruth:\n  {truth}\n"
                f"schedule:\n  n_values: [25, 50]\nseed: 11\nverify: [factorization]\n"
                f"out: {tmp_path / 'out'}\n")
        assert_config_error(tmp_path, capsys, argv, text,
                            f"{key} must be positive, got 0.0 (line {line})")

    @pytest.mark.parametrize("argv", EVERY_SUBCOMMAND, ids=SUBCOMMAND_IDS)
    @pytest.mark.parametrize("case", sorted(BAD_VALUES))
    def test_bad_value_names_key_and_line(self, tmp_path, capsys, argv, case):
        template, old, new, *messages = BAD_VALUES[case]
        text = template.format(window="2.0", out=tmp_path / "out").replace(old, new)
        assert old in template
        assert_config_error(tmp_path, capsys, argv, text, *messages)

    @pytest.mark.parametrize("argv", EVERY_SUBCOMMAND, ids=SUBCOMMAND_IDS)
    def test_shipped_iid_truth_off_the_grid_exits_3(self, tmp_path, capsys, argv):
        # before the rule, this truth became a spike at the grid's edge and
        # simulate passed its cesaro check on it
        text = (ROOT / "configs" / "iid.yaml").read_text()
        text = text.replace("  mean: 0.0", "  mean: 40.0").replace(
            "out: out/iid", f"out: {tmp_path / 'out'}")
        assert_config_error(tmp_path, capsys, argv, text,
                            "truth.mean = 40.0 with truth.sd = 1.0 needs [34.0, 46.0] "
                            "inside the grid [-12.0, 12.0] (line 9)")

    def test_shipped_iid_at_a_zero_rate_exits_3(self, tmp_path, capsys):
        # this schedule once exited 0, "certified at all 1 schedule points"
        # at delta 0
        text = (ROOT / "configs" / "iid.yaml").read_text()
        text = text.replace("n_values: [50, 100, 200, 400]", "n_values: [1]\n  kappa: 1.0")
        text = text.replace("out: out/iid", f"out: {tmp_path / 'out'}")
        assert_config_error(tmp_path, capsys, ["check", "--verify", "separation"], text,
                            "invalid schedule: epsilon must be positive over the schedule, "
                            "got 0.0 at n = 1 (line 10)")

    @pytest.mark.parametrize("truth_sd", [0.5, 1.0, 1.5])
    def test_projection_is_nearest_mean_whatever_truth_sd(self, tmp_path, truth_sd):
        # the parse-time rule and the library's grid kl pick the same atom
        text = MISSPECIFIED_CHECK.format(out=tmp_path / "out").replace(
            "mean: 0.0", f"mean: 1.2\n  sd: {truth_sd}")
        assert parse_errors(tmp_path, text) == [
            "truth.projection_id = 0 is not the kl projection: "
            "family.means[1] = 1.0 is nearer truth.mean = 1.2 (line 7)"
        ]
        cfg = parse_config(write_config(tmp_path, text.replace("projection_id: 0",
                                                               "projection_id: 1")))
        regime = cli.build_regime(cfg)
        assert regime.f_circ is regime.prior.members[1].density
        with pytest.raises(ModelError, match="truth.projection_id = 0 is not the kl projection"):
            cli.build_regime(replace(cfg, truth={**cfg.truth, "projection_id": 0}))

    def test_config_and_library_share_the_location_rules(self, tmp_path):
        """On seeded random location setups the config admits exactly what the
        library builds, and on every admitted misspecified setup the closed-form
        nearest mean refuses the same projections as the library's grid kl."""
        rng = np.random.default_rng(20261021)
        admitted = refused = compared = ties = 0
        for _ in range(200):
            means, sd, mean, truth_sd = random_location_setup(rng)
            nearest = int(np.argmin([abs(m - mean) for m in means]))
            declared = nearest if rng.random() < 0.7 else int(rng.integers(len(means)))
            for regime, projection in (("iid", None), ("misspecified", declared)):
                text = location_config(regime, means, sd, mean, truth_sd, projection)
                try:
                    parse_config(write_config(tmp_path, text))
                except ConfigError:
                    parsed = False
                else:
                    parsed = True
                built = library_builds(regime, means, sd, mean, truth_sd, projection)
                assert parsed == built, text
                admitted, refused = admitted + parsed, refused + (not parsed)
            if not library_builds("misspecified", means, sd, mean, truth_sd, nearest):
                continue
            prior = uniform_prior(build_gaussian_location_family(GRID, means, sd))
            truth = gaussian_density(GRID, mean, truth_sd)
            ties += len(means) > len({round(abs(m - mean), 9) for m in means})
            for p in range(len(means)):
                closed = any(key == "truth.projection_id" for key, _ in
                             location_faults(GRID, means, sd, mean, truth_sd, p))
                assert closed == grid_kl_refuses(prior, truth, p), (means, sd, mean, truth_sd, p)
                compared += closed
        assert min(admitted, refused, compared, ties) > 10

    @pytest.mark.parametrize("argv", EVERY_SUBCOMMAND, ids=SUBCOMMAND_IDS)
    def test_every_bad_key_reported_at_once(self, tmp_path, capsys, argv):
        text = (
            "regime: misspecified\n"
            "family:\n"
            "  means: [0.0, 1.0, 2.0]\n"
            "truth:\n"
            "  mean: 0.5\n"
            "  sd: 0\n"
            "  projection_id: 9\n"
            "schedule:\n"
            "  n_values: [25, 50]\n"
            "seed: 11\n"
            "subset: [7]\n"
            "verify: [factorization]\n"
            f"out: {tmp_path / 'out'}\n"
        )
        assert_config_error(
            tmp_path, capsys, argv, text,
            "truth.sd must be positive, got 0.0 (line 6)",
            "truth.projection_id must be an atom id below 3, got 9 (line 7)",
            "subset[0] must be an atom id below 3, got 7 (line 11)",
        )

    @pytest.mark.parametrize("argv", EVERY_SUBCOMMAND, ids=SUBCOMMAND_IDS)
    def test_schedule_past_design_length_exits_3(self, tmp_path, capsys, argv):
        assert_config_error(
            tmp_path, capsys, argv, SHORT_DESIGN.format(out=tmp_path / "out"),
            "schedule runs to n = 450, past family.design_length = 300 (line 4)",
        )

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


@pytest.mark.parametrize("name", ["iid", "markov", "regression"])
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


# a subset check made to refuse at one point: the regime method and how its
# values change there, so that the vertex step or the hull step refuses
REFUSALS = {
    "vertex": ("separation_gaps", lambda v: v - 1.0),
    "hull": ("hull_gap_bound", lambda v: (v[0] - 1.0, v[1])),
}


@pytest.mark.parametrize("step", list(REFUSALS))
def test_certification_refused_at_a_middle_n_matches_the_per_n_loops(tmp_path, monkeypatch, step):
    """iid.yaml's subset refused at n = 100 alone: the separation rows (a NaN
    row, the later points still certified) and the numerator-bound refusal
    are those of the per-n reference loops."""
    config = ROOT / "configs" / "iid.yaml"
    cfg = parse_config(config)
    regime = cli.build_regime(cfg)
    method, shift = REFUSALS[step]
    real = getattr(regime, method)

    def refusing(ids, *args):
        values = real(ids, *args)
        return shift(values) if args[-1] == 100 else values

    monkeypatch.setattr(regime, method, refusing)
    monkeypatch.setattr(cli, "build_regime", lambda cfg: regime)
    oracle = (regime, cfg.subset, cfg.params.d, cfg.schedule)
    rows, failure = separation_rows_oracle(*oracle)
    assert [row[-1] for row in rows] == [True, False, True, True]

    argv = ["--config", str(config), "--out", str(tmp_path)]
    assert main(["check", *argv, "--verify", "separation"]) == EXIT_CRITERION_FAIL
    written = (tmp_path / "separation.csv").read_text().splitlines()[5:]
    assert written == [",".join(cli._fmt(v) for v in row) for row in rows]
    assert main(["simulate", *argv, "--verify", "numerator-bound"]) == EXIT_CRITERION_FAIL
    entries = json.loads((tmp_path / "summary.json").read_text())["verifications"]
    assert entries["separation"]["detail"] == failure
    assert entries["numerator-bound"]["detail"] == numerator_refusal_oracle(*oracle) == failure


FP_FAULTS = {
    "invalid": (lambda v: np.sqrt(v - 1.0), "invalid value encountered in sqrt"),
    "divide": (lambda v: np.log(0.0 * v), "divide by zero encountered in log"),
    "overflow": (lambda v: np.exp(v + 1000.0), "overflow encountered in exp"),
}


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("fault, message", FP_FAULTS.values(), ids=FP_FAULTS.keys())
def test_floating_point_error_exits_4(tmp_path, capsys, monkeypatch, jobs, fault, message):
    """A NaN, a division by zero or an overflow anywhere in a run is a
    runtime fault, also inside the replication threads."""
    cesaro_kls = IidRegime.cesaro_kls
    monkeypatch.setattr(IidRegime, "cesaro_kls", lambda *a: fault(cesaro_kls(*a)))
    path = write_config(tmp_path, SMALL_CESARO.format(out=tmp_path / "out"))
    code = main(["simulate", "--config", str(path), "--jobs", jobs])
    assert code == EXIT_RUNTIME_ERROR
    err = capsys.readouterr().err
    assert err == f"runtime error: {message}\n"


@pytest.mark.parametrize("fault", ["pass", *FP_FAULTS])
def test_pool_faults_read_as_serial_ones(tmp_path, capsys, monkeypatch, fault):
    """Every fault of the pass gives the same exit code and the same
    standard error at --jobs 2 as at --jobs 1."""
    if fault == "pass":
        monkeypatch.setattr(experiments, "replicate_block", broken_replicate_block)
        text, argv = SMALL_SIMULATE.format(c=1.5, out="{out}"), ["--verify", "evidence-bound"]
    else:
        cesaro_kls = IidRegime.cesaro_kls
        monkeypatch.setattr(IidRegime, "cesaro_kls",
                            lambda *a: FP_FAULTS[fault][0](cesaro_kls(*a)))
        text, argv = SMALL_CESARO, []
    seen = []
    for jobs in ("1", "2"):
        path = write_config(tmp_path, text.format(out=tmp_path / f"out-{jobs}"), f"{jobs}.yaml")
        code = main(["simulate", "--config", str(path), *argv, "--jobs", jobs])
        seen.append((code, capsys.readouterr().err))
    assert seen[0][0] == EXIT_RUNTIME_ERROR
    assert seen[1] == seen[0]


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_underflow_stays_silent(tmp_path, monkeypatch, jobs):
    cesaro_kls = IidRegime.cesaro_kls
    monkeypatch.setattr(IidRegime, "cesaro_kls",
                        lambda *a: cesaro_kls(*a) + np.exp(-1000.0 - np.arange(a[2].shape[-1])))
    path = write_config(tmp_path, SMALL_CESARO.format(out=tmp_path / "out"))
    assert main(["simulate", "--config", str(path), "--jobs", jobs]) == EXIT_PASS


def test_readme_config_sketch_parses_and_builds(tmp_path):
    readme = (ROOT / "README.md").read_text()
    sketch = readme.split("### Config sketch", 1)[1].split("```yaml\n", 1)[1].split("```", 1)[0]
    cfg = parse_config(write_config(tmp_path, sketch), {"out": str(tmp_path / "out")})
    assert cfg.out == str(tmp_path / "out")
    cli.build_regime(cfg)


def test_import_leaves_the_pool_unloaded():
    """Only a run with --jobs above 1 loads the thread pool, so a fresh
    process that imports the CLI does not pay for concurrent.futures."""
    code = (
        "import sys, bayesrates.cli; "
        "print([m for m in ('concurrent.futures', 'multiprocessing') if m in sys.modules])"
    )
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
                         capture_output=True, text=True, check=True)
    assert run.stdout == "[]\n"


def test_pool_runs_in_the_calling_process(tmp_path):
    """simulate --jobs 2 forks nothing and never loads multiprocessing: its
    pool is threads of the calling process."""
    path = write_config(tmp_path, SMALL_MARKOV_SIMULATE.format(out=tmp_path / "out"))
    code = (
        "import os, sys\n"
        "def refuse(*args):\n"
        "    raise AssertionError('forked')\n"
        "os.fork = refuse\n"
        "from bayesrates import cli\n"
        f"code = cli.main(['simulate', '--config', {str(path)!r}, '--jobs', '2'])\n"
        "print(code, 'multiprocessing' in sys.modules)\n"
    )
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[-1] == f"{EXIT_PASS} False"
