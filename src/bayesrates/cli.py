"""Command-line interface: config parsing, verification dispatch, CSV reports.

Configs are YAML with nested sections.  Parsing walks the composed node tree
so every complaint carries a line number, duplicate keys are rejected citing
both occurrences, and unknown keys are errors rather than silent no-ops.
One file describes one plan; the selected verifications run under four
subcommands: ``check`` (exact identities and geometry certifications),
``simulate`` (Monte Carlo bound checks), ``sieve`` (covering and sieve
construction report), ``report`` (aggregate previous outputs into a table).

Exit codes: 0 all selected checks pass, 2 a check failed, 3 bad config,
4 runtime failure.  Output is deterministic: the same config and seed give
byte-identical CSVs (17 significant digits, LF endings, no timestamps).
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np
import yaml

from . import inference
from .divergences import DivergenceError, default_grid, gaussian_density
from .experiments import (
    ExperimentError,
    ExperimentPlan,
    IidRegime,
    MarkovRegime,
    MisspecifiedRegime,
    PreconditionError,
    RegressionRegime,
    SubsetNotAdmissibleError,
    certify_numerator,
    certify_schedule,
    check_evidence_thickness,
    concentration_report,
    concentration_sets,
    evidence_report,
    fit_rate,
    fitted_thickness_constant,
    generate_data,
    mean_and_se,
    numerator_report,
    run_replications,
    stat_quantile,
    thickness_records,
)
from .geometry import (
    ConditionParams,
    GeometryError,
    RateSchedule,
    build_sieve_from_cover,
    greedy_cover,
)
from .models import (
    MARKOV,
    REGRESSION,
    AtomicPrior,
    FamilyMember,
    MarkovParam,
    MisspecifiedSetup,
    ModelError,
    build_gaussian_location_family,
    linear_regression_function,
    location_faults,
    uniform_prior,
)

REGIMES = ("iid", "misspecified", "regression", "markov")


@dataclass(frozen=True)
class Verification:
    """Where a verification runs, what it needs, and the CSV it writes.

    ``optional`` holds trailing (column, unit) pairs that appear only when
    the rows carry them.  ``stats`` names the replication statistics a
    ``simulate`` verification reads; ``u_mass`` only with a configured u_set.
    """

    command: str
    csv: str
    columns: tuple[str, ...]
    units: tuple[str, ...]
    statistic: str
    needs: tuple[str, ...] = ()
    needs_subset: bool = False
    optional: tuple[tuple[str, str], ...] = ()
    stats: tuple[str, ...] = ()


VERIFICATIONS = {
    "factorization": Verification(
        "check", "factorization.csv",
        ("n", "log_joint_direct", "log_joint_factored", "abs_diff"),
        ("count", "log-density", "log-density", "log-density"),
        "joint log marginal computed directly vs telescoped through one-step predictives",
    ),
    "conditional-identity": Verification(
        "check", "conditional_identity.csv",
        ("step", "lhs", "rhs", "abs_diff"),
        ("count", "dimensionless", "dimensionless", "dimensionless"),
        "one-step conditional expectation of the square-root predictive ratio "
        "vs one minus the affinity gap",
    ),
    "thickness": Verification(
        "check", "thickness.csv",
        ("n", "epsilon", "neighborhood_mass", "implied_c"),
        ("count", "rate", "probability", "dimensionless"),
        "prior mass of the divergence neighborhood and the thickness constant it implies",
    ),
    "separation": Verification(
        "check", "separation.csv",
        ("n", "delta", "min_vertex_gap", "hull_gap_bound", "certified"),
        ("count", "gap", "gap", "gap", "flag"),
        "subset admissibility: vertex gaps and convex-hull triangle bound "
        "against delta = d * n-rate",
        needs=("d",), needs_subset=True,
    ),
    "cover": Verification(
        "sieve", "covering.csv",
        ("n", "epsilon", "radius", "far_atoms", "balls", "covered"),
        ("count", "rate", "distance", "count", "count", "flag"),
        "greedy covering of the far atoms at radius M * rate / 2",
        needs=("M",),
    ),
    "sieve": Verification(
        "sieve", "sieve.csv",
        ("n", "epsilon", "balls", "j_n", "exhausted", "s_n", "complement_mass",
         "uncovered_mass", "tail_bound", "mass_bound_max_violation",
         "log_j_requested", "log_j_bound", "log_j_ok"),
        ("count", "rate", "count", "count", "flag", "mass-root", "probability",
         "probability", "probability", "probability", "log", "log", "flag"),
        "highest-mass sieve kept to the defining inequality's ball count, with "
        "per-index mass bounds and the complement tail chain",
        needs=("beta", "r", "c", "M"),
    ),
    "cesaro": Verification(
        "simulate", "cesaro.csv",
        ("n", "epsilon", "mean", "std_error", "median"),
        ("count", "rate", "nat", "nat", "nat"),
        "running average of one-step predictive divergences from the sampling "
        "density, across replications",
        stats=("cesaro_kl",),
    ),
    "numerator-bound": Verification(
        "simulate", "numerator_bound.csv",
        ("n", "mean_sqrt_numerator", "std_error", "bound"),
        ("count", "sqrt-mass", "sqrt-mass", "sqrt-mass"),
        "mean square-root restricted numerator vs its certified exponential bound",
        needs=("d",), needs_subset=True, stats=("sqrt_l",),
    ),
    "evidence-bound": Verification(
        "simulate", "evidence_bound.csv",
        ("n", "log_threshold", "fraction_below"),
        ("count", "log", "probability"),
        "fraction of replications whose log evidence ratio falls below the "
        "thickness threshold",
        needs=("c",), stats=("log_evidence",),
    ),
    "posterior-mass": Verification(
        "simulate", "posterior_mass.csv",
        ("n", "epsilon", "far_set_size", "median_mass", "upper_quartile_mass"),
        ("count", "rate", "count", "probability", "probability"),
        "posterior mass of atoms farther than M * rate from the sampling truth",
        needs=("M",), optional=(("near_set_median_mass", "probability"),),
        stats=("posterior_mass", "u_mass"),
    ),
}

EXIT_PASS = 0
EXIT_CRITERION_FAIL = 2
EXIT_CONFIG_ERROR = 3
EXIT_RUNTIME_ERROR = 4


class ConfigError(Exception):
    def __init__(self, errors: Sequence[str]):
        self.errors = list(errors)
        super().__init__("\n".join(self.errors))


class SummaryError(Exception):
    """A summary.json that parses but does not have the shape ``_update_summary`` writes."""


# ---------------------------------------------------------------------------
# config parsing


def _line(node: yaml.Node) -> int:
    return node.start_mark.line + 1


def _compose(path: Path) -> tuple[yaml.Node, str]:
    """The config's YAML node, and the sha256 of the bytes it was read from."""
    try:
        data = path.read_bytes()
        # as a text-mode read would see it: every line break a newline
        text = data.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")
    except (OSError, UnicodeDecodeError) as e:
        raise ConfigError([f"cannot read config: {e}"])
    try:
        node = yaml.compose(text)
    except yaml.YAMLError as e:
        raise ConfigError([f"config syntax error: {e}"])
    if node is None:
        raise ConfigError(["config is empty"])
    return node, hashlib.sha256(data).hexdigest()


# the YAML tags each scalar kind accepts, and how it reads the node; a float
# reads as YAML reads one, so .inf and .nan arrive as floats
_KINDS = {
    "int": ((":int",), lambda node: int(node.value)),
    "float": ((":int", ":float"), yaml.constructor.SafeConstructor().construct_yaml_float),
    "bool": ((":bool",), lambda node: node.value.lower() in ("true", "yes", "on")),
    "str": ((":str",), lambda node: node.value),
}


def _scalar(node: yaml.Node, kind: str, where: str, errors: list[str]):
    if not isinstance(node, yaml.ScalarNode):
        errors.append(f"{where} must be a {kind} (line {_line(node)})")
        return None
    tags, read = _KINDS[kind]
    try:
        if node.tag.endswith(tags):
            return read(node)
    except ValueError:
        pass
    errors.append(f"{where} must be a {kind}, got {node.value!r} (line {_line(node)})")
    return None


def _sequence(node: yaml.Node, kind: str, where: str, errors: list[str]):
    if not isinstance(node, yaml.SequenceNode):
        errors.append(f"{where} must be a list (line {_line(node)})")
        return None
    vals = [_scalar(child, kind, f"{where}[{i}]", errors) for i, child in enumerate(node.value)]
    return None if None in vals else vals


# the default of a key the config must give
_REQUIRED = object()

# the rule of an id list: each entry numbers one of the family's atoms 0..J-1
_ATOM = "atom id"

# the range rules a value can carry, by the word the complaint uses
_RANGES = {
    "positive": lambda v: v > 0,
    "nonnegative": lambda v: v >= 0,
    "at least 1": lambda v: v >= 1,
    "greater than 1": lambda v: v > 1,
    # an AR(1) coefficient with a stationary density
    "inside (-1, 1)": lambda v: -1 < v < 1,
}


def _violation(v, rule: str | None, atoms: int | None) -> str | None:
    """What ``v`` must be and is not under ``rule``; None when it complies.
    Every float must be finite, whatever its rule: a literal such as
    1.0e+400 reads as inf."""
    if isinstance(v, float) and not math.isfinite(v):
        return "finite"
    if rule == _ATOM:
        return None if atoms is None or 0 <= v < atoms else f"an atom id below {atoms}"
    return None if rule is None or _RANGES[rule](v) else rule


class _Section:
    """One mapping section: a key-table reader, raw nodes, and an unknown-key sweep.

    A duplicate key is a complaint citing both lines.  A missing required
    key is a complaint citing ``line``, where the section starts; a section
    that is absent (``node`` None) or not a mapping has already been
    complained about, so its missing keys add nothing.  ``overrides`` (the
    command-line flags) replace keys of the section; a complaint about one
    names the flag where a file value names its line.  ``bad`` holds the
    keys already complained about, whose values read None.
    """

    def __init__(self, node: yaml.Node | None, name: str, errors: list[str],
                 overrides: dict | None = None, line: int | None = None):
        self.name = name
        self.errors = errors
        self.overrides = overrides or {}
        self.line = line
        self.nodes: dict[str, yaml.Node] = {}
        self.lines: dict[str, int] = {}
        self.used: set[str] = set()
        self.bad: set[str] = set()
        self.present = isinstance(node, yaml.MappingNode)
        if node is None:
            return
        if not self.present:
            errors.append(f"section '{name}' must be a mapping (line {_line(node)})")
            return
        for k_node, v_node in node.value:
            key = str(k_node.value)
            if key in self.lines:
                errors.append(
                    f"duplicate key '{key}' at line {self.lines[key]} and line {_line(k_node)}"
                )
                continue
            self.nodes[key] = v_node
            self.lines[key] = _line(k_node)

    def get(self, key: str, kind: str, default=None, rule: str | None = None,
            atoms: int | None = None):
        self.used.add(key)
        where = key if self.name == "top level" else f"{self.name}.{key}"
        listed = kind.endswith("-list")
        if key in self.overrides:
            value, at = self.overrides[key], f"--{key}"
        elif key in self.nodes:
            read = _sequence if listed else _scalar
            value = read(self.nodes[key], kind.removesuffix("-list"), where, self.errors)
            at = f"line {self.lines[key]}"
        elif default is _REQUIRED:
            self._missing(key)
            value = None
        else:
            return default
        if value is not None:
            for i, v in enumerate(value if listed else [value]):
                must = _violation(v, rule, atoms)
                if must is not None:
                    name = f"{where}[{i}]" if listed else where
                    self.errors.append(f"{name} must be {must}, got {v} ({at})")
                    value = None
                    break
        if value is None:
            self.bad.add(key)
        return value

    def _missing(self, key: str) -> None:
        if self.present:
            self.errors.append(
                f"section '{self.name}' is missing key '{key}' (line {self.line})")

    def node(self, key: str, required: bool = False) -> yaml.Node | None:
        """The raw node under ``key``, marked used."""
        self.used.add(key)
        if required and key not in self.nodes and key not in self.overrides:
            self._missing(key)
        return self.nodes.get(key)

    def read(self, table: dict, atoms: int | None = None) -> dict:
        """Every (kind, default, rule) key of ``table``, then the unknown-key sweep."""
        values = {key: self.get(key, *entry, atoms=atoms) for key, entry in table.items()}
        for key, line in self.lines.items():
            if key not in self.used:
                self.errors.append(f"unknown key '{key}' in section '{self.name}' at line {line}")
        return values


@dataclass(frozen=True)
class RunConfig:
    regime: str
    family: dict
    truth: dict
    schedule: RateSchedule
    params: ConditionParams | None
    allow_thin_evidence: bool
    replications: int
    seed: int
    out: str
    jobs: int
    verify: tuple[str, ...]
    subset: tuple[int, ...] | None
    u_set: tuple[int, ...] | None
    sha256: str  # of the config bytes that were parsed


# (kind, default, rule) of every key, per section and, for family and truth,
# per regime.  The first family key lists the atoms, numbered 0..J-1; weights
# default to uniform and the state window to 5 stationary sds of the truth.
_WEIGHTS = ("float-list", None, "positive")
_LOCATION = {"means": ("float-list", _REQUIRED, None), "sd": ("float", 1.0, "positive"),
             "weights": _WEIGHTS}
_FAMILY_KEYS = {
    "iid": _LOCATION,
    "misspecified": _LOCATION,
    "regression": {"slopes": ("float-list", _REQUIRED, None),
                   "design_length": ("int", _REQUIRED, "at least 1"), "weights": _WEIGHTS},
    "markov": {"thetas": ("float-list", _REQUIRED, "inside (-1, 1)"),
               "noise_sd": ("float", 1.0, "positive"),
               "state_window": ("float", None, "positive"),
               "theta0_bound": ("float", 1.0, "nonnegative"), "weights": _WEIGHTS},
}

_TRUTH_KEYS = {
    "iid": {"mean": ("float", _REQUIRED, None), "sd": ("float", 1.0, "positive")},
    "misspecified": {"mean": ("float", _REQUIRED, None), "sd": ("float", 1.0, "positive"),
                     "projection_id": ("int", _REQUIRED, _ATOM)},
    "regression": {"slope": ("float", _REQUIRED, None)},
    "markov": {"theta": ("float", _REQUIRED, "inside (-1, 1)")},
}

_SCHEDULE_KEYS = {
    "n_values": ("int-list", _REQUIRED, "at least 1"),
    "a": ("float", 1.0, "positive"),
    "gamma": ("float", 1.0 / 3.0, None),
    "kappa": ("float", 0.0, None),
}

_PARAMS_KEYS = {
    "C": ("float", 0.0, "nonnegative"),
    "c": ("float", None, "positive"),
    "d": ("float", None, "positive"),
    "r": ("float", None, "positive"),
    "beta": ("float", None, "greater than 1"),
    "M": ("float", None, "positive"),
    "allow_thin_evidence": ("bool", False, None),
}

# the top-level keys besides regime, the four sections and verify
_TOP_KEYS = {
    "replications": ("int", 200, "at least 1"),
    "seed": ("int", _REQUIRED, "nonnegative"),
    "out": ("str", "out", None),
    "jobs": ("int", 1, "at least 1"),
    "subset": ("int-list", None, _ATOM),
    "u_set": ("int-list", None, _ATOM),
}


def parse_config(path: str | Path, overrides: dict | None = None) -> RunConfig:
    """Validate the whole file; raises ConfigError carrying every complaint.

    ``overrides`` replaces top-level values (the command-line flags:
    ``out``, ``seed``, ``jobs``, ``verify``) before the value checks run, so
    a flag is held to the same rules as the file.
    """
    errors: list[str] = []
    overrides = overrides or {}
    root, sha256 = _compose(Path(path))
    top = _Section(root, "top level", errors, overrides, _line(root))

    regime = top.get("regime", "str", _REQUIRED)
    if regime is not None and regime not in REGIMES:
        errors.append(
            f"unknown regime {regime!r} at line {top.lines['regime']}; "
            f"expected one of {', '.join(REGIMES)}"
        )
        regime = None

    family: dict = {}
    truth: dict = {}
    atoms = None
    fam_node = top.node("family", required=True)
    truth_node = top.node("truth", required=True)
    if regime is not None:
        fam_sec = _Section(fam_node, "family", errors, line=top.lines.get("family"))
        family = fam_sec.read(_FAMILY_KEYS[regime])
        first = next(iter(_FAMILY_KEYS[regime]))
        if family[first] == []:
            errors.append(f"family.{first} must list at least one atom "
                          f"(line {fam_sec.lines[first]})")
            family[first] = None
        atoms = None if family[first] is None else len(family[first])
        truth_sec = _Section(truth_node, "truth", errors, line=top.lines.get("truth"))
        truth = truth_sec.read(_TRUTH_KEYS[regime], atoms)
        if regime in ("iid", "misspecified"):
            lines = {f"{s.name}.{k}": n for s in (fam_sec, truth_sec) for k, n in s.lines.items()}
            errors += [f"{text} (line {lines.get(key)})" for key, text in location_faults(
                default_grid(), family["means"], family["sd"], truth["mean"], truth["sd"],
                truth.get("projection_id"))]

    sched_node = top.node("schedule", required=True)
    sched_sec = _Section(sched_node, "schedule", errors, line=top.lines.get("schedule"))
    sched = sched_sec.read(_SCHEDULE_KEYS)
    schedule = None
    if not sched_sec.bad:
        # the schedule's own conditions tie keys together: increasing n,
        # decreasing epsilon and increasing n * epsilon^2
        try:
            schedule = RateSchedule(**sched)
        except GeometryError as e:
            errors.append(f"invalid schedule: {e} (line {top.lines['schedule']})")
    length = family.get("design_length")
    if schedule is not None and length is not None and schedule.n_values[-1] > length:
        errors.append(
            f"schedule runs to n = {schedule.n_values[-1]}, past family.design_length = "
            f"{length} (line {fam_sec.lines['design_length']})"
        )

    params_node = top.node("params")
    params_sec = _Section(params_node, "params", errors)
    constants = params_sec.read(_PARAMS_KEYS)
    allow_thin = constants.pop("allow_thin_evidence")
    c, C = constants["c"], constants["C"]
    if c is not None and C is not None and not c > C + 1.0 and not allow_thin:
        errors.append(
            f"params.c = {c} does not exceed C + 1 = {C + 1.0} "
            f"(line {params_sec.lines['c']}); the evidence lower bound needs "
            "the thickness margin, or set allow_thin_evidence: true for a diagnostic run"
        )

    verify_node = top.node("verify", required=True)
    verify, verify_at = None, []
    if verify_node is not None:
        names = _sequence(verify_node, "str", "verify", errors)
        if names is not None:
            verify = tuple(names)
            verify_at = [f"at line {_line(node)}" for node in verify_node.value]
    if "verify" in overrides:
        verify, verify_at = overrides["verify"], ["in --verify"] * len(overrides["verify"])
    if verify == ():
        errors.append("verify must select at least one verification")

    values = top.read(_TOP_KEYS, atoms)

    weights = family.get("weights")
    if weights is not None and atoms is not None and len(weights) != atoms:
        errors.append(f"family.weights has {len(weights)} entries for {atoms} atoms")

    first_at: dict[str, str] = {}
    for name, at in zip(verify or (), verify_at):
        if name in first_at:
            errors.append(f"duplicate verification {name!r} {first_at[name]} and {at}")
            continue
        first_at[name] = at
        spec = VERIFICATIONS.get(name)
        if spec is None:
            errors.append(f"unknown verification {name!r} {at}")
            continue
        for const in spec.needs:
            if constants[const] is None and const not in params_sec.bad:
                errors.append(f"verification '{name}' needs params.{const} to be set")
        if spec.needs_subset and not values["subset"] and "subset" not in top.bad:
            errors.append(f"verification '{name}' needs a top-level subset list")

    if errors:
        raise ConfigError(errors)
    for ids in ("subset", "u_set"):
        values[ids] = tuple(values[ids]) if values[ids] else None
    return RunConfig(
        regime=regime,
        family=family,
        truth=truth,
        schedule=schedule,
        params=ConditionParams(**constants) if params_node is not None else None,
        allow_thin_evidence=allow_thin,
        verify=verify,
        sha256=sha256,
        **values,
    )


# ---------------------------------------------------------------------------
# regime construction


def build_regime(cfg: RunConfig):
    fam, truth = cfg.family, cfg.truth
    if cfg.regime in ("iid", "misspecified"):
        grid = default_grid()
        members = build_gaussian_location_family(grid, fam["means"], sd=fam["sd"])
    elif cfg.regime == "regression":
        members = [
            FamilyMember(j, REGRESSION, linear_regression_function(s, fam["design_length"]))
            for j, s in enumerate(fam["slopes"])
        ]
    else:
        members = [
            FamilyMember(j, MARKOV, MarkovParam(t, noise_sd=fam["noise_sd"]))
            for j, t in enumerate(fam["thetas"])
        ]
    weights = fam["weights"]
    prior = AtomicPrior(members, weights) if weights else uniform_prior(members)
    if cfg.regime == "iid":
        return IidRegime(prior, gaussian_density(grid, truth["mean"], truth["sd"]))
    if cfg.regime == "misspecified":
        return MisspecifiedRegime(MisspecifiedSetup(
            prior=prior, true_density=gaussian_density(grid, truth["mean"], truth["sd"]),
            projection_id=truth["projection_id"],
        ))
    if cfg.regime == "regression":
        return RegressionRegime(
            prior, linear_regression_function(truth["slope"], fam["design_length"])
        )
    return MarkovRegime(
        prior, MarkovParam(truth["theta"], noise_sd=fam["noise_sd"]),
        state_window=fam["state_window"], theta0_bound=fam["theta0_bound"],
    )


# ---------------------------------------------------------------------------
# CSV output


def _fmt(v) -> str:
    if isinstance(v, bool) or isinstance(v, np.bool_):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return f"{float(v):.17g}"
    return str(v)


def write_csv(path: Path, columns: Sequence[str], units: Sequence[str],
              statistic: str, seed: int, rows) -> None:
    """Self-describing CSV: header comments, then data at 17 significant digits."""
    if len(columns) != len(units):
        raise ValueError("columns and units must align")
    lines = [
        "# columns: " + ", ".join(columns),
        "# units: " + ", ".join(units),
        "# statistic: " + statistic,
        f"# seed: {seed}",
        ",".join(columns),
    ]
    for row in rows:
        if len(row) != len(columns):
            raise ValueError("row width does not match columns")
        lines.append(",".join(_fmt(v) for v in row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def _record(name: str, seed: int, out: Path, rows) -> None:
    """Write the verification's CSV as its table entry describes it."""
    spec = VERIFICATIONS[name]
    extra = spec.optional[: len(rows[0]) - len(spec.columns)] if rows else ()
    write_csv(out / spec.csv, spec.columns + tuple(col for col, _ in extra),
              spec.units + tuple(unit for _, unit in extra), spec.statistic, seed, rows)


# ---------------------------------------------------------------------------
# verification runners: each takes (cfg, regime, selected) and returns
# {name: (rows, passed, detail)} for the selected names alone; only _main
# writes, once every selected verification has run


def _markov_split(data):
    if isinstance(data, np.ndarray):
        return data, None
    return data.y, data.y0


def _factorization(cfg: RunConfig, regime):
    n_check = min(40, cfg.schedule.n_values[-1])
    data = generate_data(regime, n_check, cfg.seed)
    y_seq, y0 = _markov_split(data)
    report = inference.factorization_check(
        regime.prior, [float(y) for y in y_seq], reference=regime.reference, y0=y0
    )
    rows = [(n_check, report.log_joint_direct, report.log_joint_factored, report.abs_diff)]
    return rows, report.abs_diff < 1e-9, f"abs diff {report.abs_diff:.3g} over {n_check} steps"


def _conditional_identity(cfg: RunConfig, regime):
    n_check = min(25, cfg.schedule.n_values[-1])
    data = generate_data(regime, n_check, cfg.seed)
    y_seq, y0 = _markov_split(data)
    state = inference.initial_state(regime.prior, regime.reference, y0=y0)
    rows = []
    worst = 0.0
    for i, y in enumerate(y_seq, start=1):
        report = inference.conditional_sqrt_ratio_identity(state, member_ids=cfg.subset)
        diff = abs(report.lhs - report.rhs)
        worst = max(worst, diff)
        rows.append((i, report.lhs, report.rhs, diff))
        state = inference.update(state, float(y))
    return rows, worst < 1e-9, f"max abs diff {worst:.3g} over {n_check} steps"


def _thickness(cfg: RunConfig, regime):
    records = thickness_records(regime, cfg.schedule)
    fitted = fitted_thickness_constant(records)
    rows = [(r.n, r.epsilon, r.neighborhood_mass, r.implied_c) for r in records]
    passed = math.isfinite(fitted)
    return rows, passed, f"fitted C = {fitted:.6g}" if passed else "empty divergence neighborhood"


def _separation(cfg: RunConfig, regime):
    rows, failure = [], ""
    for n, delta, cert in certify_schedule(regime, cfg.subset, cfg.params.d, cfg.schedule):
        if isinstance(cert, SubsetNotAdmissibleError):
            failure = str(cert)
            rows.append((n, delta, math.nan, math.nan, False))
        else:
            rows.append((n, delta, cert.vertex.min_gap, cert.hull_gap_bound, True))
    return rows, not failure, failure or f"certified at all {len(rows)} schedule points"


def _run_checks(cfg: RunConfig, regime, selected: Sequence[str]) -> dict:
    """Every selected exact identity and geometry certification, each on its own."""
    checks = {
        "factorization": _factorization,
        "conditional-identity": _conditional_identity,
        "thickness": _thickness,
        "separation": _separation,
    }
    return {name: checks[name](cfg, regime) for name in selected}


def _cesaro_rows(cfg: RunConfig, records):
    mean, se = mean_and_se(records, "cesaro_kl")
    med = stat_quantile(records, "cesaro_kl", 0.5)
    ns = cfg.schedule.n_values
    slope = math.nan
    try:
        slope = fit_rate(ns, mean, epsilons=cfg.schedule.epsilons).slope
    except ExperimentError:
        pass
    rows = [(n, cfg.schedule.epsilon(n), mean[k], se[k], med[k]) for k, n in enumerate(ns)]
    detail = f"median path {med[0]:.4g} -> {med[-1]:.4g}, mean log-log slope {slope:.3g}"
    return rows, bool(np.all(np.diff(med) < 0.0)), detail


def _numerator_rows(report):
    rows = [(n, report.empirical_mean[k], report.std_error[k], report.bound[k])
            for k, n in enumerate(report.n_values)]
    worst = float(np.max(report.empirical_mean - report.bound))
    detail = f"d = {report.d}, implied C = {report.implied_c:.4g}, worst margin {worst:.3g}"
    return rows, report.passed, detail


def _evidence_rows(report):
    rows = [(n, report.thresholds[k], report.fractions[k]) for k, n in enumerate(report.n_values)]
    passed = bool(report.fractions[-1] <= 0.1 and report.trend_slope <= 1e-12)
    detail = f"final fraction {report.fractions[-1]:.4g}, trend slope {report.trend_slope:.3g}"
    return rows, passed, detail


def _posterior_mass_rows(cfg: RunConfig, report):
    u = report.u_medians
    rows = [(n, cfg.schedule.epsilon(n), len(report.b_sets[k]), report.medians[k],
             report.upper_quartiles[k]) + (() if u is None else (u[k],))
            for k, n in enumerate(report.n_values)]
    # the far set grows as the rate shrinks, so the median path need not be
    # monotone step to step; the claim is decay overall and at the cap
    final_ok = report.medians[-1] < 0.05
    trend_ok = report.medians[0] == 0.0 or report.medians[-1] <= report.medians[0]
    detail = f"median far mass {report.medians[0]:.4g} -> {report.medians[-1]:.4g}"
    return rows, bool(final_ok and trend_ok), detail


def _run_simulations(cfg: RunConfig, regime, selected: Sequence[str]) -> dict:
    """Every selected Monte Carlo verification's (rows, passed, detail), from
    one replication pass.

    The preconditions run first, in the order listed; a refusal is that
    verification's failed criterion, with no rows.  The others read one pass
    that collects the union of their statistics.
    """
    plan = ExperimentPlan(regime=regime, schedule=cfg.schedule, replications=cfg.replications,
                          seed=cfg.seed, collect=(), subset_ids=cfg.subset, u_set=cfg.u_set,
                          params=cfg.params)
    implied = math.nan
    if {"numerator-bound", "evidence-bound"} & set(selected):
        implied = fitted_thickness_constant(thickness_records(regime, cfg.schedule))
    ready, refused = {}, {}
    for name, precondition in {
        "cesaro": lambda: None,
        "numerator-bound": lambda: certify_numerator(plan, implied),
        "evidence-bound": lambda: check_evidence_thickness(
            plan, implied, enforce_thickness=not cfg.allow_thin_evidence),
        "posterior-mass": lambda: concentration_sets(regime, cfg.schedule, cfg.params.M),
    }.items():
        if name in selected:
            try:
                ready[name] = precondition()
            except PreconditionError as e:
                refused[name] = str(e)
    stats = tuple(dict.fromkeys(key for name in ready for key in VERIFICATIONS[name].stats
                                if key != "u_mass" or cfg.u_set is not None))
    plan = plan.collecting(stats, b_sets=ready.get("posterior-mass"))
    records = run_replications(plan, jobs=cfg.jobs) if stats else []
    rows_of = {
        "cesaro": lambda: _cesaro_rows(cfg, records),
        "numerator-bound": lambda: _numerator_rows(numerator_report(plan, records, implied)),
        "evidence-bound": lambda: _evidence_rows(evidence_report(plan, records)),
        "posterior-mass": lambda: _posterior_mass_rows(cfg, concentration_report(plan, records)),
    }
    return {name: ([], False, refused[name]) if name in refused else rows_of[name]()
            for name in selected}


def _run_cover_and_sieve(cfg: RunConfig, regime, selected: Sequence[str]) -> dict:
    """The selected of cover and sieve, as (rows, passed, detail).

    The cover is built at every schedule point either way, since the sieve
    is built from its balls; the sieve only when it is selected, as only it
    reads beta, r and c.
    """
    p = cfg.params
    cover_rows, sieve_rows, notes = [], [], []
    cover_ok = sieve_ok = True
    for n, far in zip(cfg.schedule.n_values, concentration_sets(regime, cfg.schedule, p.M)):
        eps = cfg.schedule.epsilon(n)
        radius = p.M * eps / 2.0
        if not far:
            cover_rows.append((n, eps, radius, 0, 0, True))
            notes.append(f"n={n}: empty far set")
            continue
        balls = greedy_cover(far, radius, lambda a, b: regime.pair_dist(a, b, n))
        all_covered = set().union(*(b.member_ids for b in balls)) == set(far)
        cover_ok = cover_ok and all_covered
        cover_rows.append((n, eps, radius, len(far), len(balls), all_covered))
        if "sieve" not in selected:
            continue
        sieve = build_sieve_from_cover(balls, regime.prior, p.beta, p.r, p.c, n, eps)
        sieve_ok = sieve_ok and (
            sieve.mass_bound_max_violation <= 1e-12
            and sieve.complement_mass <= sieve.tail_bound + sieve.uncovered_mass + 1e-12
        )
        sieve_rows.append(
            (n, eps, len(balls), sieve.j_n, sieve.exhausted, sieve.s_n,
             sieve.complement_mass, sieve.uncovered_mass, sieve.tail_bound,
             sieve.mass_bound_max_violation, sieve.log_j_requested,
             sieve.log_j_bound, sieve.log_j_ok)
        )
    cover_detail = "; ".join(notes) if notes else "all far atoms covered at every n"
    if sieve_rows:
        sieve_detail = f"max per-index violation {max(r[9] for r in sieve_rows):.3g}"
    else:
        sieve_detail = "no nonempty far set on this schedule"
    results = {"cover": (cover_rows, cover_ok, cover_detail),
               "sieve": (sieve_rows, sieve_ok, sieve_detail)}
    return {name: results[name] for name in selected}


_RUNNERS = {"check": _run_checks, "simulate": _run_simulations, "sieve": _run_cover_and_sieve}


# ---------------------------------------------------------------------------
# summary bookkeeping


def _read_summary(path: Path) -> dict:
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise SummaryError(f"corrupt {path}: {e}") from None
    entries = data.get("verifications") if isinstance(data, dict) else None
    if not (
        isinstance(entries, dict)
        and type(data.get("seed")) is int
        and all(isinstance(e, dict) and "passed" in e for e in entries.values())
    ):
        raise SummaryError(
            f'malformed {path}: expected {{"seed": int, "verifications": '
            f'{{name: {{"passed": ...}}}}}}'
        )
    return data


def _update_summary(out: Path, data: dict, seed: int, config: str, results: dict) -> None:
    """Merge {name: (rows, passed, detail)} into ``data``, the summary read
    before the run wrote anything, and write it as summary.json; another
    seed or config sha256 starts it over."""
    path = out / "summary.json"
    if (data.get("seed"), data.get("config")) != (seed, config):
        data = {"seed": seed, "config": config, "verifications": {}}
    for name, (_, passed, detail) in results.items():
        data["verifications"][name] = {
            "passed": bool(passed),
            "detail": detail,
            "csv": VERIFICATIONS[name].csv,
        }
    path.write_text(json.dumps(data, sort_keys=True, indent=2) + "\n", encoding="utf-8",
                    newline="\n")


def _report(out: Path) -> int:
    path = out / "summary.json"
    if not path.exists():
        print(f"no summary.json under {out}; run check/simulate/sieve first", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    data = _read_summary(path)
    entries = sorted(data["verifications"].items())
    if not entries:
        print("summary.json lists no verifications", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    rows = [
        (name, entry["passed"], entry.get("detail", ""), entry.get("csv", ""))
        for name, entry in entries
    ]
    write_csv(
        out / "summary.csv",
        ["verification", "passed", "detail", "csv"],
        ["name", "flag", "text", "filename"],
        "aggregated pass/fail state of every verification recorded in this directory",
        data["seed"],
        rows,
    )
    all_passed = all(r[1] for r in rows)
    for name, passed, detail, _ in rows:
        print(f"{name}: {'pass' if passed else 'FAIL'} ({detail})")
    print(f"wrote {out / 'summary.csv'}")
    return EXIT_PASS if all_passed else EXIT_CRITERION_FAIL


# ---------------------------------------------------------------------------
# entry point


def _build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bayesrates",
        description="Sequential-inference bound verification laboratory",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for cmd, blurb in (
        ("check", "exact identities and geometry certifications"),
        ("simulate", "Monte Carlo bound verifications"),
        ("sieve", "covering and sieve construction report"),
        ("report", "aggregate recorded results into a summary table"),
    ):
        sp = sub.add_parser(cmd, help=blurb)
        sp.add_argument("--config", required=(cmd != "report"), help="path to the YAML plan")
        sp.add_argument("--out", help="output directory (overrides config)")
        sp.add_argument("--seed", type=int, help="seed override")
        sp.add_argument("--jobs", type=int, help="replication worker threads")
        sp.add_argument("--verify", help="comma-separated verification subset override")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_arg_parser().parse_args(argv)
    # config faults are reported as exit 3 inside; what escapes is a fault of
    # the run itself: an output file, a recorded summary, or the numerics.
    # A NaN, an infinity or a division by zero raises; underflow in the
    # Gaussian tails is expected and stays silent.
    try:
        with np.errstate(divide="raise", invalid="raise", over="raise", under="ignore"):
            return _main(args)
    except (ModelError, GeometryError, DivergenceError, ExperimentError,
            OSError, SummaryError, FloatingPointError) as e:
        print(f"runtime error: {e}", file=sys.stderr)
        return EXIT_RUNTIME_ERROR


def _main(args: argparse.Namespace) -> int:
    if args.command == "report" and args.config is None:
        return _report(Path(args.out or "out"))

    overrides = {
        key: value
        for key, value in (("out", args.out), ("seed", args.seed), ("jobs", args.jobs))
        if value is not None
    }
    if args.verify is not None:
        overrides["verify"] = tuple(s.strip() for s in args.verify.split(",") if s.strip())
    try:
        cfg = parse_config(args.config, overrides)
    except ConfigError as e:
        for msg in e.errors:
            print(f"config error: {msg}", file=sys.stderr)
        return EXIT_CONFIG_ERROR

    out = Path(cfg.out)
    if args.command == "report":
        return _report(out)
    try:
        regime = build_regime(cfg)
    except (ModelError, GeometryError, DivergenceError, ExperimentError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG_ERROR

    selected = [v for v in cfg.verify if VERIFICATIONS[v].command == args.command]
    if not selected:
        print(f"nothing to do: no selected verification belongs to '{args.command}'")
        return EXIT_PASS

    results = _RUNNERS[args.command](cfg, regime, selected)
    # a summary that cannot be read is refused before anything is written
    summary = _read_summary(out / "summary.json") if (out / "summary.json").exists() else {}
    try:
        out.mkdir(parents=True, exist_ok=True)
    except (OSError, UnicodeEncodeError) as e:  # the path may not fit the locale's encoding
        raise OSError(f"cannot create output directory {out}: {e}") from e
    for name, (rows, _, _) in results.items():
        _record(name, cfg.seed, out, rows)
    _update_summary(out, summary, cfg.seed, cfg.sha256, results)
    for name, (_, passed, detail) in results.items():
        print(f"{name}: {'pass' if passed else 'FAIL'} ({detail})")
    return EXIT_PASS if all(passed for _, passed, _ in results.values()) else EXIT_CRITERION_FAIL


if __name__ == "__main__":
    sys.exit(main())
