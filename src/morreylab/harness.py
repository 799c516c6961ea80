"""Experiment runner: empirical best-constant estimation for the inequalities.

Every experiment draws seeded nonnegative random inputs (cellwise uniform,
plus tall structured spikes with probability 1/4), computes the left- and
right-hand quantities of one inequality through the other modules, and
records the ratio.  The hypothesis constants are never explicit in the
theory, so acceptance is finiteness and stability of empirical ratios: a
growth study re-runs the same coarse-drawn inputs on windows refined by one
(or more) levels and summarizes the max-ratio growth factor per refinement.

run_experiment owns the loop over the refinement stages: it asks the
experiment's runner for the work of one stage, makes every row and sums the
violation counts.  Runners are grouped by the shape of their inequality:

- strong type, |T(f, g) v|_{s,t} <= C [prod |b_i|_BMO] RHS(p; q1, q2): one
  runner for T21-T24 (bilinear integral and its commutators), T28/T29
  (dyadic maximal operator) and COR_BH (bilinear maximal function); the
  weight condition of the constant fixes the exponent regime;
- maximal control (T25/T26): Morrey norms of the integral or commutator
  against those of the maximal operator;
- weak type (T27_*): the weak Morrey functional on a base cube;
- power weights (SW101), with its balance identity recorded;
- invariant checks (JN, CZ_INV, BH_DOM, L39), which also yield violation
  counts.

Determinism contract: identical (config, seed) give identical reports byte
for byte.  Inputs are drawn on the coarsest window and prolonged to refined
windows, so growth factors reflect the operators, not fresh randomness.
Each trial draws from its own streams and every runner but JN and L39 takes
them in batched chunks (_stage_chunks; CZ_INV and `morreylab decompose` then
take unbatched slices), so the rows, in trial-index order, do not depend on
the chunking.

Config files are flat UTF-8 ``key = value`` lines, arrays as comma lists,
``#`` comments allowed.  The key table (_COMMON, _EXPERIMENT_KEYS) holds each
experiment's keys and defaults: cfg.params has every one, typed, and no other
(docs/config.md).  docs/experiments.md is the per-experiment LHS/RHS manifest.
"""

from __future__ import annotations

import json
import math
import statistics
from dataclasses import asdict, dataclass, field, replace
from types import MappingProxyType
from typing import Mapping

import numpy as np

from ._version import __version__ as _VERSION
from .czd import Decomposition, cz_decompose, cz_decompose_alpha, necessity_pair, verify_decomposition
from .dyadic import Cube, Window
from .errors import ValidationError
from .exponents import INF, ExponentSet, build, solve_q, solve_st, solve_weak_t, validate
from .field import (
    DEFAULT_DEPTH,
    LatticeFunction,
    Weight,
    _oscillation_ratios,
    _radii,
    bmo_norm,
    expand_level,
    from_csv,
    level_means,
    power_weight,
)
from .maximal import m_alpha_r
from .operators import CommutatorSpec, bh_maximal, bilinear_fractional, bt_alpha, commutator_iterated
from .weights_norms import (
    WeightConditionKind,
    lemma39_check,
    morrey_norm,
    rhs_bilinear_morrey,
    rhs_bilinear_morrey_from,
    two_weight_constant,
    weak_morrey_functional,
)

# -- config keys: each maps to its default, _REQUIRED, None (the runner derives the value) or
# a value, whose type parses the key's text: float (not nan), int, tuple (a comma list of
# ints) or str.  A required or derived key is a float unless _NOT_FLOAT names its type.
_REQUIRED = object()
_NOT_FLOAT = {"origin_offset": tuple, "beta_pattern": tuple, "q0_index": tuple,
              "qprime_index": tuple, "q0_level": int, "qprime_level": int}

# the window, the draws and the quadrature depth, read for every experiment
_COMMON = {"dim": 1, "level_min": -4, "level_max": 0, "origin_offset": None, "top_count": 2,
           "trials": 20, "seed": 0, "refinements": (0,), "depth": DEFAULT_DEPTH}
# the keys of _exponent_set; _MAXIMAL's alpha, of the T27 and T28 regimes, defaults to 0
_EXPONENTS = {"alpha": _REQUIRED, "q1": _REQUIRED, "q2": _REQUIRED, "p": _REQUIRED, "r": INF,
              "a": None, "r1": None, "r2": None}
_WEIGHTS = {"weight_v": "const:1", "weight_w1": "const:1", "weight_w2": "const:1"}
_Q0 = {"q0_level": None, "q0_index": None}
_SYMBOLS = {"n_symbols": 2, "beta_pattern": None}
_CONTROL = {"p": _REQUIRED, "q": _REQUIRED, "alpha": _REQUIRED, "r1": 2.0, "r2": 2.0,
            "weight_w": "const:1"}
_MAXIMAL = {**_EXPONENTS, "alpha": 0.0}

# experiment -> {key: default} of every key besides _COMMON that its runner reads; a config
# may set no other key
_EXPERIMENT_KEYS = {
    **dict.fromkeys(("T21", "T22"), {**_EXPONENTS, **_WEIGHTS}),
    **dict.fromkeys(("T23", "T24"), {**_EXPONENTS, **_WEIGHTS, **_SYMBOLS}),
    "T25": _CONTROL,
    "T26": {**_CONTROL, **_SYMBOLS, "vartheta1": 1.25, "vartheta2": 1.25},
    "T27_sufficiency": {**_MAXIMAL, **_WEIGHTS, **_Q0},
    "T27_necessity": {**_MAXIMAL, **_WEIGHTS, **_Q0, "qprime_level": None, "qprime_index": None},
    **dict.fromkeys(("T28", "COR_BH"), {**_MAXIMAL, **_WEIGHTS}),
    "T29": {**_MAXIMAL, "weight_u1": "const:1", "weight_u2": "const:1"},
    "SW101": {"alpha": _REQUIRED, "beta": 0.0, "gamma1": 0.0, "gamma2": 0.0, "q1": _REQUIRED,
              "q2": _REQUIRED, "p1": _REQUIRED, "p2": _REQUIRED, "r": INF},
    "JN": {},
    "CZ_INV": {**_Q0, "theta1": 2.0, "theta2": 2.0, "r1": 2.0, "r2": 2.0, "alpha": 0.5},
    "BH_DOM": {},
    "L39": {"q1": 2.0, "q2": 2.0, "t_hat": None, "weight_w1": "const:1", "weight_w2": "const:1"},
}
# the keys that `morreylab decompose` reads besides CZ_INV's
_DECOMPOSE_KEYS = {"kind": "cz"}
_KEYS = {"experiment"}.union(_COMMON, _DECOMPOSE_KEYS, *_EXPERIMENT_KEYS.values())


_PARSERS = {float: float, int: int, str: str,
            tuple: lambda text: tuple(int(v) for v in text.split(",") if v.strip())}


def _parse(key: str, text: str, default):
    kind = _NOT_FLOAT.get(key, float) if default is None or default is _REQUIRED else type(default)
    try:
        value = _PARSERS[kind](text)
    except ValueError:
        value = math.nan
    if value != value:  # no parse, or nan
        raise ValidationError(f"cannot parse value for {key!r}: {text!r}")
    return value


# The largest depth a config may set.
_MAX_DEPTH = 256
# In dim >= 2 each level of the quadrature's origin chain halves the boxes, so at depth d the
# smallest leaf midpoint is h 2^(-d-1) for cells of side h.  2.0 ** k squares to a nonzero
# float only for k >= _MIN_LEAF_EXP (2^-1074 is the least subnormal); below it |x|^gamma with
# gamma < 0 raises ZeroDivisionError at the origin.
_MIN_LEAF_EXP = -537


@dataclass(frozen=True)
class ExperimentConfig:
    """Parsed experiment description (params read-only); raw pairs are echoed into reports."""

    experiment: str
    window: Window
    trials: int
    seed: int
    refinements: tuple[int, ...]
    params: Mapping
    raw: tuple

    def window_at(self, stage: int) -> Window:
        return replace(self.window, level_min=self.window.level_min - stage)


def parse_config(text: str, extra: Mapping | None = None) -> ExperimentConfig:
    """Parse the flat key = value grammar into an ExperimentConfig (see config_from_pairs)."""
    pairs: list[tuple[str, str]] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ValidationError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, val = stripped.split("=", 1)
        pairs.append((key.strip(), val.strip()))
    return config_from_pairs(pairs, extra)


def config_from_pairs(pairs, extra: Mapping | None = None) -> ExperimentConfig:
    """The config of (key, value) text pairs.  Its experiment's keys (_COMMON, then
    _EXPERIMENT_KEYS, then a command's extra {key: default}) are the only keys it may set;
    params holds every one of them, parsed or defaulted."""
    given: dict[str, str] = {}
    for key, val in pairs:
        if key not in _KEYS:
            raise ValidationError(f"unknown key {key!r}")
        if key in given:
            raise ValidationError(f"duplicate key {key!r}")
        given[key] = str(val).strip()
    experiment = given.pop("experiment", None)
    if experiment is None:
        raise ValidationError("missing key 'experiment'")
    if experiment not in EXPERIMENTS:
        raise ValidationError(f"unknown experiment {experiment!r}; expected one of {EXPERIMENTS}")
    table = {**_COMMON, **_EXPERIMENT_KEYS[experiment], **(extra or {})}
    bad = [f"{experiment} does not read key {k!r}" for k in sorted(given.keys() - table.keys())]
    bad += [f"missing required key {k!r} for {experiment}"
            for k, default in table.items() if default is _REQUIRED and k not in given]
    if bad:
        raise ValidationError(bad)
    params = {k: _parse(k, given[k], d) if k in given else d for k, d in table.items()}
    try:
        window = Window(*(params[k] for k in ("dim", "level_min", "level_max", "origin_offset",
                                              "top_count")))
    except ValueError as exc:
        raise ValidationError(f"bad window: {exc}") from exc
    refinements, depth = params["refinements"], params["depth"]
    if not refinements or any(r < 0 for r in refinements) or len(set(refinements)) < len(refinements):
        raise ValidationError(
            f"refinements must be distinct nonnegative level decrements; got {refinements}")
    if params["trials"] < 1:
        raise ValidationError("trials must be >= 1")
    if "n_symbols" in params and params["n_symbols"] < 1:
        raise ValidationError(f"n_symbols must be >= 1; got {params['n_symbols']}")
    if not 0 <= depth <= _MAX_DEPTH:
        raise ValidationError(f"depth must be in 0..{_MAX_DEPTH}; got {depth}")
    finest = window.level_min - max(refinements)
    if window.dim >= 2 and finest - depth - 1 < _MIN_LEAF_EXP:
        raise ValidationError(
            f"depth {depth} is too deep for {window.dim}-D cells of side 2^{finest}: the "
            f"quadrature's leaf midpoints 2^{finest - depth - 1} square to 0.0 "
            f"(depth must be <= {finest - 1 - _MIN_LEAF_EXP})")
    raw = tuple(sorted([(k, str(v)) for k, v in pairs]))
    return ExperimentConfig(experiment=experiment, window=window, trials=params["trials"],
                            seed=params["seed"], refinements=refinements,
                            params=MappingProxyType(params), raw=raw)


@dataclass
class Report:
    """Per-trial rows plus a deterministic summary."""

    experiment: str
    columns: tuple[str, ...]
    rows: list = field(default_factory=list)
    summary: dict = field(default_factory=dict)


_COLUMNS = ("refinement", "level_min", "level_max", "trial", "lhs", "rhs", "ratio", "input")


def _ratio(lhs: float, rhs: float) -> float:
    if rhs > 0.0:
        return lhs / rhs
    return 0.0 if lhs == 0.0 else INF


def _row(stage: int, window: Window, trial: int, lhs: float, rhs: float, label: str) -> dict:
    return {
        "refinement": stage,
        "level_min": window.level_min,
        "level_max": window.level_max,
        "trial": trial,
        "lhs": float(lhs),
        "rhs": float(rhs),
        "ratio": _ratio(float(lhs), float(rhs)),
        "input": label,
    }


# -- random inputs -------------------------------------------------------------


def _rng(cfg: ExperimentConfig, *streams: int) -> np.random.Generator:
    """The generator of default_rng([cfg.seed, *streams]), built without its argument checks:
    a sweep makes one per trial."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([cfg.seed, *streams])))


def _draw_values(rng: np.random.Generator, window: Window) -> np.ndarray:
    vals = rng.uniform(0.05, 1.0, window.shape)
    if rng.random() < 0.25:
        for _ in range(int(rng.integers(1, 4))):
            idx = tuple(int(rng.integers(0, window.cells_per_axis)) for _ in range(window.dim))
            vals[idx] *= 10.0 ** rng.uniform(1.0, 3.0)
    return vals


def _drawn(cfg: ExperimentConfig, trial: int, n_sym: int = 0) -> list[np.ndarray]:
    """The trial's f and g, then n_sym BMO symbols, drawn on the base window."""
    rng = _rng(cfg, 1, trial)
    out = [_draw_values(rng, cfg.window), _draw_values(rng, cfg.window)]
    rng = _rng(cfg, 2, trial) if n_sym else None
    return out + [rng.uniform(-1.0, 1.0, cfg.window.shape) for _ in range(n_sym)]


# Cells per batched array of a stage chunk: larger chunks take fewer Python-level
# steps per trial, but raise the peak resident size of a run.
_BATCH_CELLS = 1 << 14


def _stage_chunks(cfg: ExperimentConfig, window: Window, n_sym: int = 0,
                  n_trials: int | None = None):
    """Yield (trials, f, g, symbols) per chunk of at most _BATCH_CELLS cells per array:
    f, g and each symbol batch the chunk's trials as _drawn draws them, prolonged to window
    (a refinement of the base window).  The trials are 0 .. n_trials - 1 (default: all of
    cfg.trials).  expand_level repeats each batch entry, so slice i holds trial i's bits."""
    per, base = max(1, _BATCH_CELLS // window.n_cells), cfg.window.level_min
    n_trials = cfg.trials if n_trials is None else n_trials
    for start in range(0, n_trials, per):
        trials = range(start, min(start + per, n_trials))
        f, g, *symbols = (LatticeFunction(window, expand_level(np.stack(v), window, base))
                          for v in zip(*(_drawn(cfg, t, n_sym) for t in trials)))
        yield trials, f, g, symbols


def _make_weight(spec: str, window: Window, depth: int = DEFAULT_DEPTH) -> Weight:
    kind, _, arg = str(spec).partition(":")
    if kind == "pow":
        return power_weight(float(arg), window, depth=depth)
    if kind == "const":
        return Weight.constant(window, float(arg))
    if kind == "csv":
        f = from_csv(arg)
        if f.window != window:
            raise ValidationError(
                f"CSV weight window {f.window} does not match the stage window {window}; "
                "csv weights require refinements = 0")
        return Weight(window, f.values)
    raise ValidationError(f"unknown weight spec {spec!r} (use pow:<g>, const:<c>, csv:<path>)")


def _weights(cfg: ExperimentConfig, window: Window, *roles: str) -> list[Weight]:
    """The weights of the roles; roles with equal specs share one (immutable) Weight."""
    specs = [cfg.params[f"weight_{role}"] for role in roles]
    built = {spec: _make_weight(spec, window, cfg.params["depth"]) for spec in dict.fromkeys(specs)}
    return [built[spec] for spec in specs]


def _times(f: LatticeFunction, w: Weight) -> LatticeFunction:
    return LatticeFunction(f.window, f.values * w.values)


def _q0(cfg: ExperimentConfig, window: Window, key: str = "q0") -> Cube:
    """The cube of the <key>_level and <key>_index keys: level defaults to level_max, index
    to the window's first cube of the level."""
    level, index = cfg.params[f"{key}_level"], cfg.params[f"{key}_index"]
    level = window.level_max if level is None else level
    if index is None and level > window.level_max:
        raise ValidationError(f"{key}_level outside window levels")
    q = Cube(level, window.index_lo(level) if index is None else index)
    if not window.contains_cube(q):
        raise ValidationError(f"{key} cube {q} not inside window")
    return q


def _exponent_set(cfg: ExperimentConfig, kind: WeightConditionKind) -> ExponentSet:
    """The exponent set of the kind's regime from the config's _EXPONENTS keys.  C211 never
    uses a, but its T28 set needs one: a missing a becomes the midpoint of (1, min(q_i/r_i))
    of the built r_i (validate reports a missing or zero r_i)."""
    try:
        e = build(kind.regime, cfg.window.dim, **{k: cfg.params[k] for k in _EXPONENTS})
    except ValueError as exc:
        raise ValidationError([str(exc)]) from exc
    if kind is WeightConditionKind.C211 and e.a is None and e.r1 and e.r2:
        e = replace(e, a=0.5 * (1.0 + min(e.q1 / e.r1, e.q2 / e.r2)))
    violations = validate(e)
    if violations:
        raise ValidationError(violations)
    return e


def _growth(summary_per_stage: list[dict]) -> tuple[list, dict]:
    """Consecutive max-ratio growth factors and the stable/divergent flags.

    A factor is inf when the max ratio turns infinite or leaves 0, nan when it
    is infinite at both stages; neither counts as stable.  Each flag needs at
    least one factor: a single stage is neither stable nor divergent.
    """
    maxima = [s["max_ratio"] for s in summary_per_stage]
    factors = []
    for a, b in zip(maxima, maxima[1:]):
        if a == INF:
            factors.append(math.nan if b == INF else 0.0)
        elif b == INF or (a == 0.0 and b > 0.0):
            factors.append(INF)
        elif a == 0.0:
            factors.append(0.0)
        else:
            factors.append(b / a)
    flags = {
        "stable_lt_2": bool(factors) and all(f < 2.0 for f in factors),
        "divergent_ge_1p5": bool(factors) and all(f >= 1.5 for f in factors),
    }
    return factors, flags


def _stage_summaries(rows: list) -> list[dict]:
    stages = sorted({r["refinement"] for r in rows})
    out = []
    for st in stages:
        ratios = [r["ratio"] for r in rows if r["refinement"] == st]
        finite = [x for x in ratios if x != INF]
        out.append({
            "refinement": st,
            "max_ratio": max(ratios) if ratios else 0.0,
            "median_ratio": statistics.median(finite) if finite else INF,
            "infinite_rows": len(ratios) - len(finite),
        })
    return out


# -- experiment runners ---------------------------------------------------------


def _fractional(cfg: ExperimentConfig, f: LatticeFunction, g: LatticeFunction, alpha: float,
                symbols: list) -> LatticeFunction:
    """B_alpha(f, g), or with symbols its iterated commutator, slots from beta_pattern
    (default 1, 2, 1, ...)."""
    if not symbols:
        return bilinear_fractional(f, g, alpha, cfg.params["depth"])
    pattern = cfg.params["beta_pattern"]
    if pattern is None:
        pattern = tuple(1 + i % 2 for i in range(len(symbols)))
    if len(pattern) != len(symbols):
        raise ValidationError("beta_pattern length must equal n_symbols")
    return commutator_iterated(CommutatorSpec(symbols, pattern), f, g, alpha, cfg.params["depth"])


# The strong-type bounds |T(f, g) v|_{s,t} <= C [prod |b_i|_BMO] RHS(p; q1, q2):
# experiment -> (operator T, weight condition of C); the condition fixes the regime.
_STRONG_TYPE = {
    "T21": ("bilinear", WeightConditionKind.C22),
    "T22": ("bilinear", WeightConditionKind.C24),
    "T23": ("commutator", WeightConditionKind.C22),
    "T24": ("commutator", WeightConditionKind.C24),
    "T28": ("m_alpha_r", WeightConditionKind.C29),
    "T29": ("m_alpha_r", WeightConditionKind.C211),
    "COR_BH": ("bh_maximal", WeightConditionKind.CBH),
}


def _run_strong_type(cfg: ExperimentConfig, stage: int, win: Window, notes: dict):
    operator, kind = _STRONG_TYPE[cfg.experiment]
    vector = kind is WeightConditionKind.C211
    e = _exponent_set(cfg, kind)
    if operator == "bh_maximal" and e.alpha != 0.0:
        raise ValidationError(["COR_BH requires alpha = 0"])
    if kind is WeightConditionKind.C22 and e.s >= 1.0:
        kind = WeightConditionKind.C23
    notes["condition_kind"] = kind.value
    if vector and cfg.params["a"] is None:
        notes["derived_a"] = e.a
    n_sym = cfg.params["n_symbols"] if operator == "commutator" else 0
    if vector:
        u1, u2 = _weights(cfg, win, "u1", "u2")
        w1, w2 = Weight(win, u1.values ** (1.0 / e.q1)), Weight(win, u2.values ** (1.0 / e.q2))
        v = Weight(win, w1.values * w2.values)
        const = two_weight_constant(kind, None, u1, u2, e, win)
    else:
        v, w1, w2 = _weights(cfg, win, "v", "w1", "w2")
        const = two_weight_constant(kind, v, w1, w2, e, win)
    for trials, f, g, symbols in _stage_chunks(cfg, win, n_sym):
        if operator == "m_alpha_r":
            out = m_alpha_r(f, g, e.alpha, (e.r1, e.r2), "dyadic")
        elif operator == "bh_maximal":
            out = bh_maximal(f, g)
        else:
            out = _fractional(cfg, f, g, e.alpha, symbols)
        lhs = morrey_norm(_times(out, v), e.s, e.t)
        rhs = math.prod(map(bmo_norm, symbols)) * const \
            * rhs_bilinear_morrey(f, g, w1, w2, e.p, e.q1, e.q2)
        yield trials, lhs, rhs, "random", 0


def _run_maximal_control(cfg: ExperimentConfig, stage: int, win: Window, notes: dict):
    mp, mq, alpha, r1, r2 = (cfg.params[k] for k in ("p", "q", "alpha", "r1", "r2"))
    if not 0 < mq <= mp:
        raise ValidationError([f"need 0<q<=p (q={mq}, p={mp})"])
    if not (r1 and r2 and abs(1.0 / r1 + 1.0 / r2 - 1.0) <= 1e-9):
        raise ValidationError([f"(r1, r2) must be a Holder pair; got ({r1}, {r2})"])
    notes["morrey_weight_convention"] = "integrand |f|^q * w, Lebesgue normalizer |Q|"
    if cfg.experiment == "T26":
        vt1, vt2 = cfg.params["vartheta1"], cfg.params["vartheta2"]
        if vt1 <= 1 or vt2 <= 1:
            raise ValidationError(["vartheta1, vartheta2 must exceed 1"])
        pair = (vt1 * r1, vt2 * r2)
        n_sym = cfg.params["n_symbols"]
    else:
        pair = (r1, r2)
        n_sym = 0
    [w] = _weights(cfg, win, "w")
    for trials, f, g, symbols in _stage_chunks(cfg, win, n_sym):
        lhs = morrey_norm(_fractional(cfg, f, g, alpha, symbols), mp, mq, w)
        rhs = math.prod(map(bmo_norm, symbols)) \
            * morrey_norm(m_alpha_r(f, g, alpha, pair, "dyadic"), mp, mq, w)
        yield trials, lhs, rhs, "random", 0


def _run_weak_type(cfg: ExperimentConfig, stage: int, win: Window, notes: dict):
    necessity = cfg.experiment == "T27_necessity"
    e = _exponent_set(cfg, WeightConditionKind.C27)
    notes["condition_kind"] = WeightConditionKind.C27.value
    v, w1, w2 = _weights(cfg, win, "v", "w1", "w2")
    q0 = _q0(cfg, win)
    const = two_weight_constant(WeightConditionKind.C27, v, w1, w2, e, win)

    def sides(f, g, big_m):
        return (float(weak_morrey_functional(big_m, v, e.t, e.s, q0)),
                float(const * rhs_bilinear_morrey_from(f, g, w1, w2, e.p, e.q1, e.q2, q0)))

    # m_alpha_r per chunk (each batch entry gets its unbatched bits); the weak functional
    # and rhs_bilinear_morrey_from per trial, the latter for its scalar powers.  The
    # extremal pair takes the last trial slot so rows = trials x refinements.
    ratios = []
    n_random = cfg.trials - 1 if necessity else cfg.trials
    for trials, f, g, _ in _stage_chunks(cfg, win, n_trials=n_random):
        big_m = m_alpha_r(f, g, e.alpha, (e.r1, e.r2), "dyadic").values
        for i, trial in enumerate(trials):
            lhs, rhs = sides(*(LatticeFunction(win, x[i]) for x in (f.values, g.values, big_m)))
            ratios.append(_ratio(lhs, rhs))
            yield [trial], [lhs], [rhs], "random", 0
    if necessity:
        qp = q0 if cfg.params["qprime_level"] is None and cfg.params["qprime_index"] is None \
            else _q0(cfg, win, key="qprime")
        f, g, lam = necessity_pair(w1, w2, qp, e)
        lhs, rhs = sides(f, g, m_alpha_r(f, g, e.alpha, (e.r1, e.r2), "dyadic"))
        c_obs = max(x for x in ratios + [_ratio(lhs, rhs)] if x != INF)
        ok = lhs <= 2.0 * c_obs * rhs * (1.0 + 1e-9)
        notes.setdefault("extremal_checks", []).append(
            {"refinement": stage, "lambda": lam, "c_observed": c_obs, "passed": bool(ok)})
        yield [cfg.trials - 1], [lhs], [rhs], "extremal", int(not ok)


def _run_stein_weiss(cfg: ExperimentConfig, stage: int, win: Window, notes: dict):
    n = cfg.window.dim
    alpha, beta, gamma1, gamma2, q1, q2, p1, p2, r = (
        cfg.params[k] for k in ("alpha", "beta", "gamma1", "gamma2", "q1", "q2", "p1", "p2", "r"))
    if not (0 < alpha < n):
        raise ValidationError([f"need 0<alpha<n (alpha={alpha})"])
    if not (1 < q1 <= p1 and 1 < q2 <= p2):
        raise ValidationError([f"need 1<q_i<=p_i (q=({q1},{q2}), p=({p1},{p2}))"])
    order = n - alpha  # the operator acts at fractional order n - alpha
    try:
        q, p = solve_q(q1, q2), solve_q(p1, p2)
        s, _ = solve_st(n, order, p, q, r)
        t = solve_weak_t(n, order, q, r)
    except ValueError as exc:
        raise ValidationError([str(exc)]) from exc
    if not (t > 1 and t <= s * (1.0 + 1e-12)):
        raise ValidationError([f"need 1<t<=s (t={t}, s={s})"])
    balance = alpha + beta + gamma1 + gamma2 - (n + n / t - n / q)
    hypothesis = {
        "beta_lt_n_over_s": beta < n / s,
        "gamma1_admissible": gamma1 < n / (q1 / (q1 - 1.0)),
        "gamma2_admissible": gamma2 < n / (q2 / (q2 - 1.0)),
        "balance_identity": abs(balance) <= 1e-9,
        "nonnegative_sum": beta + gamma1 + gamma2 >= -1e-12,
    }
    notes.update({"derived": {"p": p, "q": q, "s": s, "t": t},
                  "balance_defect": balance,
                  "hypothesis": hypothesis,
                  "hypothesis_satisfied": all(hypothesis.values())})
    depth = cfg.params["depth"]
    # the target weight |x|^(-beta) multiplies the output; equal exponents share a Weight
    exps = (-beta, gamma1, gamma2)
    built = {x: power_weight(x, win, depth) if x != 0 else Weight.constant(win, 1.0)
             for x in dict.fromkeys(exps)}
    wl, v1, v2 = (built[x] for x in exps)
    for trials, f, g, _ in _stage_chunks(cfg, win):
        lhs = morrey_norm(_times(bt_alpha(f, g, alpha, depth), wl), s, t)
        rhs = morrey_norm(_times(f, v1), p1, q1) * morrey_norm(_times(g, v2), p2, q2)
        yield trials, lhs, rhs, "random", 0


def _log_abs(window: Window) -> LatticeFunction:
    """log|x| at the cell centres (m + 0.5) h of the window, on field._radii's grid.  C log
    (math.log) on Python floats, a row at a time: np.log is not bit-equal to it with AVX-512."""
    h = window.cell_side
    r = _radii([(np.arange(a, a + window.cells_per_axis) + 0.5) * h for a in window.cell_index_lo])
    return LatticeFunction(window, np.fromiter((math.log(x) for row in r.reshape(-1, r.shape[-1])
                                                for x in row.tolist()), float, r.size).reshape(r.shape))


def _run_john_nirenberg(cfg: ExperimentConfig, stage: int, win: Window, notes: dict):
    exponents = (1.0, 2.0, 4.0)
    b_log = _log_abs(win)
    norm, ratios = _oscillation_ratios(b_log, exponents)
    notes.setdefault("log_symbol", {})[f"stage_{stage}"] = \
        {f"e{int(ee)}": ratios[ee] for ee in exponents}
    notes["telescoping_bound"] = "max |mean_Q0 b - mean_Q b| <= k 2^n ||b||, checked exactly"
    # the log symbol's checks count with its row, trial 0
    checks = int(not all(math.isfinite(v) for v in ratios.values()))
    checks += not (ratios[1.0] <= ratios[2.0] + 1e-12 and ratios[2.0] <= ratios[4.0] + 1e-12)
    checks += _telescoping_defect(b_log, norm) > 1e-12
    for trial in range(cfg.trials):
        if trial == 0:
            b_ratios, label, bad = ratios, "log_abs", checks
        else:
            rng = _rng(cfg, 3, trial)
            b = LatticeFunction(win, expand_level(
                rng.uniform(-1.0, 1.0, cfg.window.shape), win, cfg.window.level_min))
            _, b_ratios = _oscillation_ratios(b, (1.0, 4.0))
            label, bad = "random", 0
        lo, hi = b_ratios[1.0], b_ratios[4.0]
        yield [trial], [hi], [max(lo, 1e-300)], label, bad + int(hi + 1e-12 < lo)


def _telescoping_defect(b: LatticeFunction, norm: float) -> float:
    """Worst violation of the ancestor-chain mean bound for b of BMO norm norm, 0 when it holds.

    Each cell compares the means of its cubes on two levels: all nested pairs.
    """
    win = b.window
    worst = 0.0
    means = [expand_level(level_means(b.values, win, lvl), win, lvl) for lvl in win.levels()]
    for i, m_q in enumerate(means):
        for k, m_qp in enumerate(means[i + 1:], start=1):
            bound = k * (2.0 ** win.dim) * norm
            worst = max(worst, float(np.abs(m_q - m_qp).max()) - bound)
    return worst


def _decompose(cfg: ExperimentConfig, kind: str, f: LatticeFunction, g: LatticeFunction,
               q0: Cube) -> tuple[Decomposition, list[str], tuple]:
    """The stopping-time forest of kind ('cz' or 'cz_alpha') at the config's parameters, its
    verify_decomposition violations, and those parameters: (theta1, theta2) for 'cz',
    (r1, r2, alpha) for 'cz_alpha'."""
    if kind == "cz":
        args = (cfg.params["theta1"], cfg.params["theta2"])
        d = cz_decompose(f, g, q0, *args)
    elif kind == "cz_alpha":
        args = (cfg.params["r1"], cfg.params["r2"], cfg.params["alpha"])
        d = cz_decompose_alpha(f, g, q0, *args)
    else:
        raise ValidationError(f"unknown decompose kind {kind!r}; expected 'cz' or 'cz_alpha'")
    return d, verify_decomposition(d, f, g, f.window, *args), args


def _run_cz_invariants(cfg: ExperimentConfig, stage: int, win: Window, notes: dict):
    q0 = _q0(cfg, win)
    for trials, f, g, _ in _stage_chunks(cfg, win):
        for i, trial in enumerate(trials):
            pair = [LatticeFunction(win, x.values[i]) for x in (f, g)]
            bad = 0
            for kind, key in (("cz", "theta"), ("cz_alpha", "alpha_variant")):
                _, msgs, notes[key] = _decompose(cfg, kind, *pair, q0)
                bad += len(msgs)
            yield [trial], [bad], [1.0], "spiky", bad


_BH_PAIRS = ((2.0, 2.0), (1.5, 3.0), (3.0, 1.5), (4.0, 4.0 / 3.0), (1.25, 5.0))


def _run_bh_domination(cfg: ExperimentConfig, stage: int, win: Window, notes: dict):
    tol = 1e-12
    notes.update({"pairs": _BH_PAIRS, "tolerance": tol})
    cells = tuple(range(-win.dim, 0))
    for trials, f, g, _ in _stage_chunks(cfg, win):
        bh = bh_maximal(f, g).values
        worst = np.zeros(len(trials))
        for pair in _BH_PAIRS:
            m = m_alpha_r(f, g, 0.0, pair, "centered").values
            # relative excess: spiky inputs put the rounding of both sides far above 1e-12
            scale = np.maximum(np.abs(bh), np.abs(m))
            excess = np.divide(bh - m, scale, out=np.zeros_like(scale), where=scale > 0)
            worst = np.maximum(worst, excess.max(axis=cells))
        yield trials, worst, [tol] * len(trials), "random", int((worst > tol).sum())


def _run_lemma39(cfg: ExperimentConfig, stage: int, win: Window, notes: dict):
    q1, q2, t_hat = cfg.params["q1"], cfg.params["q2"], cfg.params["t_hat"]
    notes["t_hat"] = t_hat = max(solve_q(q1, q2), 1.0) if t_hat is None else t_hat
    w1, w2 = _weights(cfg, win, "w1", "w2")
    rep = lemma39_check(w1, w2, q1, q2, t_hat)
    notes.setdefault("per_stage", {})[f"stage_{stage}"] = {"joint": rep.joint_const,
                                                           **rep.memberships}
    worst = max(rep.memberships.values())
    yield range(cfg.trials), [rep.joint_const] * cfg.trials, [worst] * cfg.trials, "weights", 0


# experiment -> runner(cfg, stage, win, notes): the work of one stage.  A runner adds to
# notes and yields (trials, lhs, rhs, label, violations), trials in order; run_experiment
# makes one row per trial.
_RUNNERS = {
    "T21": _run_strong_type,
    "T22": _run_strong_type,
    "T23": _run_strong_type,
    "T24": _run_strong_type,
    "T25": _run_maximal_control,
    "T26": _run_maximal_control,
    "T27_sufficiency": _run_weak_type,
    "T27_necessity": _run_weak_type,
    "T28": _run_strong_type,
    "T29": _run_strong_type,
    "COR_BH": _run_strong_type,
    "SW101": _run_stein_weiss,
    "JN": _run_john_nirenberg,
    "CZ_INV": _run_cz_invariants,
    "BH_DOM": _run_bh_domination,
    "L39": _run_lemma39,
}

EXPERIMENTS = tuple(_RUNNERS)


def run_experiment(cfg: ExperimentConfig) -> Report:
    """Run one experiment, stage by stage; deterministic for fixed (config, seed)."""
    rows, notes, violations = [], {}, 0
    for stage in cfg.refinements:
        win = cfg.window_at(stage)
        for trials, lhs, rhs, label, bad in _RUNNERS[cfg.experiment](cfg, stage, win, notes):
            rows += [_row(stage, win, t, lo, hi, label) for t, lo, hi in zip(trials, lhs, rhs)]
            violations += bad
    # a nan side is a failed evaluation; the stage max would skip it unless it came first
    violations += sum(math.isnan(r["lhs"]) or math.isnan(r["rhs"]) for r in rows)
    stages = _stage_summaries(rows)
    factors, flags = _growth(stages)
    summary = {
        "experiment": cfg.experiment,
        "library_version": _VERSION,
        "seed": cfg.seed,
        "trials": cfg.trials,
        "refinements": list(cfg.refinements),
        "window": asdict(cfg.window),
        "config": {k: v for k, v in cfg.raw},
        "per_refinement": stages,
        "growth_factors": factors,
        "growth_flags": flags,
        "max_ratio": max((s["max_ratio"] for s in stages), default=0.0),
        "invariant_violations": violations,
        "notes": notes,
        "conventions": [
            "window sups truncate the full dyadic grid; reports record (level_min, level_max)",
            "BMO norms are dyadic-window norms",
            "weighted Morrey norms integrate |f|^q w with Lebesgue normalizer |Q|",
        ],
    }
    return Report(experiment=cfg.experiment, columns=_COLUMNS, rows=rows, summary=summary)


# -- emission --------------------------------------------------------------------


def _json_safe(obj):
    if isinstance(obj, float):
        if math.isinf(obj):
            return "inf" if obj > 0 else "-inf"
        if math.isnan(obj):
            return "nan"
        return obj
    if isinstance(obj, dict):
        return {str(k): _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return _json_safe(float(obj))
    if isinstance(obj, bool) or obj is None or isinstance(obj, (int, str)):
        return obj
    return str(obj)


def _write_json(obj, path) -> None:
    """Write obj through _json_safe as sorted, indented JSON with a final newline;
    byte-stable for equal objects."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(_json_safe(obj), fh, indent=2, sort_keys=True)
        fh.write("\n")


def emit_report(report: Report, path) -> tuple[str, str]:
    """Write <path>.csv (rows) and <path>.json (summary); byte-stable per seed."""
    path = str(path)
    csv_path, json_path = path + ".csv", path + ".json"
    lines = [",".join(report.columns)]
    for row in report.rows:
        cells = []
        for col in report.columns:
            val = row[col]
            cells.append(repr(val) if isinstance(val, float) else str(val))
        lines.append(",".join(cells))
    with open(csv_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    _write_json(report.summary, json_path)
    return csv_path, json_path
