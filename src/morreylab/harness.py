"""Experiment runner: empirical best-constant estimation for the inequalities.

Every experiment draws seeded nonnegative random inputs (cellwise uniform,
plus tall structured spikes with probability 1/4), computes the left- and
right-hand quantities of one inequality through the other modules, and
records the ratio.  The hypothesis constants are never explicit in the
theory, so acceptance is finiteness and stability of empirical ratios: a
growth study re-runs the same coarse-drawn inputs on windows refined by one
(or more) levels and summarizes the max-ratio growth factor per refinement.

Every record evaluates two sides on inputs.  Its side builds a stage's hypothesis
(exponents, weights, constant, notes) and returns the stage's chunks and evaluate, which
gives a chunk's (lhs, rhs), one value per trial, and its violations if it checks any;
run_experiment loops over the stages and their chunks, evaluates them, makes the rows and
sums the violations.  An inequality lhs(f, g, b) <= C rhs(f, g, b) has a side of its shape:
strong type |T(f, g) v|_{s,t} <= C [prod |b_i|_BMO] RHS(p; q1, q2) for T21-T24, T28, T29
and COR_BH (the operator T bound, the weight condition fixing the regime), maximal control
(T25/T26), the weak functional on a base cube (T27_*, necessity checking its extremal row)
and power weights (SW101).  The checks JN, CZ_INV, BH_DOM and L39 count violations.

Determinism contract: identical (config, seed) give identical reports byte
for byte.  Inputs are drawn on the coarsest window and prolonged to refined
windows, so growth factors reflect the operators, not fresh randomness.
Each trial draws from its own streams (f and g 1, a commutator's symbols 2, JN's 3).  A run
draws its random trials once, into a read-only table of at most _DRAW_CELLS cells that
every stage prolongs; a trial past the table is drawn again at each stage, so memory does
not grow with the trials (_draw_table).  Every side but L39's takes its chunks from
_stage_chunks: the random trials in batched chunks of _BATCH_CELLS cells per array, a
remainder under half a chunk joining the chunk before it, and each deterministic member
(JN's log|x| at trial 0, T27_necessity's extremal pair last) as a labelled chunk of its
own.  The rows, in trial-index order, depend neither on the chunking nor on the table.
CZ_INV builds and rechecks its stopping-time forests one chunk at a time (_decompose).
Each lattice rule that a record or a domain needs (Window.touches_origin,
field.deepest_depth, JN's field.log_abs, oscillation_sups and telescoping_defect) has its
one owner in dyadic, field or czd, reached by public name only.

Each experiment is one _EXPERIMENTS record (its side, keys and weight condition), so adding
an experiment means adding one record; hypothesis turns a record's weight condition into the
weights and constant of a stage, for its side and for `morreylab weight-const`.  Config
files are flat UTF-8 ``key = value`` lines, arrays as comma lists, ``#`` comments allowed;
cfg.params has every key of the record and _COMMON, typed and in its domain, and no other.
Each domain, and each rule of _joint_problems that joins keys (the exponent set's regime
among them), is checked once, at the parse (docs/config.md).  docs/experiments.md is the
per-experiment LHS/RHS manifest.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import statistics
from dataclasses import asdict, dataclass, field, replace
from types import MappingProxyType
from typing import Callable, Mapping, NamedTuple

import numpy as np

from ._version import __version__ as _VERSION
from .czd import (
    Decomposition,
    cz_decompose,
    cz_decompose_alpha,
    functional_tables,
    necessity_pair,
    verify_decomposition,
)
from .dyadic import Cube, Window
from .errors import ValidationError
from .exponents import INF, ExponentSet, build, holder_pair, solve_q, solve_st, solve_weak_t, validate
from .field import (
    DEFAULT_DEPTH,
    LatticeFunction,
    Weight,
    bmo_norm,
    deepest_depth,
    expand_level,
    from_csv,
    log_abs,
    oscillation_sups,
    power_weight,
    telescoping_defect,
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

# -- config keys: each maps to (default, domain).  A default is _REQUIRED, None (the side
# derives the value) or the value; the _Domain parses the key's text and admits its values.
_REQUIRED = object()


class _Domain(NamedTuple):
    """parse reads a key's text (a ValueError or nan: no value); holds(value, window) admits a
    value, and text says which ("{key}" is the key, "{n}" the dim); finite refuses inf too."""

    parse: Callable
    text: str = ""
    holds: Callable = lambda v, w: True
    finite: bool = False

    def problem(self, who: str, key: str, value, window: Window) -> list[str]:
        """[] when value is admitted or None (derived), else the message naming the key."""
        if value is None:
            return []
        ok = self.holds(value, window)
        if ok and not (self.finite and abs(value) == INF):
            return []
        text = f"a finite {key}" if ok else self.text.format(key=key, n=window.dim)
        return [f"{who} needs {text}; got {key} = {value!r}"]


def _ints(text: str) -> tuple[int, ...]:
    return tuple(int(v) for v in text.split(",") if v.strip())


def _power_ok(gamma: float, window: Window) -> bool:
    """Whether gamma is finite, and > -dim if the window touches the origin."""
    return math.isfinite(gamma) and (gamma > -window.dim or not window.touches_origin)


def _weight_ok(spec: str, window: Window) -> bool:
    kind, _, arg = spec.partition(":")
    try:
        x = float(arg)
    except ValueError:
        x = math.nan
    return kind == "csv" or kind == "const" and 0 < x < INF or kind == "pow" \
        and _power_ok(x, window)


# The largest depth a config may set, and the most cells of a stage's window (1 GiB per
# float64 array).
_MAX_DEPTH = 256
_MAX_CELLS = 1 << 27
_FLOAT, _INT, _INTS = _Domain(float), _Domain(int), _Domain(_ints)
# a side turns an infinite Morrey q into the mean 1.0 and an infinite maximal-function or
# stopping-time exponent into a dropped function: those keys take _FINITE domains
_FINITE = _Domain(float, finite=True)
_COUNT = _Domain(int, "{key} >= 1", lambda v, w: v >= 1)
_OVER_1 = _Domain(float, "{key} > 1", lambda v, w: v > 1)
_FINITE_OVER_1 = _OVER_1._replace(finite=True)
_ALPHA = _Domain(float, "0 < {key} < n = {n}", lambda v, w: 0 < v < w.dim)
_POWER = _Domain(float, "a finite {key}, > -{n} if the window touches 0", _power_ok)
_WEIGHT = _Domain(str, "{key} = pow:G (a finite G, > -{n} if the window touches 0), const:C "
                  "(a finite C > 0) or csv:PATH", _weight_ok)

# the window (Window checks its own rules), the draws and the quadrature depth, read for
# every experiment
_COMMON = {"dim": (1, _INT), "level_min": (-4, _INT), "level_max": (0, _INT),
           "origin_offset": (None, _INTS), "top_count": (2, _INT), "trials": (20, _COUNT),
           "seed": (0, _Domain(int, "{key} >= 0", lambda v, w: v >= 0)),
           "refinements": ((0,), _Domain(_ints, "distinct {key} >= 0", lambda v, w: bool(v)
                                         and min(v) >= 0 and len(set(v)) == len(v))),
           "depth": (DEFAULT_DEPTH, _Domain(int, f"0 <= {{key}} <= {_MAX_DEPTH}",
                                            lambda v, w: 0 <= v <= _MAX_DEPTH))}
# the keys of _exponent_set, whose regime the parse checks; _MAXIMAL's alpha, of the T27 and
# T28 regimes, defaults to 0
_EXPONENTS = {**dict.fromkeys(("alpha", "q1", "q2", "p"), (_REQUIRED, _FLOAT)),
              "r": (INF, _FLOAT), "a": (None, _FLOAT),
              **dict.fromkeys(("r1", "r2"), (None, _FINITE))}
_WEIGHTS = dict.fromkeys(("weight_v", "weight_w1", "weight_w2"), ("const:1", _WEIGHT))
_Q0 = {"q0_level": (None, _INT), "q0_index": (None, _INTS)}
_SYMBOLS = {"n_symbols": (2, _COUNT), "beta_pattern": (None, _Domain(
    _ints, "{key} of slots 1 or 2", lambda v, w: set(v) <= {1, 2}))}
_CONTROL = {"p": (_REQUIRED, _FLOAT),
            "q": (_REQUIRED, _Domain(float, "{key} > 0", lambda v, w: v > 0, finite=True)),
            "alpha": (_REQUIRED, _ALPHA), "r1": (2.0, _FINITE), "r2": (2.0, _FINITE),
            "weight_w": ("const:1", _WEIGHT)}
_MAXIMAL = {**_EXPONENTS, "alpha": (0.0, _FLOAT)}

# decompose kind -> the config keys of its czd parameters
_CZ_KINDS = {"cz": ("theta1", "theta2"), "cz_alpha": ("r1", "r2", "alpha")}
# the keys that `morreylab decompose` reads besides CZ_INV's
DECOMPOSE_KEYS = {"kind": ("cz", _Domain(str, "{key} = cz or cz_alpha",
                                         lambda v, w: v in _CZ_KINDS))}


def _parse(key: str, text: str, domain: _Domain):
    try:
        value = domain.parse(text)
    except ValueError:
        value = math.nan
    if value != value:  # no parse, or nan
        raise ValidationError(f"cannot parse value for {key!r}: {text!r}")
    return value


def _joint_problems(experiment: str, p: Mapping, window: Window) -> list[str]:
    """The broken rules that join keys, each naming its keys (each key is in its domain)."""
    n, depth, stages = window.dim, p["depth"], p["refinements"]
    finest, bad = window.level_min - max(stages), []
    # log2 of the finest stage's cells, which no int or array of that size is built to count
    if n * (window.level_max - finest + math.log2(window.top_count)) > math.log2(_MAX_CELLS):
        bad.append(f"a stage holds at most 2^{_MAX_CELLS.bit_length() - 1} cells; the finest, "
                   f"at level_min {finest}, has ({window.top_count} * "
                   f"2^{window.level_max - finest})^{n}")
    deepest = deepest_depth(replace(window, level_min=finest))
    if depth > deepest:
        bad.append(f"depth {depth} is too deep for {n}-D cells of side 2^{finest}: the "
                   f"quadrature's leaf midpoints 2^{finest - depth - 1} square to 0.0 "
                   f"(depth must be <= {deepest})")
    if stages != (0,) and any(k.startswith("weight_") and v.startswith("csv:")
                              for k, v in p.items()):
        bad.append(f"csv: weights need refinements = 0; got refinements = {stages}")
    # a cube of the coarsest stage's window is a cube of every stage's window; a level outside
    # it is refused before _q0 builds an int of |level| bits
    coarsest = replace(window, level_min=window.level_min - min(stages))
    for key in [k for k in ("q0", "qprime") if f"{k}_level" in p]:
        level, index = p[f"{key}_level"], p[f"{key}_index"]
        if level is not None and not coarsest.level_min <= level <= coarsest.level_max \
                or not coarsest.contains_cube(_q0(p, coarsest, key)):
            bad.append(f"{key}_level, {key}_index must give a cube of the window; got "
                       f"{key}_level = {level}, {key}_index = {index}")
    if p.get("beta_pattern") is not None and len(p["beta_pattern"]) != p["n_symbols"]:
        bad.append("beta_pattern length must equal n_symbols")
    if experiment in ("T25", "T26", "CZ_INV") and not holder_pair(p["r1"], p["r2"]):
        bad.append(f"{experiment} needs a Holder pair, 1/r1 + 1/r2 = 1; got r1 = {p['r1']}, "
                   f"r2 = {p['r2']}")
    if experiment == "T26":  # the maximal function's pair; 1e308 * 2 overflows to inf
        bad += [f"T26 needs a finite vartheta{i} * r{i}; got vartheta{i} = {p[f'vartheta{i}']}, "
                f"r{i} = {p[f'r{i}']}" for i in (1, 2)
                if not math.isfinite(p[f"vartheta{i}"] * p[f"r{i}"])]
    if experiment in ("T25", "T26") and not p["q"] <= p["p"]:
        bad.append(f"{experiment} needs q <= p; got q = {p['q']}, p = {p['p']}")
    kind = _EXPERIMENTS[experiment].kind
    try:  # the rules on each experiment's exponents; a ValueError names an undefined one
        if kind is not None:
            e = _exponent_set(p, n, kind)
        if experiment == "SW101":
            bad += [f"SW101 needs q{i} <= p{i}; got q{i} = {p[f'q{i}']}, p{i} = {p[f'p{i}']}"
                    for i in (1, 2) if not p[f"q{i}"] <= p[f"p{i}"]]
            _, _, s, t = _stein_weiss_exponents(p, n)
            if not (t > 1 and t <= s * (1.0 + 1e-12)):
                bad.append(f"SW101 needs 1 < t <= s; got t = {t}, s = {s}")
        if experiment == "L39":
            q, t_hat = solve_q(p["q1"], p["q2"]), p["t_hat"]
            if t_hat is not None and t_hat < q:
                bad.append(f"L39 needs t_hat >= q = {q}; got t_hat = {t_hat}")
        if experiment == "T27_necessity":  # necessity_pair's exponents q_i / (q_i - r_i)
            bad += [f"T27_necessity needs r{i} < q{i}; got r{i} = {r}, q{i} = {q}" for i, r, q
                    in ((1, e.r1, e.q1), (2, e.r2, e.q2)) if not r < q]
    except ValueError as exc:
        bad.append(str(exc))
    except ValidationError as exc:
        bad += exc.violations
    return bad


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
    """The config of (key, value) text pairs.  Its experiment's keys (_COMMON, then its
    record's keys, then a command's extra {key: (default, domain)}) are the only keys it
    may set; params holds every one of them, parsed or defaulted.  Each key's domain and each
    rule that joins keys is checked here, once."""
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
    table = {**_COMMON, **_EXPERIMENTS[experiment].keys, **(extra or {})}
    bad = [f"{experiment} does not read key {k!r}" for k in sorted(given.keys() - table.keys())]
    bad += [f"missing required key {k!r} for {experiment}"
            for k, (default, _) in table.items() if default is _REQUIRED and k not in given]
    if bad:
        raise ValidationError(bad)
    params = {k: _parse(k, given[k], domain) if k in given else default
              for k, (default, domain) in table.items()}
    try:
        window = Window(*(params[k] for k in ("dim", "level_min", "level_max", "origin_offset",
                                              "top_count")))
    except ValueError as exc:
        raise ValidationError(f"bad window: {exc}") from exc
    bad = [m for k, (_, domain) in table.items()
           for m in domain.problem(experiment, k, params[k], window)]
    bad = bad or _joint_problems(experiment, params, window)
    if bad:
        raise ValidationError(bad)
    raw = tuple(sorted([(k, str(v)) for k, v in pairs]))
    return ExperimentConfig(experiment=experiment, window=window, trials=params["trials"],
                            seed=params["seed"], refinements=params["refinements"],
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
    lhs, rhs = float(lhs), float(rhs)
    return dict(zip(_COLUMNS, (stage, window.level_min, window.level_max, trial, lhs, rhs,
                               _ratio(lhs, rhs), label)))


# -- random inputs -------------------------------------------------------------


def _rng(seed: int, *streams: int) -> np.random.Generator:
    """The generator of default_rng([seed, *streams]), built without its argument checks:
    a sweep makes one per trial."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, *streams])))


def _draw_values(rng: np.random.Generator, window: Window) -> np.ndarray:
    vals = rng.uniform(0.05, 1.0, window.shape)
    if rng.random() < 0.25:
        for _ in range(int(rng.integers(1, 4))):
            idx = tuple(int(rng.integers(0, window.cells_per_axis)) for _ in range(window.dim))
            vals[idx] *= 10.0 ** rng.uniform(1.0, 3.0)
    return vals


def _drawn(seed: int, window: Window, trial: int, streams=(1, 1)) -> list[np.ndarray]:
    """The trial's arrays on the base window, one per entry of streams, a run of equal entries
    from one generator: stream 1 draws f and g, any other uniform(-1, 1) symbols."""
    return [_draw_values(rng, window) if stream == 1 else rng.uniform(-1.0, 1.0, window.shape)
            for stream, run in itertools.groupby(streams)
            for rng in [_rng(seed, stream, trial)] for _ in run]


# Cells per batched array of a full stage chunk; the last chunk of a stage may hold up to
# 1.5 times as many.  Larger chunks take fewer Python-level steps per trial, but raise the
# peak resident size of a run.
_BATCH_CELLS = 1 << 14
# Cells of a run's table of base-window draws (512 KiB of float64): it keeps as many of the
# first trials as fit, and every later trial is drawn again at each stage, so the table
# bounds the memory a run spends on draws whatever its trials.
_DRAW_CELLS = 1 << 16


# Keyed on the values that fix the draws; one run's table at a time.
@functools.lru_cache(maxsize=1)
def _draw_table(seed: int, window: Window, streams: tuple, trials: range) -> np.ndarray:
    """The base-window draws of the trials, arrays first: [i, k] is _drawn's i-th array of
    trials[k] for streams, so an array of a run of trials is one contiguous slice; read-only."""
    table = np.empty((len(streams), len(trials), *window.shape))
    for k, t in enumerate(trials):
        table[:, k] = _drawn(seed, window, t, streams)
    table.setflags(write=False)
    return table


def _stage_chunks(cfg: ExperimentConfig, window: Window, streams: tuple = (1, 1),
                  members: Mapping = MappingProxyType({})):
    """Yield (trials, label, arrays) per chunk in trial order, arrays batching the chunk's
    trials on window (a refinement of the base window), one LatticeFunction each.  members
    maps trial 0 or the last trial to (label, build), a chunk of build(window)'s functions.
    The other trials are "random", _drawn's arrays for streams prolonged to window: the
    first from the run's _draw_table, as many as _DRAW_CELLS holds, the rest drawn here at
    every stage.  The n random trials split into round(n / per) chunks, halves up and at
    least one, of per = max(1, _BATCH_CELLS // window.n_cells) trials, the last taking the
    rest: a remainder under half a chunk joins the chunk before it rather than pay one more
    sweep over the operators, so a chunk of more than one trial has under 1.5 * _BATCH_CELLS
    cells per array.  expand_level repeats each batch entry, so slice i holds trial i's bits."""
    per, base = max(1, _BATCH_CELLS // window.n_cells), cfg.window
    # the trials that no member takes
    drawn = range(0 in members, cfg.trials - (cfg.trials - 1 in members))
    kept = len(drawn[:_DRAW_CELLS // (len(streams) * base.n_cells)])
    table = _draw_table(cfg.seed, base, streams, drawn[:kept])

    def member(slot):
        label, build = members[slot]
        return range(slot, slot + 1), label, [LatticeFunction(window, x.values[None])
                                              for x in build(window)]

    def drawn_chunk(start, stop):  # drawn[start:stop]; no other array outlives the call
        arrays = table[:, start:stop]
        if stop > kept:
            fresh = [_drawn(cfg.seed, base, t, streams) for t in drawn[max(start, kept):stop]]
            arrays = np.concatenate([arrays, np.stack(fresh, axis=1)], axis=1)
        return drawn[start:stop], "random", [
            LatticeFunction(window, expand_level(a, window, base.level_min)) for a in arrays]

    yield from (member(slot) for slot in members if slot < drawn.start)
    starts = range(0, len(drawn), per)[:max(1, (2 * len(drawn) + per) // (2 * per))]
    yield from itertools.starmap(drawn_chunk, zip(starts, [*starts[1:], len(drawn)]))
    yield from (member(slot) for slot in members if slot >= drawn.start)


def _read_csv(path: str, window: Window | None = None) -> LatticeFunction:
    """The lattice function of a CSV file, or with a window the weight it gives there; a file
    that from_csv refuses, or a weight whose window or values do not fit, is a
    ValidationError."""
    try:
        f = from_csv(path)
        if window is None:
            return f
        if f.window != window:
            raise ValidationError(f"CSV weight window {f.window} does not match the config "
                                  f"window {window}")
        return Weight(window, f.values)
    except ValueError as exc:
        raise ValidationError(f"bad CSV {path!r}: {exc}") from exc


def csv_morrey_norm(path: str, p: float, q: float, weight: str | None = None) -> float:
    """`morreylab norm`: the Morrey norm of the CSV file's lattice function, weighted by a
    spec of the config keys' weight domain (pow:G, const:C or csv:PATH) if one is given."""
    f = _read_csv(path)
    bad = [] if 0 < q <= p else [f"norm needs 0 < q <= p; got q={q}, p={p}"]
    bad += [] if q < INF else [f"norm needs a finite q; got q={q}"]
    bad += _WEIGHT.problem("norm", "weight", weight, f.window)
    if bad:
        raise ValidationError(bad)
    return morrey_norm(f, p, q, w=_make_weight(weight, f.window) if weight else None)


def _make_weight(spec: str, window: Window, depth: int = DEFAULT_DEPTH) -> Weight:
    """The weight of a spec of the _WEIGHT domain on window."""
    kind, _, arg = spec.partition(":")
    if kind == "pow":
        return power_weight(float(arg), window, depth=depth)
    if kind == "const":
        return Weight.constant(window, float(arg))
    return _read_csv(arg, window)


def _weights(cfg: ExperimentConfig, window: Window, *roles: str) -> list[Weight]:
    """The weights of the roles; roles with equal specs share one (immutable) Weight."""
    specs = [cfg.params[f"weight_{role}"] for role in roles]
    built = {spec: _make_weight(spec, window, cfg.params["depth"]) for spec in dict.fromkeys(specs)}
    return [built[spec] for spec in specs]


def _times(f: LatticeFunction, w: Weight) -> LatticeFunction:
    return LatticeFunction(f.window, f.values * w.values)


def _q0(params: Mapping, window: Window, key: str = "q0") -> Cube:
    """The cube of the <key>_level and <key>_index params: level defaults to level_max, index
    to the window's first cube of the level (a level above level_max needs an index)."""
    level, index = params[f"{key}_level"], params[f"{key}_index"]
    level = window.level_max if level is None else level
    return Cube(level, window.index_lo(level) if index is None else index)


def _exponent_set(params: Mapping, dim: int, kind: WeightConditionKind) -> ExponentSet:
    """The exponent set of the kind's regime from the _EXPONENTS keys of params, or a
    ValidationError listing what the regime violates.  C211 never uses a, but its T28 set
    needs one: a missing a becomes the midpoint of (1, min(q_i/r_i)) of the built r_i
    (validate reports a missing or zero r_i)."""
    try:
        e = build(kind.regime, dim, **{k: params[k] for k in _EXPONENTS})
    except ValueError as exc:
        raise ValidationError([str(exc)]) from exc
    if kind is WeightConditionKind.C211 and e.a is None and e.r1 and e.r2:
        e = replace(e, a=0.5 * (1.0 + min(e.q1 / e.r1, e.q2 / e.r2)))
    violations = validate(e)
    if violations:
        raise ValidationError(violations)
    return e


def hypothesis(cfg: ExperimentConfig, win: Window, kind: WeightConditionKind | None = None):
    """(e, kind, v, w1, w2, const): the hypothesis side of cfg's run on win (a stage's
    window).  kind defaults to the weight condition of cfg's record; T21's C22 gives way to
    C23 at s >= 1, and a named T21 kind that this rule does not pick is a ValidationError.
    e is the exponent set of kind's regime, v, w1, w2 the weights of the inequality and
    const kind's constant on the config's weights.  A T29 config names u1, u2, which only
    C211 reads: the constant takes (const:1, u1, u2), the inequality w_i = u_i^(1/q_i) and
    v = w1 w2, and any other named kind is a ValidationError."""
    own = _EXPERIMENTS[cfg.experiment].kind
    if own is None:
        raise ValidationError(f"{cfg.experiment} does not read the exponent keys of a weight "
                              "condition")
    named, kind = kind, own if kind is None else kind
    if own is WeightConditionKind.C211 and kind is not own:
        raise ValidationError(f"{cfg.experiment}'s weight_u1, weight_u2 are read only by C211; "
                              f"got {kind.value}")
    e = _exponent_set(cfg.params, win.dim, kind)
    if kind.regime == "T21":
        kind = WeightConditionKind.C22 if e.s < 1.0 else WeightConditionKind.C23
        if named not in (None, kind):
            raise ValidationError(f"C22 needs s<1 and C23 needs s>=1 (s={e.s})")
    if own is not WeightConditionKind.C211:
        v, w1, w2 = _weights(cfg, win, "v", "w1", "w2")
        return e, kind, v, w1, w2, two_weight_constant(kind, v, w1, w2, e, win)
    u1, u2 = _weights(cfg, win, "u1", "u2")
    const = two_weight_constant(kind, Weight.constant(win, 1.0), u1, u2, e, win)
    w1, w2 = Weight(win, u1.values ** (1.0 / e.q1)), Weight(win, u2.values ** (1.0 / e.q2))
    return e, kind, Weight(win, w1.values * w2.values), w1, w2, const


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
    out = []
    for st in sorted({r["refinement"] for r in rows}):
        ratios = [r["ratio"] for r in rows if r["refinement"] == st]
        finite = [x for x in ratios if x != INF]
        out.append({
            "refinement": st,
            "max_ratio": max(ratios) if ratios else 0.0,
            "median_ratio": statistics.median(finite) if finite else INF,
            "infinite_rows": len(ratios) - len(finite),
        })
    return out


# -- experiment sides --------------------------------------------------------------


def _fractional(cfg: ExperimentConfig, f: LatticeFunction, g: LatticeFunction, alpha: float,
                symbols: list) -> LatticeFunction:
    """B_alpha(f, g), or with symbols its iterated commutator, slots from beta_pattern
    (default 1, 2, 1, ...)."""
    if not symbols:
        return bilinear_fractional(f, g, alpha, cfg.params["depth"])
    pattern = cfg.params["beta_pattern"] or tuple(1 + i % 2 for i in range(len(symbols)))
    return commutator_iterated(CommutatorSpec(symbols, pattern), f, g, alpha, cfg.params["depth"])


def _strong_type(operator: str, cfg: ExperimentConfig, stage: int, win: Window, notes: dict):
    """|T(f, g) v|_{s,t} <= C [prod |b_i|_BMO] RHS(p; q1, q2) for the operator T (bilinear,
    commutator, m_alpha_r or bh_maximal) and the constant C of the record's weight condition."""
    e, kind, v, w1, w2, const = hypothesis(cfg, win)
    notes["condition_kind"] = kind.value
    if kind is WeightConditionKind.C211 and cfg.params["a"] is None:
        notes["derived_a"] = e.a
    n_sym = cfg.params["n_symbols"] if operator == "commutator" else 0

    def evaluate(f, g, *symbols):
        if operator == "m_alpha_r":
            out = m_alpha_r(f, g, e.alpha, (e.r1, e.r2), "dyadic")
        elif operator == "bh_maximal":
            out = bh_maximal(f, g)
        else:
            out = _fractional(cfg, f, g, e.alpha, symbols)
        return morrey_norm(_times(out, v), e.s, e.t), math.prod(map(bmo_norm, symbols)) \
            * const * rhs_bilinear_morrey(f, g, w1, w2, e.p, e.q1, e.q2)
    return _stage_chunks(cfg, win, (1, 1) + (2,) * n_sym), evaluate


def _maximal_control(commutator: bool, cfg: ExperimentConfig, stage: int, win: Window,
                     notes: dict):
    mp, mq, alpha, r1, r2 = (cfg.params[k] for k in ("p", "q", "alpha", "r1", "r2"))
    notes["morrey_weight_convention"] = "integrand |f|^q * w, Lebesgue normalizer |Q|"
    pair = (cfg.params["vartheta1"] * r1, cfg.params["vartheta2"] * r2) if commutator else (r1, r2)
    n_sym = cfg.params["n_symbols"] if commutator else 0
    [w] = _weights(cfg, win, "w")

    def evaluate(f, g, *symbols):
        return morrey_norm(_fractional(cfg, f, g, alpha, symbols), mp, mq, w), \
            math.prod(map(bmo_norm, symbols)) \
            * morrey_norm(m_alpha_r(f, g, alpha, pair, "dyadic"), mp, mq, w)
    return _stage_chunks(cfg, win, (1, 1) + (2,) * n_sym), evaluate


def _weak_type(necessity: bool, cfg: ExperimentConfig, stage: int, win: Window, notes: dict):
    e, kind, v, w1, w2, const = hypothesis(cfg, win)
    notes["condition_kind"] = kind.value
    # the stage's ratios; the extremal check that the pair's build opens and evaluate closes
    q0, ratios, pending = _q0(cfg.params, win), [], []

    def extremal(window):  # the necessity argument's pair, in the last slot; its threshold
        qp = q0 if cfg.params["qprime_level"] is None and cfg.params["qprime_index"] is None \
            else _q0(cfg.params, window, key="qprime")
        f, g, lam = necessity_pair(w1, w2, qp, e)
        pending.append({"refinement": stage, "lambda": lam})
        notes.setdefault("extremal_checks", []).append(pending[-1])
        return f, g

    def evaluate(f, g):
        # m_alpha_r and rhs_bilinear_morrey_from per chunk (each batch entry gets its
        # unbatched bits); the weak functional per entry, read in place, at its thresholds
        big_m = m_alpha_r(f, g, e.alpha, (e.r1, e.r2), "dyadic")
        lhs = [float(weak_morrey_functional(big_m.entry(i), v, e.t, e.s, q0))
               for i in range(len(big_m.values))]
        rhs = [float(x) for x in const * rhs_bilinear_morrey_from(f, g, w1, w2, e.p, e.q1,
                                                                  e.q2, q0)]
        ratios.extend(map(_ratio, lhs, rhs))
        if not pending:
            return lhs, rhs
        c_obs = max(x for x in ratios if x != INF)  # the extremal row counts itself
        bad = int(not lhs[0] <= 2.0 * c_obs * rhs[0] * (1.0 + 1e-9))
        pending.pop().update(c_observed=c_obs, passed=not bad)
        return lhs, rhs, bad
    return _stage_chunks(cfg, win, (1, 1), {cfg.trials - 1: ("extremal", extremal)}
                         if necessity else {}), evaluate


def _stein_weiss_exponents(params: Mapping, n: int) -> tuple[float, float, float, float]:
    """SW101's (p, q, s, t): 1/q = 1/q1 + 1/q2, 1/p = 1/p1 + 1/p2, and s, t at the operator's
    fractional order n - alpha; solve_q, solve_st and solve_weak_t raise where one is
    undefined."""
    order, r = n - params["alpha"], params["r"]
    q, p = solve_q(params["q1"], params["q2"]), solve_q(params["p1"], params["p2"])
    s, _ = solve_st(n, order, p, q, r)
    return p, q, s, solve_weak_t(n, order, q, r)


def _stein_weiss(cfg: ExperimentConfig, stage: int, win: Window, notes: dict):
    n = cfg.window.dim
    alpha, beta, gamma1, gamma2, q1, q2, p1, p2 = (
        cfg.params[k] for k in ("alpha", "beta", "gamma1", "gamma2", "q1", "q2", "p1", "p2"))
    p, q, s, t = _stein_weiss_exponents(cfg.params, n)
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

    def evaluate(f, g):
        return morrey_norm(_times(bt_alpha(f, g, alpha, depth), wl), s, t), \
            morrey_norm(_times(f, v1), p1, q1) * morrey_norm(_times(g, v2), p2, q2)
    return _stage_chunks(cfg, win), evaluate


def _john_nirenberg(cfg: ExperimentConfig, stage: int, win: Window, notes: dict):
    exponents = (1.0, 2.0, 4.0)
    notes["telescoping_bound"] = "max |mean_Q0 b - mean_Q b| <= k 2^n ||b||, checked exactly"

    def evaluate(b, log):  # log|x| is swept at every exponent and checked; random b at e = 1, 4
        rows, bad = [], 0
        for sups in oscillation_sups(b, exponents if log else (1.0, 4.0)).T.tolist():
            ratios = [s / sups[0] if sups[0] else 0.0 for s in sups]
            bad += ratios[-1] + 1e-12 < ratios[0]
            if log:
                notes.setdefault("log_symbol", {})[f"stage_{stage}"] = \
                    {f"e{int(ee)}": r for ee, r in zip(exponents, ratios)}
                bad += not all(map(math.isfinite, ratios))
                bad += not (ratios[0] <= ratios[1] + 1e-12 and ratios[1] <= ratios[2] + 1e-12)
                bad += telescoping_defect(b, sups[0]) > 1e-12
            rows.append((ratios[-1], max(ratios[0], 1e-300)))
        return *zip(*rows), bad
    chunks = _stage_chunks(cfg, win, (3,), {0: ("log_abs", lambda w: [log_abs(w)])})
    return ((trials, label, [b, label == "log_abs"]) for trials, label, (b,) in chunks), evaluate


def _decompose(cfg: ExperimentConfig, kinds, f: LatticeFunction, g: LatticeFunction, q0: Cube):
    """Yield per trial of the chunk (f, g), per kind ('cz' or 'cz_alpha'): the forest at the
    config's parameters, (theta1, theta2) or (r1, r2, alpha), and its verify_decomposition
    violations.  One table pass over the chunk builds every forest and a second of its own
    over the raw (f, g) rechecks them; each trial reads its slice of both, and its (f, g)
    in place, as entries of the chunk's batches (no copy, no second finiteness check)."""
    args = [tuple(cfg.params[key] for key in _CZ_KINDS[kind]) for kind in kinds]
    specs = [(*a, None) if kind == "cz" else a for kind, a in zip(kinds, args)]
    # the recheck never reads the build pass's tables
    passes = [functional_tables(f, g, q0, specs) for _ in range(2)]
    for i in range(len(f.values)):
        fi, gi = f.entry(i), g.entry(i)
        built, checks = ([{level: t[i] for level, t in table.items()} for table in tables]
                         for tables in passes)
        forests = [(cz_decompose if kind == "cz" else cz_decompose_alpha)(fi, gi, q0, *a, tables=t)
                   for kind, a, t in zip(kinds, args, built)]
        yield [(d, verify_decomposition(d, fi, gi, f.window, *spec, tables=t))
               for d, spec, t in zip(forests, specs, checks)]


def decompose(cfg: ExperimentConfig) -> tuple[Decomposition, list[str]]:
    """`morreylab decompose`: the stopping-time forest of the config's kind for trial 0 on
    the base window, and its verify_decomposition violations (cfg: a CZ_INV config parsed
    with DECOMPOSE_KEYS)."""
    if cfg.experiment != "CZ_INV":
        raise ValidationError(f"decompose needs a CZ_INV config; got {cfg.experiment}")
    f, g = (LatticeFunction(cfg.window, x[None]) for x in _drawn(cfg.seed, cfg.window, 0))
    ((d, bad),), = _decompose(cfg, (cfg.params["kind"],), f, g, _q0(cfg.params, cfg.window))
    return d, bad


def _cz_invariants(cfg: ExperimentConfig, stage: int, win: Window, notes: dict):
    q0 = _q0(cfg.params, win)
    notes["theta"], notes["alpha_variant"] = (tuple(cfg.params[k] for k in keys)
                                              for keys in _CZ_KINDS.values())

    def evaluate(f, g):  # each trial's count of violations, of both kinds
        bad = [sum(len(msgs) for _, msgs in checked)
               for checked in _decompose(cfg, tuple(_CZ_KINDS), f, g, q0)]
        return bad, [1.0] * len(bad), sum(bad)
    return ((trials, "spiky", arrays) for trials, _, arrays in _stage_chunks(cfg, win)), evaluate


_BH_PAIRS = ((2.0, 2.0), (1.5, 3.0), (3.0, 1.5), (4.0, 4.0 / 3.0), (1.25, 5.0))


def _bh_domination(cfg: ExperimentConfig, stage: int, win: Window, notes: dict):
    tol = 1e-12
    notes.update({"pairs": _BH_PAIRS, "tolerance": tol})

    def evaluate(f, g):
        bh = bh_maximal(f, g).values
        worst = np.zeros(len(bh))
        for pair in _BH_PAIRS:
            m = m_alpha_r(f, g, 0.0, pair, "centered").values
            # relative excess: spiky inputs put the rounding of both sides far above 1e-12
            scale = np.maximum(np.abs(bh), np.abs(m))
            excess = np.divide(bh - m, scale, out=np.zeros_like(scale), where=scale > 0)
            worst = np.maximum(worst, excess.max(axis=tuple(range(1, excess.ndim))))
        return worst, [tol] * len(worst), int((worst > tol).sum())
    return _stage_chunks(cfg, win), evaluate


def _lemma39(cfg: ExperimentConfig, stage: int, win: Window, notes: dict):
    q1, q2, t_hat = cfg.params["q1"], cfg.params["q2"], cfg.params["t_hat"]
    notes["t_hat"] = t_hat = max(solve_q(q1, q2), 1.0) if t_hat is None else t_hat
    w1, w2 = _weights(cfg, win, "w1", "w2")

    def evaluate():  # the weights' joint constant and worst membership, on every trial's row
        rep = lemma39_check(w1, w2, q1, q2, t_hat)
        notes.setdefault("per_stage", {})[f"stage_{stage}"] = {"joint": rep.joint_const,
                                                               **rep.memberships}
        return [rep.joint_const] * cfg.trials, [max(rep.memberships.values())] * cfg.trials
    return [(range(cfg.trials), "weights", [])], evaluate


class _Experiment(NamedTuple):
    """keys maps each key besides _COMMON that the record reads to (default, domain); kind
    is the weight condition of the exponent keys, which hypothesis reads.  side(cfg, stage,
    win, notes), its variant bound, returns a stage's (chunks, evaluate): chunks yields
    (trials, label, arrays) in trial order, and evaluate(*arrays) gives (lhs, rhs), one value
    per trial of the chunk, and the chunk's violations if it checks any.  A side reaches the
    library through this module's globals, which a tracer may rebind.  It takes Q0 and Q'
    from the config's q0_* and qprime_* keys, not from win: to evaluate on a dilated window,
    move the config's level keys with it, as tests/test_scaling.py does."""

    keys: Mapping
    side: Callable
    kind: WeightConditionKind | None = None


def _strong(operator: str, kind: str, keys: Mapping) -> _Experiment:
    return _Experiment(keys, functools.partial(_strong_type, operator), WeightConditionKind(kind))


_EXPERIMENTS = {
    "T21": _strong("bilinear", "C22", {**_EXPONENTS, **_WEIGHTS}),
    "T22": _strong("bilinear", "C24", {**_EXPONENTS, **_WEIGHTS}),
    "T23": _strong("commutator", "C22", {**_EXPONENTS, **_WEIGHTS, **_SYMBOLS}),
    "T24": _strong("commutator", "C24", {**_EXPONENTS, **_WEIGHTS, **_SYMBOLS}),
    "T25": _Experiment(_CONTROL, functools.partial(_maximal_control, False)),
    "T26": _Experiment({**_CONTROL, **_SYMBOLS, "vartheta1": (1.25, _FINITE_OVER_1),
                        "vartheta2": (1.25, _FINITE_OVER_1)},
                       functools.partial(_maximal_control, True)),
    "T27_sufficiency": _Experiment({**_MAXIMAL, **_WEIGHTS, **_Q0},
                                   functools.partial(_weak_type, False), WeightConditionKind.C27),
    "T27_necessity": _Experiment({**_MAXIMAL, **_WEIGHTS, **_Q0, "qprime_level": (None, _INT),
                                  "qprime_index": (None, _INTS)},
                                 functools.partial(_weak_type, True), WeightConditionKind.C27),
    "T28": _strong("m_alpha_r", "C29", {**_MAXIMAL, **_WEIGHTS}),
    "T29": _strong("m_alpha_r", "C211", {**_MAXIMAL, "weight_u1": ("const:1", _WEIGHT),
                                         "weight_u2": ("const:1", _WEIGHT)}),
    "COR_BH": _strong("bh_maximal", "CBH", {
        **_MAXIMAL, "alpha": (0.0, _Domain(float, "{key} = 0", lambda v, w: v == 0)),
        **_WEIGHTS}),
    # the target weight is |x|^(-beta)
    "SW101": _Experiment({
        "alpha": (_REQUIRED, _ALPHA), "beta": (0.0, _Domain(
            float, "a finite {key}, < {n} if the window touches 0",
            lambda v, w: _power_ok(-v, w))),
        "gamma1": (0.0, _POWER), "gamma2": (0.0, _POWER), "q1": (_REQUIRED, _FINITE_OVER_1),
        "q2": (_REQUIRED, _FINITE_OVER_1), "p1": (_REQUIRED, _FLOAT), "p2": (_REQUIRED, _FLOAT),
        "r": (INF, _FLOAT)}, _stein_weiss),
    "JN": _Experiment({}, _john_nirenberg),
    "CZ_INV": _Experiment({
        **_Q0, "theta1": (2.0, _FINITE_OVER_1), "theta2": (2.0, _FINITE_OVER_1),
        "r1": (2.0, _FINITE), "r2": (2.0, _FINITE), "alpha": (0.5, _Domain(
            float, "0 <= {key} < n = {n}", lambda v, w: 0 <= v < w.dim))}, _cz_invariants),
    "BH_DOM": _Experiment({}, _bh_domination),
    "L39": _Experiment({
        "q1": (2.0, _OVER_1), "q2": (2.0, _OVER_1), "t_hat": (None, _FLOAT),
        "weight_w1": ("const:1", _WEIGHT), "weight_w2": ("const:1", _WEIGHT)}, _lemma39),
}

EXPERIMENTS = tuple(_EXPERIMENTS)
_KEYS = {"experiment"}.union(_COMMON, DECOMPOSE_KEYS, *(e.keys for e in _EXPERIMENTS.values()))


def run_experiment(cfg: ExperimentConfig) -> Report:
    """Run one experiment, stage by stage; deterministic for fixed (config, seed)."""
    rows, notes, violations = [], {}, 0
    for stage in cfg.refinements:
        win = cfg.window_at(stage)
        chunks, evaluate = _EXPERIMENTS[cfg.experiment].side(cfg, stage, win, notes)
        for trials, label, arrays in chunks:
            lhs, rhs, *bad = evaluate(*arrays)
            rows += [_row(stage, win, t, lo, hi, label) for t, lo, hi in zip(trials, lhs, rhs)]
            violations += sum(bad)
    # a nan or infinite side is a failed evaluation (the stage max would skip a nan)
    violations += sum(not (math.isfinite(r["lhs"]) and math.isfinite(r["rhs"])) for r in rows)
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


def write_json(obj, path) -> None:
    """Write obj through _json_safe as sorted, indented JSON with a final newline;
    byte-stable for equal objects."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(_json_safe(obj), fh, indent=2, sort_keys=True)
        fh.write("\n")


def emit_report(report: Report, path) -> tuple[str, str]:
    """Write <path>.csv (rows) and <path>.json (summary); byte-stable per seed."""
    path = str(path)
    csv_path, json_path = path + ".csv", path + ".json"
    lines = [",".join(report.columns)] + [
        ",".join(repr(v) if isinstance(v, float) else str(v) for v in map(row.get, report.columns))
        for row in report.rows]
    with open(csv_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    write_json(report.summary, json_path)
    return csv_path, json_path
