"""Sampled travel-time disturbances.

Each scenario perturbs every undirected arc of the routing network with an
independent positive multiplier drawn from one fixed sampler, a Normal(1, std
0.5) truncated at zero by resampling; only the count and the seed vary.
Sampled sets carry uniform probabilities (sample-average style) and the seed
they were drawn from.  With the count, that seed is the whole provenance: the
exported config block and generator name are derived from the two, so a set
can be regenerated or replayed bit-identically.  A file naming another
sampler, or another generator than its seed implies, is not replayed.
`sample_multipliers` draws a block of scenarios or trials at once, equal bit
for bit to the one-stream reference `sample_time_matrix`.

Note on the truncation: discarding non-positive draws shifts the multiplier
mean up to 1 + 0.5*phi(2)/Phi(2) = 1.0276 (phi/Phi the standard normal pdf/cdf)
and shrinks its standard deviation to about 0.471.  The raw probability of a
non-positive draw is Phi(-2) = 0.0228.  We keep the stated distribution rather
than renormalizing the mean.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .instance import PdpNetwork, is_integer, real_number, require_key

# numpy PCG64 seeded through SeedSequence([seed, stream...]); recorded in
# provenance so sets are reproducible across machines and worker counts.
RNG_ALGORITHM = "pcg64-seedsequence"

# Stream tags keeping solve-time sampling and evaluation sampling disjoint.
SCENARIO_STREAM = 0
EVALUATION_STREAM = 1

# numpy's SeedSequence hash constants and PCG64's LCG multiplier, which
# `sample_multipliers` reproduces (O'Neill 2014, PCG, HMC-CS-2014-0905).
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32 = (1 << 32) - 1
_MASK128 = (1 << 128) - 1
# Normals drawn per trial beyond one per arc.  A trial short of positive
# draws takes the reference sampler: that happens with probability 1e-25 at
# factory6's 91 arcs, 1e-10 at 351 arcs (27 nodes) and 0.3% at 820 (41).
_PAD = 32
# Trials drawn per chunk of the block sampler, which bounds its temporaries.
_CHUNK = 128

# The multiplier distribution: Normal(mean, std), redrawn while non-positive.
MULTIPLIER_MEAN = 1.0
MULTIPLIER_STD = 0.5
TRUNCATION = "resample-below-zero"
# How a scenario file names the sampler in its config block.
_SAMPLER = {"multiplier_mean": MULTIPLIER_MEAN,
            "multiplier_variance": MULTIPLIER_STD ** 2,
            "truncation": TRUNCATION}


@dataclass(frozen=True)
class ScenarioConfig:
    """`count` scenarios (or trials) of the fixed sampler from `seed`.

    Both are integers (`is_integer`: numpy's included, bools not) and are
    stored as Python ints, so a set drawn from the config exports its seed as
    JSON."""

    count: int
    seed: int

    def __post_init__(self):
        for name in ("count", "seed"):
            value = getattr(self, name)
            if not is_integer(value):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, int(value))
        if self.count < 1:
            raise ValueError(f"count of scenarios or trials must be >= 1, got {self.count}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")


@dataclass(frozen=True, eq=False)
class ScenarioSet:
    """Realized travel times per scenario.

    `multipliers[s, i, j]`, of shape (count, nv, nv), scales `nominal[i, j]`;
    matrices are symmetric with unit diagonal.  The set owns read-only float
    copies of the arrays it is given, so no alias of the caller's can change
    it after its checks, and the caller's arrays stay as they were.  It holds
    one [count, nv, nv] stack, the multipliers; `travel_times` derives
    `multipliers * nominal` afresh on each read, so a caller reads it once
    per use.  Multipliers are finite and positive, travel times finite;
    probabilities, of shape (count,), are finite, non-negative and sum to 1
    (uniform when sampled).  `seed` is the seed a sampled set was drawn from,
    and None for a set not drawn; a seed follows `ScenarioConfig`'s rule and
    is stored as a Python int, so the set exports a config that replays.
    Sets compare and hash by identity: arrays have no single truth value.
    """

    multipliers: np.ndarray
    nominal: np.ndarray
    probabilities: np.ndarray
    seed: int | None = None

    def __post_init__(self):
        for name in ("multipliers", "nominal", "probabilities"):
            arr = np.array(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        nominal = self.nominal
        nv = nominal.shape[0] if nominal.ndim else 0
        if nominal.shape != (nv, nv):
            raise ValueError(f"nominal times have shape {nominal.shape}, expected a square matrix")
        if self.multipliers.ndim != 3 or self.multipliers.shape[1:] != (nv, nv):
            raise ValueError(f"scenario multipliers have shape {self.multipliers.shape}, expected "
                             f"(count, {nv}, {nv}) for this instance")
        if self.probabilities.shape != self.multipliers.shape[:1]:
            raise ValueError("scenario probabilities do not match the multiplier count")
        # The solver's mass pruning is exact only for non-negative masses.
        if not (np.isfinite(self.probabilities).all() and (self.probabilities >= 0).all()):
            raise ValueError("scenario probabilities must be finite and non-negative")
        if abs(float(self.probabilities.sum()) - 1.0) > 1e-9:
            raise ValueError("scenario probabilities must sum to 1")
        if not (np.isfinite(self.multipliers).all() and (self.multipliers > 0).all()):
            raise ValueError("scenario multipliers must all be finite and positive")
        asymmetric = (self.multipliers != self.multipliers.transpose(0, 2, 1)).any(axis=(1, 2))
        if asymmetric.any():
            raise ValueError(f"scenario {asymmetric.argmax()} multipliers are not symmetric")
        # A finite multiplier can still overflow its travel time: the check
        # below rejects the infinity, so numpy need not warn about it.  The
        # multipliers are positive, so every time is finite exactly when the
        # times under the largest multiplier per arc are; that spares the
        # check a second [count, nv, nv] stack.
        with np.errstate(over="ignore"):
            finite = np.isfinite(self.multipliers.max(axis=0) * nominal).all()
        if not finite:
            raise ValueError("scenario travel times must all be finite")
        if self.seed is not None:
            object.__setattr__(self, "seed", ScenarioConfig(self.count, self.seed).seed)

    @property
    def count(self) -> int:
        return self.multipliers.shape[0]

    @property
    def travel_times(self) -> np.ndarray:
        """A fresh read-only [count, nv, nv] array `multipliers * nominal`."""
        times = self.multipliers * self.nominal
        times.setflags(write=False)
        return times


def check_network(scenarios: ScenarioSet, network: PdpNetwork) -> None:
    """Reject a set whose nominal times are not `network.travel_time`: a set
    drawn for another network."""
    nominal, own = scenarios.nominal, network.travel_time
    if nominal.shape != own.shape or not np.array_equal(nominal, own):
        raise ValueError(f"scenario set of nominal times with shape {nominal.shape} does not "
                         f"belong to this network, whose travel times have shape {own.shape}")


def check_alpha(alpha) -> float:
    """The reliability level as a Python float: the probability mass of the
    scenarios a plan may ignore, a real number in [0, 1)."""
    alpha = real_number(alpha, "alpha")
    if not (0.0 <= alpha < 1.0):
        raise ValueError(f"alpha must be in [0, 1), got {alpha}")
    return alpha


def scenario_rng(seed: int, stream: int, index: int) -> np.random.Generator:
    """Generator for one scenario (or trial), independent of worker count."""
    return np.random.default_rng(np.random.SeedSequence([seed, stream, index]))


def sample_time_matrix(nominal: np.ndarray,
                       rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """One realization: a fresh multiplier per undirected arc, applied to both
    directions of `nominal`.  Arcs are drawn in row-major upper-triangle order.

    The arcs take the positive values of the stream in order, topped up with
    further draws until every arc has one, so they are the first positives
    of one long draw of the stream.

    This is the reference sampler, one stream at a time: `sample_multipliers`
    must equal it on `scenario_rng(seed, stream, index)`, and falls back to it
    where its block path does not apply."""
    nv = nominal.shape[0]
    arcs = nv * (nv - 1) // 2
    draws = rng.normal(MULTIPLIER_MEAN, MULTIPLIER_STD, arcs)
    kept = draws[draws > 0.0]
    while len(kept) < arcs:
        draws = rng.normal(MULTIPLIER_MEAN, MULTIPLIER_STD, arcs - len(kept))
        kept = np.concatenate((kept, draws[draws > 0.0]))
    index = np.arange(nv)
    upper = index[:, np.newaxis] < index
    mult = np.ones((nv, nv))
    # Boolean masks fill in row-major order; through the transpose that is
    # the mirrored lower triangle in the same arc order.
    mult[upper] = kept
    mult.T[upper] = kept
    return mult, mult * nominal


def _seed_states(seed: int, stream: int, indices: np.ndarray) -> np.ndarray:
    """`SeedSequence([seed, stream, i]).generate_state(4, np.uint64)` for each
    i of `indices`, as rows of a (len(indices), 4) array; seed, stream and
    every index must be below 2**32, so that each is one entropy word.

    numpy's SeedSequence hashes the three words and a zero into a pool of
    four uint32 words, mixes every pool word into every other, then hashes
    the pool out cyclically into eight words, read as little-endian pairs.
    The hash constants advance the same way whatever the data, so one pass
    of uint32 array arithmetic (which wraps without a warning) serves the
    whole block."""
    const = _INIT_A

    def hashmix(value):
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * _MULT_A & _MASK32
        value = value * np.uint32(const)
        return value ^ value >> np.uint32(16)

    def mix(x, y):
        result = x * np.uint32(_MIX_MULT_L) - y * np.uint32(_MIX_MULT_R)
        return result ^ result >> np.uint32(16)

    words = (np.full(indices.shape, seed, np.uint32), np.full(indices.shape, stream, np.uint32),
             indices.astype(np.uint32), np.zeros(indices.shape, np.uint32))
    pool = [hashmix(word) for word in words]
    for src in range(len(pool)):
        for dst in range(len(pool)):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    const = _INIT_B
    state = []
    for k in range(8):
        value = pool[k % len(pool)] ^ np.uint32(const)
        const = const * _MULT_B & _MASK32
        value = value * np.uint32(const)
        state.append((value ^ value >> np.uint32(16)).astype(np.uint64))
    return np.stack([state[k] | state[k + 1] << np.uint64(32) for k in range(0, 8, 2)], axis=1)


def _pcg64_state(s0: int, s1: int, s2: int, s3: int) -> dict:
    """The state `PCG64` seeds itself to from the four `SeedSequence` words:
    the first two are the initial state and the last two the stream, and
    seeding takes two steps of the 128-bit LCG."""
    inc = ((s2 << 64 | s3) << 1 | 1) & _MASK128
    state = ((inc + (s0 << 64 | s1)) * _PCG_MULT + inc) & _MASK128
    return {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
            "has_uint32": 0, "uinteger": 0}


def _kept_draws(states: list, arcs: int) -> tuple[np.ndarray, np.ndarray]:
    """The first `arcs` positive multiplier draws of each trial whose
    `SeedSequence` words are a row of `states`, as a (len(states), arcs)
    array, and the indices of the trials short of positive draws, whose rows
    hold placeholders.

    One generator is reseeded per trial.  Each trial draws `arcs + _PAD`
    normals at once and keeps its first `arcs` positive ones, which is the
    reference's top-up loop on its own stream."""
    bitgen = np.random.PCG64(0)
    gen = np.random.Generator(bitgen)
    draws = np.empty((len(states), arcs + _PAD))
    for row, words in zip(draws, states):
        bitgen.state = _pcg64_state(*words)
        row[:] = gen.normal(MULTIPLIER_MEAN, MULTIPLIER_STD, arcs + _PAD)
    keep = draws > 0.0
    keep &= np.cumsum(keep, axis=1) <= arcs
    short = np.flatnonzero(keep.sum(axis=1) < arcs)
    keep[short, :arcs] = True
    keep[short, arcs:] = False
    return draws[keep].reshape(len(states), arcs), short


def sample_multipliers(nominal: np.ndarray, seed: int, stream: int, first: int,
                       count: int) -> np.ndarray:
    """Multipliers of scenarios (or trials) `first` to `first + count - 1` of
    `(seed, stream)`, as a (count, nv, nv) array.

    Row t equals `sample_time_matrix(nominal, scenario_rng(seed, stream,
    first + t))[0]` bit for bit.  The trials' `SeedSequence` states are
    computed together (`_seed_states`) and drawn in chunks of `_CHUNK`
    (`_kept_draws`), which bounds the temporary arrays.  Two cases take the
    reference itself: a seed, stream or index of 2**32 or more, whose
    entropy spans several words, and a trial short of positive draws."""
    nv = nominal.shape[0]
    arcs = nv * (nv - 1) // 2
    mult = np.empty((count, nv, nv))
    bulk = max(0, min(count, 2 ** 32 - first)) if max(seed, stream) < 2 ** 32 else 0
    states = _seed_states(seed, stream, np.arange(first, first + bulk)) if bulk else None
    rows, cols = np.triu_indices(nv, 1)
    diagonal = np.arange(nv)
    fallback = []
    for lo in range(0, bulk, _CHUNK):
        hi = min(lo + _CHUNK, bulk)
        kept, short = _kept_draws(states[lo:hi].tolist(), arcs)
        mult[lo:hi, rows, cols] = kept
        mult[lo:hi, cols, rows] = kept
        mult[lo:hi, diagonal, diagonal] = 1.0
        fallback.extend((lo + short).tolist())
    for t in fallback + list(range(bulk, count)):
        mult[t], _ = sample_time_matrix(nominal, scenario_rng(seed, stream, first + t))
    return mult


def generate_scenarios(network: PdpNetwork, config: ScenarioConfig) -> ScenarioSet:
    """Sample `config.count` independent realizations of the network's travel
    times, with uniform probabilities.  Fully reproducible from the seed; each
    scenario uses its own seed-derived stream, so the result does not depend on
    generation order or parallelism."""
    mults = sample_multipliers(network.travel_time, config.seed, SCENARIO_STREAM, 0,
                               config.count)
    probs = np.full(config.count, 1.0 / config.count)
    return ScenarioSet(multipliers=mults, nominal=network.travel_time, probabilities=probs,
                       seed=config.seed)


def single_scenario(travel_times: np.ndarray) -> ScenarioSet:
    """Wrap one fixed time matrix (typically the nominal one) as a set."""
    return ScenarioSet(multipliers=np.ones((1,) + np.shape(travel_times)),
                       nominal=travel_times, probabilities=np.array([1.0]))


def scenario_set_to_dict(scenario_set: ScenarioSet) -> dict:
    """JSON-compatible export: multipliers plus provenance.  Travel times are
    reconstructed against an instance's nominal matrix on import.  A seeded
    set exports the config that draws it again; a set without a seed exports
    none and names its generator "fixed"."""
    seed = scenario_set.seed
    return {
        "algorithm": "fixed" if seed is None else RNG_ALGORITHM,
        "seed": seed,
        "config": None if seed is None else {"count": scenario_set.count, "seed": seed,
                                             **_SAMPLER},
        "probabilities": scenario_set.probabilities.tolist(),
        "multipliers": scenario_set.multipliers.tolist(),
    }


def _numbers(doc: dict, field: str) -> np.ndarray:
    """Array `field` of a scenario document as floats.  Its entries must be
    JSON numbers: numpy would read a boolean as 0 or 1 and a string as the
    number it spells."""
    value = doc[field]
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"scenario {field} must be numbers: {exc}")
    entries = np.asarray(value, dtype=object).ravel()
    if not set(map(type, entries)) <= {int, float}:
        bad = next(entry for entry in entries if type(entry) not in (int, float))
        raise ValueError(f"scenario {field} must be numbers, got {bad!r}")
    return arr


def scenario_set_from_dict(doc: dict, network: PdpNetwork) -> ScenarioSet:
    """Rebuild a set exported by `scenario_set_to_dict` against `network`.
    ValueError names what is wrong with a document or config block that is
    not a JSON object or lacks a key, multipliers or probabilities that are
    not JSON numbers, a count or seed that is not a JSON integer, a config
    that names another sampler or another count than the file holds, a seed
    other than the config's, an algorithm other than the one
    `scenario_set_to_dict` names for that seed, and anything `ScenarioSet`
    rejects."""
    if not isinstance(doc, dict):
        raise ValueError(f"scenario document must be a JSON object, got {type(doc).__name__}")
    for key in ("multipliers", "probabilities"):
        require_key(doc, key, "scenario document")
    cfg_doc = doc.get("config")
    cfg_seed = None
    if cfg_doc is not None:
        if not isinstance(cfg_doc, dict):
            raise ValueError(f"config must be a JSON object or null, got {cfg_doc!r}")
        for key in (*_SAMPLER, "count", "seed"):
            require_key(cfg_doc, key, "config")
        if {key: cfg_doc[key] for key in _SAMPLER} != _SAMPLER:
            raise ValueError(f"scenarios were drawn by another sampler than {_SAMPLER}")
        for key in ("count", "seed"):
            if not is_integer(cfg_doc[key]):
                raise ValueError(f"config {key} must be an integer, got {cfg_doc[key]!r}")
        cfg_seed = ScenarioConfig(count=cfg_doc["count"], seed=cfg_doc["seed"]).seed
    # Only a sampled set has a seed, and it is the one its config drew with.
    seed = doc.get("seed")
    if seed is not None and not is_integer(seed):
        raise ValueError(f"seed must be an integer or null, got {seed!r}")
    if seed != cfg_seed:
        raise ValueError(f"seed {seed} does not match the config seed {cfg_seed}")
    algorithm = "fixed" if cfg_seed is None else RNG_ALGORITHM
    if doc.get("algorithm") != algorithm:
        raise ValueError(f"algorithm {doc.get('algorithm')!r} does not match the seed, "
                         f"which needs {algorithm!r}")
    scen = ScenarioSet(multipliers=_numbers(doc, "multipliers"), nominal=network.travel_time,
                       probabilities=_numbers(doc, "probabilities"), seed=cfg_seed)
    if cfg_doc is not None and cfg_doc["count"] != scen.count:
        raise ValueError(f"config count {cfg_doc['count']} does not match the "
                         f"{scen.count} scenarios in the file")
    return scen
