"""Sampled travel-time disturbances.

Each scenario perturbs every undirected arc of the routing network with an
independent positive multiplier drawn from one fixed sampler, a Normal(1, std
0.5) truncated at zero by resampling; only the count and the seed vary.
Sampled sets carry uniform probabilities (sample-average style) and the seed
they were drawn from.  With the count, that seed is the whole provenance: the
exported config block and generator name are derived from the two, so a set
can be regenerated or replayed bit-identically.  A file naming another sampler
is not replayed.

Note on the truncation: discarding non-positive draws shifts the multiplier
mean up to 1 + 0.5*phi(2)/Phi(2) = 1.0276 (phi/Phi the standard normal pdf/cdf)
and shrinks its standard deviation to about 0.471.  The raw probability of a
non-positive draw is Phi(-2) = 0.0228.  We keep the stated distribution rather
than renormalizing the mean.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .instance import PdpNetwork, is_json_int

# numpy PCG64 seeded through SeedSequence([seed, stream...]); recorded in
# provenance so sets are reproducible across machines and worker counts.
RNG_ALGORITHM = "pcg64-seedsequence"

# Stream tags keeping solve-time sampling and evaluation sampling disjoint.
SCENARIO_STREAM = 0
EVALUATION_STREAM = 1

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
    """`count` scenarios (or trials) of the fixed sampler from `seed`."""

    count: int
    seed: int

    def __post_init__(self):
        if self.count < 1:
            raise ValueError(f"scenario count must be >= 1, got {self.count}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")


@dataclass(frozen=True)
class ScenarioSet:
    """Realized travel times per scenario.

    `multipliers[s, i, j]`, of shape (count, nv, nv), scales `nominal[i, j]`;
    matrices are symmetric with unit diagonal.  The set derives the read-only
    `travel_times = multipliers * nominal` itself and keeps its own copy of
    `nominal`.  Multipliers are finite and positive, travel times finite;
    probabilities, of shape (count,), are finite, non-negative and sum to 1
    (uniform when sampled).  `seed` is the seed a sampled set was drawn from,
    and None for a set not drawn.
    """

    multipliers: np.ndarray
    nominal: np.ndarray
    probabilities: np.ndarray
    seed: int | None = None
    travel_times: np.ndarray = field(init=False)

    def __post_init__(self):
        nominal = np.array(self.nominal, dtype=float)
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
        # below rejects the infinity, so numpy need not warn about it.
        with np.errstate(over="ignore"):
            times = self.multipliers * nominal
        if not np.isfinite(times).all():
            raise ValueError("scenario travel times must all be finite")
        object.__setattr__(self, "nominal", nominal)
        object.__setattr__(self, "travel_times", times)
        for arr in (self.multipliers, nominal, self.probabilities, times):
            arr.setflags(write=False)

    @property
    def count(self) -> int:
        return self.multipliers.shape[0]


def sample_multiplier(rng: np.random.Generator) -> float:
    """One positive travel-time multiplier of the fixed sampler."""
    value = rng.normal(MULTIPLIER_MEAN, MULTIPLIER_STD)
    while value <= 0.0:
        value = rng.normal(MULTIPLIER_MEAN, MULTIPLIER_STD)
    return float(value)


def scenario_rng(seed: int, stream: int, index: int) -> np.random.Generator:
    """Generator for one scenario (or trial), independent of worker count."""
    return np.random.default_rng(np.random.SeedSequence([seed, stream, index]))


def sample_time_matrix(nominal: np.ndarray,
                       rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """One realization: a fresh multiplier per undirected arc, applied to both
    directions of `nominal`.  Arcs are drawn in row-major upper-triangle order.

    The arcs take the positive values of the stream in order, topped up with
    further draws until every arc has one, so the matrix equals a per-arc
    `sample_multiplier` loop bit for bit."""
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


def generate_scenarios(network: PdpNetwork, config: ScenarioConfig) -> ScenarioSet:
    """Sample `config.count` independent realizations of the network's travel
    times, with uniform probabilities.  Fully reproducible from the seed; each
    scenario uses its own seed-derived stream, so the result does not depend on
    generation order or parallelism."""
    nv = network.size
    mults = np.empty((config.count, nv, nv))
    for s in range(config.count):
        rng = scenario_rng(config.seed, SCENARIO_STREAM, s)
        mults[s], _ = sample_time_matrix(network.travel_time, rng)
    probs = np.full(config.count, 1.0 / config.count)
    return ScenarioSet(multipliers=mults, nominal=network.travel_time, probabilities=probs,
                       seed=config.seed)


def supremum_scenario(scenario_set: ScenarioSet) -> ScenarioSet:
    """Collapse a set to the single element-wise worst case.

    Any schedule feasible under the supremum times is feasible under every
    scenario in the input set.  Its times are the element-wise max of the
    input's (rounding is monotone, nominal times non-negative).  The result
    was not drawn, so it has no seed.
    """
    return ScenarioSet(multipliers=scenario_set.multipliers.max(axis=0, keepdims=True),
                       nominal=scenario_set.nominal, probabilities=np.array([1.0]))


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


def _require(obj: dict, keys, where: str) -> None:
    for key in keys:
        if key not in obj:
            raise ValueError(f"{where} is missing the key {key!r}")


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
    other than the config's, and anything `ScenarioSet` rejects."""
    if not isinstance(doc, dict):
        raise ValueError(f"scenario document must be a JSON object, got {type(doc).__name__}")
    _require(doc, ("multipliers", "probabilities"), "scenario document")
    cfg_doc = doc.get("config")
    cfg_seed = None
    if cfg_doc is not None:
        if not isinstance(cfg_doc, dict):
            raise ValueError(f"config must be a JSON object or null, got {cfg_doc!r}")
        _require(cfg_doc, (*_SAMPLER, "count", "seed"), "config")
        if {key: cfg_doc[key] for key in _SAMPLER} != _SAMPLER:
            raise ValueError(f"scenarios were drawn by another sampler than {_SAMPLER}")
        for key in ("count", "seed"):
            if not is_json_int(cfg_doc[key]):
                raise ValueError(f"config {key} must be an integer, got {cfg_doc[key]!r}")
        cfg_seed = ScenarioConfig(count=cfg_doc["count"], seed=cfg_doc["seed"]).seed
    # Only a sampled set has a seed, and it is the one its config drew with.
    seed = doc.get("seed")
    if seed is not None and not is_json_int(seed):
        raise ValueError(f"seed must be an integer or null, got {seed!r}")
    if seed != cfg_seed:
        raise ValueError(f"seed {seed} does not match the config seed {cfg_seed}")
    scen = ScenarioSet(multipliers=_numbers(doc, "multipliers"), nominal=network.travel_time,
                       probabilities=_numbers(doc, "probabilities"), seed=cfg_seed)
    if cfg_doc is not None and cfg_doc["count"] != scen.count:
        raise ValueError(f"config count {cfg_doc['count']} does not match the "
                         f"{scen.count} scenarios in the file")
    return scen
