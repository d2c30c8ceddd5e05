import dataclasses
import json
import re

import numpy as np
import pytest
from scipy.stats import norm

from tugplan import (RoutePlan, ScenarioConfig, ScenarioSet, SolveConfig, build_network,
                     build_stochastic, generate_scenarios, load_instance, replay_failures,
                     scenario_set_from_dict, scenario_set_to_dict, simulate_route,
                     single_scenario, solve_alpha_zero_fast, solve_stochastic)
from tugplan import scenarios, solver
from tugplan.scenarios import (SCENARIO_STREAM, _pcg64_state, _seed_states, sample_multipliers,
                               sample_time_matrix, scenario_rng)

from conftest import single_task_dict


def truncated_moments(mean=1.0, std=0.5):
    """Closed-form mean and std of Normal(mean, std) conditioned on > 0."""
    a = (0.0 - mean) / std
    keep = 1.0 - norm.cdf(a)
    lam = norm.pdf(a) / keep
    t_mean = mean + std * lam
    t_var = std ** 2 * (1.0 + a * lam - lam ** 2)
    return t_mean, float(np.sqrt(t_var))


class _CountingRng:
    """Wraps a generator to count its calls and the normals they draw,
    exposing rejection frequency.  Given a `location`, every draw is centred
    there instead of where the caller asks, so a sampler with a fixed mean
    can be run at another one."""

    def __init__(self, seed, location=None):
        self.rng = np.random.default_rng(seed)
        self.location = location
        self.calls = 0
        self.drawn = 0

    def normal(self, mean, std, size=None):
        self.calls += 1
        self.drawn += 1 if size is None else size
        if self.location is not None:
            mean = self.location
        return self.rng.normal(mean, std, size)


class TestSampleMultiplier:
    def test_large_sample_statistics(self):
        # 448 nodes have 100,128 arcs, one multiplier each.
        nv = 448
        rng = _CountingRng(1234)
        mult, _ = sample_time_matrix(np.ones((nv, nv)), rng)
        draws = mult[np.triu_indices(nv, 1)]
        assert len(draws) == 100_128

        assert (draws > 0).all()

        t_mean, t_std = truncated_moments()
        assert t_mean == pytest.approx(1.0276, abs=2e-3)
        assert 1.02 <= draws.mean() <= 1.04
        assert abs(draws.mean() - t_mean) < 0.005

        assert 0.46 <= draws.std(ddof=1) <= 0.50
        assert abs(draws.std(ddof=1) - t_std) < 0.005

        raw_negative_rate = (rng.drawn - len(draws)) / rng.drawn
        assert 0.020 <= raw_negative_rate <= 0.026
        assert norm.cdf(-2.0) == pytest.approx(0.02275, abs=1e-4)


class TestSampleTimeMatrix:
    @pytest.mark.parametrize("mean", [1.0, 0.1])
    def test_equals_per_arc_multiplier_loop(self, mean):
        # The stream draws at `mean`.  At 1.0, streams of 20 to 40 nodes reject
        # enough draws that some need two or more top-ups; a mean of 0.1
        # rejects about 40% of the draws, so blocks are topped up several
        # times on small streams too.  Either way the order the top-ups are
        # appended in is checked.
        sizes = [2 + stream % 13 for stream in range(100)]
        sizes += [20 + stream % 21 for stream in range(200)]
        repeated = 0
        for stream, nv in enumerate(sizes):
            nominal = np.arange(1.0, nv * nv + 1.0).reshape(nv, nv)
            nominal = nominal + nominal.T
            rng = _CountingRng(stream, mean)
            mult, times = sample_time_matrix(nominal, rng)
            repeated += rng.calls >= 3
            # The arcs take, in order, the positives of one long raw draw of
            # the same stream, as many normals as the top-ups drew in all.
            raw = np.random.default_rng(stream).normal(mean, 0.5, rng.drawn)
            positives = raw[raw > 0.0]
            assert len(positives) == nv * (nv - 1) // 2
            expected = np.ones((nv, nv))
            arcs = iter(positives)
            for i in range(nv):
                for j in range(i + 1, nv):
                    expected[i, j] = expected[j, i] = next(arcs)
            assert np.array_equal(mult, expected)
            assert np.array_equal(times, expected * nominal)
        assert repeated >= 20


def reference_multipliers(nominal, seed, stream, first, count):
    """The per-trial reference: one generator and one matrix per index."""
    return np.array([sample_time_matrix(nominal, scenario_rng(seed, stream, first + t))[0]
                     for t in range(count)])


class TestSampleMultipliers:
    SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64]
    INDICES = [0, 1, 1023, 1024, 2**32 - 2, 2**32 - 1]

    @pytest.fixture
    def reference_calls(self, monkeypatch):
        """The generators the block sampler hands to the reference sampler."""
        calls = []

        def counting(nominal, rng):
            calls.append(rng)
            return sample_time_matrix(nominal, rng)

        monkeypatch.setattr(scenarios, "sample_time_matrix", counting)
        return calls

    @pytest.mark.parametrize("seed", [s for s in SEEDS if s < 2**32])
    @pytest.mark.parametrize("stream", [0, 1])
    def test_bulk_states_equal_seed_sequence(self, seed, stream):
        expected = np.array([np.random.SeedSequence([seed, stream, i]).generate_state(4, np.uint64)
                             for i in self.INDICES])
        states = _seed_states(seed, stream, np.array(self.INDICES))
        assert states.dtype == np.uint64
        assert np.array_equal(states, expected)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_entropy_of_several_words_takes_the_reference(self, tri3_network, seed,
                                                          reference_calls):
        # Only single-word seeds and indices have bulk states.
        sample_multipliers(tri3_network.travel_time, seed, 0, 2**32 - 2, 5)
        assert len(reference_calls) == (5 if seed >= 2**32 else 3)

    @pytest.mark.parametrize("seed", [0, 2**32 - 1])
    @pytest.mark.parametrize("index", [0, 1023, 2**32 - 1])
    def test_reseeded_generator_equals_scenario_rng(self, seed, index):
        bitgen = np.random.PCG64(0)
        gen = np.random.Generator(bitgen)
        gen.normal(size=3)
        for stream in (0, 1):
            words = _seed_states(seed, stream, np.array([index])).tolist()[0]
            bitgen.state = _pcg64_state(*words)
            reference = scenario_rng(seed, stream, index)
            assert bitgen.state == reference.bit_generator.state
            assert np.array_equal(gen.normal(1.0, 0.5, 200), reference.normal(1.0, 0.5, 200))

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("stream", [0, 1])
    @pytest.mark.parametrize("first, count", [(0, 1030), (2**32 - 2, 5)],
                             ids=["across-1024", "into-fallback"])
    def test_blocks_equal_the_reference_bit_for_bit(self, factory6_network, seed, stream,
                                                    first, count):
        nominal = factory6_network.travel_time
        got = sample_multipliers(nominal, seed, stream, first, count)
        expected = reference_multipliers(nominal, seed, stream, first, count)
        assert got.tobytes() == expected.tobytes()

    def test_short_rows_fall_back_to_the_reference(self, factory6_network, monkeypatch,
                                                   reference_calls):
        # Without padding every row with a non-positive draw among its first
        # 91 (about 88% of them) is short and takes the reference sampler.
        monkeypatch.setattr(scenarios, "_PAD", 0)
        nominal = factory6_network.travel_time
        got = sample_multipliers(nominal, 11, 1, 500, 300)
        assert 0 < len(reference_calls) < 300
        assert got.tobytes() == reference_multipliers(nominal, 11, 1, 500, 300).tobytes()


class TestGenerateScenarios:
    @pytest.mark.parametrize("seed", [5, 2**32 + 5])
    def test_equals_the_per_scenario_reference(self, factory6_network, seed):
        scen = generate_scenarios(factory6_network, ScenarioConfig(count=300, seed=seed))
        expected = reference_multipliers(factory6_network.travel_time, seed, SCENARIO_STREAM,
                                         0, 300)
        assert scen.multipliers.tobytes() == expected.tobytes()

    def test_single_scenario_probability(self, tri3_network):
        scen = generate_scenarios(tri3_network, ScenarioConfig(count=1, seed=5))
        assert scen.probabilities.tolist() == [1.0]

    def test_seeded_determinism(self, tri3_network):
        cfg = ScenarioConfig(count=8, seed=99)
        s1 = generate_scenarios(tri3_network, cfg)
        s2 = generate_scenarios(tri3_network, cfg)
        assert np.array_equal(s1.multipliers, s2.multipliers)
        assert np.array_equal(s1.travel_times, s2.travel_times)

    def test_different_seeds_differ(self, tri3_network):
        s1 = generate_scenarios(tri3_network, ScenarioConfig(count=4, seed=1))
        s2 = generate_scenarios(tri3_network, ScenarioConfig(count=4, seed=2))
        assert not np.array_equal(s1.multipliers, s2.multipliers)

    def test_per_arc_mean_on_large_set(self, tri3_network):
        scen = generate_scenarios(tri3_network, ScenarioConfig(count=1000, seed=3))
        nv = tri3_network.size
        for i in range(nv):
            for j in range(i + 1, nv):
                mean = scen.multipliers[:, i, j].mean()
                assert 1.0 <= mean <= 1.06, (i, j, mean)

    def test_multipliers_positive_and_symmetric(self, tri3_network):
        scen = generate_scenarios(tri3_network, ScenarioConfig(count=20, seed=17))
        assert (scen.multipliers > 0).all()
        for s in range(scen.count):
            assert np.array_equal(scen.multipliers[s], scen.multipliers[s].T)
            assert np.array_equal(scen.travel_times[s], scen.travel_times[s].T)

    def test_probabilities_uniform(self, tri3_network):
        scen = generate_scenarios(tri3_network, ScenarioConfig(count=40, seed=0))
        assert np.allclose(scen.probabilities, 1 / 40)
        assert scen.probabilities.sum() == pytest.approx(1.0, abs=1e-9)


class TestSupremum:
    # The fast path searches `travel_times.max(axis=0)`, the element-wise
    # worst case of a set.

    def test_dominates_every_scenario(self, tri3_network):
        scen = generate_scenarios(tri3_network, ScenarioConfig(count=1000, seed=21))
        sup = scen.travel_times.max(axis=0)
        assert (sup >= scen.travel_times).all()

    def test_feasible_under_sup_implies_feasible_everywhere(self, tri3_network):
        # Any route meeting its windows under the supremum times meets them
        # under each sampled scenario (simulation is monotone in travel time).
        scen = generate_scenarios(tri3_network, ScenarioConfig(count=25, seed=33))
        sup = scen.travel_times.max(axis=0)
        a, b = tri3_network.open_time, tri3_network.close_time
        routes = [(0, 1, 3, 5), (0, 2, 4, 5), (0, 1, 2, 3, 4, 5), (0, 2, 1, 4, 3, 5)]
        for route in routes:
            if simulate_route(route, sup, a, b).ok:
                for s in range(scen.count):
                    assert simulate_route(route, scen.travel_times[s], a, b).ok


class TestRoundTrip:
    def test_export_import_identity(self, tri3_network):
        scen = generate_scenarios(tri3_network, ScenarioConfig(count=12, seed=77))
        doc = json.loads(json.dumps(scenario_set_to_dict(scen)))
        back = scenario_set_from_dict(doc, tri3_network)
        assert np.array_equal(back.multipliers, scen.multipliers)
        assert np.array_equal(back.travel_times, scen.travel_times)
        assert np.array_equal(back.probabilities, scen.probabilities)
        assert scenario_set_to_dict(back) == doc

    @pytest.mark.parametrize("derive", [
        lambda scen, network: single_scenario(network.travel_time),
    ], ids=["single"])
    def test_sets_not_drawn_reload(self, tri3_network, derive):
        # A set that was not drawn exports no config and no seed, so its file
        # reloads.
        scen = derive(generate_scenarios(tri3_network, ScenarioConfig(count=30, seed=5)),
                      tri3_network)
        doc = json.loads(json.dumps(scenario_set_to_dict(scen)))
        assert (doc["algorithm"], doc["seed"], doc["config"]) == ("fixed", None, None)
        back = scenario_set_from_dict(doc, tri3_network)
        assert np.array_equal(back.travel_times, scen.travel_times)
        assert back.seed is None

    def test_shape_mismatch_rejected(self, tri3_network):
        doc = scenario_set_to_dict(
            generate_scenarios(tri3_network, ScenarioConfig(count=2, seed=1)))
        other = build_network(load_instance(json.dumps(single_task_dict())))
        with pytest.raises(ValueError, match="shape"):
            scenario_set_from_dict(doc, other)


def test_single_scenario_wrapper(tri3_network):
    scen = single_scenario(tri3_network.travel_time)
    assert scen.count == 1
    assert np.array_equal(scen.travel_times[0], tri3_network.travel_time)
    assert (scen.multipliers == 1.0).all()


@pytest.mark.parametrize("kwargs, message", [
    (dict(count=0, seed=1), "count"),
    (dict(count=3, seed=-4), "seed"),
    (dict(count=3, seed=1.5), "seed must be an integer, got 1.5"),
    (dict(count=3, seed=True), "seed must be an integer, got True"),
    (dict(count=2.5, seed=1), "count must be an integer, got 2.5"),
    (dict(count=True, seed=1), "count must be an integer, got True"),
])
def test_scenario_config_validation(kwargs, message):
    with pytest.raises(ValueError, match=message):
        ScenarioConfig(**kwargs)


@pytest.mark.parametrize("alpha", ["0.1", None, True, np.bool_(True), float("nan"), 1.0, -0.1],
                         ids=["string", "none", "bool", "numpy-bool", "nan", "one", "negative"])
def test_alpha_is_checked_by_one_rule(tri3_network, alpha):
    # `build_stochastic` raised TypeError for "0.1" and None, and for True it
    # named the range where `SolveConfig` named the type.
    scen = generate_scenarios(tri3_network, ScenarioConfig(count=3, seed=0))
    messages = []
    for entry in (lambda: SolveConfig(alpha=alpha),
                  lambda: build_stochastic(tri3_network, scen, alpha)):
        with pytest.raises(ValueError, match="alpha") as raised:
            entry()
        messages.append(str(raised.value))
    assert messages[0] == messages[1]


def test_scenario_config_stores_numpy_integers_as_ints(tri3_network):
    config = ScenarioConfig(count=np.int64(3), seed=np.uint64(2**63))
    assert (type(config.count), type(config.seed)) == (int, int)
    scen = generate_scenarios(tri3_network, config)
    back = scenario_set_from_dict(json.loads(json.dumps(scenario_set_to_dict(scen))),
                                  tri3_network)
    assert back.seed == 2**63
    assert np.array_equal(back.multipliers, scen.multipliers)


@pytest.mark.parametrize("seed, message", [
    (1.5, "seed must be an integer, got 1.5"),
    (True, "seed must be an integer, got True"),
    (-1, "seed must be non-negative, got -1"),
])
def test_scenario_set_applies_the_config_seed_rule(tri3_network, seed, message):
    # A set built directly, not drawn, takes the rule its export must meet.
    with pytest.raises(ValueError, match=message):
        ScenarioSet(multipliers=np.ones((1,) + tri3_network.travel_time.shape),
                    nominal=tri3_network.travel_time, probabilities=[1.0], seed=seed)


def test_scenario_set_stores_a_numpy_seed_as_an_int(tri3_network):
    drawn = generate_scenarios(tri3_network, ScenarioConfig(count=3, seed=5))
    scen = ScenarioSet(multipliers=drawn.multipliers, nominal=tri3_network.travel_time,
                       probabilities=drawn.probabilities, seed=np.uint64(5))
    assert type(scen.seed) is int
    doc = json.loads(json.dumps(scenario_set_to_dict(scen)))
    assert doc == scenario_set_to_dict(drawn)
    assert scenario_set_from_dict(doc, tri3_network).seed == 5


@pytest.mark.parametrize("key, value", [
    ("truncation", "clamp"),
    ("multiplier_mean", 1.1),
    ("multiplier_variance", 0.3),
    ("multiplier_variance", 0.0),
])
def test_replay_rejects_another_sampler(tri3_network, key, value):
    doc = scenario_set_to_dict(
        generate_scenarios(tri3_network, ScenarioConfig(count=2, seed=1)))
    assert doc["config"] == {"count": 2, "seed": 1, "multiplier_mean": 1.0,
                             "multiplier_variance": 0.25,
                             "truncation": "resample-below-zero"}
    doc["config"][key] = value
    with pytest.raises(ValueError, match="sampler"):
        scenario_set_from_dict(doc, tri3_network)


@pytest.mark.parametrize("edit, message", [
    ({"config": {"count": 500}}, "count 500"),
    ({"seed": 77}, "seed 77"),
    ({"config": None}, "seed 3"),
    ({"config": 5}, "config must be a JSON object"),
    ({"config": [1, 2]}, "config must be a JSON object"),
    ({"config": {"count": "3"}}, "config count must be an integer"),
    ({"config": {"count": 3.0}}, "config count must be an integer"),
    ({"config": {"count": True}}, "config count must be an integer"),
    ({"config": {"seed": True}, "seed": True}, "config seed must be an integer"),
    ({"config": {"seed": 3.0}, "seed": 3.0}, "config seed must be an integer"),
    ({"seed": 3.0}, "seed must be an integer or null"),
    ({"seed": "3"}, "seed must be an integer or null"),
    ({"probabilities": [{}, {}, {}]}, "must be numbers"),
])
def test_replay_rejects_provenance_that_drew_nothing(tri3_network, edit, message):
    # The provenance must name the draw that made the file: its config count
    # is the number of scenarios it holds, and its seed is the config's (a
    # file without a config has no seed).  Count and seeds are JSON integers:
    # a bool or a float would pass the comparisons (True == 1, 3.0 == 3).
    doc = scenario_set_to_dict(
        generate_scenarios(tri3_network, ScenarioConfig(count=3, seed=3)))
    for key, value in edit.items():
        if isinstance(value, dict):
            doc[key].update(value)
        else:
            doc[key] = value
    with pytest.raises(ValueError, match=message):
        scenario_set_from_dict(doc, tri3_network)


@pytest.mark.parametrize("field, value, message", [
    # numpy would read "0.5" as 0.5.
    ("probabilities", ["0.5", 0.5], "scenario probabilities must be numbers, got '0.5'"),
    ("multipliers", [[[1.0]], [[1.0, 1.0]]], "scenario multipliers must be numbers"),
], ids=["string", "ragged"])
def test_replay_names_the_field_of_a_bad_array(tri3_network, field, value, message):
    doc = scenario_set_to_dict(
        generate_scenarios(tri3_network, ScenarioConfig(count=2, seed=3)))
    doc[field] = value
    with pytest.raises(ValueError, match=message):
        scenario_set_from_dict(doc, tri3_network)


@pytest.mark.parametrize("seed, algorithm, expected", [
    (3, "mt19937", "'pcg64-seedsequence'"),
    (3, None, "'pcg64-seedsequence'"),
    (None, "pcg64-seedsequence", "'fixed'"),
], ids=["seeded-renamed", "seeded-deleted", "fixed-renamed"])
def test_replay_rejects_an_algorithm_the_seed_does_not_name(tri3_network, seed, algorithm,
                                                            expected):
    # A file names the generator `scenario_set_to_dict` wrote for its seed:
    # another name, or none, replayed as if it were that generator's.
    scen = generate_scenarios(tri3_network, ScenarioConfig(count=2, seed=3))
    if seed is None:
        scen = ScenarioSet(scen.multipliers, scen.nominal, scen.probabilities)
    doc = scenario_set_to_dict(scen)
    if algorithm is None:
        del doc["algorithm"]
    else:
        doc["algorithm"] = algorithm
    with pytest.raises(ValueError, match=re.escape(
            f"algorithm {algorithm!r} does not match the seed, which needs {expected}")):
        scenario_set_from_dict(doc, tri3_network)


def test_replay_rejects_a_document_that_is_not_an_object(tri3_network):
    doc = scenario_set_to_dict(
        generate_scenarios(tri3_network, ScenarioConfig(count=2, seed=3)))
    with pytest.raises(ValueError, match="document must be a JSON object"):
        scenario_set_from_dict([doc], tri3_network)


def test_scenario_set_rejects_nonpositive_multipliers(tri3_network):
    nv = tri3_network.size
    mults = np.ones((1, nv, nv))
    mults[0, 0, 1] = mults[0, 1, 0] = 0.0
    with pytest.raises(ValueError, match="positive"):
        ScenarioSet(multipliers=mults, nominal=tri3_network.travel_time,
                    probabilities=np.array([1.0]))


@pytest.mark.parametrize("probs", [
    [1.5, -0.5],
    [float("nan"), 1.0],
    [float("inf"), 0.0],
])
def test_scenario_set_rejects_bad_probabilities(tri3_network, probs):
    # The solver's mass pruning is exact only for non-negative, finite masses;
    # [1.5, -0.5] even sums to 1.
    nv = tri3_network.size
    mults = np.ones((2, nv, nv))
    with pytest.raises(ValueError, match="finite and non-negative"):
        ScenarioSet(multipliers=mults, nominal=tri3_network.travel_time,
                    probabilities=np.array(probs))


def test_replayed_negative_probabilities_rejected(tri3_network):
    doc = scenario_set_to_dict(
        generate_scenarios(tri3_network, ScenarioConfig(count=2, seed=1)))
    doc["probabilities"] = [1.5, -0.5]
    with pytest.raises(ValueError, match="non-negative"):
        scenario_set_from_dict(doc, tri3_network)


@pytest.mark.parametrize("value", [float("inf"), float("nan")])
def test_scenario_set_rejects_non_finite_multipliers(tri3_network, value):
    nv = tri3_network.size
    mults = np.ones((1, nv, nv))
    mults[0, 0, 1] = mults[0, 1, 0] = value
    with pytest.raises(ValueError, match="finite and positive"):
        ScenarioSet(multipliers=mults, nominal=tri3_network.travel_time,
                    probabilities=np.array([1.0]))


def test_scenario_set_rejects_asymmetry(tri3_network):
    nv = tri3_network.size
    mults = np.ones((1, nv, nv))
    mults[0, 0, 1] = 2.0
    with pytest.raises(ValueError, match="symmetric"):
        ScenarioSet(multipliers=mults, nominal=tri3_network.travel_time,
                    probabilities=np.array([1.0]))


def test_scenario_set_owns_its_arrays(tri3_network):
    # The set kept the caller's multipliers and probabilities and only
    # cleared their write flag: a set built from `base[:]` read
    # `multipliers[1, 0, 1] == -5.0` after `base[1, 0, 1] = -5.0`, and the
    # caller's view became read-only.
    nominal = tri3_network.travel_time
    base = np.full((2,) + nominal.shape, 1.5)
    probs = np.array([0.25, 0.75])
    view, prob_view = base[:], probs[:]
    scen = ScenarioSet(multipliers=view, nominal=nominal, probabilities=prob_view)
    base[1, 0, 1] = -5.0
    probs[0] = -1.0
    assert (scen.multipliers == 1.5).all()
    assert scen.probabilities.tolist() == [0.25, 0.75]
    for mine, held in ((view, scen.multipliers), (prob_view, scen.probabilities)):
        assert mine.flags.writeable and not held.flags.writeable
        assert not np.shares_memory(mine, held)


@pytest.mark.parametrize("make, message", [
    (lambda nominal: (np.array(1.0), nominal, [1.0]), r"multipliers have shape \(\)"),
    (lambda nominal: (np.ones(nominal.shape), nominal, [1.0]), "multipliers have shape"),
    (lambda nominal: (np.ones((1,) + nominal.shape), nominal[:-1, :-1], [1.0]),
     "multipliers have shape"),
    (lambda nominal: (np.ones((1,) + nominal.shape), nominal[0], [1.0]),
     "nominal times have shape"),
    (lambda nominal: (np.ones((2,) + nominal.shape), nominal, [1.0]),
     "do not match the multiplier count"),
], ids=["0-D", "2-D", "other-size-nominal", "1-D-nominal", "probability-count"])
def test_scenario_set_rejects_bad_shapes(tri3_network, make, message):
    mults, nominal, probs = make(tri3_network.travel_time)
    with pytest.raises(ValueError, match=message):
        ScenarioSet(multipliers=mults, nominal=nominal, probabilities=np.array(probs))


def test_scenario_set_derives_its_travel_times(tri3_network):
    nominal = tri3_network.travel_time.copy()
    mults = np.full((2,) + nominal.shape, 1.5)
    for m in mults:
        np.fill_diagonal(m, 1.0)
    scen = ScenarioSet(multipliers=mults, nominal=nominal, probabilities=np.array([0.5, 0.5]))
    # The multipliers are the only [S, nv, nv] array the set keeps; each read
    # derives a fresh stack, equal bit for bit to the product.
    held = [value for value in vars(scen).values() if isinstance(value, np.ndarray)]
    assert sum(arr.nbytes for arr in held) == (scen.multipliers.nbytes + scen.nominal.nbytes
                                               + scen.probabilities.nbytes)
    first, second = scen.travel_times, scen.travel_times
    assert not np.shares_memory(first, second)
    assert first.tobytes() == second.tobytes() == (mults * nominal).tobytes()
    for arr in (scen.multipliers, scen.nominal, scen.probabilities, first, second):
        assert not arr.flags.writeable
    # The caller's matrix stays writable and no longer reaches the set.
    nominal[0, 1] = 99.0
    assert scen.nominal[0, 1] == tri3_network.travel_time[0, 1]
    with pytest.raises(TypeError):
        ScenarioSet(multipliers=mults, nominal=nominal, probabilities=np.array([0.5, 0.5]),
                    travel_times=mults * nominal)


@pytest.mark.parametrize("entry, names_the_dead", [
    (solve_stochastic, True),
    (lambda network, scen: solve_stochastic(network, scen, SolveConfig(alpha=0.1)), False),
    (solve_alpha_zero_fast, True),
    (lambda network, scen: build_stochastic(network, scen, 0.1), False),
], ids=["sto", "sto-0.1", "sto-fast", "build_stochastic"])
@pytest.mark.parametrize("stretch", [1.0, 6.0], ids=["sampled", "forced-dead"])
def test_each_entry_reads_the_travel_times_once(tri3_network, monkeypatch, entry,
                                                names_the_dead, stretch):
    # Each read derives a fresh stack, so a read per scenario would cost S
    # stacks.  A stretch of 6 on the second scenario overshoots task 1's
    # deadline on its own arc: an alpha = 0 solve names it without a second
    # read.
    scen = generate_scenarios(tri3_network, ScenarioConfig(count=30, seed=3))
    mults = np.array(scen.multipliers)
    mults[1] *= stretch
    np.fill_diagonal(mults[1], 1.0)
    scen = ScenarioSet(multipliers=mults, nominal=scen.nominal,
                       probabilities=scen.probabilities)
    reads = []
    derive = ScenarioSet.travel_times.fget

    def counted(self):
        reads.append(self)
        return derive(self)

    monkeypatch.setattr(ScenarioSet, "travel_times", property(counted))
    result = entry(tri3_network, scen)
    assert reads == [scen]
    if names_the_dead:
        assert result.limiting_scenarios == ((1,) if stretch > 1.0 else ())


def test_count_extension_preserves_prefix(tri3_network):
    # Each scenario draws from its own (seed, index) stream, so growing the
    # set appends scenarios without disturbing the existing ones.
    small = generate_scenarios(tri3_network, ScenarioConfig(count=5, seed=64))
    large = generate_scenarios(tri3_network, ScenarioConfig(count=12, seed=64))
    assert np.array_equal(large.multipliers[:5], small.multipliers)


def test_scenario_sets_compare_and_hash_by_identity(tri3_network):
    first = generate_scenarios(tri3_network, ScenarioConfig(count=2, seed=1))
    second = generate_scenarios(tri3_network, ScenarioConfig(count=2, seed=1))
    assert first == first and first != second
    assert hash(first) == hash(first)
    assert len({first, second, first}) == 2


# Every entry point that takes a network and a scenario set, as (network, set).
_ENTRIES = {
    "solve_stochastic": solve_stochastic,
    "solve_alpha_zero_fast": solve_alpha_zero_fast,
    "build_stochastic": lambda network, scen: build_stochastic(network, scen, 0.0),
    "replay_failures": lambda network, scen: replay_failures(
        RoutePlan(routes=((0, 1, 3, 2, 4, 5),), n=2), network, scen),
}


@pytest.mark.parametrize("entry", list(_ENTRIES))
def test_set_of_another_network_rejected(tri3_network, factory6_network, entry):
    foreign = generate_scenarios(factory6_network, ScenarioConfig(count=3, seed=1))
    with pytest.raises(ValueError, match=r"shape \(14, 14\).*shape \(6, 6\)"):
        _ENTRIES[entry](tri3_network, foreign)


@pytest.mark.parametrize("entry", list(_ENTRIES))
def test_set_of_other_times_rejected(tri3_network, entry):
    # Same shape, other nominal times: only the values tell the sets apart.
    slower = dataclasses.replace(tri3_network, travel_time=tri3_network.travel_time * 2)
    foreign = generate_scenarios(slower, ScenarioConfig(count=3, seed=1))
    with pytest.raises(ValueError, match="does not belong to this network"):
        _ENTRIES[entry](tri3_network, foreign)


@pytest.mark.parametrize("entry", ["solve_stochastic", "solve_alpha_zero_fast"])
def test_rejected_set_never_reaches_the_search(tri3_network, factory6_network, monkeypatch,
                                               entry):
    def no_search(*args, **kwargs):
        raise AssertionError("the search was built")

    monkeypatch.setattr(solver, "_Search", no_search)
    slower = dataclasses.replace(tri3_network, travel_time=tri3_network.travel_time * 2)
    for foreign in (factory6_network, slower):
        scen = generate_scenarios(foreign, ScenarioConfig(count=3, seed=1))
        with pytest.raises(ValueError, match="does not belong to this network"):
            _ENTRIES[entry](tri3_network, scen)
    # The stub sits on the path: the network's own set reaches it.
    with pytest.raises(AssertionError, match="the search was built"):
        _ENTRIES[entry](tri3_network, generate_scenarios(tri3_network, ScenarioConfig(3, 1)))
