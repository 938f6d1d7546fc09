"""Unit tests for deterministic random streams."""

import pytest

from repro.sim import RandomStream, StreamFactory


def test_same_seed_same_sequence():
    a = RandomStream(7, "traffic")
    b = RandomStream(7, "traffic")
    assert [a.uniform(0, 1) for _ in range(5)] == [
        b.uniform(0, 1) for _ in range(5)
    ]


def test_different_names_are_independent():
    a = RandomStream(7, "traffic")
    b = RandomStream(7, "placement")
    assert [a.uniform(0, 1) for _ in range(5)] != [
        b.uniform(0, 1) for _ in range(5)
    ]


def test_different_seeds_differ():
    assert RandomStream(1).uniform(0, 1) != RandomStream(2).uniform(0, 1)


def test_expovariate_positive_and_mean():
    stream = RandomStream(0)
    samples = [stream.expovariate(100.0) for _ in range(2000)]
    assert all(s >= 0 for s in samples)
    mean = sum(samples) / len(samples)
    assert mean == pytest.approx(0.01, rel=0.2)


def test_expovariate_bad_rate():
    with pytest.raises(ValueError):
        RandomStream(0).expovariate(0)


def test_pareto_size_bounded():
    stream = RandomStream(0)
    for _ in range(500):
        size = stream.pareto_size(1.2, 100, 10000)
        assert 100 <= size <= 10000


def test_pareto_bad_shape():
    with pytest.raises(ValueError):
        RandomStream(0).pareto_size(0, 1, 10)


def test_zipf_index_range_and_skew():
    stream = RandomStream(0)
    counts = [0] * 10
    for _ in range(3000):
        index = stream.zipf_index(10, skew=1.0)
        assert 0 <= index < 10
        counts[index] += 1
    # Rank 0 must be clearly more popular than rank 9.
    assert counts[0] > counts[9] * 2


def _zipf_index_reference(rng, n, skew):
    """The original O(n)-per-draw linear scan, kept as the reference."""
    weights = [1.0 / (i + 1) ** skew for i in range(n)]
    total = sum(weights)
    point = rng.uniform(0, total)
    acc = 0.0
    for index, weight in enumerate(weights):
        acc += weight
        if point <= acc:
            return index
    return n - 1


@pytest.mark.parametrize("n,skew", [(1, 1.0), (2, 0.5), (10, 1.0),
                                    (1000, 0.99), (5000, 1.2), (64, 0.0)])
def test_zipf_index_draws_match_linear_scan(n, skew):
    fast = RandomStream(11, f"zipf-{n}-{skew}")
    slow = RandomStream(11, f"zipf-{n}-{skew}")
    draws = 2000 if n >= 1000 else 20000
    got = [fast.zipf_index(n, skew) for _ in range(draws)]
    want = [_zipf_index_reference(slow._rng, n, skew) for _ in range(draws)]
    assert got == want


def test_zipf_index_interleaved_pairs_match_linear_scan():
    """Alternating (n, skew) pairs on one stream keep one cache each."""
    fast = RandomStream(5, "mixed")
    slow = RandomStream(5, "mixed")
    pairs = [(7, 1.0), (300, 0.8), (7, 1.0), (300, 1.1)] * 500
    assert [fast.zipf_index(n, s) for n, s in pairs] == [
        _zipf_index_reference(slow._rng, n, s) for n, s in pairs]


def test_zipf_bad_n():
    with pytest.raises(ValueError):
        RandomStream(0).zipf_index(0)


def test_factory_caches_streams():
    factory = StreamFactory(3)
    assert factory.stream("x") is factory.stream("x")
    assert "x" in factory.names()


def test_factory_streams_reproducible():
    a = StreamFactory(3).stream("x").randint(0, 1000)
    b = StreamFactory(3).stream("x").randint(0, 1000)
    assert a == b


def test_choice_and_sample():
    stream = RandomStream(5)
    items = list(range(20))
    assert stream.choice(items) in items
    picked = stream.sample(items, 5)
    assert len(picked) == 5
    assert len(set(picked)) == 5


def test_shuffle_is_permutation():
    stream = RandomStream(5)
    items = list(range(10))
    shuffled = list(items)
    stream.shuffle(shuffled)
    assert sorted(shuffled) == items
