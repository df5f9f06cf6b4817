"""Counter-based random streams: replay and independence guarantees."""

import numpy as np
import pytest

from dpckpt import rng

from references import gaussian_row


def test_step_generator_replays():
    a = rng.step_generator(3, rng.STREAM_NOISE, 17).standard_normal(8)
    b = rng.step_generator(3, rng.STREAM_NOISE, 17).standard_normal(8)
    assert np.array_equal(a, b)


def test_streams_and_steps_are_independent_keys():
    base = rng.step_generator(3, rng.STREAM_NOISE, 17).standard_normal(8)
    other_step = rng.step_generator(3, rng.STREAM_NOISE, 18).standard_normal(8)
    other_stream = rng.step_generator(3, rng.STREAM_BATCH, 17).standard_normal(8)
    other_seed = rng.step_generator(4, rng.STREAM_NOISE, 17).standard_normal(8)
    assert not np.array_equal(base, other_step)
    assert not np.array_equal(base, other_stream)
    assert not np.array_equal(base, other_seed)


def test_stream_ids_are_distinct():
    ids = [
        rng.STREAM_NOISE,
        rng.STREAM_INIT,
        rng.STREAM_BATCH,
        rng.STREAM_TRIAL,
        rng.STREAM_ORACLE,
        rng.STREAM_SELECT,
    ]
    assert len(set(ids)) == len(ids)


def test_gaussian_rows_deterministic_and_standard():
    a = rng.gaussian_rows([5], rng.STREAM_NOISE, 0, 2, 1, 200_000)[0, 0]
    b = rng.gaussian_rows([5], rng.STREAM_NOISE, 0, 2, 1, 200_000)[0, 0]
    assert np.array_equal(a, b)
    assert abs(a.mean()) < 0.01
    assert a.std() == pytest.approx(1.0, abs=0.01)
    # kurtosis distinguishes a Gaussian from, say, uniform noise
    assert np.mean(a**4) == pytest.approx(3.0, abs=0.05)


def test_uniform_vector_range():
    u = rng.uniform_vector(1, rng.STREAM_INIT, 0, 100_000)
    assert u.min() > 0.0
    assert u.max() <= 1.0
    assert u.mean() == pytest.approx(0.5, abs=0.01)


def test_negative_step_rejected_but_seed_wraps():
    with pytest.raises(ValueError):
        rng.step_generator(0, rng.STREAM_NOISE, -2)
    # seeds are masked to 64 bits so derived (possibly huge) seeds always work
    a = rng.step_generator(-1, rng.STREAM_NOISE, 0).standard_normal(4)
    b = rng.step_generator(2**64 - 1, rng.STREAM_NOISE, 0).standard_normal(4)
    assert np.array_equal(a, b)


@pytest.mark.parametrize("dim", [1, 3, 10, 21, 200])
def test_gaussian_rows_match_the_per_row_reference(dim):
    # odd dims leave half of each row's last counter block unused
    for seed in (-1, 0, 2**64 - 1):
        for lane, first in ((0, 0), (0, 7), (5, 2**40)):
            rows = rng.gaussian_rows([seed], rng.STREAM_NOISE, lane, first, 3, dim)[0]
            assert rows.shape == (3, dim)
            for i, row in enumerate(rows):
                want = gaussian_row(seed, rng.STREAM_NOISE, lane, first + i, dim)
                assert np.array_equal(row, want)


@pytest.mark.parametrize("dim", [1, 3, 21])
@pytest.mark.parametrize("lane", [0, 3])
def test_gaussian_rows_prefix_equals_the_shorter_draw(lane, dim):
    long = rng.gaussian_rows([9], rng.STREAM_TRIAL, lane, 0, 150, dim)[0]
    short = rng.gaussian_rows([9], rng.STREAM_TRIAL, lane, 0, 100, dim)[0]
    assert np.array_equal(long[:100], short)


@pytest.mark.parametrize("count", [1, 81])
@pytest.mark.parametrize("dim", [1, 3, 200])
def test_gaussian_rows_of_a_seed_list_equal_the_per_seed_draws_stacked(dim, count):
    """One stacked Box-Muller pass gives each seed's own draw bit for bit,
    at wrapped and top-bit seeds, far lanes and a first row past 0."""
    seeds = [0, 2**63, 2**64 - 1]
    for lane, first in ((0, 0), (3, 5), (2**62, 2**40 + 3)):
        rows = rng.gaussian_rows(seeds, rng.STREAM_NOISE, lane, first, count, dim)
        assert rows.shape == (len(seeds), count, dim)
        for block, seed in zip(rows, seeds, strict=True):
            alone = rng.gaussian_rows([seed], rng.STREAM_NOISE, lane, first, count, dim)[0]
            assert np.array_equal(block, alone)
            for i in (0, count - 1):
                want = gaussian_row(seed, rng.STREAM_NOISE, lane, first + i, dim)
                assert np.array_equal(block[i], want)


def test_raw_rows_are_unchanged_by_a_step_generator_draw_in_between():
    """raw_rows sets the whole state of its one shared Philox at each draw, so
    neither a step_generator draw nor another raw_rows draw in between changes
    its words, which equal those of a Philox built at the rows' counter."""
    first = rng.raw_rows(7, rng.STREAM_BATCH, 2, 9, 4, 6).copy()
    rng.step_generator(7, rng.STREAM_BATCH, 9).standard_normal(3)
    rng.raw_rows(8, rng.STREAM_NOISE, 0, 0, 1, 3)
    again = rng.raw_rows(7, rng.STREAM_BATCH, 2, 9, 4, 6)
    assert np.array_equal(first, again)
    key = [np.uint64(7), np.uint64(rng.STREAM_BATCH)]
    fresh = np.random.Philox(counter=[np.uint64(9 * 2), 0, 0, np.uint64(2)], key=key)
    assert np.array_equal(again, fresh.random_raw(4 * 8).reshape(4, 8)[:, :6])


def test_steps_per_draw_keeps_a_chunk_within_max_blocks(monkeypatch):
    # 3 seeds x 2 blocks a row: 12 blocks allow 2 steps a chunk
    monkeypatch.setattr(rng, "MAX_BLOCKS", 12)
    assert rng.steps_per_draw(3, 3) == 2
    # a single step larger than the bound is still drawn whole
    assert rng.steps_per_draw(3, 200) == 1


def test_gaussian_rows_reject_a_negative_first_row_or_lane():
    with pytest.raises(ValueError):
        rng.gaussian_rows([0], rng.STREAM_NOISE, 0, -1, 2, 3)
    with pytest.raises(ValueError):
        rng.gaussian_rows([0], rng.STREAM_NOISE, -1, 0, 2, 3)


# several seeds, wrapped ones included, over consecutive steps that start
# at 1 or straddle 2**32
_SEEDS = [3, -1, 2**64 - 1, 2**63 + 5]
_STEP_RUNS = pytest.mark.parametrize(
    "steps", [range(1, 7), range(2**32 - 2, 2**32 + 4)], ids=["from-1", "across-2**32"]
)


@_STEP_RUNS
def test_step_generators_choose_like_fresh_generators(steps):
    # strict: one list of generators per step, one generator per seed
    for t, gens in zip(steps, rng.step_generators(_SEEDS, rng.STREAM_BATCH, steps), strict=True):
        for seed, gen in zip(_SEEDS, gens, strict=True):
            fresh = rng.step_generator(seed, rng.STREAM_BATCH, t)
            got = gen.choice(3500, 128, replace=False)
            assert np.array_equal(got, fresh.choice(3500, 128, replace=False))


@_STEP_RUNS
def test_step_generators_drop_a_buffered_uint32_at_the_next_step(steps):
    for t, gens in zip(steps, rng.step_generators(_SEEDS, rng.STREAM_BATCH, steps)):
        for seed, gen in zip(_SEEDS, gens):
            fresh = rng.step_generator(seed, rng.STREAM_BATCH, t)
            # uniforms, then an odd count of bounded ints
            assert np.array_equal(gen.random(5), fresh.random(5))
            assert np.array_equal(gen.integers(0, 17, 3), fresh.integers(0, 17, 3))
            # half of a 64-bit word is left for the next step to drop
            assert gen.bit_generator.state["has_uint32"] == 1


def test_step_generators_reject_a_negative_step():
    gens = rng.step_generators([0], rng.STREAM_BATCH, [2, -1])
    next(gens)
    with pytest.raises(ValueError):
        next(gens)
