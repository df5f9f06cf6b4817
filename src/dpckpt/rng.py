"""Replayable randomness built on a counter-based bit generator.

Every draw is a pure function of (seed, stream, counter): numpy's
Philox4x64-10 is keyed by (seed mod 2**64, stream), so the draws at any
counter can be reproduced without replaying the ones before it and are
unaffected by what other runs or threads do. numpy's Philox bumps its
counter before producing the first block, so a generator started at
counter c emits the blocks at c + 1, c + 2, ...; each block is four
64-bit words.

Draws come in rows of raw words. Row r of lane l holds the first `words`
words of the nb = ceil(words / 4) blocks at counters [r * nb + b, 0, 0, l]
for b = 1..nb, so that consecutive rows of a lane are one contiguous walk
of the counter and raw_rows draws any run of them with one native
random_raw call. raw_rows builds no generator: it moves one Philox, kept
per thread, to the run's first counter by setting its state (key, counter
and an empty buffer, which is all a Philox built at that address holds),
so a draw costs no SeedSequence. A row of dim normals is Box-Muller on
2 * dim words, coordinate j taking words (2j, 2j + 1); gaussian_rows
draws the same rows for a list of seeds and runs Box-Muller once over
the stacked (S, count, 2 * dim) words. A trainer's per-step
draws are lane 0, step t being row t - 1, drawn a chunk of steps at a
time: one gaussian_rows call for all seeds' noise for steps_per_draw
steps, each chunk covering at most MAX_BLOCKS counter blocks over its
seeds (or one step's blocks, if that is more). The trainer's noise rows
are dim normals of STREAM_NOISE; the practical trainer's diurnal batch
rows are 2B raw words of STREAM_BATCH, the same size as a row of B
normals. The dpld trials use lane = noise event and row = trial.

The init stream and the uniform minibatch sampler address a step through
counter word 3 instead: step_generator starts at [0, 0, 0, t], and
step_generators gives a trainer each step's generators by resetting one
generator per seed to that step's counter instead of building new ones.
"""

import threading
from typing import Iterable, Sequence

import numpy as np

# stream ids; distinct streams of one run never share counter space
STREAM_NOISE = 1
STREAM_INIT = 2
STREAM_BATCH = 3
STREAM_TRIAL = 4
STREAM_ORACLE = 5
STREAM_SELECT = 6

_MASK64 = 0xFFFFFFFFFFFFFFFF
_TWO64 = 2.0**64

# Upper bound on the counter blocks of one trainer chunk's draws, over all
# its seeds; each block is four uint64 words.
MAX_BLOCKS = 4096


def _state(seed: int, stream: int, low: int, word3: int) -> dict:
    """The state of a Philox of key (seed, stream) built at the counter
    low + (word3 << 192), with its buffer empty: low fills the low counter
    words, carrying upward as numpy's own walk does, and word3 is the top
    word."""
    counter = low + (word3 << 192)
    if low < 0 or word3 < 0 or counter >> 256:
        raise ValueError(f"counter address must be in [0, 2**256), got {low} and {word3}")
    return {
        "bit_generator": "Philox",
        "state": {
            "counter": [(counter >> shift) & _MASK64 for shift in (0, 64, 128, 192)],
            "key": [seed & _MASK64, stream & _MASK64],
        },
        "buffer": [0, 0, 0, 0],
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }


def _philox(seed: int, stream: int, low: int, word3: int) -> np.random.Philox:
    """A new Philox in _state(seed, stream, low, word3)."""
    bit = np.random.Philox()
    bit.state = _state(seed, stream, low, word3)
    return bit


# the Philox raw_rows moves to each draw's address, one per thread
_LOCAL = threading.local()


def _shared_philox(seed: int, stream: int, low: int, word3: int) -> np.random.Philox:
    """This thread's one raw_rows Philox, set to _state(seed, stream, low, word3)."""
    try:
        bit = _LOCAL.bit
    except AttributeError:
        bit = _LOCAL.bit = np.random.Philox()
    bit.state = _state(seed, stream, low, word3)
    return bit


def step_generator(seed: int, stream: int, step: int) -> np.random.Generator:
    """Generator whose output depends only on (seed, stream, step)."""
    return np.random.Generator(_philox(seed, stream, 0, step))


def step_generators(seeds: Sequence[int], stream: int, steps: Iterable[int]):
    """For each t in steps, yield the list of step_generator(seed, stream, t)
    over the seeds, made by repositioning one generator per seed.

    Each seed's Philox and Generator are built once. At step t its state is
    set from a dict made at build time with only the counter word 3 changed
    to t; that state has an empty buffer (buffer_pos 4) and no buffered
    uint32 (has_uint32 0), as a freshly built generator does, so whatever
    the previous step drew, the yielded generators equal fresh ones bit for
    bit. The same Generator objects come back every step: a caller draws
    step t from them before asking for step t + 1.
    """
    bits = [_philox(seed, stream, 0, 0) for seed in seeds]
    states = [bit.state for bit in bits]
    gens = [np.random.Generator(bit) for bit in bits]
    for t in steps:
        if t < 0:
            raise ValueError(f"step must be nonnegative, got {t}")
        for bit, state in zip(bits, states):
            state["state"]["counter"][3] = t
            bit.state = state
        yield gens


def uniform_vector(seed: int, stream: int, step: int, dim: int) -> np.ndarray:
    """dim uniforms in (0, 1], one fixed counter slot per coordinate."""
    raw = _philox(seed, stream, 0, step).random_raw(dim)
    return (raw.astype(np.float64) + 1.0) / _TWO64


def _row_blocks(words: int) -> int:
    """Counter blocks of one row of `words` words."""
    return -(-words // 4)


def raw_rows(
    seed: int, stream: int, lane: int, first: int, count: int, words: int
) -> np.ndarray:
    """(count, words) uint64 words: rows first..first + count - 1 of lane.

    Row r is the first `words` words of the blocks [r * nb + b, 0, 0, lane],
    b = 1..nb with nb = ceil(words / 4), of key (seed, stream); the rows
    come from one random_raw call of the thread's shared Philox, so any run
    of rows equals the same rows of a longer draw bit for bit.
    """
    nb = _row_blocks(words)
    raw = _shared_philox(seed, stream, first * nb, lane).random_raw(count * 4 * nb)
    return raw.reshape(count, 4 * nb)[:, :words]


def gaussian_rows(
    seeds: Sequence[int], stream: int, lane: int, first: int, count: int, dim: int
) -> np.ndarray:
    """(S, count, dim) standard normals, block s being rows first..first +
    count - 1 of lane of seeds[s]: Box-Muller on each seed's raw_rows of
    2 * dim words, coordinate j on words (2j, 2j + 1) of its row.

    Box-Muller runs once over the stacked (S, count, 2 * dim) words: the
    even words give u1 = (w + 1) / 2**64 in (0, 1] and the odd ones
    u2 = w / 2**64 in [0, 1), each half in one contiguous array that
    sqrt(-2 ln u1) and cos(2 pi u2) then overwrite; every element takes the
    same operations, so the same rounding, as on its own row."""
    words = np.stack([raw_rows(seed, stream, lane, first, count, 2 * dim) for seed in seeds])
    u1 = words[..., 0::2] + 1.0
    u1 /= _TWO64
    np.log(u1, out=u1)
    u1 *= -2.0
    np.sqrt(u1, out=u1)
    u2 = words[..., 1::2] / _TWO64
    u2 *= 2.0 * np.pi
    np.cos(u2, out=u2)
    u1 *= u2
    return u1


def steps_per_draw(num_seeds: int, dim: int) -> int:
    """Steps one chunk of rows the size of dim normals may cover while its
    draws, one per seed, stay within MAX_BLOCKS (always at least one step)."""
    return max(1, MAX_BLOCKS // (num_seeds * max(1, _row_blocks(2 * dim))))
