"""Replayable randomness built on a counter-based bit generator.

Every noise draw in a training run is addressed by (seed, stream, step):
the Philox4x64-10 key holds (seed, stream) and the step goes into the
counter block, so the draw for any step can be reproduced without
replaying the steps before it and is unaffected by what other runs or
threads do. Gaussian values are produced by the Box-Muller transform
applied to fixed counter slots, which pins coordinate j of a noise
vector to the j-th uniform pair of that step's stream.

Counter layout: numpy's Philox bumps its counter before producing the
first block, so a generator started at counter [0, 0, 0, t] emits the
blocks at counters [b, 0, 0, t] for b = 1, 2, ...; each block is four
64-bit words. gaussian_block evaluates the same cipher in numpy for a
whole (steps x seeds) grid at once and returns exactly the words
`np.random.Philox(counter=[0, 0, 0, t], key=[seed, stream]).random_raw`
would, so it agrees bit for bit with gaussian_vector at every
(seed, step). gaussian_steps feeds a trainer its per-step noise from
such draws, cutting the steps into chunks so that one draw evaluates at
most MAX_BLOCKS counter blocks (or one step's blocks, if that is more).
step_generators gives a trainer each step's generators by resetting one
generator per seed to that step's counter instead of building new ones.
"""

from typing import Iterable, Sequence

import numpy as np

# stream ids; distinct streams of one run never share counter space
STREAM_NOISE = 1
STREAM_INIT = 2
STREAM_BATCH = 3
STREAM_TRIAL = 4
STREAM_ORACLE = 5
STREAM_SELECT = 6

_U64 = np.uint64
_MASK64 = 0xFFFFFFFFFFFFFFFF
_TWO64 = 2.0**64

# Philox4x64-10 multipliers and Weyl key increments (Salmon et al., SC'11)
_M0 = 0xD2E7470EE14C6C93
_M1 = 0xCA5A826395121157
_W0 = 0x9E3779B97F4A7C15
_W1 = 0xBB67AE8584CAA73B
_ROUNDS = 10
_LO32 = _U64(0xFFFFFFFF)

# Upper bound on the counter blocks of one gaussian_steps draw; each
# block is four uint64 words in every temporary of the cipher.
MAX_BLOCKS = 4096


def _philox(seed: int, stream: int, step: int) -> np.random.Philox:
    if step < 0:
        raise ValueError(f"step must be nonnegative, got {step}")
    key = [_U64(seed & _MASK64), _U64(stream & _MASK64)]
    return np.random.Philox(counter=[0, 0, 0, _U64(step)], key=key)


def step_generator(seed: int, stream: int, step: int) -> np.random.Generator:
    """Generator whose output depends only on (seed, stream, step)."""
    return np.random.Generator(_philox(seed, stream, step))


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
    bits = [_philox(seed, stream, 0) for seed in seeds]
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
    raw = _philox(seed, stream, step).random_raw(dim)
    return (raw.astype(np.float64) + 1.0) / _TWO64


def _box_muller(raw: np.ndarray) -> np.ndarray:
    """Normals from consecutive word pairs along the last axis."""
    u1 = (raw[..., 0::2].astype(np.float64) + 1.0) / _TWO64  # in (0, 1]
    u2 = raw[..., 1::2].astype(np.float64) / _TWO64  # in [0, 1)
    return np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)


def gaussian_vector(seed: int, stream: int, step: int, dim: int) -> np.ndarray:
    """dim standard normals via Box-Muller on the (seed, stream, step) slot.

    Coordinate j consumes the uniform pair at counter slots (2j, 2j+1),
    so each coordinate is a pure function of (seed, stream, step, j).
    """
    if dim == 0:
        return np.zeros(0)
    return _box_muller(_philox(seed, stream, step).random_raw(2 * dim))


def _mulhilo(m: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """High and low 64-bit words of the 128-bit product m * x."""
    m_lo, m_hi = _U64(m & 0xFFFFFFFF), _U64(m >> 32)
    x_lo, x_hi = x & _LO32, x >> 32
    ll, lh, hl = m_lo * x_lo, m_lo * x_hi, m_hi * x_lo
    mid = (ll >> 32) + (lh & _LO32) + (hl & _LO32)
    hi = m_hi * x_hi + (lh >> 32) + (hl >> 32) + (mid >> 32)
    return hi, (mid << 32) | (ll & _LO32)


def philox_blocks(
    seeds: Sequence[int], stream: int, steps: Sequence[int], num_blocks: int
) -> np.ndarray:
    """Philox4x64-10 output words, shape (len(steps), len(seeds), 4 * num_blocks).

    Row (i, s) holds the first 4 * num_blocks words of random_raw from a
    numpy Philox keyed (seeds[s], stream) and started at counter
    [0, 0, 0, steps[i]], i.e. the blocks at counters [1..num_blocks, 0, 0, t].
    """
    steps = np.asarray(steps, dtype=np.int64)
    if steps.size and steps.min() < 0:
        raise ValueError(f"steps must be nonnegative, got {int(steps.min())}")
    shape = (len(steps), len(seeds), num_blocks)
    keys = [[(s & _MASK64), stream & _MASK64] for s in seeds]
    c0 = np.broadcast_to(np.arange(1, num_blocks + 1, dtype=_U64), shape)
    c1 = np.zeros(shape, dtype=_U64)
    c2 = np.zeros(shape, dtype=_U64)
    c3 = np.broadcast_to(steps.astype(_U64)[:, None, None], shape)
    for r in range(_ROUNDS):
        # round r uses the key bumped r times by the Weyl increments
        k0 = np.array([(k[0] + r * _W0) & _MASK64 for k in keys], dtype=_U64)[:, None]
        k1 = np.array([(k[1] + r * _W1) & _MASK64 for k in keys], dtype=_U64)[:, None]
        hi0, lo0 = _mulhilo(_M0, c0)
        hi1, lo1 = _mulhilo(_M1, c2)
        c0, c1, c2, c3 = hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0
    return np.stack([c0, c1, c2, c3], axis=-1).reshape(shape[0], shape[1], -1)


def gaussian_block(
    seeds: Sequence[int], stream: int, steps: Sequence[int], dim: int
) -> np.ndarray:
    """gaussian_vector(seed, stream, t, dim) for every (t, seed) in one draw.

    Returns shape (len(steps), len(seeds), dim); entry [i, s] equals
    gaussian_vector(seeds[s], stream, steps[i], dim) bit for bit.
    """
    if dim == 0:
        return np.zeros((len(steps), len(seeds), 0))
    raw = philox_blocks(seeds, stream, steps, -(-2 * dim // 4))
    return _box_muller(raw[..., : 2 * dim])


def steps_per_draw(num_seeds: int, dim: int) -> int:
    """Steps one gaussian_block may cover while staying within MAX_BLOCKS
    (always at least one step)."""
    return max(1, MAX_BLOCKS // (num_seeds * max(1, -(-2 * dim // 4))))


def gaussian_steps(seeds: Sequence[int], stream: int, num_steps: int, dim: int):
    """Yield the (len(seeds), dim) noise of steps 1..num_steps in order,
    drawn steps_per_draw steps at a time."""
    chunk = steps_per_draw(len(seeds), dim)
    for first in range(1, num_steps + 1, chunk):
        yield from gaussian_block(
            seeds, stream, np.arange(first, min(first + chunk, num_steps + 1)), dim
        )
