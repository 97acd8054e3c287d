"""RPD001 clean counterpart: every generator is explicitly seeded."""

import numpy as np

from repro.sim import streams
from repro.sim.random_source import RandomSource, derive_seed


def seeded_generator(master_seed):
    return np.random.default_rng(derive_seed(master_seed, "graph"))


def stream_draw(source: RandomSource, n):
    return source.stream(streams.BANDWIDTH).uniform(size=n)

