"""Every sampler takes its generator explicitly.

A sampler called without ``rng`` raises ``TypeError`` instead of drawing
from a stream the caller never named, so two nominally identical calls
cannot diverge silently and no draw escapes the named-stream registry.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bittorrent.bandwidth import saroiu_like_distribution
from repro.core.acceptance import AcceptanceGraph
from repro.core.peer import PeerPopulation
from repro.graphs.erdos_renyi import erdos_renyi_expected_degree, erdos_renyi_graph
from repro.graphs.generators import configuration_model_graph, random_regular_graph
from repro.sim import streams
from repro.sim.random_source import derive_seed
from repro.stratification.bvalues import rounded_normal_slots

IMPLICIT_CALLS = [
    pytest.param(lambda: erdos_renyi_graph(30, 0.2), id="erdos_renyi"),
    pytest.param(lambda: erdos_renyi_expected_degree(30, 4.0), id="erdos_renyi_expected_degree"),
    pytest.param(lambda: random_regular_graph(20, 3), id="random_regular"),
    pytest.param(
        lambda: configuration_model_graph([2, 3, 3, 2, 2, 2]), id="configuration_model"
    ),
    pytest.param(lambda: saroiu_like_distribution().sample(50), id="bandwidth_sample"),
    pytest.param(
        lambda: AcceptanceGraph.erdos_renyi(
            PeerPopulation.ranked(25, slots=2), expected_degree=6.0
        ),
        id="acceptance_erdos_renyi",
    ),
    pytest.param(lambda: rounded_normal_slots(40, 4.0, 0.5), id="rounded_normal_slots"),
]


@pytest.mark.parametrize("call", IMPLICIT_CALLS)
def test_implicit_call_raises_type_error(call) -> None:
    with pytest.raises(TypeError, match="rng"):
        call()


def test_explicit_rng_does_not_warn(recwarn: pytest.WarningsRecorder) -> None:
    rng = np.random.default_rng(derive_seed(123, streams.GRAPH))
    erdos_renyi_graph(30, 0.2, rng=rng)
    deprecations = [
        w for w in recwarn.list if issubclass(w.category, DeprecationWarning)
    ]
    assert not deprecations
