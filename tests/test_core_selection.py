"""Unit tests for neighbor-selection strategies."""

import math

import pytest

from repro.collection import IPToISPMapping, ISPOracle
from repro.core import (
    CompositeSelection,
    GeoSelection,
    ISPLocalitySelection,
    LatencySelection,
    RandomSelection,
    ResourceSelection,
)
from repro.errors import ConfigurationError


@pytest.fixture()
def env(dense_underlay):
    u = dense_underlay
    ids = u.host_ids()
    return u, ids[0], ids[1:30]


def test_random_is_permutation(env):
    _u, q, cands = env
    sel = RandomSelection(rng=1)
    out = sel.rank(q, cands)
    assert sorted(out) == sorted(cands)


def test_random_deduplicates(env):
    _u, q, cands = env
    sel = RandomSelection(rng=1)
    out = sel.rank(q, list(cands) + list(cands))
    assert sorted(out) == sorted(cands)


def test_isp_selection_with_oracle(env):
    u, q, cands = env
    sel = ISPLocalitySelection(u, oracle=ISPOracle(u))
    out = sel.rank(q, cands)
    hops = [u.routing.hops(u.asn_of(q), u.asn_of(c)) for c in out]
    assert hops == sorted(hops)


def test_isp_selection_with_mapping(env):
    u, q, cands = env
    sel = ISPLocalitySelection(u, mapping=IPToISPMapping(u, accuracy=1.0))
    out = sel.rank(q, cands)
    same = [c for c in cands if u.asn_of(c) == u.asn_of(q)]
    assert out[: len(same)] == [c for c in cands if c in same]


def test_isp_selection_requires_source(env):
    u, _q, _c = env
    with pytest.raises(ConfigurationError):
        ISPLocalitySelection(u)


def test_latency_selection_orders_by_predictor(env):
    u, q, cands = env
    sel = LatencySelection(lambda a, b: 2.0 * u.one_way_delay(a, b))
    out = sel.rank(q, cands)
    rtts = [u.one_way_delay(q, c) for c in out]
    assert rtts == sorted(rtts)


def test_geo_selection_orders_by_distance(env):
    u, q, cands = env
    sel = GeoSelection(lambda hid: u.host(hid).position)
    out = sel.rank(q, cands)
    dists = [u.host(q).position.distance_to(u.host(c).position) for c in out]
    assert dists == sorted(dists)


def test_geo_selection_none_position_ranks_last(env):
    u, q, cands = env
    missing = set(cands[:3])
    sel = GeoSelection(
        lambda hid: None if hid in missing else u.host(hid).position
    )
    out = sel.rank(q, cands)
    assert set(out[-3:]) == missing


def test_resource_selection_orders_by_capacity(env):
    u, q, cands = env
    sel = ResourceSelection(lambda hid: u.host(hid).resources.capacity_score())
    out = sel.rank(q, cands)
    caps = [u.host(c).resources.capacity_score() for c in out]
    assert caps == sorted(caps, reverse=True)


def test_select_top_k(env):
    u, q, cands = env
    sel = ResourceSelection(lambda hid: u.host(hid).resources.capacity_score())
    assert len(sel.select(q, cands, 5)) == 5
    assert sel.select(q, cands, 0) == []
    with pytest.raises(ConfigurationError):
        sel.select(q, cands, -1)


class TestComposite:
    def test_single_component_equals_component(self, env):
        u, q, cands = env
        lat = LatencySelection(lambda a, b: u.one_way_delay(a, b))
        comp = CompositeSelection([(lat, 1.0)])
        assert comp.rank(q, cands) == lat.rank(q, cands)

    def test_weights_shift_outcome(self, env):
        u, q, cands = env
        lat = LatencySelection(lambda a, b: u.one_way_delay(a, b))
        res = ResourceSelection(
            lambda hid: u.host(hid).resources.capacity_score()
        )
        mostly_lat = CompositeSelection([(lat, 0.95), (res, 0.05)])
        mostly_res = CompositeSelection([(lat, 0.05), (res, 0.95)])
        top_lat = mostly_lat.rank(q, cands)[0]
        top_res = mostly_res.rank(q, cands)[0]
        assert top_lat == lat.rank(q, cands)[0]
        assert top_res == res.rank(q, cands)[0]

    def test_is_permutation(self, env):
        u, q, cands = env
        comp = CompositeSelection(
            [
                (RandomSelection(rng=1), 0.5),
                (GeoSelection(lambda hid: u.host(hid).position), 0.5),
            ]
        )
        assert sorted(comp.rank(q, cands)) == sorted(cands)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            CompositeSelection([])
        with pytest.raises(ConfigurationError):
            CompositeSelection([(RandomSelection(1), -1.0)])
        with pytest.raises(ConfigurationError):
            CompositeSelection([(RandomSelection(1), 0.0)])
        for weight in (math.nan, math.inf, -math.inf):
            with pytest.raises(ConfigurationError):
                CompositeSelection([(RandomSelection(1), 1.0), (RandomSelection(2), weight)])
