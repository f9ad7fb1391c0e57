import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from cfedge.model import (ComputeConfig, NetworkConfig, mean_connected_aps,
                          pathloss)

from conftest import MU_C, MU_M, make_net


class TestNetworkConfig:
    def test_defaults_valid(self):
        net = make_net()
        assert net.antennas_per_ap == 4
        assert net.sir_threshold_ul == pytest.approx(2.0 ** 1.5 - 1.0)

    @pytest.mark.parametrize("field,value", [
        ("lambda_b", -1.0),
        ("lambda_d", -0.5),
        ("antennas_per_ap", 0),
        ("antennas_per_ap", 2.5),
        ("alpha", 2.0),
        ("d0", 0.0),
        ("coverage_radius", -0.01),
        ("sir_threshold_ul", 0.0),
        ("sir_threshold_dl", -3.0),
        ("network_area", 0.0),
        # no range check is false for NaN, and int(inf) overflows
        ("lambda_b", math.nan),
        ("alpha", math.nan),
        ("coverage_radius", math.inf),
        ("antennas_per_ap", math.inf),
        # a bool is not a number: JSON true would run as 1
        ("lambda_b", True),
        ("d0", True),
        ("antennas_per_ap", True),
        ("alpha", "4"),
        ("lambda_d", None),
        ("network_area", [1.0]),
        # an int beyond the float range
        ("lambda_b", 10 ** 400),
    ])
    def test_rejects_bad_field(self, field, value):
        with pytest.raises(ValueError):
            make_net(**{field: value})

    def test_fields_stored_as_floats_and_antennas_as_int(self):
        net = make_net(lambda_b=400, antennas_per_ap=4.0,
                       coverage_radius=np.float64(0.05))
        assert type(net.antennas_per_ap) is int and net.antennas_per_ap == 4
        assert type(net.lambda_b) is float and net.lambda_b == 400.0
        assert type(net.coverage_radius) is float

    def test_zero_radius_allowed(self):
        assert make_net(coverage_radius=0.0).coverage_radius == 0.0


def test_pathloss_plateau_and_tail():
    net = make_net(d0=0.002, alpha=3.5)
    # below the reference distance the loss is pinned at d0^-alpha
    assert pathloss(0.0, net) == pathloss(0.002, net)
    assert pathloss(0.001, net) == pytest.approx(0.002 ** -3.5)
    # beyond it the power law applies
    assert pathloss(0.01, net) == pytest.approx(0.01 ** -3.5)


def test_pathloss_vectorized():
    net = make_net()
    r = np.array([0.0, 0.0005, 0.001, 0.05])
    out = pathloss(r, net)
    assert out.shape == (4,)
    assert out[0] == out[1] == out[2]
    assert isinstance(pathloss(0.05, net), float)


@given(r1=st.floats(0.0, 1.0), r2=st.floats(0.0, 1.0),
       alpha=st.floats(2.1, 6.0), d0=st.floats(1e-4, 0.01))
def test_pathloss_monotone(r1, r2, alpha, d0):
    net = NetworkConfig(lambda_b=100.0, lambda_d=100.0, alpha=alpha, d0=d0)
    lo, hi = sorted((r1, r2))
    assert pathloss(lo, net) >= pathloss(hi, net)


def test_mean_connected_aps():
    net = make_net(lambda_b=400.0, coverage_radius=0.05)
    assert mean_connected_aps(net) == pytest.approx(400.0 * math.pi * 0.0025)
    assert mean_connected_aps(make_net(coverage_radius=0.0)) == 0.0


class TestComputeConfig:
    def test_mix_properties(self, mix_comp):
        mean_cs = 0.6 / MU_C[0] + 0.4 / MU_C[1]
        assert mix_comp.mean_service_time_cs == pytest.approx(mean_cs)
        assert mix_comp.num_types == 2

    def test_lists_stored_as_float_tuples(self):
        comp = ComputeConfig(type_probs=[1], mu_c=[10], mu_m=[np.float64(5)])
        assert comp.mu_c == (10.0,) and type(comp.mu_m[0]) is float

    def test_num_types_inferred_and_checked(self):
        # num_types is read from type_probs; it cannot be given or set
        comp = ComputeConfig(type_probs=(1.0,), mu_c=(10.0,), mu_m=(5.0,))
        assert comp.num_types == 1
        with pytest.raises(TypeError):
            ComputeConfig(type_probs=(1.0,), mu_c=(10.0,), mu_m=(5.0,),
                          num_types=2)
        with pytest.raises(AttributeError):
            comp.num_types = 2

    @pytest.mark.parametrize("kwargs", [
        dict(type_probs=(0.5, 0.4), mu_c=(1.0, 2.0), mu_m=(1.0, 2.0)),
        dict(type_probs=(0.5, 0.5), mu_c=(1.0,), mu_m=(1.0, 2.0)),
        dict(type_probs=(1.0,), mu_c=(0.0,), mu_m=(1.0,)),
        dict(type_probs=(1.0,), mu_c=(1.0,), mu_m=(1.0,), offload_prob=1.5),
        dict(type_probs=(1.0,), mu_c=(1.0,), mu_m=(1.0,), target_latency=0.0),
        dict(type_probs=(), mu_c=(), mu_m=()),
        # a string is not read character by character
        dict(type_probs="1", mu_c="9", mu_m="8"),
        dict(type_probs=[1.0], mu_c=["9"], mu_m=[8.0]),
        dict(type_probs=1.0, mu_c=(9.0,), mu_m=(8.0,)),
        dict(type_probs=(1.0,), mu_c=(math.nan,), mu_m=(1.0,)),
        dict(type_probs=(1.0,), mu_c=(1.0,), mu_m=(math.inf,)),
        dict(type_probs=(1.0,), mu_c=(1.0,), mu_m=(1.0,),
             target_latency=math.nan),
        dict(type_probs=(1.0,), mu_c=(True,), mu_m=(1.0,)),
        dict(type_probs=(1.0,), mu_c=(1.0,), mu_m=(1.0,), offload_prob=False),
    ])
    def test_rejects_bad_config(self, kwargs):
        with pytest.raises(ValueError):
            ComputeConfig(**kwargs)

