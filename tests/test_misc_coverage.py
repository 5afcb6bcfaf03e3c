"""Final coverage batch: small behaviours not exercised elsewhere."""

import pytest

from repro import units
from repro.errors import ModelError
from repro.network import FUNCTION_CATALOG, ServiceChain, VnfHost
from repro.node import MemoryLevel, dram, hdd, nvm, ssd
from repro.reporting import render_table
from repro.survey.corpus import SECTOR_WEIGHTS


class TestNfvDetails:
    def test_vnf_hosts_needed_rounds_up(self):
        chain = ServiceChain("fw", [FUNCTION_CATALOG["firewall"]])
        host = VnfHost()
        per_host = chain.vnf_throughput_gbps(host)
        # Just above one host's capacity needs two hosts.
        assert chain.vnf_hosts_needed(per_host * 1.01, host) == 2
        assert chain.vnf_hosts_needed(per_host * 0.5, host) == 1

    def test_vnf_throughput_scales_with_packet_size(self):
        chain = ServiceChain("fw", [FUNCTION_CATALOG["firewall"]])
        host = VnfHost()
        small = chain.vnf_throughput_gbps(host, packet_bytes=200.0)
        large = chain.vnf_throughput_gbps(host, packet_bytes=1400.0)
        assert large == pytest.approx(7 * small)

    def test_vnf_host_validation(self):
        with pytest.raises(ModelError):
            VnfHost(cores=0)
        chain = ServiceChain("fw", [FUNCTION_CATALOG["firewall"]])
        with pytest.raises(ModelError):
            chain.vnf_throughput_gbps(VnfHost(), packet_bytes=0.0)


class TestMemoryLevels:
    def test_level_cost(self):
        level = MemoryLevel("x", 10 * units.GB, 1e9, 1e-7, usd_per_gb=5.0)
        assert level.cost_usd == pytest.approx(50.0)

    def test_speed_hierarchy_of_catalog_levels(self):
        levels = [dram(), nvm(), ssd(), hdd()]
        bandwidths = [lvl.bandwidth_bytes_per_s for lvl in levels]
        assert bandwidths == sorted(bandwidths, reverse=True)
        latencies = [lvl.latency_s for lvl in levels]
        assert latencies == sorted(latencies)

    def test_price_per_gb_falls_down_the_hierarchy(self):
        prices = [lvl.usd_per_gb for lvl in (dram(), nvm(), ssd(), hdd())]
        assert prices == sorted(prices, reverse=True)

    def test_volatility_flags(self):
        assert dram().volatile
        assert not nvm().volatile
        assert not hdd().volatile

    def test_invalid_level_rejected(self):
        with pytest.raises(ModelError):
            MemoryLevel("x", 0.0, 1e9, 1e-7, 1.0)
        with pytest.raises(ModelError):
            MemoryLevel("x", 1e9, 1e9, -1.0, 1.0)


class TestRenderTableDetails:
    def test_title_prepended(self):
        text = render_table(["a"], [[1]], title="My Table")
        assert text.splitlines()[0] == "My Table"

    def test_empty_rows_allowed(self):
        text = render_table(["col"], [])
        assert "col" in text

    def test_headers_required(self):
        with pytest.raises(ModelError):
            render_table([], [])


class TestSurveyWeights:
    def test_sector_weights_form_distribution(self):
        total = sum(SECTOR_WEIGHTS.values())
        assert total == pytest.approx(1.0)
        assert all(w > 0 for w in SECTOR_WEIGHTS.values())


class TestUnitsEdgeCases:
    def test_negative_bytes_pretty(self):
        assert units.pretty_bytes(-2_500_000) == "-2.50 MB"

    def test_zero_duration(self):
        assert units.pretty_duration(0.0) == "0.00 us"

    def test_binary_prefixes(self):
        assert units.GIB == 2**30
        assert units.KIB * units.KIB == units.MIB
