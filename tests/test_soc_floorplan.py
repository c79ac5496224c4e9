"""Tests for the SKX floorplan and its routing metrics."""

import pytest

from repro.soc.floorplan import SkxFloorplan


class TestConstruction:
    def test_default_has_all_core_tiles(self):
        plan = SkxFloorplan()
        for name in plan.core_names():
            assert name in plan.tiles
        assert len(plan.core_names()) == 10

    def test_north_cap_contains_pmus_and_ios(self):
        plan = SkxFloorplan()
        for name in ("gpmu", "apmu", "pcie0", "dmi0", "upi0", "upi1"):
            assert plan.tiles[name].kind == "northcap"
            assert plan.tiles[name].row == 0

    def test_memory_controllers_on_edges(self):
        plan = SkxFloorplan()
        assert plan.tiles["mc0"].col == 0
        assert plan.tiles["mc1"].col == plan.mesh_cols - 1

    def test_graph_is_connected(self):
        plan = SkxFloorplan()
        assert all(plan.routed_hops("apmu", tile) >= 0 for tile in plan.graph)

    def test_validation(self):
        with pytest.raises(ValueError):
            SkxFloorplan(n_cores=0)

    def test_custom_core_count(self):
        plan = SkxFloorplan(n_cores=28, mesh_cols=6)
        assert len(plan.core_names()) == 28
        assert all(plan.routed_hops("apmu", tile) >= 0 for tile in plan.graph)


class TestRoutingMetrics:
    def test_manhattan_distance(self):
        plan = SkxFloorplan()
        # core0 is at (1, 0); apmu at (0, 1): |1-0| + |0-1| = 2.
        assert plan.manhattan_hops("core0", "apmu") == 2

    def test_routed_at_least_manhattan(self):
        plan = SkxFloorplan()
        for tile in ("core0", "core5", "core9", "mc0", "mc1"):
            assert plan.routed_hops(tile, "apmu") >= plan.manhattan_hops(
                tile, "apmu"
            ) - 1  # co-located tiles share a slot

    def test_routed_hops_counts_mesh_edges(self):
        plan = SkxFloorplan()
        # core0 (1, 0) -> core9 (3, 1): two rows down, one column over.
        assert plan.routed_hops("core0", "core9") == 3
        assert plan.routed_hops("gpmu", "pcie0") == 1  # co-located slot
        assert plan.routed_hops("core5", "core5") == 0

    def test_unreachable_tile_names_both_tiles(self):
        # Mesh holes can disconnect a plan the constructor accepts: in
        # a 3-core, 5-column die mc1 lands at (1, 4) and every slot
        # around it is empty.
        plan = SkxFloorplan(n_cores=3, mesh_cols=5)
        with pytest.raises(ValueError, match="'pcie0'.*'mc1'"):
            plan.routed_hops("pcie0", "mc1")

    def test_aggregation_saves_wirelength(self):
        # Sec. 5.3: AND-combining neighbouring cores' InCC1 wires
        # must beat routing every core's wire to the APMU directly.
        plan = SkxFloorplan()
        cores = plan.core_names()
        direct = plan.direct_star_wirelength("apmu", cores)
        aggregated = plan.aggregated_wirelength("apmu", cores)
        assert aggregated < direct

    def test_aggregation_scales_better(self):
        plan = SkxFloorplan(n_cores=28, mesh_cols=6)
        cores = plan.core_names()
        direct = plan.direct_star_wirelength("apmu", cores)
        aggregated = plan.aggregated_wirelength("apmu", cores)
        assert aggregated < direct / 2  # savings grow with core count

    def test_duplicate_tile_rejected(self):
        plan = SkxFloorplan()
        from repro.soc.floorplan import Tile

        with pytest.raises(ValueError):
            plan._add_tile(Tile("core0", "core", 5, 5))
