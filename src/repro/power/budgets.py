"""The calibrated SKX component power ledger.

Absolute power numbers come from Table 1 and the component-delta
derivation in Sec. 5.4 of the paper:

* ``P_PC0``      <= 85 W SoC + ~7 W DRAM   (>= 1 core in CC0)
* ``P_PC0idle``  = 44 W SoC + 5.5 W DRAM   (all cores CC1, uncore on)
* ``P_PC6``      = 11.9 W SoC + 0.51 W DRAM
* ``P_PC1A``     = 27.5 W SoC + 1.61 W DRAM
* ``Pcores_diff = 12.1 W``, ``PIOs_diff = 3.5 W`` (links 2.4 W +
  memory controllers 1.1 W), ``PPLLs_diff = 56 mW``,
  ``Pdram_diff = 1.1 W``.

The paper reports only aggregates; the per-component split below is
our calibration, chosen so that every aggregate in Table 1 / Sec. 5.4
is reproduced to within 0.2 W. The :meth:`SkxPowerBudget.validate`
method asserts that closure, so any edit that breaks the ledger fails
fast.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class CorePowerSpec:
    """Per-core power by core C-state, in watts."""

    cc0_w: float = 5.31
    cc1_w: float = 1.21
    cc1e_w: float = 0.80
    cc6_w: float = 0.0
    transition_w: float = 2.6  # draw while entering/exiting a C-state

    def for_state(self, state: str) -> float:
        """Power for a core C-state label (``CC0``/``CC1``/``CC1E``/``CC6``)."""
        table = {
            "CC0": self.cc0_w,
            "CC1": self.cc1_w,
            "CC1E": self.cc1e_w,
            "CC6": self.cc6_w,
        }
        if state not in table:
            raise KeyError(f"unknown core C-state {state!r}")
        return table[state]


@dataclass(frozen=True)
class LinkPowerSpec:
    """Per-link power by L-state, in watts.

    ``shallow_w`` is the link's agile standby state: L0s for PCIe and
    DMI, L0p for UPI (which does not support L0s — paper footnote 3).
    """

    kind: str
    l0_w: float
    shallow_w: float
    l1_w: float
    shallow_state: str = "L0s"

    def for_state(self, state: str) -> float:
        """Power for an L-state label; L0p/L0s both map to ``shallow_w``."""
        if state == "L0":
            return self.l0_w
        if state in ("L0s", "L0p"):
            return self.shallow_w
        if state in ("L1", "NDA"):
            return self.l1_w
        raise KeyError(f"unknown link state {state!r}")

    def for_state_class(self, power_class: str) -> float:
        """Power for a coarse L-state class (``L0``/``shallow``/``L1``)."""
        table = {"L0": self.l0_w, "shallow": self.shallow_w, "L1": self.l1_w}
        if power_class not in table:
            raise KeyError(f"unknown link power class {power_class!r}")
        return table[power_class]


PCIE_POWER = LinkPowerSpec(kind="pcie", l0_w=1.30, shallow_w=0.55, l1_w=0.25)
DMI_POWER = LinkPowerSpec(kind="dmi", l0_w=0.90, shallow_w=0.40, l1_w=0.18)
UPI_POWER = LinkPowerSpec(
    kind="upi", l0_w=1.40, shallow_w=0.94, l1_w=0.30, shallow_state="L0p"
)


@dataclass(frozen=True)
class MemoryControllerPowerSpec:
    """Per-memory-controller power by DRAM interface state, in watts."""

    active_w: float = 2.42
    cke_off_w: float = 1.25
    self_refresh_w: float = 0.70

    def for_state(self, state: str) -> float:
        """Power for an interface state (``active``/``cke_off``/``self_refresh``)."""
        table = {
            "active": self.active_w,
            "cke_off": self.cke_off_w,
            "self_refresh": self.self_refresh_w,
        }
        if state not in table:
            raise KeyError(f"unknown MC state {state!r}")
        return table[state]


@dataclass(frozen=True)
class DramPowerSpec:
    """Per-channel DRAM *device* power by power mode, in watts.

    The dynamic term models access energy: the paper's 7 W DRAM figure
    at load vs 5.5 W idle is traffic. DDR4 access energy is on the
    order of 20 pJ/bit => 160 pJ/byte.
    """

    idle_w: float = 2.75  # CKE asserted, no power-down
    cke_off_w: float = 0.805  # pre-charged power-down (PPD)
    self_refresh_w: float = 0.255
    access_energy_j_per_byte: float = 160e-12

    def for_state(self, state: str) -> float:
        """Background power for a DRAM power mode label."""
        table = {
            "active": self.idle_w,
            "cke_off": self.cke_off_w,
            "self_refresh": self.self_refresh_w,
        }
        if state not in table:
            raise KeyError(f"unknown DRAM state {state!r}")
        return table[state]


@dataclass(frozen=True)
class ClmPowerSpec:
    """CHA + LLC + mesh (CLM) domain power, in watts."""

    nominal_w: float = 13.40
    retention_w: float = 3.00
    nominal_v: float = 0.80
    retention_v: float = 0.50

    def for_voltage(self, voltage: float) -> float:
        """Interpolate CLM power between retention and nominal voltage.

        Leakage scales superlinearly with voltage; a quadratic
        interpolation between the two calibrated points is adequate
        for the short ramp intervals we integrate over.
        """
        lo_v, hi_v = self.retention_v, self.nominal_v
        clamped = min(max(voltage, lo_v), hi_v)
        span = (clamped - lo_v) / (hi_v - lo_v)
        return self.retention_w + (self.nominal_w - self.retention_w) * span**2


@dataclass(frozen=True)
class SkxPowerBudget:
    """The full component ledger for the 10-core Xeon Silver 4114 model."""

    core: CorePowerSpec = field(default_factory=CorePowerSpec)
    clm: ClmPowerSpec = field(default_factory=ClmPowerSpec)
    pcie: LinkPowerSpec = PCIE_POWER
    dmi: LinkPowerSpec = DMI_POWER
    upi: LinkPowerSpec = UPI_POWER
    mc: MemoryControllerPowerSpec = field(default_factory=MemoryControllerPowerSpec)
    dram: DramPowerSpec = field(default_factory=DramPowerSpec)
    pll_w: float = 0.007  # one ADPLL (Sec. 5.4: 7 mW, frequency independent)
    uncore_pll_count: int = 8
    gpmu_w: float = 0.50
    northcap_misc_w: float = 1.50
    static_leak_w: float = 3.97
    n_cores: int = 10
    n_pcie: int = 3
    n_dmi: int = 1
    n_upi: int = 2
    n_mc: int = 2

    # -- aggregate helpers -------------------------------------------------
    def uncore_base_w(self) -> float:
        """Always-on north-cap power (GPMU + misc + leakage)."""
        return self.gpmu_w + self.northcap_misc_w + self.static_leak_w

    def links_power_w(self, state: str) -> float:
        """Aggregate link power with every link in the same class.

        ``state`` is ``"L0"``, ``"shallow"`` (L0s/L0p as appropriate)
        or ``"L1"``.
        """
        def pick(spec: LinkPowerSpec) -> float:
            if state == "L0":
                return spec.l0_w
            if state == "shallow":
                return spec.shallow_w
            if state == "L1":
                return spec.l1_w
            raise KeyError(f"unknown aggregate link state {state!r}")

        return (
            self.n_pcie * pick(self.pcie)
            + self.n_dmi * pick(self.dmi)
            + self.n_upi * pick(self.upi)
        )

    def soc_power_w(self, package_state: str) -> float:
        """SoC power in a uniform package state (Table 1 rows).

        ``package_state`` is one of ``PC0`` (all cores CC0),
        ``PC0idle`` (all cores CC1, uncore fully on), ``PC1A``, ``PC6``.
        """
        uncore_plls = self.uncore_pll_count * self.pll_w
        if package_state == "PC0":
            cores = self.n_cores * self.core.cc0_w
            return (
                cores + self.clm.nominal_w + self.links_power_w("L0")
                + self.n_mc * self.mc.active_w + uncore_plls + self.uncore_base_w()
            )
        if package_state == "PC0idle":
            cores = self.n_cores * self.core.cc1_w
            return (
                cores + self.clm.nominal_w + self.links_power_w("L0")
                + self.n_mc * self.mc.active_w + uncore_plls + self.uncore_base_w()
            )
        if package_state == "PC1A":
            cores = self.n_cores * self.core.cc1_w
            return (
                cores + self.clm.retention_w + self.links_power_w("shallow")
                + self.n_mc * self.mc.cke_off_w + uncore_plls + self.uncore_base_w()
            )
        if package_state == "PC6":
            return (
                self.clm.retention_w + self.links_power_w("L1")
                + self.n_mc * self.mc.self_refresh_w + self.uncore_base_w()
            )
        raise KeyError(f"unknown package state {package_state!r}")

    def dram_power_w(self, package_state: str) -> float:
        """Background DRAM device power in a uniform package state."""
        if package_state in ("PC0", "PC0idle"):
            return self.n_mc * self.dram.idle_w
        if package_state == "PC1A":
            return self.n_mc * self.dram.cke_off_w
        if package_state == "PC6":
            return self.n_mc * self.dram.self_refresh_w
        raise KeyError(f"unknown package state {package_state!r}")

    def total_power_w(self, package_state: str) -> float:
        """SoC + DRAM power in a uniform package state."""
        return self.soc_power_w(package_state) + self.dram_power_w(package_state)

    # -- Sec. 5.4 deltas -----------------------------------------------------
    def cores_diff_w(self) -> float:
        """``Pcores_diff``: all cores in CC1 vs all cores in CC6."""
        return self.n_cores * (self.core.cc1_w - self.core.cc6_w)

    def ios_diff_w(self) -> float:
        """``PIOs_diff``: links in L0s/L0p + MC CKE-off vs L1 + self-refresh."""
        links = self.links_power_w("shallow") - self.links_power_w("L1")
        mcs = self.n_mc * (self.mc.cke_off_w - self.mc.self_refresh_w)
        return links + mcs

    def plls_diff_w(self) -> float:
        """``PPLLs_diff``: the uncore PLLs kept on in PC1A."""
        return self.uncore_pll_count * self.pll_w

    def dram_diff_w(self) -> float:
        """``Pdram_diff``: DRAM CKE-off vs self-refresh."""
        return self.n_mc * (self.dram.cke_off_w - self.dram.self_refresh_w)

    # -- validation ------------------------------------------------------
    PAPER_TARGETS = {
        "soc_pc0_max": 85.0,
        "soc_pc0idle": 44.0,
        "soc_pc6": 11.9,
        "soc_pc1a": 27.5,
        "dram_idle": 5.5,
        "dram_pc6": 0.51,
        "dram_pc1a": 1.61,
        "cores_diff": 12.1,
        "ios_diff": 3.5,
        "plls_diff": 0.056,
        "dram_diff": 1.1,
    }

    def validate(self, tolerance_w: float = 0.2) -> None:
        """Check that the ledger reproduces the paper's aggregates.

        Raises
        ------
        ValueError
            Naming the first aggregate outside ``tolerance_w``.
        """
        measured = {
            "soc_pc0idle": self.soc_power_w("PC0idle"),
            "soc_pc6": self.soc_power_w("PC6"),
            "soc_pc1a": self.soc_power_w("PC1A"),
            "dram_idle": self.dram_power_w("PC0idle"),
            "dram_pc6": self.dram_power_w("PC6"),
            "dram_pc1a": self.dram_power_w("PC1A"),
            "cores_diff": self.cores_diff_w(),
            "ios_diff": self.ios_diff_w(),
            "plls_diff": self.plls_diff_w(),
            "dram_diff": self.dram_diff_w(),
        }
        for key, value in measured.items():
            target = self.PAPER_TARGETS[key]
            if abs(value - target) > tolerance_w:
                raise ValueError(
                    f"power ledger does not close: {key} = {value:.3f} W, "
                    f"paper reports {target:.3f} W (tolerance {tolerance_w} W)"
                )
        if self.soc_power_w("PC0") > self.PAPER_TARGETS["soc_pc0_max"] + tolerance_w:
            raise ValueError(
                f"PC0 SoC power {self.soc_power_w('PC0'):.2f} W exceeds the "
                f"paper's 85 W bound"
            )


DEFAULT_BUDGET = SkxPowerBudget()
"""The calibrated ledger used everywhere unless a test overrides it."""
