"""Configuration dataclasses for the memory system (paper Table I).

All latencies are in cycles of the 1 GHz SoC clock (1 cycle = 1 ns), so the
DDR3 latencies "14-14-14-47 ns" map directly to cycle counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

WORD_BYTES = 8
CACHE_LINE_BYTES = 64


@dataclass
class DRAMConfig:
    """DDR3-2000 single-rank timing model parameters (Table I).

    ``scheduler`` selects the memory-access scheduler: ``"frfcfs"``
    (first-ready, first-come-first-served — prioritizes row-buffer hits) or
    ``"fifo"``. The paper found FR-FCFS with 16 outstanding reads was
    "significantly improved" over FIFO with 8 for the GC unit (§VI-A).
    """

    n_banks: int = 8
    row_bytes: int = 2048
    t_cas: int = 14  # CL: column access latency (row hit)
    t_rcd: int = 14  # RAS-to-CAS (activate)
    t_rp: int = 14  # precharge
    t_ras: int = 47  # row-active minimum (limits back-to-back row cycles)
    # DDR3-2000 peak bandwidth: 8 bytes x 2000 MT/s = 16 GB/s = 16 B/cycle.
    bus_bytes_per_cycle: int = 16
    scheduler: str = "frfcfs"
    read_window: int = 16  # scheduler visibility: reads in flight
    write_window: int = 8  # scheduler visibility: writes in flight

    def __post_init__(self) -> None:
        if self.scheduler not in ("frfcfs", "fifo"):
            raise ValueError(f"unknown scheduler {self.scheduler!r}")
        if self.n_banks < 1 or self.row_bytes < 64:
            raise ValueError("invalid DRAM geometry")
        # A window below 1 hides every queued request, so the controller
        # re-arms its wakeup forever; a bus below 1 B/cycle divides by zero.
        for name in ("read_window", "write_window", "bus_bytes_per_cycle"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got "
                                 f"{getattr(self, name)}")
        for name in ("t_cas", "t_rcd", "t_rp", "t_ras"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got "
                                 f"{getattr(self, name)}")


@dataclass
class PipeConfig:
    """Idealized latency-bandwidth pipe (§VI-A 'Potential Performance').

    The paper uses latency 1 cycle and bandwidth 8 GB/s (= 8 bytes/cycle at
    1 GHz).
    """

    latency: int = 1
    bytes_per_cycle: int = 8


@dataclass
class CacheConfig:
    """Set-associative write-back cache parameters."""

    size_bytes: int = 16 * 1024
    ways: int = 4
    line_bytes: int = CACHE_LINE_BYTES
    hit_latency: int = 2
    mshrs: int = 8

    @property
    def n_sets(self) -> int:
        sets = self.size_bytes // (self.ways * self.line_bytes)
        if sets < 1:
            raise ValueError(f"cache too small: {self.size_bytes}B / {self.ways}w")
        return sets


@dataclass
class TLBConfig:
    """TLB parameters; Table I: 32 entries each for I/D TLBs."""

    entries: int = 32
    hit_latency: int = 0  # folded into the access it translates


@dataclass
class AddressMap:
    """Carves the physical address space into the regions the system uses.

    Regions (all byte addresses, 8-byte aligned):

    * ``page_tables`` — backing store for the Sv39-style page tables.
    * ``spill`` — the GC unit's mark-queue spill region (a static range the
      Linux driver allocates at boot; paper default 4 MB, §V-E).
    * ``hwgc`` — the root/communication region visible to the GC unit.
    * ``block_list`` — the reclamation unit's global block descriptor list.
    * ``heap`` — everything else: the managed heap's spaces.
    """

    total_bytes: int
    page_table_bytes: int = 2 * 1024 * 1024
    spill_bytes: int = 4 * 1024 * 1024
    hwgc_bytes: int = 1 * 1024 * 1024
    block_list_bytes: int = 1 * 1024 * 1024

    def __post_init__(self) -> None:
        reserved = (
            self.page_table_bytes
            + self.spill_bytes
            + self.hwgc_bytes
            + self.block_list_bytes
        )
        if reserved + 4096 >= self.total_bytes:
            raise ValueError(
                f"address map reserves {reserved}B of {self.total_bytes}B; "
                "no room for the heap"
            )

    # The first word of physical memory is reserved so address 0 can serve
    # as the null pointer / free-list terminator.
    _BASE = 4096

    @property
    def page_tables(self) -> Tuple[int, int]:
        start = self._BASE
        return (start, start + self.page_table_bytes)

    @property
    def spill(self) -> Tuple[int, int]:
        start = self.page_tables[1]
        return (start, start + self.spill_bytes)

    @property
    def hwgc(self) -> Tuple[int, int]:
        start = self.spill[1]
        return (start, start + self.hwgc_bytes)

    @property
    def block_list(self) -> Tuple[int, int]:
        start = self.hwgc[1]
        return (start, start + self.block_list_bytes)

    @property
    def heap(self) -> Tuple[int, int]:
        start = self.block_list[1]
        return (start, self.total_bytes)


@dataclass
class MemorySystemConfig:
    """Top-level memory-system selection.

    ``model`` is ``"ddr3"`` (Table I) or ``"pipe"`` (Fig. 17). The cache
    configurations describe the *CPU-side* hierarchy; the GC unit brings its
    own small caches per the partitioning study (Fig. 18).
    """

    model: str = "ddr3"
    dram: DRAMConfig = field(default_factory=DRAMConfig)
    pipe: PipeConfig = field(default_factory=PipeConfig)
    l1d: CacheConfig = field(default_factory=lambda: CacheConfig(size_bytes=16 * 1024))
    l2: CacheConfig = field(
        default_factory=lambda: CacheConfig(
            size_bytes=256 * 1024, ways=8, hit_latency=12, mshrs=8
        )
    )
    dtlb: TLBConfig = field(default_factory=TLBConfig)
    total_bytes: int = 64 * 1024 * 1024
    #: Map memory with 2 MiB superpages where aligned (§VII: "large heaps
    #: could use superpages instead of 4KB pages").
    use_superpages: bool = False

    def __post_init__(self) -> None:
        if self.model not in ("ddr3", "pipe"):
            raise ValueError(f"unknown memory model {self.model!r}")

    def address_map(self) -> AddressMap:
        return AddressMap(total_bytes=self.total_bytes)


#: Table I, reproduced as data so tests can assert the configuration matches
#: the paper.
TABLE_I: Dict[str, str] = {
    "Physical Registers": "32 (int), 32 (fp)",
    "ITLB/DTLB Reach": "128 KiB (32 entries each)",
    "L1 Caches": "16 KiB ICache, 16 KiB DCache",
    "L2 Cache": "256 KiB (8-way set-associative)",
    "Memory Access Scheduler": "FR-FCFS MAS (16/8 req. in flight)",
    "Page Policy": "Open-Page",
    "DRAM Latencies (ns)": "14-14-14-47",
}
