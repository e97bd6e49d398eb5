"""Shared last-level cache model.

The LLC of Table I is a NUCA cache of one 512 KB slice per tile, shared by
all cores.  This module models it as one banked, set-associative, true-LRU
cache sitting under the per-core L1-Is: demand instruction blocks and the
virtualized SHIFT history contend for its capacity, and every L1-I miss is
classified as an LLC hit or a memory miss (the timing model charges
:meth:`~repro.config.SystemConfig.memory_demand_latency_cycles` for the
latter).

Two request classes touch the LLC state:

* *demand* accesses — L1-I misses that were not covered by a prefetch; the
  per-core ``llc_hits`` / ``memory_misses`` counters classify these;
* *prefetch* accesses — blocks fetched by a prefetch engine on behalf of a
  core; they warm the LLC exactly like demand fills but are off the
  critical path, so they are not charged per-core (their timeliness is
  already modelled by the in-flight prefetch window).

SHIFT's virtualized history occupies the LLC as *pinned* blocks
(:meth:`SharedLLC.pin_region`): they reserve ways in their sets — shrinking
the capacity available to instruction blocks, which is how Section 5.4's
"history virtualization barely perturbs LLC performance" claim becomes
measurable — and are never evicted, so history reads always hit.  Reads of
history blocks are accounted in :attr:`SharedLLC.history_reads` and charged
an LLC bank access by the timing model.

Layout contract: like :class:`~repro.sim.cache.SetAssociativeCache`, sets
are flat MRU-ordered tag lists so :mod:`repro.sim._fastpath` can replay LLC
traffic through the bound methods without per-access attribute lookups.
The access order across cores is semantically load-bearing (shared LRU
state): the engine defines it as round-robin, one access per core per step,
and the fast paths reproduce it exactly (see ``_replay_llc``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Set

from ..config import LLCConfig
from ..errors import SimulationError


@dataclass
class LLCStats:
    """Aggregate statistics of one simulation run's shared LLC."""

    total_blocks: int
    num_sets: int
    associativity: int
    banks: int
    pinned_blocks: int
    resident_blocks: int
    demand_hits: int
    demand_misses: int
    prefetch_hits: int
    prefetch_misses: int
    history_reads: int
    bank_accesses: List[int] = field(default_factory=list)

    @property
    def demand_accesses(self) -> int:
        return self.demand_hits + self.demand_misses

    @property
    def instruction_accesses(self) -> int:
        """All instruction-block LLC accesses (demand + prefetch)."""
        return self.demand_accesses + self.prefetch_hits + self.prefetch_misses

    @property
    def demand_hit_ratio(self) -> float:
        accesses = self.demand_accesses
        return self.demand_hits / accesses if accesses else 0.0

    @property
    def instruction_hit_ratio(self) -> float:
        """Hit ratio over all instruction-block accesses (demand + prefetch).

        The metric behind the Section 5.4 comparison: history virtualization
        must leave this ratio essentially unchanged relative to an engine
        that keeps no history in the LLC.
        """
        accesses = self.instruction_accesses
        return (self.demand_hits + self.prefetch_hits) / accesses if accesses else 0.0

    @property
    def occupancy(self) -> float:
        return self.resident_blocks / self.total_blocks if self.total_blocks else 0.0


class SharedLLC:
    """A banked, set-associative, true-LRU shared LLC with pinned regions.

    Geometry comes from :class:`~repro.config.LLCConfig` (one slice per
    core); a block address maps to a set by modulo and to a bank by
    ``set_index % banks``.  Pinned blocks (the virtualized SHIFT history)
    reduce the ways available to instruction blocks in their sets and are
    tracked outside the LRU stacks, so reading them never perturbs the
    replacement state — only capacity and bank occupancy.
    """

    __slots__ = (
        "_num_sets",
        "_associativity",
        "_banks",
        "_sets",
        "_avail",
        "_pinned",
        "demand_hits",
        "demand_misses",
        "prefetch_hits",
        "prefetch_misses",
        "history_reads",
        "bank_accesses",
    )

    def __init__(self, config: LLCConfig, num_cores: int) -> None:
        if num_cores < 1:
            raise SimulationError("the shared LLC needs at least one core's slice")
        total_blocks = config.total_blocks(num_cores)
        num_sets = total_blocks // config.associativity
        if num_sets < 1:
            raise SimulationError("LLC must have at least one set")
        self._num_sets = num_sets
        self._associativity = config.associativity
        self._banks = config.banks
        self._sets: List[List[int]] = [[] for _ in range(num_sets)]
        #: Ways of each set still available to instruction blocks.
        self._avail: List[int] = [config.associativity] * num_sets
        self._pinned: Set[int] = set()
        self.demand_hits = 0
        self.demand_misses = 0
        self.prefetch_hits = 0
        self.prefetch_misses = 0
        self.history_reads = 0
        self.bank_accesses: List[int] = [0] * config.banks

    @property
    def num_sets(self) -> int:
        return self._num_sets

    @property
    def associativity(self) -> int:
        return self._associativity

    @property
    def banks(self) -> int:
        return self._banks

    @property
    def total_blocks(self) -> int:
        return self._num_sets * self._associativity

    @property
    def pinned_blocks(self) -> int:
        return len(self._pinned)

    def pin_region(self, base_block: int, num_blocks: int) -> None:
        """Reserve ``num_blocks`` consecutive blocks from ``base_block``.

        Each pinned block permanently claims one way of its set.  At least
        one way per set must remain for instruction blocks, otherwise the
        demand stream mapping there could never make progress.
        """
        if num_blocks < 1:
            raise SimulationError("a pinned region needs at least one block")
        num_sets = self._num_sets
        avail = self._avail
        for address in range(base_block, base_block + num_blocks):
            if address in self._pinned:
                continue
            set_index = address % num_sets
            if avail[set_index] <= 1:
                raise SimulationError(
                    f"pinned history region of {num_blocks} blocks leaves LLC set "
                    f"{set_index} without a way for instruction blocks"
                )
            avail[set_index] -= 1
            self._pinned.add(address)

    def is_pinned(self, block_address: int) -> bool:
        return block_address in self._pinned

    def contains(self, block_address: int) -> bool:
        """Presence check (pinned or resident) without touching LRU state."""
        if block_address in self._pinned:
            return True
        return block_address in self._sets[block_address % self._num_sets]

    def _access(self, block_address: int) -> bool:
        set_index = block_address % self._num_sets
        self.bank_accesses[set_index % self._banks] += 1
        # Pinned blocks always hit and live outside the LRU stacks; without
        # this check an access to one would miss and insert a duplicate
        # copy into the ways pin_region reserved.
        if block_address in self._pinned:
            return True
        lines = self._sets[set_index]
        if block_address in lines:
            if lines[0] != block_address:
                lines.remove(block_address)
                lines.insert(0, block_address)
            return True
        lines.insert(0, block_address)
        if len(lines) > self._avail[set_index]:
            lines.pop()
        return False

    def access_demand(self, block_address: int) -> bool:
        """An L1-I demand miss looks up the LLC; fills on a miss.

        Returns True when served by the LLC, False when it goes to memory.
        """
        hit = self._access(block_address)
        if hit:
            self.demand_hits += 1
        else:
            self.demand_misses += 1
        return hit

    def access_prefetch(self, block_address: int) -> bool:
        """A prefetch engine fetches a block through the LLC; fills on a miss."""
        hit = self._access(block_address)
        if hit:
            self.prefetch_hits += 1
        else:
            self.prefetch_misses += 1
        return hit

    def add_history_reads(self, num_reads: int) -> None:
        """Account ``num_reads`` reads of pinned history blocks.

        History blocks are pinned, so the reads always hit and never touch
        LRU state; only the access count (and the timing charge derived
        from it) matters.
        """
        if num_reads < 0:
            raise SimulationError("history read count cannot be negative")
        self.history_reads += num_reads

    def resident_blocks(self) -> int:
        """Unpinned instruction blocks currently resident."""
        return sum(len(lines) for lines in self._sets)

    def snapshot(self) -> dict:
        """Serialize LRU stacks, pinned regions, availability and counters.

        Everything is plain lists/ints (JSON-safe).  ``avail`` and
        ``pinned`` are captured directly rather than re-deriving them from
        ``pin_region`` calls, so a restore reproduces exactly the per-set
        way budgets of the run being resumed.
        """
        return {
            "sets": [list(lines) for lines in self._sets],
            "avail": list(self._avail),
            "pinned": sorted(self._pinned),
            "demand_hits": self.demand_hits,
            "demand_misses": self.demand_misses,
            "prefetch_hits": self.prefetch_hits,
            "prefetch_misses": self.prefetch_misses,
            "history_reads": self.history_reads,
            "bank_accesses": list(self.bank_accesses),
        }

    def restore(self, state: dict) -> None:
        """Restore a :meth:`snapshot` into this LLC (same geometry required)."""
        if len(state["sets"]) != self._num_sets:
            raise SimulationError(
                f"LLC snapshot has {len(state['sets'])} sets, "
                f"expected {self._num_sets}"
            )
        self._sets = [[int(tag) for tag in lines] for lines in state["sets"]]
        self._avail = [int(ways) for ways in state["avail"]]
        self._pinned = {int(block) for block in state["pinned"]}
        self.demand_hits = int(state["demand_hits"])
        self.demand_misses = int(state["demand_misses"])
        self.prefetch_hits = int(state["prefetch_hits"])
        self.prefetch_misses = int(state["prefetch_misses"])
        self.history_reads = int(state["history_reads"])
        self.bank_accesses = [int(count) for count in state["bank_accesses"]]

    def stats(self) -> LLCStats:
        return LLCStats(
            total_blocks=self.total_blocks,
            num_sets=self._num_sets,
            associativity=self._associativity,
            banks=self._banks,
            pinned_blocks=len(self._pinned),
            resident_blocks=self.resident_blocks(),
            demand_hits=self.demand_hits,
            demand_misses=self.demand_misses,
            prefetch_hits=self.prefetch_hits,
            prefetch_misses=self.prefetch_misses,
            history_reads=self.history_reads,
            bank_accesses=list(self.bank_accesses),
        )


__all__ = ["SharedLLC", "LLCStats"]
