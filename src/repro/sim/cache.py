"""Cache structures for the trace-driven simulator.

Addresses everywhere are *block* addresses (see
:mod:`repro.workloads.address_space`), so the models never deal with byte
offsets: a set-associative cache maps a block address to a set by simple
modulo and stores the full block address as the tag.

Layout contract: both structures are plain-array-backed so the specialized
loops in :mod:`repro.sim._fastpath` can inline their operations.  A cache
set is a flat MRU-ordered array of tags (``_sets[set_index]``); membership
is a C-level scan, which beats any pointer structure at the associativities
of Table I (2–16).  The prefetch buffer is one insertion-ordered map from
block to issue timestamp (``_blocks``) whose FIFO eviction is an O(1)
``popitem``.  The methods here define the semantics; the fast paths mutate
``_sets`` / ``_blocks`` directly and are pinned to these methods by the
property and equivalence tests.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import List

from ..config import CacheConfig
from ..errors import SimulationError


class SetAssociativeCache:
    """A set-associative cache with true-LRU replacement.

    Each set is a flat array of block addresses ordered MRU-first; with the
    associativities of Table I (2–16) a list scan is faster in CPython than
    any cleverer structure.
    """

    __slots__ = ("_sets", "_num_sets", "_associativity")

    def __init__(self, config: CacheConfig) -> None:
        self._num_sets = config.num_sets
        self._associativity = config.associativity
        if self._num_sets < 1:
            raise SimulationError("cache must have at least one set")
        self._sets: List[List[int]] = [[] for _ in range(self._num_sets)]

    @property
    def num_sets(self) -> int:
        return self._num_sets

    @property
    def associativity(self) -> int:
        return self._associativity

    def access(self, block_address: int) -> bool:
        """Demand access: returns True on hit and updates LRU order."""
        lines = self._sets[block_address % self._num_sets]
        if block_address in lines:
            if lines[0] != block_address:
                lines.remove(block_address)
                lines.insert(0, block_address)
            return True
        return False

    def contains(self, block_address: int) -> bool:
        """Presence check without touching LRU state."""
        return block_address in self._sets[block_address % self._num_sets]

    def insert(self, block_address: int) -> int | None:
        """Fill ``block_address`` at MRU; returns the evicted block, if any."""
        lines = self._sets[block_address % self._num_sets]
        if block_address in lines:
            if lines[0] != block_address:
                lines.remove(block_address)
                lines.insert(0, block_address)
            return None
        lines.insert(0, block_address)
        if len(lines) > self._associativity:
            return lines.pop()
        return None

    def resident_blocks(self) -> int:
        return sum(len(lines) for lines in self._sets)

    def snapshot(self) -> List[List[int]]:
        """Serialize the full LRU state as plain lists (JSON-safe).

        The result is one tag list per set, MRU-first — exactly the layout
        the fast paths scan — so ``restore`` reproduces hit/miss *and*
        eviction order bit-for-bit.
        """
        return [list(lines) for lines in self._sets]

    def restore(self, state: List[List[int]]) -> None:
        """Restore a :meth:`snapshot` into this cache (same geometry required)."""
        if len(state) != self._num_sets:
            raise SimulationError(
                f"cache snapshot has {len(state)} sets, expected {self._num_sets}"
            )
        self._sets = [[int(tag) for tag in lines] for lines in state]

    def state_key(self) -> tuple:
        """The full LRU state as a hashable tuple.

        Exact (collision-free) and cheap to build; what the numpy backend
        keys its warm-state memos on — two caches compare equal under this
        key iff their snapshots are equal.
        """
        return tuple(tuple(lines) for lines in self._sets)


class PrefetchBuffer:
    """A per-core FIFO buffer holding prefetched blocks until first use.

    This stands in for PIF/SHIFT stream storage and the prefetch queue of the
    next-line engine: prefetched blocks do not pollute the L1-I; a demand hit
    in the buffer promotes the block into the cache.  Blocks evicted before
    use count as wasted prefetches (the accuracy metric of the paper).
    """

    __slots__ = ("_capacity", "_blocks", "evicted_unused")

    def __init__(self, capacity: int = 256) -> None:
        if capacity < 1:
            raise SimulationError("prefetch buffer needs a positive capacity")
        self._capacity = capacity
        # block address -> issue timestamp (the engine's per-core step count).
        self._blocks: OrderedDict[int, int] = OrderedDict()
        self.evicted_unused = 0

    @property
    def capacity(self) -> int:
        return self._capacity

    def __len__(self) -> int:
        return len(self._blocks)

    def __contains__(self, block_address: int) -> bool:
        return block_address in self._blocks

    def insert(self, block_address: int, issued_at: int = 0) -> bool:
        """Add a prefetched block; returns False if it was already buffered.

        A re-prefetch of an in-flight block does not refresh its timestamp:
        the original request is already on its way.
        """
        if block_address in self._blocks:
            return False
        self._blocks[block_address] = issued_at
        if len(self._blocks) > self._capacity:
            self._blocks.popitem(last=False)
            self.evicted_unused += 1
        return True

    def consume(self, block_address: int) -> int | None:
        """Remove a block on demand hit; returns its issue timestamp, if buffered."""
        return self._blocks.pop(block_address, None)

    def rebase_timestamps(self, delta: int) -> None:
        """Shift every buffered issue timestamp by ``-delta``.

        The chunked engine restarts its step counter at zero for each chunk;
        rebasing keeps the only quantity that matters — ``step - issued_at``
        age differences — identical to a monolithic run.  Stamps may go
        negative, which is fine: they are only ever subtracted.
        """
        if delta:
            for block in self._blocks:
                self._blocks[block] -= delta

    def snapshot(self) -> dict:
        """Serialize FIFO order, issue timestamps and the wasted-prefetch count."""
        return {
            "blocks": [[block, stamp] for block, stamp in self._blocks.items()],
            "evicted_unused": self.evicted_unused,
        }

    def restore(self, state: dict) -> None:
        """Restore a :meth:`snapshot`; insertion order is FIFO-significant."""
        self._blocks = OrderedDict(
            (int(block), int(stamp)) for block, stamp in state["blocks"]
        )
        self.evicted_unused = int(state["evicted_unused"])

    def state_key(self) -> tuple:
        """FIFO order, stamps and the eviction counter as a hashable tuple
        (exact, see :meth:`SetAssociativeCache.state_key`)."""
        return (tuple(self._blocks.items()), self.evicted_unused)


__all__ = ["SetAssociativeCache", "PrefetchBuffer"]
