"""A record array laid out in disk blocks.

:class:`BlockArray` is the workhorse container for every EM structure in
this repository: sorted weight lists, endpoint lists and core-set
snapshots are all stored as block arrays so that scanning ``t`` records
costs ``ceil(t / B)`` I/Os — exactly the ``O(t/B)`` output term that the
paper's query bounds carry.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Optional

from repro.em.model import EMContext


class BlockArray:
    """A fixed-content array of records stored in ``ceil(n/B)`` blocks.

    Records are written once at construction (bulk load) and read through
    the context's cache.  Random access to record ``i`` touches one
    block; a scan of a range touches the covering blocks once each in
    order, which is what gives prioritized queries their ``O(t/B)``
    output term.
    """

    def __init__(self, ctx: EMContext, records: Iterable[object] = ()) -> None:
        self.ctx = ctx
        self._block_ids: List[int] = []
        self._length = 0
        self.extend(records)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def extend(self, records: Iterable[object]) -> None:
        """Append records in bulk, filling the trailing block first."""
        B = self.ctx.B
        pending: List[object] = []
        if self._block_ids and self._length % B != 0:
            # Reopen the partially filled tail block.
            tail_id = self._block_ids.pop()
            pending = list(self.ctx.read_block(tail_id))
            self._length -= len(pending)
        for record in records:
            pending.append(record)
            if len(pending) == B:
                self._block_ids.append(self.ctx.allocate_block(pending))
                self._length += B
                pending = []
        if pending:
            self._length += len(pending)
            self._block_ids.append(self.ctx.allocate_block(pending))

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._length

    @property
    def num_blocks(self) -> int:
        """Blocks occupied — the EM space measure for this array."""
        return len(self._block_ids)

    def get(self, index: int) -> object:
        """Random access to record ``index`` (one block read)."""
        if not 0 <= index < self._length:
            raise IndexError(f"index {index} out of range for BlockArray of length {self._length}")
        B = self.ctx.B
        block = self.ctx.read_block(self._block_ids[index // B])
        return block[index % B]

    def __getitem__(self, index: int) -> object:
        return self.get(index)

    def chunks(self, start: int = 0, stop: Optional[int] = None) -> Iterator[List[object]]:
        """Yield the slice of each block covering records ``start..stop``.

        A block is read only when its slice is requested, so a consumer
        that stops early pays for exactly the blocks it looked at.  A
        slice that covers its whole block is the cached frame itself;
        like :meth:`EMContext.read_block`'s result it is read-only.
        """
        if stop is None:
            stop = self._length
        stop = min(stop, self._length)
        if start < 0 or start > stop:
            raise IndexError(f"invalid scan range [{start}, {stop})")
        ctx = self.ctx
        B = ctx.B
        block_ids = self._block_ids
        index = start
        while index < stop:
            block_idx, offset = divmod(index, B)
            # The layout, not the block read, says where the next block
            # starts, so a block shortened by undetected corruption
            # shortens the scan rather than stalling it.
            upper = min(stop - index + offset, B)
            block = ctx.read_block(block_ids[block_idx])
            yield block if offset == 0 and upper == len(block) else block[offset:upper]
            index += upper - offset

    def scan(self, start: int = 0, stop: Optional[int] = None) -> Iterator[object]:
        """Yield records ``start..stop`` reading each covering block once."""
        for chunk in self.chunks(start, stop):
            yield from chunk

    def to_list(self) -> List[object]:
        """Materialise the whole array (charges a full scan)."""
        return list(self.scan())
