"""The simulated network: FIFO channels with partitions and connection
teardown, matching the model's message semantics."""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, FrozenSet, Optional, Set, Tuple

from repro.tla.values import Rec


class Network:
    """Pairwise FIFO channels between servers."""

    def __init__(self, n_servers: int):
        self.n = n_servers
        self.channels: Dict[Tuple[int, int], Deque[Rec]] = {
            (src, dst): deque()
            for src in range(n_servers)
            for dst in range(n_servers)
            if src != dst
        }
        self.disconnected: Set[FrozenSet[int]] = set()
        self.down: Set[int] = set()

    def clone(self) -> "Network":
        """An independent copy: fresh channel deques and fault sets; the
        messages themselves are immutable and shared."""
        twin = Network.__new__(Network)
        twin.n = self.n
        twin.channels = {
            pair: deque(channel) for pair, channel in self.channels.items()
        }
        twin.disconnected = set(self.disconnected)
        twin.down = set(self.down)
        return twin

    def connected(self, i: int, j: int) -> bool:
        if frozenset((i, j)) in self.disconnected:
            return False
        return i not in self.down and j not in self.down

    def send(self, src: int, dst: int, *messages: Rec):
        """Send messages; silently dropped when disconnected (broken
        TCP), as in the model."""
        if not self.connected(src, dst):
            return
        self.channels[(src, dst)].extend(messages)

    def peek(self, src: int, dst: int) -> Optional[Rec]:
        channel = self.channels[(src, dst)]
        return channel[0] if channel else None

    def recv(self, src: int, dst: int) -> Rec:
        return self.channels[(src, dst)].popleft()

    def delay(self, src: int, dst: int) -> bool:
        """Rotate the head of channel src -> dst to its tail (a delayed
        message overtaken by later traffic).  False when the channel has
        fewer than two messages."""
        channel = self.channels[(src, dst)]
        if len(channel) < 2:
            return False
        channel.rotate(-1)
        return True

    def duplicate(self, src: int, dst: int) -> bool:
        """Append a copy of the head of channel src -> dst at its tail
        (a retransmission across a reconnect).  False when empty."""
        channel = self.channels[(src, dst)]
        if not channel:
            return False
        channel.append(channel[0])
        return True

    def clear_server(self, server: int):
        for (src, dst), channel in self.channels.items():
            if src == server or dst == server:
                channel.clear()

    def clear_pair(self, i: int, j: int):
        self.channels[(i, j)].clear()
        self.channels[(j, i)].clear()

    def partition(self, i: int, j: int):
        self.disconnected.add(frozenset((i, j)))
        self.clear_pair(i, j)

    def heal(self, i: int, j: int):
        self.disconnected.discard(frozenset((i, j)))

    def mark_down(self, server: int):
        self.down.add(server)
        self.clear_server(server)

    def mark_up(self, server: int):
        self.down.discard(server)

    def snapshot(self) -> tuple:
        """The model-shaped msgs value: tuple[src][dst] of message tuples."""
        return tuple(
            tuple(
                tuple(self.channels[(src, dst)]) if src != dst else ()
                for dst in range(self.n)
            )
            for src in range(self.n)
        )
