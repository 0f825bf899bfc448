"""Hash-chained prefix tree of cached full KV blocks.

vLLM-style automatic prefix caching: a *full* block of a conversation
is published under a chain key — a deterministic hash folding the
parent block's key with the block's content key — so a later turn (or
a fork) walking the same chain re-acquires the cached KV instead of
recomputing it.  Only full blocks are shared; partial tails stay
private to their sequence.

Nodes carry a ``seq_refs`` count of the sequences currently attached.
A node with ``seq_refs == 0`` is *cached but idle*: reclaimable.
Eviction is LRU over idle **leaves** — interior nodes are pinned by
their children, so chains evict tail-first and a shared prefix
survives as long as any extension of it is warm.

The victim comes from an index, not a tree walk: a heap of
``(last_use_ns, key, seq, node)`` entries, pushed whenever a node
becomes an idle leaf and checked lazily when it reaches the top (an
entry is stale once its node is attached again, grows a child, is
touched or is evicted).  The choice is exactly the full scan's,
:meth:`PrefixTree.scan_lru_leaf`, exact ties included.
"""

from __future__ import annotations

import heapq
from typing import Dict, Iterable, List, Optional, Tuple

from repro.kvcache.block import BlockRef

__all__ = ["PrefixNode", "PrefixTree", "chain_hash", "token_block_key"]

_HASH_MASK = (1 << 62) - 1


def chain_hash(parent_key: int, token_key: int) -> int:
    """Fold one block's content key into its parent's chain key.

    Deterministic across runs (no ``PYTHONHASHSEED`` dependence): plain
    integer arithmetic, FNV-style."""
    return ((parent_key * 1000003) ^ token_key) & _HASH_MASK


def token_block_key(conv_key: int, block_index: int) -> int:
    """Content key of block *block_index* of conversation *conv_key*.

    The simulation does not materialize token ids, so the conversation
    identity stands in for the token content: two sequences share KV
    exactly when they belong to the same conversation prefix."""
    return chain_hash((conv_key * 2654435761) & _HASH_MASK, block_index + 1)


class PrefixNode:
    """One cached full block in the chain tree."""

    __slots__ = ("key", "parent", "children", "ref", "seq_refs", "last_use_ns")

    def __init__(
        self, key: int, parent: Optional["PrefixNode"], ref: BlockRef
    ) -> None:
        self.key = key
        self.parent = parent
        self.children: Dict[int, "PrefixNode"] = {}
        self.ref = ref
        self.seq_refs = 0
        self.last_use_ns = 0.0

    @property
    def is_leaf(self) -> bool:
        return not self.children


class PrefixTree:
    """Chain-keyed tree of cached full blocks with LRU leaf eviction."""

    def __init__(self) -> None:
        # the root is a sentinel holding no block
        self.root = PrefixNode(key=0, parent=None, ref=BlockRef(-1, -1))
        self._n_nodes = 0
        #: nodes with ``seq_refs == 0`` (the reclaimable ones)
        self.idle_count = 0
        #: eviction index: (last_use_ns, key, push seq, node), lazily pruned
        self._heap: List[Tuple[float, int, int, PrefixNode]] = []
        self._pushes = 0

    def __len__(self) -> int:
        return self._n_nodes

    # -- lookup / insert ---------------------------------------------------

    def walk(self, token_keys: Iterable[int]) -> List[PrefixNode]:
        """Longest cached chain matching *token_keys*, root-first."""
        node = self.root
        hits: List[PrefixNode] = []
        for key in token_keys:
            child = node.children.get(key)
            if child is None:
                break
            hits.append(child)
            node = child
        return hits

    def insert(
        self,
        parent: Optional[PrefixNode],
        token_key: int,
        ref: BlockRef,
        now_ns: float,
    ) -> PrefixNode:
        """Publish a full block under *parent* (None = root).

        The caller transfers its block hold to the tree; the tree frees
        it at eviction time."""
        base = parent if parent is not None else self.root
        if token_key in base.children:
            raise ValueError(f"chain key {token_key} already cached")
        node = PrefixNode(key=token_key, parent=base, ref=ref)
        node.last_use_ns = now_ns
        base.children[token_key] = node
        self._n_nodes += 1
        self.idle_count += 1
        self._push(node)
        return node

    def lookup(self, parent: Optional[PrefixNode], token_key: int) -> Optional[PrefixNode]:
        base = parent if parent is not None else self.root
        return base.children.get(token_key)

    # -- sequence attachment ----------------------------------------------

    def acquire(self, node: PrefixNode, now_ns: float) -> None:
        if node.seq_refs == 0:
            self.idle_count -= 1
        node.seq_refs += 1
        node.last_use_ns = now_ns

    def release(self, node: PrefixNode, now_ns: float) -> None:
        if node.seq_refs <= 0:
            raise ValueError(f"node {node.key} released more than acquired")
        node.seq_refs -= 1
        node.last_use_ns = now_ns
        if node.seq_refs == 0:
            self.idle_count += 1
            if not node.children:
                self._push(node)

    # -- eviction ----------------------------------------------------------

    def _iter_nodes(self) -> Iterable[PrefixNode]:
        stack = [self.root]
        while stack:
            node = stack.pop()
            if node is not self.root:
                yield node
            stack.extend(node.children.values())

    def nodes(self) -> List[PrefixNode]:
        return list(self._iter_nodes())

    def idle_nodes(self) -> List[PrefixNode]:
        """Cached-but-unreferenced nodes: the reclaimable tail of the
        pool's occupancy (:attr:`idle_count` counts them without a
        walk)."""
        return [n for n in self._iter_nodes() if n.seq_refs == 0]

    def _push(self, node: PrefixNode) -> None:
        """Index *node*, which just became an idle leaf."""
        heapq.heappush(self._heap, self._entry(node))
        self._bound()

    def _bound(self) -> None:
        """Keep the index within ``2 * len(self) + 64`` entries: past
        that it is mostly stale, so rebuild it from the idle leaves."""
        if len(self._heap) > 2 * self._n_nodes + 64:
            self._heap = [
                self._entry(node)
                for node in self._iter_nodes()
                if node.seq_refs == 0 and not node.children
            ]
            heapq.heapify(self._heap)

    def _entry(self, node: PrefixNode) -> Tuple[float, int, int, PrefixNode]:
        self._pushes += 1
        return (node.last_use_ns, node.key, self._pushes, node)

    @staticmethod
    def _current(entry: Tuple[float, int, int, PrefixNode]) -> bool:
        """Whether *entry* still describes an idle leaf as it is now."""
        last_use_ns, _, _, node = entry
        return (
            node.parent is not None
            and node.seq_refs == 0
            and not node.children
            and node.last_use_ns == last_use_ns
        )

    def lru_leaf(self) -> Optional[PrefixNode]:
        """The least-recently-used idle leaf, or None: the smallest
        ``(last_use_ns, key)``, and among exact ties the first the
        tree walk meets (see :meth:`scan_lru_leaf`)."""
        heap = self._heap
        while heap and not self._current(heap[0]):
            heapq.heappop(heap)
        if not heap:
            return None
        top = heap[0]
        if not any(entry[:2] == top[:2] for entry in heap[1:3]):
            return top[3]
        # entries share the top's exact (last_use_ns, key): keep one per
        # current node, and let the walk order decide between nodes
        tied: Dict[PrefixNode, Tuple[float, int, int, PrefixNode]] = {}
        while heap and heap[0][:2] == top[:2]:
            entry = heapq.heappop(heap)
            if self._current(entry):
                tied.setdefault(entry[3], entry)
        for entry in tied.values():
            heapq.heappush(heap, entry)
        if len(tied) > 1:
            for node in self._iter_nodes():
                if node in tied:
                    return node
        return top[3]

    def scan_lru_leaf(self) -> Optional[PrefixNode]:
        """:meth:`lru_leaf` by a full tree walk (the audit's reference)."""
        best: Optional[PrefixNode] = None
        for node in self._iter_nodes():
            if node.seq_refs != 0 or not node.is_leaf:
                continue
            if best is None or (node.last_use_ns, node.key) < (
                best.last_use_ns,
                best.key,
            ):
                best = node
        return best

    def audit(self) -> List[str]:
        """Check the eviction index and the idle count against a walk."""
        violations = []
        indexed, scanned = self.lru_leaf(), self.scan_lru_leaf()
        if indexed is not scanned:
            violations.append(
                f"eviction index picks {indexed and indexed.key}, "
                f"a tree walk picks {scanned and scanned.key}"
            )
        idle = len(self.idle_nodes())
        if self.idle_count != idle:
            violations.append(
                f"idle count {self.idle_count} but {idle} idle nodes"
            )
        return violations

    def evict(self, node: PrefixNode) -> BlockRef:
        """Detach an idle leaf; returns the block hold for the caller to
        free."""
        if node.seq_refs != 0:
            raise ValueError(f"node {node.key} is attached to {node.seq_refs} seq(s)")
        if not node.is_leaf:
            raise ValueError(f"node {node.key} has children; evict tail-first")
        parent = node.parent
        if parent is None:
            raise ValueError("cannot evict the root sentinel")
        del parent.children[node.key]
        node.parent = None
        self._n_nodes -= 1
        self.idle_count -= 1
        if parent is not self.root and parent.seq_refs == 0 and not parent.children:
            self._push(parent)
        else:
            self._bound()
        return node.ref
