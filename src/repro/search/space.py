"""The mapping space: candidates, enumeration, and neighborhood moves.

A :class:`Candidate` is one point in the per-Einsum mapping space — a
loop order over the iteration ranks plus optional ``uniform_shape``
tile sizes.  :class:`MappingSpace` describes the whole space (the ranks,
the tile-size ladder per rank, an optional cap on loop orders) and knows
how to enumerate it exhaustively, sample it, and step between neighboring
candidates — the three primitives the strategies in
:mod:`repro.search.strategies` are built from.

:func:`enumerate_candidates` lists the whole space and
:func:`apply_candidate` installs one candidate into a spec; enumeration
deduplicates, so repeated tile sizes or degenerate spaces can never
evaluate one mapping twice.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..spec.loader import AcceleratorSpec


@dataclass(frozen=True)
class Candidate:
    """One point in the mapping space."""

    loop_order: Tuple[str, ...]
    tiles: Tuple[Tuple[str, int], ...] = ()  # (rank, uniform_shape size)

    def describe(self) -> str:
        tiles = ", ".join(f"{r}:{s}" for r, s in self.tiles) or "none"
        return f"loop=[{', '.join(self.loop_order)}] tiles={tiles}"


def _derive_loop_order(order: Sequence[str],
                       tiles: Dict[str, int]) -> Tuple[str, ...]:
    """The loop order a (rank order, tile set) genotype denotes.

    Tiled ranks split into R1/R0 with every R1 placed outermost (in the
    base order) and R0 in the rank's original position.
    """
    loop: List[str] = [f"{r}1" for r in order if r in tiles]
    loop += [f"{r}0" if r in tiles else r for r in order]
    return tuple(loop)


@dataclass(frozen=True)
class MappingSpace:
    """All loop orders x tile choices for one Einsum's iteration ranks.

    ``tile_sizes`` maps a rank to its candidate ``uniform_shape`` sizes
    (the untiled option is always implied).  ``max_loop_orders``
    truncates the permutation list, preserving the historical
    ``enumerate_candidates`` behavior for bounded sweeps.
    """

    ranks: Tuple[str, ...]
    tile_sizes: Tuple[Tuple[str, Tuple[int, ...]], ...] = ()
    max_loop_orders: Optional[int] = None

    @classmethod
    def of(cls, ranks: Sequence[str],
           tile_sizes: Optional[Dict[str, Sequence[int]]] = None,
           max_loop_orders: Optional[int] = None) -> "MappingSpace":
        return cls(
            tuple(ranks),
            tuple((r, tuple(sizes))
                  for r, sizes in (tile_sizes or {}).items()),
            max_loop_orders,
        )

    # ---- construction -------------------------------------------------
    def make(self, order: Sequence[str], tiles: Dict[str, int]) -> Candidate:
        """The candidate a (rank order, tile set) genotype denotes.

        Tile tuples are canonicalized to the space's ``tile_sizes`` key
        order so equal genotypes always compare (and hash) equal.
        """
        return Candidate(
            _derive_loop_order(order, tiles),
            tuple((r, tiles[r]) for r, _ in self.tile_sizes if r in tiles),
        )

    def genotype(self, candidate: Candidate) -> Tuple[Tuple[str, ...],
                                                      Dict[str, int]]:
        """The (base rank order, tile set) a candidate was made from."""
        tiled = {r for r, _ in candidate.tiles}
        order = []
        for r in candidate.loop_order:
            if r.endswith("1") and r[:-1] in tiled:
                continue
            order.append(r[:-1] if r.endswith("0") and r[:-1] in tiled
                         else r)
        return tuple(order), dict(candidate.tiles)

    # ---- enumeration --------------------------------------------------
    def _orders(self) -> List[Tuple[str, ...]]:
        orders = list(itertools.permutations(self.ranks))
        if self.max_loop_orders is not None:
            orders = orders[:self.max_loop_orders]
        return orders

    def _tile_choices(self) -> List[Dict[str, int]]:
        choices: List[Dict[str, int]] = [{}]
        for rank, sizes in self.tile_sizes:
            choices = [
                {**existing, **extra}
                for existing in choices
                for extra in [{}] + [{rank: s} for s in sizes]
            ]
        return choices

    def all(self) -> List[Candidate]:
        """Every candidate, deduplicated, in deterministic order.

        Materializes the whole space — use :meth:`sample` (index-based,
        no materialization) when the space is large.
        """
        out: List[Candidate] = []
        seen = set()
        for order in self._orders():
            for tiles in self._tile_choices():
                cand = self.make(order, tiles)
                if cand not in seen:
                    seen.add(cand)
                    out.append(cand)
        return out

    def _n_orders(self) -> int:
        n = math.factorial(len(self.ranks))
        if self.max_loop_orders is not None:
            n = min(n, self.max_loop_orders)
        return n

    def _n_tile_choices(self) -> int:
        n = 1
        for _, sizes in self.tile_sizes:
            n *= len(sizes) + 1
        return n

    def size(self) -> int:
        """The space's index count — an upper bound on distinct
        candidates (repeated tile sizes dedup away in :meth:`all`),
        computed without enumerating anything."""
        return self._n_orders() * self._n_tile_choices()

    def _nth_order(self, i: int) -> Tuple[str, ...]:
        """The ``i``-th permutation of ``ranks`` in the lexicographic
        (``itertools.permutations``) order, by factorial-number-system
        unranking — no enumeration."""
        items = list(self.ranks)
        out: List[str] = []
        for pos in range(len(items), 0, -1):
            idx, i = divmod(i, math.factorial(pos - 1))
            out.append(items.pop(idx))
        return tuple(out)

    def _nth_tiles(self, i: int) -> Dict[str, int]:
        """The ``i``-th tile choice in mixed-radix order (digit per rank,
        0 meaning untiled)."""
        tiles: Dict[str, int] = {}
        for rank, sizes in self.tile_sizes:
            i, digit = divmod(i, len(sizes) + 1)
            if digit:
                tiles[rank] = sizes[digit - 1]
        return tiles

    def candidate_at(self, i: int) -> Candidate:
        """The candidate at flat index ``i`` (see :meth:`size`)."""
        order_idx, tile_idx = divmod(i, self._n_tile_choices())
        return self.make(self._nth_order(order_idx),
                         self._nth_tiles(tile_idx))

    def sample(self, n: int, rng: random.Random) -> List[Candidate]:
        """Up to ``n`` distinct candidates drawn uniformly without
        replacement, by index — the space is never materialized, so
        sampling stays cheap on factorially large spaces.  (With
        repeated tile sizes two indices can decode to one candidate;
        duplicates are dropped, so slightly fewer than ``n`` may come
        back.)  Requesting the whole space or more returns
        :meth:`all`.
        """
        total = self.size()
        if n >= total:
            return self.all()
        out: List[Candidate] = []
        seen = set()
        for i in rng.sample(range(total), n):
            cand = self.candidate_at(i)
            if cand not in seen:
                seen.add(cand)
                out.append(cand)
        return out

    # ---- neighborhood -------------------------------------------------
    def neighbors(self, candidate: Candidate) -> List[Candidate]:
        """One-step moves from a candidate: swap two adjacent ranks in
        the base order, or step one rank's tile size along its ladder
        (untiled <-> smallest <-> ... <-> largest)."""
        order, tiles = self.genotype(candidate)
        out: List[Candidate] = []
        seen = {candidate}

        def push(cand: Candidate) -> None:
            if cand not in seen:
                seen.add(cand)
                out.append(cand)

        for i in range(len(order) - 1):
            swapped = list(order)
            swapped[i], swapped[i + 1] = swapped[i + 1], swapped[i]
            push(self.make(swapped, tiles))
        for rank, sizes in self.tile_sizes:
            ladder: List[Optional[int]] = [None] + list(sizes)
            at = ladder.index(tiles.get(rank))
            for step in (at - 1, at + 1):
                if 0 <= step < len(ladder) and step != at:
                    moved = dict(tiles)
                    if ladder[step] is None:
                        moved.pop(rank, None)
                    else:
                        moved[rank] = ladder[step]
                    push(self.make(order, moved))
        return out


def enumerate_candidates(
    ranks: Sequence[str],
    tile_sizes: Optional[Dict[str, Sequence[int]]] = None,
    max_loop_orders: Optional[int] = None,
) -> List[Candidate]:
    """All loop orders x tile choices for the given iteration ranks.

    ``tile_sizes`` maps a rank to candidate ``uniform_shape`` sizes (always
    including the untiled option).  Tiled ranks split into R1/R0 with R1
    placed outermost and R0 in the original position.  Duplicate
    candidates (e.g. from a repeated tile size) are dropped, keeping the
    first occurrence.
    """
    return MappingSpace.of(ranks, tile_sizes, max_loop_orders).all()


def apply_candidate(spec: AcceleratorSpec, einsum: str,
                    candidate: Candidate) -> AcceleratorSpec:
    """A copy of ``spec`` with the candidate's mapping for one Einsum."""
    from ..spec.mapping import EinsumMapping, PartitionDirective

    mapping = spec.mapping
    new_einsum_mapping = EinsumMapping(
        name=einsum,
        loop_order=list(candidate.loop_order),
        partitioning=[
            ((rank,), [PartitionDirective("uniform_shape", size)])
            for rank, size in candidate.tiles
        ],
    )
    new_mapping = type(mapping)(
        rank_order=dict(mapping.rank_order),
        einsums={**mapping.einsums, einsum: new_einsum_mapping},
    )
    return AcceleratorSpec(
        einsum=spec.einsum,
        mapping=new_mapping,
        format=spec.format,
        architecture=spec.architecture,
        binding=spec.binding,
        params=dict(spec.params),
        name=f"{spec.name}+{candidate.describe()}",
    )
